"""The benchmark's tracer, ``bench/tracing.py``, around one in-process command.

The tracer reads the shapes that the package's functions return: ``len`` of
the ``Panel`` that ``normalize`` returns, the ``(md, usage)`` pair of
``build_multidevice_sessions``, the diagnostics the readers fill. A change
to one of them would otherwise fail only in a traced benchmark run.
"""

import inspect
import sys

from conftest import _bench_module

from mdsessions import cli
from mdsessions.generator import PanelSpec, generate_sessions
from mdsessions.ingest import Diagnostics, normalize, read_sessions_csv, write_sessions_csv
from mdsessions.pipeline import reconstruct


def _functions() -> dict:
    """Every function bound to an attribute of a loaded ``mdsessions`` module."""
    return {(name, attr): value
            for name, module in list(sys.modules.items()) if name.split(".")[0] == "mdsessions"
            for attr, value in vars(module).items() if inspect.isfunction(value)}


def test_traced_sessions_counts_equal_an_untraced_build(tmp_path):
    tracing = _bench_module("tracing")
    sessions = generate_sessions(PanelSpec(md_users=3, nmd_users=1, days=3, seed=4))
    path = tmp_path / "sessions.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_sessions_csv(sessions, fh)
        # A row the reader rejects, and a copy of a session that normalize drops.
        s = sessions[0]
        fh.write(f"{s.user_id},{s.device_id},phablet,android,a,c,0,1\n")
        fh.write(f"{s.user_id},{s.device_id},{s.device_type},{s.platform},copy,"
                 f"{s.app_category},{s.start},{s.end}\n")
    diagnostics = Diagnostics()
    with open(path, encoding="utf-8") as fh:
        read = read_sessions_csv(fh, diagnostics)
    rows = len(read) + len(diagnostics)
    panel = normalize(read, diagnostics)
    usage, md = reconstruct(panel, 60)
    assert md and len(panel) < len(read) < rows

    untraced = _functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _functions() != untraced
        tracer.command("cli.sessions", lambda: cli.cli.main(
            ["sessions", "--input", str(path), "--mode", "sessions", "--tw", "60",
             "--out", str(tmp_path / "out")], prog_name="mdsessions", standalone_mode=False))
    finally:
        tracer.uninstall()
    assert _functions() == untraced

    metrics = tracer.metrics()
    assert metrics["construction.usage_sessions"] == len(usage)
    assert metrics["construction.md_sessions"] == len(md)
    assert metrics["ingest.accept_ratio"] == len(panel) / rows
