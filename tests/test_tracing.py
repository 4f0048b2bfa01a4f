"""The benchmark's tracer, ``bench/tracing.py``, around one in-process command.

The tracer reads the shapes that the package's functions return: ``len`` of
the ``Panel`` that ``normalize`` returns, the ``(md, usage)`` pair of
``build_multidevice_sessions``, the diagnostics the readers fill. A change
to one of them would otherwise fail only in a traced benchmark run.
"""

import importlib
import inspect
import sys
from itertools import chain

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


# The count-only functions that no layer defines any more. Their counters
# read 0 on every workload; the benchmark change drops them with their hooks.
GONE = {"link", "assign_group", "to_matrix", "resize", "window_overlap_seconds"}


def test_every_function_the_tracer_times_exists():
    """Each name the tracer reads a per-layer metric from, or hooks, is a
    public function defined in a module of its layer. Otherwise its metric
    reads 0 and no traced run fails."""
    tracing = _bench_module("tracing")
    defined = set()
    for modname, layer in tracing.LAYERS.items():
        module = importlib.import_module(modname)
        defined.update(f"{layer}.{name}" for name, fn in vars(module).items()
                       if inspect.isfunction(fn) and fn.__module__ == modname
                       and not name.startswith("_"))
    timed = {*chain.from_iterable(tracing.SELF_TIMES.values()), *tracing.INCL_TIMES.values(),
             *tracing._HOOKS}
    assert timed - defined == set()
    counted = {name.split(".")[1] for name in tracing._COUNT_HOOKS} | tracing.COUNT_ONLY
    assert counted - {name.split(".")[1] for name in defined} == GONE
