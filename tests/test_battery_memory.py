"""Peak heap of the battery commands: each holds one panel at a time, and
paired ``compare`` one user's sessions at a time, never all of them."""

import tracemalloc

import pytest
from conftest import run_cli

from mdsessions.construction import build_multidevice_sessions
from mdsessions.generator import PanelSpec, generate_sessions
from mdsessions.ingest import Diagnostics, normalize, write_sessions_csv
from mdsessions.pipeline import load_app_sessions

# About 7,700 app sessions a panel.
SPEC = dict(md_users=30, days=10)
# Bootstrap blocks of 20 replicates x 30 users, far below a panel's heap.
BOOT = ("--boot", "20")


@pytest.fixture(scope="module")
def heaps(tmp_path_factory):
    """(work dir, heap of the MD panel with all its sessions, heap of both
    panels), each held together, as ``tracemalloc`` counts them."""
    work = tmp_path_factory.mktemp("battery_heap")
    for name, seed in (("md.csv", 1), ("nmd.csv", 2)):
        with open(work / name, "w", encoding="utf-8") as fh:
            write_sessions_csv(generate_sessions(PanelSpec(**SPEC, seed=seed)), fh)

    def load(name):
        return normalize(load_app_sessions(work / name, "sessions", Diagnostics()), Diagnostics())

    tracemalloc.start()
    try:
        md_panel = load("md.csv")
        sessions = build_multidevice_sessions(md_panel, 60)
        with_sessions = tracemalloc.get_traced_memory()[0]
        del sessions
        nmd_panel = load("nmd.csv")
        both_panels = tracemalloc.get_traced_memory()[0]
        del md_panel, nmd_panel
    finally:
        tracemalloc.stop()
    return work, with_sessions, both_panels


def _peak(work, args):
    """The heap that ``run_cli(args)`` adds at its peak, after one untraced
    run has filled whatever the CLI caches."""
    args = [*args, "--mode", "sessions", "--out", str(work / args[0])]
    assert run_cli(args).returncode == 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_cli(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.returncode == 0, res.stderr
    return peak - before


def test_paired_compare_holds_one_users_sessions_at_a_time(heaps):
    work, with_sessions, _ = heaps
    assert _peak(work, ["compare", *BOOT, "--input", str(work / "md.csv")]) < with_sessions


@pytest.mark.parametrize("args", [
    ["compare", *BOOT, "--comparison", "md-vs-nmd-smartphone"],
    ["substitution"],
], ids=["compare-md-vs-nmd", "substitution"])
def test_two_panel_commands_hold_one_panel_at_a_time(heaps, args):
    work, _, both_panels = heaps
    args = [*args, "--input", str(work / "md.csv"), "--input2", str(work / "nmd.csv")]
    assert _peak(work, args) < both_panels
