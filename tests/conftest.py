"""Shared test setup."""

import importlib.util
import os
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# Bench variants whose main panel the oracle tests check on every run. The
# 16 variants differ only in their seed, and each adds about 5 s to the two
# oracle tests, so the suite takes two; ``python tests/conftest.py`` checks
# the desk panel and all 16 (about 90 s).
ORACLE_VARIANTS = (3, 12)


def pytest_configure(config):
    # Tests that start ``python -m mdsessions.cli`` in a subprocess import the
    # package from ``src``, as the test process does, without an install.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )


def _bench_module(name: str):
    """``bench/<name>.py``, a module of the benchmark, read-only: ``gen`` is
    its own panel generator and ``tracing`` its tracer."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def normalized(app_sessions):
    """The ``Panel`` of hand-built app sessions that ``normalize`` must keep
    as they are, so that no test runs on other data than it shows."""
    from mdsessions.ingest import Diagnostics, normalize

    diagnostics = Diagnostics()
    panel = normalize(app_sessions, diagnostics)
    assert not diagnostics.records, diagnostics.records
    return panel


def session(start, end, user="u1", device="phone", device_type="smartphone",
            app="a", cat="social"):
    """A hand-built app session: a social app "a" on user u1's Android phone."""
    from mdsessions.ingest import AppSession

    return AppSession(user, device, device_type, "android", app, cat, start, end)


def oracle_relations(a, b):
    """All Allen relations whose defining endpoint conditions hold, checked
    independently of the classifier's branch order."""
    from mdsessions.intervals import AllenRelation as R

    conditions = {
        R.PRECEDES: a.end < b.start,
        R.MEETS: a.end == b.start,
        R.OVERLAPS: a.start < b.start < a.end < b.end,
        R.FINISHED_BY: a.start < b.start and a.end == b.end,
        R.ENCLOSES: a.start < b.start and b.end < a.end,
        R.STARTS: a.start == b.start and a.end < b.end,
        R.EQUIVALENT: a.start == b.start and a.end == b.end,
        R.STARTED_BY: a.start == b.start and b.end < a.end,
        R.ENCLOSED_BY: b.start < a.start and a.end < b.end,
        R.FINISHES: b.start < a.start and a.end == b.end,
        R.OVERLAPPED_BY: b.start < a.start < b.end < a.end,
        R.MET_BY: b.end == a.start,
        R.PRECEDED_BY: b.end < a.start,
    }
    return [r for r, holds in conditions.items() if holds]


def desk_panel():
    """The ``Panel`` of the desk panel (generator defaults)."""
    from mdsessions.generator import PanelSpec, generate_sessions
    from mdsessions.ingest import Diagnostics, normalize

    return normalize(generate_sessions(PanelSpec()), Diagnostics())


def bench_panel(variant: int, work: Path):
    """The ``Panel`` of a bench variant's main panel, read from its session
    CSV as the CLI reads it."""
    from mdsessions.ingest import Diagnostics, normalize, read_sessions_csv

    _bench_module("gen").main_panel(variant, work, events=False)
    with open(work / "sessions.csv", encoding="utf-8") as fh:
        return normalize(read_sessions_csv(fh, Diagnostics()), Diagnostics())


@pytest.fixture(scope="session")
def oracle_panels(tmp_path_factory):
    """Panels for the oracle tests, generated once per test session."""
    panels = {"desk": desk_panel()}
    for v in ORACLE_VARIANTS:
        panels[f"bench{v}"] = bench_panel(v, tmp_path_factory.mktemp(f"bench{v}"))
    return panels


if __name__ == "__main__":
    sys.path[:0] = [SRC, str(ROOT / "tests")]
    from test_construction import check_stats_oracle
    from test_patterns import check_group_oracle

    for variant in [None, *range(16)]:
        if variant is None:
            name, panel = "desk", desk_panel()
        else:
            with tempfile.TemporaryDirectory() as tmp:
                name, panel = f"bench{variant}", bench_panel(variant, Path(tmp))
        check_stats_oracle(panel)
        n_md = check_group_oracle(panel)
        print(f"{name}: {len(panel)} app sessions, {n_md} multidevice sessions agree")
