"""Acceptance suite.

Each criterion prints one PASS/FAIL line so the run log doubles as the
acceptance report.  Criteria 8 and 10 are the slow ones (bootstrap
calibration and the 100-user end-to-end run); everything else is quick.
"""

import io
import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import normalized, oracle_relations, session

from mdsessions.construction import (
    build_multidevice_sessions,
    build_usage_sessions,
    construction_stats,
)
from mdsessions.descriptive import session_classes, timeout_sweep, usage_shares
from mdsessions.generator import PanelSpec, generate, generate_sessions, write_events_jsonl
from mdsessions.ingest import Diagnostics, normalize, pair_sessions, parse_events
from mdsessions.intervals import Interval, classify
from mdsessions.patterns import assign_groups, group_frequencies
from mdsessions.pipeline import daily_minutes_by_user
from mdsessions.prototypes import assign_group, prototype_id, prototype_matrix, to_matrix
from mdsessions.robust import (
    TrimSpec,
    paired_bootstrap_test,
    substitution_split,
    trimmed_mean,
    two_sample_bootstrap_test,
)

TW_GRID = (1, 10, 60, 300, 1000, 10000)


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_allen_oracle_equivalence():
    rng = random.Random(20240501)
    start = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(10_000):
        a_start = rng.randrange(0, 50)
        a = Interval(a_start, a_start + rng.randrange(1, 40))
        b_start = rng.randrange(0, 50)
        b = Interval(b_start, b_start + rng.randrange(1, 40))
        hits = oracle_relations(a, b)
        if len(hits) != 1 or classify(a, b) != hits[0]:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, ok and checked == 10_000 and elapsed < 1.0,
           f"10,000 random pairs match the 13-predicate oracle in {elapsed:.3f}s")


def test_criterion_02_reconstruction_fixture():
    app_sessions = [
        session(0, 100, app="A"),
        session(110, 200, app="B"),
        session(205, 300, app="C"),
        session(1000, 1100, app="D"),
        session(50, 150, device="tab", device_type="tablet", app="E"),
        session(160, 260, device="tab", device_type="tablet", app="F"),
        session(1050, 1120, device="tab", device_type="tablet", app="G"),
    ]
    usage = build_usage_sessions(normalized(app_sessions), tw=60)
    md, usage = build_multidevice_sessions(usage, tw=60)
    spans = sorted((u.device_type, u.start, u.end) for u in usage)
    usage_ok = spans == [
        ("smartphone", 0, 300),      # H = {A,B,C}
        ("smartphone", 1000, 1100),  # I = {D}
        ("tablet", 50, 260),         # J = {E,F}
        ("tablet", 1050, 1120),      # K = {G}
    ]
    groups = sorted(
        sorted((m.device_type, m.start) for m in s.members) for s in md
    )
    md_ok = groups == [
        [("smartphone", 0), ("tablet", 50)],       # L = {H, J}
        [("smartphone", 1000), ("tablet", 1050)],  # M = {I, K}
    ]
    report(2, usage_ok and md_ok,
           "fixture A-G reconstructs exactly to H-K and {H,J}, {I,K}")


def test_criterion_03_prototype_encoding():
    roundtrip_ok = all(prototype_id(prototype_matrix(g)) == g for g in range(256))
    table_ok = (
        prototype_matrix(15).tolist() == [[0, 0, 0, 0], [1, 1, 1, 1]]
        and prototype_matrix(240).tolist() == [[1, 1, 1, 1], [0, 0, 0, 0]]
        and prototype_matrix(135).tolist() == [[1, 0, 0, 0], [0, 1, 1, 1]]
    )
    self_map_ok = all(assign_group(prototype_matrix(g)) == g for g in range(256))
    report(3, roundtrip_ok and table_ok and self_map_ok,
           "256 id<->matrix round-trips, quoted ids 15/240/135, prototype self-assignment")


def test_criterion_04_worked_matrix():
    md = build_multidevice_sessions(
        build_usage_sessions(
            normalized([session(1, 4), session(3, 5, device="tab", device_type="tablet")]), 60
        ),
        60,
    )[0][0]
    m = to_matrix(md, coverage="closed")
    report(4, m.tolist() == [[1, 1, 1, 1, 0], [0, 0, 1, 1, 1]],
           "smartphone t=1-4 with tablet t=3-5 yields the displayed 2x5 matrix")


def test_criterion_05_timeout_monotonicity():
    start = time.perf_counter()
    violations = 0
    for seed in range(20):
        spec = PanelSpec(md_users=2, nmd_users=1, days=3, seed=seed)
        app_sessions = generate_sessions(spec)
        panel = normalized(app_sessions)
        usage_counts = [len(build_usage_sessions(panel, tw)) for tw in TW_GRID]
        if any(a < b for a, b in zip(usage_counts, usage_counts[1:])):
            violations += 1
        per_usage = [len(app_sessions) / c for c in usage_counts]
        if any(a > b + 1e-12 for a, b in zip(per_usage, per_usage[1:])):
            violations += 1
    elapsed = time.perf_counter() - start
    report(5, violations == 0 and elapsed < 30.0,
           f"20 panels x grid {TW_GRID}: 0 monotonicity violations in {elapsed:.1f}s")


def test_criterion_06_share_partitions():
    worst = 0.0
    for seed in (1, 2, 3):
        spec = PanelSpec(md_users=4, nmd_users=2, days=4, seed=seed)
        app_sessions = generate_sessions(spec)
        usage = build_usage_sessions(normalized(app_sessions), 60)
        md, usage = build_multidevice_sessions(usage, 60)
        shares = usage_shares(session_classes(usage, md))
        for partition in shares.values():
            for denom in ("app_sessions", "usage_sessions", "interaction_time"):
                total = sum(cls[denom] for cls in partition.values())
                worst = max(worst, abs(total - 100.0))
        stats = construction_stats(usage, md, 60)
        for table in stats.relation_shares.values():
            if table:
                worst = max(worst, abs(sum(table.values()) - 100.0))
    report(6, worst <= 0.2,
           f"all share partitions sum to 100 +- 0.2 (worst deviation {worst:.4f})")


def test_criterion_07_trimmed_mean_analytic():
    exact = trimmed_mean(range(1, 11), 0.2) == 5.5
    xs = [0.3, 1.7, 2.9, 4.1, 5.3]
    untrimmed = abs(trimmed_mean(xs, 0.0) - sum(xs) / len(xs)) < 1e-12
    report(7, exact and untrimmed,
           "[1..10] at gamma=0.2 -> 5.5 exactly; gamma=0 matches the mean to 1e-12")


def test_criterion_08_bootstrap_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    reps = 1000
    rej_paired = rej_two = 0
    for rep in range(reps):
        spec = TrimSpec(seed=rep)
        x = rng.lognormal(0.0, 1.0, 60)
        y = rng.lognormal(0.0, 1.0, 60)
        if paired_bootstrap_test(x, y, spec).p_value < 0.05:
            rej_paired += 1
        x2 = rng.lognormal(0.0, 1.0, 60)
        y2 = rng.lognormal(0.0, 1.0, 60)
        if two_sample_bootstrap_test(x2, y2, spec).p_value < 0.05:
            rej_two += 1
    elapsed = time.perf_counter() - start
    rate_p, rate_t = rej_paired / reps, rej_two / reps
    ok = 0.03 <= rate_p <= 0.07 and 0.03 <= rate_t <= 0.07 and elapsed < 300
    report(8, ok,
           f"null rejection rates paired={rate_p:.3f}, two-sample={rate_t:.3f} "
           f"(target [0.03, 0.07]) in {elapsed:.1f}s")


def test_criterion_09_substitution_arithmetic():
    split = substitution_split(172.81, 138.00, 71.83)
    sub, novel = split.substitution_share * 100, split.novel_share * 100
    ok = abs(sub - 48.5) <= 0.5 and abs(novel - 51.5) <= 0.5 and split.interpretable
    report(9, ok,
           f"(172.81, 138.00, 71.83) min/day -> substitution {sub:.1f}%, novel {novel:.1f}%")


def test_criterion_10_end_to_end_planted_recovery():
    start = time.perf_counter()
    spec = PanelSpec(
        md_users=50, nmd_users=50, days=8, seed=77,
        prototype_quota={15: 0.3},
        md_category_shift={"games": 2.0},
    )
    # Full pipeline: serialize events, re-parse, pair, normalize, construct.
    buf = io.StringIO()
    write_events_jsonl(generate(spec), buf)
    buf.seek(0)
    diag = Diagnostics()
    panel = normalize(pair_sessions(parse_events(buf, "jsonl", diag), diag), diag)
    assert len(diag) == 0
    usage = build_usage_sessions(panel, spec.tw)
    md, usage = build_multidevice_sessions(usage, spec.tw)

    overall, _ = group_frequencies(assign_groups(md))
    top_group = max(overall, key=overall.get)

    md_panel = normalize([s for s in panel if s.user_id.startswith("md")], Diagnostics())
    nmd_panel = normalize([s for s in panel if s.user_id.startswith("nmd")], Diagnostics())
    md_minutes = daily_minutes_by_user(md_panel, "category", "smartphone")
    nmd_minutes = daily_minutes_by_user(nmd_panel, "category", "smartphone")
    result = two_sample_bootstrap_test(
        [m.get("games", 0.0) for m in md_minutes.values()],
        [m.get("games", 0.0) for m in nmd_minutes.values()],
        TrimSpec(seed=5),
    )
    elapsed = time.perf_counter() - start
    ok = (
        top_group == 15
        and result.p_value < 0.05
        and result.direction == "x>y"
        and elapsed < 120
    )
    report(10, ok,
           f"100 users: top group {top_group} (want 15), planted games effect "
           f"p={result.p_value:.4f} direction {result.direction} in {elapsed:.1f}s")


def test_criterion_11_cli_determinism(tmp_path):
    cli = [sys.executable, "-m", "mdsessions.cli"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"md_users": 3, "nmd_users": 2, "days": 4, "seed": 13,
         "prototype_quota": {"15": 0.4}}
    ))

    def run(*args):
        res = subprocess.run(cli + list(args), capture_output=True, text=True)
        assert res.returncode == 0, res.stderr

    # Shared inputs so both runs see identical configs (paths included).
    run("generate", "--spec", str(spec_path), "--out", str(tmp_path / "shared_gen"))
    events = str(tmp_path / "shared_gen" / "events.jsonl")
    run("ingest", "--input", events, "--min-span-days", "0",
        "--out", str(tmp_path / "shared_ing"))
    sessions_csv = str(tmp_path / "shared_ing" / "sessions.csv")

    def run_all(root):
        common = ["--input", sessions_csv, "--mode", "sessions"]
        run("generate", "--spec", str(spec_path), "--out", str(root / "gen"))
        run("ingest", "--input", events, "--min-span-days", "0", "--out", str(root / "ing"))
        run("sessions", *common, "--out", str(root / "sessions"))
        run("patterns", *common, "--contrast-group", "15", "--out", str(root / "patterns"))
        run("stats", *common, "--out", str(root / "stats"))
        run("sweep", *common, "--out", str(root / "sweep"))
        run("compare", *common, "--out", str(root / "compare"))
        run("substitution", "--nmd-smartphone", "172.81", "--md-smartphone", "138.00",
            "--md-tablet", "71.83", "--out", str(root / "substitution"))

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")

    mismatches = []
    for sub in ("gen", "ing", "sessions", "patterns", "stats", "sweep",
                "compare", "substitution"):
        files_a = sorted(p.name for p in (tmp_path / "a" / sub).iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b" / sub).iterdir())
        if files_a != files_b:
            mismatches.append(sub)
            continue
        for name in files_a:
            if (tmp_path / "a" / sub / name).read_bytes() != (tmp_path / "b" / sub / name).read_bytes():
                mismatches.append(f"{sub}/{name}")
    report(11, not mismatches,
           "all 8 CLI commands byte-identical across reruns"
           + (f" (mismatches: {mismatches})" if mismatches else ""))
