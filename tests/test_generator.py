"""Synthetic panel generator: determinism, clean pairing, and recovery of
planted structure."""

import io

import pytest
from conftest import normalized
from oracles import assign_group, prototype_matrix, to_matrix

from mdsessions.construction import build_multidevice_sessions
from mdsessions.generator import (
    PROTOTYPE_EPISODE_SECONDS,
    Distribution,
    PanelSpec,
    _prototype_episode_sessions,
    generate,
    generate_sessions,
    write_events_jsonl,
)
from mdsessions.ingest import Diagnostics, normalize, pair_sessions, parse_events
from mdsessions.patterns import assign_groups, group_frequencies
from mdsessions.robust import trimmed_mean


def events_bytes(spec):
    buf = io.StringIO()
    write_events_jsonl(generate(spec), buf)
    return buf.getvalue()


class TestDistribution:
    def test_exponential_mean(self):
        import numpy as np

        rng = np.random.default_rng(0)
        d = Distribution("exponential", {"mean": 50.0})
        draws = [d.sample(rng) for _ in range(5000)]
        assert sum(draws) / len(draws) == pytest.approx(50.0, rel=0.1)

    def test_positive_integers(self):
        import numpy as np

        rng = np.random.default_rng(1)
        d = Distribution("lognormal", {"mu": 0.0, "sigma": 2.0})
        assert all(isinstance(d.sample(rng), int) and d.sample(rng) >= 1 for _ in range(100))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Distribution("uniform", {})


class TestPanelSpecValidation:
    def test_from_dict_roundtrip(self):
        raw = {
            "md_users": 2, "nmd_users": 1, "days": 3, "seed": 7,
            "duration_dist": {"family": "exponential", "params": {"mean": 60.0}},
            "prototype_quota": {"15": 0.25},
        }
        spec = PanelSpec.from_dict(raw)
        assert spec.md_users == 2 and spec.prototype_quota == {15: 0.25}

    def test_quota_above_one_rejected(self):
        with pytest.raises(ValueError):
            PanelSpec(prototype_quota={15: 0.7, 240: 0.6})

    def test_negative_days_rejected(self):
        with pytest.raises(ValueError):
            PanelSpec(days=0)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        spec = PanelSpec(md_users=3, nmd_users=2, days=3, seed=42)
        assert events_bytes(spec) == events_bytes(spec)

    def test_different_seed_differs(self):
        a = PanelSpec(md_users=3, nmd_users=2, days=3, seed=42)
        b = PanelSpec(md_users=3, nmd_users=2, days=3, seed=43)
        assert events_bytes(a) != events_bytes(b)


class TestWellFormedOutput:
    def test_pairs_without_diagnostics(self):
        spec = PanelSpec(md_users=4, nmd_users=2, days=4, seed=1)
        diag = Diagnostics()
        sessions = pair_sessions(generate(spec), diag)
        assert len(diag) == 0 and sessions

    def test_full_ingestion_path_clean(self):
        spec = PanelSpec(md_users=2, nmd_users=1, days=3, seed=2)
        diag = Diagnostics()
        events = parse_events(io.StringIO(events_bytes(spec)), "jsonl", diag)
        sessions = normalize(pair_sessions(events, diag), diag)
        assert len(diag) == 0
        assert len(sessions) == len(generate_sessions(spec))

    def test_nmd_users_have_no_tablet(self):
        spec = PanelSpec(md_users=2, nmd_users=3, days=3, seed=3)
        for s in generate_sessions(spec):
            if s.user_id.startswith("nmd"):
                assert s.device_type == "smartphone"

    def test_md_users_use_both_devices(self):
        spec = PanelSpec(md_users=3, nmd_users=0, days=5, seed=4)
        by_user = {}
        for s in generate_sessions(spec):
            by_user.setdefault(s.user_id, set()).add(s.device_type)
        assert all(types == {"smartphone", "tablet"} for types in by_user.values())


def matrix_episode(group_id, origin):
    """The planted episode read from ``prototype_matrix``: one session per
    run of 1s in a row, over its quarters, or one second mid-episode for an
    all-zero row."""
    quarter = PROTOTYPE_EPISODE_SECONDS // 4
    out = []
    for row, device in zip(prototype_matrix(group_id), ("smartphone", "tablet")):
        if not row.any():
            mid = origin + PROTOTYPE_EPISODE_SECONDS // 2
            out.append((device, mid, mid + 1))
        lo = None
        for j, bit in enumerate([*row, 0]):
            if bit and lo is None:
                lo = j
            elif not bit and lo is not None:
                out.append((device, origin + lo * quarter, origin + j * quarter))
                lo = None
    return out


class TestPlantedStructure:
    def test_episode_sessions_are_the_matrix_runs(self):
        for gid in range(256):
            assert _prototype_episode_sessions(gid, 1000) == matrix_episode(gid, 1000), gid
        with pytest.raises(ValueError, match=r"^prototype id out of range: 300$"):
            _prototype_episode_sessions(300, 0)

    def test_quota_group_dominates(self):
        spec = PanelSpec(md_users=8, nmd_users=0, days=8, seed=5,
                         prototype_quota={15: 0.5})
        sessions = generate_sessions(spec)
        md, _ = build_multidevice_sessions(normalized(sessions), spec.tw)
        overall, _ = group_frequencies(assign_groups(md))
        assert max(overall, key=overall.get) == 15
        # About half of episodes should land in the planted group.
        assert overall[15] == pytest.approx(50.0, abs=15.0)

    def test_planted_episode_shape_exact(self):
        # With quota 1.0 every multidevice episode is prototype-shaped.
        spec = PanelSpec(md_users=2, nmd_users=0, days=4, seed=6,
                         prototype_quota={135: 1.0})
        sessions = generate_sessions(spec)
        md, _ = build_multidevice_sessions(normalized(sessions), spec.tw)
        assert md and all(assign_group(to_matrix(m)) == 135 for m in md)

    def test_category_shift_recovered(self):
        spec = PanelSpec(
            md_users=30, nmd_users=0, days=10, seed=7,
            md_episodes_per_day=0.0001,  # keep episodes effectively single-device
            md_category_shift={"games": 2.0},
        )
        per_cat = {}
        for s in generate_sessions(spec):
            per_cat.setdefault(s.app_category, []).append(s.duration)
        # Doubled duration multiplier should roughly double the trimmed mean.
        ratio = trimmed_mean(per_cat["games"]) / trimmed_mean(per_cat["social"])
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_rate_parameter_scales_session_count(self):
        lo = PanelSpec(md_users=5, nmd_users=0, days=6, seed=8,
                       smartphone_sessions_per_day=3.0)
        hi = PanelSpec(md_users=5, nmd_users=0, days=6, seed=8,
                       smartphone_sessions_per_day=12.0)
        count = lambda spec: sum(
            1 for s in generate_sessions(spec) if s.device_type == "smartphone"
        )
        assert count(hi) > 2 * count(lo)

    def test_feasibility_check_enforced(self):
        # Group 85 has 100-second holes on both devices at episode scale, so
        # it splits into two multidevice sessions at tw=60 and is refused.
        with pytest.raises(ValueError):
            PanelSpec(md_users=1, days=1, prototype_quota={85: 0.1})
        PanelSpec(md_users=1, days=1, prototype_quota={15: 0.1})
