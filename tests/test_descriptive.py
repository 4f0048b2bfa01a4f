"""Descriptive statistics: summaries, shares, hourly bins, ECDFs, sweep."""

import math
import random
import statistics
import time

import pytest
from conftest import normalized, session
from hypothesis import example, given, settings, strategies as st
from test_construction import brute_force_components

from mdsessions.construction import build_multidevice_sessions, build_usage_sessions
from mdsessions.descriptive import (
    DEFAULT_TW_GRID,
    SESSION_CLASSES,
    active_span_days,
    category_share_report,
    empirical_cdf,
    hourly_distribution,
    per_user_summary,
    session_classes,
    summarize,
    timeout_sweep,
    usage_shares,
)
from mdsessions.generator import PanelSpec, generate_sessions
from mdsessions.pipeline import smartphone_pure_vs_mixed_usage

HOUR = 3600
DAY = 24 * HOUR


def build(sessions, tw=60):
    usage = build_usage_sessions(normalized(sessions), tw)
    md, usage = build_multidevice_sessions(usage, tw)
    return usage, md


def random_sweep_panel(rng):
    """Random users over a phone, a tablet and, for the first user, a second
    phone; plus a user with equal starts on two devices and a user whose
    long phone session bridges two tablet usage sessions."""
    sessions = []
    for u in range(rng.randrange(1, 4)):
        devices = [("phone", "smartphone"), ("tab", "tablet")]
        if u == 0:
            devices.append(("phone2", "smartphone"))
        for device, device_type in devices:
            t = rng.randrange(0, 50)
            for i in range(rng.randrange(1, 10)):
                end = t + rng.randrange(1, 200)
                sessions.append(session(t, end, user=f"u{u}", device=device,
                                        device_type=device_type, app=f"{device}{i}"))
                t = end + rng.choice([0, 1, 5, 10, 30, 60, 61, 200, 300, 700, 1000, 1500])
    sessions += [
        session(5000, 5010, user="equal"),
        session(5000, 5100, user="equal", device="tab", device_type="tablet"),
        session(0, 3000, user="bridge"),
        session(100, 200, user="bridge", device="tab", device_type="tablet"),
        session(2000, 2100, user="bridge", device="tab", device_type="tablet", app="b"),
    ]
    return sessions


def sweep_oracle(panel, tw):
    """One sweep point from full usage sessions and fixpoint components."""
    usage = build_usage_sessions(panel, tw)
    users = sorted({s.user_id for s in panel})
    counts = dict.fromkeys(SESSION_CLASSES, 0)
    per_user_ratio = []
    for user in users:
        mine = [s for s in usage if s.user_id == user]
        mixed = set()
        for component in brute_force_components(mine, tw):
            if len({s.device_type for s in mine if s.id in component}) > 1:
                counts["multidevice"] += 1
                mixed |= component
        for s in mine:
            counts[f"{s.device_type}_all"] += 1
            counts[f"{s.device_type}_pure"] += s.id not in mixed
        per_user_ratio.append(statistics.fmean([len(s.app_sessions) for s in mine]))
    return (
        {cls: counts[cls] / len(users) for cls in SESSION_CLASSES},
        statistics.fmean(per_user_ratio),
    )


@pytest.fixture(scope="module")
def synthetic_panel():
    spec = PanelSpec(md_users=6, nmd_users=0, days=6, prototype_quota={15: 0.2}, seed=99)
    return generate_sessions(spec)


class TestSummarize:
    def test_three_app_session_usage_session(self):
        sessions = [session(0, 10), session(20, 40, app="b"), session(50, 80, app="c")]
        usage, md = build(sessions)
        s = summarize(usage)
        assert s.n == 1
        assert s.length_mean == 80  # hull 0..80
        assert s.app_sessions_mean == 3
        assert s.interaction_seconds == 60

    def test_md_session_additivity(self):
        sessions = [
            session(0, 10), session(20, 40, app="b"),
            session(5, 30, device="tab", device_type="tablet", app="c"),
            session(45, 60, device="tab", device_type="tablet", app="d"),
            session(90, 100, device="tab", device_type="tablet", app="e"),
        ]
        usage, md = build(sessions)
        assert len(md) == 1
        s = summarize(md)
        assert s.app_sessions_mean == 5

    def test_empty_class_marker(self):
        s = summarize([])
        assert s.n == 0 and math.isnan(s.length_mean)


class TestUsageShares:
    def test_no_md_sessions(self):
        sessions = [session(0, 10), session(5000, 5010, device="tab", device_type="tablet")]
        usage, md = build(sessions)
        shares = usage_shares(session_classes(usage, md))
        for denom in ("app_sessions", "usage_sessions", "interaction_time"):
            assert shares["by_purity"]["multidevice"][denom] == 0.0

    def test_equal_pure_split(self):
        sessions = [session(0, 100), session(5000, 5100, device="tab", device_type="tablet")]
        usage, md = build(sessions)
        shares = usage_shares(session_classes(usage, md))
        assert shares["by_device"]["smartphone_all"]["interaction_time"] == pytest.approx(50.0)
        assert shares["by_purity"]["tablet_pure"]["interaction_time"] == pytest.approx(50.0)

    def test_partitions_sum_to_100(self, synthetic_panel):
        usage, md = build(synthetic_panel)
        shares = usage_shares(session_classes(usage, md))
        for partition in shares.values():
            for denom in ("app_sessions", "usage_sessions", "interaction_time"):
                total = sum(cls[denom] for cls in partition.values())
                assert total == pytest.approx(100.0, abs=0.2)


class TestHourlyDistribution:
    def test_single_session_in_one_hour(self):
        sessions = [session(21 * HOUR + 100, 21 * HOUR + 700)]
        usage, _ = build(sessions)
        bins = hourly_distribution(usage, {})
        assert bins[21] == pytest.approx(100.0)

    def test_split_across_boundary(self):
        sessions = [session(21 * HOUR + 1800, 22 * HOUR + 1800)]
        usage, _ = build(sessions)
        bins = hourly_distribution(usage, {})
        assert bins[21] == pytest.approx(50.0)
        assert bins[22] == pytest.approx(50.0)

    def test_bins_sum_to_100(self, synthetic_panel):
        usage, md = build(synthetic_panel)
        bins = hourly_distribution(usage, {})
        assert sum(bins) == pytest.approx(100.0, abs=0.1)

    def test_offset_shifts_bin(self):
        sessions = [session(100, 700)]  # hour 0 UTC
        usage, _ = build(sessions)
        bins = hourly_distribution(usage, {"u1": -2 * HOUR})
        assert bins[22] == pytest.approx(100.0)

    def test_long_session_matches_reference(self):
        # One app session of 1e14 s, mixed with a tablet, beside a pure
        # session; under the negative offset its local start is before 0.
        # The other smartphone sessions last over a day, so that every
        # window holds some of each.
        start = 1800 + 5 * HOUR
        long_end = start + 10**14
        later = long_end + 10 * DAY
        sessions = [session(start, long_end),
                    session(long_end + 5, long_end + DAY + 65, cat="games"),
                    session(start, start + 600, device="tab", device_type="tablet"),
                    session(later, later + DAY + 30, device="phone2")]
        usage, _ = build(sessions)
        for offset in (-9 * HOUR, 5 * HOUR + 1800):
            offsets = {"u1": offset}
            began = time.perf_counter()
            assert hourly_distribution(usage, offsets) == hourly_reference(usage, offsets)
            for evening in ((17, 24), (0, 24), (3, 9)):
                social, games = (window_reference(a, offsets, evening) for a in sessions[:2])
                pure, mixed, excluded = smartphone_pure_vs_mixed_usage(
                    usage, "category", evening, offsets)
                total = 0.0 + social + games
                assert mixed == {"u1": {"social": social / total, "games": games / total}}
                assert pure == {"u1": {"social": 1.0}} and excluded == []
            assert time.perf_counter() - began < 1.0


def _hour_seconds(t, end):
    """``(local hour of day, seconds)`` pieces of the span from local time
    ``t`` to ``end``, one per clock hour and one per hour of day for the
    whole local days inside: the reference for the local-time rules."""
    # Whole local days: from the first local midnight at or after t to the
    # last one at or before end (floor of end / DAY minus ceiling of t / DAY).
    days = end // DAY + -t // DAY
    while t < end:
        if days > 0 and t % DAY == 0:
            for hour in range(24):
                yield hour, 3600 * days
            t += days * DAY
            days = 0
            continue
        step = min(end, (t // 3600 + 1) * 3600)
        yield t // 3600 % 24, step - t
        t = step


def window_reference(app, utc_offsets, evening):
    """Seconds of ``app`` inside the local-time ``evening`` window."""
    offset = utc_offsets.get(app.user_id, 0)
    pieces = _hour_seconds(app.start + offset, app.end + offset)
    return sum(seconds for hour, seconds in pieces if evening[0] <= hour < evening[1])


def hourly_reference(sessions, utc_offsets):
    """``hourly_distribution`` with every app session split by
    ``_hour_seconds``."""
    seconds = [0.0] * 24
    for session in sessions:
        offset = utc_offsets.get(session.user_id, 0)
        for app in session.app_sessions:
            pieces = _hour_seconds(app.start + offset, app.end + offset)
            for hour, chunk in pieces:
                seconds[hour] += chunk
    total = sum(seconds)
    if total == 0:
        return [0.0] * 24
    return [100.0 * s / total for s in seconds]


# Starts and durations on and off the hour, within a day, across midnight
# and over several days; starts below 12 h give a negative local time under
# an offset of down to -12 h.
STARTS = (st.integers(0, 12 * HOUR) | st.integers(0, 30 * DAY)
          | st.integers(0, 30 * 24).map(lambda h: h * HOUR))
DURATIONS = (st.integers(1, 2 * HOUR) | st.integers(1, 5 * DAY)
             | st.integers(1, 5 * 24).map(lambda h: h * HOUR))
OFFSETS = st.integers(-12 * HOUR, 14 * HOUR) | st.integers(-12, 14).map(lambda h: h * HOUR)


class TestHourlyFastPath:
    @settings(max_examples=60, deadline=None)
    # One clock hour exactly, ending on local midnight, negative local time,
    # ending on the hour under +14 h, three days across midnights, and two
    # days from a local midnight.
    @example(spans=[("u1", "smartphone", 5 * HOUR, HOUR), ("u2", "tablet", 23 * HOUR, HOUR)],
             offsets={"u1": 0, "u2": 0})
    @example(spans=[("u1", "smartphone", 600, 600), ("u2", "tablet", DAY - 60, 60)],
             offsets={"u1": -2 * HOUR, "u2": 14 * HOUR})
    @example(spans=[("u1", "smartphone", 22 * HOUR + 5, 3 * DAY), ("u1", "tablet", 600, 60)],
             offsets={"u1": -12 * HOUR, "u2": 0})
    @example(spans=[("u2", "tablet", 10 * DAY + 2 * HOUR, 2 * DAY + 1)],
             offsets={"u1": 0, "u2": -2 * HOUR})
    @given(spans=st.lists(st.tuples(st.sampled_from(["u1", "u2"]),
                                    st.sampled_from(["smartphone", "tablet"]),
                                    STARTS, DURATIONS),
                          min_size=1, max_size=12),
           offsets=st.fixed_dictionaries({"u1": OFFSETS, "u2": OFFSETS}))
    def test_matches_hour_seconds_for_every_session(self, spans, offsets):
        # One device per app session, so the sessions may overlap in time.
        app_sessions = [session(start, start + duration, user=user, device=f"d{i}",
                                device_type=device_type)
                        for i, (user, device_type, start, duration) in enumerate(spans)]
        usage, md = build(app_sessions)
        for sessions in (usage, md):
            assert hourly_distribution(sessions, offsets) == hourly_reference(sessions, offsets)


class TestEmpiricalCdf:
    def test_single_value(self):
        assert empirical_cdf([5]) == [(5, 1.0)]

    def test_small_sample_quartiles(self):
        cdf = dict(empirical_cdf([1, 2, 3, 4]))
        assert cdf[2] == 0.5 and cdf[4] == 1.0

    def test_duplicates_collapse(self):
        assert empirical_cdf([2, 2, 3]) == [(2, pytest.approx(2 / 3)), (3, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_ks_distance_to_analytic_exponential(self):
        rng = random.Random(21)
        mean = 100.0
        values = [rng.expovariate(1 / mean) for _ in range(1000)]
        ks = max(
            abs(p - (1 - math.exp(-v / mean))) for v, p in empirical_cdf(values)
        )
        assert ks < 0.05


class TestPerUserSummary:
    def test_user_level_vs_session_level_differ(self):
        # User a: many short sessions; user b: one long session.  The
        # session-level median ignores users, the user-level one does not.
        sessions = [session(i * 1000, i * 1000 + 10, user="a", app=f"x{i}") for i in range(9)]
        sessions.append(session(100000, 100900, user="b"))
        usage, md = build(sessions)
        dataset = summarize(usage)
        per_user = per_user_summary(usage, active_span_days(normalized(sessions)))
        assert dataset.length_median == 10
        assert per_user.length_median_mean == pytest.approx((10 + 900) / 2)

    def test_single_user_panel_matches_dataset_medians(self):
        sessions = [session(0, 100), session(5000, 5060)]
        usage, md = build(sessions)
        dataset = summarize(usage)
        per_user = per_user_summary(usage, active_span_days(normalized(sessions)))
        assert per_user.length_median_mean == dataset.length_median

    def test_empty_returns_none(self):
        assert per_user_summary([], {}) is None


class TestTimeoutSweep:
    def test_single_point_matches_default_run(self, synthetic_panel):
        points = timeout_sweep(normalized(synthetic_panel), [60])
        usage, md = build(synthetic_panel, 60)
        users = {s.user_id for s in synthetic_panel}
        classes = session_classes(usage, md)
        assert list(classes) == list(SESSION_CLASSES)
        expected = {cls: len(sessions) / len(users) for cls, sessions in classes.items()}
        assert points[0].mean_sessions_per_user == pytest.approx(expected)

    def test_equals_component_oracle_exactly(self):
        grid = (0, 1, 10, 60, 300, 1000)
        rng = random.Random(5)
        for _ in range(20):
            panel = normalized(random_sweep_panel(rng))
            points = timeout_sweep(panel, grid)
            assert [p.tw for p in points] == list(grid)
            for p in points:
                got = (p.mean_sessions_per_user, p.mean_app_sessions_per_usage_session)
                assert got == sweep_oracle(panel, p.tw)

    def test_pure_counts_non_increasing(self, synthetic_panel):
        points = timeout_sweep(normalized(synthetic_panel), DEFAULT_TW_GRID)
        for cls in ("smartphone_pure", "tablet_pure"):
            values = [p.mean_sessions_per_user[cls] for p in points]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_app_sessions_per_usage_session_non_decreasing(self, synthetic_panel):
        points = timeout_sweep(normalized(synthetic_panel), DEFAULT_TW_GRID)
        values = [p.mean_app_sessions_per_usage_session for p in points]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


class TestCategoryShareReport:
    def test_single_category(self):
        report = category_share_report([session(0, 100)])
        assert report["smartphone"]["categories"] == {"social": 100.0}

    def test_shares_sum_to_100(self, synthetic_panel):
        report = category_share_report(synthetic_panel)
        for device in ("smartphone", "tablet"):
            cats = report[device]["categories"]
            assert sum(cats.values()) == pytest.approx(100.0, abs=0.1)
            apps = report[device]["apps"]
            assert sum(apps.values()) == pytest.approx(100.0, abs=0.1)

    def test_planted_ratio_recovered(self):
        sessions = [
            session(0, 200, cat="games"),
            session(1000, 1100, cat="video", app="v"),
        ]
        report = category_share_report(sessions)
        cats = report["smartphone"]["categories"]
        assert cats["games"] / cats["video"] == pytest.approx(2.0)

    def test_apps_past_the_top_ten_are_other(self):
        # Twelve apps on one phone, app i used for 10 * (i + 1) seconds.
        report = category_share_report(
            [session(100 * i, 100 * i + 10 * (i + 1), app=f"a{i:02d}") for i in range(12)]
        )
        apps = report["smartphone"]["apps"]
        assert len(apps) == 11
        assert apps["Other"] == pytest.approx(100.0 * (10 + 20) / 780)
        assert "a00" not in apps and "a01" not in apps
        assert sum(apps.values()) == pytest.approx(100.0)

    def test_category_sums_its_apps(self):
        sessions = [
            session(0, 100, app="a"),
            session(200, 500, app="b"),
            session(600, 700, app="g", cat="games"),
            session(0, 50, device="pad", device_type="tablet", app="a"),
        ]
        report = category_share_report(sessions)
        assert report["smartphone"] == {"categories": {"games": 20.0, "social": 80.0},
                                        "apps": {"b": 60.0, "a": 20.0, "g": 20.0}}
        assert report["tablet"] == {"categories": {"social": 100.0}, "apps": {"a": 100.0}}


class TestActiveSpanDays:
    def test_minimum_one_day(self):
        days = active_span_days(normalized([session(0, 100)]))
        assert days["u1"] == 1.0

    def test_span_computed_from_extremes(self):
        days = active_span_days(normalized([session(0, 100), session(4 * 86400, 4 * 86400 + 50)]))
        assert days["u1"] == pytest.approx(4.0, abs=0.01)
