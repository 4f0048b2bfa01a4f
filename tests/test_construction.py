"""Usage-session construction: greedy merge, cross-device grouping, and
construction statistics, each checked against brute-force oracles."""

import io
import json
import random

import pytest
from conftest import normalized, session
from hypothesis import example, given, settings, strategies as st
from oracles import brute_force_components, brute_force_runs, link
from test_metamorphic import read_panel, small_panels

from mdsessions.construction import (
    MIXED,
    PURE,
    UsageSession,
    build_multidevice_sessions,
    build_usage_sessions,
    construction_stats,
    write_md_sessions_jsonl,
    write_usage_sessions_jsonl,
)
from mdsessions.descriptive import timeout_sweep
from mdsessions.ingest import DEVICE_TYPES, AppSession, Diagnostics, group_by_device, normalize
from mdsessions.intervals import AllenRelation, Interval, classify
from mdsessions.pipeline import reconstruct


def _tw_relation_key(a, b, tw):
    """Relation name with the within-TW refinement for disjoint intervals;
    None when they are disjoint beyond the window."""
    relation = classify(a, b)
    if relation is AllenRelation.PRECEDES:
        return "precedesWithinTW" if link(a, b, tw) else None
    if relation is AllenRelation.PRECEDED_BY:
        return "precededByWithinTW" if link(a, b, tw) else None
    return relation.value


def _percentages(tally):
    total = sum(tally.values())
    if total == 0:
        return {}
    return {k: 100.0 * v / total for k, v in sorted(tally.items())}


def reference_stats(app_sessions, usage_sessions, md_sessions, tw):
    """``(counts, relation_shares)`` by Allen's ``link`` on every adjacent
    same-device app-session pair, both ways, and on every phone x tablet
    usage-session pair of a multidevice session: the tally that
    ``construction_stats`` replaced with gap counts. App sessions are
    counted from ``app_sessions``, not from the usage sessions that hold
    them."""
    counts = {
        dt: {
            "app_sessions": sum(1 for s in app_sessions if s.device_type == dt),
            "usage_sessions": sum(1 for s in usage_sessions if s.device_type == dt),
        }
        for dt in DEVICE_TYPES
    }
    counts["multidevice"] = {
        "app_sessions": sum(len(m.app_sessions) for m in md_sessions),
        "usage_sessions": sum(len(m.members) for m in md_sessions),
        "multidevice_sessions": len(md_sessions),
    }
    shares = {}
    for dt in DEVICE_TYPES:
        tally = {}
        subset = (s for s in app_sessions if s.device_type == dt)
        for _, ordered in group_by_device(subset, key=lambda s: s.start):
            for a, b in zip(ordered, ordered[1:]):
                for x, y in ((a, b), (b, a)):
                    key = _tw_relation_key(x, y, tw)
                    if key is not None:
                        tally[key] = tally.get(key, 0) + 1
        shares[dt] = _percentages(tally)
    md_tally = {}
    for md in md_sessions:
        phones = [m for m in md.members if m.device_type == "smartphone"]
        tablets = [m for m in md.members if m.device_type == "tablet"]
        for p in phones:
            for t in tablets:
                key = _tw_relation_key(p, t, tw)
                if key is None:
                    key = classify(p, t).value
                md_tally[key] = md_tally.get(key, 0) + 1
    shares["multidevice"] = _percentages(md_tally)
    return counts, shares


def check_stats_oracle(panel):
    """``construction_stats`` equals the reference tally exactly at four
    windows on one ``Panel``."""
    for tw in (0, 30, 60, 600):
        usage, md = reconstruct(panel, tw)
        stats = construction_stats(usage, md, tw)
        expected = reference_stats(list(panel), usage, md, tw)
        assert (stats.counts, stats.relation_shares) == expected, f"tw={tw}"


def two_device_stream_fixture():
    """Seven app sessions over two devices that merge into four usage
    sessions and two multidevice sessions ({H,J} and {I,K})."""
    a = session(0, 100, app="A")
    b = session(110, 200, app="B")
    c = session(205, 300, app="C")
    d = session(1000, 1100, app="D")
    e = session(50, 150, device="tab", device_type="tablet", app="E")
    f = session(160, 260, device="tab", device_type="tablet", app="F")
    g = session(1050, 1120, device="tab", device_type="tablet", app="G")
    return [a, b, c, d, e, f, g]


class TestBuildUsageSessions:
    def test_adjacent_merge_and_degenerate_singletons(self):
        usage = build_usage_sessions(normalized(two_device_stream_fixture()), tw=60)
        spans = sorted(
            ((u.device_type, u.start, u.end, len(u.app_sessions)) for u in usage)
        )
        assert spans == [
            ("smartphone", 0, 300, 3),     # A,B,C merged
            ("smartphone", 1000, 1100, 1),  # D singleton
            ("tablet", 50, 260, 2),         # E,F merged
            ("tablet", 1050, 1120, 1),      # G singleton
        ]

    def test_single_session_is_singleton(self):
        usage = build_usage_sessions(normalized([session(0, 10)]), tw=60)
        assert len(usage) == 1 and len(usage[0].app_sessions) == 1

    def test_gap_equal_to_tw_merges(self):
        sessions = [session(0, 10), session(70, 80, app="b")]
        usage = build_usage_sessions(normalized(sessions), tw=60)
        assert len(usage) == 1
        assert brute_force_runs(sessions, 60) == [(0, 80)]

    def test_gap_above_tw_splits(self):
        usage = build_usage_sessions(normalized([session(0, 10), session(71, 80, app="b")]), tw=60)
        assert len(usage) == 2

    def test_unknown_device_type_rejected(self):
        bad = session(0, 10, device_type="smartwatch")
        with pytest.raises(ValueError, match="unsupported device type: 'smartwatch'"):
            normalize([bad], Diagnostics())

    def test_matches_brute_force_on_random_panels(self):
        rng = random.Random(7)
        for _ in range(50):
            t, intervals = 0, []
            for _ in range(rng.randrange(1, 50)):
                t += rng.randrange(0, 200)
                end = t + rng.randrange(1, 120)
                intervals.append(Interval(t, end))
                t = end
            sessions = [
                session(iv.start, iv.end, app=f"a{i}") for i, iv in enumerate(intervals)
            ]
            tw = rng.choice([0, 1, 30, 60, 300])
            usage = build_usage_sessions(normalized(sessions), tw)
            assert [(u.start, u.end) for u in usage] == brute_force_runs(
                intervals, tw
            )

    def test_hull_and_partition_invariants(self):
        sessions = two_device_stream_fixture()
        usage = build_usage_sessions(normalized(sessions), tw=60)
        assert sum(len(u.app_sessions) for u in usage) == len(sessions)
        for u in usage:
            assert u.start == u.app_sessions[0].start
            assert u.end == u.app_sessions[-1].end
            assert len({a.device_id for a in u.app_sessions}) == 1


class TestBuildMultideviceSessions:
    def test_two_device_grouping(self):
        md, usage = build_multidevice_sessions(normalized(two_device_stream_fixture()), tw=60)
        assert len(md) == 2
        first, second = sorted(md, key=lambda m: m.start)
        assert {m.start for m in first.members} == {0, 50}
        assert {m.start for m in second.members} == {1000, 1050}
        assert all(u.purity == MIXED for u in usage)

    def test_single_device_stays_pure(self):
        md, usage = build_multidevice_sessions(normalized([session(0, 10)]), tw=60)
        assert md == [] and usage[0].purity == PURE

    def test_transitive_chain_forms_one_session(self):
        # S1 links T1, T1 links S2, but S1 does not link S2 directly.
        s1 = session(0, 100, app="s1")
        t1 = session(150, 400, device="tab", device_type="tablet", app="t1")
        s2 = session(430, 500, app="s2")
        md, _ = build_multidevice_sessions(normalized([s1, t1, s2]), tw=60)
        assert len(md) == 1 and len(md[0].members) == 3

    def test_reach_comes_from_earlier_longer_session(self):
        # The second tablet session starts 480 s after the first one ends,
        # but inside the phone session that encloses both.
        phone = session(0, 1000, app="p")
        t1 = session(10, 20, device="tab", device_type="tablet", app="t1")
        t2 = session(500, 510, device="tab", device_type="tablet", app="t2")
        md, usage = build_multidevice_sessions(normalized([phone, t1, t2]), tw=60)
        assert len(usage) == 3 and len(md) == 1
        assert [m.start for m in md[0].members] == [0, 10, 500]
        assert (md[0].start, md[0].end) == (0, 1000)

    def test_linked_phones_without_tablet_stay_pure(self):
        a = session(0, 100, app="a")
        b = session(50, 150, device="phone2", app="b")
        md, usage = build_multidevice_sessions(normalized([a, b]), tw=60)
        assert link(usage[0], usage[1], 60)
        assert md == [] and all(u.purity == PURE for u in usage)

    def test_negative_tw_rejected(self):
        sessions = [session(0, 10)]
        with pytest.raises(ValueError, match="non-negative"):
            build_usage_sessions(normalized([session(0, 10), session(10, 20, app="b")]), tw=-1)
        with pytest.raises(ValueError, match="non-negative"):
            build_multidevice_sessions(normalized(sessions), tw=-1)
        with pytest.raises(ValueError):
            timeout_sweep(normalized(sessions), [60, -1])

    @pytest.mark.parametrize("tw", [float("inf"), float("nan")])
    def test_infinite_or_nan_tw_rejected(self, tw):
        """An infinite window would drop each user's last multidevice
        session (no start lies more than ``inf`` past the reach), and a NaN
        one compares false with every gap."""
        panel = normalized([session(0, 10), session(5, 20, device="tab", device_type="tablet")])
        for build in (build_usage_sessions, build_multidevice_sessions):
            with pytest.raises(ValueError, match="non-negative and finite"):
                build(panel, tw)
        with pytest.raises(ValueError, match="non-negative and finite"):
            timeout_sweep(panel, [60, tw])
        with pytest.raises(ValueError, match="non-negative and finite"):
            construction_stats([], [], tw)

    def test_matches_component_oracle_on_random_panels(self):
        rng = random.Random(11)
        for _ in range(30):
            sessions = []
            for device, device_type in (("phone", "smartphone"), ("tab", "tablet")):
                t = rng.randrange(0, 100)
                for i in range(rng.randrange(1, 12)):
                    end = t + rng.randrange(1, 150)
                    sessions.append(
                        session(t, end, device=device, device_type=device_type, app=f"{device}{i}")
                    )
                    t = end + rng.randrange(61, 500)
            tw = 60
            md, usage = build_multidevice_sessions(normalized(sessions), tw)
            oracle = {
                c for c in brute_force_components(usage, tw)
                if len({u.device_type for u in usage if u.id in c}) >= 2
            }
            got = {frozenset(m.id for m in md_s.members) for md_s in md}
            assert got == oracle
            for u in usage:
                in_md = any(u.id in c for c in got)
                assert (u.purity == MIXED) == in_md

    @settings(max_examples=300, deadline=None)
    @given(rows=small_panels(), tw=st.sampled_from((0, 1, 60, 600, 3600)) | st.integers(0, 10**12))
    # A tablet session tw after the phone's, and a meeting one at tw 0.
    @example(rows=["u0,d0,smartphone,android,a,social,0,60\n",
                   "u0,d1,tablet,android,b,games,120,180\n"], tw=60)
    @example(rows=["u0,d0,smartphone,android,a,social,0,60\n",
                   "u0,d1,tablet,android,b,games,60,120\n"], tw=0)
    def test_matches_brute_force_on_small_panels(self, rows, tw):
        """Per device, the usage sessions are the runs of pairwise ``link``;
        per user, the multidevice sessions are the cross-device ``link``
        components that hold both device types, and exactly their members
        are mixed. Small panels hold several users and devices, ties,
        overlaps and rows that name the other device type."""
        panel = read_panel(rows)
        md, usage = build_multidevice_sessions(panel, tw)
        for user_id, devices in panel.users.items():
            mine = [u for u in usage if u.user_id == user_id]
            for device_id, stream in devices.items():
                assert [(u.start, u.end) for u in mine if u.device_id == device_id] == (
                    brute_force_runs(stream, tw))
            device_type = {u.id: u.device_type for u in mine}
            expected = sorted(sorted(c) for c in brute_force_components(mine, tw)
                              if len({device_type[i] for i in c}) > 1)
            got = [m for m in md if m.user_id == user_id]
            assert sorted(sorted(u.id for u in m.members) for m in got) == expected
            assert {u.id for u in mine if u.purity == MIXED} == {i for c in expected for i in c}

    def test_hull_covers_members(self):
        md, _ = build_multidevice_sessions(normalized(two_device_stream_fixture()), tw=60)
        for m in md:
            assert m.start == min(u.start for u in m.members)
            assert m.end == max(u.end for u in m.members)

    def test_tw_monotonicity_of_usage_session_count(self):
        sessions = two_device_stream_fixture()
        panel = normalized(sessions)
        counts = [len(build_usage_sessions(panel, tw)) for tw in (0, 10, 60, 300, 2000)]
        assert counts == sorted(counts, reverse=True)


class TestConstructionStats:
    def test_two_meeting_sessions_symmetric_counts(self):
        sessions = [session(0, 10), session(10, 20, app="b")]
        md, usage = build_multidevice_sessions(normalized(sessions), tw=60)
        stats = construction_stats(usage, md, tw=60)
        assert stats.relation_shares["smartphone"] == {"meets": 50.0, "metBy": 50.0}

    def test_md_pair_orientation(self):
        phone = session(2, 4)
        tab = session(0, 10, device="tab", device_type="tablet")
        md, usage = build_multidevice_sessions(normalized([phone, tab]), tw=60)
        stats = construction_stats(usage, md, tw=60)
        assert stats.relation_shares["multidevice"] == {"enclosedBy": 100.0}

    def test_counts(self):
        sessions = two_device_stream_fixture()
        md, usage = build_multidevice_sessions(normalized(sessions), tw=60)
        stats = construction_stats(usage, md, tw=60)
        assert stats.counts["smartphone"]["app_sessions"] == 4
        assert stats.counts["tablet"]["app_sessions"] == 3
        assert stats.counts["multidevice"]["multidevice_sessions"] == 2
        assert stats.counts["multidevice"]["usage_sessions"] == 4

    def test_device_with_two_types_counts_under_its_first(self):
        # d1 is a phone on [0, 10] and claims to be a tablet on [20, 30].
        diag = Diagnostics()
        app = normalize([session(0, 10, device="d1"),
                         session(20, 30, device="d1", device_type="tablet")], diag)
        md, usage = build_multidevice_sessions(app, 60)
        stats = construction_stats(usage, md, 60)
        assert stats.counts["smartphone"] == {"app_sessions": 1, "usage_sessions": 1}
        assert stats.counts["tablet"] == {"app_sessions": 0, "usage_sessions": 0}
        assert len(diag) == 1

    def test_shares_sum_to_100(self):
        sessions = two_device_stream_fixture()
        md, usage = build_multidevice_sessions(normalized(sessions), tw=60)
        stats = construction_stats(usage, md, tw=60)
        for table in stats.relation_shares.values():
            if table:
                assert sum(table.values()) == pytest.approx(100.0, abs=0.1)

    @pytest.mark.parametrize("order,expected", [
        # p1 [0,100) t1 [150,300) p2 [350,500) t2 [550,700): p1 and t2 are
        # 450 s apart, linked only through the chain.
        (("smartphone", "tablet", "smartphone", "tablet"),
         {"precedes": 25.0, "precedesWithinTW": 50.0, "precededByWithinTW": 25.0}),
        (("tablet", "smartphone", "tablet", "smartphone"),
         {"precededBy": 25.0, "precededByWithinTW": 50.0, "precedesWithinTW": 25.0}),
    ])
    def test_md_pair_beyond_tw_is_plain_precedes(self, order, expected):
        sessions = [
            session(start, start + 150 if i else 100, device=device_type[:3],
                    device_type=device_type, app=f"a{i}")
            for i, (start, device_type) in enumerate(zip((0, 150, 350, 550), order))
        ]
        md, usage = build_multidevice_sessions(normalized(sessions), tw=60)
        assert len(md) == 1 and len(md[0].members) == 4
        stats = construction_stats(usage, md, tw=60)
        assert stats.relation_shares["multidevice"] == expected
        assert (stats.counts, stats.relation_shares) == reference_stats(sessions, usage, md, 60)

    def test_negative_tw_rejected_even_on_empty_input(self):
        with pytest.raises(ValueError, match="non-negative"):
            construction_stats([], [], tw=-1)

    def test_matches_reference_tally_on_panels(self, oracle_panels):
        for name, panel in oracle_panels.items():
            check_stats_oracle(panel)

    def test_beyond_tw_pairs_not_counted_single_device(self):
        sessions = [session(0, 10), session(1000, 1010, app="b")]
        md, usage = build_multidevice_sessions(normalized(sessions), tw=60)
        stats = construction_stats(usage, md, tw=60)
        assert stats.relation_shares["smartphone"] == {}


class TestInteractionSeconds:
    @pytest.mark.parametrize("tw", [0, 60, 600])
    def test_equals_the_sum_of_app_session_durations(self, oracle_panels, tw):
        for panel in oracle_panels.values():
            md, usage = build_multidevice_sessions(panel, tw)
            for us in usage:
                assert us.interaction_seconds == sum(a.duration
                                                     for a in us.app_sessions), us.id
            for m in md:
                assert m.interaction_seconds == sum(a.duration
                                                    for a in m.app_sessions), m.id

    def test_is_required(self):
        with pytest.raises(TypeError, match="interaction_seconds"):
            UsageSession("u1/phone/u0", "u1", "phone", "smartphone", [], 0, 10)


# Text that json.dumps escapes: quotes, backslashes, control characters,
# non-ASCII text and lone surrogates.
JSON_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀') | st.characters()
    | st.characters(categories=["Cs"]),
    max_size=8,
)


@st.composite
def panels(draw):
    """App sessions of up to three devices with drawn ids and names; each
    device's sessions are start-sorted and disjoint, between 0 and 1e14."""
    users = draw(st.lists(JSON_TEXT, min_size=1, max_size=2))
    app_sessions = []
    for n in range(draw(st.integers(1, 3))):
        user, device = draw(st.sampled_from(users)), draw(JSON_TEXT) + f"#{n}"
        device_type = draw(st.sampled_from(DEVICE_TYPES))
        ends = draw(st.lists(st.integers(0, 10**14), min_size=2, max_size=10, unique=True))
        ends.sort()
        for start, end in zip(ends[::2], ends[1::2]):
            app_sessions.append(AppSession(user, device, device_type, "android",
                                           draw(JSON_TEXT), draw(JSON_TEXT),
                                           start, end))
    return app_sessions


def _usage_record(s):
    return {"id": s.id, "user_id": s.user_id, "device_id": s.device_id,
            "device_type": s.device_type, "start": s.start, "end": s.end,
            "purity": s.purity,
            "app_sessions": [{"app_id": a.app_id, "app_category": a.app_category,
                              "start": a.start, "end": a.end}
                             for a in s.app_sessions]}


def _md_record(s):
    return {"id": s.id, "user_id": s.user_id, "start": s.start,
            "end": s.end, "members": [m.id for m in s.members]}


# One multidevice session whose every string needs an escape, with
# timestamps at both ends of the drawn range.
HOSTILE_PANEL = [
    AppSession('u"1\\', 'd\x00\n', "smartphone", "android", "caf\u00e9\u2028", "\ud800x",
               0, 10**14 - 1),
    AppSession('u"1\\', "t\x7f\U0001f600", "tablet", "android", "/\x1f", "\udfff",
               1, 10**14),
]


class TestWriters:
    @settings(max_examples=60, deadline=None)
    @example(app_sessions=HOSTILE_PANEL, tw=0)
    @given(app_sessions=panels(), tw=st.sampled_from([0, 60, 10**12]) | st.integers(0, 10**14))
    def test_write_what_json_dumps_writes(self, app_sessions, tw):
        md, usage = build_multidevice_sessions(normalized(app_sessions), tw)
        for write, record, sessions in ((write_usage_sessions_jsonl, _usage_record, usage),
                                        (write_md_sessions_jsonl, _md_record, md)):
            stream = io.StringIO()
            write(sessions, stream)
            assert stream.getvalue() == "".join(
                json.dumps(record(s), sort_keys=True) + "\n" for s in sessions)
