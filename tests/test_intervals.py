"""Interval relation classifier vs an independent 13-predicate oracle."""

import dataclasses
import random

import pytest
from conftest import oracle_relations
from hypothesis import given, strategies as st
from oracles import converse, link

from mdsessions.construction import MultideviceSession, UsageSession
from mdsessions.ingest import AppSession
from mdsessions.intervals import AllenRelation, Interval, classify

R = AllenRelation


intervals = st.builds(
    lambda start, length: Interval(start, start + length),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=50),
)


class TestClassify:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((0, 5), (10, 15), R.PRECEDES),
            ((0, 5), (5, 10), R.MEETS),
            ((2, 4), (0, 10), R.ENCLOSED_BY),
            ((0, 5), (0, 5), R.EQUIVALENT),
            ((0, 10), (3, 5), R.ENCLOSES),
            ((0, 5), (3, 8), R.OVERLAPS),
            ((0, 3), (0, 5), R.STARTS),
            ((2, 5), (0, 5), R.FINISHES),
        ],
    )
    def test_known_pairs(self, a, b, expected):
        assert classify(Interval(*a), Interval(*b)) is expected

    @given(intervals, intervals)
    def test_matches_oracle_and_unique(self, a, b):
        relations = oracle_relations(a, b)
        assert len(relations) == 1
        assert classify(a, b) is relations[0]

    @given(intervals, intervals)
    def test_converse_symmetry(self, a, b):
        assert classify(a, b) is converse(classify(b, a))

    def test_randomized_exhaustive_sweep(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            s = rng.randrange(30)
            a = Interval(s, s + rng.randrange(1, 30))
            s = rng.randrange(30)
            b = Interval(s, s + rng.randrange(1, 30))
            relations = oracle_relations(a, b)
            assert len(relations) == 1
            assert classify(a, b) is relations[0]


class TestConverse:
    def test_meets_metby(self):
        assert converse(R.MEETS) is R.MET_BY

    def test_equivalent_self_converse(self):
        assert converse(R.EQUIVALENT) is R.EQUIVALENT

    def test_overlaps(self):
        assert converse(R.OVERLAPS) is R.OVERLAPPED_BY

    @pytest.mark.parametrize("r", list(R))
    def test_involution(self, r):
        assert converse(converse(r)) is r


class TestLink:
    def test_gap_within_window(self):
        assert link(Interval(0, 5), Interval(6, 10), 60) is True

    def test_gap_exceeds_window(self):
        assert link(Interval(0, 5), Interval(100, 110), 60) is False

    def test_simultaneous_always_links(self):
        assert link(Interval(0, 10), Interval(3, 5), 0) is True

    def test_boundary_gap_inclusive(self):
        assert link(Interval(0, 5), Interval(65, 70), 60) is True
        assert link(Interval(0, 5), Interval(66, 70), 60) is False

    def test_meets_has_no_gap(self):
        assert link(Interval(0, 5), Interval(5, 10), 0) is True
        assert link(Interval(5, 10), Interval(0, 5), 0) is True

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            link(Interval(0, 5), Interval(6, 10), -1)

    @given(intervals, intervals, st.integers(0, 100), st.integers(0, 100))
    def test_monotone_in_window(self, a, b, t1, extra):
        if link(a, b, t1):
            assert link(a, b, t1 + extra)

    @given(intervals, intervals, st.integers(0, 100))
    def test_symmetric(self, a, b, tw):
        assert link(a, b, tw) == link(b, a, tw)


class TestInterval:
    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 5)

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            Interval(10, 5)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Interval(-1, 5)

    def test_duration(self):
        assert Interval(3, 10).duration == 7

    def test_error_texts(self):
        with pytest.raises(ValueError, match=r"^interval start must be non-negative, got -1$"):
            Interval(-1, 5)
        with pytest.raises(ValueError, match=r"^interval must have positive duration, got \[5, 5\]$"):
            Interval(5, 5)


# Each record that holds ``start`` and ``end`` itself, made from them.
RECORDS = {
    "AppSession": lambda start, end: AppSession("u", "d", "smartphone", "android", "a", "c",
                                                start, end),
    "UsageSession": lambda start, end: UsageSession("u/d/u0", "u", "d", "smartphone", [],
                                                    start, end, end - start),
    "MultideviceSession": lambda start, end: MultideviceSession("u/md0", "u", [], start, end),
}


class TestSessionRecords:
    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
    @pytest.mark.parametrize("start, end", [(-1, 5), (5, 5), (10, 5)])
    def test_bad_endpoints_rejected_as_by_interval(self, make, start, end):
        with pytest.raises(ValueError) as expected:
            Interval(start, end)
        with pytest.raises(ValueError) as made:
            make(start, end)
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(make(0, 20), start=start, end=end)
        assert str(made.value) == str(replaced.value) == str(expected.value)

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
    def test_duration(self, make):
        assert make(3, 10).duration == 7

    @given(intervals, intervals, st.integers(0, 100))
    def test_classify_and_link_read_usage_sessions_as_intervals(self, a, b, tw):
        ua, ub = (RECORDS["UsageSession"](iv.start, iv.end) for iv in (a, b))
        assert classify(ua, ub) is classify(a, b)
        assert link(ua, ub, tw) == link(a, b, tw)
