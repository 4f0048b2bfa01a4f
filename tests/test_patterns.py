"""Activity matrices, interpolation resizing and nearest-prototype grouping
by Frobenius distance."""

import math
import random

import numpy as np
import pytest
from conftest import normalized, session
from hypothesis import given, settings, strategies as st
from oracles import assign_group, prototype_id, prototype_matrix, resize, to_matrix

from mdsessions.construction import build_multidevice_sessions
from mdsessions.ingest import Diagnostics, normalize
from mdsessions.patterns import (
    N_PROTOTYPES,
    assign_groups,
    category_contrast,
    group_frequencies,
    matrix_bits,
)


def md_from(app_sessions, tw=60):
    md, _ = build_multidevice_sessions(normalized(app_sessions), tw)
    assert len(md) == 1
    return md[0]


def resample_oracle(row, target):
    """Piecewise-linear resampling written independently of numpy.interp."""
    n = len(row)
    if n == 1:
        return [row[0]] * target
    out = []
    for j in range(target):
        pos = j / (target - 1) if target > 1 else 0.0
        x = pos * (n - 1)
        lo = int(math.floor(x))
        hi = min(lo + 1, n - 1)
        frac = x - lo
        out.append(row[lo] * (1 - frac) + row[hi] * frac)
    return out


def check_group_oracle(panel, tw=60):
    """The reports' group ids equal ``assign_group(to_matrix(m))`` on every
    multidevice session of one ``Panel``; returns the number of sessions."""
    md, _ = build_multidevice_sessions(panel, tw)
    for m, group in assign_groups(md):
        assert group == assign_group(to_matrix(m)), m.id
    return len(md)


DEVICES = (("p1", "smartphone"), ("t1", "tablet"), ("p2", "smartphone"))


@st.composite
def hull_sessions(draw, min_hull, max_hull):
    """App sessions of two or three devices inside ``[0, hull)``: each
    device's covered seconds, cut into app sessions at random points, so
    some of them meet. Rows may be forced to touch either end of the hull."""
    hull = draw(st.integers(min_hull, max_hull))
    sessions = []
    for device, device_type in DEVICES[:draw(st.integers(2, 3))]:
        covered = draw(st.lists(st.booleans(), min_size=hull, max_size=hull))
        covered[0] |= draw(st.booleans())
        covered[-1] |= draw(st.booleans())
        cuts = draw(st.sets(st.integers(1, hull - 1))) if hull > 1 else set()
        start = None
        for t in range(hull + 1):
            on = t < hull and covered[t]
            if start is not None and (not on or t in cuts):
                sessions.append(session(start, t, device=device, device_type=device_type,
                                        app=f"{device}-{start}"))
                start = None
            if on and start is None:
                start = t
    return hull, sessions


@st.composite
def long_hull_sessions(draw, max_hull):
    """One to three app sessions on each of a phone and a tablet, at random
    points of a hull of up to ``max_hull`` seconds that the phone spans."""
    hull = draw(st.integers(2, max_hull))
    sessions = [session(0, 1), session(hull - 1, hull, app="last")]
    for device, device_type in DEVICES[:2]:
        for i in range(draw(st.integers(1, 3))):
            start = draw(st.integers(0, hull - 1))
            end = draw(st.integers(start + 1, hull))
            sessions.append(session(start, end, device=device, device_type=device_type,
                                    app=f"{device}-{i}"))
    return hull, sessions


class TestResizedFastPath:
    # With tw = hull every app session links, so both rows form one session.
    @given(hull_sessions(1, 4))
    def test_short_hulls_match_oracle(self, drawn):
        hull, sessions = drawn
        check_group_oracle(normalized(sessions), tw=hull)

    @given(hull_sessions(5, 100))
    def test_members_touching_hull_ends_match_oracle(self, drawn):
        hull, sessions = drawn
        check_group_oracle(normalized(sessions), tw=hull)

    @settings(max_examples=40, deadline=None)
    @given(long_hull_sessions(10**6))
    def test_long_hulls_match_oracle(self, drawn):
        hull, sessions = drawn
        check_group_oracle(normalize(sessions, Diagnostics()), tw=hull)

    def test_panels_match_oracle(self, oracle_panels):
        for panel in oracle_panels.values():
            assert check_group_oracle(panel) > 0


class TestPrototypeEncoding:
    def test_bijection_over_all_ids(self):
        seen = set()
        for gid in range(N_PROTOTYPES):
            m = prototype_matrix(gid)
            assert prototype_id(m) == gid
            seen.add(m.tobytes())
        assert len(seen) == N_PROTOTYPES

    @pytest.mark.parametrize(
        "gid,rows",
        [
            (15, [[0, 0, 0, 0], [1, 1, 1, 1]]),
            (240, [[1, 1, 1, 1], [0, 0, 0, 0]]),
            (135, [[1, 0, 0, 0], [0, 1, 1, 1]]),
            (30, [[0, 0, 0, 1], [1, 1, 1, 0]]),
            (143, [[1, 0, 0, 0], [1, 1, 1, 1]]),
        ],
    )
    def test_published_group_matrices(self, gid, rows):
        assert prototype_matrix(gid).tolist() == [[float(v) for v in r] for r in rows]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            prototype_matrix(256)

    @pytest.mark.parametrize("value", [0.4, 1.4, 0.5, 2.0, float("nan")])
    def test_non_binary_matrix_rejected(self, value):
        with pytest.raises(ValueError, match="binary"):
            prototype_id(np.full((2, 4), value))

    def test_bits_string(self):
        assert matrix_bits(15) == "00001111"


class TestToMatrix:
    def test_worked_example_closed_convention(self):
        # Smartphone active t=1..4, tablet t=3..5 over a 5-column hull.
        md = md_from([
            session(1, 4),
            session(3, 5, device="tab", device_type="tablet"),
        ])
        m = to_matrix(md, coverage="closed")
        assert m.tolist() == [[1, 1, 1, 1, 0], [0, 0, 1, 1, 1]]

    def test_half_open_convention(self):
        md = md_from([
            session(1, 4),
            session(3, 5, device="tab", device_type="tablet"),
        ])
        m = to_matrix(md)
        assert m.tolist() == [[1, 1, 1, 0], [0, 0, 1, 1]]

    def test_single_second_overlap(self):
        md = md_from([
            session(0, 1),
            session(0, 1, device="tab", device_type="tablet"),
        ])
        assert to_matrix(md).tolist() == [[1], [1]]

    def test_tablet_only_column_zero_in_phone_row(self):
        md = md_from([
            session(0, 2),
            session(2, 5, device="tab", device_type="tablet"),
        ])
        m = to_matrix(md)
        assert m[0].tolist() == [1, 1, 0, 0, 0]
        assert m[1].tolist() == [0, 0, 1, 1, 1]

    def test_unknown_convention_rejected(self):
        md = md_from([session(0, 2), session(1, 3, device="tab", device_type="tablet")])
        with pytest.raises(ValueError):
            to_matrix(md, coverage="open")


class TestResize:
    def test_identity_at_equal_length(self):
        m = np.array([[1, 1, 1, 1], [0, 0, 0, 0]], dtype=float)
        assert resize(m, 4).tolist() == m.tolist()

    def test_matches_independent_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            cols = rng.randrange(1, 40)
            target = rng.randrange(1, 12)
            rows = [[rng.random() for _ in range(cols)] for _ in range(2)]
            got = resize(np.array(rows), target)
            for r in range(2):
                expected = resample_oracle(rows[r], target)
                assert got[r].tolist() == pytest.approx(expected, abs=1e-12)

    def test_constant_rows_preserved(self):
        m = np.array([[0.0] * 7, [1.0] * 7])
        out = resize(m, 4)
        assert out[0].tolist() == [0, 0, 0, 0]
        assert out[1].tolist() == [1, 1, 1, 1]

    def test_values_stay_in_unit_interval(self):
        rng = random.Random(5)
        for _ in range(50):
            cols = rng.randrange(2, 50)
            m = np.array([[rng.randrange(2) for _ in range(cols)] for _ in range(2)], dtype=float)
            out = resize(m, 4)
            assert np.all(out >= 0) and np.all(out <= 1)

    def test_half_to_quarter_example(self):
        m = np.array([[1] * 8, [0, 0, 0, 0, 1, 1, 1, 1]], dtype=float)
        out = resize(m, 4)
        assert out[0].tolist() == [1, 1, 1, 1]
        assert out[1].tolist() == pytest.approx(resample_oracle(m[1].tolist(), 4))


class TestDistance:
    def test_matches_double_loop_oracle(self):
        """``assign_group`` is the Frobenius-nearest of all 256 prototypes,
        ties to the lowest id, by a brute-force search."""
        rng = random.Random(9)
        for _ in range(100):
            cols = rng.randrange(1, 12)
            m = np.array([[rng.choice((0.0, 1.0, rng.random())) for _ in range(cols)]
                          for _ in range(2)])
            resized = resize(m, 4)

            def d2(gid):
                p = prototype_matrix(gid)
                return sum((resized[i][j] - p[i][j]) ** 2 for i in range(2) for j in range(4))

            # min keeps the first of equal keys: ties go to the lowest id.
            assert assign_group(m) == min(range(N_PROTOTYPES), key=d2)


class TestAssignGroup:
    def test_every_prototype_maps_to_itself(self):
        for gid in range(N_PROTOTYPES):
            assert assign_group(prototype_matrix(gid)) == gid

    def test_long_tablet_with_sparse_smartphone_is_group_15(self):
        md = md_from([
            session(200, 201),
            session(0, 400, device="tab", device_type="tablet"),
        ])
        assert assign_group(to_matrix(md)) == 15

    def test_phone_only_row_is_group_240(self):
        m = np.vstack([np.ones(400), np.zeros(400)])
        m[1, 200] = 1.0
        assert assign_group(m) == 240

    def test_leading_phone_then_tablet_is_group_135(self):
        md = md_from([
            session(0, 100),
            session(100, 400, device="tab", device_type="tablet"),
        ])
        assert assign_group(to_matrix(md)) == 135

    def test_tie_breaks_to_lowest_id(self):
        # A uniform 0.5 matrix is equidistant from every prototype.
        assert assign_group(np.full((2, 4), 0.5)) == 0


class TestGroupFrequencies:
    def two_user_sessions(self):
        md_a = md_from([
            session(200, 201, user="a"),
            session(0, 400, user="a", device="tab", device_type="tablet"),
        ])
        md_b = md_from([
            session(0, 400, user="b"),
            session(200, 201, user="b", device="tab", device_type="tablet"),
        ])
        return md_a, md_b

    def test_all_identical_sessions(self):
        md = md_from([
            session(200, 201),
            session(0, 400, device="tab", device_type="tablet"),
        ])
        overall, per_user = group_frequencies(assign_groups([md, md, md]))
        assert overall == {15: 100.0}
        assert per_user == {15: 100.0}

    def test_per_user_averaging(self):
        md_a, md_b = self.two_user_sessions()
        overall, per_user = group_frequencies(assign_groups([md_a, md_a, md_a, md_b]))
        assert overall[15] == 75.0 and overall[240] == 25.0
        assert per_user[15] == pytest.approx(50.0)
        assert per_user[240] == pytest.approx(50.0)

    def test_distributions_sum_to_100(self):
        md_a, md_b = self.two_user_sessions()
        overall, per_user = group_frequencies(assign_groups([md_a, md_b, md_b]))
        assert sum(overall.values()) == pytest.approx(100.0, abs=0.1)
        assert sum(per_user.values()) == pytest.approx(100.0, abs=0.1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            group_frequencies([])


class TestCategoryContrast:
    def md_pair(self, cat_in, cat_out):
        md_in = md_from([
            session(200, 201, user="a", cat="social"),
            session(0, 400, user="a", device="tab", device_type="tablet", cat=cat_in),
        ])
        md_out = md_from([
            session(0, 400, user="a", cat="social"),
            session(200, 201, user="a", device="tab", device_type="tablet", cat=cat_out),
        ])
        return md_in, md_out

    def test_identical_mixes_zero(self):
        md_in, md_out = self.md_pair("games", "games")
        contrast = category_contrast(assign_groups([md_in, md_out]), 15)
        assert contrast["tablet"]["games"] == pytest.approx(0.0)

    def test_extreme_contrast_signs(self):
        md_in, md_out = self.md_pair("games", "video")
        contrast = category_contrast(assign_groups([md_in, md_out]), 15)
        assert contrast["tablet"]["games"] > 0
        assert contrast["tablet"]["video"] < 0

    def test_empty_group_rejected(self):
        md_in, md_out = self.md_pair("games", "video")
        with pytest.raises(ValueError):
            category_contrast(assign_groups([md_in, md_out]), 200)
        with pytest.raises(ValueError):
            category_contrast(assign_groups([md_in]), 15)
