"""Trimmed means, winsorized variance, bootstrap tests, effect size, and
the substitution decomposition."""

import random
import tracemalloc

import numpy as np
import pytest

from mdsessions.robust import (
    BLOCK,
    TrimSpec,
    _trimmed_means_of_resamples,
    effect_size_xi,
    paired_bootstrap_test,
    significance_stars,
    substitution_split,
    trimmed_mean,
    two_sample_bootstrap_test,
    winsorized_variance,
)
from mdsessions.robust import test_battery as run_battery


class TestTrimmedMean:
    def test_one_to_ten(self):
        # n=10, gamma=0.2 drops two each side: mean of 3..8.
        assert trimmed_mean(range(1, 11), 0.2) == 5.5

    def test_zero_trim_is_plain_mean(self):
        xs = [3.0, 1.0, 4.0, 1.5]
        assert trimmed_mean(xs, 0.0) == pytest.approx(np.mean(xs))

    def test_outlier_resistance(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 1_000_000]
        assert trimmed_mean(xs, 0.2) == np.mean([3, 4, 5, 6, 7, 8])

    def test_permutation_invariant(self):
        rng = random.Random(1)
        xs = [rng.random() for _ in range(20)]
        shuffled = xs[:]
        rng.shuffle(shuffled)
        assert trimmed_mean(xs) == pytest.approx(trimmed_mean(shuffled), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean([])

    def test_overtrim_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean([1.0, 2.0, 3.0, 4.0], 0.5)


class TestWinsorizedVariance:
    def test_clamp_oracle(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 100]
        # g=2: clamp to [3, 8].
        clamped = [3, 3, 3, 4, 5, 6, 7, 8, 8, 8]
        assert winsorized_variance(xs, 0.2) == pytest.approx(np.var(clamped))

    def test_constant_sample_zero(self):
        assert winsorized_variance([7.0] * 10, 0.2) == 0.0

    def test_bounded_by_raw_variance(self):
        rng = random.Random(2)
        for _ in range(20):
            xs = [rng.lognormvariate(0, 1) for _ in range(25)]
            assert winsorized_variance(xs, 0.2) <= np.var(xs) + 1e-12


class TestTrimSpec:
    def test_defaults(self):
        spec = TrimSpec()
        assert spec.trim == 0.2 and spec.replicates == 2000 and spec.seed == 0

    def test_invalid_trim(self):
        with pytest.raises(ValueError):
            TrimSpec(trim=0.5)

    def test_invalid_replicates(self):
        with pytest.raises(ValueError):
            TrimSpec(replicates=0)


class TestPairedBootstrap:
    def test_identical_samples_p_one(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        result = paired_bootstrap_test(xs, xs)
        assert result.p_value == 1.0 and result.direction == "equal"

    def test_detects_planted_shift(self):
        rng = random.Random(3)
        x = [rng.gauss(10, 1) for _ in range(40)]
        y = [v - 3 for v in x]
        result = paired_bootstrap_test(x, y, TrimSpec(seed=5))
        assert result.p_value < 0.01
        assert result.direction == "x>y"
        assert result.estimate == pytest.approx(3.0, abs=1e-9)

    def test_deterministic_given_seed(self):
        rng = random.Random(4)
        x = [rng.gauss(0, 1) for _ in range(30)]
        y = [rng.gauss(0.2, 1) for _ in range(30)]
        a = paired_bootstrap_test(x, y, TrimSpec(seed=9))
        b = paired_bootstrap_test(x, y, TrimSpec(seed=9))
        assert a == b

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_bootstrap_test([1, 2, 3, 4, 5], [1, 2, 3, 4])

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            paired_bootstrap_test([1, 2], [3, 4])


class TestTwoSampleBootstrap:
    def test_identical_constant_groups_p_one(self):
        result = two_sample_bootstrap_test([5.0] * 8, [5.0] * 8)
        assert result.p_value == 1.0 and result.direction == "equal"

    def test_detects_planted_shift(self):
        rng = random.Random(6)
        x = [rng.gauss(10, 1) for _ in range(50)]
        y = [rng.gauss(6, 1) for _ in range(50)]
        result = two_sample_bootstrap_test(x, y, TrimSpec(seed=7))
        assert result.p_value < 0.01 and result.direction == "x>y"
        assert result.effect_size is not None and result.effect_label == "large"

    def test_no_effect_size_without_significance(self):
        rng = random.Random(8)
        x = [rng.gauss(0, 1) for _ in range(20)]
        y = [rng.gauss(0, 1) for _ in range(20)]
        result = two_sample_bootstrap_test(x, y, TrimSpec(seed=11))
        if result.p_value >= 0.05:
            assert result.effect_size is None and result.effect_label == "none"


def one_shot_trimmed_means(data, spec, rng):
    """The resampling as one (replicates, n) draw, gather and sort."""
    n = data.size
    samples = np.sort(data[rng.integers(0, n, size=(spec.replicates, n))], axis=1)
    g = int(np.floor(spec.trim * n))
    return samples[:, g : n - g].mean(axis=1)


class TestBlockedResampling:
    @pytest.mark.parametrize(
        "n,replicates",
        [
            (5, 2000),
            (2001, 200),  # odd n; 65 rows per block, 200 is not a multiple
            (BLOCK + 3, 3),  # one row per block
            (1000, 2 * (BLOCK // 1000) + 7),
        ],
    )
    def test_equals_one_shot_draw(self, n, replicates):
        data = np.random.default_rng(n).lognormal(size=n)
        spec = TrimSpec(replicates=replicates, seed=3)
        blocked = _trimmed_means_of_resamples(data, spec, np.random.default_rng(3))
        oracle = one_shot_trimmed_means(data, spec, np.random.default_rng(3))
        assert np.array_equal(blocked, oracle)

    def test_two_sample_draws_x_then_y_from_one_stream(self):
        rng = np.random.default_rng(13)
        x, y = rng.gamma(2.0, size=301), rng.gamma(2.2, size=157)
        spec = TrimSpec(replicates=1500, seed=17)
        oracle_rng = np.random.default_rng(spec.seed)
        stats = (one_shot_trimmed_means(x, spec, oracle_rng)
                 - one_shot_trimmed_means(y, spec, oracle_rng))
        expected = min(1.0, 2.0 * min(float(np.mean(stats <= 0.0)),
                                      float(np.mean(stats > 0.0))))
        assert two_sample_bootstrap_test(x, y, spec).p_value == expected

    def test_memory_bounded_per_block(self):
        rng = np.random.default_rng(19)
        x, y = rng.exponential(size=2000), rng.exponential(size=2000)
        tracemalloc.start()
        try:
            two_sample_bootstrap_test(x, y, TrimSpec(replicates=2000, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestEffectSize:
    def test_identical_groups_zero(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert effect_size_xi(xs, xs) == 0.0

    def test_separated_constants_one(self):
        assert effect_size_xi([0.0] * 10, [1.0] * 10) == 1.0

    def test_clamped_to_unit_interval(self):
        rng = random.Random(9)
        for _ in range(30):
            x = [rng.gauss(0, 1) for _ in range(15)]
            y = [rng.gauss(rng.uniform(-5, 5), 1) for _ in range(15)]
            assert 0.0 <= effect_size_xi(x, y) <= 1.0

    def test_medium_label_threshold(self):
        # Hand-pick a pair whose xi lands between 0.35 and 0.50 and check the
        # label assigned by a significant test.
        rng = random.Random(10)
        x = [rng.gauss(0, 1) for _ in range(200)]
        y = [rng.gauss(0.45, 1) for _ in range(200)]
        xi = effect_size_xi(x, y)
        assert 0.35 < xi <= 0.50
        result = two_sample_bootstrap_test(x, y, TrimSpec(seed=12))
        assert result.p_value < 0.05 and result.effect_label == "medium"

    def test_degenerate_pool_rejected(self):
        with pytest.raises(ValueError):
            effect_size_xi([1.0] * 5, [1.0] * 5)


class TestBattery:
    def usage_maps(self, n=12, shift=0.0, seed=0):
        rng = random.Random(seed)
        x = {f"u{i}": {"social": rng.gauss(5, 1), "games": rng.gauss(3, 1)} for i in range(n)}
        y = {f"u{i}": {"social": rng.gauss(5 - shift, 1), "games": rng.gauss(3, 1)} for i in range(n)}
        return x, y

    def test_rare_item_excluded(self):
        x, y = self.usage_maps()
        x["u0"]["niche"] = 1.0  # one user out of twelve: under the 50% bar
        rows = {r.item: r for r in run_battery(x, y, paired=True)}
        assert rows["niche"].result is None
        assert rows["niche"].excluded_reason == "not enough users"
        assert rows["social"].result is not None

    def test_detects_planted_item_shift(self):
        x, y = self.usage_maps(n=40, shift=2.0, seed=1)
        rows = {r.item: r for r in run_battery(x, y, paired=True)}
        assert rows["social"].result.p_value < 0.05
        assert rows["social"].result.direction == "x>y"

    def test_rows_independent_of_item_set(self):
        # Adding an unrelated item must not change another item's result.
        x, y = self.usage_maps(n=20, shift=1.0, seed=2)
        base = {r.item: r for r in run_battery(x, y, paired=True)}
        for u in x:
            x[u]["video"] = 1.0
        for u in y:
            y[u]["video"] = 1.0
        extended = {r.item: r for r in run_battery(x, y, paired=True)}
        assert base["games"].result == extended["games"].result

    def test_unpaired_mode(self):
        x, y = self.usage_maps(n=15, shift=3.0, seed=3)
        y = {f"v{i}": m for i, m in enumerate(y.values())}  # disjoint user ids
        rows = {r.item: r for r in run_battery(x, y, paired=False)}
        assert rows["social"].result.p_value < 0.05
        assert rows["social"].n_users == (15, 15)


class TestSubstitutionSplit:
    def test_published_example(self):
        split = substitution_split(172.81, 138.00, 71.83)
        assert split.substitution_minutes == pytest.approx(34.81)
        assert split.novel_minutes == pytest.approx(37.02)
        assert split.substitution_share * 100 == pytest.approx(48.5, abs=0.5)
        assert split.novel_share * 100 == pytest.approx(51.5, abs=0.5)
        assert split.interpretable

    def test_shares_sum_to_one(self):
        split = substitution_split(100.0, 80.0, 50.0)
        assert split.substitution_share + split.novel_share == pytest.approx(1.0)

    def test_negative_substitution_flagged(self):
        split = substitution_split(80.0, 100.0, 50.0)
        assert split.substitution_minutes == pytest.approx(-20.0)
        assert not split.interpretable

    def test_zero_tablet_usage(self):
        split = substitution_split(100.0, 90.0, 0.0)
        assert not split.interpretable and split.substitution_share == 0.0


class TestStars:
    @pytest.mark.parametrize(
        "p,stars", [(0.0001, "***"), (0.005, "**"), (0.03, "*"), (0.2, "")]
    )
    def test_thresholds(self, p, stars):
        assert significance_stars(p) == stars
