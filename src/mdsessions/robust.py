"""Robust location estimates, percentile bootstrap tests, the explanatory
power effect size, and the substitution decomposition.

The 20% trimmed mean is the default location measure throughout; both
bootstrap tests are deterministic given the data, seed, and replicate count.
Resamples are drawn and trimmed in blocks of about ``BLOCK`` values: a
block's indices (int64) and their gathered values (float64) take 256 KiB
each, whatever the sample size, and one value buffer serves every block.
The replicate means (8 bytes each, two vectors in the two-sample test)
still grow with the replicate count.

numpy is imported inside the functions that need it, not with the module.
The command line imports this module for every command: its defaults feed
the config table, and the benchmark's tracer expects every layer module,
this one included, to be loaded.  Only ``compare`` and ``substitution``
call into it, and only they should pay for numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TRIM = 0.2
DEFAULT_REPLICATES = 2000
#: Least share of users that must use an item for it to be tested.
DEFAULT_THRESHOLD = 0.5
ALPHA = 0.05
#: Values resampled per block (2**15: 256 KiB of indices, 256 KiB of values).
#: At n = 400-2000 it draws as fast as 2**16 or 2**17 to within 3%; 2**14
#: is slower.
BLOCK = 1 << 15

EFFECT_THRESHOLDS = ((0.50, "large"), (0.35, "medium"), (0.15, "small"))


@dataclass(frozen=True)
class TrimSpec:
    trim: float = DEFAULT_TRIM
    replicates: int = DEFAULT_REPLICATES
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trim < 0.5:
            raise ValueError(f"trim proportion must be in [0, 0.5), got {self.trim}")
        if self.replicates < 1:
            raise ValueError("need at least one bootstrap replicate")


@dataclass(frozen=True)
class TestResult:
    p_value: float
    estimate: float
    direction: str
    effect_size: Optional[float] = None
    effect_label: str = "none"


@dataclass(frozen=True)
class SubstitutionSplit:
    substitution_minutes: float
    novel_minutes: float
    substitution_share: float
    novel_share: float
    interpretable: bool = True


def _sorted_cut(xs: Sequence[float], trim: float, what: str) -> tuple[np.ndarray, int]:
    """The sorted sample and the number of values each trim cuts from each end."""
    import numpy as np

    x = np.sort(np.asarray(xs, dtype=float))
    if x.size == 0:
        raise ValueError(f"{what} of empty sequence")
    g = math.floor(trim * x.size)
    if x.size - 2 * g < 1:
        raise ValueError(f"trim {trim} leaves no values from n={x.size}")
    return x, g


def trimmed_mean(xs: Sequence[float], trim: float = DEFAULT_TRIM) -> float:
    """Mean after dropping the trim fraction of smallest and largest values."""
    x, g = _sorted_cut(xs, trim, "trimmed_mean")
    return float(x[g : x.size - g].mean())


def winsorized_variance(xs: Sequence[float], trim: float = DEFAULT_TRIM) -> float:
    """Population variance of the sample with extremes clamped to the trim
    boundaries."""
    x, g = _sorted_cut(xs, trim, "winsorized_variance")
    w = x.clip(x[g], x[x.size - 1 - g])
    return float(w.var())


def _trimmed_means_of_resamples(
    data: np.ndarray, spec: TrimSpec, rng: np.random.Generator
) -> np.ndarray:
    """Trimmed means of ``spec.replicates`` resamples of ``data``.

    Rows are drawn ``max(1, BLOCK // n)`` at a time.  Row-blocked
    ``Generator.integers`` draws equal one ``(replicates, n)`` draw, and each
    row is sorted and trimmed on its own, so the means do not depend on the
    block size.  Every block is gathered into one buffer, so at most one
    block of indices and one of values are live.
    """
    import numpy as np

    n = data.size
    g = math.floor(spec.trim * n)
    rows = max(1, BLOCK // n)
    means = np.empty(spec.replicates)
    buffer = np.empty((min(rows, spec.replicates), n))
    for lo in range(0, spec.replicates, rows):
        hi = min(lo + rows, spec.replicates)
        block = buffer[: hi - lo]
        # The indices are in range, so "clip" changes none; the default
        # "raise" would gather into a temporary block and copy it over.
        np.take(data, rng.integers(0, n, size=(hi - lo, n)), out=block, mode="clip")
        block.sort(axis=1)
        means[lo:hi] = block[:, g : n - g].mean(axis=1)
    return means


def _result(stats: np.ndarray, estimate: float, x: np.ndarray, y: np.ndarray,
            trim: float) -> TestResult:
    """A test's result from its resampled statistics and its estimate: the
    two-sided percentile p-value, and the effect size at the test's ``trim``
    when the difference is significant."""
    below, above = float((stats <= 0.0).mean()), float((stats > 0.0).mean())
    p = min(1.0, 2.0 * min(below, above))
    direction = "x>y" if estimate > 0 else "y>x" if estimate < 0 else "equal"
    if p >= ALPHA:
        return TestResult(p, estimate, direction)
    xi = effect_size_xi(x, y, trim)
    label = next((name for threshold, name in EFFECT_THRESHOLDS if xi > threshold), "none")
    return TestResult(p, estimate, direction, effect_size=xi, effect_label=label)


def paired_bootstrap_test(
    x: Sequence[float], y: Sequence[float], spec: TrimSpec = TrimSpec()
) -> TestResult:
    """Percentile bootstrap on trimmed means of paired difference scores."""
    import numpy as np

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("paired samples must have equal length")
    if x.size < 5:
        raise ValueError("need at least 5 pairs")
    d = x - y
    estimate = trimmed_mean(d, spec.trim)
    if (d == 0.0).all():
        return TestResult(1.0, 0.0, "equal")
    rng = np.random.default_rng(spec.seed)
    stats = _trimmed_means_of_resamples(d, spec, rng)
    return _result(stats, estimate, x, y, spec.trim)


def two_sample_bootstrap_test(
    x: Sequence[float], y: Sequence[float], spec: TrimSpec = TrimSpec()
) -> TestResult:
    """Percentile bootstrap comparing trimmed means of independent groups."""
    import numpy as np

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 5 or y.size < 5:
        raise ValueError("need at least 5 observations per group")
    estimate = trimmed_mean(x, spec.trim) - trimmed_mean(y, spec.trim)
    if (x == x[0]).all() and (y == y[0]).all() and x[0] == y[0]:
        return TestResult(1.0, 0.0, "equal")
    rng = np.random.default_rng(spec.seed)
    stats = (
        _trimmed_means_of_resamples(x, spec, rng)
        - _trimmed_means_of_resamples(y, spec, rng)
    )
    return _result(stats, estimate, x, y, spec.trim)


def effect_size_xi(
    x: Sequence[float], y: Sequence[float], trim: float = DEFAULT_TRIM
) -> float:
    """Explanatory-power effect size on robust quantities.

    Computed as sqrt(between-group variance of the trimmed means around
    their size-weighted combination / winsorized variance of the pooled
    data), clamped to [0, 1].  This is one reading of the generalized
    explanatory-power measure; only its endpoints (0 for identical groups,
    1 for fully separated constants) and the 0.15/0.35/0.50 labels are
    treated as contractual.
    """
    denom = winsorized_variance([*x, *y], trim)
    if denom == 0.0:
        raise ValueError("zero pooled winsorized variance")
    tx, ty = trimmed_mean(x, trim), trimmed_mean(y, trim)
    n, m = len(x), len(y)
    combined = (n * tx + m * ty) / (n + m)
    between = (n * (tx - combined) ** 2 + m * (ty - combined) ** 2) / (n + m)
    return min(1.0, math.sqrt(between / denom))


@dataclass
class BatteryRow:
    item: str
    result: Optional[TestResult]
    excluded_reason: str = ""


def test_battery(
    usage_x: dict[str, dict[str, float]],
    usage_y: dict[str, dict[str, float]],
    paired: bool,
    spec: TrimSpec = TrimSpec(),
    inclusion_threshold: float = DEFAULT_THRESHOLD,
) -> list[BatteryRow]:
    """Run one bootstrap test per item over per-user usage maps.

    ``usage_x``/``usage_y`` map user id to {item: value}.  An item is tested
    only when at least ``inclusion_threshold`` of users used it; excluded
    items get a dash-style row.  For paired comparisons only users present
    in both maps contribute, and missing items count as zero usage.
    Row i, in sorted item order, is seeded with ``spec.seed * 100003 + i``,
    so an item that sorts earlier changes the seeds, and results, of the rows
    after it.
    """
    items = sorted({i for m in usage_x.values() for i in m} | {i for m in usage_y.values() for i in m})
    rows: list[BatteryRow] = []
    if paired:
        test, users_x = paired_bootstrap_test, sorted(set(usage_x) & set(usage_y))
        users_y = users_x
    else:
        test, users_x, users_y = two_sample_bootstrap_test, sorted(usage_x), sorted(usage_y)
    population = sorted(set(usage_x) | set(usage_y))
    for row_index, item in enumerate(items):
        used_by = sum(
            1 for u in population
            if usage_x.get(u, {}).get(item, 0.0) > 0 or usage_y.get(u, {}).get(item, 0.0) > 0
        )
        row_spec = TrimSpec(spec.trim, spec.replicates, seed=spec.seed * 100003 + row_index)
        if population and used_by / len(population) < inclusion_threshold:
            rows.append(BatteryRow(item, None, "not enough users"))
            continue
        x = [usage_x[u].get(item, 0.0) for u in users_x]
        y = [usage_y[u].get(item, 0.0) for u in users_y]
        try:
            rows.append(BatteryRow(item, test(x, y, row_spec)))
        except ValueError as exc:
            rows.append(BatteryRow(item, None, str(exc)))
    return rows


def substitution_split(
    tm_nmd_smartphone: float,
    tm_md_smartphone: float,
    tm_md_tablet: float,
) -> SubstitutionSplit:
    """Decompose tablet usage into substituted and novel minutes per day.

    Substitution is the smartphone usage the multidevice group gave up
    relative to the smartphone-only group; the rest of tablet usage is
    novel.  Negative components are reported but flagged non-interpretable.
    """
    substitution = tm_nmd_smartphone - tm_md_smartphone
    novel = tm_md_tablet - substitution
    if tm_md_tablet <= 0:
        return SubstitutionSplit(substitution, novel, 0.0, 0.0, interpretable=False)
    return SubstitutionSplit(
        substitution_minutes=substitution,
        novel_minutes=novel,
        substitution_share=substitution / tm_md_tablet,
        novel_share=novel / tm_md_tablet,
        interpretable=substitution >= 0 and novel >= 0,
    )


def significance_stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""
