"""Dataset-level and per-user session statistics, usage shares, hourly
distributions, empirical CDFs, and the timeout-window sweep.

Interaction time is always the sum of app-session durations, including
inside multidevice sessions where devices overlap in time; session length
is the hull duration.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .construction import MIXED, MultideviceSession, UsageSession, _multidevice, _runs
from .ingest import DEVICE_TYPES, AppSession, Panel
from .intervals import _check_tw

SESSION_CLASSES = (
    "smartphone_all",
    "tablet_all",
    "smartphone_pure",
    "tablet_pure",
    "multidevice",
)

DEFAULT_TW_GRID = (1, 10, 60, 300, 1000, 10000)

# Named apps in each device's share of ``category_share_report``.
TOP_APPS = 10

_DAY = 86400


@dataclass
class StatsSummary:
    n: int
    length_mean: float
    length_median: float
    length_std: float
    app_sessions_mean: float
    app_sessions_median: float
    app_sessions_std: float
    interaction_seconds: float

    @classmethod
    def empty(cls) -> "StatsSummary":
        return cls(0, float("nan"), float("nan"), float("nan"),
                   float("nan"), float("nan"), float("nan"), 0.0)


@dataclass
class PerUserSummary:
    """Across-user mean/median/std of per-user statistics (Table-5 style)."""

    n_users: int
    length_median_mean: float
    length_median_median: float
    length_median_std: float
    app_sessions_median_mean: float
    app_sessions_median_median: float
    app_sessions_median_std: float
    sessions_per_day_mean: float
    sessions_per_day_median: float
    sessions_per_day_std: float
    interaction_min_per_day_mean: float
    interaction_min_per_day_median: float
    interaction_min_per_day_std: float


@dataclass
class SweepPoint:
    tw: int
    mean_sessions_per_user: dict[str, float]
    mean_app_sessions_per_usage_session: float


def session_classes(
    usage_sessions: Sequence[UsageSession],
    md_sessions: Sequence[MultideviceSession],
) -> dict[str, list]:
    """The sessions of each class, keyed in ``SESSION_CLASSES`` order: each
    device type's usage sessions, then its pure ones, then the multidevice
    sessions."""
    pure = [s for s in usage_sessions if s.purity != MIXED]
    classes = {f"{dt}_{scope}": [s for s in pool if s.device_type == dt]
               for scope, pool in (("all", usage_sessions), ("pure", pure))
               for dt in DEVICE_TYPES}
    classes["multidevice"] = list(md_sessions)
    return classes


_duration = attrgetter("duration")


def _sum_by(items: Iterable, key: Callable, value: Callable = _duration) -> dict:
    """Sum of ``value(item)`` per ``key(item)`` from 0.0, in input order;
    keys in first-seen order."""
    sums: dict = {}
    for item in items:
        k = key(item)
        sums[k] = sums.get(k, 0.0) + value(item)
    return sums


def _spread(xs: Sequence[float]) -> tuple[float, float, float]:
    """Mean, median and population standard deviation (0.0 for one value)."""
    return (
        statistics.fmean(xs),
        statistics.median(xs),
        statistics.pstdev(xs) if len(xs) > 1 else 0.0,
    )


def summarize(sessions: Sequence) -> StatsSummary:
    if not sessions:
        return StatsSummary.empty()
    lengths = [s.duration for s in sessions]
    counts = [len(s.app_sessions) for s in sessions]
    return StatsSummary(
        len(sessions), *_spread(lengths), *_spread(counts),
        interaction_seconds=float(sum(s.interaction_seconds for s in sessions)),
    )


def usage_shares(classes: dict[str, list]) -> dict[str, dict[str, dict[str, float]]]:
    """Usage shares under three denominators for the two partitions of
    ``classes``, the dict that ``session_classes`` returns.

    Partition "by_device" is {smartphone_all, tablet_all}; partition
    "by_purity" is {smartphone_pure, tablet_pure, multidevice}.  Multidevice
    interaction time sums both devices' app sessions.
    """

    def measures(cls: str) -> dict[str, float]:
        sessions = classes[cls]
        return {
            "app_sessions": float(sum(len(s.app_sessions) for s in sessions)),
            "usage_sessions": float(
                sum(len(s.members) for s in sessions)
                if cls == "multidevice"
                else len(sessions)
            ),
            "interaction_time": float(sum(s.interaction_seconds for s in sessions)),
        }

    partitions = {
        "by_device": ("smartphone_all", "tablet_all"),
        "by_purity": ("smartphone_pure", "tablet_pure", "multidevice"),
    }
    result: dict[str, dict[str, dict[str, float]]] = {}
    for name, members in partitions.items():
        raw = {cls: measures(cls) for cls in members}
        totals = {k: sum(m[k] for m in raw.values()) for k in raw[members[0]]}
        result[name] = {
            cls: {
                k: (100.0 * v / totals[k] if totals[k] else 0.0)
                for k, v in raw[cls].items()
            }
            for cls in members
        }
    return result


def hourly_distribution(
    sessions: Sequence,
    utc_offsets: dict[str, int],
) -> list[float]:
    """24-bin share vector of interaction time by local hour of day.

    Each app session's seconds are apportioned to hour bins by overlap.
    Local time is UTC plus the user's offset in ``utc_offsets``; users
    missing from it (all users, with ``{}``) are on UTC.
    """
    seconds = [0.0] * 24
    for session in sessions:
        offset = utc_offsets.get(session.user_id, 0)
        for app in session.app_sessions:
            t, end = app.start + offset, app.end + offset
            hour = t // 3600
            step = (hour + 1) * 3600
            if end <= step:
                seconds[hour % 24] += end - t
                continue
            seconds[hour % 24] += step - t
            # From the hour boundary ``step``, any 24 consecutive hours hold
            # each hour of day once; the hours left over are walked.
            days, rest = divmod(end - step, _DAY)
            if days:
                for hour in range(24):
                    seconds[hour] += 3600 * days
            for t in range(end - rest, end, 3600):
                seconds[t // 3600 % 24] += min(end - t, 3600)
    total = sum(seconds)
    if total == 0:
        return [0.0] * 24
    return [100.0 * s / total for s in seconds]


def empirical_cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Right-continuous ECDF as sorted (value, cumulative share) pairs."""
    if not values:
        raise ValueError("empirical_cdf needs at least one value")
    ordered = sorted(values)
    n = len(ordered)
    out: list[tuple[float, float]] = []
    for i, v in enumerate(ordered, start=1):
        if out and out[-1][0] == v:
            out[-1] = (v, i / n)
        else:
            out.append((v, i / n))
    return out


def active_span_days(panel: Panel) -> dict[str, float]:
    """Each user's days from the first start to the last end of any stream."""
    days = {}
    for user, devices in panel.users.items():
        lo = min(stream[0].start for stream in devices.values())
        hi = max(stream[-1].end for stream in devices.values())
        # At least one day so per-day rates are defined for short panels.
        days[user] = max((hi - lo) / 86400.0, 1.0)
    return days


def per_user_summary(
    sessions: Sequence,
    days: dict[str, float],
) -> Optional[PerUserSummary]:
    """Table-5 style summary: statistics across users of per-user figures.

    ``days`` is each user's active span in days, from ``active_span_days``
    of the panel.
    """
    per_user: dict[str, list] = {}
    for s in sessions:
        per_user.setdefault(s.user_id, []).append(s)
    if not per_user:
        return None

    med_len = [statistics.median([s.duration for s in ss]) for ss in per_user.values()]
    med_cnt = [statistics.median([len(s.app_sessions) for s in ss]) for ss in per_user.values()]
    per_day = [len(ss) / days[u] for u, ss in per_user.items()]
    min_day = [sum(s.interaction_seconds for s in ss) / 60.0 / days[u]
               for u, ss in per_user.items()]
    return PerUserSummary(
        len(per_user), *_spread(med_len), *_spread(med_cnt), *_spread(per_day), *_spread(min_day)
    )


def timeout_sweep(
    panel: Panel,
    tw_grid: Sequence[int] = DEFAULT_TW_GRID,
) -> list[SweepPoint]:
    """Reconstruction counts at each timeout value; per-user means averaged.

    Each grid point re-splits the device streams of ``panel``, which come
    sorted, with the split rule of ``build_usage_sessions`` and
    groups the usage sessions with the component rule of
    ``build_multidevice_sessions``, counting sessions without building them.
    Class means are per-user session counts averaged over all users, users
    without a session of the class counting zero.
    """
    for tw in tw_grid:
        _check_tw(tw)
    n_users = len(panel.users)
    points: list[SweepPoint] = []
    for tw in tw_grid:
        n_usage = dict.fromkeys(DEVICE_TYPES, 0)
        n_mixed = dict.fromkeys(DEVICE_TYPES, 0)
        n_md = 0
        per_user_ratio = []
        for devices in panel.users.values():
            spans = []
            n_app = 0
            for ordered in devices.values():
                n_app += len(ordered)
                for lo, hi in _runs(ordered, tw):
                    device_type = ordered[lo].device_type
                    n_usage[device_type] += 1
                    spans.append((ordered[lo].start, ordered[hi - 1].end, device_type))
            spans.sort()
            for lo, hi, _ in _multidevice(spans, tw):
                n_md += 1
                for span in spans[lo:hi]:
                    n_mixed[span[2]] += 1
            per_user_ratio.append(n_app / len(spans))
        counts = {"multidevice": n_md}
        for device_type in DEVICE_TYPES:
            counts[f"{device_type}_all"] = n_usage[device_type]
            counts[f"{device_type}_pure"] = n_usage[device_type] - n_mixed[device_type]
        points.append(
            SweepPoint(
                tw=tw,
                mean_sessions_per_user={
                    cls: counts[cls] / n_users if n_users else 0.0 for cls in SESSION_CLASSES
                },
                mean_app_sessions_per_usage_session=(
                    statistics.fmean(per_user_ratio) if per_user_ratio else 0.0
                ),
            )
        )
    return points


def category_share_report(
    app_sessions: Iterable[AppSession],
) -> dict[str, dict[str, dict[str, float]]]:
    """Per-device shares of interaction time by category and by named app.

    Apps outside the ``TOP_APPS`` most used fall into an "Other" bucket.
    """
    # One pass over the sessions. The sums are integer-valued and far below
    # 2**53, so adding them up again per category, per app and in total
    # gives what summing the sessions one by one would.
    seconds = _sum_by(app_sessions, attrgetter("device_type", "app_category", "app_id"))
    result: dict[str, dict[str, dict[str, float]]] = {}
    for dt in ("smartphone", "tablet"):
        by_cat: dict[str, float] = {}
        by_app: dict[str, float] = {}
        for (t, cat, app), v in seconds.items():
            if t == dt:
                by_cat[cat] = by_cat.get(cat, 0.0) + v
                by_app[app] = by_app.get(app, 0.0) + v
        total = sum(by_cat.values())
        if total == 0:
            result[dt] = {"categories": {}, "apps": {}}
            continue
        top = dict(sorted(by_app.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_APPS])
        other = sum(v for k, v in by_app.items() if k not in top)
        apps = {k: 100.0 * v / total for k, v in top.items()}
        if other:
            apps["Other"] = 100.0 * other / total
        result[dt] = {
            "categories": {k: 100.0 * v / total for k, v in sorted(by_cat.items())},
            "apps": apps,
        }
    return result
