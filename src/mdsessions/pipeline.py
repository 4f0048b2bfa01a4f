"""Glue between ingestion, construction, and the statistics modules:
input loading, evening-window filtering, and per-user usage aggregation.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional, Sequence

from .construction import (
    MIXED,
    MultideviceSession,
    UsageSession,
    build_multidevice_sessions,
    build_usage_sessions,
)
from .ingest import (
    AppSession,
    DataError,
    Diagnostics,
    pair_sessions,
    parse_events,
    read_sessions_csv,
)
from .intervals import Interval

DAY_SECONDS = 86400
HOUR_SECONDS = 3600


def load_app_sessions(
    path: Path, mode: str, diagnostics: Diagnostics
) -> list[AppSession]:
    """Load app sessions from an events file or a pre-paired session CSV."""
    try:
        with open(path, encoding="utf-8") as stream:
            if mode == "events":
                fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
                events = parse_events(stream, fmt, diagnostics)
                return pair_sessions(events, diagnostics)
            if mode == "sessions":
                return read_sessions_csv(stream, diagnostics)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    raise DataError(f"unknown input mode: {mode!r}")


def reconstruct(
    app_sessions: Sequence[AppSession], tw: int
) -> tuple[list[UsageSession], list[MultideviceSession]]:
    usage = build_usage_sessions(app_sessions, tw)
    md, usage = build_multidevice_sessions(usage, tw)
    return usage, md


def load_utc_offsets(path: Optional[Path]) -> Optional[dict[str, int]]:
    """Per-user UTC offsets from a two-column CSV (user_id, offset_seconds)."""
    if path is None:
        return None
    offsets: dict[str, int] = {}
    with open(path, encoding="utf-8") as stream:
        reader = csv.DictReader(stream)
        try:
            for row in reader:
                offsets[row["user_id"]] = int(row["offset_seconds"])
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
        except (KeyError, TypeError, ValueError, csv.Error) as exc:
            raise DataError(
                f"offsets CSV line {reader.reader.line_num}: need user_id and integer "
                f"offset_seconds ({exc!r})"
            ) from exc
    return offsets


def window_overlap_seconds(
    interval: Interval, offset: int, start_hour: int, end_hour: int
) -> int:
    """Seconds of ``interval`` falling inside the [start_hour, end_hour)
    local-time window, summed across days."""
    lo = interval.start + offset
    hi = interval.end + offset
    total = 0
    day = lo // DAY_SECONDS
    while day * DAY_SECONDS < hi:
        w_lo = day * DAY_SECONDS + start_hour * HOUR_SECONDS
        w_hi = day * DAY_SECONDS + end_hour * HOUR_SECONDS
        total += max(0, min(hi, w_hi) - max(lo, w_lo))
        day += 1
    return total


def usage_by_user(
    usage_sessions: Sequence[UsageSession],
    dimension: str,
    device_type: Optional[str] = None,
    purity: Optional[str] = None,
    evening: Optional[tuple[int, int]] = None,
    utc_offsets: Optional[dict[str, int]] = None,
) -> dict[str, dict[str, float]]:
    """Per-user usage seconds keyed by app category or app id.

    Optional filters: device type, purity, and an (start_hour, end_hour)
    local evening window that clips each app session's contribution.
    """
    if dimension not in ("category", "app"):
        raise ValueError(f"unknown dimension: {dimension!r}")
    offsets = utc_offsets or {}
    out: dict[str, dict[str, float]] = {}
    for us in usage_sessions:
        if device_type is not None and us.device_type != device_type:
            continue
        if purity is not None and us.purity != purity:
            continue
        bucket = out.setdefault(us.user_id, {})
        for app in us.app_sessions:
            if evening is not None:
                seconds = window_overlap_seconds(
                    app.interval, offsets.get(us.user_id, 0), *evening
                )
            else:
                seconds = app.interval.duration
            if seconds <= 0:
                continue
            key = app.app_category if dimension == "category" else app.app_id
            bucket[key] = bucket.get(key, 0.0) + seconds
    return {u: b for u, b in out.items() if b}


def daily_minutes_by_user(
    app_sessions: Sequence[AppSession],
    days: dict[str, float],
    dimension: Optional[str] = None,
    device_type: Optional[str] = None,
) -> dict[str, dict[str, float]]:
    """Per-user minutes per active-span day, optionally split by item.

    ``days`` is each user's active span in days, from ``active_span_days``
    over the whole panel.  Without a dimension the single item "total"
    carries all usage.
    """
    out: dict[str, dict[str, float]] = {}
    for s in app_sessions:
        if device_type is not None and s.device_type != device_type:
            continue
        if dimension == "category":
            key = s.app_category
        elif dimension == "app":
            key = s.app_id
        else:
            key = "total"
        bucket = out.setdefault(s.user_id, {})
        bucket[key] = bucket.get(key, 0.0) + s.interval.duration / 60.0 / days[s.user_id]
    return out


def smartphone_pure_vs_mixed_usage(
    usage_sessions: Sequence[UsageSession],
    dimension: str,
    evening: Optional[tuple[int, int]],
    utc_offsets: Optional[dict[str, int]] = None,
) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, float]], list[str]]:
    """Normalized per-user usage shares for pure vs mixed smartphone sessions.

    Returns (pure shares, mixed shares, excluded users); a user is excluded
    from the comparison when either session type has zero usage under the
    filters.
    """
    pure = usage_by_user(
        usage_sessions, dimension, "smartphone", "pure", evening, utc_offsets
    )
    mixed = usage_by_user(
        usage_sessions, dimension, "smartphone", MIXED, evening, utc_offsets
    )
    users = sorted(set(pure) | set(mixed))
    excluded = [u for u in users if u not in pure or u not in mixed]
    shared = [u for u in users if u not in excluded]

    def normalize(raw: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
        out = {}
        for u in shared:
            total = sum(raw[u].values())
            out[u] = {k: v / total for k, v in raw[u].items()}
        return out

    return normalize(pure), normalize(mixed), excluded
