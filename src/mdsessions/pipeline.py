"""Glue between ingestion, construction, and the statistics modules:
input loading, evening-window filtering, and per-user usage aggregation.
"""

from __future__ import annotations

import csv
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .construction import (
    MIXED,
    PURE,
    MultideviceSession,
    UsageSession,
    build_multidevice_sessions,
)
from .descriptive import _DAY, _sum_by, active_span_days
from .ingest import (
    AppSession,
    DataError,
    Diagnostics,
    Panel,
    pair_sessions,
    parse_events,
    read_sessions_csv,
)


def load_app_sessions(
    path: Path, mode: str, diagnostics: Diagnostics
) -> list[AppSession]:
    """Load app sessions from an events file or a pre-paired session CSV."""
    fmt = "csv" if mode == "sessions" or path.suffix.lower() == ".csv" else "jsonl"
    try:
        # newline="": the csv module keeps a quoted "\r" only if it reads it.
        # A JSONL line ends at "\n" only; a bare "\r" is JSON whitespace.
        with open(path, encoding="utf-8", newline="" if fmt == "csv" else "\n") as stream:
            if mode == "events":
                events = parse_events(stream, fmt, diagnostics)
                return pair_sessions(events, diagnostics)
            if mode == "sessions":
                return read_sessions_csv(stream, diagnostics)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    raise DataError(f"unknown input mode: {mode!r}")


def reconstruct(
    panel: Panel, tw: int
) -> tuple[list[UsageSession], list[MultideviceSession]]:
    md, usage = build_multidevice_sessions(panel, tw)
    return usage, md


def sessions_by_user(
    panel: Panel, tw: int
) -> Iterator[tuple[list[MultideviceSession], list[UsageSession]]]:
    """``build_multidevice_sessions`` of each user of ``panel`` in turn, on a
    one-user ``Panel``: concatenated, the whole panel's build. A caller that
    drops each user's sessions before the next holds one user's at a time."""
    for user, devices in panel.users.items():
        yield build_multidevice_sessions(Panel({user: devices}), tw)


def load_utc_offsets(path: Optional[str | Path]) -> dict[str, int]:
    """Per-user UTC offsets from a CSV of user_id,offset_seconds, one row per user."""
    if path is None:
        return {}
    offsets: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as stream:
        reader = csv.DictReader(stream)
        try:
            for row in reader:
                user, offset = row["user_id"], int(row["offset_seconds"])
                if user in offsets:
                    raise DataError(f"offsets CSV line {reader.reader.line_num}: "
                                    f"user {user!r} is given twice")
                offsets[user] = offset
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
        except (KeyError, TypeError, ValueError, csv.Error) as exc:
            raise DataError(
                f"offsets CSV line {reader.reader.line_num}: need user_id and integer "
                f"offset_seconds ({exc!r})"
            ) from exc
    return offsets


# Per-user item key of ``usage_by_user``, by dimension.
_USER_ITEM = {
    "category": attrgetter("user_id", "app_category"),
    "app": attrgetter("user_id", "app_id"),
    None: lambda s: (s.user_id, "total"),
}


def usage_by_user(
    app_sessions: Iterable[AppSession],
    dimension: Optional[str],
    value: Callable[[AppSession], float],
) -> dict[str, dict[str, float]]:
    """Per-user sums of ``value`` keyed by app category or app id, or under
    the single item "total" without a dimension.

    Items that sum to zero are left out, and so are users left with none.
    """
    if dimension not in _USER_ITEM:
        raise ValueError(f"unknown dimension: {dimension!r}")
    out: dict[str, dict[str, float]] = {}
    for (user, item), total in _sum_by(app_sessions, _USER_ITEM[dimension], value).items():
        if total:
            out.setdefault(user, {})[item] = total
    return out


def daily_minutes_by_user(
    panel: Panel,
    dimension: Optional[str] = None,
    device_type: Optional[str] = None,
) -> dict[str, dict[str, float]]:
    """Per-user minutes per active-span day, optionally split by item.

    A user's active span covers all of the user's devices, whichever ones
    ``device_type`` selects.  Without a dimension the single item "total"
    carries all usage.
    """
    days = active_span_days(panel)
    sessions = (s for devices in panel.users.values() for stream in devices.values()
                if device_type in (None, stream[0].device_type) for s in stream)
    return usage_by_user(sessions, dimension, lambda s: s.duration / 60.0 / days[s.user_id])


def smartphone_pure_vs_mixed_usage(
    usage_sessions: Iterable[UsageSession],
    dimension: str,
    evening: tuple[int, int],
    utc_offsets: dict[str, int],
) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, float]], list[str]]:
    """Normalized per-user usage shares for pure vs mixed smartphone sessions.

    Each app session counts its seconds inside the ``evening`` window
    [start_hour, end_hour) of local time; ``(0, 24)`` counts all of them.
    Users missing from ``utc_offsets`` are on UTC.  Returns (pure shares,
    mixed shares, excluded users); a user is excluded from the comparison
    when either session type has zero usage in the window.

    ``usage_sessions`` may be any iterable, a one-shot generator included:
    it is read once, keeping only the smartphone app sessions of each purity.
    """
    lo, hi = evening
    start, width = 3600 * lo, 3600 * (hi - lo)

    def before(x: int) -> int:
        """Seconds of the window between local time 0 and ``x``, counted
        negative for ``x < 0``; floor division keeps this exact there too."""
        # Clamped to [0, width] without min and max, which take 40% longer.
        t = x % _DAY - start
        return x // _DAY * width + (t if 0 < t < width else 0 if t <= 0 else width)

    def in_window(app: AppSession) -> int:
        offset = utc_offsets.get(app.user_id, 0)
        return before(app.end + offset) - before(app.start + offset)

    apps: dict[str, list[AppSession]] = {PURE: [], MIXED: []}
    for us in usage_sessions:
        if us.device_type == "smartphone":
            apps[us.purity] += us.app_sessions
    pure, mixed = (usage_by_user(apps[purity], dimension, in_window) for purity in (PURE, MIXED))
    users = sorted(set(pure) | set(mixed))
    excluded = [u for u in users if u not in pure or u not in mixed]
    shared = [u for u in users if u in pure and u in mixed]

    def normalize(raw: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
        out = {}
        for u in shared:
            total = sum(raw[u].values())
            out[u] = {k: v / total for k, v in raw[u].items()}
        return out

    return normalize(pure), normalize(mixed), excluded
