"""Event-log parsing, app-session pairing, validation, and panel filtering.

Two input shapes are supported: raw foreground/background event streams
(JSONL or CSV) that get paired into app sessions here, and pre-paired
session CSVs with explicit start/end columns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, Iterator, Optional, TextIO, TypeVar

from .intervals import Interval

DEVICE_TYPES = ("smartphone", "tablet")
PLATFORMS = ("android", "ios", "other")
EVENT_KINDS = ("foreground", "background", "screen_off")

SESSION_CSV_HEADER = [
    "user_id",
    "device_id",
    "device_type",
    "platform",
    "app_id",
    "app_category",
    "start",
    "end",
]


class DataError(Exception):
    """Unrecoverable problem with an input file."""


@dataclass(frozen=True)
class AppEvent:
    user_id: str
    device_id: str
    device_type: str
    platform: str
    app_id: str
    app_category: str
    ts: int
    kind: str


@dataclass(frozen=True)
class AppSession:
    """One foreground interval of one app on one device."""

    user_id: str
    device_id: str
    device_type: str
    platform: str
    app_id: str
    app_category: str
    interval: Interval


@dataclass
class Diagnostics:
    """Collected per-row problems; never fatal on their own."""

    records: list[dict] = field(default_factory=list)

    def report(self, **info) -> None:
        self.records.append(info)

    def __len__(self) -> int:
        return len(self.records)

    def write_jsonl(self, stream: TextIO) -> None:
        for rec in self.records:
            stream.write(json.dumps(rec, sort_keys=True) + "\n")


_EVENT_FIELDS = ("user_id", "device_id", "device_type", "platform", "app_id", "app_category", "ts", "kind")


def _validate_event(row: dict, where: str, diagnostics: Diagnostics) -> Optional[AppEvent]:
    missing = [k for k in _EVENT_FIELDS if k not in row or row[k] in (None, "")]
    if missing:
        diagnostics.report(where=where, error="missing fields", fields=missing)
        return None
    if row["device_type"] not in DEVICE_TYPES:
        diagnostics.report(where=where, error="unknown device_type", value=str(row["device_type"]))
        return None
    if row["platform"] not in PLATFORMS:
        diagnostics.report(where=where, error="unknown platform", value=str(row["platform"]))
        return None
    if row["kind"] not in EVENT_KINDS:
        diagnostics.report(where=where, error="unknown event kind", value=str(row["kind"]))
        return None
    try:
        # Sub-second timestamps are truncated to whole seconds.
        ts = int(float(row["ts"]))
    except (TypeError, ValueError, OverflowError):
        diagnostics.report(where=where, error="bad timestamp", value=str(row["ts"]))
        return None
    if ts < 0:
        diagnostics.report(where=where, error="negative timestamp", value=ts)
        return None
    return AppEvent(
        user_id=str(row["user_id"]),
        device_id=str(row["device_id"]),
        device_type=row["device_type"],
        platform=row["platform"],
        app_id=str(row["app_id"]),
        app_category=str(row["app_category"]),
        ts=ts,
        kind=row["kind"],
    )


def _csv_failure(reader: csv.DictReader, exc: csv.Error) -> DataError:
    # DictReader.line_num still counts the last good record; its inner
    # reader has counted the line that failed.
    return DataError(f"CSV parse failure at line {reader.reader.line_num}: {exc}")


def parse_events(stream: TextIO, fmt: str, diagnostics: Diagnostics) -> list[AppEvent]:
    """Parse an event stream in ``jsonl`` or ``csv`` format.

    Malformed rows are skipped and reported; a file-level format failure
    raises :class:`DataError` with the position.
    """
    events: list[AppEvent] = []
    if fmt == "jsonl":
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                diagnostics.report(where=f"line {lineno}", error="invalid json", detail=str(exc))
                continue
            if not isinstance(row, dict):
                diagnostics.report(where=f"line {lineno}", error="not an object")
                continue
            ev = _validate_event(row, f"line {lineno}", diagnostics)
            if ev is not None:
                events.append(ev)
    elif fmt == "csv":
        try:
            reader = csv.DictReader(stream)
            for lineno, row in enumerate(reader, start=2):
                ev = _validate_event(row, f"row {lineno}", diagnostics)
                if ev is not None:
                    events.append(ev)
        except csv.Error as exc:
            raise _csv_failure(reader, exc) from exc
    else:
        raise DataError(f"unknown event format: {fmt!r}")
    return events


T = TypeVar("T")


def group_by_device(
    items: Iterable[T], key: Callable[[T], Any]
) -> Iterator[tuple[tuple[str, str], list[T]]]:
    """Group items by (user_id, device_id).

    Yields the keys in sorted order, each with its items sorted by ``key``.
    The sort is stable, so ties keep their input order.
    """
    groups: dict[tuple[str, str], list[T]] = {}
    for item in items:
        groups.setdefault((item.user_id, item.device_id), []).append(item)
    for device in sorted(groups):
        yield device, sorted(groups[device], key=key)


def pair_sessions(events: Iterable[AppEvent], diagnostics: Diagnostics) -> list[AppSession]:
    """Pair foreground/background events into app sessions.

    Events are grouped per (user, device) and processed in timestamp order.
    A foreground event opens a session; it closes at the earliest of a
    matching background, the next foreground of any app, or screen off.
    Sessions still open at end of stream are dropped and reported.
    """
    sessions: list[AppSession] = []
    for _, stream in group_by_device(events, key=lambda e: e.ts):
        open_ev: Optional[AppEvent] = None
        for ev in stream:
            if ev.kind == "foreground":
                if open_ev is not None:
                    _close(open_ev, ev.ts, sessions, diagnostics)
                open_ev = ev
            else:  # background or screen_off
                if open_ev is None:
                    diagnostics.report(
                        user_id=ev.user_id, device_id=ev.device_id, ts=ev.ts,
                        error=f"{ev.kind} with no open session",
                    )
                    continue
                if ev.kind == "background" and ev.app_id != open_ev.app_id:
                    diagnostics.report(
                        user_id=ev.user_id, device_id=ev.device_id, ts=ev.ts,
                        error="background for different app", app_id=ev.app_id,
                    )
                    continue
                _close(open_ev, ev.ts, sessions, diagnostics)
                open_ev = None
        if open_ev is not None:
            diagnostics.report(
                user_id=open_ev.user_id, device_id=open_ev.device_id, ts=open_ev.ts,
                error="unclosed session at end of stream", app_id=open_ev.app_id,
            )
    return sessions


def _close(open_ev: AppEvent, end_ts: int, sessions: list[AppSession], diagnostics: Diagnostics) -> None:
    if end_ts <= open_ev.ts:
        diagnostics.report(
            user_id=open_ev.user_id, device_id=open_ev.device_id, ts=open_ev.ts,
            error="zero or negative duration session dropped", app_id=open_ev.app_id,
        )
        return
    sessions.append(
        AppSession(
            user_id=open_ev.user_id,
            device_id=open_ev.device_id,
            device_type=open_ev.device_type,
            platform=open_ev.platform,
            app_id=open_ev.app_id,
            app_category=open_ev.app_category,
            interval=Interval(open_ev.ts, end_ts),
        )
    )


def normalize(sessions: Iterable[AppSession], diagnostics: Diagnostics) -> list[AppSession]:
    """Sort per-device sessions and resolve same-device overlaps.

    The later session is authoritative: the earlier session is truncated to
    the later one's start, and dropped if that leaves zero duration.
    """
    out: list[AppSession] = []
    # At equal starts the longer session counts as earlier, so it is the one
    # truncated (to zero length, i.e. dropped).
    for _, ordered in group_by_device(
        sessions, key=lambda s: (s.interval.start, -s.interval.end)
    ):
        for i, s in enumerate(ordered):
            end = s.interval.end
            if i + 1 < len(ordered):
                nxt = ordered[i + 1].interval.start
                if nxt < end:
                    end = nxt
                    diagnostics.report(
                        user_id=s.user_id, device_id=s.device_id,
                        start=s.interval.start, error="overlap truncated", new_end=end,
                    )
            if end <= s.interval.start:
                diagnostics.report(
                    user_id=s.user_id, device_id=s.device_id,
                    start=s.interval.start, error="session dropped after truncation",
                )
                continue
            if end != s.interval.end:
                s = AppSession(
                    s.user_id, s.device_id, s.device_type, s.platform,
                    s.app_id, s.app_category, Interval(s.interval.start, end),
                )
            out.append(s)
    return out


def _usage_date(ts: int) -> datetime:
    return datetime.fromtimestamp(ts, tz=timezone.utc)


def filter_active(
    sessions: Iterable[AppSession], min_span_days: int
) -> tuple[set[str], set[str]]:
    """Split users into (retained, dropped) by the activity-span rule.

    A user is retained iff for every device they own, the span in calendar
    days (UTC) between first and last usage is at least ``min_span_days``.
    """
    if min_span_days < 0:
        raise ValueError("min_span_days must be non-negative")
    users: set[str] = set()
    dropped: set[str] = set()
    for (user, _), device_sessions in group_by_device(sessions, key=lambda s: s.interval.start):
        users.add(user)
        lo = device_sessions[0].interval.start
        hi = max(s.interval.end for s in device_sessions)
        if (_usage_date(hi).date() - _usage_date(lo).date()).days < min_span_days:
            dropped.add(user)
    return users - dropped, dropped


def write_sessions_csv(sessions: Iterable[AppSession], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SESSION_CSV_HEADER)
    for s in sessions:
        writer.writerow(
            [s.user_id, s.device_id, s.device_type, s.platform, s.app_id,
             s.app_category, s.interval.start, s.interval.end]
        )


def read_sessions_csv(stream: TextIO, diagnostics: Diagnostics) -> list[AppSession]:
    reader = csv.DictReader(stream)
    try:
        if reader.fieldnames is None:
            return []
        missing = [c for c in SESSION_CSV_HEADER if c not in reader.fieldnames]
        if missing:
            raise DataError(f"session CSV missing columns: {missing}")
        sessions: list[AppSession] = []
        for lineno, row in enumerate(reader, start=2):
            # DictReader fills a short row with None; a row with no empty or
            # None value skips the per-column scan.
            if not all(row.values()):
                missing = [c for c in SESSION_CSV_HEADER if row[c] in (None, "")]
                if missing:
                    diagnostics.report(where=f"row {lineno}", error="missing fields", fields=missing)
                    continue
            if row["device_type"] not in DEVICE_TYPES:
                diagnostics.report(where=f"row {lineno}", error="unknown device_type", value=row["device_type"])
                continue
            if row["platform"] not in PLATFORMS:
                diagnostics.report(where=f"row {lineno}", error="unknown platform", value=row["platform"])
                continue
            try:
                start, end = int(float(row["start"])), int(float(row["end"]))
                interval = Interval(start, end)
            except (ValueError, OverflowError) as exc:
                diagnostics.report(where=f"row {lineno}", error="bad interval", detail=str(exc))
                continue
            sessions.append(
                AppSession(
                    row["user_id"], row["device_id"], row["device_type"], row["platform"],
                    row["app_id"], row["app_category"], interval,
                )
            )
    except csv.Error as exc:
        raise _csv_failure(reader, exc) from exc
    return sessions
