"""Event-log parsing, app-session pairing, validation, and panel filtering.

Two input shapes are supported: raw foreground/background event streams
(JSONL or CSV) that get paired into app sessions here, and pre-paired
session CSVs with explicit start/end columns.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter, itemgetter, le
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar

from .intervals import _Span

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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


@dataclass(slots=True)
class AppEvent:
    user_id: str
    device_id: str
    device_type: str
    platform: str
    app_id: str
    app_category: str
    ts: int
    kind: str


@dataclass(slots=True)
class AppSession(_Span):
    """One foreground interval ``[start, end)`` of one app on one device."""

    user_id: str
    device_id: str
    device_type: str
    platform: str
    app_id: str
    app_category: str
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class Panel:
    """Normalized app sessions. ``normalize`` makes one; the only other
    Panel is one user's, ``Panel({user: panel.users[user]})`` of a panel
    ``normalize`` made, which shares that user's streams.

    ``users`` maps each user_id, in sorted order, to that user's devices:
    each device_id, in sorted order, to the device's stream of app sessions,
    sorted by start, non-overlapping and all of one device type. Iterating a
    Panel yields its app sessions in that order.
    """

    users: dict[str, dict[str, list[AppSession]]]

    def __iter__(self) -> Iterator[AppSession]:
        return chain.from_iterable(
            stream for devices in self.users.values() for stream in devices.values())

    def __len__(self) -> int:
        return sum(len(stream) for devices in self.users.values() for stream in devices.values())


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
_ID_FIELDS = ("user_id", "device_id", "app_id", "app_category")
_event_fields = itemgetter(*_EVENT_FIELDS)
# Every integer up to 2**53 is a float exactly, so int(float(ts)) keeps it.
_EXACT_INT = 2 ** 53


def _validate_event(
    row: dict, unit: str, lineno: int, diagnostics: Diagnostics, share: Callable[[str, str], str]
) -> Optional[AppEvent]:
    """The event of one parsed row, or None after a diagnostics row at
    ``f"{unit} {lineno}"``.

    An accepted event's strings go through ``share`` (a ``dict.setdefault``),
    so equal ids are one object; a rejected row adds nothing to it.
    """
    # A falsy value (None or "", but also 0 or False) gets the per-field
    # scan, which alone decides what is missing.
    try:
        values = _event_fields(row)
        complete = all(values)
    except KeyError:
        complete = False
    if not complete:
        missing = [k for k in _EVENT_FIELDS if k not in row or row[k] in (None, "")]
        if missing:
            diagnostics.report(where=f"{unit} {lineno}", error="missing fields", fields=missing)
            return None
    user_id, device_id, device_type, platform, app_id, app_category, ts, kind = values
    # A JSON number or list is no id: str() would make 1 and "1" one user.
    if not (type(user_id) is str and type(device_id) is str and type(app_id) is str
            and type(app_category) is str):
        diagnostics.report(where=f"{unit} {lineno}", error="non-string id", fields=[
            k for k in _ID_FIELDS if type(row[k]) is not str])
        return None
    if device_type not in DEVICE_TYPES:
        diagnostics.report(where=f"{unit} {lineno}", error="unknown device_type", value=str(device_type))
        return None
    if platform not in PLATFORMS:
        diagnostics.report(where=f"{unit} {lineno}", error="unknown platform", value=str(platform))
        return None
    if kind not in EVENT_KINDS:
        diagnostics.report(where=f"{unit} {lineno}", error="unknown event kind", value=str(kind))
        return None
    if not (type(ts) is int and 0 <= ts <= _EXACT_INT):
        try:
            # Sub-second timestamps are truncated to whole seconds, and
            # integers above 2**53 round as floats do. ``float`` takes a
            # JSON boolean, which is no timestamp.
            if ts is True or ts is False:
                raise TypeError(ts)
            ts = int(float(ts))
        except (TypeError, ValueError, OverflowError):
            diagnostics.report(where=f"{unit} {lineno}", error="bad timestamp", value=str(row["ts"]))
            return None
        if ts < 0:
            diagnostics.report(where=f"{unit} {lineno}", error="negative timestamp", value=ts)
            return None
    # A JSON string may hold a lone surrogate escape, which no UTF-8 output
    # can encode; ASCII text, the usual case, needs no encoding attempt.
    if not (user_id.isascii() and device_id.isascii() and app_id.isascii()
            and app_category.isascii()):
        try:
            (user_id + device_id + app_id + app_category).encode("utf-8")
        except UnicodeEncodeError:
            diagnostics.report(where=f"{unit} {lineno}", error="text not encodable as UTF-8")
            return None
    return AppEvent(share(user_id, user_id), share(device_id, device_id),
                    share(device_type, device_type), share(platform, platform),
                    share(app_id, app_id), share(app_category, app_category), ts, share(kind, kind))


def _csv_failure(line_num: int, exc: csv.Error) -> DataError:
    """``line_num`` is a ``csv.reader``'s count, which includes the line that
    failed."""
    return DataError(f"CSV parse failure at line {line_num}: {exc}")


# The stdlib decoder's C scanner: one JSON value from a given index.
_scan_json = json.JSONDecoder().scan_once


def parse_events(stream: TextIO, fmt: str, diagnostics: Diagnostics) -> list[AppEvent]:
    """Parse an event stream in ``jsonl`` or ``csv`` format.

    Malformed rows are skipped and reported; a file-level format failure
    raises :class:`DataError` with the position.
    """
    events: list[AppEvent] = []
    # Each id repeats across many rows; equal strings share one object.
    share = {}.setdefault
    if fmt == "jsonl":
        for lineno, line in enumerate(stream, start=1):
            # A line that is one JSON value and its newline (LF or CRLF)
            # decodes in the scanner; every other line (blank, with
            # whitespace, a BOM, extra data, an error) goes to json.loads,
            # which gives the same value or the same error text.
            try:
                row, end = _scan_json(line, 0)
                whole = line[end:] in ("\n", "\r\n", "")
            except (StopIteration, ValueError, RecursionError):
                whole = False
            if not whole:
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                # Besides a JSONDecodeError (a ValueError): an integer over
                # Python's digit limit, or nesting too deep for the decoder.
                except (ValueError, RecursionError) as exc:
                    diagnostics.report(where=f"line {lineno}", error="invalid json", detail=str(exc))
                    continue
            if not isinstance(row, dict):
                diagnostics.report(where=f"line {lineno}", error="not an object")
                continue
            ev = _validate_event(row, "line", lineno, diagnostics, share)
            if ev is not None:
                events.append(ev)
    elif fmt == "csv":
        try:
            reader = csv.DictReader(stream)
            for lineno, row in enumerate(reader, start=2):
                ev = _validate_event(row, "row", lineno, diagnostics, share)
                if ev is not None:
                    events.append(ev)
        except csv.Error as exc:
            # DictReader.line_num still counts the last good record.
            raise _csv_failure(reader.reader.line_num, exc) from exc
    else:
        raise DataError(f"unknown event format: {fmt!r}")
    return events


T = TypeVar("T")


def group_by_device(
    items: Iterable[T], key: Callable[[T], Any]
) -> Iterator[tuple[tuple[str, str], list[T]]]:
    """Group items by (user_id, device_id).

    Yields the keys in sorted order, each with the list it grouped that
    key's items in, sorted in place by ``key``: no copy is made, so a caller
    may keep the list. The sort is stable, so ties keep their input order.
    """
    groups: dict[tuple[str, str], list[T]] = {}
    for item in items:
        groups.setdefault((item.user_id, item.device_id), []).append(item)
    for device in sorted(groups):
        group = groups[device]
        group.sort(key=key)
        yield device, group


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
            start=open_ev.ts,
            end=end_ts,
        )
    )


_device_type, _start, _end = attrgetter("device_type"), attrgetter("start"), attrgetter("end")


def normalize(sessions: Iterable[AppSession], diagnostics: Diagnostics) -> Panel:
    """The ``Panel`` of ``sessions``: sorted per device, same-device overlaps
    resolved.

    A device has the device type of its earliest session; sessions that
    name another type are dropped.  The later session is authoritative: the
    earlier session is truncated to the later one's start, and dropped if
    that leaves zero duration.  Raises ``ValueError`` for a device type
    outside ``DEVICE_TYPES``, which both readers reject as a row.

    A device whose sorted sessions need none of this keeps its sorted list
    as its stream; only the others are copied.
    """
    users: dict[str, dict[str, list[AppSession]]] = {}
    # At equal starts the longer session counts as earlier, so it is the one
    # truncated (to zero length, i.e. dropped). Sessions equal in both ends
    # are ordered by their other fields, so the input order never decides
    # which one is kept or which device type counts as first.
    for (user_id, device_id), ordered in group_by_device(
        sessions,
        key=lambda s: (s.start, -s.end, s.device_type, s.platform, s.app_id, s.app_category),
    ):
        device_type = ordered[0].device_type
        if device_type not in DEVICE_TYPES:
            raise ValueError(f"unsupported device type: {device_type!r}")
        if len(set(map(_device_type, ordered))) > 1:
            for s in ordered:
                if s.device_type != device_type:
                    diagnostics.report(
                        user_id=s.user_id, device_id=s.device_id, start=s.start,
                        error="device_type differs from the device's first session",
                        value=s.device_type,
                    )
            ordered = [s for s in ordered if s.device_type == device_type]
        # Every session ends after it starts, so only a truncation drops one,
        # and none is truncated if each ends by the next one's start.
        if not all(map(le, map(_end, ordered), map(_start, islice(ordered, 1, None)))):
            stream = []
            for i, s in enumerate(ordered):
                end = s.end
                if i + 1 < len(ordered):
                    nxt = ordered[i + 1].start
                    if nxt < end:
                        end = nxt
                        diagnostics.report(
                            user_id=s.user_id, device_id=s.device_id,
                            start=s.start, error="overlap truncated", new_end=end,
                        )
                if end <= s.start:
                    diagnostics.report(
                        user_id=s.user_id, device_id=s.device_id,
                        start=s.start, error="session dropped after truncation",
                    )
                    continue
                if end != s.end:
                    s = AppSession(s.user_id, s.device_id, s.device_type, s.platform,
                                   s.app_id, s.app_category, s.start, end)
                stream.append(s)
            ordered = stream
        users.setdefault(user_id, {})[device_id] = ordered
    return Panel(users)


def filter_active(panel: Panel, min_span_days: int) -> tuple[set[str], set[str]]:
    """Split users into (retained, dropped) by the activity-span rule.

    A user is retained iff for every device they own, the span in calendar
    days (UTC) between first and last usage is at least ``min_span_days``.
    Each device's stream is start-sorted and overlap-free, so its usage runs
    from its first session's start to its last session's end.
    """
    if min_span_days < 0:
        raise ValueError("min_span_days must be non-negative")
    # Whole days since the epoch differ as the UTC dates do; datetime would
    # fail past the year 9999.
    dropped = {user for user, devices in panel.users.items()
               if any(stream[-1].end // 86400 - stream[0].start // 86400 < min_span_days
                      for stream in devices.values())}
    return set(panel.users) - dropped, dropped


def _write_csv_rows(stream: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as ``csv.writer(stream, lineterminator="\\n")``
    does, except that a row holding a ``\\r``, which that writer leaves
    unquoted, has every field quoted. Read the file back with ``newline=""``."""
    # A writer returns what its file's write returns: here, the line itself.
    line = SimpleNamespace(write=str)
    plain = csv.writer(line, lineterminator="\n").writerow
    quoted = csv.writer(line, lineterminator="\n", quoting=csv.QUOTE_ALL).writerow
    for row in chain([header], rows):
        text = plain(row)
        stream.write(quoted(row) if "\r" in text else text)


def write_sessions_csv(sessions: Iterable[AppSession], stream: TextIO) -> None:
    _write_csv_rows(stream, SESSION_CSV_HEADER, (
        [s.user_id, s.device_id, s.device_type, s.platform, s.app_id, s.app_category,
         s.start, s.end] for s in sessions))


def read_sessions_csv(stream: TextIO, diagnostics: Diagnostics) -> list[AppSession]:
    """App sessions of a session CSV; bad rows become diagnostics rows.

    Each column is read at its last position in the header. Blank lines are
    skipped and not numbered, a short row lacks the columns past its end,
    and a long row's extra fields are ignored.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
        if header is None:
            return []
        position = {name: i for i, name in enumerate(header)}
        missing = [c for c in SESSION_CSV_HEADER if c not in position]
        if missing:
            raise DataError(f"session CSV missing columns: {missing}")
        columns = [position[c] for c in SESSION_CSV_HEADER]
        width = max(columns) + 1
        fields = itemgetter(*columns)
        # Each id repeats across many rows; equal strings share one object.
        share = {}.setdefault
        sessions: list[AppSession] = []
        lineno = 1
        for row in reader:
            if not row:
                continue
            lineno += 1
            # A full row with no empty field skips the per-column scan.
            if len(row) < width or "" in row:
                missing = [c for c, i in zip(SESSION_CSV_HEADER, columns)
                           if i >= len(row) or not row[i]]
                if missing:
                    diagnostics.report(where=f"row {lineno}", error="missing fields", fields=missing)
                    continue
            user_id, device_id, device_type, platform, app_id, app_category, start, end = fields(row)
            if device_type not in DEVICE_TYPES:
                diagnostics.report(where=f"row {lineno}", error="unknown device_type", value=device_type)
                continue
            if platform not in PLATFORMS:
                diagnostics.report(where=f"row {lineno}", error="unknown platform", value=platform)
                continue
            try:
                # int(float(x)), not int(x): sub-second and exponent forms
                # are accepted, and values above 2**53 round as floats do.
                session = AppSession(
                    share(user_id, user_id), share(device_id, device_id),
                    share(device_type, device_type), share(platform, platform),
                    share(app_id, app_id), share(app_category, app_category),
                    int(float(start)), int(float(end)),
                )
            except (ValueError, OverflowError) as exc:
                diagnostics.report(where=f"row {lineno}", error="bad interval", detail=str(exc))
                continue
            sessions.append(session)
    except csv.Error as exc:
        raise _csv_failure(reader.line_num, exc) from exc
    return sessions
