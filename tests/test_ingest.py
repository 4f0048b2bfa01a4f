"""Parsing, event pairing, normalization, and the panel activity filter."""

import csv
import io
import json

import pytest
from conftest import normalized
from hypothesis import example, given, settings, strategies as st
from test_metamorphic import read_panel, small_panels

from mdsessions.ingest import (
    DEVICE_TYPES,
    EVENT_KINDS,
    PLATFORMS,
    AppEvent,
    AppSession,
    SESSION_CSV_HEADER,
    DataError,
    Diagnostics,
    filter_active,
    normalize,
    pair_sessions,
    parse_events,
    read_sessions_csv,
    write_sessions_csv,
    _validate_event,
)

DAY = 86400


def event(ts, kind, app="app1", user="u1", device="d1", device_type="smartphone"):
    return AppEvent(user, device, device_type, "android", app, "social", ts, kind)


def session(start, end, user="u1", device="d1", device_type="smartphone", app="app1", cat="social"):
    return AppSession(user, device, device_type, "android", app, cat, start, end)


def jsonl_line(**overrides):
    base = {
        "user_id": "u1", "device_id": "d1", "device_type": "smartphone",
        "platform": "android", "app_id": "app1", "app_category": "social",
        "ts": 100, "kind": "foreground",
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseEvents:
    def test_valid_jsonl(self):
        text = "\n".join([jsonl_line(ts=1), jsonl_line(ts=2, kind="background"), jsonl_line(ts=3)])
        diag = Diagnostics()
        events = parse_events(io.StringIO(text), "jsonl", diag)
        assert len(events) == 3
        assert len(diag) == 0

    def test_non_string_ids_skipped_and_reported(self):
        text = "\n".join([jsonl_line(user_id=1), jsonl_line(device_id=[1, 2], app_category=2.5),
                          jsonl_line(user_id="1", app_id=True), jsonl_line(user_id="1")])
        diag = Diagnostics()
        events = parse_events(io.StringIO(text), "jsonl", diag)
        assert [(e.user_id, e.device_id) for e in events] == [("1", "d1")]
        assert diag.records == [
            {"where": "line 1", "error": "non-string id", "fields": ["user_id"]},
            {"where": "line 2", "error": "non-string id", "fields": ["device_id", "app_category"]},
            {"where": "line 3", "error": "non-string id", "fields": ["app_id"]},
        ]

    def test_unknown_device_type_skipped_and_reported(self):
        diag = Diagnostics()
        events = parse_events(io.StringIO(jsonl_line(device_type="smartwatch")), "jsonl", diag)
        assert events == []
        assert len(diag) == 1
        assert "device_type" in diag.records[0]["error"]

    def test_empty_file(self):
        assert parse_events(io.StringIO(""), "jsonl", Diagnostics()) == []

    def test_invalid_json_reported_with_line(self):
        diag = Diagnostics()
        events = parse_events(io.StringIO(jsonl_line() + "\n{oops\n" + jsonl_line()), "jsonl", diag)
        assert len(events) == 2
        assert diag.records[0]["where"] == "line 2"

    def test_csv_format(self):
        text = (
            "user_id,device_id,device_type,platform,app_id,app_category,ts,kind\n"
            "u1,d1,smartphone,android,app1,social,100,foreground\n"
            "u1,d1,smartphone,android,app1,social,150,background\n"
        )
        events = parse_events(io.StringIO(text), "csv", Diagnostics())
        assert [e.ts for e in events] == [100, 150]

    def test_infinite_timestamp_reported(self):
        diag = Diagnostics()
        assert parse_events(io.StringIO(jsonl_line(ts=float("inf"))), "jsonl", diag) == []
        assert diag.records[0]["error"] == "bad timestamp"

    def test_boolean_timestamp_reported(self):
        # float(True) is 1.0, so without its own check a JSON boolean would
        # open an app session at 1.
        diag = Diagnostics()
        text = jsonl_line(ts=True) + "\n" + jsonl_line(ts=9, kind="background")
        events = parse_events(io.StringIO(text), "jsonl", diag)
        assert [(e.ts, e.kind) for e in events] == [(9, "background")]
        assert diag.records == [{"where": "line 1", "error": "bad timestamp", "value": "True"}]

    def test_subsecond_timestamp_truncated(self):
        events = parse_events(io.StringIO(jsonl_line(ts=100.9)), "jsonl", Diagnostics())
        assert events[0].ts == 100

    @pytest.mark.parametrize("line", [2, 3])
    def test_csv_field_over_limit_names_its_line(self, line):
        rows = ["user_id,device_id,device_type,platform,app_id,app_category,ts,kind"]
        rows += ["u1,d1,smartphone,android,app1,social,100,foreground"] * 3
        rows[line - 1] = rows[line - 1].replace("app1", "x" * 140000)
        with pytest.raises(DataError, match=f"CSV parse failure at line {line}:"):
            parse_events(io.StringIO("\n".join(rows) + "\n"), "csv", Diagnostics())

    def test_unknown_format(self):
        with pytest.raises(DataError):
            parse_events(io.StringIO(""), "xml", Diagnostics())


class TestSharedStrings:
    FIELDS = ("user_id", "device_id", "device_type", "platform", "app_id", "app_category", "kind")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_equal_ids_are_one_object_in_events_and_sessions(self, fmt):
        rows = [(1, "foreground"), (5, "background"), (10, "foreground"), (20, "screen_off")]
        if fmt == "jsonl":
            text = "\n".join(jsonl_line(ts=ts, kind=kind) for ts, kind in rows)
        else:
            text = "user_id,device_id,device_type,platform,app_id,app_category,ts,kind\n" + "".join(
                f"u1,d1,smartphone,android,app1,social,{ts},{kind}\n" for ts, kind in rows)
        events = parse_events(io.StringIO(text), fmt, Diagnostics())
        assert len(events) == 4
        fields = [name for name in self.FIELDS if name != "kind"]
        for ev in events[1:]:
            assert all(getattr(ev, name) is getattr(events[0], name) for name in fields)
        assert events[2].kind is events[0].kind
        sessions = pair_sessions(events, Diagnostics())
        assert len(sessions) == 2
        assert all(getattr(sessions[1], name) is getattr(events[0], name) for name in fields)

    @pytest.mark.parametrize("overrides", [
        {"user_id": "u\ud800"},  # rejected last, by the UTF-8 check
        {"ts": -1}, {"ts": "x"}, {"kind": "click"}, {"platform": "win"},
        {"device_type": "laptop"}, {"app_id": 1}, {"device_id": ""},
    ])
    def test_rejected_row_adds_nothing_to_the_table(self, overrides):
        row = json.loads(jsonl_line(**overrides))
        table = {}
        diagnostics = Diagnostics()
        assert _validate_event(row, "line", 7, diagnostics, table.setdefault) is None
        assert table == {} and diagnostics.records[0]["where"] == "line 7"

    def test_accepted_row_adds_its_seven_strings(self):
        table = {}
        ev = _validate_event(json.loads(jsonl_line()), "line", 1, Diagnostics(), table.setdefault)
        assert ev is not None
        assert set(table) == {getattr(ev, name) for name in self.FIELDS}


class TestPairSessions:
    def test_foreground_background(self):
        diag = Diagnostics()
        out = pair_sessions([event(0, "foreground"), event(30, "background")], diag)
        assert [(s.start, s.end) for s in out] == [(0, 30)]
        assert len(diag) == 0

    def test_replacement_closes_prior(self):
        out = pair_sessions(
            [event(0, "foreground", app="A"), event(20, "foreground", app="B"),
             event(50, "background", app="B")],
            Diagnostics(),
        )
        assert [(s.app_id, s.start, s.end) for s in out] == [
            ("A", 0, 20), ("B", 20, 50)
        ]

    def test_screen_off_closes(self):
        out = pair_sessions([event(0, "foreground"), event(40, "screen_off")], Diagnostics())
        assert (out[0].start, out[0].end) == (0, 40)

    def test_unclosed_dropped_and_reported(self):
        diag = Diagnostics()
        out = pair_sessions([event(0, "foreground")], diag)
        assert out == []
        assert "unclosed" in diag.records[0]["error"]

    def test_background_with_no_open_session_reported(self):
        diag = Diagnostics()
        assert pair_sessions([event(5, "background")], diag) == []
        assert "no open session" in diag.records[0]["error"]

    def test_foreign_background_ignored_and_equal_foregrounds_dropped(self):
        diag = Diagnostics()
        out = pair_sessions(
            [event(0, "foreground", app="A"), event(5, "background", app="B"),
             event(10, "background", app="A"), event(20, "foreground", app="C"),
             event(20, "foreground", app="D"), event(30, "background", app="D")],
            diag,
        )
        assert [(s.app_id, s.start, s.end) for s in out] == [("A", 0, 10), ("D", 20, 30)]
        assert [(r["error"], r["app_id"], r["ts"]) for r in diag.records] == [
            ("background for different app", "B", 5),
            ("zero or negative duration session dropped", "C", 20),
        ]

    def test_output_bounded_by_foreground_count(self):
        events = [event(t, "foreground", app=f"a{t}") for t in range(0, 100, 10)]
        events.append(event(100, "screen_off"))
        out = pair_sessions(events, Diagnostics())
        assert len(out) <= sum(1 for e in events if e.kind == "foreground")

    def test_devices_isolated(self):
        out = pair_sessions(
            [event(0, "foreground", device="d1"), event(10, "foreground", device="d2"),
             event(30, "background", device="d1"), event(40, "background", device="d2")],
            Diagnostics(),
        )
        assert len(out) == 2


class TestNormalize:
    def test_truncates_earlier_overlap(self):
        out = normalize([session(0, 30), session(20, 50, app="b")], Diagnostics())
        assert [(s.start, s.end) for s in out] == [(0, 20), (20, 50)]

    def test_degenerate_truncation_drops(self):
        diag = Diagnostics()
        out = normalize([session(0, 30), session(0, 10, app="b")], diag)
        assert [(s.app_id, s.start, s.end) for s in out] == [("b", 0, 10)]
        assert any("dropped" in r["error"] for r in diag.records)

    def test_equal_sessions_resolved_whatever_the_input_order(self):
        rows = [session(0, 60, app="b"), session(0, 60, app="a"),
                session(0, 60, device_type="tablet")]
        results = {repr(normalize(order, Diagnostics()))
                   for order in (rows, rows[::-1], rows[1:] + rows[:1])}
        assert len(results) == 1

    def test_disjoint_unchanged(self):
        sessions = [session(0, 10), session(20, 30, app="b")]
        assert list(normalize(sessions, Diagnostics())) == sessions

    def test_device_keeps_the_type_of_its_first_session(self):
        diag = Diagnostics()
        out = normalize([session(20, 30, device_type="tablet", app="b"), session(0, 10)], diag)
        assert list(out) == [session(0, 10)]
        assert diag.records == [{
            "user_id": "u1", "device_id": "d1", "start": 20, "value": "tablet",
            "error": "device_type differs from the device's first session",
        }]

    @settings(max_examples=60, deadline=None)
    @given(rows=small_panels())
    # A long session enclosing a later short one on the same device.
    @example(rows=["u0,d0,smartphone,android,a,social,0,1000\n",
                   "u0,d0,smartphone,android,b,social,10,20\n"])
    def test_panel_streams_on_small_panels(self, rows):
        panel = read_panel(rows)
        assert list(panel.users) == sorted(panel.users)
        for user, devices in panel.users.items():
            assert list(devices) == sorted(devices)
            for device, stream in devices.items():
                assert {(s.user_id, s.device_id) for s in stream} == {(user, device)}
                assert len({s.device_type for s in stream}) == 1
                for a, b in zip(stream, stream[1:]):
                    assert a.start < b.start and a.end <= b.start
        flat = [s for devices in panel.users.values()
                for stream in devices.values() for s in stream]
        assert list(panel) == flat
        assert len(panel) == len(flat)

    def test_result_sorted_non_overlapping(self):
        sessions = [session(50, 80), session(0, 60, app="b"), session(55, 70, app="c")]
        out = list(normalize(sessions, Diagnostics()))
        for a, b in zip(out, out[1:]):
            assert a.end <= b.start


class TestFilterActive:
    def test_both_devices_above_threshold_retained(self):
        sessions = [
            session(0, 100, device="phone"),
            session(25 * DAY, 25 * DAY + 100, device="phone"),
            session(0, 100, device="tab", device_type="tablet"),
            session(24 * DAY, 24 * DAY + 100, device="tab", device_type="tablet"),
        ]
        retained, dropped = filter_active(normalized(sessions), 23)
        assert retained == {"u1"} and dropped == set()

    def test_one_short_device_drops_user(self):
        sessions = [
            session(0, 100, device="phone"),
            session(25 * DAY, 25 * DAY + 100, device="phone"),
            session(0, 100, device="tab", device_type="tablet"),
            session(10 * DAY, 10 * DAY + 100, device="tab", device_type="tablet"),
        ]
        retained, dropped = filter_active(normalized(sessions), 23)
        assert retained == set() and dropped == {"u1"}

    def test_zero_threshold_retains_all(self):
        sessions = [session(0, 100)]
        retained, dropped = filter_active(normalized(sessions), 0)
        assert retained == {"u1"} and dropped == set()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_active(normalized([session(0, 100)]), -1)

    def test_idempotent(self):
        sessions = [
            session(0, 100, device="phone"),
            session(25 * DAY, 25 * DAY + 100, device="phone"),
        ]
        retained, _ = filter_active(normalized(sessions), 23)
        again, _ = filter_active(normalized([s for s in sessions if s.user_id in retained]), 23)
        assert again == retained


class TestSessionCsv:
    def test_roundtrip_identity(self):
        sessions = [session(0, 30), session(40, 90, device="tab", device_type="tablet", app="b")]
        buf = io.StringIO()
        write_sessions_csv(sessions, buf)
        buf.seek(0)
        assert read_sessions_csv(buf, Diagnostics()) == sessions

    def test_empty_file(self):
        diag = Diagnostics()
        assert read_sessions_csv(io.StringIO(""), diag) == []
        assert diag.records == []

    def test_missing_column_raises(self):
        with pytest.raises(DataError):
            read_sessions_csv(io.StringIO("user_id,start,end\nu1,0,10\n"), Diagnostics())

    def test_bad_interval_reported(self):
        buf = io.StringIO()
        write_sessions_csv([session(0, 30)], buf)
        text = buf.getvalue().replace("0,30", "30,30")
        diag = Diagnostics()
        out = read_sessions_csv(io.StringIO(text), diag)
        assert out == [] and diag.records == [{
            "where": "row 2", "error": "bad interval",
            "detail": "interval must have positive duration, got [30, 30]",
        }]

    def test_negative_start_reported(self):
        buf = io.StringIO()
        write_sessions_csv([session(0, 30)], buf)
        text = buf.getvalue().replace("0,30", "-5,30")
        diag = Diagnostics()
        assert read_sessions_csv(io.StringIO(text), diag) == []
        assert diag.records == [{
            "where": "row 2", "error": "bad interval",
            "detail": "interval start must be non-negative, got -5",
        }]

    def test_overflowing_interval_reported(self):
        buf = io.StringIO()
        write_sessions_csv([session(0, 30)], buf)
        text = buf.getvalue().replace("0,30", "1e400,1e401")
        diag = Diagnostics()
        assert read_sessions_csv(io.StringIO(text), diag) == []
        assert diag.records[0]["error"] == "bad interval"

    @pytest.mark.parametrize("line", [2, 3])
    def test_field_over_limit_names_its_line(self, line):
        buf = io.StringIO()
        write_sessions_csv([session(0, 30), session(40, 50), session(60, 70)], buf)
        rows = buf.getvalue().splitlines()
        rows[line - 1] = rows[line - 1].replace("app1", "x" * 140000)
        with pytest.raises(DataError, match=f"CSV parse failure at line {line}:"):
            read_sessions_csv(io.StringIO("\n".join(rows) + "\n"), Diagnostics())

    def test_short_row_reports_missing_fields(self):
        text = ",".join(SESSION_CSV_HEADER) + "\nu1,d1,smartphone\n"
        diag = Diagnostics()
        assert read_sessions_csv(io.StringIO(text), diag) == []
        assert diag.records == [{
            "where": "row 2", "error": "missing fields",
            "fields": ["platform", "app_id", "app_category", "start", "end"],
        }]


def reference_read_sessions_csv(stream, diagnostics):
    """The ``csv.DictReader`` reader that ``read_sessions_csv`` replaced,
    kept as its reference."""
    reader = csv.DictReader(stream)
    try:
        if reader.fieldnames is None:
            return []
        missing = [c for c in SESSION_CSV_HEADER if c not in reader.fieldnames]
        if missing:
            raise DataError(f"session CSV missing columns: {missing}")
        sessions = []
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
                session = AppSession(
                    row["user_id"], row["device_id"], row["device_type"], row["platform"],
                    row["app_id"], row["app_category"],
                    int(float(row["start"])), int(float(row["end"])),
                )
            except (ValueError, OverflowError) as exc:
                diagnostics.report(where=f"row {lineno}", error="bad interval", detail=str(exc))
                continue
            sessions.append(session)
    except csv.Error as exc:
        raise DataError(f"CSV parse failure at line {reader.reader.line_num}: {exc}") from exc
    return sessions


def read_outcome(reader, text, newline):
    """(sessions, diagnostics records) of a read, or the DataError's text."""
    diagnostics = Diagnostics()
    try:
        return reader(io.StringIO(text, newline=newline), diagnostics), diagnostics.records
    except DataError as exc:
        return str(exc)


# Values each column is likely to hold, then anything at all.
COLUMN_VALUES = {
    "user_id": ["u1", "u2", "a,b", "line\nbreak", 'say "hi"'],
    "device_id": ["d1", "d2"],
    "device_type": list(DEVICE_TYPES),
    "platform": list(PLATFORMS),
    "app_id": ["a1", "a2"],
    "app_category": ["social", "games"],
    "start": ["0", "60", "1.5", "-3", "9007199254740993"],
    "end": ["60", "120", "1e400", "nan", "inf", "9007199254740993", "9007199254740993.0"],
}
ANY_FIELD = st.sampled_from(["", "laptop", "ios", "0", "1e400", "-3", "nan"]) | st.text(max_size=6)


@st.composite
def session_csv_text(draw):
    """Session CSV text: the header's columns reordered, repeated, extra or
    missing; rows short, full or long, with empty and bad fields; blank and
    raw lines; LF or CRLF."""
    header = draw(st.permutations(SESSION_CSV_HEADER))
    for name in draw(st.lists(st.sampled_from([*SESSION_CSV_HEADER, "extra", ""]), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), name)
    if draw(st.integers(0, 9)) == 0:
        header = [c for c in header if c != draw(st.sampled_from(SESSION_CSV_HEADER))]
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(None)  # blank line
        elif kind == 1:
            lines.append(draw(st.text(alphabet=',"\r\n ab01', max_size=12)))
        else:
            row = [draw(st.sampled_from(COLUMN_VALUES[name]) if name in COLUMN_VALUES
                        and draw(st.integers(0, 4)) else ANY_FIELD) for name in header]
            width = len(row) + draw(st.sampled_from([0, 0, 0, -1, -3, 1, 2]))
            lines.append((row + [draw(ANY_FIELD), draw(ANY_FIELD)])[:max(width, 0)])
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    for line in lines:
        if line is None:
            out.write(terminator)
        elif isinstance(line, str):
            out.write(line + terminator)
        else:
            writer.writerow(line)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(text=session_csv_text())
def test_reader_matches_dictreader_reference(text):
    # newline=None is how the CLI opens its input: "\r\n" and "\r" read as "\n".
    for newline in ("", None):
        assert (read_outcome(read_sessions_csv, text, newline)
                == read_outcome(reference_read_sessions_csv, text, newline))


def reference_validate_event(row, where, diagnostics):
    """``_validate_event`` before its rewrite, kept as its reference."""
    missing = [k for k in EVENT_FIELDS if k not in row or row[k] in (None, "")]
    if missing:
        diagnostics.report(where=where, error="missing fields", fields=missing)
        return None
    user_id, device_id, app_id, app_category = (
        row["user_id"], row["device_id"], row["app_id"], row["app_category"])
    if not (type(user_id) is str and type(device_id) is str and type(app_id) is str
            and type(app_category) is str):
        diagnostics.report(where=where, error="non-string id", fields=[
            k for k in ("user_id", "device_id", "app_id", "app_category") if type(row[k]) is not str])
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
    ts = row["ts"]
    try:
        if ts is True or ts is False:
            raise TypeError(ts)
        ts = int(float(ts))
    except (TypeError, ValueError, OverflowError):
        diagnostics.report(where=where, error="bad timestamp", value=str(row["ts"]))
        return None
    if ts < 0:
        diagnostics.report(where=where, error="negative timestamp", value=ts)
        return None
    ev = AppEvent(user_id, device_id, row["device_type"], row["platform"], app_id,
                  app_category, ts, row["kind"])
    try:
        (user_id + device_id + app_id + app_category).encode("utf-8")
    except UnicodeEncodeError:
        diagnostics.report(where=where, error="text not encodable as UTF-8")
        return None
    return ev


def reference_parse_events(stream, fmt, diagnostics):
    """The per-line parse that ``parse_events`` replaced (``json.loads`` on
    every line, ``csv.DictReader``), kept as its reference. Besides a
    ``JSONDecodeError`` it takes the decoder's other two errors, too deep a
    nesting and an integer over the digit limit, as invalid JSON, as the
    parser now does; they used to end in a traceback."""
    events = []
    if fmt == "jsonl":
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:
                diagnostics.report(where=f"line {lineno}", error="invalid json", detail=str(exc))
                continue
            if not isinstance(row, dict):
                diagnostics.report(where=f"line {lineno}", error="not an object")
                continue
            ev = reference_validate_event(row, f"line {lineno}", diagnostics)
            if ev is not None:
                events.append(ev)
    else:
        reader = csv.DictReader(stream)
        try:
            for lineno, row in enumerate(reader, start=2):
                ev = reference_validate_event(row, f"row {lineno}", diagnostics)
                if ev is not None:
                    events.append(ev)
        except csv.Error as exc:
            raise DataError(f"CSV parse failure at line {reader.reader.line_num}: {exc}") from exc
    return events


EVENT_FIELDS = ("user_id", "device_id", "device_type", "platform", "app_id", "app_category", "ts",
                "kind")
# Per field: values an event is likely to hold, then bad ones. Timestamps
# around 2**53 tell exact integers from ones that round as floats do.
FIELD_VALUES = {
    "user_id": (["u1", "u2"], ["", None, 1, True, ["u1"], "ü", "u\ud800", "\u2028", " u1"]),
    "device_id": (["d1", "d2"], ["", None, 2.5, {"a": 1}, "d\udfff", "ｄ"]),
    "device_type": (list(DEVICE_TYPES), ["", None, "laptop", 0, "Tablet"]),
    "platform": (list(PLATFORMS), ["", "win", False]),
    "app_id": (["a1", "a2"], ["", 3, "é", "a\ud800"]),
    "app_category": (["social", "games"], ["", None, [], "日本"]),
    "ts": ([0, 60, 1456841273, 2**53 - 1, 2**53, 2**53 + 1, 2**60 + 1, 99.9], [
        "", None, -3, -0.0, 1.5, "100", "1e3", " 7", "x", True, False, float("nan"),
        float("inf"), float("-inf"), 2**60, 1e300, 10**400, [], "9007199254740993"]),
    "kind": (list(EVENT_KINDS), ["", None, "click", 1]),
}
EXTRA_KEYS = st.sampled_from([("extra", 1), ("", None), ("ts2", "x"), ("user_id ", "u")])


@st.composite
def event_values(draw):
    """An event's fields in any order, up to three of them missing or bad,
    plus extra keys."""
    row = {name: draw(st.sampled_from(FIELD_VALUES[name][0]))
           for name in draw(st.permutations(EVENT_FIELDS))}
    for name in draw(st.lists(st.sampled_from(EVENT_FIELDS), max_size=3)):
        if draw(st.sampled_from([True, False, False, False])):
            row.pop(name, None)
        else:
            row[name] = draw(st.sampled_from(FIELD_VALUES[name][1]))
    row.update(draw(st.lists(EXTRA_KEYS, max_size=2)))
    return row


def json_text(draw, row):
    return json.dumps(row, ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([None, (",", ":")])))


# Lines the scanner must hand on to json.loads, or that are not one object.
ODD_LINES = ["", " ", "\t", "\xa0", "\r", "\ufeff", "[1, 2]", "1", "null", '"s"', "true", "NaN",
             "-Infinity", '{"a": 1', "{oops", "}", '{"ts": 1, "ts": 2}', "[" * 5000 + "]" * 5000,
             '{"ts": ' + "9" * 4301 + "}"]
PREFIXES = [""] * 15 + [" ", "\t", "\r", "\xa0", "\ufeff"]
SUFFIXES = [""] * 15 + [" ", "\t", "\r", "\xa0", "\u2028", "x", " {}", ', {"a": 1}']


@st.composite
def jsonl_text(draw):
    """JSONL text: event objects with whitespace, a BOM or extra data around
    them; two objects on a line, objects split across lines, blank and odd
    lines; LF or CRLF, with or without a final newline."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["object"] * 7 + ["odd", "two", "split"]))
        if kind == "odd":
            lines.append(draw(st.sampled_from(ODD_LINES)))
        elif kind == "two":
            first, second = json_text(draw, draw(event_values())), json_text(draw, draw(event_values()))
            lines.append(first + draw(st.sampled_from(["", " ", ", "])) + second)
        elif kind == "split":
            text = json_text(draw, draw(event_values()))
            cut = draw(st.integers(0, len(text)))
            lines += [text[:cut], text[cut:]]
        else:
            text = json_text(draw, draw(event_values()))
            lines.append(draw(st.sampled_from(PREFIXES)) + text + draw(st.sampled_from(SUFFIXES)))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    return terminator.join(lines) + draw(st.sampled_from([terminator, ""]))


@st.composite
def event_csv_text(draw):
    """Event CSV text: the header's columns reordered, extra or missing;
    rows short, full or long, with the string form of good and bad values."""
    header = draw(st.permutations(EVENT_FIELDS))
    if draw(st.integers(0, 4)) == 0:
        header.insert(draw(st.integers(0, len(header))), "extra")
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(EVENT_FIELDS)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        row = draw(event_values())
        fields = ["" if row.get(name) is None else str(row[name]) for name in header]
        width = len(fields) + draw(st.sampled_from([0, 0, 0, -1, -4, 1]))
        writer.writerow((fields + ["x"])[:max(width, 0)])
    return out.getvalue()


def parse_outcome(parse, text, fmt, newline):
    """The repr of (events, diagnostics records) of a parse, or the
    DataError's text; the repr tells 1 from 1.0 and True."""
    diagnostics = Diagnostics()
    try:
        events = parse(io.StringIO(text, newline=newline), fmt, diagnostics)
    except DataError as exc:
        return str(exc)
    return repr((events, diagnostics.records))


@settings(max_examples=200, deadline=None)
@given(text=jsonl_text(), newline=st.sampled_from([None, "", "\n"]))
# A line for each diagnostics row; an exact integer past 2**53, which
# int(float(ts)) rounds; a non-JSON space after an object.
@example(text="\n".join([
    "", jsonl_line(ts="x"), jsonl_line(ts=-3), jsonl_line(user_id=1), '{"user_id": "u1"}',
    jsonl_line(device_type="laptop"), jsonl_line(platform="win"), jsonl_line(kind="click"),
    jsonl_line(app_id="a\ud800"), "[1]", "{oops", jsonl_line(ts=2**53 + 1),
    jsonl_line() + "\xa0"]), newline=None)
def test_jsonl_parse_matches_json_loads_reference(text, newline):
    assert (parse_outcome(parse_events, text, "jsonl", newline)
            == parse_outcome(reference_parse_events, text, "jsonl", newline))


@settings(max_examples=100, deadline=None)
@given(text=event_csv_text(), newline=st.sampled_from([None, ""]))
@example(text="\n".join([
    ",".join(EVENT_FIELDS), "u1,d1,tablet,ios,a,c,x,foreground", "u1,d1,tablet,ios,a,c,-3,foreground",
    "u1,d1,tablet,ios", "u1,d1,laptop,ios,a,c,5,foreground", "u1,d1,tablet,win,a,c,5,foreground",
    "u1,d1,tablet,ios,a,c,5,click", "u1,d1,tablet,ios,a,c,9007199254740993,foreground"]),
    newline=None)
def test_csv_parse_matches_dictreader_reference(text, newline):
    assert (parse_outcome(parse_events, text, "csv", newline)
            == parse_outcome(reference_parse_events, text, "csv", newline))
