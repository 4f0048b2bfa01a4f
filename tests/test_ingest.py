"""Parsing, event pairing, normalization, and the panel activity filter."""

import io

import pytest

from mdsessions.ingest import (
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
)
from mdsessions.intervals import Interval

DAY = 86400


def event(ts, kind, app="app1", user="u1", device="d1", device_type="smartphone"):
    return AppEvent(user, device, device_type, "android", app, "social", ts, kind)


def session(start, end, user="u1", device="d1", device_type="smartphone", app="app1", cat="social"):
    return AppSession(user, device, device_type, "android", app, cat, Interval(start, end))


def jsonl_line(**overrides):
    base = {
        "user_id": "u1", "device_id": "d1", "device_type": "smartphone",
        "platform": "android", "app_id": "app1", "app_category": "social",
        "ts": 100, "kind": "foreground",
    }
    base.update(overrides)
    import json
    return json.dumps(base)


class TestParseEvents:
    def test_valid_jsonl(self):
        text = "\n".join([jsonl_line(ts=1), jsonl_line(ts=2, kind="background"), jsonl_line(ts=3)])
        diag = Diagnostics()
        events = parse_events(io.StringIO(text), "jsonl", diag)
        assert len(events) == 3
        assert len(diag) == 0

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


class TestPairSessions:
    def test_foreground_background(self):
        diag = Diagnostics()
        out = pair_sessions([event(0, "foreground"), event(30, "background")], diag)
        assert [(s.interval.start, s.interval.end) for s in out] == [(0, 30)]
        assert len(diag) == 0

    def test_replacement_closes_prior(self):
        out = pair_sessions(
            [event(0, "foreground", app="A"), event(20, "foreground", app="B"),
             event(50, "background", app="B")],
            Diagnostics(),
        )
        assert [(s.app_id, s.interval.start, s.interval.end) for s in out] == [
            ("A", 0, 20), ("B", 20, 50)
        ]

    def test_screen_off_closes(self):
        out = pair_sessions([event(0, "foreground"), event(40, "screen_off")], Diagnostics())
        assert out[0].interval == Interval(0, 40)

    def test_unclosed_dropped_and_reported(self):
        diag = Diagnostics()
        out = pair_sessions([event(0, "foreground")], diag)
        assert out == []
        assert "unclosed" in diag.records[0]["error"]

    def test_background_with_no_open_session_reported(self):
        diag = Diagnostics()
        assert pair_sessions([event(5, "background")], diag) == []
        assert "no open session" in diag.records[0]["error"]

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
        assert [(s.interval.start, s.interval.end) for s in out] == [(0, 20), (20, 50)]

    def test_degenerate_truncation_drops(self):
        diag = Diagnostics()
        out = normalize([session(0, 30), session(0, 10, app="b")], diag)
        assert [(s.app_id, s.interval.start, s.interval.end) for s in out] == [("b", 0, 10)]
        assert any("dropped" in r["error"] for r in diag.records)

    def test_disjoint_unchanged(self):
        sessions = [session(0, 10), session(20, 30, app="b")]
        assert normalize(sessions, Diagnostics()) == sessions

    def test_result_sorted_non_overlapping(self):
        sessions = [session(50, 80), session(0, 60, app="b"), session(55, 70, app="c")]
        out = normalize(sessions, Diagnostics())
        for a, b in zip(out, out[1:]):
            assert a.interval.end <= b.interval.start


class TestFilterActive:
    def test_both_devices_above_threshold_retained(self):
        sessions = [
            session(0, 100, device="phone"),
            session(25 * DAY, 25 * DAY + 100, device="phone"),
            session(0, 100, device="tab", device_type="tablet"),
            session(24 * DAY, 24 * DAY + 100, device="tab", device_type="tablet"),
        ]
        retained, dropped = filter_active(sessions, 23)
        assert retained == {"u1"} and dropped == set()

    def test_one_short_device_drops_user(self):
        sessions = [
            session(0, 100, device="phone"),
            session(25 * DAY, 25 * DAY + 100, device="phone"),
            session(0, 100, device="tab", device_type="tablet"),
            session(10 * DAY, 10 * DAY + 100, device="tab", device_type="tablet"),
        ]
        retained, dropped = filter_active(sessions, 23)
        assert retained == set() and dropped == {"u1"}

    def test_zero_threshold_retains_all(self):
        sessions = [session(0, 100)]
        retained, dropped = filter_active(sessions, 0)
        assert retained == {"u1"} and dropped == set()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_active([session(0, 100)], -1)

    def test_idempotent(self):
        sessions = [
            session(0, 100, device="phone"),
            session(25 * DAY, 25 * DAY + 100, device="phone"),
        ]
        retained, _ = filter_active(sessions, 23)
        again, _ = filter_active([s for s in sessions if s.user_id in retained], 23)
        assert again == retained


class TestSessionCsv:
    def test_roundtrip_identity(self):
        sessions = [session(0, 30), session(40, 90, device="tab", device_type="tablet", app="b")]
        buf = io.StringIO()
        write_sessions_csv(sessions, buf)
        buf.seek(0)
        assert read_sessions_csv(buf, Diagnostics()) == sessions

    def test_missing_column_raises(self):
        with pytest.raises(DataError):
            read_sessions_csv(io.StringIO("user_id,start,end\nu1,0,10\n"), Diagnostics())

    def test_bad_interval_reported(self):
        buf = io.StringIO()
        write_sessions_csv([session(0, 30)], buf)
        text = buf.getvalue().replace("0,30", "30,30")
        diag = Diagnostics()
        out = read_sessions_csv(io.StringIO(text), diag)
        assert out == [] and len(diag) == 1

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
