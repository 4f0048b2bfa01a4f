"""Per-user usage sums: the evening-window clip against a per-second oracle,
daily minutes over the user's whole active span, and the panel readers
against their flat-list references."""

import functools
import random
from collections import Counter

import pytest
from conftest import normalized
from hypothesis import example, given, settings, strategies as st
from test_ingest import jsonl_line
from test_metamorphic import read_panel, small_panels

from mdsessions.construction import build_multidevice_sessions
from mdsessions.descriptive import active_span_days
from mdsessions.ingest import DEVICE_TYPES, AppSession, Diagnostics, filter_active
from mdsessions.pipeline import (daily_minutes_by_user, load_app_sessions, load_utc_offsets,
                                 sessions_by_user, smartphone_pure_vs_mixed_usage, usage_by_user)

HOUR = 3600
DAY = 24 * HOUR

# Offsets span the full -14 h .. +14 h range, a half-hour zone and a user
# with no offset (UTC).
OFFSETS = {"west": -14 * HOUR, "neg": -5 * HOUR, "half": 5 * HOUR + 1800, "east": 14 * HOUR}
USERS = (*OFFSETS, "utc")


def session(user, start, end, device="phone", device_type="smartphone", app="a", cat="social"):
    return AppSession(user, device, device_type, "android", app, cat, start, end)


def evening_panel():
    """Random phone and tablet sessions over three days per user, plus
    sessions that cross local midnight and the 17:00 and 23:00 edges, one
    whose local time is before the epoch, and for each user with an offset
    two sessions of 2-5 days on a second phone, one of them mixed."""
    rng = random.Random(20)
    sessions = []
    for user in USERS:
        offset = OFFSETS.get(user, 0)
        for device, device_type, count in (("phone", "smartphone", 18), ("tab", "tablet", 8)):
            starts = sorted(rng.sample(range(DAY, 4 * DAY, 60), count))
            for i, start in enumerate(starts):
                end = start + rng.choice([1, 59, 600, 3599, 3600, 3601, 2 * HOUR + 7])
                if i + 1 < count:
                    end = min(end, starts[i + 1])
                sessions.append(session(user, start, end, device, device_type,
                                        app=f"{device}{i % 4}", cat=rng.choice("xyz")))
        # Local 16:59:50-17:00:10, 22:59:59-23:00:01 and 23:59:50-00:00:10,
        # on day 5 local; the last one once on the phone alone and once
        # overlapping a tablet session, so both purities cross midnight.
        for day, (h, m, s), length, app in (
            (5, (16, 59, 50), 20, "edge17"),
            (5, (22, 59, 59), 2, "edge23"),
            (5, (23, 59, 50), 20, "midnight"),
            (7, (23, 59, 50), 20, "midnight"),
        ):
            start = day * DAY + h * HOUR + m * 60 + s - offset
            sessions.append(session(user, start, start + length, app=app, cat=app))
        start = 7 * DAY + 23 * HOUR + 59 * 60 + 40 - offset
        sessions.append(session(user, start, start + 40, "tab", "tablet", app="tab-midnight"))
        if offset:
            for day, app in ((10, "long-mixed"), (20, "long")):
                start = day * DAY + rng.randrange(DAY)
                end = start + rng.randrange(2 * DAY, 5 * DAY)
                sessions.append(session(user, start, end, "phone2", app=app, cat=app))
            start = 11 * DAY + rng.randrange(DAY)
            sessions.append(session(user, start, start + 60, "tab", "tablet", app="tab-long"))
    # Local time before the epoch: [0, 2 h) UTC is 10:00-12:00 on day -1.
    sessions.append(session("west", 0, 2 * HOUR, app="early", cat="early"))
    sessions.append(session("west", 100, 200, "tab", "tablet", app="early-tab"))
    return sessions


@functools.cache
def seconds_per_local_hour(start, end, offset):
    return Counter((t + offset) // HOUR % 24 for t in range(start, end))


def brute_force_seconds(usage, dimension, window):
    """Per purity, per user, per item: smartphone seconds whose local hour
    lies in ``window``, counted one second at a time."""
    lo, hi = window
    raw = {"pure": {}, "mixed": {}}
    for us in usage:
        if us.device_type != "smartphone":
            continue
        offset = OFFSETS.get(us.user_id, 0)
        for app in us.app_sessions:
            key = app.app_category if dimension == "category" else app.app_id
            hours = seconds_per_local_hour(app.start, app.end, offset)
            seconds = sum(n for hour, n in hours.items() if lo <= hour < hi)
            if seconds:
                bucket = raw[us.purity].setdefault(us.user_id, {})
                bucket[key] = bucket.get(key, 0) + seconds
    return raw


@pytest.fixture(scope="module")
def usage():
    _, usage = build_multidevice_sessions(normalized(evening_panel()), 60)
    return usage


@pytest.mark.parametrize("dimension", ["category", "app"])
@pytest.mark.parametrize("window", [(17, 24), (0, 24), (23, 24), (0, 1)])
def test_evening_clip_equals_per_second_count(usage, dimension, window):
    pure, mixed, excluded = smartphone_pure_vs_mixed_usage(usage, dimension, window, OFFSETS)

    raw = brute_force_seconds(usage, dimension, window)
    users = sorted(set(raw["pure"]) | set(raw["mixed"]))
    want_excluded = [u for u in users if u not in raw["pure"] or u not in raw["mixed"]]
    assert excluded == want_excluded
    for got, seconds in ((pure, raw["pure"]), (mixed, raw["mixed"])):
        want = {}
        for user in users:
            if user not in want_excluded:
                total = sum(seconds[user].values())
                want[user] = {k: v / total for k, v in seconds[user].items()}
        assert got == want


def test_panel_reaches_both_purities_and_every_edge(usage):
    raw = brute_force_seconds(usage, "app", (0, 24))
    assert set(raw["pure"]) == set(raw["mixed"]) == set(USERS)
    for user in USERS:
        assert {"edge17", "edge23", "midnight"} <= set(raw["pure"][user])
        assert "midnight" in raw["mixed"][user]
    for user in OFFSETS:
        assert "long" in raw["pure"][user] and "long-mixed" in raw["mixed"][user]
    assert "early" in raw["mixed"]["west"]


def test_daily_minutes_divide_by_the_span_of_all_devices():
    # The tablet is used on day 0 only, but the user's span is 9 days.
    sessions = [session("u", 60, 120), session("u", 9 * DAY, 9 * DAY + 60),
                session("u", 100, 700, "tab", "tablet")]
    assert daily_minutes_by_user(normalized(sessions), None, "tablet") == {"u": {"total": 10.0 / 9}}


def flat_active_span_days(app_sessions):
    """``active_span_days`` over a flat list of app sessions, as it was
    written before it took a ``Panel``."""
    span = {}
    for s in app_sessions:
        lo, hi = span.get(s.user_id, (s.start, s.end))
        span[s.user_id] = (min(lo, s.start), max(hi, s.end))
    return {u: max((hi - lo) / 86400.0, 1.0) for u, (lo, hi) in span.items()}


def flat_daily_minutes_by_user(app_sessions, dimension=None, device_type=None):
    """``daily_minutes_by_user`` over a flat list, filtering each session."""
    days = flat_active_span_days(app_sessions)
    if device_type is not None:
        app_sessions = (s for s in app_sessions if s.device_type == device_type)
    return usage_by_user(
        app_sessions, dimension, lambda s: s.duration / 60.0 / days[s.user_id]
    )


def flat_filter_active(app_sessions, min_span_days):
    """``filter_active`` by the per-session rule: each device's span runs from
    its earliest start to its latest end."""
    span = {}
    for s in app_sessions:
        lo, hi = span.get((s.user_id, s.device_id), (s.start, s.end))
        span[s.user_id, s.device_id] = (min(lo, s.start), max(hi, s.end))
    users = {user for user, _ in span}
    dropped = {user for (user, _), (lo, hi) in span.items()
               if hi // DAY - lo // DAY < min_span_days}
    return users - dropped, dropped


def ordered(value):
    """A dict as its items in order, nested dicts too, so that comparing two
    of them compares their key order."""
    if isinstance(value, dict):
        return [(k, ordered(v)) for k, v in value.items()]
    return value


@settings(max_examples=60, deadline=None)
@given(rows=small_panels(), min_span_days=st.integers(0, 3) | st.integers(0, 10**7))
def test_panel_readers_equal_their_flat_references_on_small_panels(rows, min_span_days):
    panel = read_panel(rows)
    flat = list(panel)
    assert ordered(active_span_days(panel)) == ordered(flat_active_span_days(flat))
    for dimension in (None, "category", "app"):
        for device_type in (None, *DEVICE_TYPES):
            assert (ordered(daily_minutes_by_user(panel, dimension, device_type))
                    == ordered(flat_daily_minutes_by_user(flat, dimension, device_type)))
    assert filter_active(panel, min_span_days) == flat_filter_active(flat, min_span_days)


# Evening windows [lo, hi) with 0 <= lo < hi <= 24, the whole day among them.
WINDOWS = st.integers(0, 23).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 24)))


@settings(max_examples=100, deadline=None)
@given(rows=small_panels(), tw=st.sampled_from((0, 1, 60, 600, 3600)) | st.integers(0, 10**12),
       dimension=st.sampled_from(("category", "app")), evening=WINDOWS,
       offsets=st.lists(st.integers(-2 * DAY, 2 * DAY), min_size=3, max_size=3))
@example(rows=[], tw=60, dimension="category", evening=(0, 24), offsets=[0, 0, 0])
def test_per_user_build_is_the_whole_build_on_small_panels(rows, tw, dimension, evening, offsets):
    """The per-user builds, concatenated, are the whole panel's build: the
    same ids, members, purity and interaction seconds. The pure-vs-mixed
    usage reads its sessions once, so a one-shot generator of them gives what
    the list gives."""
    panel = read_panel(rows)
    md, usage = build_multidevice_sessions(panel, tw)
    per_user = list(sessions_by_user(panel, tw))
    assert [m for user_md, _ in per_user for m in user_md] == md
    assert [u for _, user_usage in per_user for u in user_usage] == usage
    utc_offsets = {f"u{i}": offset for i, offset in enumerate(offsets)}
    once = (u for _, user_usage in sessions_by_user(panel, tw) for u in user_usage)
    assert ([ordered(x) for x in smartphone_pure_vs_mixed_usage(
                once, dimension, evening, utc_offsets)]
            == [ordered(x) for x in smartphone_pure_vs_mixed_usage(
                usage, dimension, evening, utc_offsets)])


def test_offsets_keep_a_quoted_line_break(tmp_path):
    path = tmp_path / "offsets.csv"
    path.write_bytes(b'user_id,offset_seconds\r\n"a\r\n",3600\r\n"b\rc",-60\r\nu,0\r\n')
    assert load_utc_offsets(path) == {"a\r\n": 3600, "b\rc": -60, "u": 0}


def test_jsonl_lines_end_at_line_feeds_only(tmp_path):
    """A bare carriage return inside a JSONL line is JSON whitespace, not a
    line end, so the lines after it keep their numbers; CRLF ends a line."""
    path = tmp_path / "events.jsonl"
    path.write_bytes((jsonl_line(ts=10).replace(", ", ",\r", 1) + "\r\n"
                      + jsonl_line(ts=70, kind="background") + "\n{oops\n").encode())
    diagnostics = Diagnostics()
    sessions = load_app_sessions(path, "events", diagnostics)
    assert [(s.start, s.end) for s in sessions] == [(10, 70)]
    assert [(r["where"], r["error"]) for r in diagnostics.records] == [("line 3", "invalid json")]
