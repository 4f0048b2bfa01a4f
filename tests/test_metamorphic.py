"""Metamorphic relations of the panel commands: a change to the input that
must not change the outputs."""

import csv
import dataclasses
import io
import json
import random
import statistics

import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from mdsessions import cli
from mdsessions.descriptive import DEFAULT_TW_GRID, SESSION_CLASSES, session_classes, timeout_sweep
from mdsessions.generator import PanelSpec, generate_sessions
from mdsessions.ingest import (DEVICE_TYPES, PLATFORMS, SESSION_CSV_HEADER, Diagnostics,
                               normalize, read_sessions_csv, write_sessions_csv)
from mdsessions.pipeline import reconstruct

HOUR = 3600
DAY = 24 * HOUR

COMMANDS = (
    ("sessions",),
    ("patterns", "--contrast-group", "15", "--contrast-group", "135"),
    ("stats", "--offsets", "offsets.csv"),
    ("sweep",),
)


def _main(*args):
    cli.cli.main([str(a) for a in args], standalone_mode=False)


def _outputs(work, csv_name, commands=COMMANDS):
    """{command/file: bytes} of every command on ``csv_name``, manifests aside."""
    out = {}
    for command, *options in commands:
        out_dir = work / f"{csv_name}-{command}"
        _main(command, "--input", work / csv_name, "--mode", "sessions",
              *[work / o if o.endswith(".csv") else o for o in options], "--out", out_dir)
        for path in sorted(out_dir.iterdir()):
            if path.name != "manifest.json":
                out[f"{command}/{path.name}"] = path.read_bytes()
    return out


SPEC = PanelSpec(md_users=3, nmd_users=1, days=4, seed=11, prototype_quota={15: 0.4})


def test_row_order_does_not_matter(tmp_path):
    _write_panel(tmp_path, "sorted.csv", generate_sessions(SPEC))
    header, *rows = (tmp_path / "sorted.csv").read_text(encoding="utf-8").splitlines(True)
    shuffled = rows[:]
    random.Random(0).shuffle(shuffled)
    assert shuffled != rows
    (tmp_path / "shuffled.csv").write_text(header + "".join(shuffled), encoding="utf-8")
    (tmp_path / "offsets.csv").write_text(
        "user_id,offset_seconds\nmd0000,64800\nmd0001,-3600\nnmd0000,19800\n", encoding="utf-8")

    expected = _outputs(tmp_path, "sorted.csv")
    assert "patterns/category_contrasts.json" in expected and "stats/hourly.csv" in expected
    assert _outputs(tmp_path, "shuffled.csv") == expected


# A device's rows: start minute, duration, and one draw of the device type
# (None, twice, for the device's own), platform, app and category.
DEVICE_ROWS = st.lists(st.tuples(
    st.integers(0, 240), st.sampled_from((60, 600)) | st.integers(1, 10**12),
    st.sampled_from([(t, p, a, c) for t in (None, None, *DEVICE_TYPES) for p in PLATFORMS
                     for a in "ab" for c in ("social", "games")]),
), min_size=1, max_size=6)


@st.composite
def small_panels(draw):
    """Session-CSV lines of up to 3 users x 3 devices x 6 sessions, no
    header. Each user's sessions start on the minutes of four hours from a
    drawn time between 0 and 1e14, so devices link; rows of one device may
    overlap or tie, and a row may name the other device type."""
    lines = []
    for user in range(draw(st.integers(1, 3))):
        base = draw(st.integers(0, 10**14))
        for device in range(draw(st.integers(1, 3))):
            device_type = draw(st.sampled_from(DEVICE_TYPES))
            for minute, duration, (row_type, platform, app, category) in draw(DEVICE_ROWS):
                start = base + 60 * minute
                lines.append(f"u{user},d{device},{row_type or device_type},{platform},{app},"
                             f"{category},{start},{start + duration}\n")
    return lines


def read_panel(rows):
    """The ``Panel`` of session-CSV lines, read and normalized as the CLI
    reads a session CSV, in-process."""
    diagnostics = Diagnostics()
    text = ",".join(SESSION_CSV_HEADER) + "\n" + "".join(rows)
    return normalize(read_sessions_csv(io.StringIO(text), diagnostics), diagnostics)


TIED_ROWS = ["u0,d0,smartphone,android,a,social,0,60\n",
             "u0,d0,smartphone,android,b,games,0,60\n",
             "u0,d0,tablet,android,a,social,0,60\n"]


@settings(max_examples=40, deadline=None)
@given(rows=small_panels(), order=st.randoms(use_true_random=False))
@example(rows=TIED_ROWS, order=random.Random(1))
def test_row_order_does_not_matter_on_small_panels(tmp_path_factory, rows, order):
    work = tmp_path_factory.mktemp("small")
    shuffled = rows[:]
    order.shuffle(shuffled)
    header = ",".join(SESSION_CSV_HEADER) + "\n"
    (work / "sorted.csv").write_text(header + "".join(rows), encoding="utf-8")
    (work / "shuffled.csv").write_text(header + "".join(shuffled), encoding="utf-8")
    (work / "offsets.csv").write_text("user_id,offset_seconds\nu0,64800\nu1,-3600\n",
                                      encoding="utf-8")
    assert _outputs(work, "shuffled.csv") == _outputs(work, "sorted.csv")


# Timeout grids in any order, each with 0 and a repeated point.
TW_GRIDS = st.lists(st.sampled_from((1, 60, 600, 3600)) | st.integers(0, 10**12),
                    min_size=1, max_size=5).map(lambda grid: [*grid, 0, grid[0]])


@settings(max_examples=40, deadline=None)
@given(rows=small_panels(), grid=TW_GRIDS)
def test_sweep_agrees_with_reconstruct_on_small_panels(rows, grid):
    """At each tw of the grid, the sweep's per-user means are the counts of
    ``reconstruct`` at that tw over the number of users, and its app sessions
    per usage session are the per-user ratios of those usage sessions,
    averaged."""
    panel = read_panel(rows)
    users = sorted(panel.users)
    points = timeout_sweep(panel, grid)
    assert [p.tw for p in points] == grid
    for point in points:
        usage, md = reconstruct(panel, point.tw)
        classes = session_classes(usage, md)
        assert point.mean_sessions_per_user == {
            cls: len(sessions) / len(users) for cls, sessions in classes.items()}
        ratios = []
        for user in users:
            mine = [s for s in usage if s.user_id == user]
            ratios.append(sum(len(s.app_sessions) for s in mine) / len(mine))
        assert point.mean_app_sessions_per_usage_session == statistics.fmean(ratios)


@settings(max_examples=200, deadline=None)
@given(rows=small_panels(), grid=TW_GRIDS.map(lambda grid: [*grid, 4 * HOUR]))
@example(rows=[], grid=[60, 0, 60])
def test_sweep_equals_its_grid_by_grid_oracle_on_small_panels(rows, grid):
    """The threshold sweep equals its definition: at each tw of the grid, the
    per-class counts of ``build_multidevice_sessions`` over the number of
    users, and the per-user ratios of app to usage sessions, averaged. The
    grids also hold a tw above every gap of a small panel (its starts lie
    within four hours)."""
    panel = read_panel(rows)
    assert timeout_sweep(panel, grid) == oracles.timeout_sweep(panel, grid)


# Three names in sort order for the up to three user ids, or device ids, of
# a small panel; some end in a character that sorts before "/", the
# separator in session ids.
NAMES = st.lists(st.text(st.sampled_from("ab!-.0é"), min_size=1, max_size=4),
                 min_size=3, max_size=3, unique=True).map(sorted)
# Equal starts on two devices, whose new names sort as the old ones do but
# whose session ids do not.
TIED_DEVICES = ["u0,d0,smartphone,android,a,social,0,60\n",
                "u0,d1,tablet,android,b,games,0,60\n"]


@settings(max_examples=20, deadline=None)
@given(rows=small_panels(), user_names=NAMES, device_names=NAMES)
@example(rows=TIED_DEVICES, user_names=["u", "v", "w"], device_names=["a", "a!", "b"])
def test_order_keeping_rename_does_not_matter_on_small_panels(
        tmp_path_factory, rows, user_names, device_names):
    """Renaming users and devices in a way that keeps their sort order
    changes no report, and the session JSONL only by the names."""
    users, devices = (
        dict(zip(sorted({row.split(",")[column] for row in rows}), names))
        for column, names in ((0, user_names), (1, device_names)))
    work = tmp_path_factory.mktemp("rename")
    renamed = []
    for row in rows:
        user, device, rest = row.split(",", 2)
        renamed.append(f"{users[user]},{devices[device]},{rest}")
    header = ",".join(SESSION_CSV_HEADER) + "\n"
    (work / "old.csv").write_text(header + "".join(rows), encoding="utf-8")
    (work / "new.csv").write_text(header + "".join(renamed), encoding="utf-8")
    offsets = {"u0": 64800, "u1": -3600}
    _write_offsets(work / "offsets.csv", offsets)
    expected = _outputs(work, "old.csv")
    # The same offsets under the new user ids.
    _write_offsets(work / "offsets.csv", {users[u]: o for u, o in offsets.items() if u in users})
    actual = _outputs(work, "new.csv")
    assert sorted(actual) == sorted(expected)
    back = ({new: old for old, new in users.items()}, {new: old for old, new in devices.items()})
    for name, data in actual.items():
        if name.endswith(".jsonl"):
            data = _rename_back(data, *back)
        assert data == expected[name], name


def _rename_back(jsonl, users, devices):
    """Session JSONL with the user and device ids, and the session ids made
    of them, mapped through ``users`` and ``devices``, written as the
    session writers write it. The names hold no "/"."""
    def usage_id(old):
        user, device, index = old.split("/")
        return f"{users[user]}/{devices[device]}/{index}"

    lines = []
    for line in jsonl.decode().splitlines():
        record = json.loads(line)
        if "device_id" in record:  # a usage session
            record["id"] = usage_id(record["id"])
            record["device_id"] = devices[record["device_id"]]
        else:
            user, index = record["id"].split("/")
            record["id"] = f"{users[user]}/{index}"
            record["members"] = [usage_id(m) for m in record["members"]]
        record["user_id"] = users[record["user_id"]]
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode()


def test_ingest_round_trip(tmp_path):
    """Reports on the session CSV that ``ingest`` writes equal the reports on
    the raw CSV it read, since both go through ``normalize``."""
    sessions = generate_sessions(SPEC)
    # A later row that overlaps every fifth session on its device, and a
    # tablet row on a smartphone.
    extra = [dataclasses.replace(s, app_id="late", start=(s.start + s.end) // 2,
                                 end=s.end + 30) for s in sessions[::5]]
    phone = next(s for s in sessions if s.device_type == "smartphone")
    extra.append(dataclasses.replace(phone, device_type="tablet", start=phone.start + DAY,
                                     end=phone.start + DAY + 60))
    _write_panel(tmp_path, "raw.csv", sessions + extra)
    _main("ingest", "--input", tmp_path / "raw.csv", "--mode", "sessions",
          "--min-span-days", "0", "--out", tmp_path / "ingest")
    errors = {json.loads(line)["error"]
              for line in (tmp_path / "ingest" / "diagnostics.jsonl").read_text().splitlines()}
    assert {"overlap truncated", "device_type differs from the device's first session"} <= errors
    (tmp_path / "ingested.csv").write_bytes((tmp_path / "ingest" / "sessions.csv").read_bytes())
    (tmp_path / "offsets.csv").write_text(
        "user_id,offset_seconds\nmd0000,64800\nnmd0000,-19800\n", encoding="utf-8")

    expected = _outputs(tmp_path, "raw.csv")
    assert "patterns/category_contrasts.json" in expected
    assert _outputs(tmp_path, "ingested.csv") == expected


@settings(max_examples=30, deadline=None)
@given(rows=small_panels(), offsets=st.lists(st.integers(-2 * DAY, 2 * DAY), min_size=3,
                                             max_size=3))
def test_ingest_round_trip_on_small_panels(tmp_path_factory, rows, offsets):
    """The round trip on panels with ties, overlaps and rows that name the
    other device type, under drawn per-user offsets."""
    work = tmp_path_factory.mktemp("round_trip")
    (work / "raw.csv").write_text(",".join(SESSION_CSV_HEADER) + "\n" + "".join(rows),
                                  encoding="utf-8")
    _write_offsets(work / "offsets.csv", {f"u{i}": o for i, o in enumerate(offsets)})
    _main("ingest", "--input", work / "raw.csv", "--mode", "sessions",
          "--min-span-days", "0", "--out", work / "ingest")
    (work / "ingested.csv").write_bytes((work / "ingest" / "sessions.csv").read_bytes())
    assert _outputs(work, "ingested.csv") == _outputs(work, "raw.csv")


def test_sweep_agrees_with_sessions(tmp_path):
    """At each tw of the default grid, the sweep's per-user means times the
    number of users are the counts of ``sessions --tw``."""
    sessions = generate_sessions(SPEC)
    users = len({s.user_id for s in sessions})
    _write_panel(tmp_path, "panel.csv", sessions)
    _main("sweep", "--input", tmp_path / "panel.csv", "--mode", "sessions",
          "--out", tmp_path / "sweep")
    with open(tmp_path / "sweep" / "sweep.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["tw"]) for row in rows] == list(DEFAULT_TW_GRID)
    for row in rows:
        out = tmp_path / f"sessions-{row['tw']}"
        _main("sessions", "--input", tmp_path / "panel.csv", "--mode", "sessions",
              "--tw", row["tw"], "--out", out)
        counts = json.loads((out / "construction_stats.json").read_text())["counts"]
        # The sweep's means have 4 decimals, so with few users the nearest
        # integer is the count.
        total = {c: round(float(row[f"mean_{c}_per_user"]) * users) for c in SESSION_CLASSES}
        assert total["smartphone_all"] == counts["smartphone"]["usage_sessions"]
        assert total["tablet_all"] == counts["tablet"]["usage_sessions"]
        assert total["multidevice"] == counts["multidevice"]["multidevice_sessions"] > 0
        assert (total["smartphone_all"] - total["smartphone_pure"]
                + total["tablet_all"] - total["tablet_pure"]
                == counts["multidevice"]["usage_sessions"])


# The evening battery at its default window (17-24 local), with few
# replicates; the offsets file's name goes last.
EVENING_BATTERY = ("compare", "--boot", "50", "--offsets")
LOCAL_TIME_COMMANDS = COMMANDS + ((*EVENING_BATTERY, "offsets.csv"),)
# Drawn UTC offsets of the up to three users of a small panel.
OFFSETS = st.lists(st.integers(-2 * DAY, 2 * DAY), min_size=3, max_size=3)
# A small panel has at most 3 users, and the battery tests an item on 5 or
# more, so the relations also run on this panel of 6 users. Each uses a
# smartphone partly with a tablet (mixed) and, two hours later, alone (pure),
# from 00:00 UTC. At +17 h to +21 h both lie in the evening; at +23 h the
# pure use falls past local midnight, out of it.
EVENING_ROWS = [row for i in range(6) for row in (
    f"u{i},d0,smartphone,android,a,social,0,{500 - 40 * i}\n",
    f"u{i},d0,smartphone,android,b,games,{500 - 40 * i},600\n",
    f"u{i},d1,tablet,android,a,social,100,400\n",
    f"u{i},d0,smartphone,android,a,social,7200,{7300 + 90 * i}\n",
    f"u{i},d0,smartphone,android,b,games,{7300 + 90 * i},7800\n",
)]
EVENING_OFFSETS = [17 * HOUR, 18 * HOUR, 19 * HOUR, 20 * HOUR, 21 * HOUR, 23 * HOUR]


def _write_panel(work, csv_name, sessions):
    """Write ``sessions`` as the session CSV ``work / csv_name``."""
    with open(work / csv_name, "w", encoding="utf-8") as fh:
        write_sessions_csv(sessions, fh)


def _write_rows(path, rows):
    path.write_text(",".join(SESSION_CSV_HEADER) + "\n" + "".join(rows), encoding="utf-8")


def _shift_rows(rows, shift):
    """Session-CSV lines with each user's start and end moved by
    ``shift[user]`` seconds; users not in ``shift`` stay put."""
    moved = []
    for row in rows:
        *fields, start, end = row.rstrip("\n").split(",")
        by = shift.get(fields[0], 0)
        moved.append(",".join([*fields, str(int(start) + by), str(int(end) + by)]) + "\n")
    return moved


def _write_offsets(path, offsets):
    path.write_text("user_id,offset_seconds\n"
                    + "".join(f"{u},{o}\n" for u, o in offsets.items()), encoding="utf-8")


def test_evening_example_tests_an_item(tmp_path):
    """The local-time relations' example runs the evening battery on an item,
    so they compare p-values, not only exclusions."""
    _write_rows(tmp_path / "panel.csv", EVENING_ROWS)
    _write_offsets(tmp_path / "offsets.csv", {f"u{i}": o for i, o in enumerate(EVENING_OFFSETS)})
    outputs = _outputs(tmp_path, "panel.csv", [(*EVENING_BATTERY, "offsets.csv")])
    tested = [row for row in outputs["compare/compare.csv"].decode().splitlines()[1:]
              if row.split(",")[1] != "-"]
    assert tested, "the evening battery tests no item"
    assert json.loads(outputs["compare/exclusions.json"]) == {"users_excluded": ["u5"]}


def _check_offset_cancels_shift(work, rows, offsets, moved, shift):
    """Moving user ``moved``'s timestamps by ``shift`` seconds and their UTC
    offset by ``-shift`` changes no local-time report."""
    _write_rows(work / "panel.csv", rows)
    _write_rows(work / "moved.csv", _shift_rows(rows, {moved: shift}))
    _write_offsets(work / "offsets.csv", offsets)
    _write_offsets(work / "moved_offsets.csv", {**offsets, moved: offsets[moved] - shift})

    def local_time_outputs(csv_name, offsets_name):
        return _outputs(work, csv_name, [("stats", "--offsets", offsets_name),
                                         (*EVENING_BATTERY, offsets_name)])

    expected = local_time_outputs("panel.csv", "offsets.csv")
    actual = local_time_outputs("moved.csv", "moved_offsets.csv")
    for name in ("stats/hourly.csv", "compare/compare.csv", "compare/exclusions.json"):
        assert actual[name] == expected[name], name


@pytest.mark.parametrize("k", [3, -27])
def test_user_offset_cancels_a_timestamp_shift(tmp_path, k):
    """On the 6-user evening panel, the user at +23 h moves by ``k`` hours.
    Timestamps are non-negative, so for a backward shift the panel starts
    with that user ``-k`` hours later and their offset as many hours lower:
    the same local times."""
    user = "u5"  # at +23 h
    ahead = max(0, -k) * HOUR
    rows = _shift_rows(EVENING_ROWS, {user: ahead})
    offsets = {f"u{i}": o for i, o in enumerate(EVENING_OFFSETS)}
    offsets[user] -= ahead
    _check_offset_cancels_shift(tmp_path, rows, offsets, user, k * HOUR)


@settings(max_examples=40, deadline=None)
@given(rows=small_panels(), offsets=OFFSETS, user=st.integers(0, 2), hours=st.integers(1, 48))
def test_user_offset_cancels_a_timestamp_shift_on_small_panels(tmp_path_factory, rows, offsets,
                                                               user, hours):
    """The same relation on drawn panels and offsets. The shifts are forward,
    since a small panel starts at 0; a backward shift is a forward one read
    the other way."""
    _check_offset_cancels_shift(tmp_path_factory.mktemp("offset_shift"), rows,
                                {f"u{i}": o for i, o in enumerate(offsets)}, f"u{user}",
                                hours * HOUR)


@settings(max_examples=30, deadline=None)
@given(rows=small_panels(), offsets=OFFSETS, days=st.integers(1, 3))
@example(rows=EVENING_ROWS, offsets=EVENING_OFFSETS, days=3)
def test_whole_day_shift_moves_only_session_times(tmp_path_factory, rows, offsets, days):
    """Moving every timestamp later by whole days changes no report, and the
    session JSONL only by the shift."""
    work = tmp_path_factory.mktemp("day_shift")
    shift = days * DAY
    _write_rows(work / "panel.csv", rows)
    _write_rows(work / "days.csv", _shift_rows(rows, {row.split(",")[0]: shift for row in rows}))
    _write_offsets(work / "offsets.csv", {f"u{i}": o for i, o in enumerate(offsets)})
    expected = _outputs(work, "panel.csv", LOCAL_TIME_COMMANDS)
    actual = _outputs(work, "days.csv", LOCAL_TIME_COMMANDS)
    assert sorted(actual) == sorted(expected)
    for name, data in actual.items():
        if name.endswith(".jsonl"):
            # A file that holds a session shows the shift.
            assert data != expected[name] or not data, name
            data = _shift_back(data, shift)
        assert data == expected[name], name


def _shift_back(jsonl, shift):
    """``jsonl`` with ``shift`` taken off every ``start`` and ``end``, nested
    app sessions included, written as the session writers write it."""
    lines = []
    for line in jsonl.decode().splitlines():
        record = json.loads(line)
        for item in [record, *record.get("app_sessions", ())]:
            item["start"] -= shift
            item["end"] -= shift
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode()
