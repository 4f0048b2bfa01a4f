"""Metamorphic relations of the panel commands: a change to the input that
must not change the outputs."""

import dataclasses
import json
import random

import pytest

from mdsessions import cli
from mdsessions.generator import PanelSpec, generate_sessions
from mdsessions.ingest import write_sessions_csv
from mdsessions.intervals import Interval

HOUR = 3600
DAY = 24 * HOUR

COMMANDS = (
    ("sessions",),
    ("patterns", "--contrast-group", "15", "--contrast-group", "135"),
    ("stats", "--offsets", "offsets.csv"),
    ("sweep",),
)


def _outputs(work, csv_name, commands=COMMANDS):
    """{command/file: bytes} of every command on ``csv_name``, manifests aside."""
    out = {}
    for command, *options in commands:
        out_dir = work / f"{csv_name}-{command}"
        cli.cli.main([command, "--input", str(work / csv_name), "--mode", "sessions",
                      *[str(work / o) if o.endswith(".csv") else o for o in options],
                      "--out", str(out_dir)], standalone_mode=False)
        for path in sorted(out_dir.iterdir()):
            if path.name != "manifest.json":
                out[f"{command}/{path.name}"] = path.read_bytes()
    return out


def test_row_order_does_not_matter(tmp_path):
    spec = PanelSpec(md_users=3, nmd_users=1, days=4, seed=11, prototype_quota={15: 0.4})
    with open(tmp_path / "sorted.csv", "w", encoding="utf-8") as fh:
        write_sessions_csv(generate_sessions(spec), fh)
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


# The default evening battery (17-24 local) besides the other commands. The
# generator's usage starts in the first hour of each UTC day; the offsets put
# it in the evening, and at +23 h partly past local midnight, out of the window.
LOCAL_TIME_COMMANDS = COMMANDS + (("compare", "--offsets", "offsets.csv"),)
USERS = 8


def _write_panel(work, csv_name, sessions, shift):
    """Write ``sessions`` with each user's timestamps moved by ``shift[user]``
    seconds; users not in ``shift`` stay put."""
    moved = []
    for s in sessions:
        by = shift.get(s.user_id, 0)
        moved.append(dataclasses.replace(
            s, interval=Interval(s.interval.start + by, s.interval.end + by)))
    with open(work / csv_name, "w", encoding="utf-8") as fh:
        write_sessions_csv(moved, fh)


def _write_offsets(path, offsets):
    path.write_text("user_id,offset_seconds\n"
                    + "".join(f"{u},{o}\n" for u, o in offsets.items()), encoding="utf-8")


@pytest.fixture(scope="module")
def local_time_panel(tmp_path_factory):
    """(work dir, app sessions, offsets, outputs of every command)."""
    work = tmp_path_factory.mktemp("local_time")
    sessions = generate_sessions(PanelSpec(md_users=USERS, days=4, seed=5))
    offsets = {f"md{i:04d}": 18 * HOUR + i % 6 * HOUR for i in range(USERS)}
    _write_offsets(work / "offsets.csv", offsets)
    _write_panel(work, "panel.csv", sessions, {})
    outputs = _outputs(work, "panel.csv", LOCAL_TIME_COMMANDS)
    tested = [row for row in outputs["compare/compare.csv"].decode().splitlines()[1:]
              if row.split(",")[1] != "-"]
    assert tested, "the evening battery tests no item"
    return work, sessions, offsets, outputs


@pytest.mark.parametrize("k", [3, -27])
def test_user_offset_cancels_a_timestamp_shift(local_time_panel, k):
    work, sessions, offsets, expected = local_time_panel
    user = "md0005"  # at +23 h
    _write_panel(work, f"user{k}.csv", sessions, {user: k * HOUR})
    _write_offsets(work / f"offsets{k}.csv", {**offsets, user: offsets[user] - k * HOUR})
    commands = [(c, "--offsets", f"offsets{k}.csv") for c in ("stats", "compare")]
    actual = _outputs(work, f"user{k}.csv", commands)
    for name in ("stats/hourly.csv", "compare/compare.csv", "compare/exclusions.json"):
        assert actual[name] == expected[name], name


def test_whole_day_shift_moves_only_session_times(local_time_panel):
    work, sessions, _, expected = local_time_panel
    shift = 3 * DAY
    _write_panel(work, "days.csv", sessions, {s.user_id: shift for s in sessions})
    actual = _outputs(work, "days.csv", LOCAL_TIME_COMMANDS)
    assert sorted(actual) == sorted(expected)
    for name, data in actual.items():
        if name.endswith(".jsonl"):
            assert data != expected[name]
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
