"""Property: any one input row, a drawn smartphone row with a drawn tablet
row, or a small drawn panel, given to the CLI ends in exit 0, 1 or 2 and
never in a traceback. A command leaves the cyclic garbage collector as its
caller had it, and the garbage it leaves in cycles does not grow with the
input, which is why it runs with the collector off.

The CLI runs in-process through ``cli.main``, so an exception that escapes
its error mapping fails the test with its own traceback.
"""

import csv
import gc
import io
import json
import tempfile
from pathlib import Path

import pytest
from conftest import exit_code_and_stderr
from hypothesis import example, given, settings, strategies as st

from mdsessions.generator import PanelSpec, generate_sessions
from mdsessions.ingest import SESSION_CSV_HEADER, write_sessions_csv
from test_metamorphic import small_panels

VALID_SESSION = ["u1", "phone", "smartphone", "android", "a1", "social", "0", "60"]
VALID_TABLET_SESSION = ["u1", "tab", "tablet", "android", "a2", "games", "30", "90"]
VALID_EVENT = {"user_id": "u1", "device_id": "d1", "device_type": "smartphone",
               "platform": "android", "app_id": "a1", "app_category": "social",
               "ts": 100, "kind": "foreground"}

TEXT_FIELD = st.sampled_from(
    ["", "u1", "phone", "smartphone", "tablet", "laptop", "android", "ios", "social"]
) | st.text(max_size=20)
NUMBER_FIELD = st.one_of(
    st.sampled_from(["", "0", "60", "-5", "1.5", "1e400", "inf", "-inf", "nan"]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(str),
)
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=20),
    st.sampled_from(["u1", "d1", "smartphone", "tablet", "android", "ios", "social",
                     "foreground", "background", "screen_off"]),
)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=5,
)


def _csv_line(fields: list[str]) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue().encode("utf-8", "surrogatepass")


def _session_fields(changes: tuple, valid: list[str] = VALID_SESSION) -> list[str]:
    """A valid row with each non-None change put in place of its field."""
    changes += (None,) * (len(valid) - len(changes))
    return [old if new is None else new for old, new in zip(valid, changes)]


def _event(changes: tuple) -> dict:
    """A valid event with each non-None change put in place of its value."""
    changes += (None,) * (len(VALID_EVENT) - len(changes))
    return {k: v if new is None else new for (k, v), new in zip(VALID_EVENT.items(), changes)}


CHANGED_FIELDS = st.tuples(*[st.none() | TEXT_FIELD] * 6, *[st.none() | NUMBER_FIELD] * 2)
SESSION_ROW = st.one_of(
    CHANGED_FIELDS.map(_session_fields).map(_csv_line),
    st.lists(TEXT_FIELD | NUMBER_FIELD, max_size=10).map(_csv_line),
    st.binary(max_size=80),
)
JSON_LINE = st.one_of(
    st.tuples(*[st.none() | JSON_VALUE] * len(VALID_EVENT)).map(_event),
    JSON_VALUE,
).map(lambda v: json.dumps(v).encode()) | st.binary(max_size=80)


def run_on(file_name: str, content: bytes, command: list[str]) -> None:
    """Run ``command`` with the content as ``--input``; ``{input}`` in the
    command stands for the same file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / file_name
        path.write_bytes(content)
        code, stderr = exit_code_and_stderr(
            [*(arg.format(input=path) for arg in command),
             "--input", str(path), "--out", str(Path(tmp) / "out")]
        )
    assert code in (0, 1, 2), stderr
    assert "Traceback" not in stderr


# Every command that loads a panel; the two-panel ones get the file twice.
PANEL_COMMANDS = (
    ["ingest"], ["sessions"], ["patterns"], ["stats"], ["sweep"], ["compare"],
    ["compare", "--comparison", "md-vs-nmd-all", "--input2", "{input}"],
    ["substitution", "--input2", "{input}"],
)
SESSION_CSV_HEADER_LINE = ",".join(SESSION_CSV_HEADER).encode() + b"\n"
LONG_HULL = "99999999999999"


def run_panel_commands(rows: bytes) -> None:
    for command in PANEL_COMMANDS:
        run_on("sessions.csv", SESSION_CSV_HEADER_LINE + rows, [*command, "--mode", "sessions"])


@settings(max_examples=80, deadline=None)
@given(row=SESSION_ROW)
@example(row=_csv_line(_session_fields((None,) * 6 + ("1e400", "inf"))))
@example(row=_csv_line(VALID_SESSION[:3]))
@example(row=_csv_line(_session_fields((None,) * 4 + ("x" * 140000,))))
@example(row=b"u1,phone,smartphone,android,\xff,social,0,60")
@example(row=_csv_line(_session_fields((None,) * 7 + (LONG_HULL,))))
def test_any_session_csv_row(row):
    # ingest reaches the activity filter and stats the hour bins.
    run_panel_commands(row)


# A drawn row of each device type; the device type itself is kept.
TYPED_CHANGES = st.tuples(*[st.none() | TEXT_FIELD] * 2, st.none(),
                          *[st.none() | TEXT_FIELD] * 3, *[st.none() | NUMBER_FIELD] * 2)


@settings(max_examples=40, deadline=None)
@given(phone=TYPED_CHANGES, tablet=TYPED_CHANGES)
@example(phone=(None,) * 7 + (LONG_HULL,), tablet=(None,) * 6 + ("100", "200"))
def test_any_smartphone_and_tablet_rows(phone, tablet):
    # Unchanged, the two rows form one multidevice session for patterns.
    run_panel_commands(_csv_line(_session_fields(phone))
                       + _csv_line(_session_fields(tablet, VALID_TABLET_SESSION)))


@settings(max_examples=40, deadline=None)
@given(rows=small_panels())
def test_any_small_panel(rows):
    run_panel_commands("".join(rows).encode("utf-8"))


@settings(max_examples=80, deadline=None)
@given(line=JSON_LINE)
@example(line=json.dumps(_event((None,) * 6 + (float("inf"),))).encode())
@example(line=json.dumps(_event((None, None, ["smartphone"]))).encode())
@example(line=b'{"user_id": "\xff"}')
def test_any_json_line(line):
    run_on("events.jsonl", line + b"\n", ["ingest"])


@pytest.mark.parametrize("enabled", [True, False])
def test_a_command_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    good = tmp_path / "good.csv"
    good.write_bytes(SESSION_CSV_HEADER_LINE + _csv_line(VALID_SESSION))
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,start\nu1,0\n")
    # Exit 1 and 2 are raised inside the command, after the collector is off.
    cases = {0: ["sessions", "--input", str(good)],
             1: ["compare", "--input", str(good), "--comparison", "md-vs-nmd-all"],
             2: ["sessions", "--input", str(bad)]}
    for code, args in cases.items():
        if enabled:
            gc.enable()
        else:
            gc.disable()
        try:
            result = exit_code_and_stderr([*args, "--mode", "sessions",
                                           "--out", str(tmp_path / f"out{code}")])
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert result[0] == code, result[1]


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path):
    collected = {}
    for users in (1, 4):
        path = tmp_path / f"panel{users}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_sessions_csv(generate_sessions(
                PanelSpec(md_users=2 * users, nmd_users=users, days=3, seed=5)), fh)
        for command in ("sessions", "patterns", "stats", "sweep"):
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                code, stderr = exit_code_and_stderr(
                    [command, "--input", str(path), "--mode", "sessions",
                     "--out", str(tmp_path / f"{command}{users}")])
                collected[users, command] = gc.collect()
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
            assert code == 0, stderr
    for command in ("sessions", "patterns", "stats", "sweep"):
        assert collected[1, command] == collected[4, command], collected
