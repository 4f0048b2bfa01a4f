"""Property: any one input row given to the CLI ends in exit 0, 1 or 2 and
never in a traceback.

The CLI runs in-process through ``cli.main``, so an exception that escapes
its error mapping fails the test with its own traceback.
"""

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from mdsessions import cli
from mdsessions.ingest import SESSION_CSV_HEADER

VALID_SESSION = ["u1", "phone", "smartphone", "android", "a1", "social", "0", "60"]
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


def _session_fields(changes: tuple) -> list[str]:
    """A valid row with each non-None change put in place of its field."""
    changes += (None,) * (len(VALID_SESSION) - len(changes))
    return [old if new is None else new for old, new in zip(VALID_SESSION, changes)]


def _event(changes: tuple) -> dict:
    """A valid event with each non-None change put in place of its value."""
    changes += (None,) * (len(VALID_EVENT) - len(changes))
    return {k: v if new is None else new for (k, v), new in zip(VALID_EVENT.items(), changes)}


SESSION_ROW = st.one_of(
    st.tuples(*[st.none() | TEXT_FIELD] * 6, *[st.none() | NUMBER_FIELD] * 2)
    .map(_session_fields).map(_csv_line),
    st.lists(TEXT_FIELD | NUMBER_FIELD, max_size=10).map(_csv_line),
    st.binary(max_size=80),
)
JSON_LINE = st.one_of(
    st.tuples(*[st.none() | JSON_VALUE] * len(VALID_EVENT)).map(_event),
    JSON_VALUE,
).map(lambda v: json.dumps(v).encode()) | st.binary(max_size=80)


def exit_code_and_stderr(args: list[str]) -> tuple[int, str]:
    stderr = io.StringIO()
    code = 0
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        old_argv, sys.argv = sys.argv, ["mdsessions", *args]
        try:
            cli.main()
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        finally:
            sys.argv = old_argv
    return code, stderr.getvalue()


def run_on(file_name: str, content: bytes, command: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / file_name
        path.write_bytes(content)
        code, stderr = exit_code_and_stderr(
            [*command, "--input", str(path), "--out", str(Path(tmp) / "out")]
        )
    assert code in (0, 1, 2), stderr
    assert "Traceback" not in stderr


@settings(max_examples=80, deadline=None)
@given(row=SESSION_ROW)
@example(row=_csv_line(_session_fields((None,) * 6 + ("1e400", "inf"))))
@example(row=_csv_line(VALID_SESSION[:3]))
@example(row=_csv_line(_session_fields((None,) * 4 + ("x" * 140000,))))
@example(row=b"u1,phone,smartphone,android,\xff,social,0,60")
def test_any_session_csv_row(row):
    header = ",".join(SESSION_CSV_HEADER).encode() + b"\n"
    run_on("sessions.csv", header + row, ["sessions", "--mode", "sessions"])


@settings(max_examples=80, deadline=None)
@given(line=JSON_LINE)
@example(line=json.dumps(_event((None,) * 6 + (float("inf"),))).encode())
@example(line=json.dumps(_event((None, None, ["smartphone"]))).encode())
@example(line=b'{"user_id": "\xff"}')
def test_any_json_line(line):
    run_on("events.jsonl", line + b"\n", ["ingest"])
