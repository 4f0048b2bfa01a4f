"""Golden-output gate: every CLI subcommand on the default desk panel must
write files whose SHA-256 matches the pinned table in ``tests/golden/``.

Commands run with the temporary directory as their working directory and
relative paths, so ``manifest.json`` records the same input strings on every
machine. A change that means to alter an output re-pins the table with
``python tests/test_golden.py`` and says why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "sha256.json"

_SESSIONS = ("--input", "ing/sessions.csv", "--mode", "sessions")
_OFFSETS = ("--offsets", "offsets.csv")

COMMANDS = (
    ("generate", "--out", "gen"),
    ("generate", "--seed", "1", "--out", "gen1"),
    ("ingest", "--input", "gen/events.jsonl", "--out", "ing"),
    ("ingest", "--input", "gen1/events.jsonl", "--min-span-days", "0", "--out", "ing1"),
    ("sessions", *_SESSIONS, "--out", "sessions"),
    ("patterns", *_SESSIONS, "--contrast-group", "15", "--contrast-group", "200",
     "--out", "patterns"),
    ("stats", *_SESSIONS, *_OFFSETS, "--out", "stats"),
    ("sweep", *_SESSIONS, "--config", "sweep.json", "--out", "sweep"),
    ("compare", *_SESSIONS, *_OFFSETS, "--threshold", "0.1", "--out", "compare"),
    ("compare", *_SESSIONS, "--input2", "ing1/sessions.csv", "--comparison",
     "md-vs-nmd-smartphone", "--boot", "500", "--out", "compare_nmd"),
    ("substitution", *_SESSIONS, "--input2", "ing1/sessions.csv", "--out", "substitution"),
    ("substitution", "--nmd-smartphone", "172.81", "--md-smartphone", "138.00",
     "--md-tablet", "71.83", "--out", "substitution_explicit"),
)


def _run_all(work: Path) -> dict[str, str]:
    """Run every command in ``work``; return {relative path: sha256}."""
    # Evening 17-24 local time covers the generator's early-UTC usage.
    (work / "offsets.csv").write_text(
        "user_id,offset_seconds\n" + "".join(f"md{i:04d},64800\n" for i in range(10))
    )
    (work / "sweep.json").write_text('{"sweep_grid": [10, 60, 600], "tw": 30}\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for args in COMMANDS:
        res = subprocess.run(
            [sys.executable, "-m", "mdsessions.cli", *args],
            cwd=work, env=env, capture_output=True, text=True,
        )
        assert res.returncode == 0, f"{args[0]} failed: {res.stderr}"
    out_dirs = [args[args.index("--out") + 1] for args in COMMANDS]
    return {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for out in out_dirs
        for path in sorted((work / out).iterdir())
    }


def test_outputs_match_pinned_hashes(tmp_path):
    pinned = json.loads(TABLE.read_text())
    actual = _run_all(tmp_path)
    assert sorted(actual) == sorted(pinned), "output file set changed"
    changed = sorted(name for name in pinned if actual[name] != pinned[name])
    assert not changed, f"outputs differ from the pinned table: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = _run_all(Path(tmp))
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    print(f"pinned {len(table)} files in {TABLE.relative_to(ROOT)}")
