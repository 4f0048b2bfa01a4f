"""Start-up budget: only ``generate``, ``compare`` and ``substitution`` load
numpy.

``mdsessions.cli`` still imports ``robust`` and ``patterns`` with itself.
The benchmark's tracer looks up every layer module it wraps in
``sys.modules``, so a layer that no command imports would fail every traced
run; ``robust`` therefore keeps numpy out of its module level instead of
being imported only by the commands that call it.
"""

import json
import subprocess
import sys

from mdsessions.generator import PanelSpec, generate, write_events_jsonl

WATCHED = ("numpy", "mdsessions.generator", "mdsessions.patterns", "mdsessions.robust")

# Prints the watched modules that are loaded after ``import mdsessions.cli``
# and again after running the commands given as a JSON list of argument lists.
SCRIPT = f"""
import json, sys
from mdsessions import cli

def loaded():
    return [m for m in {WATCHED!r} if m in sys.modules]

report = {{"import": loaded()}}
for args in json.loads(sys.argv[1]):
    cli.cli.main(args, standalone_mode=False)
report["commands"] = loaded()
print(json.dumps(report))
"""


def test_numpy_free_commands_leave_numpy_unloaded(tmp_path):
    with open(tmp_path / "events.jsonl", "w", encoding="utf-8") as fh:
        write_events_jsonl(generate(PanelSpec()), fh)
    sessions = ["--input", "ing/sessions.csv", "--mode", "sessions"]
    commands = [
        ["ingest", "--input", "events.jsonl", "--out", "ing"],
        ["sessions", *sessions, "--out", "sessions"],
        ["patterns", *sessions, "--contrast-group", "15", "--out", "patterns"],
        ["stats", *sessions, "--out", "stats"],
        ["sweep", *sessions, "--out", "sweep"],
    ]
    res = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                         cwd=tmp_path, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    expected = ["mdsessions.patterns", "mdsessions.robust"]
    assert report == {"import": expected, "commands": expected}
    assert (tmp_path / "sweep" / "sweep.csv").exists()
