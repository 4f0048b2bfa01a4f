"""The benchmark's workloads: which CLI commands run on which inputs.

Every command is given relative paths and runs with the work directory as
its current directory, so ``manifest.json`` records the same input strings
on every machine and its hash can be pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen

#: Inputs repeat with period VARIANTS in the seed; golden.json pins the
#: outputs of every variant.
VARIANTS = 16

_SESSIONS = ("--input", "in/sessions.csv", "--mode", "sessions")
_MD = ("--input", "in/md_panel.csv", "--mode", "sessions", "--threshold", "0.1")
_NMD = ("--input2", "in/nmd_panel.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    panel: str  # "events", "sessions" or "battery": which inputs to write
    commands: tuple[tuple[str, ...], ...]  # CLI arguments, each ending in --out out/<name>

    def out_dirs(self) -> list[str]:
        return [cmd[cmd.index("--out") + 1] for cmd in self.commands]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest-events",
            "the only run of the JSONL parse, pair, normalize, activity-filter and CSV-write "
            "path; later layers do no work here",
            "events",
            (("ingest", "--input", "in/events.jsonl", "--out", "out/ingest"),),
        ),
        Workload(
            "report",
            "reconstruction plus the pattern and descriptive reports on a session CSV; "
            "no timeout sweep and no bootstrap",
            "sessions",
            (
                ("sessions", *_SESSIONS, "--out", "out/sessions"),
                ("patterns", *_SESSIONS, "--contrast-group", str(gen.CONTRAST_GROUP),
                 "--out", "out/patterns"),
                ("stats", *_SESSIONS, "--offsets", "in/offsets.csv", "--out", "out/stats"),
            ),
        ),
        Workload(
            "sweep",
            "the 6-point timeout sweep: construction runs six times, then the per-user "
            "loop of timeout_sweep; sort-once work shows here, not in report",
            "sessions",
            (("sweep", *_SESSIONS, "--out", "out/sweep"),),
        ),
        Workload(
            "battery",
            "many users over few days: bootstrap batteries and per-user aggregation "
            "in robust and pipeline",
            "battery",
            (
                ("compare", *_MD, "--offsets", "in/battery_offsets.csv", "--out", "out/compare_paired"),
                ("compare", *_MD, *_NMD, "--comparison", "md-vs-nmd-smartphone",
                 "--out", "out/compare_md_nmd"),
                ("substitution", *_MD, *_NMD, "--out", "out/substitution"),
            ),
        ),
    )
}

def prepare(workload: Workload, variant: int, in_dir: Path) -> dict:
    """Write the workload's inputs under ``in_dir``; return the planted facts
    with ``rows``, the input rows the workload reads."""
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload.panel == "battery":
        facts = gen.battery_panels(variant, in_dir)
        facts["rows"] = facts["md_panel_rows"] + facts["nmd_panel_rows"]
        return facts
    facts = gen.main_panel(variant, in_dir, events=workload.panel == "events")
    facts["rows"] = facts["events"] if workload.panel == "events" else facts["session_rows"]
    return facts
