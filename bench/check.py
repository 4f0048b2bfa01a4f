"""Output check for every benchmark command.

Two kinds of check run on each command's output directory:

* every file must match the SHA-256 pinned in ``golden.json`` for the input
  variant, and the set of files must be the pinned set;
* invariants that hold for any correct version of the program, checked
  against the facts the generator planted.

A command passes only if both hold; any problem makes it a failed command.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

import gen

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SWEEP_GRID = (1, 10, 60, 300, 1000, 10000)  # the CLI's default grid
TOL = 1e-6


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_tree(out_dir: Path) -> dict[str, str]:
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def check_command(args: tuple[str, ...], out_dir: Path, facts: dict,
                  pinned: dict[str, str] | None) -> list[str]:
    """Problems found in one command's outputs; empty when it passed.

    ``pinned`` maps file name to SHA-256; None skips the hash comparison
    (only while pinning)."""
    problems = []
    if pinned is not None:
        found = digest_tree(out_dir)
        for name in sorted(set(found) | set(pinned)):
            if found.get(name) != pinned.get(name):
                problems.append(f"{out_dir.name}/{name}: hash {found.get(name)} != pinned "
                                f"{pinned.get(name)}")
    try:
        problems += _INVARIANTS[args[0]](out_dir, facts)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"{out_dir.name}: cannot read outputs: {exc!r}")
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _ingest(out: Path, facts: dict) -> list[str]:
    problems = []
    records = [json.loads(line) for line in (out / "diagnostics.jsonl").read_text().splitlines()]
    by_reason = dict(Counter(r["error"] for r in records))
    if by_reason != facts["diagnostics"]:
        problems.append(f"diagnostics by reason {by_reason} != planted {facts['diagnostics']}")
    dropped = sorted(r["user_id"] for r in records if r["error"] == "user dropped by activity filter")
    if dropped != facts["short_span_users"]:
        problems.append(f"dropped users {dropped} != planted short-span users "
                        f"{facts['short_span_users']}")
    digest = hashlib.sha256((out / "sessions.csv").read_bytes()).hexdigest()
    if digest != facts["ingest_csv_sha256"]:
        problems.append("sessions.csv differs from the planted app sessions of retained users")
    return problems


def _sessions(out: Path, facts: dict) -> list[str]:
    problems = []
    device_type = {}
    app_sessions = 0
    with open(out / "usage_sessions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            us = json.loads(line)
            device_type[us["id"]] = us["device_type"]
            app_sessions += len(us["app_sessions"])
    if app_sessions != facts["session_rows"]:
        problems.append(f"{app_sessions} app sessions in usage sessions != "
                        f"{facts['session_rows']} input rows")
    with open(out / "md_sessions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            md = json.loads(line)
            if {device_type[m] for m in md["members"]} != {"smartphone", "tablet"}:
                problems.append(f"multidevice session {md['id']} lacks a device type")
                break
    stats = json.loads((out / "construction_stats.json").read_text())
    for table, shares in stats["relation_shares"].items():
        if shares and not _close(sum(shares.values()), 100.0):
            problems.append(f"relation shares of {table} sum to {sum(shares.values())}")
    return problems


def _patterns(out: Path, facts: dict) -> list[str]:
    problems = []
    report = json.loads((out / "group_report.json").read_text())
    for key in ("overall", "per_user_mean"):
        if not _close(sum(report[key].values()), 100.0):
            problems.append(f"group shares {key} sum to {sum(report[key].values())}")
    contrasts = json.loads((out / "category_contrasts.json").read_text())
    entry = contrasts.get(str(gen.CONTRAST_GROUP), {"error": "missing"})
    if "error" in entry:
        problems.append(f"contrast of planted group {gen.CONTRAST_GROUP}: {entry['error']}")
    return problems


def _stats(out: Path, facts: dict) -> list[str]:
    problems = []
    shares = json.loads((out / "usage_shares.json").read_text())
    for partition, classes in shares.items():
        for measure in next(iter(classes.values())):
            total = sum(c[measure] for c in classes.values())
            if not _close(total, 100.0):
                problems.append(f"usage shares {partition}/{measure} sum to {total}")
    with open(out / "hourly.csv", encoding="utf-8") as fh:
        for row in list(csv.reader(fh))[1:]:
            total = sum(float(v) for v in row[1:])
            if abs(total - 100.0) > 0.01 and total != 0.0:  # bins are printed to 4 places
                problems.append(f"hourly bins of {row[0]} sum to {total}")
    categories = json.loads((out / "category_shares.json").read_text())
    for device, parts in categories.items():
        for part, values in parts.items():
            if values and not _close(sum(values.values()), 100.0):
                problems.append(f"{device} {part} shares sum to {sum(values.values())}")
    return problems


def _sweep(out: Path, facts: dict) -> list[str]:
    with open(out / "sweep.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if tuple(int(r["tw"]) for r in rows) != SWEEP_GRID:
        return [f"sweep grid {[r['tw'] for r in rows]} != {list(SWEEP_GRID)}"]
    problems = []
    # A wider window can only merge usage sessions of one device.
    for col in ("mean_smartphone_all_per_user", "mean_tablet_all_per_user"):
        values = [float(r[col]) for r in rows]
        if values != sorted(values, reverse=True):
            problems.append(f"{col} rises with tw: {values}")
    ratio = [float(r["mean_app_sessions_per_usage_session"]) for r in rows]
    if ratio != sorted(ratio):
        problems.append(f"app sessions per usage session falls with tw: {ratio}")
    return problems


def _compare(out: Path, facts: dict) -> list[str]:
    with open(out / "compare.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tested = [float(r["p_value"]) for r in rows if r["p_value"] != "-"]
    if not tested:
        return ["the battery tested no item"]
    return [f"p-value {p} outside [0, 1]" for p in tested if not 0.0 <= p <= 1.0]


def _substitution(out: Path, facts: dict) -> list[str]:
    split = json.loads((out / "substitution.json").read_text())
    total = split["substitution_share"] + split["novel_share"]
    if _close(total, 1.0) or (total == 0.0 and not split["interpretable"]):
        return []
    return [f"substitution shares sum to {total}"]


_INVARIANTS = {
    "ingest": _ingest,
    "sessions": _sessions,
    "patterns": _patterns,
    "stats": _stats,
    "sweep": _sweep,
    "compare": _compare,
    "substitution": _substitution,
}
