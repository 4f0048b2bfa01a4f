"""Seeded input generator owned by the benchmark.

It uses only the standard library and none of ``mdsessions``, so the inputs
stay fixed while the package (its own generator included) changes.  The same
variant always yields byte-identical files.

Two panels are made:

* the main panel: a few hundred users over 30 days.  It is written as a raw
  JSONL event log with planted defects (``events.jsonl``), as a pre-paired
  session CSV with planted same-device overlaps (``sessions.csv``) and with
  per-user UTC offsets (``offsets.csv``).
* the battery panels: many users over a few days, one multidevice group
  (``md_panel.csv``) and one smartphone-only group (``nmd_panel.csv``), with
  their offsets (``battery_offsets.csv``).

Alongside the files the generator returns the facts it planted (defect
counts by diagnostics reason, short-span users, the exact session CSV that a
correct ``ingest`` writes), which the output check compares against.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import random

DAY = 86400
HOUR = 3600
# Local midnight of the first panel day; UTC = local - offset.
BASE_TS = 1_456_790_400  # 2016-03-01T00:00:00Z

CATEGORIES = (
    "social", "games", "video", "productivity", "news", "music", "shopping",
    "travel", "education", "health", "finance", "photo", "weather", "books",
)
# Skewed category mix: popular categories are used by most users, rare ones
# fall below the battery's inclusion threshold.
CATEGORY_WEIGHTS = (30, 14, 14, 10, 8, 7, 5, 3, 2.5, 2, 1.5, 1.2, 1, 0.8)
APPS_PER_CATEGORY = 4
# Relative weight of each local hour as an episode start; heavy in the
# 17-24 evening window so the evening battery has data.
HOUR_WEIGHTS = (1, 0.5, 0.3, 0.2, 0.2, 0.4, 1, 2, 3, 3, 3, 3,
                3, 3, 3, 3, 3, 5, 6, 7, 7, 6, 5, 3)
OFFSETS_HOURS = tuple(range(-8, 10))

# Multidevice episode shapes (phone segment, tablet segment) as fractions of
# the episode length, named by the 2x4 prototype group they resize to.
SHAPES = {
    195: ((0.0, 0.5), (0.5, 1.0)),   # phone then tablet (handoff)
    60: ((0.5, 1.0), (0.0, 0.5)),    # tablet then phone
    255: ((0.0, 1.0), (0.0, 1.0)),   # simultaneous
    246: ((0.0, 1.0), (0.25, 0.75)),  # tablet inside phone
}
SHAPE_WEIGHTS = {195: 3, 60: 2, 255: 3, 246: 2}
#: The planted group the ``patterns`` command contrasts against the rest.
CONTRAST_GROUP = 195
# The handoff shape leans to long-form tablet categories, so the contrast
# has a planted direction.
HANDOFF_TABLET_CATEGORIES = ("video", "books", "news")

MIN_ACTIVE_SPAN_DAYS = 23  # the CLI default activity threshold


@dataclasses.dataclass(frozen=True)
class PanelSize:
    md_users: int
    nmd_users: int
    days: int
    single_episodes_per_day: int  # per device
    md_episodes_per_day: int
    short_span_users: int = 0


MAIN = PanelSize(md_users=32, nmd_users=32, days=30,
                 single_episodes_per_day=4, md_episodes_per_day=2,
                 short_span_users=4)
BATTERY_MD = PanelSize(md_users=2000, nmd_users=0, days=2,
                       single_episodes_per_day=1, md_episodes_per_day=1)
BATTERY_NMD = PanelSize(md_users=0, nmd_users=2000, days=2,
                        single_episodes_per_day=2, md_episodes_per_day=0)

# Share of clean events that become defective rows, split over the kinds.
DEFECT_RATE = 0.01
OVERLAP_RATE = 0.003  # share of session-CSV rows extended into the next one


def _apps() -> dict[str, list[str]]:
    return {c: [f"com.{c}.app{k}" for k in range(APPS_PER_CATEGORY)] for c in CATEGORIES}


APPS = _apps()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(lo * (hi / lo) ** rng.random())


def _intra_gap(rng: random.Random) -> int:
    """Gap between app sessions of one episode, spread over the sweep grid
    (1, 10, 60, 300, 1000 and 10000 s) so each grid point merges differently."""
    r = rng.random()
    if r < 0.15:
        return 0  # the next app starts as the last one ends
    if r < 0.35:
        return rng.randint(1, 10)
    if r < 0.6:
        return rng.randint(11, 60)
    if r < 0.8:
        return rng.randint(61, 300)
    if r < 0.93:
        return rng.randint(301, 1000)
    return rng.randint(1001, 3000)


def _category(rng: random.Random) -> str:
    return rng.choices(CATEGORIES, CATEGORY_WEIGHTS)[0]


class _User:
    def __init__(self, rng: random.Random, prefix: str, index: int, md: bool) -> None:
        self.id = f"{prefix}{index:05d}"
        self.md = md
        self.offset = rng.choice(OFFSETS_HOURS) * HOUR
        self.platform = rng.choice(("android", "ios"))
        self.devices = [("smartphone", f"{self.id}-p")]
        if md:
            self.devices.append(("tablet", f"{self.id}-t"))


def _episode_sessions(rng, user, dtype, device, t):
    """App sessions of one single-device episode starting at local time t."""
    out = []
    for k in range(rng.randint(1, 5)):
        if k:
            t += _intra_gap(rng)
        dur = _log_uniform(rng, 5, 900)
        cat = _category(rng)
        out.append((user.id, device, dtype, user.platform, rng.choice(APPS[cat]), cat, t, t + dur))
        t += dur
    return out, t


def _md_episode(rng, user, t):
    shape = rng.choices(list(SHAPE_WEIGHTS), list(SHAPE_WEIGHTS.values()))[0]
    length = 4 * rng.randint(60, 300)
    out = []
    for (dtype, device), (lo, hi) in zip(user.devices, SHAPES[shape]):
        seg_lo, seg_hi = t + int(lo * length), t + int(hi * length)
        tablet_handoff = shape == CONTRAST_GROUP and dtype == "tablet"
        # One to three back-to-back app sessions cover the segment.
        cuts = sorted(rng.sample(range(seg_lo + 1, seg_hi), rng.randint(0, 2)))
        bounds = [seg_lo] + cuts + [seg_hi]
        for a, b in zip(bounds, bounds[1:]):
            cat = rng.choice(HANDOFF_TABLET_CATEGORIES) if tablet_handoff else _category(rng)
            out.append((user.id, device, dtype, user.platform, rng.choice(APPS[cat]), cat, a, b))
    return out, t + length


def _user_sessions(rng: random.Random, user: _User, size: PanelSize, first_day: int,
                   days: int) -> list[tuple]:
    """All app sessions of one user, in local time, sorted by start."""
    sessions = []
    t = BASE_TS + first_day * DAY
    for day in range(first_day, first_day + days):
        kinds = [d for d in user.devices for _ in range(size.single_episodes_per_day)]
        kinds += ["md"] * (size.md_episodes_per_day if user.md else 0)
        rng.shuffle(kinds)
        starts = sorted(rng.choices(range(24), HOUR_WEIGHTS, k=len(kinds)))
        for kind, hour in zip(kinds, starts):
            # Episodes never overlap on one timeline; at least 120 s apart.
            t = max(t + _log_uniform(rng, 120, 20000),
                    BASE_TS + day * DAY + hour * HOUR + rng.randrange(HOUR))
            if kind == "md":
                new, t = _md_episode(rng, user, t)
            else:
                new, t = _episode_sessions(rng, user, kind[0], kind[1], t)
            sessions.extend(new)
    return [s[:6] + (s[6] - user.offset, s[7] - user.offset) for s in sessions]


def _panel(rng: random.Random, size: PanelSize, prefix: str):
    users = [_User(rng, prefix, i, md=i < size.md_users)
             for i in range(size.md_users + size.nmd_users)]
    short = set(rng.sample(range(len(users)), size.short_span_users))
    sessions = []
    for i, user in enumerate(users):
        if i in short:
            span = rng.randint(5, MIN_ACTIVE_SPAN_DAYS - 8)
            sessions.extend(_user_sessions(rng, user, size, rng.randint(0, size.days - span), span))
        else:
            sessions.extend(_user_sessions(rng, user, size, 0, size.days))
    return users, sorted(users[i].id for i in short), sessions


def _by_device(sessions):
    per = {}
    for s in sessions:
        per.setdefault((s[0], s[1]), []).append(s)
    return per


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user_id", "device_id", "device_type", "platform", "app_id",
                     "app_category", "start", "end"])
    writer.writerows(rows)
    return buf.getvalue()


def _offsets_text(users) -> str:
    return "user_id,offset_seconds\n" + "".join(f"{u.id},{u.offset}\n" for u in users)


def _canonical(sessions) -> list[tuple]:
    """Sessions in the order the session CSV writer emits them."""
    return sorted(sessions, key=lambda s: (s[0], s[1], s[6], -s[7]))


_EVENT_KEYS = ("user_id", "device_id", "device_type", "platform", "app_id", "app_category")
_KIND_RANK = {"background": 0, "screen_off": 0, "foreground": 1}


def _event(s, ts, kind, **override) -> dict:
    ev = dict(zip(_EVENT_KEYS, s[:6]))
    ev["ts"] = ts
    ev["kind"] = kind
    ev.update(override)
    return ev


def _events_with_defects(rng: random.Random, sessions, n_devices: int):
    """Event log of ``sessions`` plus planted defects.

    Returns (JSONL text, planted count per diagnostics reason).  Every defect
    is placed where ingest reports it and leaves the paired sessions as they
    were.  Same-device overlaps cannot arise from an event stream (pairing
    closes a session at the next foreground), so the events carry the closest
    kind, a duplicated foreground at the same instant, and real overlaps are
    planted in the session CSV instead.
    """
    events = []
    for s in sessions:
        events.append(_event(s, s[6], "foreground"))
        events.append(_event(s, s[7], "screen_off" if rng.random() < 0.05 else "background"))
    n_defects = int(DEFECT_RATE * len(events))
    per_device = _by_device(sessions)
    # Pick distinct target sessions so defects never interact.
    targets = rng.sample(range(len(sessions)), n_defects)
    kinds = ("missing fields", "unknown device_type", "background with no open session",
             "background for different app", "zero or negative duration session dropped")
    planted = {k: 0 for k in kinds}
    next_start = {}
    for dev in per_device.values():
        dev.sort(key=lambda s: s[6])
        for a, b in zip(dev, dev[1:]):
            next_start[a] = b[6]
    for j, idx in enumerate(targets):
        s = sessions[idx]
        kind = kinds[j % len(kinds)]
        if kind == "missing fields":
            ev = _event(s, s[6], "foreground")
            del ev[rng.choice(list(ev))]
        elif kind == "unknown device_type":
            ev = _event(s, s[6], "foreground", device_type="watch")
        elif kind == "background with no open session":
            if next_start.get(s, s[7]) - s[7] < 2:
                continue
            ev = _event(s, s[7] + 1, "background")
        elif kind == "background for different app":
            if s[7] - s[6] < 2:
                continue
            other = APPS[s[5]][(APPS[s[5]].index(s[4]) + 1) % APPS_PER_CATEGORY]
            ev = _event(s, s[6] + 1, "background", app_id=other)
        else:
            ev = _event(s, s[6], "foreground")
        events.append(ev)
        planted[kind] += 1
    # A foreground after a device's last event is never closed.
    unclosed = rng.sample(sorted(per_device), min(n_devices // 2, n_defects // len(kinds)))
    for key in unclosed:
        last = per_device[key][-1]
        events.append(_event(last, last[7] + 5, "foreground"))
    planted["unclosed session at end of stream"] = len(unclosed)
    # Time order, a close before an open at the same instant; the sort is
    # stable, so a duplicated foreground follows its original.
    events.sort(key=lambda e: (e.get("ts", 0), _KIND_RANK.get(e.get("kind"), 1)))
    text = "".join(json.dumps(e) + "\n" for e in events)
    return text, planted


def _with_overlaps(rng: random.Random, sessions):
    """Extend a few sessions past the start of the next one on their device.

    ``normalize`` truncates each back to the next start, so every row
    survives.  Returns (rows in time order, number of planted overlaps).
    """
    out = list(sessions)
    n = 0
    index = {s: i for i, s in enumerate(out)}
    for dev in _by_device(sessions).values():
        dev.sort(key=lambda s: s[6])
        for a, b in zip(dev, dev[1:]):
            if rng.random() < OVERLAP_RATE and b[7] - b[6] >= 2:
                out[index[a]] = a[:7] + (b[6] + 1,)
                n += 1
    out.sort(key=lambda s: (s[6], s[0], s[1]))
    return out, n


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main_panel(variant: int, out_dir, events: bool = True) -> dict:
    """Write the main panel's inputs; return the planted facts."""
    rng = random.Random(f"mdsessions-bench/main/{variant}")
    users, short, sessions = _panel(rng, MAIN, "u")
    retained = [s for s in sessions if s[0] not in set(short)]
    (out_dir / "offsets.csv").write_text(_offsets_text(users))
    rows, overlaps = _with_overlaps(rng, retained)
    (out_dir / "sessions.csv").write_text(_csv_text(rows))
    facts = {
        "users": len(users),
        "app_sessions": len(sessions),
        "session_rows": len(rows),
        "planted_overlaps": overlaps,
        "short_span_users": short,
    }
    if events:
        text, planted = _events_with_defects(rng, sessions, sum(len(u.devices) for u in users))
        (out_dir / "events.jsonl").write_text(text)
        planted["user dropped by activity filter"] = len(short)
        facts.update(
            events=text.count("\n"),
            diagnostics=planted,
            ingest_csv_sha256=_sha256(_csv_text(_canonical(retained))),
            ingest_rows=len(retained),
        )
    return facts


def battery_panels(variant: int, out_dir) -> dict:
    """Write the two battery panels and their offsets; return their sizes."""
    facts = {}
    users_all = []
    for name, size, prefix in (("md_panel", BATTERY_MD, "m"), ("nmd_panel", BATTERY_NMD, "n")):
        rng = random.Random(f"mdsessions-bench/{name}/{variant}")
        users, _, sessions = _panel(rng, size, prefix)
        users_all += users
        sessions.sort(key=lambda s: (s[6], s[0], s[1]))
        (out_dir / f"{name}.csv").write_text(_csv_text(sessions))
        facts[f"{name}_rows"] = len(sessions)
        facts[f"{name}_users"] = len(users)
    (out_dir / "battery_offsets.csv").write_text(_offsets_text(users_all))
    return facts
