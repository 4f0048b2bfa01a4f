"""Usage-session construction: timeout merging per device, cross-device
grouping into multidevice sessions, and construction statistics.

Construction is a two-step process: first app sessions on each device are
merged greedily left-to-right whenever the gap to the previous session is at
most the timeout window; then usage sessions of different devices that link
(simultaneous, meeting, or preceding within the window) are collapsed into
multidevice sessions via connected components.

Both steps are one pass over start-sorted intervals: ``_runs`` is the split
rule and ``_components`` the component rule, shared with the timeout sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from .ingest import AppSession, DEVICE_TYPES, group_by_device
from .intervals import AllenRelation, Interval, classify, link

PURE = "pure"
MIXED = "mixed"

# Relation keys used in the construction-statistics share tables.
PRECEDES_WITHIN_TW = "precedesWithinTW"
PRECEDED_BY_WITHIN_TW = "precededByWithinTW"


@dataclass
class UsageSession:
    """A maximal run of app sessions on one device under the timeout window."""

    id: str
    user_id: str
    device_id: str
    device_type: str
    app_sessions: list[AppSession]
    interval: Interval
    purity: str = PURE

    @property
    def interaction_seconds(self) -> int:
        return sum(s.interval.duration for s in self.app_sessions)


@dataclass
class MultideviceSession:
    """A connected component of usage sessions spanning both device types."""

    id: str
    user_id: str
    members: list[UsageSession]
    interval: Interval

    @property
    def app_sessions(self) -> list[AppSession]:
        return [a for m in self.members for a in m.app_sessions]

    @property
    def interaction_seconds(self) -> int:
        return sum(m.interaction_seconds for m in self.members)


@dataclass
class ConstructionStats:
    counts: dict[str, dict[str, int]]
    relation_shares: dict[str, dict[str, float]]


def _device_streams(
    app_sessions: Iterable[AppSession],
) -> Iterator[tuple[tuple[str, str], list[AppSession], list[Interval]]]:
    """Each device's app sessions sorted by start, with their intervals.

    Raises ``ValueError`` for an unsupported device type and for app
    sessions of one device that overlap, which ``ingest.normalize`` resolves.
    """
    for device, ordered in group_by_device(app_sessions, key=lambda s: s.interval.start):
        for s in ordered:
            if s.device_type not in DEVICE_TYPES:
                raise ValueError(f"unsupported device type: {s.device_type!r}")
        intervals = [s.interval for s in ordered]
        for a, b in zip(intervals, intervals[1:]):
            if b.start < a.end:
                raise ValueError(f"app sessions overlap on device {'/'.join(device)}: {a}, {b}")
        yield device, ordered, intervals


def _runs(ordered: Sequence[Interval], tw: int) -> Iterator[tuple[int, int]]:
    """Index ranges ``[lo, hi)`` of the usage sessions in one device's
    start-sorted intervals: a run ends where the next interval starts more
    than ``tw`` seconds after the previous one ends."""
    lo = 0
    for i in range(1, len(ordered)):
        if ordered[i].start - ordered[i - 1].end > tw:
            yield lo, i
            lo = i
    if ordered:
        yield lo, len(ordered)


def _components(spans: Sequence[tuple[int, int]], tw: int) -> Iterator[tuple[int, int]]:
    """Index ranges ``[lo, hi)`` of the connected components of start-sorted
    ``(start, end, ...)`` spans under the linked relation.

    Two spans link iff neither starts more than ``tw`` seconds after the
    other ends, so a component ends where the next span starts more than
    ``tw`` after the latest end seen so far.
    """
    if not spans:
        return
    lo, reach = 0, spans[0][1]
    for i in range(1, len(spans)):
        span = spans[i]
        if span[0] - reach > tw:
            yield lo, i
            lo, reach = i, span[1]
        elif span[1] > reach:
            reach = span[1]
    yield lo, len(spans)


def build_usage_sessions(
    app_sessions: Iterable[AppSession], tw: int
) -> list[UsageSession]:
    """Greedy left-to-right merge of normalized app sessions, per device.

    An app session joins the current usage session iff it meets or follows
    the previous one with a gap of at most ``tw`` seconds (inclusive).
    """
    out: list[UsageSession] = []
    for (user_id, device_id), ordered, intervals in _device_streams(app_sessions):
        for i, (lo, hi) in enumerate(_runs(intervals, tw)):
            out.append(
                UsageSession(
                    id=f"{user_id}/{device_id}/u{i}",
                    user_id=user_id,
                    device_id=device_id,
                    device_type=ordered[lo].device_type,
                    app_sessions=ordered[lo:hi],
                    interval=Interval(intervals[lo].start, intervals[hi - 1].end),
                )
            )
    return out


def build_multidevice_sessions(
    usage_sessions: list[UsageSession], tw: int
) -> tuple[list[MultideviceSession], list[UsageSession]]:
    """Group usage sessions into multidevice sessions per user.

    Edges exist only between sessions of different devices that link under
    ``tw``; components containing at least two device types become
    multidevice sessions and their members are marked mixed.

    Precondition: ``usage_sessions`` were built by ``build_usage_sessions``
    at the same ``tw``. Then no two sessions of one device link, so every
    component is a contiguous run of the user's sessions in start order and
    one pass finds it.
    """
    if tw < 0:
        raise ValueError(f"timeout window must be non-negative, got {tw}")
    by_user: dict[str, list[UsageSession]] = {}
    for us in usage_sessions:
        us.purity = PURE
        by_user.setdefault(us.user_id, []).append(us)

    md_sessions: list[MultideviceSession] = []
    for user_id in sorted(by_user):
        sessions = sorted(by_user[user_id], key=lambda s: (s.interval.start, s.id))
        spans = [(s.interval.start, s.interval.end) for s in sessions]
        md_index = 0
        for lo, hi in _components(spans, tw):
            members = sessions[lo:hi]
            if len({m.device_type for m in members}) < 2:
                continue
            for m in members:
                m.purity = MIXED
            md_sessions.append(
                MultideviceSession(
                    id=f"{user_id}/md{md_index}",
                    user_id=user_id,
                    members=members,
                    interval=Interval(spans[lo][0], max(end for _, end in spans[lo:hi])),
                )
            )
            md_index += 1
    return md_sessions, usage_sessions


def _tw_relation_key(a: Interval, b: Interval, tw: int) -> str | None:
    """Relation name with the within-TW refinement for disjoint intervals.

    Returns None when the intervals are disjoint beyond the window (the
    "no relation" case of the construction statistics).
    """
    verdict = link(a, b, tw)
    if verdict.relation is AllenRelation.PRECEDES:
        return PRECEDES_WITHIN_TW if verdict.linked else None
    if verdict.relation is AllenRelation.PRECEDED_BY:
        return PRECEDED_BY_WITHIN_TW if verdict.linked else None
    return verdict.relation.value


def construction_stats(
    app_sessions: list[AppSession],
    usage_sessions: list[UsageSession],
    md_sessions: list[MultideviceSession],
    tw: int,
) -> ConstructionStats:
    """Construction counts and relation-share tables.

    Single-device shares count, for every adjacent same-device app-session
    pair that is within the timeout window, the relation in both directions.
    Multidevice shares count every (smartphone, tablet) usage-session pair
    within one multidevice session, oriented smartphone-relation-tablet.
    """
    counts = {
        dt: {
            "app_sessions": sum(1 for s in app_sessions if s.device_type == dt),
            "usage_sessions": sum(1 for s in usage_sessions if s.device_type == dt),
        }
        for dt in DEVICE_TYPES
    }
    counts["multidevice"] = {
        "app_sessions": sum(len(m.app_sessions) for m in md_sessions),
        "usage_sessions": sum(len(m.members) for m in md_sessions),
        "multidevice_sessions": len(md_sessions),
    }

    shares: dict[str, dict[str, float]] = {}
    for dt in DEVICE_TYPES:
        tally: dict[str, int] = {}
        subset = (s for s in app_sessions if s.device_type == dt)
        for _, ordered in group_by_device(subset, key=lambda s: s.interval.start):
            for a, b in zip(ordered, ordered[1:]):
                for x, y in ((a, b), (b, a)):
                    key = _tw_relation_key(x.interval, y.interval, tw)
                    if key is not None:
                        tally[key] = tally.get(key, 0) + 1
        shares[dt] = _to_percentages(tally)

    md_tally: dict[str, int] = {}
    for md in md_sessions:
        phones = [m for m in md.members if m.device_type == "smartphone"]
        tablets = [m for m in md.members if m.device_type == "tablet"]
        for p in phones:
            for t in tablets:
                key = _tw_relation_key(p.interval, t.interval, tw)
                if key is None:
                    key = classify(p.interval, t.interval).value
                md_tally[key] = md_tally.get(key, 0) + 1
    shares["multidevice"] = _to_percentages(md_tally)

    return ConstructionStats(counts=counts, relation_shares=shares)


def _to_percentages(tally: dict[str, int]) -> dict[str, float]:
    total = sum(tally.values())
    if total == 0:
        return {}
    return {k: 100.0 * v / total for k, v in sorted(tally.items())}


def write_usage_sessions_jsonl(sessions: Iterable[UsageSession], stream: TextIO) -> None:
    for s in sessions:
        stream.write(
            json.dumps(
                {
                    "id": s.id,
                    "user_id": s.user_id,
                    "device_id": s.device_id,
                    "device_type": s.device_type,
                    "start": s.interval.start,
                    "end": s.interval.end,
                    "purity": s.purity,
                    "app_sessions": [
                        {
                            "app_id": a.app_id,
                            "app_category": a.app_category,
                            "start": a.interval.start,
                            "end": a.interval.end,
                        }
                        for a in s.app_sessions
                    ],
                },
                sort_keys=True,
            )
            + "\n"
        )


def write_md_sessions_jsonl(sessions: Iterable[MultideviceSession], stream: TextIO) -> None:
    for s in sessions:
        stream.write(
            json.dumps(
                {
                    "id": s.id,
                    "user_id": s.user_id,
                    "start": s.interval.start,
                    "end": s.interval.end,
                    "members": [m.id for m in s.members],
                },
                sort_keys=True,
            )
            + "\n"
        )
