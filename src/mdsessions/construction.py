"""Usage-session construction: timeout merging per device, cross-device
grouping into multidevice sessions, and construction statistics.

Construction is a two-step process over an ``ingest.Panel``: first each
device's stream of app sessions is merged greedily left-to-right whenever
the gap to the previous session is at most the timeout window; then usage
sessions of different devices that link (simultaneous, meeting, or preceding
within the window) are collapsed into multidevice sessions via connected
components; ``build_multidevice_sessions`` runs both at one ``tw``.
``ingest.normalize`` hands over each stream start-sorted and overlap-free,
so nothing here groups or sorts app sessions again.

Both steps are one pass over start-sorted intervals: ``build_usage_sessions``
cuts a device stream where a gap exceeds the window, and
``build_multidevice_sessions`` starts a component where a usage session
starts more than the window after the latest end so far, keeping the
components that hold both device types.

``construction_stats`` reads everything from the usage and multidevice
sessions: app-session counts and single-device relations from the gaps
inside each usage session (gap 0 meets, any other precedes within the
window), so they must be built at the ``tw`` it is given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, groupby
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, sub
from typing import Iterable, TextIO

from .ingest import AppSession, DEVICE_TYPES, Panel
from .intervals import AllenRelation, _check_tw, _Span, classify

PURE = "pure"
MIXED = "mixed"

# Share-table names of precedes and precededBy for a gap within the window.
_WITHIN_TW = {AllenRelation.PRECEDES: "precedesWithinTW",
              AllenRelation.PRECEDED_BY: "precededByWithinTW"}


@dataclass(slots=True)
class UsageSession(_Span):
    """A maximal run of app sessions on one device under the timeout window,
    from the first one's ``start`` to the last one's ``end``.

    ``interaction_seconds`` is the sum of the app-session durations; it is
    given when the record is made (``build_usage_sessions`` sets it) and not
    recomputed if ``app_sessions`` changes.
    """

    id: str
    user_id: str
    device_id: str
    device_type: str
    app_sessions: list[AppSession]
    start: int
    end: int
    interaction_seconds: int
    purity: str = PURE


@dataclass(slots=True)
class MultideviceSession(_Span):
    """A connected component of usage sessions spanning both device types,
    from the earliest member start to the latest member end."""

    id: str
    user_id: str
    members: list[UsageSession]
    start: int
    end: int

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


def build_usage_sessions(panel: Panel, tw: int) -> list[UsageSession]:
    """Greedy left-to-right merge of each device stream of ``panel``.

    An app session joins the current usage session iff it meets or follows
    the previous one with a gap of at most ``tw`` seconds (inclusive).
    """
    _check_tw(tw)
    out: list[UsageSession] = []
    for user_id, devices in panel.users.items():
        for device_id, ordered in devices.items():
            starts = [a.start for a in ordered]
            ends = [a.end for a in ordered]
            # seconds[k]: the summed durations of the device's first k app
            # sessions, so a run's interaction time is one difference.
            seconds = list(accumulate(map(sub, ends, starts), initial=0))
            # Usage sessions start at index 0 and at each app session that
            # starts more than tw seconds after the previous one ends.
            cuts = [i for i in range(1, len(ordered)) if starts[i] - ends[i - 1] > tw]
            device_type = ordered[0].device_type  # a stream holds one device type
            for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(ordered)])):
                # Positional fields: id, user_id, device_id, device_type,
                # app_sessions, start, end, interaction_seconds.
                out.append(UsageSession(
                    f"{user_id}/{device_id}/u{i}", user_id, device_id, device_type,
                    ordered[lo:hi], starts[lo], ends[hi - 1], seconds[hi] - seconds[lo]))
    return out


def build_multidevice_sessions(
    panel: Panel, tw: int
) -> tuple[list[MultideviceSession], list[UsageSession]]:
    """The multidevice sessions of ``panel`` at ``tw``, and the usage sessions
    ``build_usage_sessions(panel, tw)`` they are made of.

    Edges exist only between sessions of different devices that link under
    ``tw``; components containing at least two device types become
    multidevice sessions and their members are marked mixed. No two usage
    sessions of one device link at the ``tw`` that split them, so every
    component is a contiguous run of the user's sessions in start order: a
    new one starts where a session starts more than ``tw`` seconds after the
    latest end so far.
    """
    usage_sessions = build_usage_sessions(panel, tw)
    md_sessions: list[MultideviceSession] = []
    for user_id, user_sessions in groupby(usage_sessions, attrgetter("user_id")):
        # A stable sort: equal starts stay in the Panel's device order.
        sessions = sorted(user_sessions, key=attrgetter("start"))
        cuts, reach = [], sessions[0].end
        for i, s in enumerate(sessions):
            if s.start - reach > tw:
                cuts.append(i)
            if s.end > reach:
                reach = s.end
        n = 0
        for lo, hi in zip([0, *cuts], [*cuts, len(sessions)]):
            if hi - lo > 1 and len({s.device_type for s in sessions[lo:hi]}) > 1:
                members = sessions[lo:hi]
                for m in members:
                    m.purity = MIXED
                md_sessions.append(
                    MultideviceSession(
                        id=f"{user_id}/md{n}",
                        user_id=user_id,
                        members=members,
                        start=members[0].start,
                        end=max(m.end for m in members),
                    )
                )
                n += 1
    return md_sessions, usage_sessions


def construction_stats(
    usage_sessions: list[UsageSession],
    md_sessions: list[MultideviceSession],
    tw: int,
) -> ConstructionStats:
    """Construction counts and relation-share tables.

    Single-device shares count, for every adjacent same-device app-session
    pair within the timeout window, the relation in both directions: a gap
    of 0 is ``meets``/``metBy``, a gap in (0, tw] ``precedesWithinTW``/
    ``precededByWithinTW``.  Those are the adjacent pairs inside one usage
    session, so ``usage_sessions`` and ``md_sessions`` must be built at this
    ``tw``.

    Multidevice shares count every (smartphone, tablet) usage-session pair
    within one multidevice session, oriented smartphone-relation-tablet.
    """
    _check_tw(tw)
    app_counts, usage_counts, meets = Counter(), Counter(), Counter()
    for us in usage_sessions:
        apps = us.app_sessions
        app_counts[us.device_type] += len(apps)
        usage_counts[us.device_type] += 1
        end = apps[0].end
        for a in apps[1:]:
            if a.start == end:
                meets[us.device_type] += 1
            end = a.end
    counts = {dt: {"app_sessions": app_counts[dt], "usage_sessions": usage_counts[dt]}
              for dt in DEVICE_TYPES}
    counts["multidevice"] = {
        "app_sessions": sum(len(u.app_sessions) for m in md_sessions for u in m.members),
        "usage_sessions": sum(len(m.members) for m in md_sessions),
        "multidevice_sessions": len(md_sessions),
    }

    shares: dict[str, dict[str, float]] = {}
    for dt in DEVICE_TYPES:
        # A usage session of k app sessions holds k - 1 adjacent pairs.
        within = app_counts[dt] - usage_counts[dt] - meets[dt]
        shares[dt] = _to_percentages({"meets": meets[dt], "metBy": meets[dt],
                                      **dict.fromkeys(_WITHIN_TW.values(), within)})

    md_tally = Counter()
    for md in md_sessions:
        phones = [m for m in md.members if m.device_type == "smartphone"]
        tablets = [m for m in md.members if m.device_type == "tablet"]
        for p in phones:
            for t in tablets:
                rel = classify(p, t)
                # Only one of the two differences is positive: the gap.
                in_window = rel in _WITHIN_TW and max(t.start - p.end, p.start - t.end) <= tw
                md_tally[_WITHIN_TW[rel] if in_window else rel.value] += 1
    shares["multidevice"] = _to_percentages(md_tally)

    return ConstructionStats(counts=counts, relation_shares=shares)


def _to_percentages(tally: dict[str, int]) -> dict[str, float]:
    total = sum(tally.values())
    if total == 0:
        return {}
    return {k: 100.0 * v / total for k, v in sorted(tally.items()) if v}


def write_usage_sessions_jsonl(sessions: Iterable[UsageSession], stream: TextIO) -> None:
    """One line per usage session, byte for byte
    ``json.dumps(record, sort_keys=True) + "\\n"``: keys sorted, ", " and ": "
    as separators, strings escaped to ASCII as ``json`` escapes them.

    The record holds ``id``, ``user_id``, ``device_id``, ``device_type``,
    ``start``, ``end``, ``purity`` and ``app_sessions``, a list of
    ``{app_id, app_category, start, end}``.
    """
    for s in sessions:
        apps = ", ".join([
            f'{{"app_category": {_json_str(a.app_category)}, "app_id": {_json_str(a.app_id)}, '
            f'"end": {a.end}, "start": {a.start}}}'
            for a in s.app_sessions
        ])
        stream.write(
            f'{{"app_sessions": [{apps}], "device_id": {_json_str(s.device_id)}, '
            f'"device_type": {_json_str(s.device_type)}, "end": {s.end}, '
            f'"id": {_json_str(s.id)}, "purity": {_json_str(s.purity)}, '
            f'"start": {s.start}, "user_id": {_json_str(s.user_id)}}}\n'
        )


def write_md_sessions_jsonl(sessions: Iterable[MultideviceSession], stream: TextIO) -> None:
    """One line per multidevice session, byte for byte
    ``json.dumps(record, sort_keys=True) + "\\n"`` as in
    ``write_usage_sessions_jsonl``. The record holds ``id``, ``user_id``,
    ``start``, ``end`` and ``members``, the member usage-session ids.
    """
    for s in sessions:
        members = ", ".join([_json_str(m.id) for m in s.members])
        stream.write(
            f'{{"end": {s.end}, "id": {_json_str(s.id)}, "members": [{members}], '
            f'"start": {s.start}, "user_id": {_json_str(s.user_id)}}}\n'
        )
