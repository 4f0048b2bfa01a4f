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

Both steps are one pass over start-sorted intervals: ``_runs`` is the split
rule, and ``_multidevice`` the component rule, which yields only the
components that hold both device types.

``construction_stats`` reads everything from the usage and multidevice
sessions: app-session counts and single-device relations from the gaps
inside each usage session (gap 0 meets, any other precedes within the
window), so they must be built at the ``tw`` it is given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, islice
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, Sequence, TextIO

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


def _runs(ordered: Sequence[AppSession], tw: int) -> Iterator[tuple[int, int]]:
    """Index ranges ``[lo, hi)`` of the usage sessions in one device's
    start-sorted app sessions: a run ends where the next one starts more
    than ``tw`` seconds after the previous one ends."""
    lo = 0
    for i in range(1, len(ordered)):
        if ordered[i].start - ordered[i - 1].end > tw:
            yield lo, i
            lo = i
    if ordered:
        yield lo, len(ordered)


def _multidevice(spans: Sequence[tuple[int, int, str]], tw: int) -> Iterator[tuple[int, int, int]]:
    """``(lo, hi, end)`` of each multidevice session in non-empty, start-sorted
    ``(start, end, device_type, ...)`` spans: the index range ``[lo, hi)`` of a
    connected component under the linked relation that holds both device
    types, and the latest end in it.

    Two spans link iff neither starts more than ``tw`` seconds after the
    other ends, so a component ends where the next span starts more than
    ``tw`` after the latest end seen so far.
    """
    lo, reach = 0, spans[0][1]
    # A last span later than any window reaches closes the last component.
    for hi, span in enumerate(chain(islice(spans, 1, None), [(float("inf"), 0)]), 1):
        if span[0] - reach > tw:
            if hi - lo > 1 and len({s[2] for s in spans[lo:hi]}) > 1:
                yield lo, hi, reach
            lo, reach = hi, span[1]
        elif span[1] > reach:
            reach = span[1]


def build_usage_sessions(panel: Panel, tw: int) -> list[UsageSession]:
    """Greedy left-to-right merge of each device stream of ``panel``.

    An app session joins the current usage session iff it meets or follows
    the previous one with a gap of at most ``tw`` seconds (inclusive).
    """
    _check_tw(tw)
    out: list[UsageSession] = []
    for user_id, devices in panel.users.items():
        for device_id, ordered in devices.items():
            # seconds[k]: the summed durations of the device's first k app
            # sessions, so a run's interaction time is one difference.
            seconds = list(accumulate([a.end - a.start for a in ordered], initial=0))
            for i, (lo, hi) in enumerate(_runs(ordered, tw)):
                out.append(
                    UsageSession(
                        id=f"{user_id}/{device_id}/u{i}",
                        user_id=user_id,
                        device_id=device_id,
                        device_type=ordered[lo].device_type,
                        app_sessions=ordered[lo:hi],
                        start=ordered[lo].start,
                        end=ordered[hi - 1].end,
                        interaction_seconds=seconds[hi] - seconds[lo],
                    )
                )
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
    component is a contiguous run of the user's sessions in start order and
    one pass finds it.
    """
    usage_sessions = build_usage_sessions(panel, tw)
    md_sessions: list[MultideviceSession] = []
    for user_id, user_sessions in groupby(usage_sessions, lambda s: s.user_id):
        # Equal starts go in device order: a session id need not sort as its
        # device does ("a!/u0" < "a/u0").
        sessions = sorted(user_sessions, key=lambda s: (s.start, s.device_id))
        spans = [(s.start, s.end, s.device_type) for s in sessions]
        for i, (lo, hi, end) in enumerate(_multidevice(spans, tw)):
            members = sessions[lo:hi]
            for m in members:
                m.purity = MIXED
            md_sessions.append(
                MultideviceSession(
                    id=f"{user_id}/md{i}",
                    user_id=user_id,
                    members=members,
                    start=spans[lo][0],
                    end=end,
                )
            )
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
