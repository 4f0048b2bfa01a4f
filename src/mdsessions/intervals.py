"""Allen's thirteen interval relations plus the timeout-window linkage predicate.

All timestamps are integer seconds since the Unix epoch (UTC).  Intervals have
strictly positive duration, so every ordered pair of intervals satisfies
exactly one of the thirteen relations.

``Interval`` is a slotted dataclass ordered by (start, end). It is mutable
and so not hashable; key by ``(start, end)``. ``classify`` and ``link`` read
only ``start`` and ``end``, so the session records, which hold those two
fields themselves, can be passed as they are.

``link`` is the linkage predicate as a bool, read off ``classify``'s
relation; the tests use it as their reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class AllenRelation(str, Enum):
    PRECEDES = "precedes"
    MEETS = "meets"
    OVERLAPS = "overlaps"
    FINISHED_BY = "finishedBy"
    ENCLOSES = "encloses"
    STARTS = "starts"
    EQUIVALENT = "equivalent"
    STARTED_BY = "startedBy"
    ENCLOSED_BY = "enclosedBy"
    FINISHES = "finishes"
    OVERLAPPED_BY = "overlappedBy"
    MET_BY = "metBy"
    PRECEDED_BY = "precededBy"


# The six converse pairs; equivalent is self-converse.
_CONVERSE = {
    AllenRelation.PRECEDES: AllenRelation.PRECEDED_BY,
    AllenRelation.MEETS: AllenRelation.MET_BY,
    AllenRelation.OVERLAPS: AllenRelation.OVERLAPPED_BY,
    AllenRelation.FINISHED_BY: AllenRelation.FINISHES,
    AllenRelation.ENCLOSES: AllenRelation.ENCLOSED_BY,
    AllenRelation.STARTS: AllenRelation.STARTED_BY,
    AllenRelation.EQUIVALENT: AllenRelation.EQUIVALENT,
}
_CONVERSE.update({v: k for k, v in _CONVERSE.items()})


class _Span:
    """Base of ``Interval`` and the session records, slotted dataclasses with
    integer ``start`` and ``end`` fields: ``0 <= start < end`` is checked when
    the record is made (not on assignment)."""

    __slots__ = ()

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"interval start must be non-negative, got {self.start}")
        if self.start >= self.end:
            raise ValueError(
                f"interval must have positive duration, got [{self.start}, {self.end}]"
            )

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(slots=True, order=True)
class Interval(_Span):
    """A finite time interval with integer endpoints, start < end."""

    start: int
    end: int


def classify(a: Interval, b: Interval) -> AllenRelation:
    """Return the unique Allen relation of ``a`` with respect to ``b``."""
    if a.end < b.start:
        return AllenRelation.PRECEDES
    if a.end == b.start:
        return AllenRelation.MEETS
    if a.start == b.end:
        return AllenRelation.MET_BY
    if a.start > b.end:
        return AllenRelation.PRECEDED_BY
    # From here the intervals share at least one instant of interior time.
    if a.start == b.start:
        if a.end == b.end:
            return AllenRelation.EQUIVALENT
        return AllenRelation.STARTS if a.end < b.end else AllenRelation.STARTED_BY
    if a.end == b.end:
        return AllenRelation.FINISHES if a.start > b.start else AllenRelation.FINISHED_BY
    if a.start < b.start:
        return AllenRelation.ENCLOSES if a.end > b.end else AllenRelation.OVERLAPS
    return AllenRelation.ENCLOSED_BY if a.end < b.end else AllenRelation.OVERLAPPED_BY


def converse(r: AllenRelation) -> AllenRelation:
    """Relation of b to a, given the relation of a to b."""
    return _CONVERSE[r]


def _check_tw(tw: int) -> None:
    if tw < 0:
        raise ValueError(f"timeout window must be non-negative, got {tw}")


def link(a: Interval, b: Interval, tw: int) -> bool:
    """Whether two intervals belong together under timeout window ``tw``.

    Simultaneous and meeting intervals always link; disjoint intervals link
    iff their gap is at most ``tw`` seconds (boundary inclusive).
    """
    _check_tw(tw)
    rel = classify(a, b)
    if rel is AllenRelation.PRECEDES:
        return b.start - a.end <= tw
    if rel is AllenRelation.PRECEDED_BY:
        return a.start - b.end <= tw
    return True
