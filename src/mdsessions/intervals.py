"""Allen's thirteen interval relations and the timeout-window check.

All timestamps are integer seconds since the Unix epoch (UTC).  Intervals have
strictly positive duration, so every ordered pair of intervals satisfies
exactly one of the thirteen relations.

``Interval`` is a slotted dataclass ordered by (start, end). It is mutable
and so not hashable; key by ``(start, end)``. ``classify`` reads only
``start`` and ``end``, so the session records, which hold those two fields
themselves, can be passed as they are.

The linkage predicate ``link`` and ``converse`` are the tests' references,
in ``tests/oracles.py``.
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


def _check_tw(tw: int) -> None:
    if not 0 <= tw < float("inf"):
        raise ValueError(f"timeout window must be non-negative and finite, got {tw}")
