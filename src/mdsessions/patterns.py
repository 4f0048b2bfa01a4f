"""Nearest-prototype grouping of multidevice sessions, and the pattern
reports built on it.

A multidevice session maps to a 2-row binary matrix (row 0 smartphone,
row 1 tablet) with one column per second of the session hull.  Each matrix
is resized to 4 columns by linear interpolation and assigned to the nearest,
in the Frobenius norm, of the 256 possible 2x4 binary prototypes; the
prototype id is the 8-bit integer of row 0's bits followed by row 1's.

:mod:`mdsessions.prototypes` spells that definition out with numpy
(``to_matrix``, ``resize``, ``assign_group``) and is the tests' oracle.
``assign_groups`` reads the same ids from 8 seconds, without numpy: every
resized value lies within float error of 0, 1/3, 2/3 or 1, so the nearest
prototype rounds each cell, which is the bit of the second nearest its
column.  It pairs each session with its group once; ``group_frequencies``
and ``category_contrast`` take those pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from operator import attrgetter
from typing import Iterable, Sequence

from .construction import MultideviceSession, UsageSession
from .descriptive import _sum_by

PROTOTYPE_COLS = 4
N_PROTOTYPES = 2 ** (2 * PROTOTYPE_COLS)

_ROW_INDEX = {"smartphone": 0, "tablet": 1}
_APP_START = attrgetter("start")


def _covered(members: Sequence[UsageSession], t: int) -> bool:
    """Whether second ``t`` lies in an app session of one of ``members``."""
    for m in members:
        if m.start <= t < m.end:
            apps = m.app_sessions
            if t < apps[bisect_right(apps, t, key=_APP_START) - 1].end:
                return True
    return False


def _group(mds: MultideviceSession) -> int:
    """``assign_group(to_matrix(mds))`` from the 8 seconds nearest the
    resized columns.

    Resized column k lies k(n-1)/d seconds into a hull of n seconds, with
    d = PROTOTYPE_COLS - 1 = 3, so its fractional part is 0, 1/3 or 2/3 and
    its value is within float error of 0, 1/3, 2/3 or 1, never near 0.5.
    The squared Frobenius norm adds up per cell, so the nearest prototype
    rounds each cell: the bit of the nearest second, ``(k(n-1) + 1) // 3``.
    This needs d odd; were it even, a column could fall halfway between
    seconds.
    """
    origin, last = mds.start, mds.duration - 1
    d = PROTOTYPE_COLS - 1
    group = 0
    for device_type in _ROW_INDEX:
        members = [m for m in mds.members if m.device_type == device_type]
        for k in range(PROTOTYPE_COLS):
            group = group << 1 | _covered(members, origin + (k * last + d // 2) // d)
    return group


def assign_groups(
    md_sessions: Sequence[MultideviceSession],
) -> list[tuple[MultideviceSession, int]]:
    """Each session paired with ``assign_group(to_matrix(session))``."""
    return [(m, _group(m)) for m in md_sessions]


def group_frequencies(
    assigned: Sequence[tuple[MultideviceSession, int]],
) -> tuple[dict[int, float], dict[int, float]]:
    """Overall and per-user-mean group shares, in percent, of the
    ``(session, group id)`` pairs of :func:`assign_groups`.

    The overall share is over all sessions; the per-user figure averages
    each user's own share distribution with equal user weight.
    """
    if not assigned:
        raise ValueError("no multidevice sessions")
    overall = Counter(g for _, g in assigned)

    by_user: dict[str, list[int]] = {}
    for m, g in assigned:
        by_user.setdefault(m.user_id, []).append(g)
    per_user: dict[int, float] = {}
    for user_groups in by_user.values():
        for g, n in Counter(user_groups).items():
            per_user[g] = per_user.get(g, 0.0) + 100.0 * n / len(user_groups) / len(by_user)
    return ({g: 100.0 * n / len(assigned) for g, n in sorted(overall.items())},
            dict(sorted(per_user.items())))


def _category_shares(
    md_sessions: Iterable[MultideviceSession], device_type: str
) -> dict[str, float]:
    seconds = _sum_by(
        (app for md in md_sessions for m in md.members if m.device_type == device_type
         for app in m.app_sessions),
        lambda app: app.app_category,
    )
    total = sum(seconds.values())
    if total == 0:
        return {}
    return {c: v / total for c, v in seconds.items()}


def category_contrast(
    assigned: Sequence[tuple[MultideviceSession, int]], group_id: int
) -> dict[str, dict[str, float]]:
    """Signed relative differences in normalized category usage between the
    sessions of one prototype group and its complement, per device type,
    over the ``(session, group id)`` pairs of :func:`assign_groups`.

    The value for category c is (in_share - out_share) / out_share when the
    complement uses c and +1.0 when only the group uses it.
    """
    in_group = [m for m, g in assigned if g == group_id]
    out_group = [m for m, g in assigned if g != group_id]
    if not in_group:
        raise ValueError(f"group {group_id} has no sessions")
    if not out_group:
        raise ValueError(f"group {group_id} has an empty complement")

    result: dict[str, dict[str, float]] = {}
    for dt in _ROW_INDEX:
        inside = _category_shares(in_group, dt)
        outside = _category_shares(out_group, dt)
        contrast: dict[str, float] = {}
        for cat in sorted(set(inside) | set(outside)):
            s_in, s_out = inside.get(cat, 0.0), outside.get(cat, 0.0)
            if s_out > 0:
                contrast[cat] = (s_in - s_out) / s_out
            else:
                contrast[cat] = 1.0
        result[dt] = contrast
    return result


def matrix_bits(group_id: int) -> str:
    return format(group_id, "08b")

