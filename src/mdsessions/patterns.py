"""Binary activity matrices for multidevice sessions and nearest-prototype
grouping.

A multidevice session maps to a 2-row binary matrix (row 0 smartphone,
row 1 tablet) with one column per second of the session hull.  Each matrix
is resized to 4 columns by linear interpolation and assigned to the nearest,
in the Frobenius norm, of the 256 possible 2x4 binary prototypes; the
prototype id is the 8-bit integer of row 0's bits followed by row 1's.

``to_matrix``, ``resize`` and ``assign_group`` spell that out and are the
tests' oracle.  ``assign_groups`` reads the same ids from 8 seconds: every
resized value lies within float error of 0, 1/3, 2/3 or 1, so the nearest
prototype rounds each cell, which is the bit of the second nearest its
column.  It pairs each session with its group once; ``group_frequencies``
and ``category_contrast`` take those pairs.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections import Counter
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .construction import MultideviceSession, UsageSession
from .descriptive import _sum_by

PROTOTYPE_COLS = 4
N_PROTOTYPES = 2 ** (2 * PROTOTYPE_COLS)

_ROW_INDEX = {"smartphone": 0, "tablet": 1}
_APP_START = attrgetter("interval.start")


def prototype_matrix(group_id: int) -> np.ndarray:
    """The 2x4 binary matrix encoded by ``group_id`` (0-255)."""
    if not 0 <= group_id < N_PROTOTYPES:
        raise ValueError(f"prototype id out of range: {group_id}")
    bits = [(group_id >> (7 - i)) & 1 for i in range(8)]
    return np.array([bits[:4], bits[4:]], dtype=float)


def prototype_id(matrix: np.ndarray) -> int:
    """Inverse of :func:`prototype_matrix`."""
    m = np.asarray(matrix)
    if m.shape != (2, PROTOTYPE_COLS):
        raise ValueError(f"expected a 2x4 matrix, got shape {m.shape}")
    if not np.all((m == 0) | (m == 1)):
        raise ValueError("prototype matrix must be binary")
    return int("".join(str(int(v)) for v in m.ravel()), 2)


@functools.cache
def _all_prototypes() -> np.ndarray:
    return np.stack([prototype_matrix(i) for i in range(N_PROTOTYPES)])


def to_matrix(mds: MultideviceSession, coverage: str = "half_open") -> np.ndarray:
    """Binary 2xN activity matrix over the session hull at 1s granularity.

    ``coverage`` selects the second-coverage convention: ``half_open`` marks
    seconds [start, end) of each app session (the internal default);
    ``closed`` marks [start, end] inclusive.
    """
    if coverage not in ("half_open", "closed"):
        raise ValueError(f"unknown coverage convention: {coverage!r}")
    extra = 1 if coverage == "closed" else 0
    origin = mds.interval.start
    cols = mds.interval.duration + extra
    m = np.zeros((2, cols), dtype=float)
    for member in mds.members:
        row = _ROW_INDEX[member.device_type]
        for app in member.app_sessions:
            lo = app.interval.start - origin
            hi = app.interval.end - origin + extra
            m[row, lo:hi] = 1.0
    return m


def resize(matrix: np.ndarray, target_cols: int) -> np.ndarray:
    """Resample each row to ``target_cols`` by linear interpolation.

    Rows are treated as samples at normalized positions j/(cols-1);
    single-column rows broadcast their value.  Resizing to the same length
    is the identity and values stay within [0, 1] for binary input.
    """
    if target_cols < 1:
        raise ValueError("target_cols must be >= 1")
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    if cols == target_cols:
        return m.copy()
    if cols == 1:
        return np.repeat(m, target_cols, axis=1)
    src = np.linspace(0.0, 1.0, cols)
    dst = np.linspace(0.0, 1.0, target_cols)
    return np.stack([np.interp(dst, src, m[r]) for r in range(rows)])


def assign_group(matrix: np.ndarray) -> int:
    """Nearest-prototype id for a session matrix; ties go to the lowest id."""
    diffs = _all_prototypes() - resize(matrix, PROTOTYPE_COLS)[None, :, :]
    return int(np.argmin(np.einsum("kij,kij->k", diffs, diffs)))


def _covered(members: Sequence[UsageSession], t: int) -> bool:
    """Whether second ``t`` lies in an app session of one of ``members``."""
    for m in members:
        if m.interval.start <= t < m.interval.end:
            apps = m.app_sessions
            if t < apps[bisect_right(apps, t, key=_APP_START) - 1].interval.end:
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
    origin, last = mds.interval.start, mds.interval.duration - 1
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
    complement uses c, +1.0 when only the group uses it, and 0 when neither.
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
            elif s_in > 0:
                contrast[cat] = 1.0
            else:
                contrast[cat] = 0.0
        result[dt] = contrast
    return result


def matrix_bits(group_id: int) -> str:
    return format(group_id, "08b")

