"""Reference implementations that the tests compare the package against.

No command runs these; each spells a definition out the direct way:

- ``link`` and ``converse``: the timeout-window linkage predicate as a bool,
  read off ``classify``'s relation, and the converse of an Allen relation.
- ``prototype_matrix``, ``prototype_id``, ``to_matrix``, ``resize`` and
  ``assign_group``: the matrix definition of prototype grouping, with numpy.
  ``patterns.assign_groups`` reads the same ids from 8 seconds without
  building a matrix.
- ``timeout_sweep``: the timeout sweep that re-splits every device stream
  and re-links every user at each grid point.
  ``descriptive.timeout_sweep`` counts the same from per-session
  thresholds.
"""

from __future__ import annotations

import functools
import statistics
from typing import Sequence

import numpy as np

from mdsessions.construction import MultideviceSession, _multidevice, _runs
from mdsessions.descriptive import DEFAULT_TW_GRID, SESSION_CLASSES, SweepPoint
from mdsessions.ingest import DEVICE_TYPES, Panel
from mdsessions.intervals import AllenRelation, Interval, _check_tw, classify
from mdsessions.patterns import _ROW_INDEX, N_PROTOTYPES, PROTOTYPE_COLS

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


def converse(r: AllenRelation) -> AllenRelation:
    """Relation of b to a, given the relation of a to b."""
    return _CONVERSE[r]


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
    origin = mds.start
    cols = mds.duration + extra
    m = np.zeros((2, cols), dtype=float)
    for member in mds.members:
        row = _ROW_INDEX[member.device_type]
        for app in member.app_sessions:
            lo = app.start - origin
            hi = app.end - origin + extra
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


def timeout_sweep(
    panel: Panel,
    tw_grid: Sequence[int] = DEFAULT_TW_GRID,
) -> list[SweepPoint]:
    """Reconstruction counts at each timeout value; per-user means averaged.

    Each grid point re-splits the device streams of ``panel``, which come
    sorted, with the split rule of ``build_usage_sessions`` and
    groups the usage sessions with the component rule of
    ``build_multidevice_sessions``, counting sessions without building them.
    Class means are per-user session counts averaged over all users, users
    without a session of the class counting zero.
    """
    for tw in tw_grid:
        _check_tw(tw)
    n_users = len(panel.users)
    points: list[SweepPoint] = []
    for tw in tw_grid:
        n_usage = dict.fromkeys(DEVICE_TYPES, 0)
        n_mixed = dict.fromkeys(DEVICE_TYPES, 0)
        n_md = 0
        per_user_ratio = []
        for devices in panel.users.values():
            spans = []
            n_app = 0
            for ordered in devices.values():
                n_app += len(ordered)
                for lo, hi in _runs(ordered, tw):
                    device_type = ordered[lo].device_type
                    n_usage[device_type] += 1
                    spans.append((ordered[lo].start, ordered[hi - 1].end, device_type))
            spans.sort()
            for lo, hi, _ in _multidevice(spans, tw):
                n_md += 1
                for span in spans[lo:hi]:
                    n_mixed[span[2]] += 1
            per_user_ratio.append(n_app / len(spans))
        counts = {"multidevice": n_md}
        for device_type in DEVICE_TYPES:
            counts[f"{device_type}_all"] = n_usage[device_type]
            counts[f"{device_type}_pure"] = n_usage[device_type] - n_mixed[device_type]
        points.append(
            SweepPoint(
                tw=tw,
                mean_sessions_per_user={
                    cls: counts[cls] / n_users if n_users else 0.0 for cls in SESSION_CLASSES
                },
                mean_app_sessions_per_usage_session=(
                    statistics.fmean(per_user_ratio) if per_user_ratio else 0.0
                ),
            )
        )
    return points
