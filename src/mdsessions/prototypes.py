"""The matrix oracle for prototype grouping.

A multidevice session maps to a 2-row binary matrix (row 0 smartphone,
row 1 tablet) with one column per second of the session hull.  Each matrix
is resized to 4 columns by linear interpolation and assigned to the nearest,
in the Frobenius norm, of the 256 possible 2x4 binary prototypes; the
prototype id is the 8-bit integer of row 0's bits followed by row 1's.

These functions spell that definition out with numpy.  The reports use
:func:`mdsessions.patterns.assign_groups`, which reads the same ids from 8
seconds without building a matrix; the generator and the tests use this
module.
"""

from __future__ import annotations

import functools

import numpy as np

from .construction import MultideviceSession
from .patterns import _ROW_INDEX, N_PROTOTYPES, PROTOTYPE_COLS


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
