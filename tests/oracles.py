"""Reference implementations that the tests compare the package against.

No command runs these; each spells a definition out the direct way:

- ``link`` and ``converse``: the timeout-window linkage predicate as a bool,
  read off ``classify``'s relation, and the converse of an Allen relation.
- ``prototype_matrix``, ``prototype_id``, ``to_matrix``, ``resize`` and
  ``assign_group``: the matrix definition of prototype grouping, with numpy.
  ``patterns.assign_groups`` reads the same ids from 8 seconds without
  building a matrix.
- ``brute_force_runs`` and ``brute_force_components``: usage sessions and
  multidevice components as the closure of pairwise ``link``.
- ``timeout_sweep``: the timeout sweep as its definition, one
  ``build_multidevice_sessions`` per grid point.
  ``descriptive.timeout_sweep`` counts the same from per-session
  thresholds.
- ``normalize``: the panel of app sessions, each device's sessions resolved
  session by session into a new stream. ``ingest.normalize`` keeps a
  device's sorted list where nothing is dropped or truncated.
- ``pair_sessions``: event pairing as a state machine that closes the open
  session in two places, on a foreground and on a background or screen off.
  ``ingest.pair_sessions`` closes it in one.
"""

from __future__ import annotations

import functools
import statistics
from typing import Iterable, Optional, Sequence

import numpy as np

from mdsessions.construction import MultideviceSession, build_multidevice_sessions
from mdsessions.descriptive import DEFAULT_TW_GRID, SweepPoint, session_classes
from mdsessions.ingest import (DEVICE_TYPES, AppEvent, AppSession, Diagnostics, Panel,
                               group_by_device)
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


def brute_force_runs(intervals, tw):
    """Partition sorted same-device intervals by the transitive closure of
    the pairwise linked relation restricted to sequential pairs."""
    runs = []
    for iv in sorted(intervals, key=lambda i: i.start):
        if runs and link(runs[-1][-1], iv, tw):
            runs[-1].append(iv)
        else:
            runs.append([iv])
    return [(r[0].start, r[-1].end) for r in runs]


def brute_force_components(usage_sessions, tw):
    """Connected components over cross-device links, by fixpoint closure."""
    n = len(usage_sessions)
    comp = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or usage_sessions[i].device_id == usage_sessions[j].device_id:
                    continue
                if link(usage_sessions[i], usage_sessions[j], tw):
                    target = min(comp[i], comp[j])
                    if comp[i] != target or comp[j] != target:
                        comp[i] = comp[j] = target
                        changed = True
    groups = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(usage_sessions[i])
    return [frozenset(s.id for s in g) for g in groups.values()]


def timeout_sweep(
    panel: Panel,
    tw_grid: Sequence[int] = DEFAULT_TW_GRID,
) -> list[SweepPoint]:
    """The sweep by its definition: at each grid point, the sessions that
    ``build_multidevice_sessions`` builds, counted per class and divided by
    the number of users, and each user's app sessions per usage session,
    averaged over the users."""
    for tw in tw_grid:
        _check_tw(tw)
    users = list(panel.users)
    points: list[SweepPoint] = []
    for tw in tw_grid:
        md, usage = build_multidevice_sessions(panel, tw)
        classes = session_classes(usage, md)
        ratios = []
        for user in users:
            mine = [s for s in usage if s.user_id == user]
            ratios.append(sum(len(s.app_sessions) for s in mine) / len(mine))
        points.append(
            SweepPoint(
                tw=tw,
                mean_sessions_per_user={
                    cls: len(sessions) / len(users) if users else 0.0
                    for cls, sessions in classes.items()
                },
                mean_app_sessions_per_usage_session=statistics.fmean(ratios) if ratios else 0.0,
            )
        )
    return points


def normalize(sessions: Sequence[AppSession], diagnostics: Diagnostics) -> Panel:
    """The ``Panel`` of ``sessions`` with the diagnostics rows of
    ``ingest.normalize``, made from a sorted copy of each device's sessions,
    a copy without the sessions of another device type, and a stream built
    from that one session at a time."""
    groups: dict[tuple[str, str], list[AppSession]] = {}
    for s in sessions:
        groups.setdefault((s.user_id, s.device_id), []).append(s)
    users: dict[str, dict[str, list[AppSession]]] = {}
    for user_id, device_id in sorted(groups):
        ordered = sorted(groups[user_id, device_id], key=lambda s: (
            s.start, -s.end, s.device_type, s.platform, s.app_id, s.app_category))
        device_type = ordered[0].device_type
        if device_type not in DEVICE_TYPES:
            raise ValueError(f"unsupported device type: {device_type!r}")
        for s in ordered:
            if s.device_type != device_type:
                diagnostics.report(
                    user_id=s.user_id, device_id=s.device_id, start=s.start,
                    error="device_type differs from the device's first session",
                    value=s.device_type,
                )
        ordered = [s for s in ordered if s.device_type == device_type]
        stream = users.setdefault(user_id, {})[device_id] = []
        for i, s in enumerate(ordered):
            end = s.end
            if i + 1 < len(ordered):
                nxt = ordered[i + 1].start
                if nxt < end:
                    end = nxt
                    diagnostics.report(
                        user_id=s.user_id, device_id=s.device_id,
                        start=s.start, error="overlap truncated", new_end=end,
                    )
            if end <= s.start:
                diagnostics.report(
                    user_id=s.user_id, device_id=s.device_id,
                    start=s.start, error="session dropped after truncation",
                )
                continue
            if end != s.end:
                s = AppSession(s.user_id, s.device_id, s.device_type, s.platform,
                               s.app_id, s.app_category, s.start, end)
            stream.append(s)
    return Panel(users)


def pair_sessions(events: Iterable[AppEvent], diagnostics: Diagnostics) -> list[AppSession]:
    """Pair foreground/background events into app sessions.

    Events are grouped per (user, device) and processed in timestamp order.
    A foreground event opens a session; it closes at the earliest of a
    matching background, the next foreground of any app, or screen off.
    Sessions still open at end of stream are dropped and reported.
    """
    sessions: list[AppSession] = []
    for _, stream in group_by_device(events, key=lambda e: e.ts):
        open_ev: Optional[AppEvent] = None
        for ev in stream:
            if ev.kind == "foreground":
                if open_ev is not None:
                    _close(open_ev, ev.ts, sessions, diagnostics)
                open_ev = ev
            else:  # background or screen_off
                if open_ev is None:
                    diagnostics.report(
                        user_id=ev.user_id, device_id=ev.device_id, ts=ev.ts,
                        error=f"{ev.kind} with no open session",
                    )
                    continue
                if ev.kind == "background" and ev.app_id != open_ev.app_id:
                    diagnostics.report(
                        user_id=ev.user_id, device_id=ev.device_id, ts=ev.ts,
                        error="background for different app", app_id=ev.app_id,
                    )
                    continue
                _close(open_ev, ev.ts, sessions, diagnostics)
                open_ev = None
        if open_ev is not None:
            diagnostics.report(
                user_id=open_ev.user_id, device_id=open_ev.device_id, ts=open_ev.ts,
                error="unclosed session at end of stream", app_id=open_ev.app_id,
            )
    return sessions


def _close(open_ev: AppEvent, end_ts: int, sessions: list[AppSession], diagnostics: Diagnostics) -> None:
    if end_ts <= open_ev.ts:
        diagnostics.report(
            user_id=open_ev.user_id, device_id=open_ev.device_id, ts=open_ev.ts,
            error="zero or negative duration session dropped", app_id=open_ev.app_id,
        )
        return
    sessions.append(
        AppSession(
            user_id=open_ev.user_id,
            device_id=open_ev.device_id,
            device_type=open_ev.device_type,
            platform=open_ev.platform,
            app_id=open_ev.app_id,
            app_category=open_ev.app_category,
            start=open_ev.ts,
            end=end_ts,
        )
    )
