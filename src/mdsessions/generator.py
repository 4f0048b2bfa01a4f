"""Deterministic synthetic panel generator.

Produces desk-scale foreground/background event logs with controllable
session shapes: two user groups (with and without a tablet), configurable
duration and gap distributions, category mixes, planted prototype-shaped
multidevice episodes, and planted per-category usage shifts.  The output
is the ingestion module's JSONL event schema and serves as the ground
truth for end-to-end tests.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .construction import build_multidevice_sessions
from .ingest import AppEvent, AppSession, Diagnostics, _is_int, _is_real, normalize, pair_sessions
from .patterns import N_PROTOTYPES, PROTOTYPE_COLS, matrix_bits

DAY_SECONDS = 86400
#: Length of planted prototype episodes; divisible by the prototype width.
PROTOTYPE_EPISODE_SECONDS = 400
_INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class Distribution:
    """Duration/gap distribution: exponential(mean) or lognormal(mu, sigma)."""

    family: str
    params: dict[str, float]

    def __post_init__(self) -> None:
        if not all(_is_real(v) for v in self.params.values()):
            raise ValueError(f"distribution params must be finite numbers, got {self.params!r}")
        if self.family == "exponential":
            if self.params.get("mean", 0) <= 0:
                raise ValueError("exponential mean must be positive")
        elif self.family == "lognormal":
            if self.params.get("sigma", 0) <= 0:
                raise ValueError("lognormal sigma must be positive")
        else:
            raise ValueError(f"unknown distribution family: {self.family!r}")

    def sample(self, rng: np.random.Generator) -> int:
        if self.family == "exponential":
            value = rng.exponential(self.params["mean"])
        else:
            value = rng.lognormal(self.params.get("mu", 0.0), self.params["sigma"])
        return max(1, int(value))


@dataclass(frozen=True)
class PanelSpec:
    md_users: int = 10
    nmd_users: int = 0
    days: int = 30
    start_ts: int = 1_420_070_400  # 2015-01-01T00:00:00Z
    smartphone_sessions_per_day: float = 8.0
    tablet_sessions_per_day: float = 2.0
    md_episodes_per_day: float = 1.0
    duration_dist: Distribution = Distribution("exponential", {"mean": 90.0})
    gap_dist: Distribution = Distribution("exponential", {"mean": 20.0})
    category_mix: dict[str, float] = field(
        default_factory=lambda: {"social": 0.4, "games": 0.2, "video": 0.2, "productivity": 0.2}
    )
    # Multiplier on app-session durations per category, applied to MD users only.
    md_category_shift: dict[str, float] = field(default_factory=dict)
    # Fraction of MD episodes shaped exactly like a given prototype group.
    prototype_quota: dict[int, float] = field(default_factory=dict)
    tw: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("md_users", "nmd_users", "days", "start_ts", "tw", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("smartphone_sessions_per_day", "tablet_sessions_per_day",
                     "md_episodes_per_day"):
            value = getattr(self, name)
            if not (_is_real(value) and value >= 0):
                raise ValueError(f"{name} must be a non-negative number, got {value!r}")
        for name in ("category_mix", "md_category_shift", "prototype_quota"):
            if not all(_is_real(v) for v in getattr(self, name).values()):
                raise ValueError(f"{name} values must be finite numbers")
        if self.md_users < 0 or self.nmd_users < 0 or self.days < 1:
            raise ValueError("user counts must be non-negative and days >= 1")
        for name in ("tw", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        # The gap between two episodes is drawn from [tw, 10 * tw), as an int64.
        if self.tw == 0:
            raise ValueError("tw must be positive, got 0")
        if 10 * self.tw > _INT64_MAX:
            raise ValueError(f"tw must be at most {_INT64_MAX // 10}, got {self.tw}")
        if sum(self.prototype_quota.values()) > 1.0 + 1e-9:
            raise ValueError("prototype quotas sum above 1")
        if not self.category_mix:
            raise ValueError("category mix must not be empty")
        weights = self.category_mix.values()
        if min(weights) < 0 or not 0 < sum(weights) < math.inf:
            raise ValueError("category_mix weights must be non-negative, with a positive finite sum")
        for gid, q in self.prototype_quota.items():
            if q < 0:
                raise ValueError("quota must be non-negative")
            _check_prototype_feasible(gid, self.tw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PanelSpec":
        kwargs = dict(raw)
        for key in ("duration_dist", "gap_dist", "category_mix", "md_category_shift",
                    "prototype_quota"):
            if key in kwargs and not isinstance(kwargs[key], dict):
                raise ValueError(f"{key} must be a JSON object")
        for key in ("duration_dist", "gap_dist"):
            if key in kwargs:
                dist = kwargs[key]
                if "family" not in dist or not isinstance(dist.get("params"), dict):
                    raise ValueError(f"{key} needs a family and a params object")
                kwargs[key] = Distribution(dist["family"], dist["params"])
        if "prototype_quota" in kwargs:
            kwargs["prototype_quota"] = {int(k): v for k, v in kwargs["prototype_quota"].items()}
        return cls(**kwargs)


def _prototype_episode_sessions(group_id: int, origin: int) -> list[tuple[str, int, int]]:
    """(device_type, start, end) triples realizing a prototype at episode scale.

    Each run of 1-bits becomes one app session over the matching quarters;
    an all-zero row contributes a single 1-second session mid-episode so the
    device still participates without disturbing the resized pattern.
    """
    if not 0 <= group_id < N_PROTOTYPES:
        raise ValueError(f"prototype id out of range: {group_id}")
    quarter = PROTOTYPE_EPISODE_SECONDS // PROTOTYPE_COLS
    bits = matrix_bits(group_id)
    out: list[tuple[str, int, int]] = []
    for device, row in (("smartphone", bits[:PROTOTYPE_COLS]), ("tablet", bits[PROTOTYPE_COLS:])):
        if "1" not in row:
            mid = origin + PROTOTYPE_EPISODE_SECONDS // 2
            out.append((device, mid, mid + 1))
        for run in re.finditer("1+", row):
            out.append((device, origin + run.start() * quarter, origin + run.end() * quarter))
    return out


def _check_prototype_feasible(group_id: int, tw: int) -> None:
    """A planted episode must reconstruct as one multidevice session."""
    sessions = [
        AppSession("u", f"{device}-0", device, "android", "app", "cat", s, e)
        for device, s, e in _prototype_episode_sessions(group_id, 0)
    ]
    md, _ = build_multidevice_sessions(normalize(sessions, Diagnostics()), tw)
    if len(md) != 1:
        raise ValueError(
            f"prototype {group_id} cannot be planted: episode does not form one "
            f"multidevice session at tw={tw}"
        )


def generate(spec: PanelSpec) -> list[AppEvent]:
    """Emit a deterministic event log for the configured panel."""
    events: list[AppEvent] = []
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.md_users + spec.nmd_users)
    for i in range(spec.md_users):
        events.extend(_user_events(spec, f"md{i:04d}", True, np.random.default_rng(seeds[i])))
    for i in range(spec.nmd_users):
        events.extend(
            _user_events(spec, f"nmd{i:04d}", False, np.random.default_rng(seeds[spec.md_users + i]))
        )
    events.sort(key=lambda e: (e.user_id, e.device_id, e.ts, e.kind != "background"))
    return events


def _user_events(
    spec: PanelSpec, user_id: str, has_tablet: bool, rng: np.random.Generator
) -> list[AppEvent]:
    categories = sorted(spec.category_mix)
    weights = np.array([spec.category_mix[c] for c in categories], dtype=float)
    weights /= weights.sum()
    quota_groups = sorted(spec.prototype_quota)
    quota_probs = [spec.prototype_quota[g] for g in quota_groups]
    devices = {
        "smartphone": f"{user_id}-phone",
        "tablet": f"{user_id}-tablet",
    }
    platform = "android"
    shift = spec.md_category_shift if has_tablet else {}

    sessions: list[tuple[str, str, str, int, int]] = []  # device, app, cat, start, end

    def sample_category() -> str:
        return categories[int(rng.choice(len(categories), p=weights))]

    def episode(device: str, t: int) -> int:
        """Append a run of app sessions for one device; return its end."""
        n_apps = int(rng.geometric(0.5))
        for k in range(max(1, n_apps)):
            if k > 0:
                t += min(spec.tw, spec.gap_dist.sample(rng))
            cat = sample_category()
            duration = spec.duration_dist.sample(rng)
            duration = max(1, int(duration * shift.get(cat, 1.0)))
            sessions.append((device, f"{cat}_app", cat, t, t + duration))
            t += duration
        return t

    def md_episode(t: int) -> int:
        if quota_groups and rng.random() < sum(quota_probs):
            pick = rng.random() * sum(quota_probs)
            acc = 0.0
            gid = quota_groups[-1]
            for g, q in zip(quota_groups, quota_probs):
                acc += q
                if pick < acc:
                    gid = g
                    break
            for device, s, e in _prototype_episode_sessions(gid, t):
                cat = sample_category()
                sessions.append((device, f"{cat}_app", cat, s, e))
            return t + PROTOTYPE_EPISODE_SECONDS
        # Random overlapping usage of both devices.
        end_tablet = episode("tablet", t)
        end_phone = episode("smartphone", t + int(rng.integers(0, 30)))
        return max(end_tablet, end_phone)

    for day in range(spec.days):
        day_start = spec.start_ts + day * DAY_SECONDS
        t = day_start + int(rng.integers(0, 3600))
        n_phone = max(1, int(rng.poisson(spec.smartphone_sessions_per_day)))
        n_tablet = max(1, int(rng.poisson(spec.tablet_sessions_per_day))) if has_tablet else 0
        n_md = max(1, int(rng.poisson(spec.md_episodes_per_day))) if has_tablet else 0
        plan = ["phone"] * n_phone + ["tablet"] * n_tablet + ["md"] * n_md
        rng.shuffle(plan)
        for kind in plan:
            if kind == "phone":
                t = episode("smartphone", t)
            elif kind == "tablet":
                t = episode("tablet", t)
            else:
                t = md_episode(t)
            # Inter-episode gap well beyond the timeout so episodes stay apart.
            t += spec.tw * 3 + int(rng.integers(spec.tw, spec.tw * 10))

    events: list[AppEvent] = []
    for device_type, app_id, category, start, end in sorted(sessions, key=lambda s: (s[0], s[3])):
        common = dict(
            user_id=user_id,
            device_id=devices[device_type],
            device_type=device_type,
            platform=platform,
            app_id=app_id,
            app_category=category,
        )
        events.append(AppEvent(ts=start, kind="foreground", **common))
        events.append(AppEvent(ts=end, kind="background", **common))
    return events


def write_events_jsonl(events: list[AppEvent], stream: TextIO) -> None:
    for e in events:
        # A slotted event has no __dict__; dataclasses.asdict would deep-copy
        # each value and take about three times as long.
        record = {name: getattr(e, name) for name in e.__slots__}
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def generate_sessions(spec: PanelSpec) -> list[AppSession]:
    """Generate and pair in one step; generated logs must pair cleanly."""
    diagnostics = Diagnostics()
    sessions = pair_sessions(generate(spec), diagnostics)
    if len(diagnostics):
        raise RuntimeError(f"generator emitted a malformed log: {diagnostics.records[:3]}")
    return sessions
