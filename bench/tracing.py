"""Outside-in tracing of the mdsessions layers, without editing the package.

``Tracer.install`` replaces each public function of a layer module with a
wrapper, at every module attribute bound to that function object, so
re-bindings such as ``cli.normalize`` (``from .ingest import normalize``)
and ``descriptive.build_usage_sessions`` are caught, and so are calls
between functions of one module (they go through the module's globals).

Coarse functions get a span: name, start, end and parent, kept in memory.
Per-item functions (called once per session or pair) get a count-only
wrapper, whose time stays in the caller's self time.  Self time of a span is
its duration minus the time covered by its child spans, so the self times of
all spans, the command's root span included, add up to the command time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "mdsessions.ingest": "ingest",
    "mdsessions.intervals": "construction",
    "mdsessions.construction": "construction",
    "mdsessions.patterns": "patterns",
    "mdsessions.descriptive": "descriptive",
    "mdsessions.pipeline": "pipeline",
    "mdsessions.robust": "robust",
}
LAYER_NAMES = ("ingest", "construction", "patterns", "descriptive", "pipeline", "robust", "cli")
COUNT_ONLY = {"link", "classify", "assign_group", "to_matrix", "resize", "window_overlap_seconds"}

# Per-layer metrics: self time of one or more functions.
SELF_TIMES = {
    "ingest.parse_events_s": ("ingest.parse_events",),
    "ingest.pair_sessions_s": ("ingest.pair_sessions",),
    "ingest.filter_active_s": ("ingest.filter_active",),
    "ingest.write_sessions_csv_s": ("ingest.write_sessions_csv",),
    "ingest.read_sessions_csv_s": ("ingest.read_sessions_csv",),
    "ingest.normalize_s": ("ingest.normalize",),
    "construction.build_usage_sessions_s": ("construction.build_usage_sessions",),
    "construction.build_multidevice_sessions_s": ("construction.build_multidevice_sessions",),
    "construction.construction_stats_s": ("construction.construction_stats",),
    "construction.write_jsonl_s": ("construction.write_usage_sessions_jsonl",
                                   "construction.write_md_sessions_jsonl"),
    "patterns.group_frequencies_s": ("patterns.group_frequencies",),
    "patterns.category_contrast_s": ("patterns.category_contrast",),
    "descriptive.timeout_sweep_s": ("descriptive.timeout_sweep",),
    "descriptive.summarize_s": ("descriptive.summarize",),
    "descriptive.per_user_summary_s": ("descriptive.per_user_summary",),
    "descriptive.hourly_distribution_s": ("descriptive.hourly_distribution",),
    "descriptive.usage_shares_s": ("descriptive.usage_shares",),
    "descriptive.category_share_report_s": ("descriptive.category_share_report",),
    "descriptive.empirical_cdf_s": ("descriptive.empirical_cdf",),
    "pipeline.usage_by_user_s": ("pipeline.usage_by_user",),
    "pipeline.daily_minutes_by_user_s": ("pipeline.daily_minutes_by_user",),
}
# Counts must repeat exactly between repetitions of one workload.
COUNT_METRICS = (
    "ingest.rows_read", "ingest.rows_rejected", "ingest.users_dropped", "ingest.accept_ratio",
    "construction.build_calls", "construction.link_calls", "construction.link_hit_ratio",
    "construction.usage_sessions", "construction.md_sessions", "construction.mixed_share",
    "patterns.assign_per_md_session", "patterns.matrix_cells", "pipeline.window_overlap_calls",
    "robust.tests_run", "robust.resample_values",
)
# Inclusive times: the function and everything it calls.
INCL_TIMES = {
    "pipeline.load_app_sessions_s": "pipeline.load_app_sessions",
    "pipeline.reconstruct_s": "pipeline.reconstruct",
    "robust.test_battery_s": "robust.test_battery",
}


def _diag_len(args, kwargs):
    diagnostics = args[-1] if len(args) >= 2 else kwargs["diagnostics"]
    return len(diagnostics)


class Tracer:
    """Wraps the layer functions of an imported ``mdsessions`` package."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.incl_time: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span index, time covered by children]

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == modname and not name.startswith("_"):
                    full = f"{layer}.{name}"
                    wrappers[id(fn)] = (self._counted(full, fn) if name in COUNT_ONLY
                                        else self._timed(full, fn))
        for modname in sorted(m for m in sys.modules if m.split(".")[0] == "mdsessions"):
            module = sys.modules[modname]
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patches.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------
    def _timed(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self_time, incl_time, counts = self.self_time, self.incl_time, self.counts

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, stack[-1][0] if stack else -1)
                duration = end - start
                incl_time[name] += duration
                self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after:
                after(counts, args, kwargs, result, state)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        after = _COUNT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after:
                after(counts, result)
            return result

        return wrapper

    def command(self, name: str, run) -> None:
        """Run one CLI command under a root span of the ``cli`` layer."""
        self._timed(name, run)()

    # -- reading --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        st, it, c = self.self_time, self.incl_time, self.counts
        m = {k: sum(st[f] for f in fns) for k, fns in SELF_TIMES.items()}
        m.update({k: it[f] for k, f in INCL_TIMES.items()})
        rows = c["ingest.rows_read"]
        m.update({
            "ingest.rows_read": rows,
            "ingest.rows_rejected": c["ingest.rows_rejected"],
            "ingest.users_dropped": c["ingest.users_dropped"],
            "ingest.accept_ratio": _ratio(c["ingest.kept"], rows),
            "construction.build_calls": c["construction.build_calls"],
            "construction.link_calls": c["construction.link"],
            "construction.link_hit_ratio": _ratio(c["construction.linked"], c["construction.link"]),
            "construction.usage_sessions": c["construction.usage_sessions"],
            "construction.md_sessions": c["construction.md_sessions"],
            "construction.mixed_share": _ratio(c["construction.mixed"], c["construction.linkable"]),
            "patterns.assign_per_md_session": _ratio(c["patterns.assign_group"],
                                                     c["patterns.grouped_sessions"]),
            "patterns.matrix_cells": c["patterns.matrix_cells"],
            "pipeline.window_overlap_calls": c["pipeline.window_overlap_seconds"],
            "robust.tests_run": c["robust.tests_run"],
            "robust.resample_values": c["robust.resample_values"],
        })
        layer_self = dict.fromkeys(LAYER_NAMES, 0.0)
        for name, t in st.items():
            layer_self[name.split(".")[0]] += t
        m.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _count_rows(counts, args, kwargs, result, diag_before):
    rejected = _diag_len(args, kwargs) - diag_before
    counts["ingest.rows_rejected"] += rejected
    counts["ingest.rows_read"] += len(result) + rejected


def _count_bootstrap(counts, args, kwargs, result, state):
    # Values drawn by the resamples, from the public arguments: replicates x n
    # per sample, unless the test returned early on constant data.
    x, y = args[0], args[1]
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    replicates = spec.replicates if spec is not None else 2000
    counts["robust.tests_run"] += 1
    if state == "paired":
        if any(a != b for a, b in zip(x, y)):
            counts["robust.resample_values"] += replicates * len(x)
    elif not (len(set(x)) == 1 and len(set(y)) == 1 and x[0] == y[0]):
        counts["robust.resample_values"] += replicates * (len(x) + len(y))


def _after(key):
    def hook(counts, args, kwargs, result, state):
        counts[key] += len(result)
    return hook


def _after_usage(counts, args, kwargs, result, state):
    counts["construction.build_calls"] += 1
    counts["construction.usage_sessions"] += len(result)


def _after_md(counts, args, kwargs, result, state):
    md, usage = result
    counts["construction.md_sessions"] += len(md)
    counts["construction.mixed"] += sum(len(m.members) for m in md)
    counts["construction.linkable"] += len(usage)


def _after_dropped(counts, args, kwargs, result, state):
    counts["ingest.users_dropped"] += len(result[1])


# name -> (before(args, kwargs) -> state, after(counts, args, kwargs, result, state))
_HOOKS = {
    "ingest.parse_events": (_diag_len, _count_rows),
    "ingest.read_sessions_csv": (_diag_len, _count_rows),
    "ingest.normalize": (None, _after("ingest.kept")),
    "ingest.filter_active": (None, _after_dropped),
    "construction.build_usage_sessions": (None, _after_usage),
    "construction.build_multidevice_sessions": (None, _after_md),
    "patterns.group_frequencies": (None, lambda c, a, k, r, s: c.update(
        {"patterns.grouped_sessions": len(a[0] if a else k["md_sessions"])})),
    "robust.paired_bootstrap_test": (lambda a, k: "paired", _count_bootstrap),
    "robust.two_sample_bootstrap_test": (lambda a, k: "two_sample", _count_bootstrap),
}
_COUNT_HOOKS = {
    "construction.link": lambda counts, r: counts.update({"construction.linked": r.linked}),
    "patterns.to_matrix": lambda counts, r: counts.update({"patterns.matrix_cells": r.size}),
}
