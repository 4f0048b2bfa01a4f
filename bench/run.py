"""Benchmark of the mdsessions CLI.

One run:  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout and nothing else.  With ``--trace 0`` it runs the
workload's commands as fresh CLI processes, one at a time, for S seconds and
reports the end-to-end metrics (medians over the repetitions).  Times are
scaled to a reference CPU speed, measured by a calibration loop that runs
beside each command on its CPU (see ``_spawn``).  With
``--trace 1`` it runs the same commands in this process through
``cli.main``, alternating untraced and traced repetitions, and reports the
per-layer metrics.  Every command's outputs are checked (see check.py).  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Other modes:
  --all        every workload, untraced then traced, for one seed
  --pin        regenerate golden.json from the current program
  --steadiness two sets of ten runs per workload; spread and drift per metric
  --selftest   show that the output check flags a corrupted output file and a
               wrong diagnostics count
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
from tracing import COUNT_METRICS, Tracer  # noqa: E402
from workloads import VARIANTS, WORKLOADS, prepare  # noqa: E402

WORK = ROOT / ".bench_work"
CLI = "from mdsessions.cli import main; main()"
SETUP_SAMPLES_BEFORE = 3  # --help calls before the repetitions
SETUP_SAMPLES_PER_REPEAT = 2  # --help calls after each repetition
MIN_REPEATS = 3  # untraced repetitions per run, at least
MIN_PAIRS = 2  # untraced/traced pairs per traced run, at least
RUN_DEADLINE_S = 170.0  # a run must end within 180 s; later commands are killed
RUNS, SETS = 10, 2  # --steadiness: seeds per set, and sets


class RunError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


# The workloads are single-threaded; without this numpy's BLAS pool would spin
# on the second core after each call.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)  # for the in-process traced run too


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MDSESSIONS_CONFIG")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


CPUS = sorted(os.sched_getaffinity(0))


def _probe() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 251] = table.get(i % 251, 0) + i
    return time.perf_counter() - start


def pin_to_quickest_cpu() -> None:
    """Move this process (and the children it starts next) to the allowed CPU
    that runs a short probe fastest.

    On a shared virtual machine each virtual CPU is slowed, independently and
    for seconds to minutes at a time, by other tenants' load; choosing the
    least disturbed one before each command keeps that noise out of the
    figures.  It acts only on the benchmark's own processes."""
    if len(CPUS) < 2:
        return
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe() for _ in range(2))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


# Calibration: while a child runs, this process (on the same CPU) wakes every
# CAL_GAP_S and times a fixed, small piece of pure-Python work like the CLI's
# own (format CSV rows, parse them, sort, group).  The median of those samples
# says how fast the CPU ran *during that command*; times are reported scaled to
# a CPU on which the calibration takes CAL_REF_S.
CAL_GAP_S = 0.02
CAL_REF_S = 0.0005
_CAL_ROWS = [(f"u{i % 37}", f"d{i % 3}", ("smartphone", "tablet")[i % 2], f"app{i * 7 % 61}",
              1_456_790_400 + i * 7919 % 86400, 1 + i * 104729 % 4000) for i in range(120)]


def _calibration() -> float:
    start = time.perf_counter()
    text = "".join(f"{u},{d},{t},{a},{s},{s + n}\n" for u, d, t, a, s, n in _CAL_ROWS)
    rows = sorted(((r[0], r[1], r[2], r[3], int(r[4]), int(r[5]))
                   for r in csv.reader(io.StringIO(text))), key=lambda r: (r[0], r[4]))
    by_user: dict[str, list] = {}
    for r in rows:
        by_user.setdefault(r[0], []).append(r)
    sum(b[4] - a[5] for v in by_user.values() for a, b in zip(v, v[1:]))
    return time.perf_counter() - start


def _spawn(argv: list[str], cwd: Path, log: Path, timeout: float) -> dict:
    """Run one child to completion; its own wall, CPU and peak RSS via wait4,
    and ``speed``, the CPU's speed during the child relative to the reference
    (a time times ``speed`` is that time on the reference CPU)."""
    pin_to_quickest_cpu()  # the child inherits this CPU; the samples run on it too
    samples = []
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], CAL_GAP_S)[0]:
                samples.append(_calibration())
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
            killer.cancel()
        wall = time.perf_counter() - start - sum(samples)  # the child's share of the CPU
    if not samples:
        samples.append(_calibration())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "speed": CAL_REF_S / statistics.median(samples),
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "rc": proc.returncode,
        "stderr": log.read_text(errors="replace"),
    }


def _cli(args) -> list[str]:
    return [sys.executable, "-c", CLI, *args]


def _fresh_outputs(workload, work: Path) -> None:
    for rel in workload.out_dirs():
        shutil.rmtree(work / rel, ignore_errors=True)


def _pinned(golden: dict, variant: int, out_rel: str):
    return golden["variants"].get(str(variant), {}).get(Path(out_rel).name, {})


class Run:
    """State of one benchmark run of one workload in its own work directory."""

    def __init__(self, name: str, seed: int, golden: dict | None) -> None:
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.variant = seed % VARIANTS
        self.golden = golden
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.facts = prepare(self.workload, self.variant, self.work / "in")
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, args, cwd: Path) -> dict:
        return _spawn(_cli(args), cwd, cwd / "stderr.log", self.deadline - time.monotonic())

    def record(self, args, out_rel: str, outcome) -> None:
        """Check one command's outputs; ``outcome`` is an error text when the
        command itself failed."""
        self.attempted += 1
        pinned = None if self.golden is None else _pinned(self.golden, self.variant, out_rel)
        if isinstance(outcome, str):
            problems = [outcome]
        else:
            problems = check.check_command(args, self.work / out_rel, self.facts, pinned)
        self.problems += [f"{args[0]} {out_rel}: {p}" for p in problems]
        self.failed += bool(problems)

    # -- untraced: fresh CLI processes ---------------------------------
    def run_once(self) -> list[dict]:
        """Run every command once as a fresh process and check its outputs."""
        w = self.workload
        _fresh_outputs(w, self.work)
        children = [self.spawn(args, self.work) for args in w.commands]
        for args, out_rel, c in zip(w.commands, w.out_dirs(), children):
            if c["rc"] != 0 or "Traceback" in c["stderr"]:
                self.record(args, out_rel, f"exit {c['rc']}: {c['stderr'].strip()[-2000:]}")
            else:
                self.record(args, out_rel, c)
        return children

    def run_untraced(self, seconds: float) -> dict:
        """Repeat the workload for about ``seconds``; per command, take the
        median over the repetitions of its wall and CPU time, each scaled by
        the CPU speed measured while it ran, and of its peak RSS.

        On a shared machine other tenants slow a CPU by up to 1.8x, in phases
        that can outlast a run, so a plain time moves by 30% or more from run
        to run; the calibration samples taken beside each command see the same
        slowdown (see NOTES.md).  ``setup_s`` is the median over ``--help``
        calls spread over the run, scaled the same way."""
        start = time.perf_counter()
        self.run_once()  # checked but untimed: .pyc files, page cache, code paths

        def setup_sample() -> float:
            child = self.spawn(["--help"], self.work)
            return child["wall"] * child["speed"]

        setup = [setup_sample() for _ in range(SETUP_SAMPLES_BEFORE)]
        per_command: list[list[dict]] = [[] for _ in self.workload.commands]
        durations = []
        # Stop before a repetition that would end after ``seconds``.
        while len(durations) < MIN_REPEATS or (
                time.perf_counter() - start + statistics.median(durations) < seconds):
            t0 = time.perf_counter()
            for samples, child in zip(per_command, self.run_once()):
                samples.append(child)
            setup += [setup_sample() for _ in range(SETUP_SAMPLES_PER_REPEAT)]
            durations.append(time.perf_counter() - t0)

        def total(key: str) -> float:
            return sum(statistics.median(c[key] * c["speed"] for c in samples)
                       for samples in per_command)

        wall = total("wall")
        return {
            "ref_wall_s": wall,
            "ref_cpu_s": total("cpu"),
            "ref_rows_per_s": self.facts["rows"] / wall,
            "peak_rss_mb": max(statistics.median(c["rss_mb"] for c in samples)
                               for samples in per_command),
            "setup_s": statistics.median(setup),
        }

    # -- traced: in-process through cli.main ---------------------------
    def run_traced(self, seconds: float) -> dict:
        cli = _import_package()

        tracer = Tracer()
        w = self.workload

        def iteration(traced: bool) -> float:
            _fresh_outputs(w, self.work)
            pin_to_quickest_cpu()
            total = 0.0
            cwd = os.getcwd()
            os.chdir(self.work)
            try:
                for args, out_rel in zip(w.commands, w.out_dirs()):
                    outcome = None
                    start = time.perf_counter()
                    try:
                        if traced:
                            tracer.command(f"cli.{args[0]}", lambda: _invoke(cli, args))
                        else:
                            _invoke(cli, args)
                    except BaseException:  # noqa: B036 - a failed command, reported below
                        outcome = traceback.format_exc()
                    total += time.perf_counter() - start
                    self.record(args, out_rel, outcome)
            finally:
                os.chdir(cwd)
            return total

        start = time.perf_counter()
        iteration(traced=False)  # checked but untimed warm-up
        plain, traced, layer = [], [], []
        # Stop before a pair that would end after ``seconds``.
        while len(traced) < MIN_PAIRS or (
                (time.perf_counter() - start) * (len(traced) + 1) / len(traced) < seconds):
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for on in order:
                if on:
                    tracer.reset()
                    tracer.install()
                    try:
                        traced.append(iteration(traced=True))
                    finally:
                        tracer.uninstall()
                    layer.append(tracer.metrics())
                else:
                    plain.append(iteration(traced=False))
        tracer.write_spans(WORK / f"spans-{w.name}.jsonl")
        for k in COUNT_METRICS:
            if len({m[k] for m in layer}) != 1:
                self.problems.append(f"count {k} differs between repetitions: "
                                     f"{[m[k] for m in layer]}")
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        untraced = statistics.median(plain)
        metrics["trace.untraced_s"] = untraced
        metrics["trace.overhead_ratio"] = statistics.median(traced) / untraced - 1.0
        return metrics


def _import_package():
    """Import mdsessions from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("MDSESSIONS_CONFIG", None)
    import mdsessions.cli as cli

    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "mdsessions").resolve():
        raise RunError(f"imported mdsessions from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def _invoke(cli, args) -> None:
    code = cli.cli.main(list(args), prog_name="mdsessions", standalone_mode=False)
    if code:
        raise RunError(f"exit code {code}")


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _result(run: Run, values: dict, names: list[str], units: dict) -> dict:
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }


def _print_metrics(title: str, result: dict) -> None:
    print(f"== {title}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} ops_failed_ratio="
          f"{result['failed'] / max(result['attempted'], 1):.4f}")
    for name, m in result["metrics"].items():
        print(f"   {name:45s} {m['value']:>16.6g} {m['unit']}")


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One benchmark run; the result object the last output line carries."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    with Run(name, seed, check.load_golden()) as run:
        values = run.run_traced(seconds) if trace else run.run_untraced(seconds)
    for problem in run.problems:
        print(f"output check: {problem}", file=sys.stderr)
    return _result(run, values, [m["name"] for m in spec[kind]], units)


def pin() -> None:
    """Record the SHA-256 of every output, for every input variant."""
    import numpy

    variants = {}
    for variant in range(VARIANTS):
        digests = {}
        for name in WORKLOADS:
            with Run(name, variant, golden=None) as run:
                run.run_once()
                if run.problems:
                    raise RunError(f"variant {variant} {name}: {run.problems}")
                for rel in run.workload.out_dirs():
                    digests[Path(rel).name] = check.digest_tree(run.work / rel)
        variants[str(variant)] = digests
        print(f"pinned variant {variant}", file=sys.stderr)
    golden = {"python": platform.python_version(), "numpy": numpy.__version__,
              "variants": variants}
    with open(check.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def selftest(seed: int) -> bool:
    """Show the output check flags a corrupted output file and a wrong
    diagnostics count, with the checks exactly as the benchmark runs them."""
    with Run("ingest-events", seed, check.load_golden()) as run:
        run.run_once()
        out = run.work / "out" / "ingest"
        args = run.workload.commands[0]
        pinned = _pinned(run.golden, run.variant, "out/ingest")
        lines = (out / "sessions.csv").read_text().splitlines(keepends=True)
        row = lines[1].rstrip("\n")  # its last field is the end time, a number
        lines[1] = row[:-1] + str((int(row[-1]) + 1) % 10) + "\n"
        diag = (out / "diagnostics.jsonl").read_text().splitlines(keepends=True)
        drop = next(i for i, d in enumerate(diag) if '"unknown device_type"' in d)
        cases = [
            ("unmodified outputs", None, None),
            ("sessions.csv with one digit changed", "sessions.csv", "".join(lines)),
            ("diagnostics.jsonl missing one unknown-device_type row", "diagnostics.jsonl",
             "".join(diag[:drop] + diag[drop + 1:])),
        ]
        ok = True
        for label, fname, text in cases:
            if fname:
                original = (out / fname).read_text()
                (out / fname).write_text(text)
            problems = check.check_command(args, out, run.facts, pinned)
            if fname:
                (out / fname).write_text(original)
            expect = fname is not None
            ok &= bool(problems) == expect
            verdict = "flagged" if problems else "passed"
            print(f"{label}: {verdict} ({'expected' if bool(problems) == expect else 'WRONG'})")
            for p in problems:
                print(f"    {p[:160]}")
    return ok and not run.problems


def _quartile_spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def steadiness(spec: dict, names: list[str], seconds: int) -> bool:
    """Run SETS sets of RUNS seeds per workload (workloads interleaved) and
    report, per metric, the quartile spread of each set and the drift of the
    second median from the first, against the metric's bound.  The report and
    the medians go to .bench_work/baseline.json; copy it over bench/baseline.json
    when re-measuring the baseline."""
    values = {(s, n): [] for s in range(SETS) for n in names}
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for n in names:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", n, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=180)
                if proc.returncode != 0:
                    raise RunError(f"{n} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    raise RunError(f"{n} seed {seed}: outputs incorrect: {proc.stderr[-2000:]}")
                values[(s, n)].append({k: m["value"] for k, m in result["metrics"].items()})
                print(f"set {s} seed {seed} {n}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in values[(s, n)][-1].items()), file=sys.stderr)
    ok = True
    report = {}
    for n in names:
        for m in spec["end_to_end"]:
            k, bound = m["name"], m["bound"]
            first, second = ([v[k] for v in values[(s, n)]] for s in range(SETS))
            spreads = [_quartile_spread(first), _quartile_spread(second)]
            medians = [statistics.median(first), statistics.median(second)]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (medians[1] - medians[0]) / medians[0]  # > 0: the second is worse
            steady = max(spreads) <= bound and abs(drift) <= bound
            ok &= steady
            report[f"{n}/{k}"] = {"medians": medians, "spreads": spreads, "drift": drift,
                                  "bound": bound}
            print(f"{n:14s} {k:12s} medians {medians[0]:<9.4g} {medians[1]:<9.4g} "
                  f"spread {spreads[0]:.3f} {spreads[1]:.3f}  drift {drift:+.3f}  bound {bound} "
                  f"{'ok' if steady else 'NOT STEADY'}"
                  f"{' (spread > bound/3)' if max(spreads) > bound / 3 else ''}")
    _write_baseline(names, values, report)
    return ok


def _write_baseline(names, values, report) -> None:
    import numpy

    baseline = {
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine()},
        "seeds": f"1..{SETS * RUNS}; input variant = seed % {VARIANTS}",
        "workloads": {},
        "steadiness": report,
    }
    for n in names:
        w = WORKLOADS[n]
        facts = prepare(w, 0, WORK / "baseline-sizes" / n)
        sizes = {k: v for k, v in facts.items() if k in (
            "rows", "users", "events", "session_rows", "md_panel_rows", "nmd_panel_rows",
            "md_panel_users", "nmd_panel_users")}
        all_runs = [v for s in range(SETS) for v in values[(s, n)]]
        baseline["workloads"][n] = {
            "commands": [" ".join(("mdsessions",) + c) for c in w.commands],
            "input_sizes_variant_0": sizes,
            "median": {k: statistics.median(r[k] for r in all_runs) for k in all_runs[0]},
        }
    shutil.rmtree(WORK / "baseline-sizes", ignore_errors=True)
    with open(WORK / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--pin", action="store_true", help="regenerate golden.json")
    mode.add_argument("--steadiness", action="store_true",
                      help="two sets of ten runs per workload")
    mode.add_argument("--selftest", action="store_true", help="show the output check works")
    opts = parser.parse_args()
    try:
        if not (ROOT / "src" / "mdsessions" / "cli.py").is_file():
            raise RunError(f"no mdsessions source tree under {ROOT / 'src'}")
        spec = _benchmark_spec()
        seconds = opts.seconds if opts.seconds is not None else spec["run_seconds"]
        if opts.pin:
            pin()
            return 0
        if opts.selftest:
            return 0 if selftest(opts.seed) else 1
        names = [opts.workload] if opts.workload else list(WORKLOADS)
        if opts.steadiness:
            return 0 if steadiness(spec, names, int(seconds)) else 1
        if opts.all:
            summary = {}
            # Untraced first: a child's ru_maxrss starts from this process's RSS at
            # fork, which the in-process traced runs would raise to about 100 MiB.
            for trace in (False, True):
                for n in names:
                    result = measure(n, opts.seed, seconds, trace, spec)
                    _print_metrics(f"{n} ({'traced' if trace else 'untraced'}, seed {opts.seed})",
                                   result)
                    summary[f"{n}/{'per_layer' if trace else 'end_to_end'}"] = result
            print(json.dumps(summary))
            return 0
        if opts.workload is None:
            parser.error("--workload is required")
        result = measure(opts.workload, opts.seed, seconds, bool(opts.trace), spec)
        _print_metrics(f"{opts.workload} seed {opts.seed}", result)
        print(json.dumps(result))
        return 0
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
