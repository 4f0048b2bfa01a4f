"""Command-line front end for the full pipeline.

Subcommands: ingest, sessions, patterns, stats, compare, substitution,
sweep, generate.  Configuration precedence is CLI flags > config file
(``--config`` or the MDSESSIONS_CONFIG env var) > defaults; every command
writes a manifest recording the effective config and input digests so runs
are reproducible byte for byte.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional

import click

# `generator` imports numpy and is imported inside `generate` alone, so the
# other commands start without it; `robust` imports numpy only where it uses it.
from . import construction, descriptive, patterns, pipeline, robust
from .ingest import (DataError, Diagnostics, Panel, _is_int, _is_real, _write_csv_rows,
                     filter_active, normalize, write_sessions_csv)

CONFIG_ENV_VAR = "MDSESSIONS_CONFIG"
MODES = ("events", "sessions")


def _evening_window(v) -> Optional[tuple[int, int]]:
    """(start hour, end hour) of a window like '17-24', or None if ``v`` is
    not one."""
    try:
        lo, hi = (int(p) for p in v.split("-"))
    except (AttributeError, ValueError):
        return None
    return (lo, hi) if 0 <= lo < hi <= 24 else None


# Each config key's default, its check and what the check expects. Values
# are checked, never coerced, so the manifest records exactly what was given.
_SETTINGS = {
    "mode": ("events", lambda v: v in MODES, "'events' or 'sessions'"),
    "tw": (60, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "trim": (robust.DEFAULT_TRIM, lambda v: _is_real(v) and 0 <= v < 0.5,
             "a number in [0, 0.5)"),
    "boot": (robust.DEFAULT_REPLICATES, lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "seed": (0, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "evening": ("17-24", _evening_window, "a window like '17-24' with 0 <= start < end <= 24"),
    "threshold": (robust.DEFAULT_THRESHOLD, lambda v: _is_real(v) and 0 <= v <= 1,
                  "a number in [0, 1]"),
    "sweep_grid": (
        list(descriptive.DEFAULT_TW_GRID),
        lambda v: isinstance(v, list) and all(_is_int(t) and t >= 0 for t in v),
        "a list of non-negative integers",
    ),
    "min_active_span_days": (23, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
}


def _read_json_object(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    # ValueError: not UTF-8, not JSON, or an integer over Python's digit
    # limit; RecursionError: nesting too deep for the decoder.
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DataError(f"{what} {path} is not a JSON object")
    return loaded


def _load_config(config_path: Optional[str], flags: dict) -> dict:
    """Defaults, overridden by the config file, overridden by the given flags.

    Every value the file or a flag sets is checked, so a bad value in the
    file is a usage error even where a flag overrides it. The file may set
    only the settings; any other key in it is a usage error.
    """
    config = {key: default for key, (default, _, _) in _SETTINGS.items()}
    layers = [_read_json_object(config_path, "config")] if config_path else []
    for key in layers[0] if layers else ():
        if key not in _SETTINGS:
            raise click.UsageError(
                f"config key {key!r} is not a setting; the settings are {', '.join(_SETTINGS)}")
    layers.append({k: v for k, v in flags.items() if v is not None})
    for layer in layers:
        for key, value in layer.items():
            if key in _SETTINGS and not _SETTINGS[key][1](value):
                raise click.UsageError(f"{key} must be {_SETTINGS[key][2]}, got {value!r}")
        config.update(layer)
    return config


def _digest(path: Path) -> str:
    """SHA-256 of the file at ``path``, read in 64 KiB chunks: the manifest
    is written while the command's records are still held, so its reads sit
    on top of the command's peak."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_csv_rows(fh, header, rows)


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: list[Path]) -> None:
    serializable = {k: v for k, v in sorted(config.items())}
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config": serializable,
        "config_hash": hashlib.sha256(
            json.dumps(serializable, sort_keys=True).encode()
        ).hexdigest(),
        "inputs": {str(p): _digest(p) for p in inputs},
    })


@contextmanager
def _run() -> Iterator[tuple[dict, Path]]:
    """The steps every command shares, around the command's own work.

    Reads the command's parsed flags from the click context. Merges and checks
    the config (the flags named after a setting, plus ``input``) and makes the
    ``--out`` directory; yields ``(config, out_dir)``. The manifest, named
    after the command, records the config and the digests of the files given
    as ``--input``, ``--input2`` and ``--spec``; it is written only once the
    body succeeds. The cyclic garbage collector is off until the click context
    closes, whatever the exit, then as the caller left it.
    """
    ctx = click.get_current_context()
    params = ctx.params
    settings = {k: v for k, v in params.items() if k in _SETTINGS}
    config = _load_config(params["config_path"], {**settings, "input": params.get("input_path")})
    out_dir = Path(params["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # The records a command builds are acyclic: the collector would scan them
    # for nothing. It comes back on once the command has returned and freed
    # them; back on before that, its next pass would scan every record.
    if gc.isenabled():
        ctx.call_on_close(gc.enable)
        gc.disable()
    yield config, out_dir
    _write_manifest(out_dir, ctx.info_name, config, [
        Path(params[k]) for k in ("input_path", "input2_path", "spec_path") if params.get(k)])


def _reads_no(mode: str, *flags: str) -> None:
    """Refuse the first of ``flags`` (no dashes) set on the command line, which
    ``mode`` does not read; one config file serves every command, so it passes."""
    ctx = click.get_current_context()
    given = {p.opts[0][2:] for p in ctx.command.params if ctx.params[p.name] is not None}
    for flag in (f for f in flags if f in given):
        raise click.UsageError(f"{mode} reads no --{flag}")


def _load_panel(config: dict, input_path: str) -> tuple[Panel, Diagnostics]:
    """The ``Panel`` of ``input_path`` and the diagnostics of reading and
    normalizing it."""
    diagnostics = Diagnostics()
    sessions = pipeline.load_app_sessions(Path(input_path), config["mode"], diagnostics)
    return normalize(sessions, diagnostics), diagnostics


_FILE = click.Path(exists=True, dir_okay=False)
# The flags that several commands take, and the bootstrap battery's settings,
# under their names without the dashes; a command declares its own flags.
_OPTIONS = {
    "input": click.option("--input", "input_path", type=_FILE, required=True),
    "input2": click.option("--input2", "input2_path", type=_FILE,
                           help="second panel: the smartphone-only (NMD) group"),
    "mode": click.option("--mode", type=click.Choice(MODES)),
    "tw": click.option("--tw", type=int),
    "trim": click.option("--trim", type=float),
    "boot": click.option("--boot", type=int),
    "seed": click.option("--seed", type=int),
    "evening": click.option("--evening"),
    "threshold": click.option("--threshold", type=float),
    "offsets": click.option("--offsets", "offsets_path", type=_FILE,
                            help="CSV of user_id,offset_seconds for local-time binning"),
    "out": click.option("--out", type=click.Path(file_okay=False), required=True),
    "config": click.option("--config", "config_path", type=_FILE, envvar=CONFIG_ENV_VAR),
}


def options(*names: str):
    """The named flags of ``_OPTIONS``, then ``--out`` and ``--config``."""
    def apply(fn):
        for name in reversed((*names, "out", "config")):
            fn = _OPTIONS[name](fn)
        return fn
    return apply


@click.group()
def cli() -> None:
    """Reconstruct and analyze single- and multidevice usage sessions."""


@cli.command()
@options("input", "mode")
@click.option("--min-span-days", "min_active_span_days", type=int,
              help="active-panelist threshold in days (0 disables)")
def ingest(input_path, **_) -> None:
    """Parse events or sessions, validate, filter, and write a session CSV."""
    with _run() as (config, out_dir):
        panel, diagnostics = _load_panel(config, input_path)
        retained, dropped = filter_active(panel, config["min_active_span_days"])
        for user in sorted(dropped):
            diagnostics.report(user_id=user, error="user dropped by activity filter")
        with open(out_dir / "sessions.csv", "w", encoding="utf-8") as fh:
            write_sessions_csv((s for user, devices in panel.users.items() if user in retained
                                for stream in devices.values() for s in stream), fh)
        with open(out_dir / "diagnostics.jsonl", "w", encoding="utf-8") as fh:
            diagnostics.write_jsonl(fh)


@cli.command()
@options("input", "mode", "tw")
def sessions(input_path, **_) -> None:
    """Build usage and multidevice sessions plus construction statistics."""
    with _run() as (config, out_dir):
        panel, _ = _load_panel(config, input_path)
        usage, md = pipeline.reconstruct(panel, config["tw"])
        stats = construction.construction_stats(usage, md, config["tw"])
        with open(out_dir / "usage_sessions.jsonl", "w", encoding="utf-8") as fh:
            construction.write_usage_sessions_jsonl(usage, fh)
        with open(out_dir / "md_sessions.jsonl", "w", encoding="utf-8") as fh:
            construction.write_md_sessions_jsonl(md, fh)
        _write_json(out_dir / "construction_stats.json",
                    {"counts": stats.counts, "relation_shares": stats.relation_shares})


@cli.command(name="patterns")
@options("input", "mode", "tw")
@click.option("--contrast-group", "contrast_groups", type=int, multiple=True,
              help="prototype group ids to contrast against their complement")
def patterns_cmd(input_path, contrast_groups, **_) -> None:
    """Prototype-group frequency report and category contrasts."""
    with _run() as (config, out_dir):
        panel, _ = _load_panel(config, input_path)
        _, md = pipeline.reconstruct(panel, config["tw"])
        assigned = patterns.assign_groups(md)
        overall, per_user = patterns.group_frequencies(assigned) if assigned else ({}, {})
        _write_csv(
            out_dir / "group_report.csv",
            ["group_id", "matrix_bits", "share_overall", "share_per_user_mean"],
            ([gid, patterns.matrix_bits(gid), f"{overall[gid]:.4f}", f"{per_user[gid]:.4f}"]
             for gid in sorted(overall)),
        )
        _write_json(out_dir / "group_report.json", {
            "overall": {str(g): v for g, v in overall.items()},
            "per_user_mean": {str(g): v for g, v in per_user.items()},
        })
        contrasts = {}
        # Without multidevice sessions there is nothing to contrast.
        for gid in contrast_groups if assigned else ():
            try:
                contrasts[str(gid)] = patterns.category_contrast(assigned, gid)
            except ValueError as exc:
                contrasts[str(gid)] = {"error": str(exc)}
        if contrasts:
            _write_json(out_dir / "category_contrasts.json", contrasts)


def _header(cls) -> list[str]:
    return ["class"] + [f.name for f in dataclasses.fields(cls)]


@cli.command()
@options("input", "mode", "tw", "offsets")
def stats(input_path, offsets_path, **_) -> None:
    """Descriptive statistics reports: summaries, shares, CDFs, hourly bins."""
    with _run() as (config, out_dir):
        panel, _ = _load_panel(config, input_path)
        usage, md = pipeline.reconstruct(panel, config["tw"])
        offsets = pipeline.load_utc_offsets(offsets_path)
        classes = descriptive.session_classes(usage, md)
        days = descriptive.active_span_days(panel)

        summaries, per_user, hourly = [], [], []
        for cls, sessions in classes.items():
            n, *measures = dataclasses.astuple(descriptive.summarize(sessions))
            summaries.append([cls, n] + [f"{v:.4f}" for v in measures])
            summary = descriptive.per_user_summary(sessions, days)
            if summary is not None:
                per_user.append([cls] + [f"{v:.4f}" for v in dataclasses.astuple(summary)])
            bins = descriptive.hourly_distribution(sessions, offsets)
            hourly.append([cls] + [f"{b:.4f}" for b in bins])
            if sessions:
                cdf = descriptive.empirical_cdf([s.duration for s in sessions])
                _write_csv(out_dir / f"cdf_length_{cls}.csv", ["value", "cumulative_share"],
                           ([v, f"{p:.6f}"] for v, p in cdf))

        _write_csv(out_dir / "summary.csv", _header(descriptive.StatsSummary), summaries)
        _write_json(out_dir / "usage_shares.json", descriptive.usage_shares(classes))
        if per_user:
            _write_csv(out_dir / "per_user.csv", _header(descriptive.PerUserSummary), per_user)
        else:  # no class has a session: an empty file, not even a header
            (out_dir / "per_user.csv").write_text("", encoding="utf-8")
        _write_csv(out_dir / "hourly.csv", ["class"] + [f"h{h:02d}" for h in range(24)], hourly)
        _write_json(out_dir / "category_shares.json",
                    descriptive.category_share_report(panel))


@cli.command()
@options("input", "mode")
def sweep(input_path, **_) -> None:
    """Reconstruct across the timeout grid and write the sweep CSV."""
    with _run() as (config, out_dir):
        panel, _ = _load_panel(config, input_path)
        points = descriptive.timeout_sweep(panel, config["sweep_grid"])
        _write_csv(
            out_dir / "sweep.csv",
            ["tw"] + [f"mean_{c}_per_user" for c in descriptive.SESSION_CLASSES]
            + ["mean_app_sessions_per_usage_session"],
            ([p.tw]
             + [f"{p.mean_sessions_per_user[c]:.4f}" for c in descriptive.SESSION_CLASSES]
             + [f"{p.mean_app_sessions_per_usage_session:.4f}"]
             for p in points),
        )


def _battery_row(row: robust.BatteryRow) -> list:
    r = row.result
    if r is None:
        return [row.item, "-", "", "", "", "", row.excluded_reason]
    return [row.item, f"{r.p_value:.4f}", robust.significance_stars(r.p_value), r.direction,
            f"{r.effect_size:.4f}" if r.effect_size is not None else "", r.effect_label, ""]


@cli.command()
@options("input", "input2", "mode", "tw", "trim", "boot", "seed", "evening", "threshold",
         "offsets")
@click.option("--comparison", type=click.Choice(
    ["pure-vs-mixed-paired", "md-vs-nmd-all", "md-vs-nmd-smartphone"]),
    default="pure-vs-mixed-paired")
@click.option("--dimension", type=click.Choice(["category", "app"]), default="category")
def compare(input_path, input2_path, offsets_path, comparison, dimension, **_) -> None:
    """Bootstrap test battery over app categories or individual apps."""
    with _run() as (config, out_dir):
        spec = robust.TrimSpec(config["trim"], config["boot"], config["seed"])
        if comparison == "pure-vs-mixed-paired":
            _reads_no(comparison, "input2")
            offsets = pipeline.load_utc_offsets(offsets_path)
            # One user's sessions at a time, each read once; the panel goes
            # once the walk has built its last user.
            walk = pipeline.sessions_by_user(_load_panel(config, input_path)[0], config["tw"])
            pure, mixed, excluded = pipeline.smartphone_pure_vs_mixed_usage(
                (s for _, usage in walk for s in usage), dimension,
                _evening_window(config["evening"]), offsets
            )
            rows = robust.test_battery(pure, mixed, paired=True, spec=spec,
                                       inclusion_threshold=config["threshold"])
            _write_json(out_dir / "exclusions.json", {"users_excluded": excluded})
        else:
            _reads_no(comparison, "offsets", "tw", "evening")
            if input2_path is None:
                raise click.UsageError(f"--input2 is required for {comparison}")
            device = "smartphone" if comparison.endswith("smartphone") else None
            # Each panel is dropped once it is per-user minutes.
            x, y = (pipeline.daily_minutes_by_user(_load_panel(config, path)[0], dimension, device)
                    for path in (input_path, input2_path))
            rows = robust.test_battery(x, y, paired=False, spec=spec,
                                       inclusion_threshold=config["threshold"])
        _write_csv(
            out_dir / "compare.csv",
            ["item", "p_value", "stars", "direction", "effect_size", "label", "excluded_reason"],
            map(_battery_row, rows),
        )


@cli.command()
@click.option("--nmd-smartphone", type=float, default=None,
              help="trimmed-mean smartphone minutes/day of the smartphone-only group")
@click.option("--md-smartphone", type=float, default=None,
              help="trimmed-mean smartphone minutes/day of the multidevice group")
@click.option("--md-tablet", type=float, default=None,
              help="trimmed-mean tablet minutes/day of the multidevice group")
@click.option("--input", "input_path", type=_FILE)
@options("input2", "mode", "trim", "threshold")
def substitution(nmd_smartphone, md_smartphone, md_tablet, input_path, input2_path, **_) -> None:
    """Substitution/novel decomposition from explicit means or two panels."""
    with _run() as (config, out_dir):
        explicit = (nmd_smartphone, md_smartphone, md_tablet)
        if all(v is not None for v in explicit):
            _reads_no("substitution from the three means",
                      "input", "input2", "mode", "trim", "threshold")
            for flag, v in zip(("--nmd-smartphone", "--md-smartphone", "--md-tablet"), explicit):
                if not _is_real(v):
                    raise click.UsageError(f"{flag} must be a finite number, got {v!r}")
            split = robust.substitution_split(*explicit)
            # JSON has no NaN or Infinity, so a split that overflows is refused.
            if not all(map(math.isfinite, dataclasses.astuple(split))):
                raise click.UsageError("the split of the three means is not finite")
        elif any(v is not None for v in explicit):
            raise click.UsageError("provide all three trimmed means or none")
        else:
            if input_path is None or input2_path is None:
                raise click.UsageError("need --input (MD panel) and --input2 (NMD panel)")

            def minutes(path: str, *device_types: str) -> dict[str, list[float]]:
                """Each user's minutes per day on each of ``device_types``, in
                the panel at ``path``; the panel is dropped on return."""
                panel, _ = _load_panel(config, path)
                return {device_type: [m["total"] for m in pipeline.daily_minutes_by_user(
                    panel, None, device_type).values()] for device_type in device_types}

            md = minutes(input_path, "smartphone", "tablet")
            nmd = minutes(input2_path, "smartphone")
            means = []
            for name, side, device_type in (("NMD (--input2)", nmd, "smartphone"),
                                            ("MD (--input)", md, "smartphone"),
                                            ("MD (--input)", md, "tablet")):
                if not side[device_type]:
                    raise DataError(f"the {name} panel has no {device_type} usage")
                means.append(robust.trimmed_mean(side[device_type], config["trim"]))
            split = robust.substitution_split(*means)
        _write_json(out_dir / "substitution.json", dataclasses.asdict(split))


@cli.command()
@click.option("--spec", "spec_path", type=_FILE,
              help="JSON panel spec; omit for the default desk-scale panel")
@options("seed")
def generate(spec_path, seed, **_) -> None:
    """Emit a deterministic synthetic event log."""
    from . import generator

    with _run() as (config, out_dir):
        raw = _read_json_object(spec_path, "spec") if spec_path else {}
        # --seed wins over the spec's seed, which wins over the config file's;
        # the manifest records the seed that was used.
        if seed is not None or "seed" not in raw:
            raw["seed"] = config["seed"]
        config["seed"] = raw["seed"]
        try:
            panel_spec = generator.PanelSpec.from_dict(raw)
            events = generator.generate(panel_spec)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"invalid panel spec: {exc}") from exc
        with open(out_dir / "events.jsonl", "w", encoding="utf-8") as fh:
            generator.write_events_jsonl(events, fh)


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    # A float sum over the input's numbers can overflow (``statistics.fmean``).
    except (DataError, OverflowError) as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
