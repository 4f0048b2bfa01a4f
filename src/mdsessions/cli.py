"""Command-line front end for the full pipeline.

Subcommands: ingest, sessions, patterns, stats, compare, substitution,
sweep, generate.  Configuration precedence is CLI flags > config file
(``--config`` or the MDSESSIONS_CONFIG env var) > defaults; every command
writes a manifest recording the effective config and input digests so runs
are reproducible byte for byte.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

import click

from . import construction, descriptive, generator, patterns, pipeline, robust
from .ingest import DataError, Diagnostics, filter_active, normalize, write_sessions_csv

CONFIG_ENV_VAR = "MDSESSIONS_CONFIG"

DEFAULTS = {
    "mode": "events",
    "tw": 60,
    "trim": 0.2,
    "boot": 2000,
    "seed": 0,
    "evening": "17-24",
    "threshold": 0.5,
    "sweep_grid": list(descriptive.DEFAULT_TW_GRID),
    "min_active_span_days": 23,
}


def _read_json_object(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DataError(f"{what} {path} is not a JSON object")
    return loaded


def _load_config(config_path: Optional[str], cli_values: dict) -> dict:
    merged = dict(DEFAULTS)
    if config_path:
        merged.update(_read_json_object(config_path, "config"))
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    return merged


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


# What each config value must be. Values are checked, never coerced, so the
# manifest records exactly what was given.
_CONFIG_CHECKS = {
    "tw": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "trim": (lambda v: _is_number(v) and 0 <= v < 0.5, "a number in [0, 0.5)"),
    "boot": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "evening": (lambda v: isinstance(v, str), "a string like '17-24'"),
    "threshold": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "sweep_grid": (
        lambda v: isinstance(v, list) and all(_is_int(t) and t >= 0 for t in v),
        "a list of non-negative integers",
    ),
    "min_active_span_days": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
}


def _check_config(config: dict) -> None:
    for key, (ok, expected) in _CONFIG_CHECKS.items():
        if not ok(config[key]):
            raise click.UsageError(f"{key} must be {expected}, got {config[key]!r}")


def _parse_evening(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(p) for p in text.split("-"))
    except ValueError as exc:
        raise click.UsageError(f"bad evening window {text!r}; expected e.g. 17-24") from exc
    if not (0 <= lo < hi <= 24):
        raise click.UsageError(f"evening window out of range: {text!r}")
    return lo, hi


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
def _run(
    command: str,
    input_path: Optional[str],
    out: str,
    config_path: Optional[str],
    cli_values: dict,
    needs_input: bool = True,
) -> Iterator[tuple[dict, Path, list[Path]]]:
    """The steps every command shares, around the command's own work.

    Merges and checks the config (``input`` plus the shared options the
    command does not take by name), checks ``--input`` and makes the output
    directory. Yields ``(config, out_dir, inputs)``; the body may append to
    ``inputs``. The manifest is written only once the body succeeds.
    """
    config = _load_config(config_path, {**cli_values, "input": input_path})
    _check_config(config)
    if needs_input and input_path is None:
        raise click.UsageError("--input is required")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = [Path(input_path)] if needs_input else []
    yield config, out_dir, inputs
    _write_manifest(out_dir, command, config, inputs)


def _load_panel(config: dict, input_path: Path) -> list:
    diagnostics = Diagnostics()
    sessions = pipeline.load_app_sessions(input_path, config["mode"], diagnostics)
    return normalize(sessions, diagnostics)


_shared = [
    click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False)),
    click.option("--mode", type=click.Choice(["events", "sessions"]), default=None),
    click.option("--tw", type=int, default=None),
    click.option("--trim", type=float, default=None),
    click.option("--boot", type=int, default=None),
    click.option("--seed", type=int, default=None),
    click.option("--out", "out", type=click.Path(file_okay=False), required=True),
    click.option("--evening", type=str, default=None),
    click.option("--threshold", type=float, default=None),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 envvar=CONFIG_ENV_VAR),
    click.option("--offsets", "offsets_path", type=click.Path(exists=True, dir_okay=False),
                 help="CSV of user_id,offset_seconds for local-time binning"),
]


def shared_options(fn):
    for option in reversed(_shared):
        fn = option(fn)
    return fn


@click.group()
def cli() -> None:
    """Reconstruct and analyze single- and multidevice usage sessions."""


@cli.command()
@shared_options
@click.option("--min-span-days", type=int, default=None,
              help="active-panelist threshold in days (0 disables)")
def ingest(input_path, out, config_path, min_span_days, **cli_values) -> None:
    """Parse events or sessions, validate, filter, and write a session CSV."""
    with _run("ingest", input_path, out, config_path, cli_values) as (config, out_dir, inputs):
        diagnostics = Diagnostics()
        sessions = pipeline.load_app_sessions(inputs[0], config["mode"], diagnostics)
        sessions = normalize(sessions, diagnostics)
        threshold = min_span_days if min_span_days is not None else config["min_active_span_days"]
        if threshold > 0 and sessions:
            retained, dropped = filter_active(sessions, threshold)
            for user in sorted(dropped):
                diagnostics.report(user_id=user, error="user dropped by activity filter")
            sessions = [s for s in sessions if s.user_id in retained]
        with open(out_dir / "sessions.csv", "w", encoding="utf-8") as fh:
            write_sessions_csv(sessions, fh)
        with open(out_dir / "diagnostics.jsonl", "w", encoding="utf-8") as fh:
            diagnostics.write_jsonl(fh)


@cli.command()
@shared_options
def sessions(input_path, out, config_path, **cli_values) -> None:
    """Build usage and multidevice sessions plus construction statistics."""
    with _run("sessions", input_path, out, config_path, cli_values) as (config, out_dir, inputs):
        app_sessions = _load_panel(config, inputs[0])
        usage, md = pipeline.reconstruct(app_sessions, config["tw"])
        stats = construction.construction_stats(app_sessions, usage, md, config["tw"])
        with open(out_dir / "usage_sessions.jsonl", "w", encoding="utf-8") as fh:
            construction.write_usage_sessions_jsonl(usage, fh)
        with open(out_dir / "md_sessions.jsonl", "w", encoding="utf-8") as fh:
            construction.write_md_sessions_jsonl(md, fh)
        _write_json(out_dir / "construction_stats.json",
                    {"counts": stats.counts, "relation_shares": stats.relation_shares})


@cli.command(name="patterns")
@shared_options
@click.option("--contrast-group", "contrast_groups", type=int, multiple=True,
              help="prototype group ids to contrast against their complement")
def patterns_cmd(input_path, out, config_path, contrast_groups, **cli_values) -> None:
    """Prototype-group frequency report and category contrasts."""
    with _run("patterns", input_path, out, config_path, cli_values) as (config, out_dir, inputs):
        app_sessions = _load_panel(config, inputs[0])
        _, md = pipeline.reconstruct(app_sessions, config["tw"])
        overall, per_user = patterns.group_frequencies(md) if md else ({}, {})
        with open(out_dir / "group_report.csv", "w", encoding="utf-8") as fh:
            patterns.write_group_report_csv(overall, per_user, fh)
        with open(out_dir / "group_report.json", "w", encoding="utf-8") as fh:
            patterns.write_group_report_json(overall, per_user, fh)
        contrasts = {}
        # Without multidevice sessions there is nothing to contrast.
        for gid in contrast_groups if md else ():
            try:
                contrasts[str(gid)] = patterns.category_contrast(md, gid)
            except ValueError as exc:
                contrasts[str(gid)] = {"error": str(exc)}
        if contrasts:
            _write_json(out_dir / "category_contrasts.json", contrasts)


def _write_summary_csv(out_path: Path, classes: dict[str, list]) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class"] + [f.name for f in dataclasses.fields(descriptive.StatsSummary)])
        for cls, sessions in classes.items():
            n, *measures = dataclasses.astuple(descriptive.summarize(sessions))
            writer.writerow([cls, n] + [f"{v:.4f}" for v in measures])


@cli.command()
@shared_options
def stats(input_path, out, config_path, offsets_path, **cli_values) -> None:
    """Descriptive statistics reports: summaries, shares, CDFs, hourly bins."""
    with _run("stats", input_path, out, config_path, cli_values) as (config, out_dir, inputs):
        app_sessions = _load_panel(config, inputs[0])
        usage, md = pipeline.reconstruct(app_sessions, config["tw"])
        offsets = pipeline.load_utc_offsets(Path(offsets_path) if offsets_path else None)
        classes = {cls: descriptive.select_class(usage, md, cls)
                   for cls in descriptive.SESSION_CLASSES}

        _write_summary_csv(out_dir / "summary.csv", classes)
        _write_json(out_dir / "usage_shares.json", descriptive.usage_shares(usage, md))

        days = descriptive.active_span_days(app_sessions)
        with open(out_dir / "per_user.csv", "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header_written = False
            for cls, sessions in classes.items():
                summary = descriptive.per_user_summary(sessions, days)
                if summary is None:
                    continue
                row = dataclasses.asdict(summary)
                if not header_written:
                    writer.writerow(["class"] + list(row))
                    header_written = True
                writer.writerow([cls] + [f"{v:.4f}" for v in row.values()])

        with open(out_dir / "hourly.csv", "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["class"] + [f"h{h:02d}" for h in range(24)])
            for cls, sessions in classes.items():
                bins = descriptive.hourly_distribution(sessions, offsets or {})
                writer.writerow([cls] + [f"{b:.4f}" for b in bins])

        for cls, sessions in classes.items():
            values = [s.interval.duration for s in sessions]
            if not values:
                continue
            with open(out_dir / f"cdf_length_{cls}.csv", "w", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["value", "cumulative_share"])
                for v, p in descriptive.empirical_cdf(values):
                    writer.writerow([v, f"{p:.6f}"])

        _write_json(out_dir / "category_shares.json",
                    descriptive.category_share_report(app_sessions))


@cli.command()
@shared_options
def sweep(input_path, out, config_path, **cli_values) -> None:
    """Reconstruct across the timeout grid and write the sweep CSV."""
    with _run("sweep", input_path, out, config_path, cli_values) as (config, out_dir, inputs):
        app_sessions = _load_panel(config, inputs[0])
        points = descriptive.timeout_sweep(app_sessions, config["sweep_grid"])
        with open(out_dir / "sweep.csv", "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["tw"] + [f"mean_{c}_per_user" for c in descriptive.SESSION_CLASSES]
                + ["mean_app_sessions_per_usage_session"]
            )
            for p in points:
                writer.writerow(
                    [p.tw]
                    + [f"{p.mean_sessions_per_user[c]:.4f}" for c in descriptive.SESSION_CLASSES]
                    + [f"{p.mean_app_sessions_per_usage_session:.4f}"]
                )


def _write_battery_csv(rows: list[robust.BatteryRow], out_path: Path) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["item", "p_value", "stars", "direction", "effect_size", "label", "excluded_reason"]
        )
        for row in rows:
            if row.result is None:
                writer.writerow([row.item, "-", "", "", "", "", row.excluded_reason])
                continue
            r = row.result
            writer.writerow(
                [row.item, f"{r.p_value:.4f}", robust.significance_stars(r.p_value),
                 r.direction,
                 f"{r.effect_size:.4f}" if r.effect_size is not None else "",
                 r.effect_label, ""]
            )


@cli.command()
@shared_options
@click.option("--input2", "input2_path", type=click.Path(exists=True, dir_okay=False),
              help="second panel (smartphone-only group) for unpaired comparisons")
@click.option("--comparison", type=click.Choice(
    ["pure-vs-mixed-paired", "md-vs-nmd-all", "md-vs-nmd-smartphone"]),
    default="pure-vs-mixed-paired")
@click.option("--dimension", type=click.Choice(["category", "app"]), default="category")
def compare(input_path, out, config_path, offsets_path, input2_path,
            comparison, dimension, **cli_values) -> None:
    """Bootstrap test battery over app categories or individual apps."""
    with _run("compare", input_path, out, config_path, cli_values) as (config, out_dir, inputs):
        spec = robust.TrimSpec(config["trim"], config["boot"], config["seed"])
        offsets = pipeline.load_utc_offsets(Path(offsets_path) if offsets_path else None)

        if comparison == "pure-vs-mixed-paired":
            app_sessions = _load_panel(config, inputs[0])
            usage, _ = pipeline.reconstruct(app_sessions, config["tw"])
            evening = _parse_evening(config["evening"])
            pure, mixed, excluded = pipeline.smartphone_pure_vs_mixed_usage(
                usage, dimension, evening, offsets
            )
            rows = robust.test_battery(pure, mixed, paired=True, spec=spec,
                                       inclusion_threshold=config["threshold"])
            _write_json(out_dir / "exclusions.json", {"users_excluded": excluded})
        else:
            if input2_path is None:
                raise click.UsageError(f"--input2 is required for {comparison}")
            inputs.append(Path(input2_path))
            md_sessions = _load_panel(config, inputs[0])
            nmd_sessions = _load_panel(config, inputs[1])
            device = "smartphone" if comparison.endswith("smartphone") else None
            x = pipeline.daily_minutes_by_user(
                md_sessions, descriptive.active_span_days(md_sessions), dimension, device)
            y = pipeline.daily_minutes_by_user(
                nmd_sessions, descriptive.active_span_days(nmd_sessions), dimension, device)
            rows = robust.test_battery(x, y, paired=False, spec=spec,
                                       inclusion_threshold=config["threshold"])
        _write_battery_csv(rows, out_dir / "compare.csv")


@cli.command()
@click.option("--nmd-smartphone", type=float, default=None,
              help="trimmed-mean smartphone minutes/day of the smartphone-only group")
@click.option("--md-smartphone", type=float, default=None,
              help="trimmed-mean smartphone minutes/day of the multidevice group")
@click.option("--md-tablet", type=float, default=None,
              help="trimmed-mean tablet minutes/day of the multidevice group")
@shared_options
@click.option("--input2", "input2_path", type=click.Path(exists=True, dir_okay=False))
def substitution(nmd_smartphone, md_smartphone, md_tablet, input_path, out,
                 config_path, input2_path, **cli_values) -> None:
    """Substitution/novel decomposition from explicit means or two panels."""
    with _run("substitution", input_path, out, config_path, cli_values,
              needs_input=False) as (config, out_dir, inputs):
        explicit = (nmd_smartphone, md_smartphone, md_tablet)
        if all(v is not None for v in explicit):
            split = robust.substitution_split(*explicit)
        elif any(v is not None for v in explicit):
            raise click.UsageError("provide all three trimmed means or none")
        else:
            if input_path is None or input2_path is None:
                raise click.UsageError("need --input (MD panel) and --input2 (NMD panel)")
            inputs += [Path(input_path), Path(input2_path)]
            md_sessions = _load_panel(config, inputs[0])
            nmd_sessions = _load_panel(config, inputs[1])
            trim = config["trim"]

            def tm(per_user: dict[str, dict[str, float]]) -> float:
                return robust.trimmed_mean(
                    [m.get("total", 0.0) for m in per_user.values()], trim
                )

            md_days = descriptive.active_span_days(md_sessions)
            nmd_days = descriptive.active_span_days(nmd_sessions)
            split = robust.substitution_split(
                tm(pipeline.daily_minutes_by_user(nmd_sessions, nmd_days, None, "smartphone")),
                tm(pipeline.daily_minutes_by_user(md_sessions, md_days, None, "smartphone")),
                tm(pipeline.daily_minutes_by_user(md_sessions, md_days, None, "tablet")),
            )
        _write_json(out_dir / "substitution.json", dataclasses.asdict(split))


@cli.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON panel spec; omit for the default desk-scale panel")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out", type=click.Path(file_okay=False), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              envvar=CONFIG_ENV_VAR)
def generate(spec_path, seed, out, config_path) -> None:
    """Emit a deterministic synthetic event log."""
    with _run("generate", None, out, config_path, {"seed": seed},
              needs_input=False) as (_, out_dir, inputs):
        raw = {}
        if spec_path:
            inputs.append(Path(spec_path))
            raw = _read_json_object(spec_path, "spec")
        if seed is not None:
            raw["seed"] = seed
        try:
            panel_spec = generator.PanelSpec.from_dict(raw)
            events = generator.generate(panel_spec)
        except (TypeError, ValueError) as exc:
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
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
