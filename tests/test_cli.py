"""End-to-end CLI checks: every subcommand, exit codes, config precedence,
and byte-identical reruns. Commands run in-process (``run``), except where
the process itself is checked (``run_process``)."""

import csv
import gc
import hashlib
import json
import random
import subprocess
import sys
import tracemalloc

import pytest
from conftest import _bench_module, exit_code_and_stderr, run_cli

from mdsessions.cli import CONFIG_ENV_VAR, _digest, cli

CLI = [sys.executable, "-m", "mdsessions.cli"]
SESSION_HEADER = "user_id,device_id,device_type,platform,app_id,app_category,start,end\n"


def run(*args):
    """The CLI run in-process on ``args``."""
    return run_cli(list(args))


def run_process(*args, env=None):
    """The CLI run as a process of its own, where the process is what a test
    checks: its exit status, or its reading of the environment."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


@pytest.fixture(autouse=True)
def no_config_from_environment(monkeypatch):
    # An in-process run reads this process's environment, as a child would.
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def panel_dir(tmp_path_factory):
    """Generated events plus an ingested session CSV shared by the tests."""
    root = tmp_path_factory.mktemp("panel")
    spec = {
        "md_users": 3,
        "nmd_users": 2,
        "days": 4,
        "seed": 11,
        "prototype_quota": {"15": 0.4},
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    gen = run("generate", "--spec", str(spec_path), "--out", str(root / "gen"))
    assert gen.returncode == 0, gen.stderr
    ing = run(
        "ingest", "--input", str(root / "gen" / "events.jsonl"),
        "--min-span-days", "0", "--out", str(root / "ing"),
    )
    assert ing.returncode == 0, ing.stderr
    return root


def fig2_csv(tmp_path):
    """Two-device fixture whose reconstruction is known by hand."""
    rows = [
        ("u1", "phone", "smartphone", "android", "A", "social", 0, 100),
        ("u1", "phone", "smartphone", "android", "B", "social", 110, 200),
        ("u1", "phone", "smartphone", "android", "C", "games", 205, 300),
        ("u1", "phone", "smartphone", "android", "D", "social", 1000, 1100),
        ("u1", "tab", "tablet", "android", "E", "video", 50, 150),
        ("u1", "tab", "tablet", "android", "F", "video", 160, 260),
        ("u1", "tab", "tablet", "android", "G", "social", 1050, 1120),
    ]
    path = tmp_path / "fig2.csv"
    with open(path, "w") as fh:
        fh.write("user_id,device_id,device_type,platform,app_id,app_category,start,end\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    return path


class TestGenerateAndIngest:
    def test_outputs_exist(self, panel_dir):
        assert (panel_dir / "gen" / "events.jsonl").exists()
        assert (panel_dir / "gen" / "manifest.json").exists()
        assert (panel_dir / "ing" / "sessions.csv").exists()
        assert (panel_dir / "ing" / "diagnostics.jsonl").exists()

    def test_clean_panel_has_no_diagnostics(self, panel_dir):
        assert (panel_dir / "ing" / "diagnostics.jsonl").read_text() == ""

    def test_activity_filter_drops_short_users(self, panel_dir, tmp_path):
        # The 4-day panel is entirely below a 23-day threshold.
        res = run(
            "ingest", "--input", str(panel_dir / "gen" / "events.jsonl"),
            "--out", str(tmp_path / "ing23"),
        )
        assert res.returncode == 0
        body = (tmp_path / "ing23" / "sessions.csv").read_text().splitlines()
        assert len(body) == 1  # header only
        diags = (tmp_path / "ing23" / "diagnostics.jsonl").read_text()
        assert "activity filter" in diags

    def test_lone_surrogate_becomes_diagnostics_rows(self, tmp_path):
        # "\ud800" is a valid JSON string escape with no UTF-8 encoding.
        base = {"user_id": "u\ud800", "device_id": "d1", "device_type": "smartphone",
                "platform": "android", "app_id": "a", "app_category": "social"}
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({**base, "ts": 0, "kind": "foreground"}) + "\n"
                          + json.dumps({**base, "ts": 10, "kind": "background"}) + "\n")
        res = run("ingest", "--input", str(events), "--min-span-days", "0",
                  "--out", str(tmp_path / "ing"))
        assert res.returncode == 0, res.stderr
        diagnostics = (tmp_path / "ing" / "diagnostics.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in diagnostics] == [
            {"where": f"line {n}", "error": "text not encodable as UTF-8"}
            for n in (1, 2)
        ]
        assert len((tmp_path / "ing" / "sessions.csv").read_text().splitlines()) == 1

    def test_undecodable_json_lines_become_diagnostics_rows(self, tmp_path):
        good = {"user_id": "u1", "device_id": "d1", "device_type": "smartphone",
                "platform": "android", "app_id": "a", "app_category": "social"}
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join([
            DEEP_JSON, json.dumps({**good, "ts": 0, "kind": "foreground"}),
            '{"ts": ' + "1" * 5000 + "}", json.dumps({**good, "ts": 10, "kind": "background"}),
        ]) + "\n")
        res = run("ingest", "--input", str(events), "--min-span-days", "0",
                  "--out", str(tmp_path / "ing"))
        assert res.returncode == 0, res.stderr
        diagnostics = (tmp_path / "ing" / "diagnostics.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in diagnostics] == [
            {"where": "line 1", "error": "invalid json", "detail": "maximum recursion depth "
             "exceeded while decoding a JSON array from a unicode string"},
            {"where": "line 3", "error": "invalid json", "detail": "Exceeds the limit (4300 "
             "digits) for integer string conversion: value has 5000 digits; use "
             "sys.set_int_max_str_digits() to increase the limit"},
        ]
        assert (tmp_path / "ing" / "sessions.csv").read_text().splitlines()[1:] == [
            "u1,d1,smartphone,android,a,social,0,10"]

    def test_line_breaks_in_ids_survive_the_round_trip(self, tmp_path):
        # csv.writer leaves a bare "\r" unquoted, and a reader without
        # newline="" turns a quoted "\r\n" into "\n".
        records = [
            {"user_id": user, "device_id": device, "device_type": device_type,
             "platform": "android", "app_id": app, "app_category": "social", "ts": ts,
             "kind": kind}
            for user in ("a\rb", "a\r\n", "a\nb", "u")
            for device, device_type, app, starts in (("phone", "smartphone", "x\ry", (0, 500)),
                                                     ("tab\r", "tablet", "z", (30, 2000)))
            for t in starts
            for ts, kind in ((t, "foreground"), (t + 60, "background"))
        ]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(json.dumps(r) + "\n" for r in records))
        events_csv = tmp_path / "events.csv"
        with open(events_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, list(records[0]), quoting=csv.QUOTE_ALL)
            writer.writeheader()
            writer.writerows(records)
        res = run("ingest", "--input", str(events), "--min-span-days", "0",
                  "--out", str(tmp_path / "ing"))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "ing" / "diagnostics.jsonl").read_text() == ""

        outputs = []
        for name, path, mode in (("jsonl", events, "events"), ("csv", events_csv, "events"),
                                 ("ing", tmp_path / "ing" / "sessions.csv", "sessions")):
            res = run("sessions", "--input", str(path), "--mode", mode,
                      "--out", str(tmp_path / name))
            assert res.returncode == 0, res.stderr
            outputs.append([(tmp_path / name / f).read_bytes() for f in
                            ("usage_sessions.jsonl", "md_sessions.jsonl", "construction_stats.json")])
        # Two usage sessions on each device of the four users.
        assert len(outputs[0][0].splitlines()) == 16
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_far_future_timestamp_passes_activity_filter(self, tmp_path):
        # The end lies in the year 3170843, past what datetime can represent.
        path = tmp_path / "far.csv"
        path.write_text("user_id,device_id,device_type,platform,app_id,app_category,start,end\n"
                        "u1,d1,smartphone,android,a,c,0,99999999999999\n")
        res = run("ingest", "--input", str(path), "--mode", "sessions",
                  "--out", str(tmp_path / "ing"))
        assert res.returncode == 0, res.stderr
        rows = (tmp_path / "ing" / "sessions.csv").read_text().splitlines()
        assert rows[1:] == ["u1,d1,smartphone,android,a,c,0,99999999999999"]

    def test_manifest_records_config_and_digest(self, panel_dir):
        manifest = json.loads((panel_dir / "ing" / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["config"]["tw"] == 60
        # The fixture's --min-span-days 0 is the config key's value.
        assert manifest["config"]["min_active_span_days"] == 0
        (digest,) = manifest["inputs"].values()
        assert len(digest) == 64

    def test_digest_reads_a_large_file_in_small_chunks(self, tmp_path):
        data = random.Random(5).randbytes(4 * 2**20 + 7)
        path = tmp_path / "large.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = _digest(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak < 256 * 2**10


class TestSessionsCommand:
    def test_fig2_reconstruction(self, tmp_path):
        path = fig2_csv(tmp_path)
        res = run("sessions", "--input", str(path), "--mode", "sessions",
                  "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr
        usage = [json.loads(l) for l in (tmp_path / "out" / "usage_sessions.jsonl").read_text().splitlines()]
        md = [json.loads(l) for l in (tmp_path / "out" / "md_sessions.jsonl").read_text().splitlines()]
        spans = sorted((u["device_type"], u["start"], u["end"]) for u in usage)
        assert spans == [
            ("smartphone", 0, 300), ("smartphone", 1000, 1100),
            ("tablet", 50, 260), ("tablet", 1050, 1120),
        ]
        assert sorted((m["start"], m["end"]) for m in md) == [(0, 300), (1000, 1120)]
        stats = json.loads((tmp_path / "out" / "construction_stats.json").read_text())
        assert stats["counts"]["multidevice"]["multidevice_sessions"] == 2

    def test_tw_flag_changes_result(self, tmp_path):
        path = fig2_csv(tmp_path)
        res = run("sessions", "--input", str(path), "--mode", "sessions",
                  "--tw", "1", "--out", str(tmp_path / "tw1"))
        assert res.returncode == 0
        usage = (tmp_path / "tw1" / "usage_sessions.jsonl").read_text().splitlines()
        assert len(usage) == 7  # nothing merges at tw=1


class TestPatternsCommand:
    def test_group_report(self, panel_dir, tmp_path):
        res = run("patterns", "--input", str(panel_dir / "ing" / "sessions.csv"),
                  "--mode", "sessions", "--contrast-group", "15",
                  "--out", str(tmp_path / "pat"))
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "pat" / "group_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        total = sum(float(r["share_overall"]) for r in rows)
        assert total == pytest.approx(100.0, abs=0.1)
        report = json.loads((tmp_path / "pat" / "group_report.json").read_text())
        assert "15" in report["overall"]
        assert (tmp_path / "pat" / "category_contrasts.json").exists()

    def test_no_md_sessions_still_writes_reports(self, tmp_path):
        path = tmp_path / "solo.csv"
        path.write_text(
            "user_id,device_id,device_type,platform,app_id,app_category,start,end\n"
            "u1,phone,smartphone,android,a,social,0,100\n"
        )
        res = run("patterns", "--input", str(path), "--mode", "sessions",
                  "--out", str(tmp_path / "pat0"))
        assert res.returncode == 0
        report = json.loads((tmp_path / "pat0" / "group_report.json").read_text())
        assert report == {"overall": {}, "per_user_mean": {}}


class TestStatsAndSweep:
    def test_stats_outputs(self, panel_dir, tmp_path):
        res = run("stats", "--input", str(panel_dir / "ing" / "sessions.csv"),
                  "--mode", "sessions", "--out", str(tmp_path / "st"))
        assert res.returncode == 0, res.stderr
        for name in ("summary.csv", "usage_shares.json", "per_user.csv",
                     "hourly.csv", "category_shares.json"):
            assert (tmp_path / "st" / name).exists()
        shares = json.loads((tmp_path / "st" / "usage_shares.json").read_text())
        for partition in shares.values():
            for denom in ("app_sessions", "usage_sessions", "interaction_time"):
                assert sum(c[denom] for c in partition.values()) == pytest.approx(100.0, abs=0.2)

    def test_cdf_files_monotone(self, panel_dir, tmp_path):
        res = run("stats", "--input", str(panel_dir / "ing" / "sessions.csv"),
                  "--mode", "sessions", "--out", str(tmp_path / "st2"))
        assert res.returncode == 0
        cdfs = list((tmp_path / "st2").glob("cdf_length_*.csv"))
        assert cdfs
        for path in cdfs:
            with open(path) as fh:
                probs = [float(r["cumulative_share"]) for r in csv.DictReader(fh)]
            assert probs == sorted(probs) and probs[-1] == pytest.approx(1.0)

    def test_sweep_monotone(self, panel_dir, tmp_path):
        res = run("sweep", "--input", str(panel_dir / "ing" / "sessions.csv"),
                  "--mode", "sessions", "--out", str(tmp_path / "sw"))
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "sw" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["tw"]) for r in rows] == [1, 10, 60, 300, 1000, 10000]
        merged = [float(r["mean_app_sessions_per_usage_session"]) for r in rows]
        assert merged == sorted(merged)


class TestCompareAndSubstitution:
    def test_pure_vs_mixed(self, panel_dir, tmp_path):
        res = run("compare", "--input", str(panel_dir / "ing" / "sessions.csv"),
                  "--mode", "sessions", "--out", str(tmp_path / "cmp"))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "cmp" / "compare.csv").exists()
        assert (tmp_path / "cmp" / "exclusions.json").exists()

    def test_two_panel_comparison(self, panel_dir, tmp_path):
        sessions_csv = str(panel_dir / "ing" / "sessions.csv")
        res = run("compare", "--input", sessions_csv, "--input2", sessions_csv,
                  "--mode", "sessions", "--comparison", "md-vs-nmd-smartphone",
                  "--out", str(tmp_path / "cmp2"))
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "cmp2" / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows

    def test_missing_input2_is_usage_error(self, panel_dir, tmp_path):
        res = run("compare", "--input", str(panel_dir / "ing" / "sessions.csv"),
                  "--mode", "sessions", "--comparison", "md-vs-nmd-all",
                  "--out", str(tmp_path / "cmp3"))
        assert res.returncode == 1

    def test_substitution_explicit_means(self, tmp_path):
        res = run("substitution", "--nmd-smartphone", "172.81",
                  "--md-smartphone", "138.00", "--md-tablet", "71.83",
                  "--out", str(tmp_path / "sub"))
        assert res.returncode == 0, res.stderr
        split = json.loads((tmp_path / "sub" / "substitution.json").read_text())
        assert split["substitution_share"] * 100 == pytest.approx(48.5, abs=0.5)
        assert split["novel_share"] * 100 == pytest.approx(51.5, abs=0.5)

    def test_substitution_partial_means_rejected(self, tmp_path):
        res = run("substitution", "--nmd-smartphone", "100",
                  "--out", str(tmp_path / "sub2"))
        assert res.returncode == 1


# Valid JSON nested deeper than the decoder's recursion limit.
DEEP_JSON = "[" * 100000 + "]" * 100000


# Each row: a command line, the side file its last flag names (or None) and
# the start of the stderr expected; exit 2 for a data error, else 1.
EXIT_CASES = [
    (("stats", "--offsets"), "user_id,hours\nu1,3\n", "data error"),
    (("stats", "--offsets"), "user_id,offset_seconds\nu1,abc\n", "data error"),
    (("sessions", "--config"), '{"tw": "60"}', "usage error"),
    (("sessions", "--config"), '{"mode": "foo"}', "usage error: mode must be"),
    (("sessions", "--config"), '{"tww": 5, "offsets_path": "nope.csv"}',
     "usage error: config key 'tww' is not a setting; the settings are mode, tw, "),
    (("compare", "--evening", "25-3"), None, "usage error: evening must be"),
    (("sessions", "--tw", "-5"), None, "usage error"),
    (("ingest", "--min-span-days", "-1"), None, "usage error: min_active_span_days"),
    (("compare", "--trim", "0.7"), None, "usage error"),
    (("compare", "--boot", "0"), None, "usage error"),
    (("sessions", "--mode", "sessions", "--input"),
     b"user_id,device_id,device_type,platform,app_id,app_category,start,end\n"
     b"u1,phone,smartphone,android,\xff,social,0,100\n", "data error"),
    (("sessions", "--mode", "events", "--input"),
     b'{"user_id": "\xff", "device_id": "p"}\n', "data error"),
    (("sessions", "--mode", "sessions", "--input"),
     "user_id,device_id,device_type,platform,app_id,app_category,start,end\n"
     "u1,phone,smartphone,android," + "x" * 140000 + ",social,0,100\n",
     "data error: CSV parse failure at line 2: "),
    (("sessions", "--mode", "sessions", "--input"),
     "user_id,device_id,device_type,platform,app_id,app_category,start,end\n"
     "u1,phone,smartphone,android,a,social,0,9\n"
     "u1,phone,smartphone,android," + "x" * 140000 + ",social,20,29\n",
     "data error: CSV parse failure at line 3: "),
    (("stats", "--offsets"), b"user_id,offset_seconds\nu\xff,3600\n",
     "data error: {side} is not UTF-8 text: "),
    (("stats", "--offsets"), "user_id,offset_seconds\nu1,0\nu2," + "9" * 140000 + "\n",
     "data error: offsets CSV line 3: "),
    (("sessions", "--config"), b'{"tw": 60, "evening": "\xff"}', "data error"),
    (("generate", "--spec"), '{"days": 3,', "data error"),
    (("generate", "--seed", "3", "--spec"), "[1, 2]", "data error"),
    (("generate", "--spec"), '{"prototype_quota": [1]}',
     "data error: invalid panel spec: prototype_quota must be a JSON object"),
    (("generate", "--spec"), '{"md_category_shift": [1]}',
     "data error: invalid panel spec: md_category_shift must be a JSON object"),
    (("generate", "--spec"), '{"gap_dist": 5}',
     "data error: invalid panel spec: gap_dist must be a JSON object"),
    (("generate", "--spec"), '{"duration_dist": {"family": "exponential"}}',
     "data error: invalid panel spec: duration_dist needs a family and a params object"),
    (("generate", "--spec"),
     '{"md_users": 1, "days": 1, "duration_dist": '
     '{"family": "lognormal", "params": {"mu": 1000, "sigma": 1}}}',
     "data error: invalid panel spec: cannot convert float infinity to integer"),
    (("generate", "--spec"),
     '{"md_category_shift": {"social": "xy"}, "md_users": 1, "days": 1}',
     "data error: invalid panel spec: md_category_shift values must be finite numbers"),
    (("generate", "--spec"), '{"start_ts": 1e300, "md_users": 1, "days": 1}',
     "data error: invalid panel spec: start_ts must be an integer"),
    (("generate", "--spec"),
     '{"smartphone_sessions_per_day": "8", "md_users": 1, "days": 1}',
     "data error: invalid panel spec: smartphone_sessions_per_day must be a non-negative "
     "number, got '8'"),
    (("generate", "--spec"), '{"tablet_sessions_per_day": -3, "md_users": 1, "days": 1}',
     "data error: invalid panel spec: tablet_sessions_per_day must be a non-negative "
     "number, got -3"),
    (("generate", "--spec"), '{"tw": -5, "md_users": 1, "days": 1}',
     "data error: invalid panel spec: tw must be non-negative, got -5"),
    (("generate", "--spec"), '{"seed": -1, "md_users": 1, "days": 1}',
     "data error: invalid panel spec: seed must be non-negative, got -1"),
    (("generate", "--spec"), '{"md_episodes_per_day": true, "md_users": 1, "days": 1}',
     "data error: invalid panel spec: md_episodes_per_day must be a non-negative "
     "number, got True"),
    (("substitution", "--input2", "{side}", "--input"),
     "user_id,device_id,device_type,platform,app_id,app_category,start,end\n"
     "u1,phone,smartphone,android,a,social,0,100\n",
     "data error: the MD (--input) panel has no tablet usage"),
    (("substitution", "--nmd-smartphone", "nan", "--md-smartphone", "1",
      "--md-tablet", "inf"), None,
     "usage error: --nmd-smartphone must be a finite number, got nan"),
    (("substitution", "--nmd-smartphone", "1", "--md-smartphone", "1",
      "--md-tablet", "-inf"), None,
     "usage error: --md-tablet must be a finite number, got -inf"),
    (("substitution", "--nmd-smartphone", "1e308", "--md-smartphone=-1e308",
      "--md-tablet", "1"), None, "usage error: the split of the three means is not finite"),
    (("stats", "--mode", "sessions", "--input"),
     "user_id,device_id,device_type,platform,app_id,app_category,start,end\n"
     "u,p,smartphone,android,a,c,0,1.7e308\n"
     "v,p,smartphone,android,a,c,0,1.7e308\n", "data error: "),
    (("sessions", "--config"), DEEP_JSON,
     "data error: cannot read config {side}: maximum recursion depth exceeded"),
    (("generate", "--spec"), DEEP_JSON,
     "data error: cannot read spec {side}: maximum recursion depth exceeded"),
    (("sessions", "--config"), '{"tw": ' + "1" * 5000 + "}",
     "data error: cannot read config {side}: Exceeds the limit (4300 digits)"),
    (("compare", "--evening", "abc"), None, "usage error: evening must be"),
    (("substitution",), None,
     "usage error: need --input (MD panel) and --input2 (NMD panel)"),
    (("generate", "--spec"),
     '{"duration_dist": {"family": "exponential", "params": {"mean": 0}}}',
     "data error: invalid panel spec: exponential mean must be positive"),
    (("generate", "--spec"),
     '{"gap_dist": {"family": "lognormal", "params": {"mu": 0, "sigma": 0}}}',
     "data error: invalid panel spec: lognormal sigma must be positive"),
    (("generate", "--spec"),
     '{"duration_dist": {"family": "exponential", "params": {"mean": NaN}}}',
     "data error: invalid panel spec: distribution params must be finite numbers"),
    (("generate", "--spec"), '{"category_mix": {}}',
     "data error: invalid panel spec: category mix must not be empty"),
    (("generate", "--spec"), '{"prototype_quota": {"15": -0.1}}',
     "data error: invalid panel spec: quota must be non-negative"),
    (("generate", "--spec"), '{"tw": 0}',
     "data error: invalid panel spec: tw must be positive, got 0"),
    (("generate", "--spec"), '{"tw": 1000000000000000000}',
     "data error: invalid panel spec: tw must be at most 922337203685477580, "
     "got 1000000000000000000"),
    (("generate", "--spec"), '{"category_mix": {"a": 0}}',
     "data error: invalid panel spec: category_mix weights must be non-negative, with a "
     "positive finite sum"),
    (("generate", "--spec"), '{"category_mix": {"a": -1, "b": 2}}',
     "data error: invalid panel spec: category_mix weights must be non-negative, with a "
     "positive finite sum"),
    (("generate", "--spec"), '{"category_mix": {"a": 1e308, "b": 1e308}}',
     "data error: invalid panel spec: category_mix weights must be non-negative, with a "
     "positive finite sum"),
    (("ingest", "--tw", "60"), None, "usage error: No such option '--tw'"),
    (("sessions", "--offsets"), "user_id,offset_seconds\nu1,0\n",
     "usage error: No such option '--offsets'"),
    (("sweep", "--tw", "60"), None, "usage error: No such option '--tw'"),
    (("patterns", "--boot", "20"), None, "usage error: No such option '--boot'"),
    (("substitution", "--offsets"), "user_id,offset_seconds\nu1,0\n",
     "usage error: No such option '--offsets'"),
    (("substitution", "--nmd-smartphone", "1", "--md-smartphone", "1", "--md-tablet", "1",
      "--input"), SESSION_HEADER + "u1,phone,smartphone,android,a,social,0,100\n",
     "usage error: substitution from the three means reads no --input"),
    (("compare", "--input2"), SESSION_HEADER + "u1,phone,smartphone,android,a,social,0,100\n",
     "usage error: pure-vs-mixed-paired reads no --input2"),
    (("compare", "--comparison", "md-vs-nmd-all", "--offsets"),
     "user_id,offset_seconds\nu1,0\n", "usage error: md-vs-nmd-all reads no --offsets"),
    *((("compare", "--comparison", comparison, flag, value), None,
       f"usage error: {comparison} reads no {flag}")
      for comparison in ("md-vs-nmd-all", "md-vs-nmd-smartphone")
      for flag, value in (("--tw", "1"), ("--evening", "5-6"))),
    *((("substitution", "--nmd-smartphone", "1", "--md-smartphone", "1", "--md-tablet", "1",
        flag, value), None, f"usage error: substitution from the three means reads no {flag}")
      for flag, value in (("--mode", "sessions"), ("--trim", "0.1"), ("--threshold", "0.1"))),
    *(((command, "--offsets"), "user_id,offset_seconds\nu1,0\nu1,3600\n",
       "data error: offsets CSV line 3: user 'u1' is given twice")
      for command in ("stats", "compare")),
]
EXIT_IDS = [
    "offsets-no-column", "offsets-not-int", "config-tw-string", "config-mode-unknown",
    "config-unknown-key", "evening-out-of-range", "tw-negative", "min-span-days-negative",
    "trim-too-large", "boot-zero", "input-csv-not-utf8", "input-jsonl-not-utf8",
    "csv-field-over-limit", "csv-field-over-limit-line-3", "offsets-not-utf8",
    "offsets-field-over-limit", "config-not-utf8", "spec-bad-json", "spec-list-with-seed",
    "spec-quota-list", "spec-shift-list", "spec-dist-number", "spec-dist-no-params",
    "spec-dist-overflow", "spec-shift-string", "spec-start-ts-float", "spec-rate-string",
    "spec-rate-negative", "spec-tw-negative", "spec-seed-negative", "spec-rate-bool",
    "substitution-no-tablet", "substitution-nan", "substitution-infinite",
    "substitution-overflow", "stats-duration-overflow", "config-deep-nesting",
    "spec-deep-nesting", "config-int-over-digit-limit", "evening-not-a-window",
    "substitution-no-input2", "spec-exponential-mean-zero", "spec-lognormal-sigma-zero",
    "spec-param-nan", "spec-category-mix-empty", "spec-quota-negative", "spec-tw-zero",
    "spec-tw-over-int64", "spec-category-mix-zero-sum", "spec-category-mix-negative",
    "spec-category-mix-sum-overflow", "ingest-tw", "sessions-offsets", "sweep-tw",
    "patterns-boot", "substitution-offsets", "substitution-means-and-input",
    "compare-paired-input2", "compare-md-vs-nmd-offsets", "compare-md-vs-nmd-all-tw",
    "compare-md-vs-nmd-all-evening", "compare-md-vs-nmd-smartphone-tw",
    "compare-md-vs-nmd-smartphone-evening", "substitution-means-mode",
    "substitution-means-trim", "substitution-means-threshold", "stats-offsets-user-twice",
    "compare-offsets-user-twice",
]


def exit_case(tmp_path, args, side_file):
    """The exit code and stderr of an ``EXIT_CASES`` row run in ``tmp_path``,
    and its side file's path."""
    side = tmp_path / "side"
    if side_file is not None:
        if isinstance(side_file, str):
            side_file = side_file.encode()
        side.write_bytes(side_file)
        # ``{side}`` in a case's options names the side file again.
        args = (*(a.format(side=side) for a in args), str(side))
    # generate, and substitution given the three means, read no panel.
    if args[0] != "generate" and "--md-tablet" not in args:
        # The case's own options come last, so its --input and --mode win.
        args = (args[0], "--input", str(fig2_csv(tmp_path)), "--mode", "sessions", *args[1:])
    return (*exit_code_and_stderr([*args, "--out", str(tmp_path / "out")]), side)


class TestExitCodes:
    def test_missing_input_usage_error(self, tmp_path):
        res = run_process("sessions", "--out", str(tmp_path / "x"))
        assert res.returncode == 1

    def test_unknown_command(self, tmp_path):
        res = run("frobnicate", "--out", str(tmp_path / "x"))
        assert res.returncode == 1

    def test_malformed_session_csv_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,start\nu1,0\n")
        res = run_process("sessions", "--input", str(bad), "--mode", "sessions",
                          "--out", str(tmp_path / "y"))
        assert res.returncode == 2

    def test_invalid_generator_spec_data_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"days": 0}')
        res = run("generate", "--spec", str(spec), "--out", str(tmp_path / "z"))
        assert res.returncode == 2

    @pytest.mark.parametrize("args, side_file, message", EXIT_CASES, ids=EXIT_IDS)
    def test_bad_option_or_side_file_exits_cleanly(self, tmp_path, args, side_file, message):
        code, stderr, side = exit_case(tmp_path, args, side_file)
        assert code == (2 if message.startswith("data error") else 1), stderr
        assert stderr.startswith(message.format(side=side)), stderr
        assert "Traceback" not in stderr

    def test_exit_code_table_gives_the_same_on_a_second_pass(self, tmp_path):
        """Every row run again in the same process gives the same exit code
        and stderr, and each run leaves the cyclic garbage collector as it
        found it: no command leaves module state behind for the next."""
        enabled = gc.isenabled()
        passes = []
        for _ in range(2):
            results = {}
            for name, (args, side_file, _message) in zip(EXIT_IDS, EXIT_CASES):
                (tmp_path / name).mkdir(exist_ok=True)
                results[name] = exit_case(tmp_path / name, args, side_file)[:2]
                assert gc.isenabled() == enabled, name
            passes.append(results)
        assert passes[0] == passes[1]


    @pytest.mark.parametrize("args, input2, message", [
        (("substitution",), "user_id,start\nu1,0\n",
         "data error: session CSV missing columns: ['device_id', 'device_type', "),
        (("compare", "--comparison", "md-vs-nmd-smartphone"), "user_id,start\nu1,0\n",
         "data error: session CSV missing columns: ['device_id', 'device_type', "),
        (("substitution",), SESSION_HEADER + "u1,tab,tablet,android,a,social,0,100\n",
         "data error: the NMD (--input2) panel has no smartphone usage"),
    ], ids=["substitution-bad-input2", "compare-md-vs-nmd-bad-input2",
            "substitution-input2-no-smartphone"])
    def test_input2_errors_come_before_input_errors(self, tmp_path, args, input2, message):
        """Of an ``--input`` without tablet usage and a bad ``--input2``, the
        ``--input2`` error is the one reported."""
        phones = tmp_path / "phones.csv"
        phones.write_text(SESSION_HEADER + "u1,phone,smartphone,android,a,social,0,100\n")
        (tmp_path / "input2.csv").write_text(input2)
        code, stderr = exit_code_and_stderr(
            [*args, "--input", str(phones), "--mode", "sessions",
             "--input2", str(tmp_path / "input2.csv"), "--out", str(tmp_path / "out")])
        assert code == 2, stderr
        assert stderr.startswith(message), stderr


# Each command's flags: those it reads in one of its modes, plus --out and
# --config; a mode refuses the others. The one flag taken without being read is
# --threshold of substitution from two panels (README).
FLAGS = {
    "ingest": {"--input", "--mode", "--min-span-days", "--out", "--config"},
    "sessions": {"--input", "--mode", "--tw", "--out", "--config"},
    "patterns": {"--input", "--mode", "--tw", "--contrast-group", "--out", "--config"},
    "stats": {"--input", "--mode", "--tw", "--offsets", "--out", "--config"},
    "sweep": {"--input", "--mode", "--out", "--config"},
    "compare": {"--input", "--input2", "--mode", "--tw", "--trim", "--boot", "--seed",
                "--evening", "--threshold", "--offsets", "--comparison", "--dimension",
                "--out", "--config"},
    "substitution": {"--input", "--input2", "--mode", "--trim", "--threshold",
                     "--nmd-smartphone", "--md-smartphone", "--md-tablet", "--out", "--config"},
    "generate": {"--spec", "--seed", "--out", "--config"},
}


def test_each_command_takes_only_the_flags_it_reads():
    flags = {name: {opt for param in command.params for opt in param.opts
                    if opt.startswith("--")}
             for name, command in cli.commands.items()}
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 54


# Each mode of compare and substitution, run on fig2.csv as both panels, with
# the side flags it reads.
MODE_COMMANDS = {
    "pure-vs-mixed-paired": ("compare", "--input", "fig2.csv", "--offsets", "offsets.csv"),
    "md-vs-nmd-all": ("compare", "--comparison", "md-vs-nmd-all",
                      "--input", "fig2.csv", "--input2", "fig2.csv"),
    "md-vs-nmd-smartphone": ("compare", "--comparison", "md-vs-nmd-smartphone",
                             "--input", "fig2.csv", "--input2", "fig2.csv"),
    "substitution-means": ("substitution", "--nmd-smartphone", "172.81",
                           "--md-smartphone", "138.00", "--md-tablet", "71.83"),
    "substitution-panels": ("substitution", "--input", "fig2.csv", "--input2", "fig2.csv"),
}
# The other flags each mode reads.
READ_FLAGS = {
    "pure-vs-mixed-paired": ("--mode", "sessions", "--tw", "1", "--trim", "0.1", "--boot", "20",
                             "--seed", "3", "--evening", "5-6", "--threshold", "0.2",
                             "--dimension", "app"),
    "md-vs-nmd-all": ("--mode", "sessions", "--trim", "0.1", "--boot", "20", "--seed", "3",
                      "--threshold", "0.2", "--dimension", "app"),
    "md-vs-nmd-smartphone": ("--mode", "sessions", "--trim", "0.1", "--boot", "20",
                             "--seed", "3", "--threshold", "0.2", "--dimension", "app"),
    "substitution-means": (),
    "substitution-panels": ("--mode", "sessions", "--trim", "0.1"),
}


@pytest.fixture
def mode_inputs(tmp_path, monkeypatch):
    """fig2.csv and a one-user offsets.csv in the current directory."""
    fig2_csv(tmp_path)
    (tmp_path / "offsets.csv").write_text("user_id,offset_seconds\nu1,3600\n")
    monkeypatch.chdir(tmp_path)


@pytest.mark.usefixtures("mode_inputs")
@pytest.mark.parametrize("mode", MODE_COMMANDS)
def test_each_mode_runs_with_the_flags_it_reads(mode):
    res = run(*MODE_COMMANDS[mode], *READ_FLAGS[mode], "--out", "out")
    assert res.returncode == 0, res.stderr


@pytest.mark.usefixtures("mode_inputs")
@pytest.mark.parametrize("mode", MODE_COMMANDS)
def test_config_file_settings_pass_every_mode(mode):
    """A mode refuses a flag it does not read, but not the same setting from
    a config file: one file serves every command, and the manifest records it."""
    settings = {"tw": 1, "evening": "5-6", "mode": "sessions", "trim": 0.1, "threshold": 0.2,
                "boot": 20}
    with open("cfg.json", "w") as fh:
        json.dump(settings, fh)
    res = run(*MODE_COMMANDS[mode], "--config", "cfg.json", "--out", "out")
    assert res.returncode == 0, res.stderr
    with open("out/manifest.json") as fh:
        assert json.load(fh)["config"].items() >= settings.items()


# The settings a manifest's ``config`` holds, each from a default, the config
# file or a flag.
SETTINGS = {"mode", "tw", "trim", "boot", "seed", "evening", "threshold", "sweep_grid",
            "min_active_span_days"}
# Every command and mode, given every file it reads.
MANIFEST_RUNS = {
    "ingest": ("ingest", "--input", "fig2.csv", "--mode", "sessions"),
    "sessions": ("sessions", "--input", "fig2.csv", "--mode", "sessions", "--tw", "1"),
    "patterns": ("patterns", "--input", "fig2.csv", "--mode", "sessions",
                 "--contrast-group", "15"),
    "stats": ("stats", "--input", "fig2.csv", "--mode", "sessions", "--offsets", "offsets.csv"),
    "sweep": ("sweep", "--input", "fig2.csv", "--mode", "sessions"),
    **{mode: MODE_COMMANDS[mode] + READ_FLAGS[mode] for mode in MODE_COMMANDS},
    "generate": ("generate", "--seed", "4"),
    "generate-spec": ("generate", "--spec", "spec.json"),
}


@pytest.mark.usefixtures("mode_inputs")
@pytest.mark.parametrize("name", MANIFEST_RUNS)
def test_manifest_records_the_settings_and_digests_the_given_files(name):
    """A manifest's ``config`` holds the settings, plus ``input`` when
    ``--input`` is given; its ``inputs`` digest the files given as ``--input``,
    ``--input2`` and ``--spec``, and no other (``--offsets`` is not one)."""
    args = MANIFEST_RUNS[name]
    with open("spec.json", "w") as fh:
        json.dump({"md_users": 1, "nmd_users": 1, "days": 1}, fh)
    res = run(*args, "--out", "out")
    assert res.returncode == 0, res.stderr
    with open("out/manifest.json") as fh:
        manifest = json.load(fh)
    flags = dict(zip(args[1::2], args[2::2]))
    config = manifest["config"]
    assert set(config) == SETTINGS | ({"input"} if "--input" in flags else set())
    assert config.get("input") == flags.get("--input")
    given = (flags[flag] for flag in ("--input", "--input2", "--spec") if flag in flags)
    assert manifest["inputs"] == {path: _digest(path) for path in given}
    assert manifest["config_hash"] == hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()


# Pairs of runs that differ only in a flag the manifest does not record.
UNRECORDED = {
    "stats-offsets": tuple(
        ("stats", "--input", "fig2.csv", "--mode", "sessions", "--offsets", offsets)
        for offsets in ("offsets.csv", "offsets2.csv")),
    "patterns-contrast-group": tuple(
        ("patterns", "--input", "fig2.csv", "--mode", "sessions", "--contrast-group", group)
        for group in ("15", "135")),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17: manifests record neither --offsets "
                   "nor the flags that only one command takes")
@pytest.mark.usefixtures("mode_inputs")
@pytest.mark.parametrize("name", UNRECORDED)
def test_runs_that_differ_in_a_flag_write_different_manifests(name):
    with open("offsets2.csv", "w") as fh:
        fh.write("user_id,offset_seconds\nu1,-7200\n")
    manifests = []
    for n, args in enumerate(UNRECORDED[name]):
        res = run(*args, "--out", f"out{n}")
        assert res.returncode == 0, res.stderr
        with open(f"out{n}/manifest.json", "rb") as fh:
            manifests.append(fh.read())
    assert manifests[0] != manifests[1]


def test_benchmark_commands_run(tmp_path, monkeypatch):
    """Every command of the benchmark's workloads exits 0 on small inputs at
    the paths it reads, so no narrowing of the CLI makes one a usage error."""
    # bench/workloads.py imports its generator as a top-level module.
    monkeypatch.setitem(sys.modules, "gen", _bench_module("gen"))
    workloads = _bench_module("workloads").WORKLOADS
    panel = fig2_csv(tmp_path).read_text()
    offsets = "user_id,offset_seconds\nu1,3600\n"
    event = {"user_id": "u1", "device_id": "p", "device_type": "smartphone",
             "platform": "android", "app_id": "a", "app_category": "social"}
    events = "".join(json.dumps({**event, "ts": ts, "kind": kind}) + "\n"
                     for ts, kind in ((0, "foreground"), (100, "background")))
    inputs = {"events.jsonl": events,
              "sessions.csv": panel, "offsets.csv": offsets, "md_panel.csv": panel,
              "nmd_panel.csv": panel, "battery_offsets.csv": offsets}
    (tmp_path / "in").mkdir()
    for name, text in inputs.items():
        (tmp_path / "in" / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for workload in workloads.values():
        for command in workload.commands:
            res = run(*command)
            assert res.returncode == 0, (command, res.stderr)


class TestDeterminismAndConfig:
    def all_bytes(self, directory):
        return {
            p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
        }

    def test_rerun_byte_identical(self, panel_dir, tmp_path):
        sessions_csv = str(panel_dir / "ing" / "sessions.csv")
        for sub in ("a", "b"):
            for cmd, extra in (
                ("sessions", []),
                ("patterns", []),
                ("stats", []),
                ("sweep", []),
                ("compare", []),
            ):
                res = run(cmd, "--input", sessions_csv, "--mode", "sessions",
                          *extra, "--out", str(tmp_path / sub / cmd))
                assert res.returncode == 0, res.stderr
        for cmd in ("sessions", "patterns", "stats", "sweep", "compare"):
            assert self.all_bytes(tmp_path / "a" / cmd) == self.all_bytes(tmp_path / "b" / cmd)

    def test_config_file_overrides_default(self, panel_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tw": 1}')
        sessions_csv = str(panel_dir / "ing" / "sessions.csv")
        res = run("sessions", "--input", sessions_csv, "--mode", "sessions",
                  "--config", str(cfg), "--out", str(tmp_path / "cfg_out"))
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "cfg_out" / "manifest.json").read_text())
        assert manifest["config"]["tw"] == 1

    def test_cli_flag_overrides_config_file(self, panel_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tw": 1}')
        sessions_csv = str(panel_dir / "ing" / "sessions.csv")
        res = run("sessions", "--input", sessions_csv, "--mode", "sessions",
                  "--config", str(cfg), "--tw", "300",
                  "--out", str(tmp_path / "flag_out"))
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "flag_out" / "manifest.json").read_text())
        assert manifest["config"]["tw"] == 300

    def test_config_env_var(self, panel_dir, tmp_path):
        import os

        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tw": 10}')
        env = dict(os.environ, MDSESSIONS_CONFIG=str(cfg))
        sessions_csv = str(panel_dir / "ing" / "sessions.csv")
        res = run_process("sessions", "--input", sessions_csv, "--mode", "sessions",
                          "--out", str(tmp_path / "env_out"), env=env)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "env_out" / "manifest.json").read_text())
        assert manifest["config"]["tw"] == 10

    def test_generate_uses_and_records_the_config_or_spec_seed(self, tmp_path):
        (tmp_path / "spec.json").write_text('{"md_users": 2, "days": 2}')
        (tmp_path / "seeded.json").write_text('{"md_users": 2, "days": 2, "seed": 11}')
        (tmp_path / "cfg.json").write_text('{"seed": 5}')
        runs = {
            "config": ("--spec", "spec.json", "--config", "cfg.json"),
            "flag": ("--spec", "spec.json", "--seed", "5"),
            "spec": ("--spec", "seeded.json", "--config", "cfg.json"),
            "spec-flag": ("--spec", "spec.json", "--seed", "11"),
        }
        for name, args in runs.items():
            res = run("generate", *(str(tmp_path / a) if a.endswith(".json") else a
                                    for a in args), "--out", str(tmp_path / name))
            assert res.returncode == 0, res.stderr

        def seed_and_events(name):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            return manifest["config"]["seed"], (tmp_path / name / "events.jsonl").read_bytes()

        assert seed_and_events("config") == seed_and_events("flag")
        assert seed_and_events("config")[0] == 5
        assert seed_and_events("spec") == seed_and_events("spec-flag")
        assert seed_and_events("spec")[0] == 11
