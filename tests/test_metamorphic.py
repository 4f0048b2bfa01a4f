"""Metamorphic relations of the panel commands: a change to the input that
must not change the outputs."""

import random

from mdsessions import cli
from mdsessions.generator import PanelSpec, generate_sessions
from mdsessions.ingest import write_sessions_csv

COMMANDS = (
    ("sessions",),
    ("patterns", "--contrast-group", "15", "--contrast-group", "135"),
    ("stats", "--offsets", "offsets.csv"),
    ("sweep",),
)


def _outputs(work, csv_name):
    """{command/file: bytes} of every command on ``csv_name``, manifests aside."""
    out = {}
    for command, *options in COMMANDS:
        out_dir = work / f"{csv_name}-{command}"
        cli.cli.main([command, "--input", str(work / csv_name), "--mode", "sessions",
                      *[str(work / o) if o.endswith(".csv") else o for o in options],
                      "--out", str(out_dir)], standalone_mode=False)
        for path in sorted(out_dir.iterdir()):
            if path.name != "manifest.json":
                out[f"{command}/{path.name}"] = path.read_bytes()
    return out


def test_row_order_does_not_matter(tmp_path):
    spec = PanelSpec(md_users=3, nmd_users=1, days=4, seed=11, prototype_quota={15: 0.4})
    with open(tmp_path / "sorted.csv", "w", encoding="utf-8") as fh:
        write_sessions_csv(generate_sessions(spec), fh)
    header, *rows = (tmp_path / "sorted.csv").read_text(encoding="utf-8").splitlines(True)
    shuffled = rows[:]
    random.Random(0).shuffle(shuffled)
    assert shuffled != rows
    (tmp_path / "shuffled.csv").write_text(header + "".join(shuffled), encoding="utf-8")
    (tmp_path / "offsets.csv").write_text(
        "user_id,offset_seconds\nmd0000,64800\nmd0001,-3600\nnmd0000,19800\n", encoding="utf-8")

    expected = _outputs(tmp_path, "sorted.csv")
    assert "patterns/category_contrasts.json" in expected and "stats/hourly.csv" in expected
    assert _outputs(tmp_path, "shuffled.csv") == expected
