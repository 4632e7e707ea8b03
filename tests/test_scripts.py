"""The scripts under scripts/ still run against the current package API."""

import json
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_render_gallery_writes_every_drawing(tmp_path):
    result = _run(
        "scripts/render_gallery.py", "--out-dir", str(tmp_path), "--seeds", "0"
    )
    assert result.returncode == 0, result.stderr
    expected = {
        "clasped_c_pair",
        "keyhole_pair",
        "pinwheel",
        "tray_with_key",
        "z_chain",
        "u_filler_plan",
        "u_filler_pockets",
        "packing_0000",
    }
    assert {path.stem for path in tmp_path.glob("*.svg")} == expected
    for path in tmp_path.glob("*.svg"):
        document = xml.dom.minidom.parse(str(path))
        assert document.documentElement.tagName == "svg"


def test_find_pinwheel_help_runs():
    result = _run("scripts/find_pinwheel.py", "--help")
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


def test_find_pinwheel_counts_every_locked_candidate():
    # single-piece escape searches on every pinwheel of four congruent
    # hexominoes in 6x6, 7x7 and 8x8 windows
    result = _run("scripts/find_pinwheel.py", "--all")
    assert result.returncode == 0, result.stderr
    assert result.stderr == "candidates searched: 7548, locked found: 40\n"
    assert result.stdout.count("locked candidate in") == 40


def test_search_layers_writes_a_bench_record(tmp_path):
    out = tmp_path / "bench.json"
    for pair in (0, 1):
        result = _run(
            "scripts/search_layers.py", "--quick", "--out", str(out), "--pair", str(pair)
        )
        assert result.returncode == 0, result.stderr
    records = json.loads(out.read_text(encoding="utf-8"))
    assert [record["pair"] for record in records] == [0, 1]
    for record in records:
        assert set(record) == {"side", "seed", "seconds", "commit", "pair", "result"}
        metrics = record["result"]["metrics"]
        assert set(metrics) == {
            "wide_key_ms",
            "wide_key_states",
            "subset_key_ms",
            "subset_key_states",
            "tray_single_n4_states_per_s",
            "tray_subset_n4_states_per_s",
            "loose_trio_r3_s",
            "loose_trio_r3_states",
            "setup_import_ms_best",
            "setup_import_ms_median",
            "setup_warmup_ms_best",
            "setup_warmup_ms_median",
            *(f"enumerate_n{n}_{when}_ms" for n in (8, 9, 10) for when in ("cold", "warm")),
        }
        assert metrics["wide_key_states"]["value"] == 4032
        assert metrics["subset_key_states"]["value"] == 226
        assert metrics["loose_trio_r3_states"]["value"] == 10159
        assert all(metric["value"] > 0 for metric in metrics.values())
