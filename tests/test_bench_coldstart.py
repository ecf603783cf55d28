"""Smoke test of the cold-start ledger, bench/coldstart.py: one round, checked for its keys only.

Its timings stay out of the test suite; the checked-in BENCH_coldstart.json must have the same shape."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {"analyze", "trajectory", "sweep", "montecarlo_rho", "montecarlo_sigma"}
ENTRY = {"command", "median_s", "peak_rss_mb", "wall_s", "ratio_to_reference"}


def check_shape(ledger: dict, trees: set, repeats: int) -> None:
    assert set(ledger) == {"environment", "repeats", "reference", "trees"}
    assert set(ledger["environment"]) == {"python", "numpy", "scipy", "nproc", "machine"}
    assert ledger["repeats"] == repeats
    assert set(ledger["reference"]) == ENTRY - {"ratio_to_reference"}
    assert len(ledger["reference"]["wall_s"]) == repeats * len(trees)
    assert set(ledger["trees"]) == trees
    for cmds in ledger["trees"].values():
        assert set(cmds) == COMMANDS
        for entry in cmds.values():
            assert set(entry) == ENTRY and len(entry["wall_s"]) == repeats
            assert entry["command"].startswith("python -m margin_guard ")
            assert entry["median_s"] > 0 and entry["peak_rss_mb"] > 0 and entry["ratio_to_reference"] > 0


def test_one_round_writes_every_key(tmp_path):
    out = tmp_path / "ledger.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "coldstart.py"), "--repeats", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=300)
    check_shape(json.loads(out.read_text()), {"current"}, 1)


def test_checked_in_ledger_compares_parent_and_change():
    ledger = json.loads((ROOT / "BENCH_coldstart.json").read_text())
    check_shape(ledger, {"parent", "change"}, ledger["repeats"])
