"""Smoke test of bench/ledger.py, one round of each suite at a tiny size checked for its keys only (timings stay
out of the test suite), and of the checked-in BENCH_<suite>.json ledgers, which must have the same shape."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "coldstart": {"analyze", "trajectory", "sweep", "montecarlo_rho", "montecarlo_sigma"},
    "scale": {"montecarlo_k64_sigma0.05", "montecarlo_k64_sigma0.3", "montecarlo_two_g_sigma0.3", "sweep_two_g",
              "montecarlo_near_boundary_trials", "trajectory_k8_T10", "trajectory_k8_T100"},
}
ENTRY = {"command", "median_s", "peak_rss_mb", "wall_s", "ratios", "ratio_to_reference", "report_sha256"}


def check_shape(ledger: dict, suite: str, trees: set, repeats: int, n: int) -> None:
    assert set(ledger) == {"environment", "suite", "n", "repeats", "reference", "trees"}
    assert set(ledger["environment"]) == {"python", "numpy", "scipy", "nproc", "machine"}
    assert (ledger["suite"], ledger["n"], ledger["repeats"]) == (suite, n, repeats)
    assert set(ledger["reference"]) == ENTRY - {"ratios", "ratio_to_reference", "report_sha256"}
    assert len(ledger["reference"]["wall_s"]) == repeats * len(trees)
    assert set(ledger["trees"]) == trees
    for cmds in ledger["trees"].values():
        assert set(cmds) == COMMANDS[suite]
        for entry in cmds.values():
            assert set(entry) == ENTRY and len(entry["wall_s"]) == len(entry["ratios"]) == repeats
            assert entry["command"].startswith("python -m margin_guard ") and "/" not in entry["command"]
            assert entry["median_s"] > 0 and entry["peak_rss_mb"] > 0 and min(entry["ratios"]) > 0
            # the per-round ratios' quartiles, each ratio a wall time over its round's reference wall time
            ratio = entry["ratio_to_reference"]
            assert set(ratio) == {"q1", "median", "q3"}
            assert min(entry["ratios"]) <= ratio["q1"] <= ratio["median"] <= ratio["q3"] <= max(entry["ratios"])
            assert ratio["median"] == pytest.approx(statistics.median(entry["ratios"]))
            assert len(entry["report_sha256"]) == 64
    # every tree printed the same reports
    assert len({tuple(entry["report_sha256"] for entry in cmds.values()) for cmds in ledger["trees"].values()}) == 1


@pytest.mark.parametrize("suite", sorted(COMMANDS))
def test_one_round_writes_every_key(tmp_path, suite):
    # coldstart runs at its own N, 300, without --n; scale is shrunk to it
    out = tmp_path / "ledger.json"
    argv = [sys.executable, str(ROOT / "bench" / "ledger.py"), suite, "--repeats", "1", "--out", str(out)]
    subprocess.run(argv + ([] if suite == "coldstart" else ["--n", "300"]), check=True, capture_output=True,
                   timeout=300)
    check_shape(json.loads(out.read_text()), suite, {"current"}, 1, 300)


def test_a_run_without_out_exits_2_and_writes_no_ledger():
    before = {path: path.read_bytes() for path in ROOT.glob("BENCH_*.json")}
    argv = [sys.executable, str(ROOT / "bench" / "ledger.py"), "coldstart", "--repeats", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "--out" in done.stderr
    assert {path: path.read_bytes() for path in ROOT.glob("BENCH_*.json")} == before
    assert len(before) == 2


@pytest.mark.parametrize("suite", sorted(COMMANDS))
def test_checked_in_ledger_compares_parent_and_change(suite):
    ledger = json.loads((ROOT / f"BENCH_{suite}.json").read_text())
    check_shape(ledger, suite, {"parent", "change"}, ledger["repeats"], {"coldstart": 300, "scale": 10**5}[suite])
