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
    "scale": {"analyze_two_g", "analyze_k64", "montecarlo_k64_sigma0.05", "montecarlo_k64_sigma0.3",
              "montecarlo_two_g_sigma0.3", "sweep_two_g", "montecarlo_near_boundary_trials", "trajectory_k8_T10",
              "trajectory_k8_T100", "trajectory_k8_T100_json"},
}
ENTRY = {"command", "wall_s", "wall_quartiles", "peak_rss_mb", "report_sha256"}


def check_shape(ledger: dict, suite: str, trees: set, repeats: int, n: int) -> None:
    assert set(ledger) == {"environment", "suite", "n", "repeats", "trees"}
    assert set(ledger["environment"]) == {"python", "numpy", "scipy", "nproc", "machine"}
    assert (ledger["suite"], ledger["n"], ledger["repeats"]) == (suite, n, repeats)
    assert set(ledger["trees"]) == trees
    for cmds in ledger["trees"].values():
        assert set(cmds) == COMMANDS[suite]
        for entry in cmds.values():
            assert set(entry) == ENTRY and len(entry["wall_s"]) == repeats
            assert entry["command"].startswith("python -m margin_guard ") and "/" not in entry["command"]
            assert min(entry["wall_s"]) > 0 and entry["peak_rss_mb"] > 0
            # the inclusive quartiles of the command's own wall times
            wall = entry["wall_quartiles"]
            assert set(wall) == {"q1", "median", "q3"}
            assert min(entry["wall_s"]) <= wall["q1"] <= wall["median"] <= wall["q3"] <= max(entry["wall_s"])
            assert wall["median"] == statistics.median(entry["wall_s"])
            assert len(entry["report_sha256"]) == 64
    if suite == "scale":  # the walk read from its JSON file gives the report it gives from CSV
        for cmds in ledger["trees"].values():
            assert cmds["trajectory_k8_T100_json"]["report_sha256"] == cmds["trajectory_k8_T100"]["report_sha256"]
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
