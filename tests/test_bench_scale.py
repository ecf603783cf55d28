"""Smoke test of the scale ledger, bench/scale.py: one round at a tiny size, checked for its keys only.

Its timings stay out of the test suite; the checked-in BENCH_scale.json must have the same shape."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {"montecarlo_k64_sigma0.05", "montecarlo_k64_sigma0.3", "montecarlo_two_g_sigma0.3", "sweep_two_g"}
ENTRY = {"command", "median_s", "peak_rss_mb", "wall_s", "report_sha256"}


def check_shape(ledger: dict, trees: set, repeats: int, n: int) -> None:
    assert set(ledger) == {"environment", "n", "repeats", "trees"}
    assert set(ledger["environment"]) == {"python", "numpy", "nproc", "machine"}
    assert (ledger["n"], ledger["repeats"]) == (n, repeats)
    assert set(ledger["trees"]) == trees
    for cmds in ledger["trees"].values():
        assert set(cmds) == COMMANDS
        for entry in cmds.values():
            assert set(entry) == ENTRY and len(entry["wall_s"]) == repeats
            assert entry["command"].startswith("python -m margin_guard ")
            assert entry["median_s"] > 0 and entry["peak_rss_mb"] > 0 and len(entry["report_sha256"]) == 64
    # every tree printed the same reports
    assert len({tuple(entry["report_sha256"] for entry in cmds.values()) for cmds in ledger["trees"].values()}) == 1


def test_one_round_writes_every_key(tmp_path):
    out = tmp_path / "ledger.json"
    argv = [sys.executable, str(ROOT / "bench" / "scale.py"), "--repeats", "1", "--n", "300", "--out", str(out)]
    subprocess.run(argv, check=True, capture_output=True, timeout=300)
    check_shape(json.loads(out.read_text()), {"current"}, 1, 300)


def test_checked_in_ledger_compares_parent_and_change_at_n_1e5():
    ledger = json.loads((ROOT / "BENCH_scale.json").read_text())
    check_shape(ledger, {"parent", "change"}, ledger["repeats"], 10**5)
