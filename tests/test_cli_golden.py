"""Byte-level snapshots of CLI reports.

Every case runs one CLI invocation and compares its output with a frozen file
under tests/golden/cli/. The inputs use the standard centers (-1, 0), (1, 0),
so center differences are exact in floating point and any change in a report
byte points at a change in the computation, not in rounding of the inputs.

The long trajectory input is a seeded float random walk (T = 60, n = 8) in
which one point drifts across the bisector x = 0. Its step sizes are not exact
binary fractions, so its reports pin the order in which budgets are summed.
The same walk is also stored as a CSV trajectory whose rows run point by point,
so the times interleave; its reports must be the JSON input's, byte for byte,
which pins how CSV rows are grouped by time.

Regenerate the snapshots (only when a report is meant to change), and the long
trajectory inputs, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from margin_guard.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
TRAJECTORY = str(GOLDEN / "trajectory_input.json")
LONG_TRAJECTORY = str(GOLDEN / "trajectory_long_input.json")
LONG_TRAJECTORY_CSV = str(GOLDEN / "trajectory_long_input.csv")
LONG_CENTERS_CSV = str(GOLDEN / "trajectory_long_centers.csv")

GAUSS = ["--preset", "two_gaussians", "--n", "300", "--seed", "0"]
NEAR = ["--preset", "near_boundary", "--seed", "0"]
MANY = ["--preset", "many_point", "--m", "3", "--seed", "0"]
FROM_CSV = ["--points", LONG_TRAJECTORY_CSV, "--centers", LONG_CENTERS_CSV]
PRESET_CSV = ["preset", "two_gaussians", "--n", "300", "--seed", "0", "--format", "csv"]

CASES = {
    "analyze_near_boundary.json": ["analyze", *NEAR, "--epsilon", "0.05"],
    "analyze_near_boundary.csv": ["analyze", *NEAR, "--epsilon", "0.05", "--format", "csv"],
    "analyze_many_point_m3.json": ["analyze", *MANY, "--epsilon", "0.3"],
    "analyze_many_point_m3.csv": ["analyze", *MANY, "--epsilon", "0.3", "--format", "csv"],
    "analyze_two_gaussians_n300.json": ["analyze", *GAUSS, "--epsilon", "0.1"],
    "analyze_two_gaussians_n300.csv": ["analyze", *GAUSS, "--epsilon", "0.1", "--format", "csv"],
    "sweep_two_gaussians_n300.json": ["sweep", *GAUSS, "--grid", "0.01,0.1,0.4,1.0", "--trials", "40"],
    "sweep_two_gaussians_n300.csv": [
        "sweep", *GAUSS, "--grid", "0.01,0.1,0.4,1.0", "--trials", "40", "--format", "csv"],
    "montecarlo_rho_two_gaussians_n300.json": ["montecarlo", *GAUSS, "--rho", "0.3", "--trials", "100"],
    "montecarlo_sigma_two_gaussians_n300.json": ["montecarlo", *GAUSS, "--sigma", "0.2", "--trials", "100"],
    "montecarlo_sigma_two_gaussians_n300.csv": [
        "montecarlo", *GAUSS, "--sigma", "0.2", "--trials", "100", "--format", "csv"],
    "montecarlo_rho_near_boundary.json": ["montecarlo", *NEAR, "--rho", "0.15", "--trials", "200"],
    # 1,500 per-trial rows span 3 chunks of the n = 3 ball path
    "montecarlo_rho_near_boundary.csv": [
        "montecarlo", *NEAR, "--rho", "0.15", "--trials", "1500", "--format", "csv"],
    "montecarlo_sigma_near_boundary.json": ["montecarlo", *NEAR, "--sigma", "0.1", "--trials", "200"],
    "trajectory.json": ["trajectory", "--points", TRAJECTORY, "--eta", "0.5"],
    "trajectory.csv": ["trajectory", "--points", TRAJECTORY, "--eta", "0.5", "--format", "csv"],
    "trajectory_long.json": ["trajectory", "--points", LONG_TRAJECTORY, "--eta", "0.2"],
    "trajectory_long.csv": [
        "trajectory", "--points", LONG_TRAJECTORY, "--eta", "0.2", "--format", "csv"],
    "trajectory_long_from_csv.json": ["trajectory", *FROM_CSV, "--eta", "0.2"],
    "trajectory_long_from_csv.csv": ["trajectory", *FROM_CSV, "--eta", "0.2", "--format", "csv"],
    "preset_two_gaussians_n300.points.csv": PRESET_CSV,
    "preset_two_gaussians_n300.centers.csv": PRESET_CSV,
    "preset_many_point_m3.json": ["preset", "many_point", "--m", "3", "--seed", "0"],
    "construct_single_point.json": ["construct", "single_point", "--epsilon", "0.5"],
    "construct_many_point.json": ["construct", "many_point", "--epsilon", "0.5", "--m", "4"],
    "construct_near_boundary.json": ["construct", "near_boundary", "--delta", "0.05"],
}
# cases whose snapshot is another case's: the long walk read from CSV prints the JSON input's reports
SAME_SNAPSHOT = {"trajectory_long_from_csv.json": "trajectory_long.json",
                 "trajectory_long_from_csv.csv": "trajectory_long.csv"}


def render(argv: list[str], out: Path) -> bytes:
    # a csv preset writes <stem>.points.csv and <stem>.centers.csv, one case each
    target = out.with_name(out.name.split(".")[0]) if argv is PRESET_CSV else out
    assert main([*argv, "--out", str(target)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_snapshot(name, tmp_path):
    assert render(CASES[name], tmp_path / name) == (GOLDEN / SAME_SNAPSHOT.get(name, name)).read_bytes()


def test_long_trajectory_pins_budget_summation_order():
    """Per-horizon budgets are numpy sums of a prefix, the budget column is a
    running sum; on this input they differ in the last ulp somewhere, so a
    switch from one summation to the other changes a snapshot byte."""
    report = json.loads((GOLDEN / "trajectory_long.json").read_text())
    running = report["cumulative_budget"]
    assert any(p["cumulative_budget"] != running[p["horizon"] - 1] for p in report["persistence"])
    assert 0.0 < max(report["distance_from_initial"])


# Runs in a fresh interpreter: imports the CLI, then runs each argv of argv[1] (a JSON list) through
# main(), and prints the scipy, numpy.f2py and numpy.testing modules loaded after the import and after each run.
SCIPY_PROBE = """
import json, sys
import margin_guard, margin_guard.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith(("scipy", "numpy.f2py", "numpy.testing")))

steps = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    steps.append([argv[0], margin_guard.cli.main(argv), scipy_modules()])
print(json.dumps(steps))
"""


def test_only_gaussian_montecarlo_loads_scipy(tmp_path):
    """scipy serves only the Gaussian tail bound, and scipy.special's __init__ about doubles a cold CLI
    process's start-up (it loads numpy.f2py and numpy.testing too), so every other subcommand runs without
    scipy, and the Gaussian run loads gammaincc's extension module alone."""
    names = ["analyze_near_boundary.json", "trajectory.json", "sweep_two_gaussians_n300.json",
             "preset_many_point_m3.json", "construct_near_boundary.json", "montecarlo_rho_near_boundary.json",
             "montecarlo_sigma_near_boundary.json"]
    runs = [[*CASES[name], "--out", str(tmp_path / name)] for name in names]
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(runs)], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src}, check=True)
    steps = json.loads(done.stdout)
    *without, (command, code, loaded) = steps
    assert [step[0] for step in without] == ["import", "analyze", "trajectory", "sweep", "preset", "construct",
                                             "montecarlo"]
    assert without == [[step[0], 0, []] for step in without]
    assert (command, code) == ("montecarlo", 0) and "scipy.special._special_ufuncs" in loaded
    assert not {"scipy.special", "numpy.f2py", "numpy.testing"} & set(loaded)
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def long_trajectory_input(seed: int = 2026, n: int = 8, steps: int = 60) -> dict:
    """Random walk around the standard centers; the last point drifts across x = 0."""
    rng = np.random.default_rng(seed)
    centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
    points = np.vstack([centers[np.arange(n - 1) % 2] + rng.normal(0.0, 0.3, (n - 1, 2)), [[-0.3, 0.1]]])
    drift = np.zeros((n, 2))
    drift[-1, 0] = 0.012
    snapshots = [points]
    for _ in range(steps):
        snapshots.append(snapshots[-1] + drift + rng.normal(0.0, 0.02, (n, 2)))
    return {"schema_version": 1, "centers": centers.tolist(), "snapshots": [s.tolist() for s in snapshots]}


def csv_rows(header: str, rows) -> str:
    return "".join(f"{line}\n" for line in ["# schema_version=1", header, *(",".join(map(repr, r)) for r in rows)])


def write_long_trajectory_inputs(doc: dict) -> None:
    rows = ",\n".join(f"    {json.dumps(s)}" for s in doc["snapshots"])
    Path(LONG_TRAJECTORY).write_text(
        f'{{\n  "schema_version": 1,\n  "centers": {json.dumps(doc["centers"])},\n  "snapshots": [\n{rows}\n  ]\n}}\n'
    )
    snaps = doc["snapshots"]
    point_by_point = ([t, *snap[i]] for i in range(len(snaps[0])) for t, snap in enumerate(snaps))
    Path(LONG_TRAJECTORY_CSV).write_text(csv_rows("t,x1,x2", point_by_point))
    Path(LONG_CENTERS_CSV).write_text(csv_rows("x1,x2", doc["centers"]))


if __name__ == "__main__":
    write_long_trajectory_inputs(long_trajectory_input())
    for name, argv in CASES.items():
        if name not in SAME_SNAPSHOT:
            render(argv, GOLDEN / name)
