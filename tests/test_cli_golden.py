"""Byte-level snapshots of CLI reports.

Every case runs one CLI invocation and compares its output with a frozen file
under tests/golden/cli/. The inputs use the standard centers (-1, 0), (1, 0),
so center differences are exact in floating point and any change in a report
byte points at a change in the computation, not in rounding of the inputs.

Regenerate the snapshots (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from pathlib import Path

import pytest

from margin_guard.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
TRAJECTORY = str(GOLDEN / "trajectory_input.json")

GAUSS = ["--preset", "two_gaussians", "--n", "300", "--seed", "0"]
NEAR = ["--preset", "near_boundary", "--seed", "0"]
MANY = ["--preset", "many_point", "--m", "3", "--seed", "0"]

CASES = {
    "analyze_near_boundary.json": ["analyze", *NEAR, "--epsilon", "0.05"],
    "analyze_near_boundary.csv": ["analyze", *NEAR, "--epsilon", "0.05", "--format", "csv"],
    "analyze_many_point_m3.json": ["analyze", *MANY, "--epsilon", "0.3"],
    "analyze_many_point_m3.csv": ["analyze", *MANY, "--epsilon", "0.3", "--format", "csv"],
    "analyze_two_gaussians_n300.json": ["analyze", *GAUSS, "--epsilon", "0.1"],
    "analyze_two_gaussians_n300.csv": ["analyze", *GAUSS, "--epsilon", "0.1", "--format", "csv"],
    "sweep_two_gaussians_n300.json": ["sweep", *GAUSS, "--grid", "0.01,0.1,0.4,1.0", "--trials", "40"],
    "montecarlo_rho_two_gaussians_n300.json": ["montecarlo", *GAUSS, "--rho", "0.3", "--trials", "100"],
    "montecarlo_sigma_two_gaussians_n300.json": ["montecarlo", *GAUSS, "--sigma", "0.2", "--trials", "100"],
    "montecarlo_sigma_two_gaussians_n300.csv": [
        "montecarlo", *GAUSS, "--sigma", "0.2", "--trials", "100", "--format", "csv"],
    "montecarlo_rho_near_boundary.json": ["montecarlo", *NEAR, "--rho", "0.15", "--trials", "200"],
    "montecarlo_sigma_near_boundary.json": ["montecarlo", *NEAR, "--sigma", "0.1", "--trials", "200"],
    "trajectory.json": ["trajectory", "--points", TRAJECTORY, "--eta", "0.5", "--seed", "0"],
    "trajectory.csv": ["trajectory", "--points", TRAJECTORY, "--eta", "0.5", "--seed", "0", "--format", "csv"],
    "construct_single_point.json": ["construct", "single_point", "--epsilon", "0.5"],
    "construct_many_point.json": ["construct", "many_point", "--epsilon", "0.5", "--m", "4"],
    "construct_near_boundary.json": ["construct", "near_boundary", "--delta", "0.05"],
}


def render(argv: list[str], out: Path) -> bytes:
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_snapshot(name, tmp_path):
    assert render(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        render(argv, GOLDEN / name)
