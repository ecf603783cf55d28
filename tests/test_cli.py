import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from margin_guard import (
    CenterSet,
    InvariantViolation,
    PerturbationModel,
    Partition,
    PointConfig,
    Trajectory,
    analyze_stability,
    instability_time,
    many_point_instability,
    monte_carlo,
    pair_disagreements,
    partition_distance,
    sample_perturbation,
    step_sizes,
    stepwise_stability_check,
    sweep_table,
    two_gaussians,
)
from margin_guard.cli import build_parser, main
from margin_guard.formats import centers_to_csv, dump_json, format_float, points_to_csv, trajectory_to_json_dict


@pytest.fixture
def anchored_files(tmp_path, anchored_config, two_centers):
    points = tmp_path / "points.csv"
    centers = tmp_path / "centers.csv"
    points.write_text(points_to_csv(anchored_config))
    centers.write_text(centers_to_csv(two_centers))
    return str(points), str(centers)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestAnalyze:
    def test_anchored_report(self, capsys, anchored_files):
        points, centers = anchored_files
        doc = run_json(capsys, ["analyze", "--points", points, "--centers", centers])
        assert doc["schema_version"] == 1
        assert doc["margins"] == pytest.approx([2.0, 2.0, 0.2])
        assert doc["margin_lower_bound_radius"] == pytest.approx(0.1)
        assert doc["partition"] == [[1], [2, 3]]
        assert doc["empirical_partition_radius"]["radius"] == pytest.approx(0.1, rel=1e-6)

    def test_single_cluster_without_candidates(self, capsys, tmp_path, two_centers):
        cfg = PointConfig([[-1.0, 0.0], [-1.0, 0.1], [-0.9, 0.0]])
        points = tmp_path / "p.csv"
        centers = tmp_path / "c.csv"
        points.write_text(points_to_csv(cfg))
        centers.write_text(centers_to_csv(two_centers))
        doc = run_json(
            capsys,
            ["analyze", "--points", str(points), "--centers", str(centers), "--epsilon", "0.01"],
        )
        assert doc["partition"] == [[1, 2, 3]]
        assert doc["certified_no_switch"] is True
        assert doc["switch_candidates"] == []

    def test_dimension_mismatch_exits_2(self, capsys, tmp_path):
        points = tmp_path / "p.csv"
        centers = tmp_path / "c.csv"
        points.write_text("x1\n0.5\n-0.5\n")
        centers.write_text("x1,x2\n-1,0\n1,0\n")
        assert main(["analyze", "--points", str(points), "--centers", str(centers)]) == 2
        assert "dimension mismatch" in capsys.readouterr().err

    def test_unallocatable_input_exits_2(self, capsys):
        # the preset's first array of 10**15 entries cannot be allocated, so the call fails at once
        assert main(["analyze", "--preset", "two_gaussians", "--n", str(10**15)]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_malformed_file_exits_2_naming_record(self, capsys, tmp_path, anchored_files):
        _, centers = anchored_files
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1,2\noops,4\n")
        assert main(["analyze", "--points", str(bad), "--centers", centers]) == 2
        assert "record 3" in capsys.readouterr().err

    def test_csv_format(self, capsys, anchored_files):
        points, centers = anchored_files
        assert main(["analyze", "--points", points, "--centers", centers, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema_version=1\n")
        assert "index,label,margin,switch_radius" in out
        assert out.count("\n") == 8  # 4 comment/header lines + 3 data rows, trailing newline

    @pytest.mark.parametrize("epsilon, certified, candidates", [("0.05", 1, []), ("0.15", 0, [3])])
    def test_csv_carries_the_epsilon_certificate(self, capsys, anchored_files, epsilon, certified, candidates):
        points, centers = anchored_files
        argv = ["analyze", "--points", points, "--centers", centers, "--epsilon", epsilon]
        doc = run_json(capsys, argv)
        assert (doc["certified_no_switch"], doc["switch_candidates"]) == (bool(certified), candidates)
        assert main([*argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4:7] == [f"# epsilon={format_float(float(epsilon))}", f"# certified_no_switch={certified}",
                              "index,label,margin,switch_radius,switch_candidate"]
        assert [int(line.split(",")[0]) for line in lines[7:] if line.endswith(",1")] == candidates
        assert len(lines) == 10

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_far_point_exits_2_naming_the_row(self, capsys, tmp_path, fmt):
        points = tmp_path / "p.csv"
        centers = tmp_path / "c.csv"
        points.write_text("x1,x2\n-1.5,0\n0.5,0\n1e200,0\n")
        centers.write_text("x1,x2\n-1,0\n1,0\n")
        assert main(["analyze", "--points", str(points), "--centers", str(centers), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {points}: points row 3 has a coordinate of magnitude >= 1e150")

    @pytest.mark.parametrize("field", ["1_0", "-\u0661", "\uff11.5"], ids=["underscore", "arabic_indic", "fullwidth"])
    def test_python_only_number_spellings_exit_2(self, capsys, tmp_path, field):
        # float() reads each of these as a number; a CSV coordinate is an ASCII decimal without "_"
        points = tmp_path / "p.csv"
        centers = tmp_path / "c.csv"
        points.write_text(f"x1,x2\n-1.5,0\n{field},0\n", encoding="utf-8")
        centers.write_text("x1,x2\n-1,0\n1,0\n")
        assert main(["analyze", "--points", str(points), "--centers", str(centers)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {points}: record 3: coordinate must be an ASCII decimal without '_', got {field!r}\n")

    @pytest.mark.parametrize(
        "key, rows, message",
        [
            ("points", "[[true, 0], [false, 1]]", "points row 1 has a coordinate that is not a number: true"),
            ("points", "[[0.5, 0], [0, false]]", "points row 2 has a coordinate that is not a number: false"),
            ("centers", '[[-1, 0], ["1", 0]]', 'centers row 2 has a coordinate that is not a number: "1"'),
            ("centers", "[[-1, 0], [null, 0]]", "centers row 2 has a coordinate that is not a number: null"),
        ],
        ids=["bool_points", "false_among_numbers", "string_center", "null_center"],
    )
    def test_json_non_numbers_exit_2_naming_the_file(self, capsys, tmp_path, key, rows, message):
        files = {"points": "[[-0.5, 0], [0.5, 0.25]]", "centers": "[[-1, 0], [1, 0]]", key: rows}
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(f'{{"{name}": {text}}}')
        assert main(["analyze", "--points", str(paths["points"]), "--centers", str(paths["centers"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {paths[key]}: {message}\n"

    def test_both_input_sources_rejected(self, capsys, anchored_files):
        points, centers = anchored_files
        code = main(["analyze", "--points", points, "--centers", centers, "--preset", "single_point"])
        assert code == 2

    def test_missing_inputs_rejected(self, capsys):
        assert main(["analyze"]) == 2


class TestPreset:
    def test_two_gaussians_matches_library(self, capsys):
        doc = run_json(capsys, ["preset", "two_gaussians", "--n", "20", "--sigma0", "0.2", "--seed", "7"])
        config, centers = two_gaussians(n=20, sigma0=0.2, seed=7)
        assert np.array_equal(np.array(doc["points"]), config.points)
        assert np.array_equal(np.array(doc["centers"]), centers.centers)

    def test_zero_spread_lands_on_centers(self, capsys):
        doc = run_json(capsys, ["preset", "two_gaussians", "--n", "2", "--sigma0", "0", "--seed", "0"])
        for row in doc["points"]:
            assert row in ([-1.0, 0.0], [1.0, 0.0])

    def test_many_point_preset_matches_fixture(self, capsys):
        doc = run_json(capsys, ["preset", "many_point", "--epsilon", "1", "--m", "5"])
        fx = many_point_instability(1.0, 5)
        assert np.array_equal(np.array(doc["points"]), fx.config.points)

    def test_csv_writes_two_files(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = main(["preset", "single_point", "--epsilon", "1", "--format", "csv", "--out", str(out)])
        assert code == 0
        assert (tmp_path / "demo.points.csv").exists()
        assert (tmp_path / "demo.centers.csv").exists()

    def test_csv_without_out_rejected(self, capsys):
        assert main(["preset", "single_point", "--format", "csv"]) == 2

    def test_combined_json_reingests(self, tmp_path, capsys):
        out = tmp_path / "combo.json"
        assert main(["preset", "two_gaussians", "--n", "6", "--seed", "3", "--out", str(out)]) == 0
        from margin_guard.formats import read_centers, read_points

        cfg = read_points(out)
        cs = read_centers(out)
        expect_cfg, expect_cs = two_gaussians(n=6, sigma0=0.2, seed=3)
        assert np.array_equal(cfg.points, expect_cfg.points)
        assert np.array_equal(cs.centers, expect_cs.centers)


class TestConstruct:
    def test_single_point_fixture(self, capsys):
        doc = run_json(capsys, ["construct", "single_point", "--epsilon", "1"])
        assert doc["expected_before"] == [[1], [2, 3]]
        assert doc["expected_after"] == [[1, 3], [2]]
        assert doc["perturbation_size"] == pytest.approx(0.5)

    def test_near_boundary_fixture(self, capsys):
        doc = run_json(capsys, ["construct", "near_boundary", "--delta", "0.1"])
        assert doc["perturbation_size"] == pytest.approx(0.2)

    def test_unallocatable_many_point_exits_2(self, capsys):
        # the fixture's y values are one array of 10**15 entries, which cannot be allocated, so the call
        # fails at once instead of building Python objects row by row until memory runs out
        assert main(["construct", "many_point", "--m", str(10**15)]) == 2
        assert "Unable to allocate" in capsys.readouterr().err

    def test_csv_not_supported(self, capsys, tmp_path):
        # construct declares no --format: its fixtures are JSON only, so even --format json is a usage error
        out = tmp_path / "fixture"
        for fmt in ("csv", "json"):
            assert main(["construct", "single_point", "--format", fmt, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and f"error: unrecognized arguments: --format {fmt}\n" in captured.err
            assert not out.exists()

    def test_bad_epsilon_exits_2(self, capsys):
        assert main(["construct", "single_point", "--epsilon", "-1"]) == 2


class TestSweep:
    def test_zero_below_threshold(self, capsys, anchored_files):
        points, centers = anchored_files
        doc = run_json(
            capsys,
            ["sweep", "--points", points, "--centers", centers,
             "--grid", "0.02,0.05,0.09", "--trials", "30", "--seed", "4"],
        )
        assert doc["threshold"] == pytest.approx(0.1)
        for row in doc["rows"]:
            assert row["below_threshold"] is True
            assert row["mean_distance"] == 0.0
            assert row["max_distance"] == 0.0

    def test_csv_table(self, capsys, anchored_files):
        points, centers = anchored_files
        code = main(
            ["sweep", "--points", points, "--centers", centers,
             "--grid", "0.05,0.5", "--trials", "5", "--format", "csv"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epsilon,mean_S,max_S,threshold_flag" in out

    def test_single_value_grid_rejected(self, capsys, anchored_files):
        points, centers = anchored_files
        assert main(["sweep", "--points", points, "--centers", centers, "--grid", "0.1"]) == 2

    def test_repeat_runs_identical(self, capsys, anchored_files):
        points, centers = anchored_files
        argv = ["sweep", "--points", points, "--centers", centers,
                "--grid", "0.05,0.3", "--trials", "1", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestTrajectory:
    def write_trajectory(self, tmp_path, snapshots, centers):
        path = tmp_path / "traj.json"
        path.write_text(dump_json(trajectory_to_json_dict(snapshots, centers)))
        return str(path)

    def test_constant_trajectory(self, capsys, tmp_path, anchored_config, two_centers):
        path = self.write_trajectory(tmp_path, (anchored_config,) * 3, two_centers)
        doc = run_json(capsys, ["trajectory", "--points", path, "--eta", "0.5"])
        assert all(entry["certified"] for entry in doc["persistence"])
        assert doc["instability_time"] is None
        assert doc["instability_time_note"] == "not observed within horizon"
        assert doc["centers_fixed_over_time"] is True

    def test_no_motion_certifies_at_zero_margin(self, capsys, tmp_path, two_centers):
        tie = PointConfig([[0.0, 0.0], [-2.0, 0.0]])
        path = self.write_trajectory(tmp_path, (tie,) * 3, two_centers)
        doc = run_json(capsys, ["trajectory", "--points", path])
        assert doc["initial_min_margin"] == 0.0
        assert [entry["certified"] for entry in doc["persistence"]] == [True, True]
        assert doc["stepwise_pass"] == [True, True]

    def test_three_step_drift(self, capsys, tmp_path, two_centers):
        start = PointConfig([[0.1, 0.0], [-2.0, 0.0]])
        snaps = [start]
        for _ in range(3):
            snaps.append(snaps[-1].with_point(1, snaps[-1].points[0] + [0.03, 0.0]))
        path = self.write_trajectory(tmp_path, snaps, two_centers)
        doc = run_json(capsys, ["trajectory", "--points", path])
        assert doc["cumulative_budget"] == pytest.approx([0.03, 0.06, 0.09])
        assert doc["persistence"][-1]["certified"] is True

    def test_replayed_crossing_has_tau(self, capsys, tmp_path, two_centers):
        from margin_guard import single_point_instability

        fx = single_point_instability(1.0)
        path = self.write_trajectory(tmp_path, (fx.config, fx.config, fx.perturbed), two_centers)
        doc = run_json(capsys, ["trajectory", "--points", path, "--eta", "0.5"])
        assert doc["instability_time"] == 2
        doc = run_json(capsys, ["trajectory", "--points", path, "--eta", "0.9"])
        assert doc["instability_time"] is None

    @pytest.mark.parametrize("eta, note", [("0.5", "# instability_time=2"),
                                           ("0.9", "# instability_time_note=not observed within horizon")])
    def test_csv_carries_the_eta_result(self, capsys, tmp_path, two_centers, eta, note):
        from margin_guard import single_point_instability

        fx = single_point_instability(1.0)
        path = self.write_trajectory(tmp_path, (fx.config, fx.config, fx.perturbed), two_centers)
        assert main(["trajectory", "--points", path, "--eta", eta, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["# schema_version=1", f"# eta={format_float(float(eta))}", note,
                             "step,delta,cumulative_budget,persistence_certified,stepwise_pass,distance_from_initial"]
        assert len(lines) == 6

    def test_eta_out_of_range(self, capsys, tmp_path, anchored_config, two_centers):
        path = self.write_trajectory(tmp_path, (anchored_config,) * 2, two_centers)
        assert main(["trajectory", "--points", path, "--eta", "1.5"]) == 2

    def test_csv_format(self, capsys, tmp_path, anchored_config, two_centers):
        path = self.write_trajectory(tmp_path, (anchored_config,) * 3, two_centers)
        assert main(["trajectory", "--points", path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "step,delta,cumulative_budget,persistence_certified,stepwise_pass" in out

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("x1,x2\n0.1,0\n-2,0\n0.15,0\n-2,0\n", "'t' column"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n1.5,0.15,0\n1.5,-2,0\n", "record 4"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\nx,0.15,0\nx,-2,0\n", "record 4"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n2,0.15,0\n2,-2,0\n", "0..T"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n1_0,0.15,0\n1_0,-2,0\n", "record 4"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n+1,0.15,0\n+1,-2,0\n", "record 4"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n\u0661,0.15,0\n\u0661,-2,0\n", "record 4"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n\uff11,0.15,0\n\uff11,-2,0\n", "record 4"),
            # a time beyond 64 bits: the bulk parse declines it and the record loop keeps it exact
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n99999999999999999999,0.15,0\n99999999999999999999,-2,0\n",
             "traj.csv: snapshot times must be 0..T, got [0, 99999999999999999999]"),
        ],
        ids=["missing_t", "fractional_t", "non_numeric_t", "time_gap", "underscore_t", "signed_t",
             "arabic_indic_digit_t", "fullwidth_digit_t", "time_past_int64"],
    )
    def test_bad_csv_times_exit_2(self, capsys, tmp_path, two_centers, rows, message):
        path = tmp_path / "traj.csv"
        path.write_text(rows)
        centers = tmp_path / "ctr.csv"
        centers.write_text(centers_to_csv(two_centers))
        assert main(["trajectory", "--points", str(path), "--centers", str(centers)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "snapshots, message",
        [
            ("[[[0.1, 0], [-2, 0]], [[0.2, 0], [-2, 0, 5]]]", "{path}: snapshot 1 row 2 has 3 coordinates, expected 2"),
            ("[[[0.1, 0], [-2, 0]], [[0.2, 0]]]", "{path}: snapshot 1 has shape (1, 2), expected (2, 2)"),
            ("[[[0.1, 0]], [[0.2, 0]]]", "{path}: snapshot 0 has 1 point(s); a configuration needs at least 2 points"),
            ("[[[0.1, 0], [-2, 0]], [[0.2, 0], [-2, NaN]]]",
             "{path}: snapshot 1 row 2 contains a non-finite coordinate"),
            ("[[[0.1, 0], [-2, 0]], [[0.2, 0], [-2, 1e200]]]",
             "{path}: snapshot 1 row 2 has a coordinate of magnitude >= 1e150"),
            ("[]", "{path}: a trajectory needs at least one snapshot"),
            ("[[[0.1, 0], [-2, 0]], [[true, 0], [-2, 0]]]", "{path}: snapshot 1 row 1 has a coordinate that is not a number: true"),
            ('[[[0.1, 0], [-2, 0]], [[0.2, 0], ["1", 0]]]', '{path}: snapshot 1 row 2 has a coordinate that is not a number: "1"'),
            ("[[[0.1, 0], [-2, 0]], [[0.2, 0], [null, 0]]]", "{path}: snapshot 1 row 2 has a coordinate that is not a number: null"),
        ],
        ids=["three_coordinates", "fewer_points", "one_point", "nan", "oversized", "no_snapshots", "true", "string",
             "null"],
    )
    def test_bad_json_snapshots_exit_2(self, capsys, tmp_path, snapshots, message):
        path = tmp_path / "traj.json"
        path.write_text(f'{{"centers": [[-1, 0], [1, 0]], "snapshots": {snapshots}}}')
        assert main(["trajectory", "--points", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(path=path))

    @pytest.mark.parametrize("order", ["time_major", "shuffled"])
    def test_long_walk_from_csv_prints_the_json_input_reports(self, capsys, tmp_path, order):
        # the same walk as trajectory_long_input.json, as CSV rows in time order or with the times in a
        # seeded shuffle (each time's rows keep their index order), gives the JSON input's reports byte for byte
        golden = Path(__file__).parent / "golden" / "cli"
        doc = json.loads((golden / "trajectory_long_input.json").read_text())
        stack = np.array(doc["snapshots"], dtype=float)
        steps, n, d = stack.shape
        times = np.repeat(np.arange(steps), n)
        if order == "shuffled":
            times = np.random.default_rng(7).permutation(times)
        index = [0] * steps  # the next row of each time
        rows = []
        for t in times.tolist():
            rows.append((t, *stack[t, index[t]]))
            index[t] += 1
        points = tmp_path / "walk.csv"
        points.write_text("t," + ",".join(f"x{j + 1}" for j in range(d)) + "\n"
                          + "".join(f"{t}," + ",".join(map(format_float, x)) + "\n" for t, *x in rows))
        centers = tmp_path / "centers.csv"
        centers.write_text(centers_to_csv(CenterSet(doc["centers"])))
        for fmt, name in (("json", "trajectory_long.json"), ("csv", "trajectory_long.csv")):
            argv = ["trajectory", "--points", str(points), "--centers", str(centers), "--eta", "0.2"]
            assert main([*argv, "--format", fmt]) == 0
            assert capsys.readouterr().out == (golden / name).read_text()

    def test_bool_centers_exit_2(self, capsys, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text('{"centers": [[true, 0], [false, 0]], "snapshots": [[[0.1, 0], [-2, 0]], [[0.2, 0], [-2, 0]]]}')
        assert main(["trajectory", "--points", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: centers row 1 has a coordinate that is not a number: true\n"


class TestMonteCarlo:
    def test_bounded_below_margin_never_switches(self, capsys, anchored_files):
        points, centers = anchored_files
        doc = run_json(
            capsys,
            ["montecarlo", "--points", points, "--centers", centers,
             "--rho", "0.09", "--trials", "200", "--seed", "2"],
        )
        assert doc["per_index_switch_frequency"] == [0.0, 0.0, 0.0]
        assert doc["mean_partition_distance"] == 0.0

    def test_gaussian_frequencies_below_bounds(self, capsys, anchored_files):
        points, centers = anchored_files
        doc = run_json(
            capsys,
            ["montecarlo", "--points", points, "--centers", centers,
             "--sigma", "0.05", "--trials", "2000", "--seed", "3"],
        )
        for freq, bound in zip(doc["per_index_switch_frequency"], doc["per_index_bound"]):
            stderr = (bound * (1 - bound) / doc["trials"]) ** 0.5
            assert freq <= bound + 4 * stderr + 1e-9

    def test_model_selection_required(self, capsys, anchored_files):
        points, centers = anchored_files
        assert main(["montecarlo", "--points", points, "--centers", centers]) == 2
        assert main(
            ["montecarlo", "--points", points, "--centers", centers, "--rho", "0.1", "--sigma", "0.1"]
        ) == 2

    def test_zero_trials_usage_error(self, capsys, anchored_files):
        points, centers = anchored_files
        for command, flags in (("montecarlo", ["--rho", "0.1"]), ("sweep", ["--grid", "0.1,0.2"])):
            assert main([command, "--points", points, "--centers", centers, *flags, "--trials", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: trials must be >= 1\n"

    def test_csv_trace(self, capsys, anchored_files):
        points, centers = anchored_files
        code = main(
            ["montecarlo", "--points", points, "--centers", centers,
             "--rho", "0.09", "--trials", "5", "--format", "csv"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trial,n_switched,partition_distance" in out
        assert out.count("\n") == 7  # comment + header + 5 trials


STOCHASTIC_COMMANDS = pytest.mark.parametrize(
    "command, flags", [("montecarlo", ["--rho", "0.1"]), ("sweep", ["--grid", "0.1,0.2"])]
)


class TestTrialStreamLimits:
    @STOCHASTIC_COMMANDS
    def test_negative_seed_exits_2(self, capsys, anchored_files, command, flags):
        points, centers = anchored_files
        assert main([command, "--points", points, "--centers", centers, *flags, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("command, flags", [  # every subcommand that declares --seed
        ("montecarlo", ["--rho", "0.1"]), ("sweep", ["--grid", "0.1,0.2"]), ("analyze", []),
        ("preset", ["two_gaussians"]),
    ])
    def test_negative_env_seed_exits_2(self, capsys, monkeypatch, anchored_files, command, flags):
        monkeypatch.setenv("MARGIN_GUARD_SEED", "-3")
        points, centers = anchored_files
        inputs = [] if command == "preset" else ["--points", points, "--centers", centers]
        assert main([command, *inputs, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MARGIN_GUARD_SEED must be a non-negative integer, got -3\n"

    def test_construct_ignores_the_env_seed(self, capsys, monkeypatch):
        # construct declares no --seed and draws nothing, so a bad MARGIN_GUARD_SEED is not its error
        monkeypatch.setenv("MARGIN_GUARD_SEED", "-3")
        assert main(["construct", "single_point", "--epsilon", "0.5"]) == 0
        golden = Path(__file__).parent / "golden" / "cli" / "construct_single_point.json"
        assert capsys.readouterr().out == golden.read_text()

    @pytest.mark.parametrize("env", ["-3", "abc"], ids=["negative_env", "non_integer_env"])
    def test_trajectory_ignores_the_env_seed(self, capsys, monkeypatch, env):
        # trajectory declares no --seed and draws nothing, so MARGIN_GUARD_SEED is not its input
        monkeypatch.setenv("MARGIN_GUARD_SEED", env)
        assert main(["trajectory", "--points", LONG_TRAJECTORY_INPUT, "--eta", "0.2"]) == 0
        golden = Path(__file__).parent / "golden" / "cli" / "trajectory_long.json"
        assert capsys.readouterr() == (golden.read_text(), "")

    @STOCHASTIC_COMMANDS
    def test_negative_seed_with_a_seeded_preset_exits_2(self, capsys, command, flags):
        # the preset draws with the seed before any trial does; the error still names the flag
        assert main([command, "--preset", "two_gaussians", "--n", "20", *flags, "--seed", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -2\n"

    @STOCHASTIC_COMMANDS
    def test_more_trials_than_stream_keys_exit_2(self, capsys, monkeypatch, anchored_files, command, flags):
        monkeypatch.setattr("margin_guard.stochastic._TrialSeeder", None)  # the run must not start
        points, centers = anchored_files
        assert main([command, "--points", points, "--centers", centers, *flags, "--trials", str(2**32 + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "2**32" in captured.err


class TestHugeNoiseScales:
    """Scales at or above 1e150 once overflowed noise norms to inf, so the ball's overshoot loop never
    ended, or overflowed the squared scale of the Gaussian tail bound. Each case runs in a child process
    with a timeout, so a regression fails instead of hanging the suite."""

    @pytest.mark.parametrize("argv, message", [
        (["montecarlo", "--rho", "1e155"], "bounded-disk radius must be finite, positive and below 1e150, got 1e+155"),
        (["sweep", "--grid", "0.1,1e160"], "sweep epsilons must be finite, positive and below 1e150, got 1e+160"),
        (["montecarlo", "--sigma", "1e160"], "gaussian scale must be finite, nonnegative and below 1e150, got 1e+160"),
    ])
    def test_exits_2_without_a_traceback(self, argv, message):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "margin_guard", argv[0], "--preset", "near_boundary", *argv[1:]],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


class TestTinyGaussianScales:
    """8 sigma^2 underflows to 0 below sigma = 1.6e-162 and is subnormal just above, so the Gaussian tail
    bound once printed numpy's divide-by-zero or overflow warnings; so did the ball's margin / (2 rho)
    below rho = 1e-309. A child process has numpy's default warning filters, under which such a warning
    goes to stderr."""

    @pytest.mark.parametrize("noise", [["--sigma", "1e-200"], ["--sigma", "1e-160"], ["--sigma", "1e-155"],
                                       ["--rho", "1e-320"]], ids=["1e-200", "1e-160", "1e-155", "rho-1e-320"])
    def test_exits_0_with_empty_stderr(self, noise):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "margin_guard", "montecarlo", "--preset", "near_boundary", *noise],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["per_index_bound"] == [0.0, 0.0, 0.0]


class TestSeedResolution:
    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MARGIN_GUARD_SEED", "77")
        from_env = run_json(capsys, ["preset", "two_gaussians", "--n", "5"])
        monkeypatch.delenv("MARGIN_GUARD_SEED")
        from_flag = run_json(capsys, ["preset", "two_gaussians", "--n", "5", "--seed", "77"])
        assert from_env["points"] == from_flag["points"]

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MARGIN_GUARD_SEED", "77")
        flagged = run_json(capsys, ["preset", "two_gaussians", "--n", "5", "--seed", "1"])
        monkeypatch.delenv("MARGIN_GUARD_SEED")
        direct = run_json(capsys, ["preset", "two_gaussians", "--n", "5", "--seed", "1"])
        assert flagged["points"] == direct["points"]

    def test_invalid_env_var_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MARGIN_GUARD_SEED", "not-a-number")
        assert main(["preset", "two_gaussians", "--n", "5"]) == 2

    def test_trajectory_takes_no_seed(self, capsys):
        # the trajectory pass draws nothing, so --seed is not one of its flags
        assert main(["trajectory", "--points", TRAJECTORY_INPUT, "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: unrecognized arguments: --seed 0\n" in captured.err


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main(["no-such-command"]) == 2

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0

    def test_invariant_violation_is_3(self, capsys, monkeypatch, anchored_files):
        points, centers = anchored_files

        def boom(*args, **kwargs):
            raise InvariantViolation("forced for testing")

        monkeypatch.setattr("margin_guard.cli.analyze_stability", boom)
        assert main(["analyze", "--points", points, "--centers", centers]) == 3
        assert "invariant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--preset", "two_gaussians", "--n", "20", "--grid", "nan,0.1", "--trials", "2"],
            ["sweep", "--preset", "two_gaussians", "--n", "20", "--grid", "inf,0.1", "--trials", "2"],
            ["montecarlo", "--preset", "two_gaussians", "--n", "20", "--rho", "nan", "--trials", "2"],
            ["montecarlo", "--preset", "two_gaussians", "--n", "20", "--rho", "inf", "--trials", "2"],
            ["montecarlo", "--preset", "two_gaussians", "--n", "20", "--sigma", "nan", "--trials", "2"],
            ["montecarlo", "--preset", "two_gaussians", "--n", "20", "--sigma", "inf", "--trials", "2"],
            ["analyze", "--preset", "two_gaussians", "--n", "20", "--epsilon", "nan"],
            ["analyze", "--preset", "two_gaussians", "--n", "20", "--epsilon", "inf"],
            ["analyze", "--preset", "two_gaussians", "--n", "20", "--epsilon", "nan", "--format", "csv"],
            ["preset", "two_gaussians", "--n", "5", "--sigma0", "nan"],
            ["preset", "two_gaussians", "--n", "5", "--sigma0", "inf"],
            ["analyze", "--preset", "two_gaussians", "--n", "5", "--sigma0", "nan"],
        ],
    )
    def test_non_finite_numbers_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite" in captured.err


class TestFlagsBeforeInputs:
    """A bad flag exits 2 with its own error before any input is read or generated."""

    def test_trajectory_eta_before_the_file(self, capsys, tmp_path):
        assert main(["trajectory", "--points", str(tmp_path / "missing.json"), "--eta", "2"]) == 2
        assert capsys.readouterr() == ("", "error: eta must lie in (0, 1]\n")

    def test_montecarlo_noise_model_before_the_files(self, capsys, tmp_path):
        files = ["--points", str(tmp_path / "missing.csv"), "--centers", str(tmp_path / "missing_centers.csv")]
        assert main(["montecarlo", *files, "--rho", "0.1", "--sigma", "0.1"]) == 2
        want = "error: choose exactly one noise model: --rho (bounded) or --sigma (gaussian)\n"
        assert capsys.readouterr() == ("", want)

    def test_sweep_grid_before_the_files(self, capsys, tmp_path):
        files = ["--points", str(tmp_path / "missing.csv"), "--centers", str(tmp_path / "missing_centers.csv")]
        assert main(["sweep", *files, "--grid", "abc"]) == 2
        assert capsys.readouterr() == ("", "error: --grid must be comma-separated numbers, got 'abc'\n")

    def test_analyze_epsilon_before_the_files(self, capsys, tmp_path):
        files = ["--points", str(tmp_path / "missing.csv"), "--centers", str(tmp_path / "missing_centers.csv")]
        assert main(["analyze", *files, "--epsilon", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: epsilon must be finite and nonnegative, got -1.0\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--epsilon", "nan"],
        ["montecarlo", "--rho", "0.1", "--sigma", "0.1"],
        ["montecarlo", "--rho", "nan"],
        ["montecarlo", "--rho", "0.1", "--trials", "0"],
        ["sweep", "--grid", "0.1"],
        ["sweep", "--grid", "0.1,inf"],
        ["sweep", "--grid", "0.1,0.2", "--trials", "0"],
    ])
    def test_no_preset_is_generated_for_a_bad_flag(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("margin_guard.cli.make_preset", None)  # generating would raise TypeError
        assert main([*argv, "--preset", "two_gaussians", "--n", "100000"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestOneHomePerRule:
    """Each input rule raises from one place, so every caller that reaches it, the CLI included where it
    can, gives the same message, and the message appears once in the source."""

    @staticmethod
    def raised(call, *args) -> str:
        with pytest.raises(ValueError) as info:
            call(*args)
        return str(info.value)

    def cli_error(self, capsys, argv) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        return captured.err[len("error: "):].rstrip("\n")

    def test_eta_range(self, capsys, anchored_config, two_centers):
        traj = Trajectory((anchored_config,) * 2, two_centers)
        messages = {self.raised(instability_time, traj, 1.5),
                    self.cli_error(capsys, ["trajectory", "--points", TRAJECTORY_INPUT, "--eta", "1.5"])}
        assert messages == {"eta must lie in (0, 1]"}

    def test_two_snapshots(self, capsys, tmp_path, anchored_config, two_centers):
        traj = Trajectory((anchored_config,), two_centers)
        message = "step sizes need at least two snapshots"
        assert {self.raised(step_sizes, traj), self.raised(stepwise_stability_check, traj)} == {message}
        # the CLI gives the library's message after the file's name, from JSON and from CSV input
        path = tmp_path / "one_snapshot.json"
        path.write_text(dump_json(trajectory_to_json_dict(traj.snapshots, two_centers)))
        assert self.cli_error(capsys, ["trajectory", "--points", str(path)]) == f"{path}: {message}"
        csv_path, centers_path = tmp_path / "one_snapshot.csv", tmp_path / "centers.csv"
        csv_path.write_text("t,x1,x2\n" + "".join(f"0,{x},{y}\n" for x, y in anchored_config.points.tolist()))
        centers_path.write_text(centers_to_csv(two_centers))
        argv = ["trajectory", "--points", str(csv_path), "--centers", str(centers_path)]
        assert self.cli_error(capsys, argv) == f"{csv_path}: {message}"

    def test_model_dimension(self, anchored_config, two_centers):
        model = PerturbationModel.bounded_disk(0.1, dim=3)
        messages = {self.raised(sample_perturbation, model, anchored_config, 0),
                    self.raised(monte_carlo, anchored_config, two_centers, model, 10, 0)}
        assert messages == {"model dimension 3 does not match configuration dimension 2"}

    def test_ground_set_size(self):
        p, q = Partition.from_labels([1, 1, 2]), Partition.from_labels([1, 2])
        assert {self.raised(pair_disagreements, p, q), self.raised(partition_distance, p, q)} == {
            "ground-set sizes differ: 3 vs 2"}

    @pytest.mark.parametrize("message", ["eta must lie in (0, 1]", "step sizes need at least two snapshots",
                                         "does not match configuration dimension", "ground-set sizes differ"])
    def test_each_message_appears_once_in_the_source(self, message):
        src = Path(__file__).resolve().parents[1] / "src" / "margin_guard"
        assert sum(path.read_text().count(message) for path in src.glob("*.py")) == 1


class TestFixtureParameters:
    """A fixture's epsilon and delta must be finite and positive, and the error names the parameter."""

    @pytest.mark.parametrize("argv, name, value", [
        (["construct", "near_boundary", "--delta", "nan"], "delta", "nan"),
        (["construct", "single_point", "--epsilon", "inf"], "epsilon", "inf"),
        (["construct", "many_point", "--epsilon", "0"], "epsilon", "0.0"),
        (["preset", "single_point", "--epsilon", "nan"], "epsilon", "nan"),
        (["preset", "near_boundary", "--delta=-inf"], "delta", "-inf"),
        (["analyze", "--preset", "near_boundary", "--delta", "inf"], "delta", "inf"),
        (["montecarlo", "--preset", "many_point", "--epsilon", "nan", "--rho", "0.1"], "epsilon", "nan"),
        (["sweep", "--preset", "single_point", "--epsilon", "-1", "--grid", "0.1,0.2"], "epsilon", "-1.0"),
    ])
    def test_bad_value_exits_2_naming_the_parameter(self, capsys, argv, name, value):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {name} must be finite and positive, got {value}\n")

    @pytest.mark.parametrize("argv, kind, name, value", [
        (["construct", "many_point", "--m", "1000", "--epsilon", "1e-10"], "many_point", "epsilon", "1e-10"),
        (["construct", "single_point", "--epsilon", "2e-16"], "single_point", "epsilon", "2e-16"),
        (["construct", "single_point", "--epsilon", "1e-323"], "single_point", "epsilon", "1e-323"),
        (["construct", "near_boundary", "--delta", "5e-17"], "near_boundary", "delta", "5e-17"),
        (["preset", "many_point", "--m", "3", "--epsilon", "1e-15"], "many_point", "epsilon", "1e-15"),
        (["sweep", "--preset", "single_point", "--epsilon", "2e-16", "--grid", "0.1,0.2"], "single_point", "epsilon",
         "2e-16"),
        (["montecarlo", "--preset", "near_boundary", "--delta", "5e-17", "--rho", "0.1"], "near_boundary", "delta",
         "5e-17"),
    ])
    def test_fixture_that_fails_in_float64_exits_2(self, capsys, argv, kind, name, value):
        # the crossing point sits closer to the bisector than float64 resolves, so the rule would not
        # give the fixture's partitions; no fixture is printed
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {kind} does not hold at {name} = {value}: "
                                           "the nearest-center rule does not give the expected partitions in float64\n")

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--rho", "0.2", "--trials", "50"],
        ["sweep", "--grid", "0.1,0.2", "--trials", "50"],
    ])
    def test_fixture_epsilon_reaches_the_preset(self, capsys, tmp_path, argv):
        # --epsilon 0.5 puts the crossing point at 0.125 from the bisector, the default 1.0 at 0.25: noise of
        # radius 0.2 switches only the first (at 0.1 neither switches, so that radius could not show the flag)
        out = tmp_path / "single"
        assert main(["preset", "single_point", "--epsilon", "0.5", "--format", "csv", "--out", str(out)]) == 0
        capsys.readouterr()
        reports = []
        for inputs in (["--preset", "single_point", "--epsilon", "0.5"],
                       ["--points", f"{out}.points.csv", "--centers", f"{out}.centers.csv"],
                       ["--preset", "single_point"]):
            assert main([*argv, *inputs]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert reports[0] != reports[2]


class TestAnalyzeEpsilon:
    """analyze's --epsilon sizes only the certificate; a fixture --preset is built at its default size (1.0)."""

    SINGLE = ["analyze", "--preset", "single_point"]

    def test_zero_is_a_certificate_size(self, capsys):
        doc = run_json(capsys, [*self.SINGLE, "--epsilon", "0"])
        assert doc["epsilon"] == 0.0 and doc["certified_no_switch"] is True

    def test_the_certificate_size_leaves_the_fixture_alone(self, capsys):
        # at the default size the crossing point sits 0.25 from the bisector, so no move below 0.25 switches it
        small, large = (run_json(capsys, [*self.SINGLE, "--epsilon", e]) for e in ("0.05", "0.1"))
        assert small["margins"] == large["margins"]
        assert small["min_margin"] == large["min_margin"] == 0.5
        assert small["certified_no_switch"] is True and large["certified_no_switch"] is True

    def test_another_fixture_size_goes_through_a_preset_file(self, capsys, tmp_path):
        reports = []
        for size in ([], ["--epsilon", "0.5"]):
            out = tmp_path / f"single{len(size)}.json"
            assert main(["preset", "single_point", *size, "--out", str(out)]) == 0
            assert main(["analyze", "--points", str(out), "--centers", str(out), "--epsilon", "0.05"]) == 0
            reports.append(capsys.readouterr().out)
        assert main([*self.SINGLE, "--epsilon", "0.05"]) == 0
        assert capsys.readouterr().out == reports[0] != reports[1]
        assert json.loads(reports[1])["min_margin"] == 0.25


def subcommands() -> dict:
    """Each subcommand's parser, by name."""
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


class TestFlagDeclarations:
    """A flag that several subcommands take is one Action, with one help text and one default."""

    # the flags declared per subcommand, as groups of the subcommands that share an Action
    PER_SUBCOMMAND = {
        "--epsilon": [["analyze"], ["construct", "montecarlo", "preset", "sweep"]],  # certificate vs fixture size
        "--points": [["analyze", "montecarlo", "sweep"], ["trajectory"]],  # points file vs trajectory file
        "--centers": [["analyze", "montecarlo", "sweep"], ["trajectory"]],
        "--trials": [["montecarlo"], ["sweep"]],  # default 1,000 vs 100
    }

    def test_subcommands_that_take_a_flag_share_its_action(self):
        takers = {}  # option string -> {id(action): [subcommand, ...]}
        for command, parser in sorted(subcommands().items()):
            for action in parser._actions:
                if not isinstance(action, argparse._HelpAction):
                    for option in action.option_strings:
                        takers.setdefault(option, {}).setdefault(id(action), []).append(command)
        assert {"--out", "--format", "--seed", "--preset", "--m", "--delta"} <= takers.keys()
        for option, groups in takers.items():
            if option in self.PER_SUBCOMMAND:
                assert sorted(groups.values()) == self.PER_SUBCOMMAND[option]
            else:
                assert len(groups) == 1, (option, sorted(groups.values()))

    def test_only_the_subcommands_that_use_a_flag_take_it(self):
        # --seed where a draw can use it, --format where CSV is emitted
        takers = {option: sorted(command for command, parser in subcommands().items()
                                 if option in parser._option_string_actions) for option in ("--seed", "--format")}
        assert takers == {"--seed": ["analyze", "montecarlo", "preset", "sweep"],
                          "--format": ["analyze", "montecarlo", "preset", "sweep", "trajectory"]}

    def test_every_argument_has_help(self):
        for command, parser in subcommands().items():
            for action in parser._actions:
                assert action.help and action.help != argparse.SUPPRESS, (command, action.dest)


def degenerate_inputs():
    """(points, centers) of the degenerate shapes: k >> n, d = 1 and duplicate points."""
    rng = np.random.default_rng(5)
    return {
        "k_much_greater_than_n": (rng.uniform(-1.0, 1.0, (3, 2)), rng.uniform(-1.0, 1.0, (500, 2))),
        "d1": ([[-2.0], [-0.5], [0.25], [3.0]], [[-1.0], [1.0]]),
        "duplicates": ([[0.3, 0.1]] * 3 + [[-1.2, 0.4]] * 2 + [[0.9, -0.2]], [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    }


def write_degenerate_input(tmp_path, shape):
    """The shape's (config, centers), written as CSV files, and the flags that name the files."""
    config, centers = (cls(rows) for cls, rows in zip((PointConfig, CenterSet), degenerate_inputs()[shape]))
    (tmp_path / "p.csv").write_text(points_to_csv(config))
    (tmp_path / "c.csv").write_text(centers_to_csv(centers))
    return config, centers, ["--points", str(tmp_path / "p.csv"), "--centers", str(tmp_path / "c.csv")]


class TestDegenerateInputs:
    """Degenerate inputs run through the CLI and print the library's report, byte for byte."""

    LIBRARY = {
        "analyze": ([], analyze_stability),
        "montecarlo": (["--rho", "0.3", "--trials", "50", "--seed", "3"],
                       lambda config, centers: monte_carlo(
                           config, centers, PerturbationModel.bounded_disk(0.3, dim=config.d), trials=50, seed=3)),
        "sweep": (["--grid", "0.05,0.5", "--trials", "20", "--seed", "3"],
                  lambda config, centers: sweep_table(config, centers, [0.05, 0.5], trials=20, seed=3)),
    }

    @pytest.mark.parametrize("command", sorted(LIBRARY))
    @pytest.mark.parametrize("shape", sorted(degenerate_inputs()))
    def test_cli_prints_the_library_report(self, capsys, tmp_path, shape, command):
        config, centers, files = write_degenerate_input(tmp_path, shape)
        flags, library = self.LIBRARY[command]
        code = main([command, *files, *flags])
        assert capsys.readouterr() == (dump_json(library(config, centers).to_json_dict()), "")
        assert code == 0

    def test_d1_analyze_by_hand(self, capsys, tmp_path):
        # centers -1 and 1 bisect at 0; the cheapest move carries 0.25 across it into the first block
        doc = run_json(capsys, ["analyze", *write_degenerate_input(tmp_path, "d1")[2]])
        assert doc["labels"] == [1, 1, 2, 2] and doc["partition"] == [[1, 2], [3, 4]]
        assert doc["margins"] == [2.0, 1.0, 0.5, 2.0]
        assert doc["per_point_switch_radius"] == [2.0, 0.5, 0.25, 3.0]
        witness = doc["empirical_partition_radius"]
        assert witness["moved_index"] == 3 and witness["new_partition"] == [[1, 2, 3], [4]]
        assert witness["radius"] == pytest.approx(0.25 * (1 + 1e-9), rel=1e-12)
        assert -1e-9 < witness["witness_points"][2][0] < 0.0


def test_output_file_writing(tmp_path, anchored_files):
    points, centers = anchored_files
    out = tmp_path / "report.json"
    assert main(["analyze", "--points", points, "--centers", centers, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1


TRAJECTORY_INPUT = str(Path(__file__).parent / "golden" / "cli" / "trajectory_input.json")
LONG_TRAJECTORY_INPUT = str(Path(__file__).parent / "golden" / "cli" / "trajectory_long_input.json")
NEAR = ["--preset", "near_boundary", "--seed", "2"]


OUT_CASES = {
    "analyze-json": ["analyze", *NEAR],
    "analyze-csv": ["analyze", *NEAR, "--format", "csv"],
    "analyze-epsilon-json": ["analyze", *NEAR, "--epsilon", "0.05"],
    "analyze-epsilon-csv": ["analyze", *NEAR, "--epsilon", "0.05", "--format", "csv"],
    "sweep-json": ["sweep", *NEAR, "--grid", "0.05,0.5", "--trials", "5"],
    "sweep-csv": ["sweep", *NEAR, "--grid", "0.05,0.5", "--trials", "5", "--format", "csv"],
    "trajectory-json": ["trajectory", "--points", TRAJECTORY_INPUT, "--eta", "0.5"],
    "trajectory-csv": ["trajectory", "--points", TRAJECTORY_INPUT, "--format", "csv"],
    "montecarlo-json": ["montecarlo", *NEAR, "--rho", "0.15", "--trials", "20"],
    "montecarlo-csv": ["montecarlo", *NEAR, "--sigma", "0.1", "--trials", "20", "--format", "csv"],
    "preset-json": ["preset", "two_gaussians", "--n", "6"],
    "construct-json": ["construct", "many_point", "--m", "3"],
}


@pytest.mark.parametrize("argv", OUT_CASES.values(), ids=OUT_CASES)
def test_out_receives_the_bytes_stdout_would(capsys, tmp_path, argv):
    # main alone formats and writes every report, so --out PATH and stdout get the same text
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == printed.encode()


HELP_COMMANDS = ["", "analyze", "sweep", "preset", "trajectory", "montecarlo", "construct"]


def test_help_texts_match_snapshot(capsys, monkeypatch):
    # the snapshot is the --help output of the top level and of each subcommand at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for command in HELP_COMMANDS:
        argv = [*command.split(), "--help"]
        assert main(argv) == 0
        # Python 3.10 heads the options "optional arguments:"; later versions say "options:"
        text = capsys.readouterr().out.replace("\noptional arguments:\n", "\noptions:\n")
        parts.append(f"==> {' '.join(['margin-guard', *argv])} <==\n{text}")
    assert "".join(parts) == (Path(__file__).parent / "golden" / "cli" / "help.txt").read_text()


class TestSharedParser:
    """main() builds its parser once per process; each call must still behave as a fresh process."""

    BASE = ["montecarlo", "--preset", "near_boundary", "--rho", "0.15", "--trials", "30"]

    @staticmethod
    def fresh_process(argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {key: value for key, value in os.environ.items() if key != "MARGIN_GUARD_SEED"}
        done = subprocess.run([sys.executable, "-m", "margin_guard", *argv], capture_output=True, text=True,
                              timeout=60, env={**env, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_successive_calls_print_what_fresh_processes_print(self, capsys, monkeypatch):
        monkeypatch.delenv("MARGIN_GUARD_SEED", raising=False)
        argvs = [[*self.BASE, "--seed", "3"], [*self.BASE, "--format", "csv"], self.BASE]
        outputs = []
        for argv in argvs:
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == [self.fresh_process(argv) for argv in argvs]
        assert outputs[0] != outputs[2]  # the seed of the first call did not stick

    def test_a_usage_error_leaves_the_parser_usable(self, capsys):
        assert main(["montecarlo", "--preset", "near_boundary", "--no-such-flag"]) == 2
        assert main(["montecarlo", "--preset", "near_boundary", "--rho", "nan"]) == 2
        capsys.readouterr()
        assert main(["montecarlo", "--preset", "near_boundary", "--seed", "0", "--rho", "0.15", "--trials", "200"]) == 0
        golden = Path(__file__).parent / "golden" / "cli" / "montecarlo_rho_near_boundary.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        import argparse

        from margin_guard import cli

        builds, add_subparsers = [], argparse.ArgumentParser.add_subparsers

        def counting(self, **kwargs):
            builds.append(self.prog)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli.build_parser.cache_clear()
        try:
            assert main(["construct", "single_point"]) == 0
            assert main(["construct", "near_boundary"]) == 0
        finally:
            cli.build_parser.cache_clear()  # drop the parser built under the spy
        assert builds == ["margin-guard"]
