import json

import numpy as np
import pytest

from margin_guard import InvariantViolation, PointConfig, many_point_instability, two_gaussians
from margin_guard.cli import main
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
        assert captured.err.startswith("error: points row 3 has a coordinate of magnitude >= 1e150")

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

    def test_csv_not_supported(self, capsys):
        assert main(["construct", "single_point", "--format", "csv"]) == 2

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
        ],
        ids=["missing_t", "fractional_t", "non_numeric_t", "time_gap", "underscore_t", "signed_t",
             "arabic_indic_digit_t", "fullwidth_digit_t"],
    )
    def test_bad_csv_times_exit_2(self, capsys, tmp_path, two_centers, rows, message):
        path = tmp_path / "traj.csv"
        path.write_text(rows)
        centers = tmp_path / "ctr.csv"
        centers.write_text(centers_to_csv(two_centers))
        assert main(["trajectory", "--points", str(path), "--centers", str(centers)]) == 2
        assert message in capsys.readouterr().err


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
        code = main(
            ["montecarlo", "--points", points, "--centers", centers, "--rho", "0.1", "--trials", "0"]
        )
        assert code == 2

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

    @STOCHASTIC_COMMANDS
    def test_more_trials_than_stream_keys_exit_2(self, capsys, monkeypatch, anchored_files, command, flags):
        monkeypatch.setattr("margin_guard.stochastic._trial_rngs", None)  # the run must not start
        points, centers = anchored_files
        assert main([command, "--points", points, "--centers", centers, *flags, "--trials", str(2**32 + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "2**32" in captured.err


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


def test_output_file_writing(tmp_path, anchored_files):
    points, centers = anchored_files
    out = tmp_path / "report.json"
    assert main(["analyze", "--points", points, "--centers", centers, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
