import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from margin_guard import (
    CenterSet,
    Partition,
    PointConfig,
    Trajectory,
    assign_nearest,
    cumulative_drift_check,
    instability_time,
    partition_distance,
    persistence_certificate,
    perturbation_size,
    single_point_instability,
    snapshot_partitions,
    step_sizes,
    stepwise_stability_check,
)
from margin_guard import dynamics, geometry
from margin_guard.cli import main
from margin_guard.dynamics import _trajectory_pass
from margin_guard.formats import dump_json, trajectory_to_json_dict
from conftest import peak_traced_mib


def random_walk(rng, centers, n, steps, scale=0.05):
    """Trajectory of n points walking from uniform starts in [-3, 3]^d."""
    snaps = [PointConfig(rng.uniform(-3, 3, (n, centers.d)))]
    for _ in range(steps):
        snaps.append(PointConfig(snaps[-1].points + rng.normal(0, scale, (n, centers.d))))
    return Trajectory(snapshots=tuple(snaps), centers=centers)


def straight_line_trajectory(centers, start, step_vectors):
    """Trajectory moving point 1 by successive vectors; other points fixed."""
    snaps = [start]
    for v in step_vectors:
        snaps.append(snaps[-1].with_point(1, snaps[-1].points[0] + np.asarray(v)))
    return Trajectory(snapshots=tuple(snaps), centers=centers)


@pytest.fixture
def wide_pair():
    # margins 0.2 at index 1, larger elsewhere
    return PointConfig([[0.1, 0.0], [-2.0, 0.0]])


class TestTrajectoryType:
    def test_requires_consistent_shapes(self, two_centers):
        a = PointConfig([[0.0, 0.0], [1.0, 0.0]])
        b = PointConfig([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="snapshot 1"):
            Trajectory(snapshots=(a, b), centers=two_centers)

    def test_requires_at_least_one_snapshot(self, two_centers):
        with pytest.raises(ValueError):
            Trajectory(snapshots=(), centers=two_centers)

    def test_centers_must_match_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            Trajectory(
                snapshots=(PointConfig([[0.0], [1.0]]),),
                centers=CenterSet([[0.0, 0.0], [1.0, 1.0]]),
            )

    def test_configs_and_their_stacked_array_build_the_same_trajectory(self, two_centers):
        rng = np.random.default_rng(3)
        snaps = random_walk(rng, two_centers, n=7, steps=5).snapshots
        from_configs = Trajectory(snapshots=snaps, centers=two_centers)
        from_stack = Trajectory(snapshots=np.stack([snap.points for snap in snaps]), centers=two_centers)
        assert from_stack._stack.tobytes() == from_configs._stack.tobytes()
        assert all(isinstance(snap, PointConfig) for snap in from_stack.snapshots)
        got, want = _trajectory_pass(from_stack), _trajectory_pass(from_configs)
        assert got.deltas.tobytes() == want.deltas.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert (got.min_margins, got.distances) == (want.min_margins, want.distances)

    @pytest.mark.parametrize("as_arrays", [False, True])
    def test_configs_and_arrays_raise_the_same_errors(self, two_centers, as_arrays):
        def build(snaps, centers):
            return Trajectory([snap.points if as_arrays else snap for snap in snaps], centers)

        a = PointConfig([[0.0, 0.0], [1.0, 0.0]])
        b = PointConfig([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match=r"^snapshot 1 has shape \(3, 2\), expected \(2, 2\); "):
            build((a, b), two_centers)
        with pytest.raises(ValueError, match="^centers dimension does not match snapshots$"):
            build((PointConfig([[0.0], [1.0]]),), two_centers)


class TestStepSizes:
    def test_constant_trajectory(self, two_centers, wide_pair):
        traj = Trajectory(snapshots=(wide_pair,) * 4, centers=two_centers)
        assert list(step_sizes(traj)) == [0.0, 0.0, 0.0]

    def test_uniform_motion(self, two_centers, wide_pair):
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.1, 0.0]] * 3)
        assert step_sizes(traj) == pytest.approx([0.1, 0.1, 0.1])

    def test_max_over_indices(self, two_centers):
        a = PointConfig([[0.0, 0.0], [1.0, 0.0]])
        b = PointConfig([[0.1, 0.0], [1.3, 0.0]])
        traj = Trajectory(snapshots=(a, b), centers=two_centers)
        assert step_sizes(traj) == pytest.approx([0.3])

    def test_single_snapshot_rejected(self, two_centers, wide_pair):
        traj = Trajectory(snapshots=(wide_pair,), centers=two_centers)
        with pytest.raises(ValueError):
            step_sizes(traj)


class TestCumulativeDrift:
    def test_collinear_steps_reach_budget(self, two_centers, wide_pair):
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.1, 0.0], [0.1, 0.0]])
        check = cumulative_drift_check(traj, 0, 2)
        assert check.drift == pytest.approx(0.2)
        assert check.budget == pytest.approx(0.2)
        assert check.bound_holds

    def test_cancelling_steps(self, two_centers, wide_pair):
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.1, 0.0], [-0.1, 0.0]])
        check = cumulative_drift_check(traj, 0, 2)
        assert check.drift == pytest.approx(0.0, abs=1e-15)
        assert check.budget == pytest.approx(0.2)
        assert check.bound_holds

    def test_single_step_window(self, two_centers, wide_pair):
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.05, 0.0], [0.07, 0.0]])
        check = cumulative_drift_check(traj, 1, 2)
        assert check.drift == check.budget == pytest.approx(0.07)

    def test_invalid_window(self, two_centers, wide_pair):
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.1, 0.0]])
        with pytest.raises(ValueError):
            cumulative_drift_check(traj, 1, 1)
        with pytest.raises(ValueError):
            cumulative_drift_check(traj, 0, 5)

    def test_holds_on_random_trajectories(self, two_centers):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n, T = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            snaps = [PointConfig(rng.uniform(-3, 3, (n, 2)))]
            for _ in range(T):
                snaps.append(PointConfig(snaps[-1].points + rng.normal(0, 0.3, (n, 2))))
            traj = Trajectory(snapshots=tuple(snaps), centers=two_centers)
            for s in range(T):
                for t in range(s + 1, T + 1):
                    assert cumulative_drift_check(traj, s, t).bound_holds


class TestPersistence:
    def test_constant_trajectory_certified(self, two_centers, wide_pair):
        traj = Trajectory(snapshots=(wide_pair,) * 3, centers=two_centers)
        cert = persistence_certificate(traj, 2)
        assert cert.certified
        assert cert.cumulative_budget == 0.0

    def test_no_motion_certifies_at_zero_margin(self, two_centers):
        # the point at (0, 0) sits on the bisector, so the bound is 0; a size-0
        # perturbation is the configuration itself, which both certificates accept
        tie = PointConfig([[0.0, 0.0], [-2.0, 0.0]])
        traj = Trajectory(snapshots=(tie,) * 3, centers=two_centers)
        certs = [persistence_certificate(traj, t) for t in range(3)]
        assert [c.initial_radius_lower_bound for c in certs] == [0.0] * 3
        assert all(c.certified for c in certs)
        assert stepwise_stability_check(traj) == [True, True]
        moved = straight_line_trajectory(two_centers, tie, [[0.0, 0.0], [1e-3, 0.0]])
        assert [persistence_certificate(moved, t).certified for t in range(3)] == [True, True, False]
        assert stepwise_stability_check(moved) == [True, False]

    def test_budget_below_bound_certified(self, two_centers, wide_pair):
        # min margin 0.2, bound 0.1; three steps of 0.03 keep the budget below
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.03, 0.0]] * 3)
        cert = persistence_certificate(traj, 3)
        assert cert.initial_radius_lower_bound == pytest.approx(0.1)
        assert cert.cumulative_budget == pytest.approx(0.09)
        assert cert.certified
        parts = snapshot_partitions(traj)
        assert all(p == parts[0] for p in parts)

    def test_budget_at_or_above_bound_not_certified(self, two_centers, wide_pair):
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.06, 0.0]] * 2)
        cert = persistence_certificate(traj, 2)
        assert cert.cumulative_budget == pytest.approx(0.12)
        assert not cert.certified  # one-sided: says nothing about the partition

    def test_certified_never_contradicted(self, two_centers):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n, T = int(rng.integers(2, 8)), int(rng.integers(1, 8))
            snaps = [PointConfig(rng.uniform(-3, 3, (n, 2)))]
            for _ in range(T):
                snaps.append(PointConfig(snaps[-1].points + rng.normal(0, 0.02, (n, 2))))
            traj = Trajectory(snapshots=tuple(snaps), centers=two_centers)
            parts = snapshot_partitions(traj)
            for t in range(T + 1):
                if persistence_certificate(traj, t).certified:
                    assert all(parts[r] == parts[0] for r in range(t + 1))

    def test_budget_monotone_in_horizon(self, two_centers, wide_pair):
        # budgets 0.03 .. 0.15 cross the 0.1 bound partway through
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.03, 0.0]] * 5)
        budgets = [persistence_certificate(traj, t).cumulative_budget for t in range(6)]
        assert budgets == sorted(budgets)
        certified = [persistence_certificate(traj, t).certified for t in range(6)]
        assert certified[0] and not certified[-1]
        # once uncertified, uncertified forever
        first = certified.index(False)
        assert not any(certified[first:])


class TestStepwise:
    def test_constant_passes(self, two_centers, wide_pair):
        traj = Trajectory(snapshots=(wide_pair,) * 3, centers=two_centers)
        assert stepwise_stability_check(traj) == [True, True]

    def test_growing_margins_pass_late_large_steps(self, two_centers):
        # both points recede from the boundary x = 0, so margins grow; the
        # late step of 0.225 passes locally but exceeds the initial bound 0.2
        xs = [0.2, 0.3, 0.45, 0.675]
        snaps = tuple(PointConfig([[x, 0.0], [-x, 0.0]]) for x in xs)
        traj = Trajectory(snapshots=snaps, centers=two_centers)
        deltas = step_sizes(traj)
        initial_bound = persistence_certificate(traj, 0).initial_radius_lower_bound
        assert deltas[2] > initial_bound
        assert stepwise_stability_check(traj) == [True, True, True]
        parts = snapshot_partitions(traj)
        assert all(p == parts[0] for p in parts)

    def test_step_exactly_at_bound_fails(self, two_centers):
        # exactly representable geometry: min margin 0.5, bound 0.25, and a
        # step of exactly 0.25 fails the strict comparison
        start = PointConfig([[0.25, 0.0], [-0.25, 0.0]])
        traj = straight_line_trajectory(two_centers, start, [[0.25, 0.0]])
        assert step_sizes(traj)[0] == 0.25
        assert stepwise_stability_check(traj) == [False]

    def test_chain_implies_equal_partitions(self, two_centers):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n, T = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            snaps = [PointConfig(rng.uniform(-3, 3, (n, 2)))]
            for _ in range(T):
                snaps.append(PointConfig(snaps[-1].points + rng.normal(0, 0.05, (n, 2))))
            traj = Trajectory(snapshots=tuple(snaps), centers=two_centers)
            passes = stepwise_stability_check(traj)
            parts = snapshot_partitions(traj)
            for t in range(T):
                if all(passes[: t + 1]):
                    assert parts[t + 1] == parts[0]


class TestInstabilityTime:
    def test_constant_trajectory_never_unstable(self, two_centers, wide_pair):
        traj = Trajectory(snapshots=(wide_pair,) * 4, centers=two_centers)
        assert instability_time(traj, 0.5) is None

    def test_replayed_boundary_crossing(self, two_centers):
        fx = single_point_instability(1.0)
        traj = Trajectory(
            snapshots=(fx.config, fx.config, fx.perturbed),
            centers=two_centers,
        )
        # distance jumps to 2/3 at step 2
        assert instability_time(traj, 0.5) == 2
        assert instability_time(traj, 0.9) is None

    def test_eta_validation(self, two_centers, wide_pair):
        traj = Trajectory(snapshots=(wide_pair,) * 2, centers=two_centers)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                instability_time(traj, bad)
        assert instability_time(traj, 1.0) is None

    def test_certified_budget_delays_instability(self, two_centers, wide_pair):
        traj = straight_line_trajectory(two_centers, wide_pair, [[0.03, 0.0]] * 3)
        for t in range(4):
            if persistence_certificate(traj, t).certified:
                tau = instability_time(traj, 0.01)
                assert tau is None or tau > t


class TestTrajectoryPass:
    def test_step_sizes_bit_identical_to_perturbation_size(self):
        rng = np.random.default_rng(41)
        for d in range(1, 13):
            centers = CenterSet(rng.normal(size=(3, d)))
            traj = random_walk(rng, centers, n=int(rng.integers(2, 40)), steps=5, scale=10.0 ** rng.integers(-3, 3))
            snaps = traj.snapshots
            expected = [perturbation_size(a, b) for a, b in zip(snaps, snaps[1:])]
            assert step_sizes(traj).tolist() == expected

    def test_pass_matches_per_snapshot_reference(self):
        rng = np.random.default_rng(43)
        centers = CenterSet([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5]])
        for _ in range(20):
            traj = random_walk(rng, centers, n=int(rng.integers(2, 9)), steps=int(rng.integers(1, 12)), scale=0.3)
            run = _trajectory_pass(traj)
            parts = snapshot_partitions(traj)
            assert run.distances == [partition_distance(parts[0], p) for p in parts]
            assert run.min_margins == [assign_nearest(s, centers).min_margin for s in traj.snapshots]
            deltas = [perturbation_size(a, b) for a, b in zip(traj.snapshots, traj.snapshots[1:])]
            for t in range(traj.horizon + 1):
                cert = run.certificate(t)
                # the budget is numpy's sum of the prefix, to the bit
                assert cert.cumulative_budget == float(np.array(deltas[:t]).sum())
                assert cert == persistence_certificate(traj, t)

    def test_single_snapshot(self, two_centers, wide_pair):
        traj = Trajectory(snapshots=(wide_pair,), centers=two_centers)
        assert persistence_certificate(traj, 0).cumulative_budget == 0.0
        assert instability_time(traj, 0.5) is None
        with pytest.raises(ValueError):
            stepwise_stability_check(traj)

    def test_cli_work_is_linear_in_horizon(self, tmp_path, monkeypatch):
        T, n = 60, 5
        traj = random_walk(np.random.default_rng(47), CenterSet([[-1.0, 0.0], [1.0, 0.0]]), n, T)
        path = tmp_path / "traj.json"
        path.write_text(dump_json(trajectory_to_json_dict(traj.snapshots, traj.centers)))
        sizes, rows = [], []

        def counting_size(a, b):
            sizes.append(1)
            return perturbation_size(a, b)

        squared_distances = geometry._squared_distances

        def counting_rows(points, centers):
            rows.append(points.shape[0])
            return squared_distances(points, centers)

        monkeypatch.setattr(dynamics, "perturbation_size", counting_size)
        monkeypatch.setattr(geometry, "perturbation_size", counting_size)
        # every nearest-center assignment goes through this kernel
        monkeypatch.setattr(geometry, "_squared_distances", counting_rows)
        assert main(["trajectory", "--points", str(path), "--eta", "0.5", "--out", str(tmp_path / "r.json")]) == 0
        assert len(sizes) <= T
        assert 0 < sum(rows) <= (T + 1) * n

    def test_pass_makes_one_distance_call(self, monkeypatch):
        T, n = 40, 30
        traj = random_walk(np.random.default_rng(61), CenterSet([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), n, T, 0.3)
        expected = [partition_distance(snapshot_partitions(traj)[0], p) for p in snapshot_partitions(traj)]
        calls = []
        count = dynamics._label_distance

        def counting(a, b):
            calls.append(np.shape(b))
            return count(a, b)

        monkeypatch.setattr(dynamics, "_label_distance", counting)
        run = _trajectory_pass(traj)
        assert calls == [(T + 1, n)]
        assert run.distances == expected and max(expected) > 0

    @pytest.mark.parametrize("rows_per_block", [None, 7])
    def test_cli_assigns_stacked_snapshots_in_row_blocks(self, capsys, monkeypatch, rows_per_block):
        golden = Path(__file__).parent / "golden" / "cli"
        doc = json.loads((golden / "trajectory_long_input.json").read_text())
        (steps, n, d), k = np.shape(doc["snapshots"]), len(doc["centers"])
        if rows_per_block is not None:
            monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", rows_per_block * k * d)
        block = geometry._BLOCK_ENTRIES // (k * d)
        kernel, assign, blocks, assigns = geometry._squared_distances, geometry.assign_nearest, [], []
        monkeypatch.setattr(geometry, "_squared_distances", lambda p, c: blocks.append(len(p)) or kernel(p, c))
        for module in [m for name, m in sys.modules.items() if name.startswith("margin_guard")]:
            for attr, value in list(vars(module).items()):
                if value is assign:
                    monkeypatch.setattr(module, attr, lambda *a: assigns.append(a) or assign(*a))
        argv = ["trajectory", "--points", str(golden / "trajectory_long_input.json"), "--eta", "0.2", "--seed", "0"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (golden / "trajectory_long.json").read_text()
        assert assigns == []
        assert len(blocks) == math.ceil(steps * n / block) and sum(blocks) == steps * n

    def test_snapshot_partitions_come_from_the_pass(self, monkeypatch):
        traj = random_walk(np.random.default_rng(59), CenterSet([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 12, 9, 0.3)
        expected = [Partition.from_labels(assign_nearest(s, traj.centers).labels) for s in traj.snapshots]
        kernel, calls = dynamics._nearest, []
        monkeypatch.setattr(dynamics, "_nearest", lambda p, c: calls.append(len(p)) or kernel(p, c))
        assert snapshot_partitions(traj) == expected
        assert calls == [10 * 12]

    def test_pass_memory_is_linear(self):
        # a (T + 1) x n x k float tensor would take 206 MB here
        T, n, k = 200, 2000, 64
        rng = np.random.default_rng(53)
        traj = random_walk(rng, CenterSet(rng.uniform(-3, 3, (k, 2))), n, T)
        peak, run = peak_traced_mib(lambda: _trajectory_pass(traj))
        assert len(run.distances) == T + 1
        assert peak < 32
