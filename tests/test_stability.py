import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margin_guard import (
    Assignment,
    CenterSet,
    InvariantViolation,
    Partition,
    PartitionRadiusWitness,
    PointConfig,
    Trajectory,
    analyze_stability,
    PerturbationModel,
    assign_nearest,
    exact_switch_radius,
    induced_partition,
    monte_carlo,
    no_switch_certificate,
    per_point_switch_radii,
    persistence_certificate,
    perturbation_size,
    step_sizes,
    stepwise_stability_check,
    sweep_table,
    switch_candidates,
)
from margin_guard import geometry, stability
from margin_guard.cli import main
from margin_guard.formats import centers_to_csv, points_to_csv
from conftest import bisector_distances, k64_instance, peak_traced_mib, random_instance


class TestNoSwitchCertificate:
    def test_below_threshold_certified(self, anchored_assignment):
        assert no_switch_certificate(anchored_assignment, 0.05)

    def test_threshold_itself_not_certified(self, anchored_assignment):
        # the sufficient condition is strict; at exactly half the minimum
        # margin a point can reach a decision boundary
        assert not no_switch_certificate(anchored_assignment, anchored_assignment.min_margin / 2)

    def test_zero_epsilon_always_certified(self, two_centers):
        on_boundary = PointConfig([[0.0, 0.0], [0.0, 1.0]])
        a = assign_nearest(on_boundary, two_centers)
        assert a.min_margin == 0.0
        assert no_switch_certificate(a, 0.0)
        assert not no_switch_certificate(a, 1e-300)

    def test_negative_epsilon_rejected(self, anchored_assignment):
        with pytest.raises(ValueError):
            no_switch_certificate(anchored_assignment, -0.1)

    def test_every_caller_agrees_at_the_tie_and_one_ulp_below(self, two_centers):
        # the certificate, both trajectory certificates and the sweep flag apply one rule: a size of
        # exactly half the minimum margin is not certified, one ulp less is
        config = PointConfig([[-2.0, 0.0], [2.0, 0.0], [0.25, 0.0]])
        a = assign_nearest(config, two_centers)
        tie = a.min_margin / 2.0
        sizes = [tie, float(np.nextafter(tie, 0.0))]
        # moving the first point along y by s makes a step of exactly s
        trajs = [Trajectory((config, config.with_point(1, [-2.0, s])), two_centers) for s in sizes]
        assert [float(step_sizes(t)[0]) for t in trajs] == sizes
        rows = sweep_table(config, two_centers, sizes, trials=2, seed=0).rows
        assert [no_switch_certificate(a, s) for s in sizes] == [False, True]
        assert [persistence_certificate(t, 1).certified for t in trajs] == [False, True]
        assert [stepwise_stability_check(t)[0] for t in trajs] == [False, True]
        assert [row.below_threshold for row in rows] == [False, True]

    def test_every_caller_certifies_size_zero_at_zero_margin(self, two_centers):
        # the sweep takes positive radii only
        on_boundary = PointConfig([[0.0, 0.0], [0.0, 1.0]])
        a = assign_nearest(on_boundary, two_centers)
        traj = Trajectory((on_boundary, on_boundary), two_centers)
        assert a.min_margin == 0.0
        assert no_switch_certificate(a, 0.0)
        assert persistence_certificate(traj, 1).certified
        assert stepwise_stability_check(traj) == [True]


class TestSwitchCandidates:
    def test_only_small_margin_indices(self, anchored_assignment):
        assert switch_candidates(anchored_assignment, 0.25) == {3}

    def test_empty_below_half_min_margin(self, anchored_assignment):
        assert switch_candidates(anchored_assignment, 0.05) == frozenset()

    def test_all_on_bisector(self, two_centers):
        cfg = PointConfig([[0.0, -1.0], [0.0, 0.0], [0.0, 2.0]])
        a = assign_nearest(cfg, two_centers)
        assert switch_candidates(a, 0.0) == {1, 2, 3}

    def test_boundary_is_inclusive(self, two_centers):
        # exactly representable: point at x = 0.25 has margin exactly 0.5
        a = assign_nearest(PointConfig([[0.25, 0.0], [-2.0, 0.0]]), two_centers)
        assert a.margins[0] == 0.5
        assert 1 in switch_candidates(a, 0.25)


class TestExactSwitchRadius:
    def test_near_boundary_point(self, two_centers):
        assert exact_switch_radius([0.1, 0.0], two_centers, 2) == pytest.approx(0.1)

    def test_far_point(self, two_centers):
        assert exact_switch_radius([-2.0, 0.0], two_centers, 1) == pytest.approx(2.0)

    def test_on_bisector(self, two_centers):
        assert exact_switch_radius([0.0, 0.5], two_centers, 1) == pytest.approx(0.0, abs=1e-15)

    def test_wrong_label_rejected(self, two_centers):
        with pytest.raises(ValueError, match="not the nearest-center label"):
            exact_switch_radius([0.1, 0.0], two_centers, 1)

    def test_dominates_half_margin_on_random_configs(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            config, centers = random_instance(rng, n_max=20, d_max=4, k_max=5)
            a = assign_nearest(config, centers)
            radii = per_point_switch_radii(config, centers, a)
            assert (radii >= a.margins / 2.0 - 1e-9).all()

    def test_equality_on_segment_between_centers(self, two_centers):
        # off the segment the radius is strictly larger than half the margin
        a = assign_nearest(PointConfig([[0.3, 0.0], [0.3, 2.0]]), two_centers)
        r_on = exact_switch_radius([0.3, 0.0], two_centers, 2)
        r_off = exact_switch_radius([0.3, 2.0], two_centers, int(a.labels[1]))
        assert r_on == pytest.approx(a.margins[0] / 2.0)
        assert r_off > a.margins[1] / 2.0 + 1e-6

    def test_radii_need_the_configuration_own_assignment(self, anchored_config, two_centers):
        swapped = assign_nearest(PointConfig([[2.0, 0.0], [-2.0, 0.0], [0.1, 0.0]]), two_centers)
        with pytest.raises(ValueError, match="not the nearest-center assignment"):
            per_point_switch_radii(anchored_config, two_centers, swapped)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        config, centers = random_instance(rng, n_max=15, d_max=3, k_max=4)
        a = assign_nearest(config, centers)
        radii = per_point_switch_radii(config, centers, a)
        for i in range(config.n):
            expect = exact_switch_radius(config.points[i], centers, int(a.labels[i]))
            assert radii[i] == pytest.approx(expect, rel=1e-12)


    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_radii_are_the_bisector_row_minima_bit_for_bit(self, seed):
        # up to 700 points against up to 40 centers span several row blocks of the kernel
        rng = np.random.default_rng(seed)
        config, centers = random_instance(rng, n_max=700, d_max=10, k_max=40)
        assignment, bisectors = geometry._assign(config, centers, geometry._BISECTORS)
        want = bisectors.min(axis=1).tobytes()
        assert bisector_distances(config.points, centers.centers, assignment.labels).min(axis=1).tobytes() == want
        assert per_point_switch_radii(config, centers).tobytes() == want
        assert analyze_stability(config, centers).per_point_switch_radius.tobytes() == want

    def test_radii_memory_at_k64_is_block_sized(self):
        # estimate, not a measurement: labels, margins and radii are three n-vectors of 0.8 MiB each,
        # plus a few 512 KiB block temporaries; the whole (n, k) bisector matrix took 51.5 MiB
        config, centers = k64_instance()
        peak, radii = peak_traced_mib(lambda: per_point_switch_radii(config, centers))
        assert radii.shape == (config.n,)
        assert peak <= 8.0


class TestPartitionRadiusSearch:
    def test_anchored_config_witness(self, anchored_config, two_centers):
        res = analyze_stability(anchored_config, two_centers).witness
        assert res is not None
        assert res.radius == pytest.approx(0.1, rel=1e-6)
        assert res.moved_index == 3
        assert res.new_partition == Partition([[1, 3], [2]], n=3)
        # witness must actually reproduce the claimed perturbation and change
        assert perturbation_size(anchored_config, res.witness) == pytest.approx(res.radius, rel=1e-12)
        after = induced_partition(assign_nearest(res.witness, two_centers))
        assert after == res.new_partition
        assert after != induced_partition(assign_nearest(anchored_config, two_centers))

    def test_each_point_at_own_center(self):
        centers = CenterSet([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        config = PointConfig([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        res = analyze_stability(config, centers).witness
        assert res is not None
        a = assign_nearest(config, centers)
        min_exact = per_point_switch_radii(config, centers, a).min()
        assert res.radius == pytest.approx(min_exact, rel=1e-6)

    def test_cheapest_non_changing_move_is_skipped(self):
        # crossing index 1 into the empty center 3 costs 0.2 but keeps the
        # partition {{1}, {2}}; the cheapest partition-changing move costs 2
        centers = CenterSet([[0.0, 0.0], [4.0, 0.0], [0.0, 2.0]])
        config = PointConfig([[0.0, 0.8], [4.0, 0.0]])
        before = induced_partition(assign_nearest(config, centers))
        assert before == Partition([[1], [2]], n=2)
        res = analyze_stability(config, centers).witness
        assert res is not None
        assert res.radius == pytest.approx(2.0, rel=1e-6)
        assert res.new_partition == Partition([[1, 2]], n=2)

    def test_witness_changes_partition_on_random_configs(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            config, centers = random_instance(rng, n_max=12, d_max=3, k_max=4)
            res = analyze_stability(config, centers).witness
            if res is None:
                continue
            before = induced_partition(assign_nearest(config, centers))
            after = induced_partition(assign_nearest(res.witness, centers))
            assert after != before
            assert perturbation_size(config, res.witness) == pytest.approx(res.radius, rel=1e-9)


def candidate_loop_search(config, centers, slack_rel=1e-9, slack_floor=1e-12):
    """Reference radius search: one bisector per (index, center) in a Python loop, tuple-sorted."""
    assignment = assign_nearest(config, centers)
    before = induced_partition(assignment)
    candidates = []
    for pos in range(config.n):
        own = assignment.labels[pos]
        p = config.points[pos]
        sq_own = float(((p - centers.centers[own - 1]) ** 2).sum())
        for j in range(1, centers.k + 1):
            if j == own:
                continue
            gap = float(np.linalg.norm(centers.centers[j - 1] - centers.centers[own - 1]))
            bisector = (float(((p - centers.centers[j - 1]) ** 2).sum()) - sq_own) / (2.0 * gap)
            candidates.append((bisector + max(slack_rel * bisector, slack_floor), pos, j))
    candidates.sort()
    for step, pos, j in candidates:
        own = assignment.labels[pos]
        direction = centers.centers[j - 1] - centers.centers[own - 1]
        direction = direction / np.linalg.norm(direction)
        moved = config.with_point(pos + 1, config.points[pos] + step * direction)
        after = induced_partition(assign_nearest(moved, centers))
        if after != before:
            return PartitionRadiusWitness(perturbation_size(config, moved), moved, pos + 1, after)
    return None


def full_reassignment_search(config, centers):
    """Reference radius search: the kernel's candidates and order, but each one re-assigns every point."""
    assignment = assign_nearest(config, centers)
    before = induced_partition(assignment)
    bisectors = bisector_distances(config.points, centers.centers, assignment.labels)
    rows, cols = np.nonzero(np.arange(centers.k) != (assignment.labels - 1)[:, None])
    radii = bisectors[rows, cols]
    steps = radii + np.maximum(1e-9 * radii, 1e-12)
    for c in np.lexsort((cols, rows, steps)):
        pos, step = int(rows[c]), float(steps[c])
        direction = centers.centers[cols[c]] - centers.centers[assignment.labels[pos] - 1]
        moved = config.with_point(pos + 1, config.points[pos] + step * (direction / np.linalg.norm(direction)))
        after = induced_partition(assign_nearest(moved, centers))
        if after != before:
            return PartitionRadiusWitness(perturbation_size(config, moved), moved, pos + 1, after)
    return None


def singleton_heavy_instance(rng):
    """Float instance whose points sit near a few of up to 12 centers: many singletons and empty
    centers, k > n in most draws, d = 1 in a third of them."""
    n, d, k = int(rng.integers(2, 9)), int(rng.integers(1, 4)), int(rng.integers(2, 13))
    centers = rng.uniform(-3.0, 3.0, (k, d))
    while len(np.unique(centers, axis=0)) < k:
        centers = rng.uniform(-3.0, 3.0, (k, d))
    points = centers[rng.integers(0, k, n)] + rng.normal(0.0, 0.4, (n, d))
    return PointConfig(points), CenterSet(centers)


def checkerboard_with_singletons(side=4, deep=3, seed=7):
    """Centers on a side x side grid; cells with i + j even hold either a deep cluster or one point
    pushed toward a corner, next to empty cells, so cheap candidates leave the partition unchanged."""
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(side) for j in range(side)]
    rows = []
    for t, (i, j) in enumerate(c for c in cells if (c[0] + c[1]) % 2 == 0):
        if t % 2:
            rows.append([i + (0.3 if i < side - 1 else -0.3), j + (0.32 if j < side - 1 else -0.32)])
        else:
            rows.extend(np.array([i, j]) + rng.uniform(-0.15, 0.15, (deep, 2)))
    return PointConfig(rows), CenterSet(np.array(cells, dtype=float))


class TestSearchAgainstCandidateLoop:
    def test_checkerboard_ties_match_loop(self):
        # integer points and centers on a 3 x 3 grid: many candidate steps tie
        # exactly, so the (step, index, center) order decides the witness
        grid = CenterSet([[2.0 * a, 2.0 * b] for a in range(3) for b in range(3)])
        rng = np.random.default_rng(21)
        for _ in range(40):
            config = PointConfig(rng.integers(-1, 6, (int(rng.integers(2, 14)), 2)))
            got = analyze_stability(config, grid).witness
            want = candidate_loop_search(config, grid)
            if want is None:
                assert got is None
                continue
            assert got.moved_index == want.moved_index
            assert got.radius == want.radius
            assert got.witness.points.tobytes() == want.witness.points.tobytes()
            assert got.new_partition == want.new_partition

    def test_singletons_and_empty_centers_match_full_reassignment(self):
        rng = np.random.default_rng(6)
        found, shapes = 0, []
        for _ in range(300):
            config, centers = singleton_heavy_instance(rng)
            got = analyze_stability(config, centers).witness
            want = full_reassignment_search(config, centers)
            loop = candidate_loop_search(config, centers)
            if want is None:
                assert got is None and loop is None
                continue
            found += 1
            assert got.moved_index == want.moved_index
            assert got.radius == want.radius
            assert got.witness.points.tobytes() == want.witness.points.tobytes()
            assert got.new_partition == want.new_partition
            # the loop's bisector takes the center gap from a 1-D norm (a BLAS dot), so its steps
            # can differ in the last bits for d >= 2; in d = 1 they are the same to the bit
            assert loop.moved_index == got.moved_index
            assert loop.new_partition == got.new_partition
            assert loop.radius == pytest.approx(got.radius, rel=1e-12)
            if config.d == 1:
                assert loop.radius == got.radius
                assert loop.witness.points.tobytes() == got.witness.points.tobytes()
            sizes = np.bincount(assign_nearest(config, centers).labels - 1, minlength=centers.k)
            shapes.append(((sizes == 1).any() and (sizes == 0).any(), centers.k > config.n, config.d == 1))
        # singletons next to empty centers, k > n and d = 1 are each common among the witnessed inputs
        assert found > 250
        assert (np.sum(shapes, axis=0) > 60).all()

    def test_step_is_switch_radius_plus_slack_to_the_bit(self):
        rng = np.random.default_rng(2604)
        for _ in range(150):
            config, centers = random_instance(rng, n_max=12, d_max=3, k_max=4)
            report = analyze_stability(config, centers)
            if report.witness is None:
                continue
            pos = report.witness.moved_index - 1
            r = report.per_point_switch_radius[pos]
            if not report.witness.radius == pytest.approx(r, rel=1e-6):
                continue  # the witness is not this index's cheapest candidate
            step = r + max(1e-9 * r, 1e-12)
            own = centers.centers[report.labels[pos] - 1]
            moves = [
                config.points[pos] + step * ((c - own) / np.linalg.norm(c - own))
                for j, c in enumerate(centers.centers)
                if j != report.labels[pos] - 1
            ]
            assert any(np.array_equal(report.witness.witness.points[pos], m) for m in moves)


def radius_search(config, centers):
    """The analyze path's search on a fresh assignment and bisector matrix from the kernel itself, so
    spies on ``stability._nearest`` see the search's calls only."""
    labels, margins, bisectors = geometry._nearest(config.points, centers.centers, geometry._BISECTORS)
    return stability._radius_search(config, centers, Assignment(labels, margins, centers.k), bisectors)


def integer_grid_instance(rng):
    """Centers on an integer grid of spacing 2 in d = 1..3 and integer points: many steps tie exactly."""
    d = int(rng.integers(1, 4))
    side = int(rng.integers(2, 4)) if d < 3 else 2
    axes = np.meshgrid(*[2.0 * np.arange(side)] * d, indexing="ij")
    centers = np.stack([a.ravel() for a in axes], axis=1)
    points = rng.integers(-1, 2 * side, (int(rng.integers(2, 10)), d))
    return PointConfig(points), CenterSet(centers)


def assert_same_witness(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.moved_index == want.moved_index
    assert got.radius == want.radius
    assert got.witness.points.tobytes() == want.witness.points.tobytes()
    assert got.new_partition == want.new_partition


class TestBatchedSearch:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["singletons", "grid", "wide"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_reassignment_bit_for_bit(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "singletons":
            config, centers = singleton_heavy_instance(rng)
        elif kind == "grid":
            config, centers = integer_grid_instance(rng)
        else:
            config, centers = random_instance(rng, n_max=10, d_max=12, k_max=8)
        assert_same_witness(radius_search(config, centers), full_reassignment_search(config, centers))

    def test_tied_steps_at_the_batch_threshold_share_one_batch(self, monkeypatch):
        # 9 grid centers, so the first batch is meant to hold 9 candidates; the 9th smallest step ties
        # with 4 more, and the witness is one of those beyond the 9th place
        grid = CenterSet([[2.0 * a, 2.0 * b] for a in range(3) for b in range(3)])
        config = PointConfig([[3.0, 5.0], [3.0, -1.0], [-1.0, 1.0]])
        batches = []
        nearest = stability._nearest
        monkeypatch.setattr(stability, "_nearest", lambda p, c, want: batches.append(p.copy()) or nearest(p, c, want))
        got = radius_search(config, grid)
        monkeypatch.undo()
        assert_same_witness(got, full_reassignment_search(config, grid))
        assert [len(b) for b in batches] == [13]
        (place,) = np.flatnonzero((batches[0] == got.witness.points[got.moved_index - 1]).all(axis=1))
        assert place >= grid.k
        assert got.radius == pytest.approx(2.0)

    def test_row_blocks_of_a_batch_stop_at_the_witness(self, monkeypatch):
        # the same 13-candidate batch in row blocks of 2 candidates: the witness, 11th in order, ends
        # the search in the 6th block, and ties straddle block edges as well
        grid = CenterSet([[2.0 * a, 2.0 * b] for a in range(3) for b in range(3)])
        config = PointConfig([[3.0, 5.0], [3.0, -1.0], [-1.0, 1.0]])
        want = full_reassignment_search(config, grid)
        blocks = []
        nearest = stability._nearest
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 2 * grid.k * grid.d)
        monkeypatch.setattr(stability, "_nearest", lambda p, c, want: blocks.append(len(p)) or nearest(p, c, want))
        assert_same_witness(radius_search(config, grid), want)
        assert blocks == [2] * 6

    def test_all_rejected_returns_none(self, monkeypatch):
        # two singletons around an empty middle center: every move either lands in that empty cell
        # or passes through it, so no candidate changes the partition
        config, centers = PointConfig([[0.1], [1.9]]), CenterSet([[0.0], [1.0], [2.0]])
        batches = []
        nearest = stability._nearest

        def counted_nearest(points, targets, want):
            assert want == geometry._LABELS  # the search needs labels only
            batches.append(len(points))
            assert len(batches) <= 10, "the search does not end"
            return nearest(points, targets, want)

        monkeypatch.setattr(stability, "_nearest", counted_nearest)
        assert radius_search(config, centers) is None
        assert full_reassignment_search(config, centers) is None
        assert sum(batches) == 4 and len(batches) == 2  # 3 candidates, then the last one

    def test_all_rejected_cli_ends(self, tmp_path):
        points, centers = tmp_path / "p.csv", tmp_path / "c.csv"
        points.write_text(points_to_csv(PointConfig([[0.1], [1.9]])))
        centers.write_text(centers_to_csv(CenterSet([[0.0], [1.0], [2.0]])))
        src = str(Path(stability.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "margin_guard", "analyze", "--points", str(points), "--centers", str(centers)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert '"empirical_partition_radius": null' in done.stdout

    @given(
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.floats(-3.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_norms_match_the_1d_norm_bit_for_bit(self, d, seed, exponent):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(64, d)) * 10.0 ** rng.uniform(-3.0, exponent, (64, 1))
        norms = stability._row_norms(vectors)
        assert norms.shape == (64, 1)
        assert norms[:, 0].tobytes() == np.array([np.linalg.norm(v) for v in vectors]).tobytes()

    def test_memory_stays_near_the_step_matrix(self):
        # 64 centers with 10^5 points around them; building and sorting all n (k - 1) candidates took
        # about 6.9 step matrices, and a whole slack matrix beside the steps about 2; what is left is
        # the one partitioned copy of the steps
        config, centers = k64_instance()
        n, k = config.n, centers.k
        assignment, bisectors = geometry._assign(config, centers, geometry._BISECTORS)
        peak, witness = peak_traced_mib(lambda: stability._radius_search(config, centers, assignment, bisectors))
        assert witness is not None
        assert peak * 2**20 <= 1.25 * n * k * 8


class TestSearchWork:
    def test_one_assignment_for_the_report_and_one_for_the_witness(self, monkeypatch):
        config, centers = checkerboard_with_singletons()
        calls = {"assign": 0, "bisectors": 0}
        batches = []
        assign, nearest = stability.assign_nearest, geometry._nearest

        def counted_assign(*args):
            calls["assign"] += 1
            return assign(*args)

        def counted_entry(points, targets, want):  # the kernel behind geometry._assign
            calls["bisectors"] += want == geometry._BISECTORS
            return nearest(points, targets, want)

        def counted_nearest(points, targets, want):
            assert want == geometry._LABELS
            batches.append(points.shape[0])
            return nearest(points, targets, want)

        monkeypatch.setattr(stability, "assign_nearest", counted_assign)
        monkeypatch.setattr(geometry, "_nearest", counted_entry)
        monkeypatch.setattr(stability, "_nearest", counted_nearest)
        report = analyze_stability(config, centers)
        # one bisector pass gives the report's labels, margins and radii; the witness alone is assigned in full
        assert calls == {"assign": 1, "bisectors": 1}
        # one kernel call per row block of a batch, and here every batch fits one block; batches start
        # at k candidates and grow 4x, so even deciding all n (k - 1) candidates takes at most this many
        n, k = config.n, centers.k
        assert 1 <= len(batches) <= math.ceil(math.log(n * (k - 1) / k, 4)) + 1
        assert sum(batches) > 1  # cheaper candidates were rejected before the witness
        monkeypatch.undo()
        want = full_reassignment_search(config, centers)
        assert report.witness.moved_index == want.moved_index
        assert report.witness.witness.points.tobytes() == want.witness.points.tobytes()

    def test_report_memory_stays_near_two_step_matrices(self):
        # the bisector matrix and the search's partitioned copy of it; three (n, k) arrays at once
        # made about 3.07 step matrices
        config, centers = k64_instance()
        peak, report = peak_traced_mib(lambda: analyze_stability(config, centers))
        assert report.witness is not None
        assert peak * 2**20 <= 2.25 * config.n * centers.k * 8

    def test_monte_carlo_memory_at_k64_is_block_sized(self):
        # a 2-trial run labels each trial in row blocks; one unblocked (n, k) distance table per trial
        # took about 102 MiB
        config, centers = k64_instance()
        model = PerturbationModel.gaussian(0.3, dim=2)
        peak, report = peak_traced_mib(lambda: monte_carlo(config, centers, model, trials=2, seed=0))
        assert report.trial_switch_counts.sum() > 0
        assert peak < 16.0

    def test_disagreeing_full_check_raises(self, monkeypatch, anchored_config, two_centers):
        # the full re-assignment of the witness reports the labels before the move
        assign = stability.assign_nearest
        monkeypatch.setattr(stability, "assign_nearest", lambda config, centers: assign(anchored_config, centers))
        with pytest.raises(InvariantViolation, match="full re-assignment keeps the partition"):
            analyze_stability(anchored_config, two_centers)

    def test_disagreeing_full_check_exits_3(self, monkeypatch, capsys, tmp_path, anchored_config, two_centers):
        points, centers = tmp_path / "p.csv", tmp_path / "c.csv"
        points.write_text(points_to_csv(anchored_config))
        centers.write_text(centers_to_csv(two_centers))
        assign = stability.assign_nearest
        monkeypatch.setattr(stability, "assign_nearest", lambda config, c: assign(anchored_config, c))
        assert main(["analyze", "--points", str(points), "--centers", str(centers)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal invariant violation: full re-assignment keeps the partition" in captured.err


class TestStabilityReport:
    def test_report_fields(self, anchored_config, two_centers):
        report = analyze_stability(anchored_config, two_centers)
        assert report.min_margin == pytest.approx(0.2)
        assert report.margin_lower_bound_radius == report.min_margin / 2.0
        assert report.assignment_radius == pytest.approx(0.1)
        assert (report.per_point_switch_radius >= report.margins / 2.0 - 1e-9).all()
        assert report.assignment_radius >= report.margin_lower_bound_radius - 1e-9
        assert report.empirical_partition_radius_upper == pytest.approx(0.1, rel=1e-6)

    def test_radius_sandwich_on_witnessed_reports(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            config, centers = random_instance(rng, n_max=10, d_max=2, k_max=3)
            report = analyze_stability(config, centers)
            if report.witness is None:
                continue
            assert report.margin_lower_bound_radius <= report.witness.radius + 1e-9

    def test_radius_sandwich_on_all_fixtures(self):
        from margin_guard import (
            many_point_instability,
            near_boundary_instability,
            single_point_instability,
        )

        fixtures = [
            single_point_instability(1.0),
            many_point_instability(1.0, 3),
            near_boundary_instability(0.1),
        ]
        for fx in fixtures:
            report = analyze_stability(fx.config, fx.centers)
            assert report.witness is not None
            assert report.margin_lower_bound_radius <= report.witness.radius

    def test_json_dict_shape(self, anchored_config, two_centers):
        payload = analyze_stability(anchored_config, two_centers).to_json_dict()
        assert payload["n"] == 3
        assert payload["partition"] == [[1], [2, 3]]
        assert payload["empirical_partition_radius"]["moved_index"] == 3
        assert payload["empirical_partition_radius"]["kind"] == "upper bound (single-move adversary)"

    def test_k_counts_given_centers_not_used_labels(self):
        # the last center is empty: the highest used label is 2, but k is 3
        centers = CenterSet([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
        config = PointConfig([[0.1, 0.0], [0.2, 0.1], [0.9, 0.0], [1.1, -0.1]])
        report = analyze_stability(config, centers)
        assert int(report.labels.max()) == 2
        assert report.to_json_dict()["k"] == 3


class TestSoundnessSampled:
    # small randomized versions; the full-size runs live in the acceptance suite

    def test_certificate_never_contradicted(self):
        rng = np.random.default_rng(55)
        for trial in range(300):
            config, centers = random_instance(rng, n_max=15, d_max=3, k_max=4)
            a = assign_nearest(config, centers)
            if a.min_margin <= 0.0:
                continue
            eps = float(rng.uniform(0.0, 0.999)) * a.min_margin / 2.0
            noise = rng.standard_normal(config.points.shape)
            norms = np.linalg.norm(noise, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            radii = eps * rng.random((config.n, 1)) ** (1.0 / config.d)
            perturbed = PointConfig(config.points + noise / norms * radii)
            b = assign_nearest(perturbed, centers)
            assert np.array_equal(a.labels, b.labels)
            assert induced_partition(a) == induced_partition(b)

    def test_switched_indices_obey_margin_bound(self):
        rng = np.random.default_rng(56)
        for trial in range(300):
            config, centers = random_instance(rng, n_max=15, d_max=3, k_max=4)
            a = assign_nearest(config, centers)
            eps = float(rng.uniform(0.0, 2.0))
            noise = rng.standard_normal(config.points.shape)
            norms = np.linalg.norm(noise, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            radii = eps * rng.random((config.n, 1)) ** (1.0 / config.d)
            perturbed = PointConfig(config.points + noise / norms * radii)
            b = assign_nearest(perturbed, centers)
            for i in np.flatnonzero(a.labels != b.labels):
                assert a.margins[i] <= 2.0 * eps
