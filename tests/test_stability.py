import numpy as np
import pytest

from margin_guard import (
    CenterSet,
    InvariantViolation,
    Partition,
    PartitionRadiusWitness,
    PointConfig,
    analyze_stability,
    assign_nearest,
    empirical_partition_radius_search,
    exact_switch_radius,
    induced_partition,
    no_switch_certificate,
    per_point_switch_radii,
    perturbation_size,
    switch_candidates,
)
from margin_guard import stability
from margin_guard.cli import main
from margin_guard.formats import centers_to_csv, points_to_csv
from margin_guard.stability import _bisector_distances
from conftest import random_instance


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

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        config, centers = random_instance(rng, n_max=15, d_max=3, k_max=4)
        a = assign_nearest(config, centers)
        radii = per_point_switch_radii(config, centers, a)
        for i in range(config.n):
            expect = exact_switch_radius(config.points[i], centers, int(a.labels[i]))
            assert radii[i] == pytest.approx(expect, rel=1e-12)


class TestPartitionRadiusSearch:
    def test_anchored_config_witness(self, anchored_config, two_centers):
        res = empirical_partition_radius_search(anchored_config, two_centers)
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
        res = empirical_partition_radius_search(config, centers)
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
        res = empirical_partition_radius_search(config, centers)
        assert res is not None
        assert res.radius == pytest.approx(2.0, rel=1e-6)
        assert res.new_partition == Partition([[1, 2]], n=2)

    def test_witness_changes_partition_on_random_configs(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            config, centers = random_instance(rng, n_max=12, d_max=3, k_max=4)
            res = empirical_partition_radius_search(config, centers)
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
    bisectors = _bisector_distances(config.points, centers.centers, assignment.labels)
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
            got = empirical_partition_radius_search(config, grid)
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
            got = empirical_partition_radius_search(config, centers)
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


class TestSearchWork:
    def test_one_assignment_for_the_report_and_one_for_the_witness(self, monkeypatch):
        config, centers = checkerboard_with_singletons()
        calls = {"assign": 0, "bisectors": 0}
        rows = []
        assign, bisectors, distances = stability.assign_nearest, stability._bisector_distances, stability._distances

        def counted_assign(*args):
            calls["assign"] += 1
            return assign(*args)

        def counted_bisectors(*args):
            calls["bisectors"] += 1
            return bisectors(*args)

        def counted_distances(points, targets):
            rows.append(points.shape[0])
            return distances(points, targets)

        monkeypatch.setattr(stability, "assign_nearest", counted_assign)
        monkeypatch.setattr(stability, "_bisector_distances", counted_bisectors)
        monkeypatch.setattr(stability, "_distances", counted_distances)
        report = analyze_stability(config, centers)
        assert calls == {"assign": 2, "bisectors": 1}
        # the bisector formula takes the k x k center gaps once; every candidate reads one row
        assert sorted(rows) == [1] * (len(rows) - 1) + [centers.k]
        assert len(rows) - 1 > 1  # cheaper candidates were rejected before the witness
        monkeypatch.undo()
        want = full_reassignment_search(config, centers)
        assert report.witness.moved_index == want.moved_index
        assert report.witness.witness.points.tobytes() == want.witness.points.tobytes()

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
        report = analyze_stability(config, centers, search=False)
        assert int(report.labels.max()) == 2
        assert report.to_json_dict()["k"] == 3

    def test_search_can_be_disabled(self, anchored_config, two_centers):
        report = analyze_stability(anchored_config, two_centers, search=False)
        assert report.witness is None
        assert report.to_json_dict()["empirical_partition_radius"] is None


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
