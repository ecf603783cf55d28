import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margin_guard import (
    CenterSet,
    PerturbationModel,
    PointConfig,
    Trajectory,
    analyze_stability,
    assign_nearest,
    geometry,
    margin,
    monte_carlo,
    nearest_label,
    perturbation_size,
    single_point_instability,
)
from conftest import bisector_distances, peak_traced_mib


class TestConstruction:
    def test_point_config_shape(self):
        cfg = PointConfig([[0.0, 1.0], [2.0, 3.0]])
        assert cfg.n == 2 and cfg.d == 2

    def test_point_config_rejects_single_point(self):
        with pytest.raises(ValueError):
            PointConfig([[0.0, 1.0]])

    def test_point_config_rejects_ragged(self):
        with pytest.raises(ValueError):
            PointConfig([[0.0, 1.0], [2.0]])

    def test_point_config_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="row 2"):
            PointConfig([[0.0, 1.0], [np.nan, 0.0]])

    def test_coordinates_whose_squares_could_overflow_rejected(self):
        with pytest.raises(ValueError, match="points row 3 has a coordinate of magnitude >= 1e150"):
            PointConfig([[-1.5, 0.0], [0.5, 0.0], [1e200, 0.0]])
        with pytest.raises(ValueError, match="points row 2"):
            PointConfig([[0.0, 0.0], [0.0, -1e150]])
        with pytest.raises(ValueError, match="centers row 1"):
            CenterSet([[1e150, 0.0], [1.0, 0.0]])

    def test_largest_accepted_coordinates_keep_distances_finite(self):
        big = np.nextafter(1e150, 0.0)
        result = assign_nearest(PointConfig([[big, -big], [0.0, 0.0]]), CenterSet([[-big, big], [1.0, 0.0]]))
        assert list(result.labels) == [2, 2]
        assert np.isfinite(result.margins).all()

    def test_point_config_is_immutable(self):
        cfg = PointConfig([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ValueError):
            cfg.points[0, 0] = 9.0

    def test_center_set_rejects_coincident(self):
        with pytest.raises(ValueError, match="coincide"):
            CenterSet([[1.0, 0.0], [1.0, 0.0]])

    def test_center_set_names_the_pair_a_pairwise_scan_finds(self):
        def scan(arr):  # the pairwise loop the sort-based check replaced
            for a in range(len(arr)):
                for b in range(a + 1, len(arr)):
                    if np.array_equal(arr[a], arr[b]):
                        return f"centers {a + 1} and {b + 1} coincide"
            return None

        rng = np.random.default_rng(7)
        for _ in range(500):
            k, d = int(rng.integers(2, 7)), int(rng.integers(1, 3))
            arr = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(k, d))
            expected = scan(arr)
            if expected is None:
                assert CenterSet(arr).k == k
            else:
                with pytest.raises(ValueError, match=f"^{expected}$"):
                    CenterSet(arr)

    def test_center_set_duplicate_check_is_not_quadratic(self):
        grid = np.stack(np.meshgrid(np.arange(40.0), np.arange(50.0)), axis=-1).reshape(-1, 2)
        start = time.perf_counter()
        assert CenterSet(grid).k == 2000
        assert time.perf_counter() - start < 1.0

    def test_center_set_rejects_single_center(self):
        with pytest.raises(ValueError):
            CenterSet([[1.0, 0.0]])

    def test_with_point_replaces_one_index(self):
        cfg = PointConfig([[0.0, 0.0], [1.0, 1.0]])
        moved = cfg.with_point(2, [5.0, 5.0])
        assert np.array_equal(moved.points[1], [5.0, 5.0])
        assert np.array_equal(moved.points[0], cfg.points[0])
        with pytest.raises(ValueError):
            cfg.with_point(3, [0.0, 0.0])

    @pytest.mark.parametrize("coords", [5.0, [7.0], [[5.0, 5.0]]])
    def test_with_point_refuses_anything_but_a_d_vector(self, coords):
        # numpy would broadcast each of these into the row
        with pytest.raises(ValueError, match="point must be a 2-vector"):
            PointConfig([[0.0, 0.0], [1.0, 1.0]]).with_point(1, coords)


class TestAssignNearest:
    def test_nearest_center_wins(self, two_centers):
        cfg = PointConfig([[-2.0, 0.0], [2.0, 0.0]])
        a = assign_nearest(cfg, two_centers)
        assert list(a.labels) == [1, 2]

    def test_tie_goes_to_lowest_index(self, two_centers):
        cfg = PointConfig([[0.0, 0.0], [0.0, 1.0]])
        a = assign_nearest(cfg, two_centers)
        assert list(a.labels) == [1, 1]
        assert a.margins[0] == 0.0

    def test_margin_values(self, anchored_assignment):
        assert list(anchored_assignment.labels) == [1, 2, 2]
        assert anchored_assignment.margins == pytest.approx([2.0, 2.0, 0.2])
        assert anchored_assignment.min_margin == pytest.approx(0.2)

    def test_deterministic(self, anchored_config, two_centers):
        a = assign_nearest(anchored_config, two_centers)
        b = assign_nearest(anchored_config, two_centers)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.margins, b.margins)

    def test_dimension_mismatch(self, two_centers):
        with pytest.raises(ValueError, match="dimension mismatch"):
            assign_nearest(PointConfig([[0.0], [1.0]]), two_centers)

    def test_three_way_tie_lowest_index(self):
        # point equidistant from three centers
        centers = CenterSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        a = assign_nearest(PointConfig([[0.0, 0.0], [5.0, 0.0]]), centers)
        assert a.labels[0] == 1

    def test_fragile_indices(self, two_centers):
        cfg = PointConfig([[0.0, 1.0], [3.0, 0.0]])
        a = assign_nearest(cfg, two_centers)
        assert a.fragile_indices() == (1,)


class TestMarginFunction:
    def test_on_bisector(self, two_centers):
        assert margin([0.0, 0.0], two_centers, 1) == 0.0

    def test_far_point(self, two_centers):
        assert margin([-2.0, 0.0], two_centers, 1) == pytest.approx(2.0)

    def test_near_boundary(self, two_centers):
        assert margin([0.1, 0.0], two_centers, 2) == pytest.approx(0.2)

    def test_wrong_label_signals_misuse(self, two_centers):
        with pytest.raises(ValueError, match="not the nearest-center label"):
            margin([-2.0, 0.0], two_centers, 2)

    def test_nearest_label(self, two_centers):
        assert nearest_label([0.9, 0.0], two_centers) == 2
        assert nearest_label([0.0, 7.0], two_centers) == 1


class TestPerturbationSize:
    def test_identical_configs(self, anchored_config):
        assert perturbation_size(anchored_config, anchored_config) == 0.0

    def test_single_displacement(self, anchored_config):
        moved = anchored_config.with_point(3, [0.3, 0.0])
        assert perturbation_size(anchored_config, moved) == pytest.approx(0.2)

    def test_max_over_indices(self):
        a = PointConfig([[0.0, 0.0], [1.0, 0.0]])
        b = PointConfig([[0.1, 0.0], [1.0, 0.3]])
        assert perturbation_size(a, b) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        a = PointConfig([[0.0, 0.0], [1.0, 0.0]])
        b = PointConfig([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="shape mismatch"):
            perturbation_size(a, b)


@st.composite
def config_pair(draw, n_max=12, d_max=4):
    n = draw(st.integers(2, n_max))
    d = draw(st.integers(1, d_max))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return (
        PointConfig(rng.uniform(-5, 5, (n, d))),
        PointConfig(rng.uniform(-5, 5, (n, d))),
        PointConfig(rng.uniform(-5, 5, (n, d))),
    )


class TestMetricProperties:
    @given(config_pair())
    @settings(max_examples=100)
    def test_perturbation_size_is_a_metric(self, triple):
        a, b, c = triple
        dab = perturbation_size(a, b)
        dba = perturbation_size(b, a)
        dac = perturbation_size(a, c)
        dbc = perturbation_size(b, c)
        assert dab >= 0.0
        assert dab == dba
        assert perturbation_size(a, a) == 0.0
        # triangle inequality, with headroom for float accumulation
        assert dac <= dab + dbc + 1e-9 * (1.0 + dab + dbc)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_identity_of_indiscernibles(self, seed):
        rng = np.random.default_rng(seed)
        a = PointConfig(rng.uniform(-5, 5, (4, 2)))
        b = PointConfig(np.array(a.points))
        assert perturbation_size(a, b) == 0.0
        nudged = a.with_point(2, a.points[1] + 1e-9)
        assert perturbation_size(a, nudged) > 0.0


class TestTranslationInvariance:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_labels_and_margins_shift_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k = 8, 3, 3
        pts = rng.uniform(-3, 3, (n, d))
        ctr = rng.uniform(-3, 3, (k, d))
        shift = rng.uniform(-10, 10, d)
        a = assign_nearest(PointConfig(pts), CenterSet(ctr))
        b = assign_nearest(PointConfig(pts + shift), CenterSet(ctr + shift))
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.margins, b.margins, atol=1e-9)


def test_margins_nonnegative_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts = rng.uniform(-4, 4, (rng.integers(2, 20), 2))
        ctr = rng.uniform(-4, 4, (rng.integers(2, 5), 2))
        a = assign_nearest(PointConfig(pts), CenterSet(ctr))
        assert (a.margins >= 0.0).all()
        assert math.isclose(a.min_margin, a.margins.min())


def broadcast_squared_distances(points, centers):
    """The (n, k, d) broadcast form the kernel must match to the bit."""
    diff = points[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2)


def broadcast_nearest(points, centers):
    """Labels and margins by the margin formula on the unblocked broadcast distances."""
    dist = np.sqrt(broadcast_squared_distances(points, centers))
    nearest = dist.argmin(axis=1)
    rows = np.arange(len(points))
    best = dist[rows, nearest]
    dist[rows, nearest] = np.inf
    return nearest + 1, dist.min(axis=1) - best


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestDistanceKernel:
    @given(
        d=st.integers(1, 12),
        k=st.integers(2, 64),
        row_case=st.sampled_from([1, "block - 1", "block", "block + 1"]),
        exponents=st.tuples(st.integers(-300, 149), st.integers(-300, 149)).map(sorted),
        largest=st.booleans(),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_broadcast_form_bit_for_bit(self, d, k, row_case, exponents, largest, ties, seed):
        block = max(1, geometry._BLOCK_ENTRIES // (k * d))
        n = {1: 1, "block - 1": max(1, block - 1), "block": block, "block + 1": block + 1}[row_case]
        rng = np.random.default_rng(seed)

        def coordinates(shape):  # each entry of its own magnitude in 10^[lo, hi + 1), all below 1e150
            lo, hi = exponents
            return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(lo, min(hi + 1, 149.99), shape)

        points, centers = coordinates((n, d)), coordinates((k, d))
        if largest:
            points.flat[rng.integers(points.size)] = np.nextafter(1e150, 0.0)
            centers.flat[rng.integers(centers.size)] = -np.nextafter(1e150, 0.0)
        if ties:  # points on centers and centers repeated make exact ties
            points[rng.integers(n, size=n // 2)] = centers[rng.integers(k, size=n // 2)]
            centers[-1] = centers[0]
        expected = broadcast_squared_distances(points, centers)
        assert np.isfinite(expected).all()
        assert same_bits(geometry._squared_distances(points, centers), expected)
        labels, margins = geometry._nearest(points, centers)
        expected_labels, expected_margins = broadcast_nearest(points, centers)
        assert np.array_equal(labels, expected_labels)
        assert same_bits(margins, expected_margins)
        (labels_only,) = geometry._nearest(points, centers, geometry._LABELS)
        assert np.array_equal(labels_only, np.sqrt(expected).argmin(axis=1) + 1)
        full = geometry._nearest(points, centers, geometry._BISECTORS)
        assert np.array_equal(full[0], expected_labels) and same_bits(full[1], expected_margins)
        assert same_bits(full[2], bisector_distances(points, centers, expected_labels))

    @pytest.mark.parametrize("centers", [[[-1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]], [[0.5, 3.0], [0.5, 3.0]]])
    def test_two_centers_label_as_argmin_on_the_bisector(self, centers):
        # at k = 2 the label is one strict column comparison; a tie must still go to center 1, as with argmin
        rng = np.random.default_rng(4)
        ys = rng.normal(size=40_000) * 10.0 ** rng.integers(-20, 20, 40_000)
        xs = np.concatenate([np.zeros(20_000), rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.integers(-320, 1, 20_000)])
        points, centers = np.column_stack([xs, ys]), np.array(centers)
        expected_labels, expected_margins = broadcast_nearest(points, centers)
        assert (expected_labels[:20_000] == 1).all()  # the points on the bisector are ties
        for want in (geometry._LABELS, geometry._MARGINS, geometry._RADII):
            labels, *rest = geometry._nearest(points, centers, want)
            assert np.array_equal(labels, expected_labels)
            if rest:
                assert same_bits(rest[0], expected_margins)

    @given(d=st.integers(1, 12), lead=st.sampled_from([(), (1,), (7,), (3, 5), (682, 3)]),
           exponent=st.integers(-300, 149), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_row_norms_match_numpy_bit_for_bit(self, d, lead, exponent, seed):
        # the noise draw bounds norms and the candidate filter compares them: both use this formula
        v = np.random.default_rng(seed).normal(size=(*lead, d)) * 10.0**exponent
        assert same_bits(np.atleast_1d(geometry._row_norms(v)), np.atleast_1d(np.linalg.norm(v, axis=-1)))

    @pytest.mark.parametrize("d", [2, 16])
    def test_assign_nearest_memory_is_block_sized(self, d):
        # the (n, k, d) broadcast difference alone would take 98 MiB at d = 2 and 781 MiB at d = 16
        rng = np.random.default_rng(d)
        n, k = 10**5, 64
        config = PointConfig(rng.uniform(-10, 10, (n, d)))
        centers = CenterSet(rng.uniform(-10, 10, (k, d)))
        peak, result = peak_traced_mib(lambda: assign_nearest(config, centers))
        outputs = (result.labels.nbytes + result.margins.nbytes) / 2**20
        block = geometry._BLOCK_ENTRIES * 8 / 2**20
        # the kernel's labels and margins, which Assignment holds without a copy, and a few block-sized
        # temporaries (about 1.8 blocks at d = 2, 2.2 at d = 16); a copy of the outputs would add 3 blocks
        assert peak <= outputs + 3 * block

    def test_assign_nearest_is_the_kernel(self, anchored_config, two_centers, monkeypatch):
        calls = []
        kernel = geometry._squared_distances
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 2 * two_centers.k * anchored_config.d)
        monkeypatch.setattr(geometry, "_squared_distances", lambda p, c: calls.append(len(p)) or kernel(p, c))
        result = assign_nearest(anchored_config, two_centers)
        assert calls == [2, 1]  # row blocks of 2 points
        assert list(result.labels) == [1, 2, 2] and result.margins.tolist() == pytest.approx([2.0, 2.0, 0.2])


def exact_labels(points, centers) -> list[int]:
    """Test oracle: 1-based nearest-center labels in exact rational arithmetic over the float inputs, ties to the
    lowest index."""
    exact_centers = [[Fraction(v) for v in c] for c in np.asarray(centers, dtype=float).tolist()]
    labels = []
    for x in np.asarray(points, dtype=float).tolist():
        sq = [sum((Fraction(a) - b) ** 2 for a, b in zip(x, c)) for c in exact_centers]
        labels.append(sq.index(min(sq)) + 1)
    return labels


@st.composite
def integer_inputs(draw):
    """Points and centers with integer coordinates in [-2^20, 2^20], d <= 3 and k <= 12. Squared distances then
    stay below 3 * 2^42, exact in float64, and their square roots keep distinct integers apart, so the kernel's
    labels must be the exact ones. Ties: repeated centers, points on centers, and points halfway between two
    centers of even coordinates."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(2, 12))
    bound = draw(st.sampled_from([2, 2**4, 2**10, 2**20]))
    even = draw(st.booleans())
    coordinate = st.integers(-bound // 2, bound // 2).map(lambda v: 2 * v) if even else st.integers(-bound, bound)
    row = st.lists(coordinate, min_size=d, max_size=d)
    centers = draw(st.lists(row, min_size=k, max_size=k))
    if draw(st.booleans()):
        centers[-1] = centers[0]
    points = draw(st.lists(row, min_size=1, max_size=30))
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    for i, j in draw(st.lists(pairs, max_size=10)):
        points.append([(a + b) // 2 for a, b in zip(centers[i], centers[j])])  # exact midpoints when even
    points += [centers[i] for i in draw(st.lists(st.integers(0, k - 1), max_size=3))]
    return np.array(points, dtype=float), np.array(centers, dtype=float)


# ROADMAP item 1's construction at s = 1e4 with default_rng(5): a point near the bisector of the first two centers
_NEAR_BISECTOR = [-4861.501580429685, 5479.175958831333]
_NEAR_BISECTOR_CENTERS = [[282.77176638597666, 13887.914074068098], [-8073.454068248964, -3840.3619145497864],
                          [-19343.45813755787, 13846.020936877398]]


class TestExactOracle:
    @given(inputs=integer_inputs())
    @settings(max_examples=300, deadline=None)
    def test_labels_on_integer_coordinates_are_exact(self, inputs):
        points, centers = inputs
        want = exact_labels(points, centers)
        for mode in (geometry._LABELS, geometry._MARGINS, geometry._RADII):
            assert geometry._nearest(points, centers, mode)[0].tolist() == want

    def test_oracle_ties_go_to_the_lowest_index(self):
        centers = [[0.0, 2.0], [2.0, 0.0], [0.0, 2.0], [-2.0, 0.0]]
        assert exact_labels([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0], [-1.0, 1.0], [0.5, 0.0]], centers) == [1, 1, 1, 1, 2]

    def test_the_near_bisector_case_is_exactly_center_2s(self):
        # the two smallest squared distances differ by 4.08e-9 over rationals, below an ulp of either (1.5e-8)
        point, (a, b, _) = _NEAR_BISECTOR, _NEAR_BISECTOR_CENTERS
        sq = [sum((Fraction(x) - Fraction(c)) ** 2 for x, c in zip(point, center)) for center in (a, b)]
        assert 4.08e-9 < sq[0] - sq[1] < 4.09e-9 < math.ulp(float(sq[1]))
        assert exact_labels([point], _NEAR_BISECTOR_CENTERS) == [2]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the kernel labels this point 1 with a margin of 1.82e-12, above "
                              "_FRAGILE_MARGIN = 1e-12, so the wrong label goes unflagged")
    def test_a_wrong_label_near_a_bisector_is_flagged_as_fragile(self):
        config = PointConfig([_NEAR_BISECTOR, _NEAR_BISECTOR_CENTERS[2]])
        result = assign_nearest(config, CenterSet(_NEAR_BISECTOR_CENTERS))
        exact = exact_labels(config.points, _NEAR_BISECTOR_CENTERS)
        wrong = {i + 1 for i, (got, want) in enumerate(zip(result.labels.tolist(), exact)) if got != want}
        assert wrong <= set(result.fragile_indices())


_POINTS, _CENTERS = [[-2.0, 0.0], [2.0, 0.0], [0.1, 0.0]], [[-1.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("build", [
    lambda: PointConfig(_POINTS),
    lambda: CenterSet(_CENTERS),
    lambda: assign_nearest(PointConfig(_POINTS), CenterSet(_CENTERS)),
    lambda: Trajectory([_POINTS, _POINTS], CenterSet(_CENTERS)),
    lambda: analyze_stability(PointConfig(_POINTS), CenterSet(_CENTERS)),
    lambda: analyze_stability(PointConfig(_POINTS), CenterSet(_CENTERS)).witness,
    lambda: monte_carlo(PointConfig(_POINTS), CenterSet(_CENTERS), PerturbationModel.bounded_disk(0.3), 4, seed=0),
    lambda: single_point_instability(1.0),
], ids=["PointConfig", "CenterSet", "Assignment", "Trajectory", "StabilityReport", "PartitionRadiusWitness",
        "MonteCarloReport", "CounterexampleFixture"])
def test_value_types_compare_and_hash_by_identity(build):
    # generated from ndarray fields, == raised numpy's ambiguous-truth error and hash() raised TypeError
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b, a}) == 2
