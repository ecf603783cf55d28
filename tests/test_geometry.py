import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margin_guard import (
    CenterSet,
    PointConfig,
    assign_nearest,
    geometry,
    margin,
    nearest_label,
    perturbation_size,
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
        assert a.fragile_indices(threshold=10.0) == (1, 2)


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
