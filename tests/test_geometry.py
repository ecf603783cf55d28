import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margin_guard import (
    CenterSet,
    PointConfig,
    assign_nearest,
    margin,
    nearest_label,
    perturbation_size,
)


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
