import math

import numpy as np
import pytest

from margin_guard import (
    Partition,
    assign_nearest,
    induced_partition,
    make_preset,
    many_point_instability,
    near_boundary_instability,
    partition_distance,
    perturbation_size,
    single_point_instability,
    switched_index_distance_bound,
)
from margin_guard.counterexamples import FIXTURE_NAMES, make_fixture


def reevaluate(fixture):
    before = induced_partition(assign_nearest(fixture.config, fixture.centers))
    after = induced_partition(assign_nearest(fixture.perturbed, fixture.centers))
    return before, after


@pytest.mark.parametrize("epsilon", [1.0, 0.01, 4.0])
def test_single_point_construction(epsilon):
    fx = single_point_instability(epsilon)
    assert fx.perturbation_size == pytest.approx(epsilon / 2.0, rel=1e-15)
    assert fx.perturbation_size < epsilon
    before, after = reevaluate(fx)
    assert before == fx.expected_before == Partition([[1], [2, 3]], n=3)
    assert after == fx.expected_after == Partition([[1, 3], [2]], n=3)


@pytest.mark.parametrize("epsilon,m", [(1.0, 3), (0.4, 10), (2.0, 1), (1.0, 1000)])
def test_many_point_construction(epsilon, m):
    fx = many_point_instability(epsilon, m)
    assert fx.config.n == m + 2
    assert fx.perturbation_size == pytest.approx(epsilon / 2.0, rel=1e-15)
    assert fx.perturbation_size < epsilon
    before, after = reevaluate(fx)
    assert before == fx.expected_before
    assert after == fx.expected_after
    assert fx.expected_before == Partition([[1], list(range(2, m + 3))], n=m + 2)
    assert fx.expected_after == Partition([[1] + list(range(3, m + 3)), [2]], n=m + 2)


def test_many_point_switch_count_and_distance_bound():
    fx = many_point_instability(0.4, 10)
    a = assign_nearest(fx.config, fx.centers)
    b = assign_nearest(fx.perturbed, fx.centers)
    switched = int((a.labels != b.labels).sum())
    assert switched == 10
    actual = partition_distance(induced_partition(a), induced_partition(b))
    assert switched_index_distance_bound(switched, fx.config.n) == 1.0
    assert actual <= 1.0


def test_many_point_with_one_switcher_mirrors_single_point():
    lifted = many_point_instability(1.0, 1)
    flat = single_point_instability(1.0)
    assert lifted.perturbation_size == flat.perturbation_size
    assert lifted.expected_before == flat.expected_before
    assert lifted.expected_after == flat.expected_after
    # only the switching point's height differs
    assert lifted.config.points[2][0] == flat.config.points[2][0]
    assert lifted.config.points[2][1] == 1.0


@pytest.mark.parametrize("delta", [0.1, 1e-9])
def test_near_boundary_construction(delta):
    fx = near_boundary_instability(delta)
    assert fx.perturbation_size == pytest.approx(2.0 * delta, rel=1e-15)
    a = assign_nearest(fx.config, fx.centers)
    assert a.min_margin == pytest.approx(2.0 * delta, rel=1e-12)
    before, after = reevaluate(fx)
    assert before == fx.expected_before
    assert after == fx.expected_after


def test_near_boundary_does_not_contradict_certificate():
    # move size 2*delta is not below half the minimum margin (= delta), so
    # the partition change is consistent with the certificate condition
    fx = near_boundary_instability(0.1)
    a = assign_nearest(fx.config, fx.centers)
    assert not fx.perturbation_size < a.min_margin / 2.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: single_point_instability(1.0),
        lambda: many_point_instability(1.0, 3),
        lambda: near_boundary_instability(0.1),
    ],
)
def test_switched_indices_satisfy_necessity(make):
    fx = make()
    a = assign_nearest(fx.config, fx.centers)
    b = assign_nearest(fx.perturbed, fx.centers)
    switched = a.labels != b.labels
    assert switched.any()
    assert (a.margins[switched] <= 2.0 * fx.perturbation_size + 1e-12).all()


def test_stored_size_matches_measured():
    fx = single_point_instability(0.3)
    assert fx.perturbation_size == perturbation_size(fx.config, fx.perturbed)


def test_parameter_validation():
    with pytest.raises(ValueError):
        single_point_instability(0.0)
    with pytest.raises(ValueError):
        single_point_instability(-1.0)
    with pytest.raises(ValueError):
        many_point_instability(1.0, 0)
    with pytest.raises(TypeError):  # a point count must be an integer, not rounded down
        many_point_instability(1.0, 2.5)
    with pytest.raises(ValueError):
        near_boundary_instability(0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^epsilon must be finite and positive"):
            single_point_instability(bad)
        with pytest.raises(ValueError, match="^epsilon must be finite and positive"):
            many_point_instability(bad, 2)
        with pytest.raises(ValueError, match="^delta must be finite and positive"):
            near_boundary_instability(bad)


CONSTRUCTIONS = {
    "single_point": ("epsilon", single_point_instability),
    "many_point_m3": ("epsilon", lambda e: many_point_instability(e, 3)),
    "many_point_m1000": ("epsilon", lambda e: many_point_instability(e, 1000)),
    "near_boundary": ("delta", near_boundary_instability),
}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_fixtures_hold_in_float64_or_raise(construction):
    # over sizes c * 10**-k from 9e20 down to the subnormals, a construction either builds a fixture whose
    # expected partitions the nearest-center rule confirms, or raises naming its parameter: far from the
    # centers, as near the bisector, float64 cannot tell the two distances apart
    name, make = CONSTRUCTIONS[construction]
    built = 0
    for size in (float(f"{c}e{-k}") for k in range(-20, 324) for c in range(1, 10)):
        try:
            fx = make(size)
        except ValueError as exc:
            kind = construction.split("_m")[0]
            assert str(exc) == (f"{kind} does not hold at {name} = {size!r}: "
                                "the nearest-center rule does not give the expected partitions in float64")
            continue
        built += 1
        assert reevaluate(fx) == (fx.expected_before, fx.expected_after)
        assert 0.0 < fx.perturbation_size < (size if name == "epsilon" else 2.5 * size)
    assert built >= 9 * 25  # every size from 9e15 down to 1e-9 at least


@pytest.mark.parametrize("make, name, size", [
    (lambda e: many_point_instability(e, 1000), "epsilon", 1e-10),
    (lambda e: many_point_instability(e, 3), "epsilon", 1e-15),
    (single_point_instability, "epsilon", 2e-16),
    (single_point_instability, "epsilon", 1e-300),
    (single_point_instability, "epsilon", 1e-323),
    (near_boundary_instability, "delta", 5e-17),
], ids=["many_point_m1000", "many_point_m3", "single_point", "single_point_tiny", "single_point_subnormal",
        "near_boundary"])
def test_sizes_below_float64_resolution_rejected(make, name, size):
    with pytest.raises(ValueError, match=f" does not hold at {name} = {size!r}: the nearest-center rule"):
        make(size)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_presets_resolve_through_fixture_dispatch(name):
    config, centers = make_preset(name, epsilon=0.5, m=2, delta=0.05)
    fx = make_fixture(name, epsilon=0.5, m=2, delta=0.05)
    assert fx.kind == name
    assert np.array_equal(config.points, fx.config.points)
    assert np.array_equal(centers.centers, fx.centers.centers)


def test_unknown_fixture_name_rejected():
    with pytest.raises(ValueError, match="unknown fixture"):
        make_fixture("two_gaussians")


def test_json_dict_round_trips_partitions():
    fx = many_point_instability(1.0, 2)
    doc = fx.to_json_dict()
    assert doc["kind"] == "many_point"
    assert doc["expected_before"] == [[1], [2, 3, 4]]
    assert doc["expected_after"] == [[1, 3, 4], [2]]
    assert math.isclose(doc["perturbation_size"], 0.5)
