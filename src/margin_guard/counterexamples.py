"""Parametric instability constructions with frozen expected partitions.

All three constructions share the two centers (-1, 0) and (1, 0), whose
decision boundary is the vertical line x = 0. Anchor points far from the
boundary pin the cluster structure while a near-boundary point (or column of
points) crosses under an arbitrarily small perturbation. Expected partitions
are embedded as data so regressions in assignment logic are caught against
fixed ground truth rather than recomputed values; a size at which the
nearest-center rule does not give them in float64 raises, naming the parameter.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .geometry import CenterSet, PointConfig, assign_nearest, perturbation_size
from .partitions import Partition, induced_partition

__all__ = [
    "CounterexampleFixture",
    "single_point_instability",
    "many_point_instability",
    "near_boundary_instability",
]

STANDARD_CENTERS = CenterSet(np.array([[-1.0, 0.0], [1.0, 0.0]]))
FIXTURE_NAMES = ("single_point", "many_point", "near_boundary")


@dataclass(frozen=True, eq=False)
class CounterexampleFixture:
    kind: str
    config: PointConfig
    perturbed: PointConfig
    centers: CenterSet
    expected_before: Partition
    expected_after: Partition
    perturbation_size: float

    def __post_init__(self):
        if not np.array_equal(self.centers.centers, STANDARD_CENTERS.centers):
            raise ValueError("fixtures use the standard centers (-1,0), (1,0)")
        if self.expected_before == self.expected_after:
            raise ValueError("a counterexample must change the partition")
        actual = perturbation_size(self.config, self.perturbed)
        if actual != self.perturbation_size:
            raise ValueError(
                f"stored perturbation size {self.perturbation_size} != measured {actual}"
            )
        rule = [induced_partition(assign_nearest(config, self.centers)) for config in (self.config, self.perturbed)]
        if rule != [self.expected_before, self.expected_after]:
            raise ValueError("the nearest-center rule does not give the expected partitions in float64")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "centers": self.centers.centers.tolist(),
            "points": self.config.points.tolist(),
            "perturbed": self.perturbed.points.tolist(),
            "expected_before": self.expected_before.to_lists(),
            "expected_after": self.expected_after.to_lists(),
            "perturbation_size": float(self.perturbation_size),
        }


def single_point_instability(epsilon: float) -> CounterexampleFixture:
    """Three points, one of which crosses the boundary under a 2*delta move.

    delta is chosen as epsilon / 4 so the move size epsilon / 2 stays strictly
    below epsilon. Anchors at (-2, 0) and (2, 0) keep their assignments; the
    point at (delta, 0) moves to (-delta, 0) and switches, changing the
    partition from {{1}, {2, 3}} to {{1, 3}, {2}}.
    """
    return _crossing("single_point", "epsilon", epsilon, 0.25, np.zeros(1))


def _crossing(kind: str, name: str, value: float, scale: float, ys: np.ndarray) -> CounterexampleFixture:
    """Anchors 1 and 2 at (-2, 0) and (2, 0); indices 3.. sit at (delta, y) for each y in ``ys`` and
    all move to (-delta, y), which flips the partition from {{1}, {2, 3, ...}} to {{1, 3, ...}, {2}}.
    delta is ``scale`` times ``value``, the parameter ``name``, which every error names."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    delta = scale * value
    n = len(ys) + 2
    rows = np.empty((n, 2))
    rows[:2] = [[-2.0, 0.0], [2.0, 0.0]]
    rows[2:, 0] = delta
    rows[2:, 1] = ys
    config = PointConfig(rows)
    rows[2:, 0] = -delta
    perturbed = PointConfig(rows)
    try:
        return CounterexampleFixture(
            kind=kind, config=config, perturbed=perturbed, centers=STANDARD_CENTERS,
            expected_before=Partition.from_labels(np.arange(n) == 0),  # index 1 alone
            expected_after=Partition.from_labels(np.arange(n) == 1),  # index 2 alone
            perturbation_size=perturbation_size(config, perturbed),
        )
    except ValueError as exc:
        raise ValueError(f"{kind} does not hold at {name} = {value!r}: {exc}") from None


def many_point_instability(epsilon: float, m: int) -> CounterexampleFixture:
    """m near-boundary points all cross at once under a 2*delta move.

    Indices 1 and 2 are the anchors; indices 3..m+2 sit at (delta, i) and move
    to (-delta, i). The partition flips from {{1}, {2, ..., m+2}} to
    {{1, 3, ..., m+2}, {2}}.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _crossing("many_point", "epsilon", epsilon, 0.25, np.arange(1.0, operator.index(m) + 1.0))


def near_boundary_instability(delta: float) -> CounterexampleFixture:
    """Margin-parameterized variant: min margin 2*delta, move size 2*delta.

    Same geometry as the single-point construction but parameterized directly
    by the boundary offset, so both the margin and the partition-changing
    perturbation shrink together as delta -> 0.
    """
    return _crossing("near_boundary", "delta", delta, 1.0, np.zeros(1))


def make_fixture(name: str, epsilon: float = 1.0, m: int = 1, delta: float = 0.1) -> CounterexampleFixture:
    """Resolve a fixture name from FIXTURE_NAMES to its construction."""
    if name == "single_point":
        return single_point_instability(epsilon)
    if name == "many_point":
        return many_point_instability(epsilon, m)
    if name == "near_boundary":
        return near_boundary_instability(delta)
    raise ValueError(f"unknown fixture {name!r}; choose one of {', '.join(FIXTURE_NAMES)}")
