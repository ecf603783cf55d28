"""Margin-based stability certificates and perturbation-radius bounds.

The certificate side is provable: a perturbation strictly smaller than half
the minimum margin cannot change any assigned center, hence cannot change the
induced partition. The search side is empirical: it upper-bounds the partition
stability radius by exhibiting a concrete single-point move that changes the
partition. The true radius lies between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .geometry import (Assignment, CenterSet, PointConfig, _distances, _squared_distances, assign_nearest,
                       nearest_label, perturbation_size)
from .partitions import Partition, induced_partition

__all__ = [
    "SEARCH_NOTE",
    "StabilityReport",
    "PartitionRadiusWitness",
    "no_switch_certificate",
    "switch_candidates",
    "exact_switch_radius",
    "per_point_switch_radii",
    "empirical_partition_radius_search",
    "analyze_stability",
]

SEARCH_NOTE = "upper bound (single-move adversary)"


def no_switch_certificate(assignment: Assignment, epsilon: float) -> bool:
    """True iff every perturbation of size <= epsilon provably preserves labels.

    The condition is strict: epsilon equal to half the minimum margin is not
    certified, because a point can then reach a decision boundary where the
    tie rule may flip it. epsilon = 0 certifies trivially even at zero margin,
    since the only size-0 perturbation is the configuration itself.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return epsilon == 0.0 or epsilon < assignment.min_margin / 2.0


def switch_candidates(assignment: Assignment, epsilon: float) -> frozenset[int]:
    """1-based indices that could switch under some perturbation of size <= epsilon.

    Exactly the indices with margin <= 2 * epsilon. Indices outside the set
    provably cannot change their assigned center.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return frozenset(int(i) + 1 for i in np.flatnonzero(assignment.margins <= 2.0 * epsilon))


def _bisector_distances(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(n, k) distance from each point to the bisector of its own center and center j.

    Entry (i, j) is (dist(x_i, c_j)^2 - dist(x_i, c_own)^2) / (2 dist(c_j, c_own))
    for the 1-based own ``labels``; the own column is inf.
    """
    sq = _squared_distances(points, centers)
    rows = np.arange(points.shape[0])
    own = labels - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (sq - sq[rows, own][:, None]) / (2.0 * _distances(centers, centers)[own])
    out[rows, own] = np.inf
    return out


def exact_switch_radius(point, centers: CenterSet, label: int) -> float:
    """Infimum displacement of one point that reaches some decision boundary.

    For each competing center j this is the point-to-bisector distance
    (dist(x, c_j)^2 - dist(x, c_label)^2) / (2 dist(c_j, c_label)); the result
    is the minimum over j. Always >= margin/2, with equality when the point
    lies on the segment between the two centers.
    """
    p = np.asarray(point, dtype=float)
    actual = nearest_label(p, centers)
    if label != actual:
        raise ValueError(f"label {label} is not the nearest-center label (expected {actual})")
    return float(_bisector_distances(p[None, :], centers.centers, np.array([label])).min())


def per_point_switch_radii(config: PointConfig, centers: CenterSet, assignment: Assignment | None = None) -> np.ndarray:
    """Exact single-point switch radius for every index of a configuration."""
    if assignment is None:
        assignment = assign_nearest(config, centers)
    return _bisector_distances(config.points, centers.centers, assignment.labels).min(axis=1)


@dataclass(frozen=True)
class PartitionRadiusWitness:
    """A verified perturbation that changes the induced partition."""

    radius: float
    witness: PointConfig
    moved_index: int
    new_partition: Partition


def empirical_partition_radius_search(
    config: PointConfig,
    centers: CenterSet,
    slack_rel: float = 1e-9,
    slack_floor: float = 1e-12,
) -> PartitionRadiusWitness | None:
    """Cheapest single-point move that changes the induced partition.

    Enumerates, for every index and every competing center, the move that
    pushes the point just past the corresponding bisector (bisector distance
    plus a small slack to force a strict crossing). Candidates are checked in
    order of displacement; the first whose re-evaluated partition differs is
    returned. Moves that change a label without changing the partition (for
    example a singleton hopping to an empty center) are skipped.

    Returns None when no single-point move changes the partition. The result
    is an upper bound on the partition stability radius: coordinated
    multi-point moves are not searched.
    """
    assignment = assign_nearest(config, centers)
    before = induced_partition(assignment)

    bisectors = _bisector_distances(config.points, centers.centers, assignment.labels)
    rows, cols = np.nonzero(np.arange(centers.k) != (assignment.labels - 1)[:, None])
    radii = bisectors[rows, cols]
    steps = radii + np.maximum(slack_rel * radii, slack_floor)

    for c in np.lexsort((cols, rows, steps)):
        pos, step = int(rows[c]), float(steps[c])
        direction = centers.centers[cols[c]] - centers.centers[assignment.labels[pos] - 1]
        direction = direction / np.linalg.norm(direction)
        moved = config.with_point(pos + 1, config.points[pos] + step * direction)
        after = induced_partition(assign_nearest(moved, centers))
        if after != before:
            size = perturbation_size(config, moved)
            if abs(size - step) > 1e-9 * max(1.0, step):
                raise InvariantViolation(
                    f"witness displacement {size} does not match candidate step {step}"
                )
            return PartitionRadiusWitness(
                radius=size, witness=moved, moved_index=pos + 1, new_partition=after
            )
    return None


@dataclass(frozen=True)
class StabilityReport:
    """Margin statistics, certified lower bound, and empirical upper bound."""

    labels: np.ndarray
    margins: np.ndarray
    min_margin: float
    margin_lower_bound_radius: float
    per_point_switch_radius: np.ndarray
    assignment_radius: float
    partition: Partition
    fragile_indices: tuple[int, ...]
    witness: PartitionRadiusWitness | None
    k: int
    search_note: str = SEARCH_NOTE

    @property
    def empirical_partition_radius_upper(self) -> float | None:
        return None if self.witness is None else self.witness.radius

    def to_json_dict(self) -> dict:
        out = {
            "n": int(self.labels.size),
            "k": self.k,
            "labels": [int(v) for v in self.labels],
            "margins": [float(v) for v in self.margins],
            "min_margin": float(self.min_margin),
            "margin_lower_bound_radius": float(self.margin_lower_bound_radius),
            "per_point_switch_radius": [float(v) for v in self.per_point_switch_radius],
            "assignment_radius": float(self.assignment_radius),
            "partition": self.partition.to_lists(),
            "fragile_indices": list(self.fragile_indices),
        }
        if self.witness is None:
            out["empirical_partition_radius"] = None
        else:
            out["empirical_partition_radius"] = {
                "radius": float(self.witness.radius),
                "kind": self.search_note,
                "moved_index": self.witness.moved_index,
                "witness_points": [[float(c) for c in row] for row in self.witness.witness.points],
                "new_partition": self.witness.new_partition.to_lists(),
            }
        return out


def analyze_stability(config: PointConfig, centers: CenterSet, search: bool = True) -> StabilityReport:
    """Full stability report for a configuration under fixed centers."""
    assignment = assign_nearest(config, centers)
    radii = per_point_switch_radii(config, centers, assignment)
    witness = empirical_partition_radius_search(config, centers) if search else None
    return StabilityReport(
        labels=assignment.labels,
        margins=assignment.margins,
        min_margin=assignment.min_margin,
        margin_lower_bound_radius=assignment.min_margin / 2.0,
        per_point_switch_radius=radii,
        assignment_radius=float(radii.min()),
        partition=induced_partition(assignment),
        fragile_indices=assignment.fragile_indices(),
        witness=witness,
        k=centers.k,
    )
