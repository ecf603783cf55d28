"""Margin-based stability certificates and perturbation-radius bounds.

The certificate side is provable: a perturbation strictly smaller than half
the minimum margin cannot change any assigned center, hence cannot change the
induced partition. The search side is empirical: it upper-bounds the partition
stability radius by exhibiting a concrete single-point move that changes the
partition, deciding each candidate move by the single-move rule (only the moved
point's label can change) and re-assigning in full only the witness. The true
radius lies between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .geometry import (Assignment, CenterSet, PointConfig, _distances, _squared_distances, assign_nearest,
                       nearest_label, perturbation_size)
from .partitions import Partition, _pair_disagreement_count, induced_partition

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
    if not 0 <= epsilon < np.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    return epsilon == 0.0 or epsilon < assignment.min_margin / 2.0


def switch_candidates(assignment: Assignment, epsilon: float) -> frozenset[int]:
    """1-based indices that could switch under some perturbation of size <= epsilon.

    Exactly the indices with margin <= 2 * epsilon. Indices outside the set
    provably cannot change their assigned center.
    """
    if not 0 <= epsilon < np.inf:
        raise ValueError("epsilon must be finite and nonnegative")
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


def _radius_search(
    config: PointConfig, centers: CenterSet, assignment: Assignment, bisectors: np.ndarray
) -> PartitionRadiusWitness | None:
    """Cheapest single-point move that changes the induced partition, or None.

    Each candidate pushes one point just past the bisector of its own center and
    another (its ``bisectors`` entry plus a slack that forces a strict crossing),
    in (step, index, center) order. Moving one point changes only its own label,
    so the partition changes unless the label stays or the point leaves a
    singleton block for an empty center: the moved point's own distance row
    decides, in O(k). Only the winner is re-assigned in full, which must agree.
    """
    labels = assignment.labels - 1
    rows, cols = np.nonzero(np.arange(centers.k) != labels[:, None])
    radii = bisectors[rows, cols]
    steps = radii + np.maximum(1e-9 * radii, 1e-12)
    sizes = np.bincount(labels, minlength=centers.k)
    for c in np.lexsort((cols, rows, steps)):
        pos, step, own = int(rows[c]), float(steps[c]), labels[rows[c]]
        direction = centers.centers[cols[c]] - centers.centers[own]
        point = config.points[pos] + step * (direction / np.linalg.norm(direction))
        new = _distances(point[None, :], centers.centers)[0].argmin()  # ties to the lowest index
        if new == own or (sizes[own] == 1 and sizes[new] == 0):
            continue
        moved = config.with_point(pos + 1, point)
        size = perturbation_size(config, moved)
        if abs(size - step) > 1e-9 * max(1.0, step):
            raise InvariantViolation(f"witness displacement {size} does not match candidate step {step}")
        after = assign_nearest(moved, centers)
        if _pair_disagreement_count(assignment.labels, after.labels) == 0:
            raise InvariantViolation(f"full re-assignment keeps the partition for point {pos + 1} -> center {new + 1}")
        return PartitionRadiusWitness(size, moved, moved_index=pos + 1, new_partition=induced_partition(after))
    return None


def empirical_partition_radius_search(config: PointConfig, centers: CenterSet) -> PartitionRadiusWitness | None:
    """The witness of ``analyze_stability``: the cheapest single-point move that changes the
    partition, or None. An upper bound on the radius; multi-point moves are not searched."""
    return analyze_stability(config, centers).witness


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
        w = self.witness
        return {
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
            "empirical_partition_radius": None if w is None else {
                "radius": float(w.radius),
                "kind": self.search_note,
                "moved_index": w.moved_index,
                "witness_points": [[float(c) for c in row] for row in w.witness.points],
                "new_partition": w.new_partition.to_lists(),
            },
        }


def analyze_stability(config: PointConfig, centers: CenterSet, search: bool = True) -> StabilityReport:
    """Full stability report for a configuration under fixed centers."""
    assignment = assign_nearest(config, centers)
    bisectors = _bisector_distances(config.points, centers.centers, assignment.labels)
    radii = bisectors.min(axis=1)
    return StabilityReport(
        labels=assignment.labels,
        margins=assignment.margins,
        min_margin=assignment.min_margin,
        margin_lower_bound_radius=assignment.min_margin / 2.0,
        per_point_switch_radius=radii,
        assignment_radius=float(radii.min()),
        partition=induced_partition(assignment),
        fragile_indices=assignment.fragile_indices(),
        witness=_radius_search(config, centers, assignment, bisectors) if search else None,
        k=centers.k,
    )
