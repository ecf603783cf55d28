"""Margin-based stability certificates and perturbation-radius bounds.

The certificate side is provable: a perturbation strictly smaller than half
the minimum margin cannot change any assigned center, hence cannot change the
induced partition. The search side is empirical: it upper-bounds the partition
stability radius by exhibiting a concrete single-point move that changes the
partition. The certificate is ``geometry._no_switch``. The report holds the
``Assignment`` of one ``geometry._assign`` pass, which also gives the bisector
matrix; its row minima are the per-point switch radii, which
``per_point_switch_radii`` takes per row block without the whole matrix. The
search decides the candidate moves by the single-move rule (only the moved
point's label can change) in batches of the cheapest steps, found with
``np.partition`` and never a full sort, labels the moved points of each row
block of a batch with one labels-only call of the kernel, and re-assigns in
full only the witness. The true radius lies between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation
from .geometry import (_BISECTORS, _LABELS, _RADII, Assignment, CenterSet, PointConfig, _assign, _nearest, _no_switch,
                       _point_nearest, _row_blocks, assign_nearest, perturbation_size)
from .partitions import Partition, _pair_disagreement_count, induced_partition

__all__ = [
    "SEARCH_NOTE",
    "StabilityReport",
    "PartitionRadiusWitness",
    "no_switch_certificate",
    "switch_candidates",
    "exact_switch_radius",
    "per_point_switch_radii",
    "analyze_stability",
]

SEARCH_NOTE = "upper bound (single-move adversary)"

# Each batch of the radius search reaches 4 times as far down the step order as the one before.
_BATCH_GROWTH = 4


def no_switch_certificate(assignment: Assignment, epsilon: float) -> bool:
    """True iff every perturbation of size <= epsilon provably preserves labels.

    The condition is strict: epsilon equal to half the minimum margin is not
    certified, because a point can then reach a decision boundary where the
    tie rule may flip it. epsilon = 0 certifies trivially even at zero margin,
    since the only size-0 perturbation is the configuration itself.
    """
    if not 0 <= epsilon < np.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    return _no_switch(epsilon, assignment.min_margin)


def switch_candidates(assignment: Assignment, epsilon: float) -> frozenset[int]:
    """1-based indices that could switch under some perturbation of size <= epsilon.

    Exactly the indices with margin <= 2 * epsilon. Indices outside the set
    provably cannot change their assigned center.
    """
    if not 0 <= epsilon < np.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    return frozenset(int(i) + 1 for i in np.flatnonzero(assignment.margins <= 2.0 * epsilon))


def exact_switch_radius(point, centers: CenterSet, label: int) -> float:
    """Infimum displacement of one point that reaches some decision boundary.

    For each competing center j this is the point-to-bisector distance
    (dist(x, c_j)^2 - dist(x, c_label)^2) / (2 dist(c_j, c_label)); the result
    is the minimum over j. Always >= margin/2, with equality when the point
    lies on the segment between the two centers.
    """
    return float(_point_nearest(point, centers, _BISECTORS, label)[2].min())


def per_point_switch_radii(config: PointConfig, centers: CenterSet, assignment: Assignment | None = None) -> np.ndarray:
    """Exact single-point switch radius for every index of a configuration.

    A given ``assignment`` must be the configuration's own; the radii come from the kernel's own pass."""
    own, radii = _assign(config, centers, _RADII)
    if assignment is not None and not np.array_equal(assignment.labels, own.labels):
        raise ValueError("assignment is not the nearest-center assignment of this configuration")
    return radii


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """(m, 1) Euclidean norms of the rows of an (m, d) array, each bit for bit np.linalg.norm of
    its row: the stacked matmul takes one BLAS dot per row, as the 1-d norm does, where
    np.linalg.norm(axis=1) sums the squares in another order."""
    return np.sqrt(vectors[:, None, :] @ vectors[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class PartitionRadiusWitness:
    """A verified perturbation that changes the induced partition."""

    radius: float
    witness: PointConfig
    moved_index: int
    new_partition: Partition


def _cheapest_first(steps: np.ndarray, k: int, d: int):
    """Flat indices of the finite entries of the flat (n, k) ``steps`` in (step, flat index) order, that
    is (step, index, center), in row blocks of the kernel for k centers in d dimensions.

    No full sort: each batch holds every step up to the ``want``-th smallest (``np.partition``), ties
    included, and one stable argsort orders it. ``want`` starts at k and grows 4x per batch.
    """
    top = int(np.count_nonzero(steps < np.inf))
    lo, want = -np.inf, k
    while top:
        want = min(want, top)
        hi = np.partition(steps, want - 1)[want - 1]
        batch = np.flatnonzero((steps > lo) & (steps <= hi))
        order = batch[np.argsort(steps[batch], kind="stable")]
        for rows in _row_blocks(order.size, k * d):
            yield order[rows]
        if want == top:
            return
        lo, want = hi, _BATCH_GROWTH * want


def _radius_search(
    config: PointConfig, centers: CenterSet, assignment: Assignment, bisectors: np.ndarray
) -> PartitionRadiusWitness | None:
    """Cheapest single-point move that changes the induced partition, or None.

    Each candidate pushes one point just past the bisector of its own center and
    another (its ``bisectors`` entry plus a slack that forces a strict crossing;
    ``bisectors`` is overwritten with these steps, one row block at a time), in
    (step, index, center) order. Moving one point changes only its own label, so
    the partition changes unless the label stays or the point leaves a singleton
    block for an empty center. One kernel call labels each block of ``_cheapest_first``, so at most
    one block is decided past the witness, and only the witness is re-assigned
    in full, which must agree.
    """
    labels = assignment.labels - 1
    for rows in _row_blocks(len(bisectors), centers.k):
        slack = bisectors[rows] * 1e-9
        np.maximum(slack, 1e-12, out=slack)
        bisectors[rows] += slack  # the own column stays inf
    steps, ctr = bisectors.ravel(), centers.centers
    sizes = np.bincount(labels, minlength=centers.k)
    for block in _cheapest_first(steps, centers.k, centers.d):
        rows, cols = np.divmod(block, centers.k)
        own = labels[rows]
        direction = ctr[cols] - ctr[own]
        points = config.points[rows] + steps[block][:, None] * (direction / _row_norms(direction))
        new = _nearest(points, ctr, _LABELS)[0] - 1  # ties to the lowest index
        accepted = np.flatnonzero((new != own) & ((sizes[own] != 1) | (sizes[new] != 0)))
        if accepted.size:
            c = accepted[0]
            pos, step = int(rows[c]), float(steps[block[c]])
            moved = config.with_point(pos + 1, points[c])
            size = perturbation_size(config, moved)
            if abs(size - step) > 1e-9 * max(1.0, step):
                raise InvariantViolation(f"witness displacement {size} does not match candidate step {step}")
            after = assign_nearest(moved, centers)
            if _pair_disagreement_count(assignment.labels, after.labels) == 0:
                raise InvariantViolation(
                    f"full re-assignment keeps the partition for point {pos + 1} -> center {new[c] + 1}"
                )
            return PartitionRadiusWitness(size, moved, moved_index=pos + 1, new_partition=induced_partition(after))
    return None


@dataclass(frozen=True)
class StabilityReport:
    """Margin statistics, certified lower bound, and empirical upper bound. Labels, margins, k, the
    minimum margin and the fragile indices are read-only views of the ``assignment``."""

    assignment: Assignment
    per_point_switch_radius: np.ndarray
    assignment_radius: float
    partition: Partition
    witness: PartitionRadiusWitness | None

    @property
    def labels(self) -> np.ndarray:
        return self.assignment.labels

    @property
    def margins(self) -> np.ndarray:
        return self.assignment.margins

    @property
    def k(self) -> int:
        return self.assignment.k

    @cached_property
    def min_margin(self) -> float:
        return self.assignment.min_margin

    @property
    def margin_lower_bound_radius(self) -> float:
        return self.min_margin / 2.0

    @cached_property
    def fragile_indices(self) -> tuple[int, ...]:
        return self.assignment.fragile_indices()

    @property
    def empirical_partition_radius_upper(self) -> float | None:
        return None if self.witness is None else self.witness.radius

    def to_json_dict(self) -> dict:
        w = self.witness
        return {
            "n": int(self.labels.size),
            "k": self.k,
            "labels": self.labels.tolist(),
            "margins": self.margins.tolist(),
            "min_margin": float(self.min_margin),
            "margin_lower_bound_radius": float(self.margin_lower_bound_radius),
            "per_point_switch_radius": self.per_point_switch_radius.tolist(),
            "assignment_radius": float(self.assignment_radius),
            "partition": self.partition.to_lists(),
            "fragile_indices": list(self.fragile_indices),
            "empirical_partition_radius": None if w is None else {
                "radius": float(w.radius),
                "kind": SEARCH_NOTE,
                "moved_index": w.moved_index,
                "witness_points": w.witness.points.tolist(),
                "new_partition": w.new_partition.to_lists(),
            },
        }


def analyze_stability(config: PointConfig, centers: CenterSet) -> StabilityReport:
    """Full stability report for a configuration under fixed centers."""
    assignment, bisectors = _assign(config, centers, _BISECTORS)
    radii = bisectors.min(axis=1)  # before the search overwrites the matrix with its steps
    return StabilityReport(
        assignment=assignment,
        per_point_switch_radius=radii,
        assignment_radius=float(radii.min()),
        partition=induced_partition(assignment),
        witness=_radius_search(config, centers, assignment, bisectors),
    )
