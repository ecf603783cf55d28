"""Labeled point configurations, fixed center sets, and nearest-center assignment.

Points and centers are plain Euclidean coordinate vectors. A configuration is an
ordered tuple: the index of a point is part of its identity, and perturbations
always compare points with the same index. Point indices are 1-based on every
reporting surface (partitions, candidate sets, file formats); the underlying
arrays are positional as usual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointConfig",
    "CenterSet",
    "Assignment",
    "assign_nearest",
    "nearest_label",
    "margin",
    "perturbation_size",
]


def _coordinate_matrix(rows, what: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a rectangular array of coordinate vectors")
    if arr.shape[1] < 1:
        raise ValueError(f"{what} must have dimension >= 1")
    finite_rows = np.isfinite(arr).all(axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0]) + 1
        raise ValueError(f"{what} row {bad} contains a non-finite coordinate")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PointConfig:
    """Ordered tuple of n >= 2 labeled points in R^d."""

    points: np.ndarray

    def __post_init__(self):
        arr = _coordinate_matrix(self.points, "points")
        if arr.shape[0] < 2:
            raise ValueError("a configuration needs at least 2 points")
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def point(self, index: int) -> np.ndarray:
        """Coordinate vector of the point with 1-based ``index``."""
        if not 1 <= index <= self.n:
            raise ValueError(f"point index {index} outside 1..{self.n}")
        return self.points[index - 1]

    def with_point(self, index: int, coords) -> "PointConfig":
        """New configuration with the point at 1-based ``index`` replaced."""
        if not 1 <= index <= self.n:
            raise ValueError(f"point index {index} outside 1..{self.n}")
        new = np.array(self.points)
        new[index - 1] = np.asarray(coords, dtype=float)
        return PointConfig(new)

    def __repr__(self) -> str:
        return f"PointConfig(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class CenterSet:
    """Ordered list of k >= 2 pairwise-distinct fixed centers."""

    centers: np.ndarray

    def __post_init__(self):
        arr = _coordinate_matrix(self.centers, "centers")
        if arr.shape[0] < 2:
            raise ValueError("a center set needs at least 2 centers")
        # one sort finds equal rows; + 0.0 makes -0.0 equal to 0.0, as np.array_equal has it
        _, group, counts = np.unique(arr + 0.0, axis=0, return_inverse=True, return_counts=True)
        if counts.max() > 1:  # name the first pair a scan over a < b meets: lowest twinned a, its next twin b
            a, b = np.flatnonzero(group == group[np.argmax(counts[group] > 1)])[:2]
            raise ValueError(f"centers {a + 1} and {b + 1} coincide")
        object.__setattr__(self, "centers", arr)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    def __repr__(self) -> str:
        return f"CenterSet(k={self.k}, d={self.d})"


@dataclass(frozen=True)
class Assignment:
    """Nearest-center labels and margins for one configuration.

    ``labels[i]`` is the 1-based index of the center assigned to point i+1,
    ties broken toward the lowest center index. ``margins[i]`` is the smallest
    distance surplus of any competing center over the assigned one; it is zero
    exactly when the point sits on a decision boundary.
    """

    labels: np.ndarray
    margins: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int).copy()
        margins = np.asarray(self.margins, dtype=float).copy()
        if labels.shape != margins.shape or labels.ndim != 1:
            raise ValueError("labels and margins must be 1-d arrays of equal length")
        if labels.size < 2:
            raise ValueError("an assignment needs at least 2 points")
        if labels.min() < 1 or labels.max() > self.k:
            raise ValueError(f"labels must lie in 1..{self.k}")
        if (margins < 0).any():
            raise ValueError("margins must be nonnegative")
        labels.setflags(write=False)
        margins.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "margins", margins)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def min_margin(self) -> float:
        return float(self.margins.min())

    def fragile_indices(self, threshold: float = 1e-12) -> tuple[int, ...]:
        """1-based indices whose margin falls below ``threshold``.

        Assignment itself uses exact floating-point comparison; this diagnostic
        flags points whose label is numerically fragile.
        """
        return tuple(int(i) + 1 for i in np.flatnonzero(self.margins < threshold))


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each point row to each center row."""
    diff = points[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2)


def _distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) Euclidean distances; bit-identical to np.linalg.norm over the last axis."""
    return np.sqrt(_squared_distances(points, centers))


def assign_nearest(config: PointConfig, centers: CenterSet) -> Assignment:
    """Assign every point to its nearest center, ties to the lowest index.

    Returns labels, per-point margins
    min over competing j of (dist(x_i, c_j) - dist(x_i, c_assigned)),
    and implicitly the minimum margin. Pure and deterministic.
    """
    if config.d != centers.d:
        raise ValueError(f"dimension mismatch: points are {config.d}-d, centers are {centers.d}-d")
    dist = _distances(config.points, centers.centers)
    nearest = dist.argmin(axis=1)  # first occurrence = lowest center index
    rows = np.arange(config.n)
    best = dist[rows, nearest]
    dist[rows, nearest] = np.inf
    margins = dist.min(axis=1) - best
    return Assignment(labels=nearest + 1, margins=margins, k=centers.k)


def _point_distances(point, centers: CenterSet) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    if p.shape != (centers.d,):
        raise ValueError(f"point must be a {centers.d}-vector")
    return _distances(p[None, :], centers.centers)[0]


def nearest_label(point, centers: CenterSet) -> int:
    """1-based label of the nearest center, ties to the lowest index."""
    return int(_point_distances(point, centers).argmin()) + 1


def margin(point, centers: CenterSet, label: int) -> float:
    """Margin of a single point given its nearest-center ``label``.

    Raises if ``label`` is not what the nearest-center rule produces, which
    signals misuse rather than a geometric condition.
    """
    dist = _point_distances(point, centers)
    actual = int(dist.argmin()) + 1
    if label != actual:
        raise ValueError(f"label {label} is not the nearest-center label (expected {actual})")
    return float(np.delete(dist, label - 1).min() - dist[label - 1])


def perturbation_size(a: PointConfig, b: PointConfig) -> float:
    """Largest per-point displacement max_i dist(a_i, b_i)."""
    if a.n != b.n or a.d != b.d:
        raise ValueError(
            f"shape mismatch: ({a.n}, {a.d}) vs ({b.n}, {b.d}); "
            "perturbations compare configurations over the same index set"
        )
    return float(np.linalg.norm(a.points - b.points, axis=1).max())
