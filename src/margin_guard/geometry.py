"""Labeled point configurations, fixed center sets, and nearest-center assignment.

Points and centers are plain Euclidean coordinate vectors. A configuration is an
ordered tuple: the index of a point is part of its identity, and perturbations
always compare points with the same index. Point indices are 1-based on every
reporting surface (partitions, candidate sets, file formats); the underlying
arrays are positional as usual.

Every label comes from one kernel, ``_nearest``. In one row-blocked pass it
gives labels alone (Monte Carlo trials and the radius search), labels with
margins (``assign_nearest``, ``nearest_label``, ``margin`` and the trajectory
pass), both with the bisector matrix (the stability report with its radius
search, and ``exact_switch_radius``), or both with that matrix's row minima
alone (the switch radii). Its row blocks hold at most ``_BLOCK_ENTRIES``
(point, center, coordinate) entries, so its memory beyond its outputs does not
grow with n. Each ``Assignment`` of a configuration comes through ``_assign``.
``_no_switch`` is the one no-switch rule (size 0, or size < min_margin / 2) and
``_max_displacement`` the one max per-point displacement formula.
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


# A coordinate difference stays below 2e150, so each squared distance, a sum of d squares of at
# most 4e300, stays finite for every d below 4e7.
_MAX_COORDINATE = 1e150

# Row blocks of the distance kernels hold at most this many (point, center, coordinate) entries:
# 512 KiB of float64 per temporary, whatever n is.
_BLOCK_ENTRIES = 2**16


def _check_coordinates(arr: np.ndarray, row_name) -> None:
    """Raise ValueError unless every coordinate of the float array ``arr`` is finite and of magnitude
    below 1e150. ``row_name(r)`` names row r of ``arr`` seen as (rows, d); the first non-finite row is
    named before the first oversized one."""
    if not arr.size or np.abs(arr).max() < _MAX_COORDINATE:  # a NaN fails the comparison too
        return
    rows = arr.reshape(-1, arr.shape[-1])
    finite_rows = np.isfinite(rows).all(axis=1)
    if not finite_rows.all():
        raise ValueError(f"{row_name(int(np.argmin(finite_rows)))} contains a non-finite coordinate")
    bad = int(np.argmax((np.abs(rows) >= _MAX_COORDINATE).any(axis=1)))
    raise ValueError(f"{row_name(bad)} has a coordinate of magnitude >= 1e150; squared distances would overflow")


def _coordinate_matrix(rows, what: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a rectangular array of coordinate vectors")
    if arr.shape[1] < 1:
        raise ValueError(f"{what} must have dimension >= 1")
    _check_coordinates(arr, lambda r: f"{what} row {r + 1}")
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

    @classmethod
    def _of_checked(cls, points: np.ndarray) -> "PointConfig":
        """Configuration over a read-only (n >= 2, d) float array that has passed these checks
        already, such as one snapshot of a checked stack; no copy and no second check."""
        config = object.__new__(cls)
        object.__setattr__(config, "points", points)
        return config

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

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
        self._hold(np.array(self.labels, dtype=int), np.array(self.margins, dtype=float))

    @classmethod
    def _of_fresh(cls, labels: np.ndarray, margins: np.ndarray, k: int) -> "Assignment":
        """Assignment that takes over fresh int labels and float margins, such as the kernel's
        outputs, without a copy; the checks still run."""
        assignment = object.__new__(cls)
        object.__setattr__(assignment, "k", k)
        assignment._hold(labels, margins)
        return assignment

    def _hold(self, labels: np.ndarray, margins: np.ndarray) -> None:
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


def _row_blocks(n: int, entries_per_row: int):
    """Slices of ``range(n)`` holding at most _BLOCK_ENTRIES entries of ``entries_per_row`` each (at least one row)."""
    size = max(1, _BLOCK_ENTRIES // entries_per_row)
    return (slice(start, start + size) for start in range(0, n, size))


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each point row to each center row.

    Bit-identical to summing the broadcast (n, k, d) difference over d. numpy sums fewer than 8
    terms left to right but 8 or more pairwise, so below d = 8 the squares are added coordinate by
    coordinate with (n, k) temporaries only; from d = 8 on the broadcast form runs in row blocks of
    at most _BLOCK_ENTRIES (point, center, coordinate) entries."""
    n, d = points.shape
    if d < 8:
        out = np.subtract.outer(points[:, 0], centers[:, 0])
        out *= out
        for j in range(1, d):
            diff = np.subtract.outer(points[:, j], centers[:, j])
            diff *= diff
            out += diff
        return out
    out = np.empty((n, len(centers)))
    for rows in _row_blocks(n, len(centers) * d):
        diff = points[rows, None, :] - centers[None, :, :]
        out[rows] = (diff * diff).sum(axis=2)
    return out


# What _nearest returns: labels only, labels with margins, both with the (n, k) bisector matrix,
# or both with the matrix's row minima alone, the per-point switch radii.
_LABELS, _MARGINS, _BISECTORS, _RADII = 1, 2, 3, 4


def _nearest(points: np.ndarray, centers: np.ndarray, want: int = _MARGINS) -> tuple[np.ndarray, ...]:
    """The first ``want`` of: 1-based nearest-center labels, ties to the lowest index; margins; and
    the (n, k) bisector matrix, whose entry (i, j) is the distance from point i to the bisector of its
    own center and center j, (dist(x_i, c_j)^2 - dist(x_i, c_own)^2) / (2 dist(c_j, c_own)), with inf
    in the own column. ``_RADII`` gives labels, margins and the row minima of that matrix, taken per
    row block, so the matrix is never held whole.

    The one assignment kernel: one _squared_distances call per row block of at most _BLOCK_ENTRIES
    (point, center, coordinate) entries, so memory beyond the outputs stays O(block). Labels are the
    argmin over the square-rooted distances; one over the squares could break ties differently."""
    n, d = points.shape
    k = len(centers)
    labels = np.empty(n, dtype=int)
    margins = np.empty(n) if want >= _MARGINS else None
    # the bisector matrix, or for _RADII its row minima only
    bisectors = np.empty((n, k)) if want == _BISECTORS else np.empty(n) if want == _RADII else None
    gaps = 2.0 * np.sqrt(_squared_distances(centers, centers)) if want >= _BISECTORS else None
    for rows in _row_blocks(n, k * d):
        sq = _squared_distances(points[rows], centers)
        dist = np.sqrt(sq) if want >= _BISECTORS else np.sqrt(sq, out=sq)
        nearest = dist.argmin(axis=1)  # first occurrence = lowest center index
        labels[rows] = nearest + 1
        if want == _LABELS:
            continue
        at = np.arange(len(dist))
        best = dist[at, nearest]
        dist[at, nearest] = np.inf
        margins[rows] = dist.min(axis=1) - best
        if want >= _BISECTORS:
            out = bisectors[rows] if want == _BISECTORS else dist  # dist is spent once margins are out
            np.subtract(sq, sq[at, nearest][:, None], out=out)
            with np.errstate(divide="ignore", invalid="ignore"):
                out /= gaps[nearest]
            out[at, nearest] = np.inf
            if want == _RADII:
                bisectors[rows] = out.min(axis=1)
    return (labels, margins, bisectors)[:want]


def _assign(config: PointConfig, centers: CenterSet, want: int = _MARGINS) -> tuple:
    """The assignment of ``config`` and, as ``want`` asks, the kernel's bisector matrix
    (``_BISECTORS``) or its row minima (``_RADII``), from one pass of the kernel."""
    if config.d != centers.d:
        raise ValueError(f"dimension mismatch: points are {config.d}-d, centers are {centers.d}-d")
    labels, margins, *bisectors = _nearest(config.points, centers.centers, want)
    return (Assignment._of_fresh(labels, margins, centers.k), *bisectors)


def assign_nearest(config: PointConfig, centers: CenterSet) -> Assignment:
    """Assign every point to its nearest center, ties to the lowest index.

    Returns labels, per-point margins
    min over competing j of (dist(x_i, c_j) - dist(x_i, c_assigned)),
    and implicitly the minimum margin. Pure and deterministic.
    """
    return _assign(config, centers)[0]


def _point_nearest(point, centers: CenterSet, want: int = _MARGINS, label: int | None = None) -> tuple:
    """The first ``want`` of the kernel's outputs for one point: its label, margin and (k,) bisector row.
    A given ``label`` must be that label."""
    p = np.asarray(point, dtype=float)
    if p.shape != (centers.d,):
        raise ValueError(f"point must be a {centers.d}-vector")
    outs = tuple(out[0] for out in _nearest(p[None, :], centers.centers, want))
    if label is not None and label != outs[0]:
        raise ValueError(f"label {label} is not the nearest-center label (expected {outs[0]})")
    return outs


def nearest_label(point, centers: CenterSet) -> int:
    """1-based label of the nearest center, ties to the lowest index."""
    return int(_point_nearest(point, centers, _LABELS)[0])


def margin(point, centers: CenterSet, label: int) -> float:
    """Margin of a single point given its nearest-center ``label``.

    Raises if ``label`` is not what the nearest-center rule produces, which
    signals misuse rather than a geometric condition.
    """
    return float(_point_nearest(point, centers, label=label)[1])


def _no_switch(size: float, min_margin: float) -> bool:
    """True iff no perturbation of this size can change a label of an assignment with this minimum margin.
    Strict at half the margin, where a tie can flip; size 0 is only the configuration itself."""
    return size == 0.0 or size < min_margin / 2.0


def _max_displacement(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max_i dist(a_i, b_i) over the last two axes of equal-shape (..., n, d) arrays; each distance is
    bit for bit np.linalg.norm(axis=-1)."""
    diff = b - a
    return np.sqrt((diff * diff).sum(axis=-1)).max(axis=-1)


def perturbation_size(a: PointConfig, b: PointConfig) -> float:
    """Largest per-point displacement max_i dist(a_i, b_i)."""
    if a.n != b.n or a.d != b.d:
        raise ValueError(
            f"shape mismatch: ({a.n}, {a.d}) vs ({b.n}, {b.d}); "
            "perturbations compare configurations over the same index set"
        )
    return float(_max_displacement(a.points, b.points))
