"""Partitions of the index set, the induced partition of an assignment, and
the normalized pairwise-disagreement metric.

Partitions are label-free: they record only which indices are grouped
together, never which center produced a block. Ground-set indices are 1-based
to match the file formats and reporting surfaces. A partition is held as its
canonical block ids, blocks numbered by smallest element: a restricted growth string.
"""

from __future__ import annotations

import numpy as np

from .geometry import Assignment

__all__ = [
    "Partition",
    "PairRelation",
    "induced_partition",
    "pair_disagreements",
    "partition_distance",
    "switched_index_distance_bound",
    "iter_partitions",
]


def _canonical_ids(labels) -> np.ndarray:
    """Read-only block ids of a 1-d label array: equal labels share a block, numbered by first occurrence.

    Labels that numpy would merge when it converts them ("a" and "a\\x00" lose their trailing NULs,
    ints past int64 become float64) are grouped by their Python values instead."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"labels must form a 1-d array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("ground-set size must be >= 1")
    if not isinstance(labels, np.ndarray) and arr.tolist() != list(labels):
        if any(v != v for v in labels):
            raise ValueError("labels must not be NaN")
        first_seen: dict = {}
        arr = np.array([first_seen.setdefault(v, len(first_seen)) for v in labels])
    values, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
    if np.any(values != values):
        raise ValueError("labels must not be NaN")
    ids = np.argsort(np.argsort(first))[inverse]  # each label's rank by first occurrence
    ids.setflags(write=False)
    return ids


class Partition:
    """A partition of {1, ..., n}, held as its canonical block ids.

    Block b is the b-th block in order of smallest element, so two partitions
    are equal exactly when their block-id arrays are equal. ``blocks`` lists
    the blocks in that order, elements ascending.
    """

    __slots__ = ("_ids",)

    def __init__(self, blocks, n: int):
        if n < 1:
            raise ValueError("ground-set size must be >= 1")
        seen: dict[int, int] = {}  # index -> the number of its block in the given order
        for label, block in enumerate(blocks):
            b = sorted(int(i) for i in block)
            if not b:
                raise ValueError("blocks must be nonempty")
            for i in b:
                if not 1 <= i <= n:
                    raise ValueError(f"index {i} outside ground set 1..{n}")
                if i in seen:
                    raise ValueError(f"index {i} appears in more than one block")
                seen[i] = label
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)).difference(seen))
            raise ValueError(f"blocks do not cover the ground set; missing {missing}")
        self._ids = _canonical_ids([seen[i] for i in range(1, n + 1)])

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Partition grouping 1-based indices by equal label values."""
        p = object.__new__(cls)
        p._ids = _canonical_ids(labels)
        return p

    @property
    def n(self) -> int:
        return self._ids.size

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.to_lists()))

    @property
    def block_count(self) -> int:
        return int(self._ids.max()) + 1

    def block_ids(self) -> np.ndarray:
        """Array of length n mapping point position i to its block id."""
        return self._ids

    def to_lists(self) -> list[list[int]]:
        members = (np.argsort(self._ids, kind="stable") + 1).tolist()
        ends = np.cumsum(np.bincount(self._ids)).tolist()
        return [members[start:end] for start, end in zip([0, *ends], ends)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self._ids, other._ids)

    def __hash__(self) -> int:
        return hash(self._ids.tobytes())

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(str, b)) + "}" for b in self.to_lists())
        return "Partition({" + inner + "})"


class PairRelation:
    """Same-block indicators over the C(n,2) unordered index pairs.

    Pairs follow the lexicographic (i, j), i < j order. Construction from a
    raw indicator vector validates transitivity; a vector that is not the
    pair restriction of an equivalence relation is rejected.
    """

    __slots__ = ("n", "same")

    def __init__(self, same, n: int):
        if n < 2:
            raise ValueError("a pair relation needs n >= 2")
        vec = np.asarray(same, dtype=bool).copy()
        if vec.shape != (n * (n - 1) // 2,):
            raise ValueError(f"expected {n * (n - 1) // 2} pair indicators for n={n}")
        vec.setflags(write=False)
        self.same = vec
        self.n = n
        # Closing the marked pairs and re-deriving must reproduce the vector,
        # otherwise the relation is not transitive.
        rebuilt = PairRelation.from_partition(self.to_partition())
        if not np.array_equal(rebuilt.same, vec):
            raise ValueError("pair indicators do not form a transitive relation")

    @classmethod
    def from_partition(cls, p: Partition) -> "PairRelation":
        ids = p.block_ids()
        iu, ju = np.triu_indices(p.n, k=1)
        rel = object.__new__(cls)
        vec = ids[iu] == ids[ju]
        vec.setflags(write=False)
        rel.same = vec
        rel.n = p.n
        return rel

    def to_partition(self) -> Partition:
        # each index joins the smallest index it is paired with, its block's smallest if transitive
        iu, ju = np.triu_indices(self.n, k=1)
        smallest = np.arange(self.n)
        np.minimum.at(smallest, ju[self.same], iu[self.same])
        return Partition.from_labels(smallest)


def induced_partition(assignment: Assignment) -> Partition:
    """Partition whose blocks group indices assigned to the same center.

    Centers with no assigned points contribute no block, so the block count
    never exceeds the number of centers.
    """
    return Partition.from_labels(assignment.labels)


def _pair_disagreement_count(a: np.ndarray, b: np.ndarray):
    """Index pairs grouped together by exactly one of two label arrays; one count per row of a 2-d ``b``.

    Contingency closed form: a group of c indices holds c(c-1)/2 pairs, so the count is
    (S(a) + S(b) - 2 S(a, b)) / 2, where S sums the squared sizes of the groups of equal labels in
    ``a``, in ``b`` and in (a, b) combinations (the linear terms cancel). Only the entries where a row
    differs from ``a`` change those groups. Of the c_g indices labelled g in ``a``, l_g leave g and
    s_g = c_g - l_g stay, forming the (g, g) combination; with e_g entering, g holds s_g + e_g in
    ``b``. The other combinations are the movers' (from, to) groups. So a row's S(a) + S(b) - 2 S(a, b)
    is the sum over g of c_g^2 + (s_g + e_g)^2 - 2 s_g^2, which is 0 where nothing leaves or enters,
    less 2 c^2 for each mover group of c entries.

    Labels are nonnegative integers, dense as block ids and center labels are. A row with m changed
    entries costs O(n + m log m), and no row is sorted. Memory is one byte per entry of ``b``, O(m)
    for the changed entries and O(rows * max label) for the group sizes, never a table of label pairs.
    """
    rows = np.atleast_2d(b)
    changed = np.flatnonzero(rows != a)
    row, i = np.divmod(changed, a.size)
    src, dst = a[i], np.take(rows, changed)
    counts_a = np.bincount(a, minlength=np.bincount(dst).size)  # bincount rejects negative and float labels
    span = counts_a.size
    left, entered = (np.bincount(row * span + g, minlength=len(rows) * span).reshape(-1, span) for g in (src, dst))
    stay = counts_a - left
    squares = (counts_a**2 + (stay + entered) ** 2 - 2 * stay**2).sum(axis=1)
    groups, movers = np.unique((row * span + src) * span + dst, return_counts=True)
    np.subtract.at(squares, groups // span**2, 2 * movers**2)
    counts = squares // 2
    return int(counts[0]) if b.ndim == 1 else counts


def _label_distance(a: np.ndarray, b: np.ndarray):
    """Disagreement count over C(n, 2), one per row of a 2-d ``b``; integers below 2^53 divide correctly rounded."""
    return _pair_disagreement_count(a, b) / (a.size * (a.size - 1) // 2)


def pair_disagreements(p: Partition, q: Partition) -> int:
    """Number of unordered index pairs whose same-block status differs, by the block-size contingency
    closed form in O(n) memory."""
    if p.n != q.n:
        raise ValueError(f"ground-set sizes differ: {p.n} vs {q.n}")
    return _pair_disagreement_count(p.block_ids(), q.block_ids())


def partition_distance(p: Partition, q: Partition) -> float:
    """Fraction of unordered index pairs on which two partitions disagree.

    A metric on partitions of a fixed ground set with values in [0, 1];
    zero exactly when the partitions are equal.
    """
    if p.n < 2:
        raise ValueError("partition distance needs n >= 2")
    return pair_disagreements(p, q) / (p.n * (p.n - 1) // 2)


def switched_index_distance_bound(m: int, n: int) -> float:
    """Upper bound min(1, 2m/(n-1)) on the distance after m index switches."""
    if n < 2:
        raise ValueError("ground-set size must be >= 2")
    if not 0 <= m <= n:
        raise ValueError(f"switched count {m} outside 0..{n}")
    return _distance_bound(n, m)


def _distance_bound(n: int, switched: float) -> float:
    """min(1, 2/(n-1) * switched), unchecked: the one rounding of the bound, shared with Monte Carlo."""
    return min(1.0, (2.0 / (n - 1)) * switched)


def iter_partitions(n: int):
    """Every partition of {1, ..., n}, one per restricted growth string, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def grow(labels: list[int], top: int):  # labels[i] <= top + 1, where top is the largest label so far
        if len(labels) == n:
            yield Partition.from_labels(labels)
            return
        for label in range(top + 2):
            yield from grow(labels + [label], max(top, label))

    return grow([0], 0)
