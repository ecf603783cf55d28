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
    """Read-only block ids of a 1-d label array: equal labels share a block, numbered by first occurrence."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"labels must form a 1-d array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("ground-set size must be >= 1")
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


def _equal_pairs(keys: np.ndarray, row_keys: np.ndarray) -> np.ndarray:
    """Index pairs with equal keys in each row, where row r's keys lie in [row_keys[r], row_keys[r + 1])."""
    values, counts = np.unique(keys, return_counts=True)
    return np.add.reduceat(counts * (counts - 1) // 2, np.searchsorted(values, row_keys))


def _pair_disagreement_count(a: np.ndarray, b: np.ndarray):
    """Index pairs grouped together by exactly one of two label arrays; one count per row of a 2-d ``b``.

    Contingency closed form: a group of c indices holds c(c-1)/2 pairs, so the count is
    pairs(a) + pairs(b) - 2 pairs(a, b) over the groups of equal labels in ``a``, in ``b`` and in
    (a, b) combinations. Labels are nonnegative integers, dense as block ids and center labels are;
    rows are keyed apart and sorted, so memory is O(rows * n + max label), never a table of label pairs.
    """
    rows, counts_a = np.atleast_2d(b), np.bincount(a)
    span_a, span_b = counts_a.size, np.bincount(rows.ravel()).size  # bincount rejects negative and float labels
    row_keys = np.arange(len(rows)) * span_b
    keyed = rows + row_keys[:, None]
    same_b = _equal_pairs(keyed, row_keys)
    counts = (counts_a @ counts_a - a.size) // 2 + same_b - 2 * _equal_pairs(keyed * span_a + a, row_keys * span_a)
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
    if p.n != q.n:
        raise ValueError(f"ground-set sizes differ: {p.n} vs {q.n}")
    return _label_distance(p.block_ids(), q.block_ids())


def switched_index_distance_bound(m: int, n: int) -> float:
    """Upper bound min(1, 2m/(n-1)) on the distance after m index switches."""
    if n < 2:
        raise ValueError("ground-set size must be >= 2")
    if not 0 <= m <= n:
        raise ValueError(f"switched count {m} outside 0..{n}")
    return min(1.0, 2.0 * m / (n - 1))


def iter_partitions(n: int):
    """Yield every partition of {1, ..., n} via restricted growth strings."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rgs = [0] * n
    maxes = [0] * n

    while True:
        yield Partition.from_labels(rgs)
        # advance the restricted growth string
        pos = n - 1
        while pos > 0 and rgs[pos] == maxes[pos - 1] + 1:
            pos -= 1
        if pos == 0:
            return
        rgs[pos] += 1
        maxes[pos] = max(maxes[pos - 1], rgs[pos])
        for later in range(pos + 1, n):
            rgs[later] = 0
            maxes[later] = maxes[pos]
