import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from margin_guard import (
    CenterSet,
    PairRelation,
    Partition,
    PointConfig,
    assign_nearest,
    induced_partition,
    iter_partitions,
    pair_disagreements,
    partition_distance,
    switched_index_distance_bound,
)
from margin_guard.partitions import _label_distance, _pair_disagreement_count
from conftest import pair_enumeration_disagreements, peak_traced_mib

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


@st.composite
def label_lists(draw):
    """Labels of one kind (int, float or str) drawn from a small pool, so that blocks repeat."""
    kind = draw(st.sampled_from([st.integers(-(2**70), 2**70), st.floats(allow_nan=False), st.text(max_size=3)]))
    pool = draw(st.lists(kind, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


class TestPartitionType:
    def test_canonical_form_is_order_free(self):
        p = Partition([[3, 2], [1]], n=3)
        q = Partition([(1,), (2, 3)], n=3)
        assert p == q
        assert hash(p) == hash(q)
        assert p.blocks == ((1,), (2, 3))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="more than one block"):
            Partition([[1, 2], [2, 3]], n=3)

    def test_rejects_missing_index(self):
        with pytest.raises(ValueError, match="missing"):
            Partition([[1], [3]], n=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside ground set"):
            Partition([[1, 2, 4]], n=3)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="nonempty"):
            Partition([[1, 2, 3], []], n=3)

    def test_block_count_bounds(self):
        assert Partition([[1, 2, 3]], n=3).block_count == 1
        assert Partition([[1], [2], [3]], n=3).block_count == 3

    def test_from_labels(self):
        p = Partition.from_labels([5, 9, 9, 5])
        assert p == Partition([[1, 4], [2, 3]], n=4)

    @given(label_lists())
    @example([0.0, -0.0, 1.5, float("inf")])  # -0.0 == 0.0 groups with it
    @example(["a", "a\x00", "b"])  # numpy strings drop trailing NULs; the labels stay apart
    @example([2**63, 2**63 + 1, 1])  # past int64 numpy makes both one float; the labels stay apart
    @example([1, "1", 1])  # numpy makes both strings; the labels stay apart
    @settings(max_examples=300, deadline=None)
    def test_from_labels_matches_dict_grouping(self, labels):
        groups: dict = {}
        for pos, lab in enumerate(labels):
            groups.setdefault(lab, []).append(pos + 1)
        order = {lab: bid for bid, lab in enumerate(groups)}  # dicts keep first-occurrence order
        p = Partition.from_labels(labels)
        assert p.block_ids().tolist() == [order[lab] for lab in labels]
        assert p.blocks == tuple(map(tuple, groups.values()))
        assert p == Partition(groups.values(), n=len(labels))
        assert (p.n, p.block_count) == (len(labels), len(groups))
        assert not p.block_ids().flags.writeable

    def test_from_labels_rejects_empty(self):
        with pytest.raises(ValueError, match="^ground-set size must be >= 1$"):
            Partition.from_labels([])

    @pytest.mark.parametrize("labels", [np.zeros((2, 3)), [[1, 2], [3, 4]], np.array(5)])
    def test_from_labels_rejects_non_1d(self, labels):
        with pytest.raises(ValueError, match="1-d"):
            Partition.from_labels(labels)

    @pytest.mark.parametrize(
        "labels", [[1.0, float("nan")], [float("nan"), float("nan")], np.array([1, float("nan")], dtype=object)]
    )
    def test_from_labels_rejects_nan(self, labels):
        with pytest.raises(ValueError, match="NaN"):
            Partition.from_labels(labels)


class TestInducedPartition:
    def test_example_from_anchored_config(self, anchored_assignment):
        assert induced_partition(anchored_assignment) == Partition([[1], [2, 3]], n=3)

    def test_all_same_label(self, two_centers):
        cfg = PointConfig([[-2.0, 0.0], [-3.0, 0.0], [-2.5, 1.0]])
        p = induced_partition(assign_nearest(cfg, two_centers))
        assert p == Partition([[1, 2, 3]], n=3)

    def test_empty_centers_contribute_no_block(self):
        centers = CenterSet([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        cfg = PointConfig([[0.1, 0.0], [9.9, 0.0]])
        p = induced_partition(assign_nearest(cfg, centers))
        assert p.block_count == 2

    def test_partitions_are_label_free(self):
        # same grouping through different center labels compares equal
        a = Partition.from_labels([1, 1, 2])
        b = Partition.from_labels([2, 2, 1])
        assert a == b


class TestPartitionDistance:
    def test_identity(self):
        p = Partition([[1, 2], [3]], n=3)
        assert partition_distance(p, p) == 0.0

    def test_hand_enumerated_three_points(self):
        p = Partition([[1], [2, 3]], n=3)
        q = Partition([[1, 3], [2]], n=3)
        # pair (1,2) agrees (split in both); (1,3) and (2,3) disagree
        assert partition_distance(p, q) == pytest.approx(2.0 / 3.0)

    def test_two_points_max_distance(self):
        p = Partition([[1, 2]], n=2)
        q = Partition([[1], [2]], n=2)
        assert partition_distance(p, q) == 1.0

    def test_mismatched_ground_sets(self):
        with pytest.raises(ValueError, match="sizes differ"):
            partition_distance(Partition([[1, 2]], n=2), Partition([[1, 2, 3]], n=3))

    def test_contingency_fast_path_agrees_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            p = Partition.from_labels(rng.integers(0, 4, n))
            q = Partition.from_labels(rng.integers(0, 4, n))
            assert pair_enumeration_disagreements(p, q) == pair_disagreements(p, q)


@st.composite
def label_array_pair(draw):
    n = draw(st.integers(2, 40))
    labels = st.lists(st.integers(0, 60), min_size=n, max_size=n)
    return np.array(draw(labels)), np.array(draw(labels))


@st.composite
def rows_with_few_changes(draw):
    """Labels ``a`` and rows that copy it with up to 4 entries changed each, so some rows keep every
    label; labels up to 12 against an ``a`` of labels up to 8 include labels above a.max()."""
    n = draw(st.integers(2, 40))
    a = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
    rows = np.tile(a, (draw(st.integers(1, 5)), 1))
    for row in rows:
        for i, label in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 12)), max_size=4)):
            row[i] = label
    return a, rows


def square_count_disagreements(a, b):
    """The contingency count (sum c^2 over the groups of a, of b, less twice over (a, b)) / 2, by sorting
    every entry (test oracle at sizes where pair enumeration would need n x n matrices)."""
    squares = lambda keys: int((np.unique(keys, return_counts=True)[1] ** 2).sum())  # noqa: E731
    return (squares(a) + squares(b) - 2 * squares(a * (b.max() + 1) + b)) // 2


class TestContingencyKernel:
    @given(label_array_pair())
    @example((7 * np.arange(9), 3 * np.arange(9)[::-1]))  # gaps, all singletons
    @example((np.zeros(6, dtype=int), np.arange(6)))  # one block vs all singletons
    @example((np.array([0, 5]), np.array([2, 2])))  # n = 2
    @example((np.array([4, 4, 4]), np.array([9, 9, 9])))  # one block each
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_enumeration(self, pair):
        a, b = pair
        want = pair_enumeration_disagreements(Partition.from_labels(a), Partition.from_labels(b))
        assert _pair_disagreement_count(a, b) == want
        assert _label_distance(a, b) == want / (a.size * (a.size - 1) // 2)

    @given(label_array_pair(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_label_rows_count_row_by_row(self, pair, data):
        a, b = pair
        more = st.lists(st.lists(st.integers(0, 60), min_size=a.size, max_size=a.size), max_size=5)
        rows = np.array([b, *data.draw(more)])
        counts = _pair_disagreement_count(a, rows)
        assert counts.shape == (rows.shape[0],)
        pa = Partition.from_labels(a)
        assert counts.tolist() == [pair_enumeration_disagreements(pa, Partition.from_labels(r)) for r in rows]
        # one normalization: every row's distance is its count over C(n, 2), as partition_distance gives it
        total = a.size * (a.size - 1) // 2
        assert _label_distance(a, rows).tolist() == [c / total for c in counts.tolist()]
        assert _label_distance(a, rows).tolist() == [partition_distance(pa, Partition.from_labels(r)) for r in rows]

    @given(rows_with_few_changes())
    @example((np.array([0, 0, 1]), np.array([[0, 0, 1], [0, 9, 1], [2, 0, 1]])))  # none, one above a.max(), one
    @example((np.array([3, 3]), np.array([[0, 1]])))  # every entry changed, both groups new
    @settings(max_examples=300, deadline=None)
    def test_rows_with_few_changes_match_pair_enumeration(self, pair):
        a, rows = pair
        pa = Partition.from_labels(a)
        counts = _pair_disagreement_count(a, rows)
        assert counts.tolist() == [pair_enumeration_disagreements(pa, Partition.from_labels(r)) for r in rows]
        assert [_pair_disagreement_count(a, r) for r in rows] == counts.tolist()

    def test_rows_with_few_changes_in_memory_of_the_changes(self):
        # 200 rows of 10^4 labels with 3% changed: a byte per entry and arrays of the changed entries, no
        # integer array as large as the rows (traced 4.8 MiB; 49.6 MiB when every row was keyed and sorted)
        rng = np.random.default_rng(7)
        a = rng.integers(0, 64, 10**4)
        rows = np.tile(a, (200, 1))
        change = rng.random(rows.shape) < 0.03
        rows[change] = rng.integers(0, 70, change.sum())
        peak, counts = peak_traced_mib(lambda: _pair_disagreement_count(a, rows))
        assert counts.tolist() == [square_count_disagreements(a, r) for r in rows]
        assert peak < rows.nbytes / 2 / 2**20

    @pytest.mark.parametrize("rows, error", [([[0, 1, 1], [2, -1, -1]], ValueError), ([[0.5, 1.0, 1.0]], TypeError)])
    def test_label_rows_must_be_nonnegative_integers(self, rows, error):
        with pytest.raises(error):
            _pair_disagreement_count(np.array([0, 1, 1]), np.array(rows))

    def test_singletons_against_pairs_in_linear_memory(self):
        n = 3000
        singletons = Partition.from_labels(np.arange(n))
        pairs = Partition.from_labels(np.arange(n) // 2)
        peak, count = peak_traced_mib(lambda: pair_disagreements(singletons, pairs))
        assert count == n // 2
        assert peak < 1.0


class TestSwitchedIndexBound:
    def test_zero_switches(self):
        assert switched_index_distance_bound(0, 10) == 0.0

    def test_small_n_saturates(self):
        assert switched_index_distance_bound(1, 3) == 1.0

    def test_large_n(self):
        assert switched_index_distance_bound(1, 200) == pytest.approx(2.0 / 199.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            switched_index_distance_bound(5, 4)
        with pytest.raises(ValueError):
            switched_index_distance_bound(-1, 4)
        with pytest.raises(ValueError):
            switched_index_distance_bound(0, 1)


@st.composite
def label_partition_triple(draw):
    n = draw(st.integers(2, 10))
    labels = st.lists(st.integers(1, n), min_size=n, max_size=n)
    return (
        Partition.from_labels(draw(labels)),
        Partition.from_labels(draw(labels)),
        Partition.from_labels(draw(labels)),
    )


class TestMetricAxioms:
    @given(label_partition_triple())
    @settings(max_examples=200)
    def test_axioms_on_random_triples(self, triple):
        p, q, r = triple
        assert partition_distance(p, q) == partition_distance(q, p)
        assert (partition_distance(p, q) == 0.0) == (p == q)
        # triangle inequality on exact integer disagreement counts
        assert pair_disagreements(p, r) <= pair_disagreements(p, q) + pair_disagreements(q, r)

    @given(label_partition_triple())
    @settings(max_examples=100)
    def test_distance_range(self, triple):
        p, q, _ = triple
        assert 0.0 <= partition_distance(p, q) <= 1.0


def union_find_partition(rel: PairRelation) -> Partition:
    """Blocks of the closure of the marked pairs, by union-find over the pairs."""
    parent = list(range(rel.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    iu, ju = np.triu_indices(rel.n, k=1)
    for i, j in zip(iu[rel.same].tolist(), ju[rel.same].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for pos in range(rel.n):
        groups.setdefault(find(pos), []).append(pos + 1)
    return Partition(groups.values(), n=rel.n)


class TestPairRelation:
    @given(st.integers(2, 30).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_to_partition_matches_union_find(self, labels):
        p = Partition.from_labels(labels)
        rel = PairRelation(PairRelation.from_partition(p).same, n=len(labels))
        assert rel.to_partition() == union_find_partition(rel) == p

    def test_round_trip_small_exhaustive(self):
        for n in range(2, 6):
            for p in iter_partitions(n):
                assert PairRelation.from_partition(p).to_partition() == p

    def test_transitivity_enforced(self):
        # (1,2) same and (2,3) same but (1,3) different is not an equivalence
        with pytest.raises(ValueError, match="transitive"):
            PairRelation([True, False, True], n=3)

    def test_valid_vector_accepted(self):
        rel = PairRelation([True, False, False], n=3)
        assert rel.to_partition() == Partition([[1, 2], [3]], n=3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="pair indicators"):
            PairRelation([True, False], n=3)


class TestIterPartitions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bell_counts(self, n):
        parts = list(iter_partitions(n))
        assert len(parts) == BELL[n]
        assert len(set(parts)) == BELL[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_block_ids_are_restricted_growth_strings(self, n):
        # every string with s[0] = 0 and s[i] <= max(s[:i]) + 1, in lexicographic order
        strings = [s for s in itertools.product(range(n), repeat=n) if all(
            s[i] <= max(s[:i], default=-1) + 1 for i in range(n))]
        assert [tuple(p.block_ids().tolist()) for p in iter_partitions(n)] == strings

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_ground_set_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            list(iter_partitions(n))


class TestAssignmentChangeWithoutPartitionChange:
    def test_singleton_relabels_to_empty_center(self):
        # index 1 hops from center 1 to the otherwise-empty center 3;
        # both partitions are {{1}, {2}}
        centers = CenterSet([[0.0, 0.0], [4.0, 0.0], [0.0, 2.0]])
        before = PointConfig([[0.0, 0.8], [4.0, 0.0]])
        after = before.with_point(1, [0.0, 1.3])
        a = assign_nearest(before, centers)
        b = assign_nearest(after, centers)
        assert list(a.labels) == [1, 2]
        assert list(b.labels) == [3, 2]
        switched = int((a.labels != b.labels).sum())
        assert switched == 1
        assert induced_partition(a) == induced_partition(b)
        assert partition_distance(induced_partition(a), induced_partition(b)) == 0.0

    def test_whole_blocks_swap_centers(self):
        centers = CenterSet([[-1.0, 0.0], [1.0, 0.0]])
        before = PointConfig([[-0.5, 0.0], [-0.5, 1.0], [0.5, 0.0], [0.5, 1.0]])
        after = PointConfig([[0.5, 0.0], [0.5, 1.0], [-0.5, 0.0], [-0.5, 1.0]])
        a = assign_nearest(before, centers)
        b = assign_nearest(after, centers)
        assert int((a.labels != b.labels).sum()) == 4
        assert induced_partition(a) == induced_partition(b)


def test_bound_soundness_sampled():
    # exhaustive version over all labelings lives in the acceptance suite
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        la = rng.integers(1, 4, n)
        lb = rng.integers(1, 4, n)
        m = int((la != lb).sum())
        d = partition_distance(Partition.from_labels(la), Partition.from_labels(lb))
        assert d <= switched_index_distance_bound(m, n) + 1e-12
