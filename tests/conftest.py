import tracemalloc

import numpy as np
import pytest

from margin_guard import CenterSet, PointConfig, assign_nearest


def random_instance(rng, n_max=50, d_max=5, k_max=5, spread=4.0):
    """Random (config, centers) pair with pairwise-distinct centers."""
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(2, k_max + 1))
    while True:
        centers = rng.uniform(-spread, spread, (k, d))
        if all(
            not np.array_equal(centers[a], centers[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            break
    config = PointConfig(rng.uniform(-spread, spread, (n, d)))
    return config, CenterSet(centers)


def k64_instance():
    """10^5 points in d = 2 around 64 centers uniform in [-10, 10]^2, spread 0.8 (seed 0)."""
    rng = np.random.default_rng(0)
    n, k = 10**5, 64
    centers = rng.uniform(-10.0, 10.0, (k, 2))
    config = PointConfig(centers[rng.integers(0, k, n)] + rng.normal(0.0, 0.8, (n, 2)))
    return config, CenterSet(centers)


def pair_enumeration_disagreements(p, q):
    """Disagreeing index pairs of two partitions by enumerating all pairs through n x n matrices (test
    oracle for the contingency kernel)."""
    ids_p, ids_q = p.block_ids(), q.block_ids()
    differ = (ids_p[:, None] == ids_p[None, :]) != (ids_q[:, None] == ids_q[None, :])
    iu, ju = np.triu_indices(p.n, k=1)
    return int(differ[iu, ju].sum())


def bisector_distances(points, centers, labels):
    """(n, k) distance from each point to the bisector of its own center (1-based ``labels``) and center j,
    inf in the own column, by the unblocked broadcast formula (test oracle for the kernel's bisector matrix)."""
    diff = points[:, None, :] - centers[None, :, :]
    sq = (diff * diff).sum(axis=2)
    gaps = centers[:, None, :] - centers[None, :, :]
    rows, own = np.arange(len(points)), labels - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (sq - sq[rows, own][:, None]) / (2.0 * np.sqrt((gaps * gaps).sum(axis=2))[own])
    out[rows, own] = np.inf
    return out


def peak_traced_mib(fn):
    """(peak traced allocation in MiB while fn() runs, its result)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, result


@pytest.fixture
def anchored_config():
    """Two anchors plus one near-boundary point; margins (2, 2, 0.2)."""
    return PointConfig([[-2.0, 0.0], [2.0, 0.0], [0.1, 0.0]])


@pytest.fixture
def two_centers():
    return CenterSet([[-1.0, 0.0], [1.0, 0.0]])


@pytest.fixture
def anchored_assignment(anchored_config, two_centers):
    return assign_nearest(anchored_config, two_centers)
