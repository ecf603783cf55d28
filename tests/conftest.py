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
