"""Built-in data generators: a two-cluster Gaussian sample and the
instability constructions repackaged as (points, centers) inputs."""

from __future__ import annotations

import numpy as np

from .counterexamples import FIXTURE_NAMES, STANDARD_CENTERS, make_fixture
from .geometry import CenterSet, PointConfig

__all__ = ["two_gaussians", "make_preset"]

PRESET_NAMES = ("two_gaussians", *FIXTURE_NAMES)


def two_gaussians(n: int = 200, sigma0: float = 0.2, seed: int = 0) -> tuple[PointConfig, CenterSet]:
    """n points sampled around the centers (-1, 0) and (1, 0).

    Each index picks one of the two centers uniformly at random and adds
    isotropic Gaussian spread of scale sigma0. sigma0 = 0 puts every point
    exactly at its chosen center.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= sigma0 < np.inf:
        raise ValueError("sigma0 must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    choice = rng.integers(0, 2, size=n)
    spread = rng.normal(0.0, sigma0, size=(n, 2)) if sigma0 > 0 else np.zeros((n, 2))
    points = STANDARD_CENTERS.centers[choice] + spread
    return PointConfig(points), STANDARD_CENTERS


def make_preset(
    name: str,
    n: int = 200,
    sigma0: float = 0.2,
    seed: int = 0,
    epsilon: float = 1.0,
    m: int = 1,
    delta: float = 0.1,
) -> tuple[PointConfig, CenterSet]:
    """Resolve a preset name to a (points, centers) pair."""
    if name == "two_gaussians":
        return two_gaussians(n=n, sigma0=sigma0, seed=seed)
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")
    fx = make_fixture(name, epsilon=epsilon, m=m, delta=delta)
    return fx.config, fx.centers
