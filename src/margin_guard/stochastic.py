"""Random perturbation models, analytic switching bounds, and Monte Carlo.

Two independent-noise models are supported: uniform on the ball of radius rho
(the planar disk generalized to d dimensions) and isotropic Gaussian with
standard deviation sigma. The switching probability of a point is bounded by
the tail P(norm(noise) >= margin / 2); both tails are evaluated exactly, and
the Monte Carlo estimators exist to be compared against those bounds.

Randomness discipline: one master seed; the stream for trial t is derived
from (seed, t) by seed-sequence splitting, so reports are reproducible
regardless of how trials would be scheduled. ``trial_rng`` defines that
stream; Monte Carlo and sweep build a whole chunk's streams at once with
``_TrialSeeder``, state for state the same.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence
from scipy.special import gammaincc

from .geometry import _LABELS, Assignment, CenterSet, PointConfig, _nearest, _no_switch, assign_nearest
from .partitions import _label_distance

__all__ = [
    "PerturbationModel",
    "MonteCarloReport",
    "SweepRow",
    "SweepResult",
    "trial_rng",
    "sample_perturbation",
    "switch_probability_bound",
    "expected_switch_bound",
    "expected_distance_bound",
    "monte_carlo",
    "sweep_table",
]

BOUNDED_DISK = "bounded_disk"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class PerturbationModel:
    """Noise specification: kind, scale parameter, and ambient dimension."""

    kind: str
    scale: float
    dim: int

    def __post_init__(self):
        if self.kind not in (BOUNDED_DISK, GAUSSIAN):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == BOUNDED_DISK and not 0 < self.scale < np.inf:
            raise ValueError("bounded-disk radius must be finite and positive")
        if self.kind == GAUSSIAN and not 0 <= self.scale < np.inf:
            raise ValueError("gaussian scale must be finite and nonnegative")

    @classmethod
    def bounded_disk(cls, rho: float, dim: int = 2) -> "PerturbationModel":
        """Uniform noise on the ball of radius rho; norm <= rho always."""
        return cls(kind=BOUNDED_DISK, scale=rho, dim=dim)

    @classmethod
    def gaussian(cls, sigma: float, dim: int = 2) -> "PerturbationModel":
        """Isotropic Gaussian noise with independent N(0, sigma^2) coordinates.

        sigma = 0 is allowed as the degenerate no-noise case used in tests.
        """
        return cls(kind=GAUSSIAN, scale=sigma, dim=dim)

    def describe(self) -> dict:
        param = "rho" if self.kind == BOUNDED_DISK else "sigma"
        return {"kind": self.kind, param: float(self.scale), "dim": self.dim}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial of one master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


# O'Neill's seed_seq constants, as numpy's SeedSequence uses them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MULT_A_POWERS = np.array([pow(_MULT_A, j, 2**32) for j in range(5)], dtype=np.uint32)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# generate_state's hash constant INIT_B * MULT_B^i before and after hashing output word i, as (2, 4)
# blocks: output word i hashes pool word i % 4
_STATE_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(9)], dtype=np.uint32)
_STATE_XOR, _STATE_MUL = _STATE_HASH[:8].reshape(2, 4), _STATE_HASH[1:].reshape(2, 4)


class _Words(ISeedSequence):
    """A seed sequence whose state is 4 precomputed uint64 words, PCG64's whole request."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


class _TrialSeeder:
    """``trial_rng``'s streams for one entropy, in bulk: ``rngs(trials)`` yields, for each t in
    ``trials`` (ints in [0, 2^32)), the Generator ``default_rng(SeedSequence(entropy, spawn_key=(t,)))``,
    state for state. ``entropy`` is an int or a tuple of ints. seed_seq hashes the entropy words first
    and the spawn word last, so every trial shares numpy's own ``SeedSequence(entropy).pool``, built
    once here with the spawn word's hash constants; ``rngs`` computes only the spawn word's mixing
    into that pool and generate_state's 8 output words, one uint32 broadcast each."""

    def __init__(self, entropy):
        self.pool = SeedSequence(entropy).pool
        ints = entropy if isinstance(entropy, tuple) else (entropy,)
        words = sum(max(1, -(-int(e).bit_length() // 32)) for e in ints)  # 32-bit entropy words, >= 1 per int
        # the spawn word follows the 4 pool words, 12 pool cross-mixes and 4 per entropy word past the 4th
        first = 16 + 4 * max(0, words - 4)
        self.hashes = np.uint32(_INIT_A * pow(_MULT_A, first, 2**32) % 2**32) * _MULT_A_POWERS

    def rngs(self, trials):
        spawn = _xorshift((np.asarray(trials, dtype=np.uint32)[:, None] ^ self.hashes[:4]) * self.hashes[1:])
        pool = _xorshift(_MIX_MULT_L * self.pool - _MIX_MULT_R * spawn)
        state = _xorshift((pool[:, None, :] ^ _STATE_XOR) * _STATE_MUL)
        # little-endian pairs of output words are PCG64's 4 uint64 seed words
        for row in state.reshape(-1, 8).view("<u8").astype(np.uint64):
            yield Generator(PCG64(_Words(row)))


def _noise(model: PerturbationModel, n: int, rngs) -> np.ndarray:
    """(trials, n, dim) independent per-index noise vectors. Each trial draws from its own generator
    what it would draw alone, so values do not depend on how trials are grouped."""
    draws, uniforms = [], []
    for rng in rngs:
        g = rng.standard_normal((n, model.dim))
        if model.kind == BOUNDED_DISK:
            # essentially impossible, but keeps directions defined: a zero-norm row needs a zero x * x
            while not (g * g).all() and (redo := np.linalg.norm(g, axis=1) == 0).any():
                g[redo] = rng.standard_normal((int(redo.sum()), model.dim))
            uniforms.append(rng.random(n))
        draws.append(g)
    g = np.array(draws)
    if model.kind == GAUSSIAN:
        return g * model.scale
    # uniform on the ball: random direction, radius rho * U^(1/d)
    radii = model.scale * np.array(uniforms) ** (1.0 / model.dim)
    eta = g * (radii / np.linalg.norm(g, axis=2))[..., None]
    # the norm bound is a hard guarantee; nudge any float overshoot back inside
    out_norms = np.linalg.norm(eta, axis=2)
    while (over := out_norms > model.scale).any():
        eta[over] *= np.nextafter(1.0, 0.0)
        out_norms = np.linalg.norm(eta, axis=2)
    return eta


def sample_perturbation(model: PerturbationModel, config: PointConfig, seed) -> PointConfig:
    """One perturbed configuration X' = X + noise with independent per-index noise.

    ``seed`` may be an integer or a numpy Generator. For the bounded-disk
    model every per-point displacement is <= rho without exception.
    """
    if model.dim != config.d:
        raise ValueError(f"model dimension {model.dim} does not match configuration dimension {config.d}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return PointConfig(config.points + _noise(model, config.n, [rng])[0])


def switch_probability_bound(gamma: float, model: PerturbationModel) -> float:
    """Exact tail probability P(norm(noise) >= gamma / 2) for the model.

    Bounded ball: 1 - (gamma / (2 rho))^d for gamma / 2 <= rho, else 0.
    Gaussian: the chi-square upper tail Q(d/2, gamma^2 / (8 sigma^2)), via the
    regularized upper incomplete gamma function.
    """
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    return float(_tail_bounds(np.array([gamma], dtype=float), model)[0][0])


def _tail_bounds(margins: np.ndarray, model: PerturbationModel) -> tuple[np.ndarray, float]:
    """Per-index tail bounds of switch_probability_bound and their total, summed left to right: builtin
    sum() is compensated from Python 3.12 on, so its last bits would depend on the Python version. Powers
    are Python's float ``**`` per element: numpy's array power and x * x differ from it in some last bits."""
    if model.kind == BOUNDED_DISK:
        bounds = np.array([1.0 - r**model.dim if r < 1.0 else 0.0 for r in (margins / (2.0 * model.scale)).tolist()])
    elif model.scale == 0.0:
        bounds = np.zeros(margins.shape)
    else:
        bounds = gammaincc(model.dim / 2.0, np.array([g**2 for g in margins.tolist()]) / (8.0 * model.scale**2))
    bounds[margins == 0.0] = 1.0
    return bounds, float(np.cumsum(bounds)[-1])


def expected_switch_bound(assignment: Assignment, model: PerturbationModel) -> float:
    """Upper bound on the expected number of switched indices.

    Sum over indices of the per-index tail bound; linearity of expectation
    needs no independence beyond what the model already provides.
    """
    return _tail_bounds(assignment.margins, model)[1]


def expected_distance_bound(assignment: Assignment, model: PerturbationModel) -> float:
    """Upper bound min(1, 2/(n-1) * expected switch bound) on E[distance]."""
    return _distance_bound(assignment.n, expected_switch_bound(assignment, model))


def _distance_bound(n: int, switch_bound: float) -> float:
    return min(1.0, (2.0 / (n - 1)) * switch_bound)


# Trials per chunk keep chunk * n * k within this (or one trial). The kernel blocks its own rows, so a chunk
# bounds the (chunk, n, d) noise and the (chunk, n) labels; the value fixes which trials share a chunk.
_CHUNK_ENTRIES = 2**12


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 2**32:
        raise ValueError(f"trials must be <= 2**32, one 32-bit stream key per trial; got {trials}")


def _trial_chunks(config: PointConfig, centers: CenterSet, base: np.ndarray, model, trials: int, entropy):
    """Per chunk of trials, the (chunk, n) 1-based labels of X + noise from each trial t's stream
    ``default_rng(SeedSequence(entropy, spawn_key=(t,)))``, and each trial's partition distance to
    the ``base`` labels. One ``_TrialSeeder`` serves every chunk."""
    n, d = config.points.shape
    size = max(1, _CHUNK_ENTRIES // (n * centers.k))
    seeder = _TrialSeeder(entropy)
    for start in range(0, trials, size):
        noisy = config.points + _noise(model, n, seeder.rngs(range(start, min(start + size, trials))))
        labels = _nearest(noisy.reshape(-1, d), centers.centers, _LABELS)[0].reshape(-1, n)
        yield labels, _label_distance(base, labels)


@dataclass(frozen=True)
class MonteCarloReport:
    """Empirical switching estimates next to their analytic bounds.

    mean_switched_count is defined as the sum of the per-index switch
    frequencies, so the linearity identity between the two holds exactly in
    floating point. trial_switch_counts / trial_distances retain the raw
    per-trial trace for CSV emission.
    """

    trials: int
    seed: int
    model: PerturbationModel
    per_index_switch_frequency: np.ndarray
    mean_switched_count: float
    mean_partition_distance: float
    per_index_bound: np.ndarray
    expected_switch_bound: float
    expected_distance_bound: float
    trial_switch_counts: np.ndarray
    trial_distances: np.ndarray

    @property
    def aggregate_bounds(self) -> tuple[float, float]:
        return (self.expected_switch_bound, self.expected_distance_bound)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "model": self.model.describe(),
            "n": int(self.per_index_switch_frequency.size),
            "per_index_switch_frequency": self.per_index_switch_frequency.tolist(),
            "mean_switched_count": float(self.mean_switched_count),
            "mean_partition_distance": float(self.mean_partition_distance),
            "per_index_bound": self.per_index_bound.tolist(),
            "expected_switch_bound": float(self.expected_switch_bound),
            "expected_distance_bound": float(self.expected_distance_bound),
        }


def monte_carlo(
    config: PointConfig,
    centers: CenterSet,
    model: PerturbationModel,
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Estimate switching behavior over independent perturbation trials.

    Each trial perturbs the configuration, recomputes the nearest-center
    labels, and records the per-index switch indicators, the switched count,
    and the partition distance to the unperturbed partition. Reports are
    bit-reproducible given (seed, trials, model, config, centers).
    """
    _check_trials(trials)
    if model.dim != config.d:
        raise ValueError(f"model dimension {model.dim} does not match configuration dimension {config.d}")
    base = assign_nearest(config, centers)
    switch_counts, trial_switches, trial_dists = np.zeros(config.n, dtype=np.int64), [], []
    for labels, dists in _trial_chunks(config, centers, base.labels, model, trials, seed):
        switched = labels != base.labels
        switch_counts += switched.sum(axis=0)
        trial_switches.append(switched.sum(axis=1))
        trial_dists.append(dists)
    trial_dists = np.concatenate(trial_dists)

    freq = switch_counts / trials
    per_index_bound, total_bound = _tail_bounds(base.margins, model)
    return MonteCarloReport(
        trials=trials,
        seed=seed,
        model=model,
        per_index_switch_frequency=freq,
        mean_switched_count=float(freq.sum()),
        mean_partition_distance=float(trial_dists.mean()),
        per_index_bound=per_index_bound,
        expected_switch_bound=total_bound,
        expected_distance_bound=_distance_bound(config.n, total_bound),
        trial_switch_counts=np.concatenate(trial_switches),
        trial_distances=trial_dists,
    )


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    mean_distance: float
    max_distance: float
    below_threshold: bool


@dataclass(frozen=True)
class SweepResult:
    min_margin: float
    threshold: float
    trials: int
    seed: int
    rows: tuple[SweepRow, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)


def sweep_table(
    config: PointConfig,
    centers: CenterSet,
    grid,
    trials: int,
    seed: int,
) -> SweepResult:
    """Partition-distance statistics under bounded noise of radius epsilon.

    For each epsilon on the grid, runs ``trials`` independent bounded-noise
    perturbations and records the mean and max partition distance. Every
    epsilon strictly below min_margin / 2 is marked; in that region the
    distance is provably zero in every trial.
    """
    grid = [float(e) for e in grid]
    if len(grid) < 2:
        raise ValueError("sweep grid needs at least 2 epsilon values")
    if not all(0 < e < np.inf for e in grid):
        raise ValueError("sweep epsilons must be finite and positive")
    _check_trials(trials)
    base = assign_nearest(config, centers)
    threshold = base.min_margin / 2.0
    rows = []
    for eps in grid:
        model = PerturbationModel.bounded_disk(eps, dim=config.d)
        # keyed by the epsilon value itself (not its grid position), so adding grid points never changes existing rows
        entropy = (seed, int(np.float64(eps).view(np.uint64)))
        chunks = _trial_chunks(config, centers, base.labels, model, trials, entropy)
        dists = np.concatenate([d for _, d in chunks])
        rows.append(
            SweepRow(
                epsilon=eps,
                mean_distance=float(dists.mean()),
                max_distance=float(dists.max()),
                below_threshold=_no_switch(eps, base.min_margin),
            )
        )
    return SweepResult(
        min_margin=base.min_margin,
        threshold=threshold,
        trials=trials,
        seed=seed,
        rows=tuple(rows),
    )
