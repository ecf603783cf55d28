"""Random perturbation models, analytic switching bounds, and Monte Carlo.

Two independent-noise models are supported: uniform on the ball of radius rho
(the planar disk generalized to d dimensions) and isotropic Gaussian with
standard deviation sigma. The switching probability of a point is bounded by
the tail P(norm(noise) >= margin / 2); both tails are evaluated exactly, and
the Monte Carlo estimators exist to be compared against those bounds. Only the
Gaussian tail needs scipy (its regularized incomplete gamma function), and
``_gammaincc`` loads it on the first Gaussian tail bound, not with this module,
from scipy's compiled ufunc extension alone: ``import scipy.special`` would also
load numpy.f2py, numpy.testing and some 280 other modules.

Randomness discipline: one master seed; the stream for trial t is derived
from (seed, t) by seed-sequence splitting, so reports are reproducible
regardless of how trials would be scheduled. ``trial_rng`` defines that
stream. Monte Carlo and sweep derive a whole chunk's PCG64 seed words at once
with ``_TrialSeeder`` and replay the streams in bulk (``_replay``): every trial
of the chunk steps in 128-bit arithmetic on uint64 pairs, and each raw output
becomes the draw the trial's Generator would make, bit for bit. A trial builds
its own Generator only if it makes more than ``_REPLAY_RAWS`` = 24 draws (n d
normals, plus n uniforms for the ball), or if one of its normals is 0 or
leaves the ziggurat's first-raw branch, as about 1.5% of normals do. The
ziggurat's two tables are not copied here: ``_ziggurat`` reads them back from
numpy's own standard_normal, once per process, when a chunk is first
replayed. Trial chunks come from ``geometry._row_blocks`` with n * (k + d)
entries per trial, so the one budget ``_BLOCK_ENTRIES`` bounds both the
kernel's row blocks and a chunk's noise, labels, raws and generators.

Monte Carlo and sweep re-assign only the points that can switch. By the paper's
necessity theorem, noise shorter than a point's switch radius r_i cannot change
its label; ``_certified_radii`` lowers each r_i by a forward error bound of the
float arithmetic, so a row whose noise norm stays below it keeps its base label
bit for bit. ``_noise`` returns those norms with the noise, in one pass per chunk
(the ball takes one more, of its normals). Only the other rows, the candidates,
reach the assignment kernel. The distance kernel gets every trial of a chunk and
counts from its changed labels alone, so a trial with none scores 0 at the cost
of one comparison per point. A sweep row whose epsilon lies below every
certified radius is zero in every trial and draws nothing. Streams, chunks and
reports are those of the unpruned loop.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict, dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .geometry import (
    _LABELS,
    _MAX_COORDINATE,
    _RADII,
    Assignment,
    CenterSet,
    PointConfig,
    _assign,
    _nearest,
    _no_switch,
    _row_blocks,
    _row_norms,
    _squared_distances,
)
from .partitions import _distance_bound, _label_distance

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
        # below the coordinate bound, so noise norms and the squared scale of the tail bounds stay finite
        if self.kind == BOUNDED_DISK and not 0 < self.scale < _MAX_COORDINATE:
            raise ValueError(f"bounded-disk radius must be finite, positive and below 1e150, got {self.scale!r}")
        if self.kind == GAUSSIAN and not 0 <= self.scale < _MAX_COORDINATE:
            raise ValueError(f"gaussian scale must be finite, nonnegative and below 1e150, got {self.scale!r}")

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
    """One chunk's seed source: each ``generate_state`` call hands out the next row of a (trials, 4)
    uint64 array of precomputed state words, PCG64's whole request. PCG64 asks once, when it is built,
    so the chunk's generators share one source, built in order, one row each."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self.rows)


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


class _TrialSeeder:
    """``trial_rng``'s streams for one entropy, in bulk: ``words(trials)`` gives, for each t in ``trials``
    (ints in [0, 2^32)), the four seed words that ``default_rng(SeedSequence(entropy, spawn_key=(t,)))``
    hands its PCG64; ``_generators`` builds those Generators from them, state for state. ``entropy`` is
    an int or a tuple of ints. seed_seq hashes the entropy words first and the spawn word last, so every
    trial shares numpy's own ``SeedSequence(entropy).pool``, built once here with the spawn word's hash
    constants; ``words`` computes only the spawn word's mixing into that pool and generate_state's 8
    output words, one uint32 broadcast each. Monte Carlo and sweep build no Generator for most trials: ``_replay`` steps
    the words' streams itself."""

    def __init__(self, entropy):
        self.pool = SeedSequence(entropy).pool
        ints = entropy if isinstance(entropy, tuple) else (entropy,)
        words = sum(max(1, -(-int(e).bit_length() // 32)) for e in ints)  # 32-bit entropy words, >= 1 per int
        # the spawn word follows the 4 pool words, 12 pool cross-mixes and 4 per entropy word past the 4th
        first = 16 + 4 * max(0, words - 4)
        self.hashes = np.uint32(_INIT_A * pow(_MULT_A, first, 2**32) % 2**32) * _MULT_A_POWERS

    def words(self, trials) -> np.ndarray:
        spawn = _xorshift((np.asarray(trials, dtype=np.uint32)[:, None] ^ self.hashes[:4]) * self.hashes[1:])
        pool = _xorshift(_MIX_MULT_L * self.pool - _MIX_MULT_R * spawn)
        state = _xorshift((pool[:, None, :] ^ _STATE_XOR) * _STATE_MUL)
        # little-endian pairs of output words are PCG64's 4 uint64 seed words
        return state.reshape(-1, 8).view("<u8").astype(np.uint64)


def _generators(words: np.ndarray) -> list:
    """One ``Generator(PCG64)`` per row of the (trials, 4) seed words, all from one ``_Words`` source."""
    source = _Words(words)
    return [Generator(PCG64(source)) for _ in range(len(words))]


# PCG64's 128-bit multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128) as high and low words, and the low word's
# 32-bit limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
_MULT_LIMB0, _MULT_LIMB1 = np.uint64(_PCG_MULT & 2**32 - 1), np.uint64(_PCG_MULT >> 32 & 2**32 - 1)
# shifts and masks as uint64 scalars: numpy converts a Python int operand on every call
_LOW_32, _U1, _U32, _U58, _U63 = np.uint64(2**32 - 1), np.uint64(1), np.uint64(32), np.uint64(58), np.uint64(63)


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """state * multiplier + inc mod 2^128 on uint64 arrays of (high, low) words. The high word of the low
    words' product comes from 32-bit limbs, column by column; no partial sum reaches 2^64. Array arithmetic
    wraps mod 2^64, and numpy warns of that on uint64 scalars only."""
    a0, a1 = lo & _LOW_32, lo >> _U32
    mid = a0 * _MULT_LIMB1 + (a0 * _MULT_LIMB0 >> _U32)
    mid_carry = a1 * _MULT_LIMB0 + (mid & _LOW_32)
    hi = a1 * _MULT_LIMB1 + (mid >> _U32) + (mid_carry >> _U32) + hi * _MULT_LO + lo * _MULT_HI + inc_hi
    lo = lo * _MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _pcg64_seed(words: np.ndarray):
    """(hi, lo, inc_hi, inc_lo) uint64 arrays: the state and increment numpy's PCG64 takes from each row
    (s_hi, s_lo, q_hi, q_lo) of the seed words. pcg64_set_seed sets inc = q << 1 | 1, then the state
    (s + inc) * multiplier + inc: two steps from 0 around the addition of s."""
    s_hi, s_lo, q_hi, q_lo = words.T
    inc_hi, inc_lo = q_hi << _U1 | q_lo >> _U63, q_lo << _U1 | _U1
    lo = s_lo + inc_lo
    return (*_pcg64_step(s_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_raws(words: np.ndarray, count: int) -> np.ndarray:
    """(trials, count) uint64: the first ``count`` outputs of each row's PCG64 (``_pcg64_seed``), as
    ``random_raw`` gives them. An output steps the state, then rotates high ^ low right by the high
    word's top 6 bits (XSL-RR 128/64)."""
    hi, lo, inc_hi, inc_lo = _pcg64_seed(words)
    raws = np.empty((len(words), count), dtype=np.uint64)
    for out in raws.T:
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58
        np.bitwise_or(x >> rot, x << (-rot & _U63), out=out)
    return raws


# numpy's ziggurat for standard_normal (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000), 256 layers. Of a raw r,
# layer idx = r & 0xff, the sign is bit 8 and rabs = r >> 9 over 52 bits. If rabs < ki[idx], the normal is
# +-rabs * wi[idx] from that raw alone; else numpy draws more.
@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """(ki, signed wi): numpy's two tables, read back from its own standard_normal by the first replayed chunk,
    once per process. A private PCG64 whose next two raws are idx | 1 << 9 (rabs 1, sign 0) and 0 draws exactly
    wi[idx]: every layer but 1 accepts that first raw, and layer 1, which never does, accepts its wedge at the
    uniform 0. ki[i] is rint(2^52 wi[i - 1] / wi[i]), layer 0 taken against layer 255, and 0 for layer 1.
    Signed wi is indexed by r & 0x1ff, layer and sign bit."""
    bit_generator = PCG64(0)
    rng, back = Generator(bit_generator), pow(_PCG_MULT, -1, 2**128)

    def normal(raw):
        # state (raw - inc) / multiplier steps to raw, which outputs raw, and inc takes raw to state 0
        inc = -raw * _PCG_MULT % 2**128
        state = {"state": (raw - inc) * back % 2**128, "inc": inc}
        bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        return rng.standard_normal()

    wi = np.array([normal(idx | 1 << 9) for idx in range(256)])
    ki = np.rint(2.0**52 * np.roll(wi, 1) / wi).astype(np.uint64)
    ki[1] = 0
    return ki, np.concatenate([wi, -wi])


# A trial replays its stream if it makes at most this many draws (n d normals, plus n uniforms for the ball). Each
# normal leaves the first-raw branch with probability about 1.5%, so more draws mean more fallbacks as well as more
# steps. On a 2-vCPU x86_64 host, per trial of a full chunk at k = 2, the replay took 0.2-0.8 of the Generators'
# time up to 24 draws, and 0.9-1.1 of it from 28 to 32 draws of Gaussian noise.
_REPLAY_RAWS = 24


def _replay(model: PerturbationModel, n: int, words: np.ndarray):
    """(rngs, replayed), ``_noise``'s arguments for the trials whose PCG64 seed words are the rows of
    ``words``. A trial of at most ``_REPLAY_RAWS`` draws is replayed from its stream's raw outputs: a normal
    is the ziggurat's first-raw value, a uniform (r >> 11) 2^-53, as its Generator would draw them. A trial
    with a normal outside that branch, or of rabs 0, falls back to its own Generator. So no replayed row
    has norm 0, and the ball's zero-norm redraw meets fallback trials only. Returns the fallback trials'
    Generators and, as ``replayed``, the chunk's normals, uniforms and fallback trial indices; above the
    bound, every trial's Generator and None."""
    normals = n * model.dim
    count = normals + (n if model.kind == BOUNDED_DISK else 0)
    if count > _REPLAY_RAWS:
        return _generators(words), None
    raws = _pcg64_raws(words, count)
    zig = raws[:, :normals]
    rabs = zig >> 9 & 2**52 - 1
    ki, signed_wi = _ziggurat()
    fallback = np.flatnonzero(~((0 < rabs) & (rabs < ki[zig & 0xFF])).all(axis=1))
    g = (rabs * signed_wi[zig & 0x1FF]).reshape(len(words), n, model.dim)
    u = (raws[:, normals:] >> 11) * 2.0**-53
    return _generators(words[fallback]), (g, u, fallback)


def _noise(model: PerturbationModel, n: int, rngs, replayed=None) -> tuple[np.ndarray, np.ndarray]:
    """(trials, n, dim) independent per-index noise vectors and their (trials, n) ``_row_norms``. Each trial
    gets the draws it would make alone: its normals, for the ball a redraw of each zero-norm row, then its
    uniforms. So values do not depend on how trials are grouped. Without ``replayed``, generator rngs[t]
    draws trial t; with ``replayed`` = (normals, uniforms, trials) from ``_replay``, the chunk's draws are
    there already and rngs[i] draws only fallback trial trials[i], into that trial's rows. The ball takes its
    normals' norms once, for the zero-norm guard and the directions, re-taking only redrawn rows'. Scale
    and radius are applied in place, in formula order."""
    g, radii, trials = replayed or (np.empty((len(rngs), n, model.dim)), None, range(len(rngs)))
    for rng, t in zip(rngs, trials):
        rng.standard_normal(out=g[t])
    if model.kind == GAUSSIAN:
        eta = np.multiply(g, model.scale, out=g)
        return eta, _row_norms(eta)
    # essentially impossible, but keeps directions defined: a row's norm is 0 iff every x * x is 0
    norms = _row_norms(g)
    for i in np.flatnonzero((norms[trials] == 0).any(axis=1)):
        t, rng = trials[i], rngs[i]
        while (redo := norms[t] == 0).any():
            g[t, redo] = rng.standard_normal((int(redo.sum()), model.dim))
            norms[t, redo] = _row_norms(g[t, redo])
    if radii is None:
        radii = np.empty((len(rngs), n))
    for rng, t in zip(rngs, trials):
        rng.random(out=radii[t])
    # uniform on the ball: random direction g / |g|, radius rho * U^(1/d)
    radii **= 1.0 / model.dim
    radii *= model.scale
    radii /= norms
    eta = np.multiply(g, radii[..., None], out=g)
    # the norm bound is a hard guarantee, in the norm the candidate filter computes; nudge any float overshoot back
    # an ulp at a time; past 64 nudges each doubles, as an ulp may never move a norm whose squares are subnormal
    out_norms, shrink, nudges = _row_norms(eta), 2.0**-53, 0
    while (over := out_norms > model.scale).any():
        eta[over] *= 1.0 - shrink
        nudges += 1
        shrink *= 2.0 if nudges > 64 else 1.0
        out_norms = _row_norms(eta)
    return eta, out_norms


def _check_dim(model: PerturbationModel, config: PointConfig) -> None:
    """The one check that noise and configuration share a dimension."""
    if model.dim != config.d:
        raise ValueError(f"model dimension {model.dim} does not match configuration dimension {config.d}")


def sample_perturbation(model: PerturbationModel, config: PointConfig, seed) -> PointConfig:
    """One perturbed configuration X' = X + noise with independent per-index noise.

    ``seed`` may be an integer or a numpy Generator. For the bounded-disk
    model every per-point displacement is <= rho without exception.
    """
    _check_dim(model, config)
    return PointConfig(config.points + _noise(model, config.n, [np.random.default_rng(seed)])[0][0])


def switch_probability_bound(gamma: float, model: PerturbationModel) -> float:
    """Exact tail probability P(norm(noise) >= gamma / 2) for the model.

    Bounded ball: 1 - (gamma / (2 rho))^d for gamma / 2 <= rho, else 0.
    Gaussian: the chi-square upper tail Q(d/2, gamma^2 / (8 sigma^2)), via the
    regularized upper incomplete gamma function.
    """
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    return float(_tail_bounds(np.array([gamma], dtype=float), model)[0][0])


# the compiled extension that holds scipy.special's gammaincc (and ndtr) ufunc objects
_SPECIAL_UFUNCS = "scipy.special._special_ufuncs"


@cache
def _gammaincc():
    """scipy's regularized upper incomplete gamma ufunc, the very object ``scipy.special.gammaincc`` names.

    Loaded from its extension module without running scipy.special's ``__init__``, whose array-API layer
    clones numpy's namespace: found by a FileFinder over scipy's special/ directory (importlib.util.find_spec
    on the dotted name would import the package), and registered under its own name before it runs, so a
    later ``import scipy.special`` reuses it."""
    module = sys.modules.get(_SPECIAL_UFUNCS)
    if module is None:
        import scipy

        finder = FileFinder(os.path.join(scipy.__path__[0], "special"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        if (spec := finder.find_spec(_SPECIAL_UFUNCS)) is not None:
            module = sys.modules[_SPECIAL_UFUNCS] = module_from_spec(spec)
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_SPECIAL_UFUNCS]
                raise
    if (ufunc := getattr(module, "gammaincc", None)) is None:  # older scipy kept it in the Cython _ufuncs
        from scipy.special import gammaincc as ufunc
    return ufunc


def _tail_bounds(margins: np.ndarray, model: PerturbationModel) -> tuple[np.ndarray, float]:
    """Per-index tail bounds of switch_probability_bound and their total, summed left to right: builtin
    sum() is compensated from Python 3.12 on, so its last bits would depend on the Python version. Powers
    are Python's float ``**`` per element: numpy's array power and x * x differ from it in some last bits."""
    if model.kind == BOUNDED_DISK:
        with np.errstate(over="ignore"):  # a ratio that overflows to inf has the exact tail 0
            ratios = margins / (2.0 * model.scale)
        bounds = np.array([1.0 - r**model.dim if r < 1.0 else 0.0 for r in ratios.tolist()])
    elif model.scale == 0.0:
        bounds = np.zeros(margins.shape)
    else:
        # scipy is loaded here on first use, by _gammaincc; an x that overflows to inf has the exact tail 0
        with np.errstate(over="ignore"):
            if (denominator := 8.0 * model.scale**2) >= np.finfo(float).tiny:
                x = np.array([g**2 for g in margins.tolist()]) / denominator
            else:  # below about 5.3e-155, 8 sigma^2 is subnormal or 0 and rounds coarsely: scale the margins first
                x = (margins / model.scale) ** 2 / 8.0
            bounds = _gammaincc()(model.dim / 2.0, x)
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


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 2**32:
        raise ValueError(f"trials must be <= 2**32, one 32-bit stream key per trial; got {trials}")


# Unit roundoff of float64, and the least gap between two centers for which _certified_radii certifies anything.
_UNIT_ROUNDOFF = 2.0**-53
_MIN_CERTIFIED_GAP = 2.0**-400


def _certified_radii(points: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per point i, r_i - s_i: its switch radius r_i from the kernel (``_RADII``) less a float slack
    s_i. If noise eta has a computed norm (``_row_norms``) below it, the kernel labels fl(x_i + eta)
    as it labels x_i, bit for bit, with no tie that rounding could create.

    s_i = c (d + 2) u (L_i^2 / g + L_i), with u = 2^-53, c = 4, g the least gap between two centers
    and L_i = |x_i| + max(r_i, 0) + max_j |c_j|. L_i bounds |x_i - c_j|, |fl(x_i + eta) - c_j| and
    r_i, since a row below the radius has |eta| < r_i. Let l be the label of x_i, g_j = |c_j - c_l|
    and b = min_j (|x_i - c_j|^2 - |x_i - c_l|^2) / (2 g_j) the exact radius. To first order in u:
    - y = fl(x_i + eta) lies within |eta| + u L of x_i, and the computed norm of eta is within
      (d/2 + 1) u L of |eta|;
    - each squared distance of the kernel is within (d + 2) u of its exact value, relatively (d + 2
      roundings of nonnegative terms, in any summation order). So r_i, a difference of two of them
      over a computed gap within (d/2 + 2) u, lies within (d + 2) u L^2 / g + (d/2 + 4) u L of b;
    - the kernel labels y by l, strictly ahead of every other center, if each computed squared
      distance exceeds the own one by a factor above 1 + 4u: their rounded square roots then differ
      too, so argmin meets no tie. |y - c_j|^2 - |y - c_l|^2 >= 2 g_j (b - |y - x_i|), so
      b - |y - x_i| > (d + 9/2) u L^2 / g suffices;
    - the comparison with fl(r_i - s_i) loses u L more.
    Summed, s_i >= (2d + 13/2) u L^2 / g + (d + 7) u L suffices. c = 3 meets it for every d >= 1, and
    c = 4 leaves room for the second-order terms and for the rounding of L_i, g and s_i themselves.

    Underflow falls outside these relative bounds. L_i >= g / 2, so for g >= 2^-400 its absolute
    errors (below 2^-1074 per square, hence 2^-537 sqrt(d) in a norm) stay far below u L_i. A smaller
    g makes every radius -inf, as does a slack that overflows: every row is then a candidate."""
    gaps = _squared_distances(centers, centers)
    np.fill_diagonal(gaps, np.inf)
    if not (gap := np.sqrt(gaps.min())) >= _MIN_CERTIFIED_GAP:
        return np.full(len(points), -np.inf)
    scale = _row_norms(points) + np.maximum(radii, 0.0) + _row_norms(centers).max()
    with np.errstate(over="ignore"):
        return radii - 4.0 * (points.shape[1] + 2) * _UNIT_ROUNDOFF * (scale * scale / gap + scale)


def _base_pass(config: PointConfig, centers: CenterSet) -> tuple[Assignment, np.ndarray]:
    """The unperturbed assignment and each point's certified radius, from one ``_RADII`` kernel pass."""
    base, radii = _assign(config, centers, _RADII)
    return base, _certified_radii(config.points, centers.centers, radii)


def _trial_chunks(config: PointConfig, centers: CenterSet, base: np.ndarray, reach: np.ndarray, model, trials: int,
                  entropy):
    """Per chunk of trials, the (chunk, n) mask of switched rows, whose 1-based label in X + noise from
    trial t's stream ``default_rng(SeedSequence(entropy, spawn_key=(t,)))`` differs from ``base``, and
    each trial's partition distance to the ``base`` labels. One ``_TrialSeeder`` serves every chunk.
    Chunks are ``_row_blocks`` of the trials at n * (k + d) entries per trial, its n * k (point,
    center) entries and its n * d noise coordinates, so ``_BLOCK_ENTRIES`` bounds a chunk's arrays in
    d as in n, with one trial per chunk once n * (k + d) exceeds it.

    A row (t, i) whose noise norm, as ``_noise`` returns it, is below ``reach[i]`` (``_certified_radii``)
    keeps its base label; the chunk's other rows, its candidates, go to the kernel in one call. The
    kernel works row by row, so the labels are those of the whole chunk's X + noise, bit for bit. The
    chunk's labels go to the distance kernel in one call, which counts from the changed labels alone."""
    n = config.n
    seeder = _TrialSeeder(entropy)
    for rows in _row_blocks(trials, n * (centers.k + config.d)):
        eta, norms = _noise(model, n, *_replay(model, n, seeder.words(range(trials)[rows])))
        labels = np.tile(base, (len(eta), 1))
        trial, point = np.nonzero(~(norms < reach))  # a NaN or inf norm is a candidate too
        if point.size:
            labels[trial, point] = _nearest(config.points[point] + eta[trial, point], centers.centers, _LABELS)[0]
        yield labels != base, _label_distance(base, labels)


@dataclass(frozen=True, eq=False)
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
    _check_dim(model, config)
    base, reach = _base_pass(config, centers)
    switch_counts, trial_switches, trial_dists = np.zeros(config.n, dtype=np.int64), [], []
    for switched, dists in _trial_chunks(config, centers, base.labels, reach, model, trials, seed):
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


def _sweep_grid(grid) -> list[float]:
    """The sweep's epsilons as floats, every value checked before any row is drawn."""
    grid = [float(e) for e in grid]
    if len(grid) < 2:
        raise ValueError("sweep grid needs at least 2 epsilon values")
    if bad := [e for e in grid if not 0 < e < _MAX_COORDINATE]:
        raise ValueError(f"sweep epsilons must be finite, positive and below 1e150, got {bad[0]!r}")
    return grid


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    mean_distance: float
    max_distance: float
    below_threshold: bool


@dataclass(frozen=True)
class SweepResult:
    min_margin: float
    trials: int
    seed: int
    rows: tuple[SweepRow, ...]

    @property
    def threshold(self) -> float:
        """min_margin / 2, the size below which no label can change."""
        return self.min_margin / 2.0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "threshold": self.threshold}


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
    distance is provably zero in every trial. A row whose epsilon lies below
    every point's certified radius is zero in every trial without a draw: the
    noise norm never exceeds epsilon, so no row would reach the kernel.
    """
    grid = _sweep_grid(grid)
    _check_trials(trials)
    base, reach = _base_pass(config, centers)
    rows = []
    for eps in grid:
        mean = peak = 0.0
        if not eps < reach.min():
            model = PerturbationModel.bounded_disk(eps, dim=config.d)
            # keyed by the epsilon value itself (not its grid position), so adding grid points never changes
            # existing rows
            entropy = (seed, int(np.float64(eps).view(np.uint64)))
            chunks = _trial_chunks(config, centers, base.labels, reach, model, trials, entropy)
            dists = np.concatenate([d for _, d in chunks])
            mean, peak = float(dists.mean()), float(dists.max())
        rows.append(SweepRow(epsilon=eps, mean_distance=mean, max_distance=peak,
                             below_threshold=_no_switch(eps, base.min_margin)))
    return SweepResult(min_margin=base.min_margin, trials=trials, seed=seed, rows=tuple(rows))
