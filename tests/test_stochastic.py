import dataclasses
import functools
import json
import math
import operator
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaincc

from margin_guard import (
    Partition,
    PerturbationModel,
    PointConfig,
    assign_nearest,
    expected_distance_bound,
    expected_switch_bound,
    induced_partition,
    monte_carlo,
    partition_distance,
    sample_perturbation,
    sweep_table,
    switch_probability_bound,
    switched_index_distance_bound,
    trial_rng,
)
from margin_guard import CenterSet, geometry, stochastic, two_gaussians
from margin_guard.formats import dump_json
from margin_guard.partitions import _distance_bound, _label_distance
from margin_guard.stochastic import MonteCarloReport, SweepResult, SweepRow, _TrialSeeder, _noise
from conftest import peak_traced_mib


class TestModelValidation:
    def test_bounded_disk_needs_positive_radius(self):
        with pytest.raises(ValueError):
            PerturbationModel.bounded_disk(0.0)
        with pytest.raises(ValueError):
            PerturbationModel.bounded_disk(-1.0)

    def test_gaussian_allows_degenerate_zero(self):
        assert PerturbationModel.gaussian(0.0).scale == 0.0
        with pytest.raises(ValueError):
            PerturbationModel.gaussian(-0.1)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scales_rejected(self, scale):
        with pytest.raises(ValueError, match="finite"):
            PerturbationModel.bounded_disk(scale)
        with pytest.raises(ValueError, match="finite"):
            PerturbationModel.gaussian(scale)

    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e300])
    def test_scales_at_the_coordinate_bound_rejected(self, scale):
        with pytest.raises(ValueError, match="below 1e150"):
            PerturbationModel.bounded_disk(scale)
        with pytest.raises(ValueError, match="below 1e150"):
            PerturbationModel.gaussian(scale)

    @pytest.mark.parametrize("kind", ["gaussian", "bounded_disk"])
    def test_largest_scale_below_the_bound_runs(self, anchored_config, two_centers, kind):
        # noise, labels and tail bounds stay finite without a RuntimeWarning, which pytest makes an error
        model = PerturbationModel(kind=kind, scale=float(np.nextafter(1e150, 0.0)), dim=2)
        report = monte_carlo(anchored_config, two_centers, model, trials=20, seed=0)
        assert np.isfinite(report.per_index_bound).all() and np.isfinite(report.trial_distances).all()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PerturbationModel(kind="laplace", scale=1.0, dim=2)

    def test_dimension_mismatch_rejected(self, anchored_config):
        model = PerturbationModel.bounded_disk(0.1, dim=3)
        with pytest.raises(ValueError, match="dimension"):
            sample_perturbation(model, anchored_config, 0)


class TestSampling:
    def test_bounded_norms_never_exceed_radius(self):
        model = PerturbationModel.bounded_disk(0.37, dim=3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            eta = _noise(model, 100, [rng])[0][0]
            assert (np.linalg.norm(eta, axis=1) <= 0.37).all()

    def test_subnormal_squares_end_the_norm_nudges(self, monkeypatch):
        # rho = 1e-160 in d = 8: every square of this draw's row 5 is subnormal, so its computed norm stayed at
        # 1.00024e-160 under one-ulp nudges, and the draw never returned
        norms, calls = geometry._row_norms, []

        def counted(v):
            calls.append(v.shape)
            assert len(calls) < 1000, "the nudges do not end"
            return norms(v)

        monkeypatch.setattr(stochastic, "_row_norms", counted)
        model = PerturbationModel.bounded_disk(1e-160, dim=8)
        eta = _noise(model, 6, [np.random.default_rng(191)])[0][0]
        assert (norms(eta) <= 1e-160).all()
        assert np.array_equal(eta, noise_one_trial(model, 6, np.random.default_rng(191)))

    def test_gaussian_zero_scale_is_identity(self, anchored_config):
        model = PerturbationModel.gaussian(0.0, dim=2)
        out = sample_perturbation(model, anchored_config, 123)
        assert np.array_equal(out.points, anchored_config.points)

    def test_fixed_seed_reproduces(self, anchored_config):
        model = PerturbationModel.gaussian(0.3, dim=2)
        a = sample_perturbation(model, anchored_config, 99)
        b = sample_perturbation(model, anchored_config, 99)
        assert np.array_equal(a.points, b.points)

    def test_trial_streams_are_stable_and_distinct(self):
        a = trial_rng(7, 0).random(4)
        b = trial_rng(7, 0).random(4)
        c = trial_rng(7, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def assert_numpy_stream(rng, entropy, trial):
    ref = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(trial,)))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
    assert np.array_equal(rng.random(3), ref.random(3))


EDGE_TRIALS = [0, 1, 2**31, 2**32 - 1]
float_bits = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(
    lambda e: int(np.float64(e).view(np.uint64))
)


class TestTrialRngs:
    """The chunk seeder against numpy's own per-trial construction, state for state."""

    @given(
        entropy=st.one_of(st.integers(0, 2**256 - 1), st.tuples(st.integers(0, 2**96), float_bits)),
        extra=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    )
    @example(entropy=0, extra=[])
    @example(entropy=(4, int(np.float64(0.6).view(np.uint64))), extra=[])
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_per_trial(self, entropy, extra):
        trials = EDGE_TRIALS + extra
        for trial, rng in zip(trials, stochastic._generators(_TrialSeeder(entropy).words(trials)), strict=True):
            assert_numpy_stream(rng, entropy, trial)

    # every count of 32-bit entropy words from 1 to 9, where the spawn word's hash constant moves
    @pytest.mark.parametrize(
        "entropy",
        [0, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 - 1, 2**128, 2**160, 2**192, 2**255, 2**256,
         (0, 0), (2**32, 1), (2**64, 2**64 - 1), (0, 0, 0, 0), (1, 2, 3, 4, 5), (2**40, 0, 2**100)],
    )
    def test_every_entropy_word_count(self, entropy):
        for trials in (EDGE_TRIALS, range(2**32 - 3, 2**32)):
            for trial, rng in zip(trials, stochastic._generators(_TrialSeeder(entropy).words(trials)), strict=True):
                assert_numpy_stream(rng, entropy, trial)

    @pytest.mark.parametrize("a, b", [(0, 1), (0, 7), (5, 682), (2**32 - 40, 2**32)])
    def test_the_shared_seed_source_is_asked_once_per_generator(self, monkeypatch, a, b):
        # a numpy release whose PCG64 asked twice would shift every later generator of the chunk by a row
        calls = []
        generate_state = stochastic._Words.generate_state

        def counting(self, *args, **kwargs):
            calls.append(args)
            return generate_state(self, *args, **kwargs)

        monkeypatch.setattr(stochastic._Words, "generate_state", counting)
        rngs = stochastic._generators(_TrialSeeder(3).words(range(a, b)))
        assert len(calls) == len(rngs) == b - a
        for trial, rng in ((a, rngs[0]), (b - 1, rngs[-1])):
            assert rng.bit_generator.state == trial_rng(3, trial).bit_generator.state


U64, U128 = 2**64, 2**128
PCG_MULT = stochastic._PCG_MULT


def words_starting_with(first, second):
    """PCG64 seed words (s_hi, s_lo, q_hi, q_lo), as ``_TrialSeeder.words`` gives them, whose stream's first two
    raw outputs are ``first`` and ``second``, of unequal parity. A state with high word 0 and low word r outputs r,
    so inc takes state r1 to r2, and the seed state s steps back from r1 through pcg64_set_seed's
    (s + inc) * multiplier + inc."""
    inc = (second - first * PCG_MULT) % U128
    assert inc & 1, "the two raws need unequal parity"
    back = pow(PCG_MULT, -1, U128)
    s = (((first - inc) * back - inc) * back - inc) % U128
    return [s // U64, s % U64, (inc >> 1) // U64, (inc >> 1) % U64]


def next_raw_is(bit_generator, raw, inc=1):
    """Set a PCG64 so that its next raw output is ``raw``: its next step lands on state (0, raw)."""
    state = (raw - inc) * pow(PCG_MULT, -1, U128) % U128
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0,
                           "uinteger": 0}


def fallback_trials(make_rng, trials, normals):
    """The trials whose first ``normals`` standard normals do not each take one raw, or include a 0: those the
    replay hands to their Generators (test oracle, from numpy's streams alone)."""
    out = []
    for t in trials:
        rng, ahead = make_rng(t), make_rng(t).bit_generator
        ahead.advance(normals)
        x = rng.standard_normal(normals)
        if rng.bit_generator.state != ahead.state or (x == 0).any():
            out.append(t)
    return out


def replayed_noise(model, n, words):
    return _noise(model, n, *stochastic._replay(model, n, words))


def assert_same_arrays(got, want):
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [(b.dtype, b.shape, b.tobytes()) for b in want]


class TestReplay:
    """The bulk PCG64 replay and its ziggurat against numpy's own streams, bit for bit."""

    @given(
        entropy=st.one_of(st.integers(2**32, 2**256 - 1), st.tuples(st.integers(0, 2**96), float_bits)),
        extra=st.lists(st.integers(0, 2**32 - 1), max_size=6),
        count=st.integers(1, 30),
    )
    @example(entropy=2**32, extra=[], count=1)
    @example(entropy=(0, int(np.float64(0.2).view(np.uint64))), extra=[], count=9)
    @settings(max_examples=100, deadline=None)
    def test_state_inc_and_raws_are_numpys(self, entropy, extra, count):
        trials = EDGE_TRIALS + extra
        words = _TrialSeeder(entropy).words(trials)
        hi, lo, inc_hi, inc_lo = stochastic._pcg64_seed(words)
        raws = stochastic._pcg64_raws(words, count)
        for t, trial in enumerate(trials):
            bit_generator = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(trial,)))
            state = bit_generator.state["state"]
            assert state["state"] == int(hi[t]) * U64 + int(lo[t])
            assert state["inc"] == int(inc_hi[t]) * U64 + int(inc_lo[t])
            assert raws[t].tolist() == bit_generator.random_raw(count).tolist()

    def test_tables_are_numpys(self):
        # numpy's standard normal of one chosen raw: rabs = 1 gives +-wi[idx] exactly, and rabs = ki - 1 against ki
        # brackets the first-raw acceptance, seen by whether the stream moved exactly one raw; so each layer's ki,
        # the rounded ratio of the read-back wi, is checked against numpy's own acceptance
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)

        def normal(raw, inc=1):
            next_raw_is(bit_generator, raw, inc)
            return rng.standard_normal(), bit_generator.state["state"]["state"]

        ki, signed_wi = stochastic._ziggurat()
        assert (ki.dtype, ki.shape, signed_wi.dtype, signed_wi.shape) == (np.uint64, (256,), np.float64, (512,))
        ki, wi = ki.tolist(), signed_wi[:256]
        assert ki.count(0) == 1 and ki[1] == 0  # layer 1 never takes its first raw
        for idx in range(256):
            for sign in (0, 1):
                raw, signed = idx | sign << 8, -wi[idx] if sign else wi[idx]
                if ki[idx] > 1:
                    assert normal(raw | 1 << 9) == (signed, raw | 1 << 9)
                    assert normal(raw | (ki[idx] - 1) << 9) == ((ki[idx] - 1) * signed, raw | (ki[idx] - 1) << 9)
                assert normal(raw | ki[idx] << 9)[1] != raw | ki[idx] << 9
                assert signed_wi[raw] == signed
        # layer 1's wedge test accepts when the next raw is 0, so rabs = 1 then gives wi[1] after two raws
        raw = 1 | 1 << 9
        assert normal(raw, inc=-raw * PCG_MULT % U128) == (wi[1], 0)

    @given(kind=st.sampled_from(["gaussian", "bounded_disk"]), n=st.integers(1, 12), d=st.integers(1, 9),
           entropy=st.integers(0, 2**64), chunks=st.lists(st.integers(1, 40), min_size=1, max_size=4))
    @example(kind="bounded_disk", n=8, d=2, entropy=0, chunks=[30])  # 24 draws a trial: replayed
    @example(kind="bounded_disk", n=5, d=4, entropy=0, chunks=[30])  # 25: every trial builds its Generator
    @example(kind="gaussian", n=8, d=3, entropy=0, chunks=[30])
    @example(kind="gaussian", n=5, d=5, entropy=0, chunks=[30])
    @settings(max_examples=150, deadline=None)
    def test_chunks_match_the_generators(self, kind, n, d, entropy, chunks):
        model = PerturbationModel(kind=kind, scale=0.3, dim=d)
        seeder = _TrialSeeder(entropy)
        starts = np.cumsum([0, *chunks]).tolist()
        want = _noise(model, n, stochastic._generators(seeder.words(range(starts[-1]))))
        got = [replayed_noise(model, n, seeder.words(range(a, b))) for a, b in zip(starts, starts[1:])]
        assert_same_arrays([np.concatenate([chunk[i] for chunk in got]) for i in (0, 1)], want)
        draws = n * d + (n if kind == "bounded_disk" else 0)
        assert (stochastic._replay(model, n, seeder.words(range(3)))[1] is None) == (draws > stochastic._REPLAY_RAWS)

    @pytest.mark.parametrize("kind", ["gaussian", "bounded_disk"])
    def test_forced_fallbacks_match_the_generators(self, kind):
        ki = stochastic._ziggurat()[0].tolist()
        raws = [
            [1 | 5 << 9, 4 | 7 << 9],  # layer 1
            [7 | ki[7] << 9, 8 | 3 << 9],  # rejected on the first raw: numpy draws more
            [2, 3 | 1 << 8],  # rabs 0 twice: the ball's row 0 has norm 0 and is redrawn
            [2, 3 | 5 << 9],  # one normal of rabs 0, which numpy accepts as 0
        ]
        forced = np.array([words_starting_with(*pair) for pair in raws], dtype=np.uint64)
        assert stochastic._pcg64_raws(forced, 2).tolist() == raws
        assert [rng.bit_generator.random_raw(2).tolist() for rng in stochastic._generators(forced)] == raws
        ordinary = _TrialSeeder(5).words(range(40))
        words = np.concatenate([ordinary[:3], forced, ordinary[3:]])
        model, n = PerturbationModel(kind=kind, scale=0.3, dim=2), 3
        rngs, replayed = stochastic._replay(model, n, words)
        oracle = [3, 4, 5, 6] + [t + 4 for t in fallback_trials(lambda t: trial_rng(5, t), range(3, 40), 6)]
        assert replayed[2].tolist() == sorted(oracle) and len(rngs) == len(oracle)
        assert_same_arrays(_noise(model, n, rngs, replayed), _noise(model, n, stochastic._generators(words)))

    def test_tables_are_built_once_and_only_by_a_replayed_chunk(self):
        # a fresh interpreter, so no earlier test has filled the cache: importing the CLI and a sweep at n = 2,000
        # (6,000 draws a trial, every trial on its own Generator) leave it empty; two replayed runs build it once
        script = """if True:
            import json
            import margin_guard.cli
            from margin_guard import PerturbationModel, make_preset, monte_carlo, stochastic, sweep_table
            seen = [stochastic._ziggurat.cache_info()]
            sweep = sweep_table(*make_preset("two_gaussians", n=2000, seed=0), [0.4, 1.0], trials=3, seed=0)
            assert sweep.rows[-1].max_distance > 0  # drawn, not skipped
            seen.append(stochastic._ziggurat.cache_info())
            config, centers = make_preset("near_boundary")
            for seed in (0, 1):
                monte_carlo(config, centers, PerturbationModel.bounded_disk(0.15), trials=50, seed=seed)
            seen.append(stochastic._ziggurat.cache_info())
            print(json.dumps([(info.hits, info.misses, info.currsize) for info in seen]))
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        # each monte_carlo run replays one chunk of 50 trials, so the second takes the tables from the cache
        assert json.loads(done.stdout) == [[0, 0, 0], [0, 0, 0], [1, 1, 1]]

    def test_one_replayed_chunk_stays_within_a_few_budgets(self):
        # n = 3, k = 2, d = 2: the default chunk of 2^16 // 12 = 5,461 trials replays 9 raws each, 49,149 uint64
        # within the block budget; its raws, their ziggurat temporaries, normals and noise take about 2.5 budgets
        model, n = PerturbationModel.bounded_disk(0.3), 3
        trials = len(range(10**5)[next(geometry._row_blocks(10**5, n * (2 + 2)))])
        assert trials * n * (model.dim + 1) <= geometry._BLOCK_ENTRIES
        words = _TrialSeeder(0).words(range(trials))
        peak, (eta, norms) = peak_traced_mib(lambda: replayed_noise(model, n, words))
        assert eta.shape == (trials, n, 2)
        assert peak * 2**20 < 4 * geometry._BLOCK_ENTRIES * 8


class TestSwitchProbabilityBound:
    def test_zero_margin_gives_one(self):
        assert switch_probability_bound(0.0, PerturbationModel.bounded_disk(1.0)) == 1.0
        assert switch_probability_bound(0.0, PerturbationModel.gaussian(1.0)) == 1.0

    def test_disk_area_ratio(self):
        model = PerturbationModel.bounded_disk(1.0, dim=2)
        assert switch_probability_bound(1.0, model) == pytest.approx(0.75)

    def test_ball_general_dimension(self):
        model = PerturbationModel.bounded_disk(1.0, dim=3)
        assert switch_probability_bound(1.0, model) == pytest.approx(1.0 - 0.5**3)

    def test_margin_beyond_noise_support(self):
        model = PerturbationModel.bounded_disk(0.3, dim=2)
        assert switch_probability_bound(0.61, model) == 0.0
        assert switch_probability_bound(0.6, model) == 0.0

    def test_gaussian_closed_form_d2(self):
        model = PerturbationModel.gaussian(1.0, dim=2)
        assert switch_probability_bound(2.0, model) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_gaussian_zero_scale_tail(self):
        model = PerturbationModel.gaussian(0.0, dim=2)
        assert switch_probability_bound(0.5, model) == 0.0

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            switch_probability_bound(-0.1, PerturbationModel.gaussian(1.0))

    def test_monotone_in_margin(self):
        model = PerturbationModel.gaussian(0.5, dim=3)
        values = [switch_probability_bound(g, model) for g in np.linspace(0, 4, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_matches_small_oracle(self):
        # coarse Monte Carlo sanity check; the full grid runs in acceptance
        rng = np.random.default_rng(202)
        model = PerturbationModel.gaussian(0.5, dim=3)
        samples = np.linalg.norm(rng.standard_normal((200_000, 3)) * 0.5, axis=1)
        for gamma in (0.3, 1.0, 2.0):
            estimate = float((samples >= gamma / 2.0).mean())
            bound = switch_probability_bound(gamma, model)
            stderr = math.sqrt(max(bound * (1 - bound), 1e-12) / samples.size)
            assert abs(estimate - bound) <= 4 * stderr + 1e-9


def scalar_tail(gamma, model):
    """One point's tail bound, computed the scalar way: the oracle of the vectorized kernel."""
    if gamma == 0.0:
        return 1.0
    if model.kind == "bounded_disk":
        ratio = gamma / (2.0 * model.scale)
        return 0.0 if ratio >= 1.0 else 1.0 - ratio**model.dim
    if model.scale == 0.0:
        return 0.0
    return float(gammaincc(model.dim / 2.0, gamma**2 / (8.0 * model.scale**2)))


class TestTailKernel:
    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize(
        "kind, scale",
        [("bounded_disk", 0.3), ("bounded_disk", 2.5), ("gaussian", 0.3), ("gaussian", 2.5), ("gaussian", 0.0)],
    )
    def test_bits_match_the_scalar_loop(self, dim, kind, scale):
        # x * x and numpy's array power each miss the bits of Python's x**2 on some of these margins
        model = PerturbationModel(kind, scale, dim)
        rng = np.random.default_rng(dim)
        edge = 2.0 * scale
        special = [0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 5e-324, 1e-300]
        margins = np.concatenate([rng.uniform(0.0, 2.0 * max(edge, 1.0), 6000), rng.exponential(1.0, 2000), special])
        want = np.array([scalar_tail(float(g), model) for g in margins])
        bounds, total = stochastic._tail_bounds(margins, model)
        assert bounds.tobytes() == want.tobytes()
        assert total == functools.reduce(operator.add, want.tolist(), 0.0)
        singles = np.array([switch_probability_bound(float(g), model) for g in margins[-500:]])
        assert singles.tobytes() == want[-500:].tobytes()

    def test_edge_values(self):
        for dim in (1, 2, 5):
            disk, flat = PerturbationModel.bounded_disk(0.25, dim), PerturbationModel.gaussian(0.0, dim)
            margins = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, 0.7])
            assert stochastic._tail_bounds(margins, disk)[0][[0, 2, 3]].tolist() == [1.0, 0.0, 0.0]
            assert 0.0 < stochastic._tail_bounds(margins, disk)[0][1] < 1e-15
            assert stochastic._tail_bounds(np.array([0.0, 5e-324, 1.0]), flat)[0].tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-170, 1.5e-162, 1e-160, 1e-155])
    def test_tiny_sigma_is_finite_and_silent(self, sigma, dim, anchored_config, two_centers):
        # 8 sigma^2 underflows to 0 below about 1.6e-162 and is subnormal just above; the bounds must stay
        # finite without a divide or overflow warning, which the suite turns into an error
        margins = np.array([0.0, 1e-150, 1.0, 1e150])
        assert stochastic._tail_bounds(margins, PerturbationModel.gaussian(sigma, dim))[0].tolist() == [1.0, 0, 0, 0]
        report = monte_carlo(anchored_config, two_centers, PerturbationModel.gaussian(sigma, dim=2), trials=20, seed=0)
        assert report.per_index_bound.tolist() == [0.0, 0.0, 0.0] and report.expected_switch_bound == 0.0
        assert report.per_index_switch_frequency.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_sigma_whose_square_underflows_keeps_the_tail_of_its_scaled_margins(self, dim):
        # the tail depends on margin / sigma only; a margin of the order of sigma keeps its bound
        margins = np.array([0.0, 0.3, 1.0, 2.0, 4.0, 12.0])
        want = stochastic._tail_bounds(margins, PerturbationModel.gaussian(1.0, dim))[0]
        for scale in (1e-200, 1e-170, 1.5e-162):
            got = stochastic._tail_bounds(margins * scale, PerturbationModel.gaussian(scale, dim))[0]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_sigma_whose_square_is_subnormal_bounds_the_true_tail(self, dim):
        # 8 sigma^2 is subnormal for sigma up to about 5.3e-155 and rounds coarsely there; the true tail of a
        # margin m sigma is that of m at sigma = 1 (at margin 2 sigma, d = 2: 0.6065, where 0.5353 was given)
        ratios = np.array([0.3, 1.0, 2.0, 4.0, 8.0])
        true_tail = gammaincc(dim / 2.0, ratios**2 / 8.0)
        for sigma in np.geomspace(1.6e-162, 1.5e-154, 200):
            bounds = stochastic._tail_bounds(ratios * sigma, PerturbationModel.gaussian(float(sigma), dim))[0]
            assert (bounds >= true_tail * (1.0 - 1e-12)).all(), sigma

    def test_nan_margin_rejected(self):
        with pytest.raises(ValueError):
            switch_probability_bound(float("nan"), PerturbationModel.gaussian(1.0))


class TestExpectedBounds:
    def test_supported_noise_below_margins_gives_zero(self, anchored_assignment):
        model = PerturbationModel.bounded_disk(0.09, dim=2)  # 2 rho < 0.2
        assert expected_switch_bound(anchored_assignment, model) == 0.0
        assert expected_distance_bound(anchored_assignment, model) == 0.0

    def test_anchored_config_example(self, anchored_assignment):
        model = PerturbationModel.bounded_disk(0.3, dim=2)
        assert expected_switch_bound(anchored_assignment, model) == pytest.approx(8.0 / 9.0)
        assert expected_distance_bound(anchored_assignment, model) == pytest.approx(8.0 / 9.0)

    def test_all_zero_margins_count_everything(self, two_centers):
        cfg = PointConfig([[0.0, -1.0], [0.0, 0.5], [0.0, 2.0]])
        a = assign_nearest(cfg, two_centers)
        assert a.min_margin == 0.0
        model = PerturbationModel.bounded_disk(0.5, dim=2)
        assert expected_switch_bound(a, model) == 3.0

    def test_distance_bound_is_the_switched_index_bound(self, two_centers):
        # three zero-margin points on the bisector x = 0 and eight far from it: the switch bound is exactly 3,
        # where 2.0 * 3 / 10 and (2.0 / 10) * 3 differ in the last bit
        far = [[x, y] for x in (-3.0, 3.0, -4.0, 4.0) for y in (0.0, 1.0)]
        cfg = PointConfig([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], *far])
        a = assign_nearest(cfg, two_centers)
        model = PerturbationModel.bounded_disk(0.1, dim=2)
        assert expected_switch_bound(a, model) == 3.0
        assert expected_distance_bound(a, model) == switched_index_distance_bound(3, 11)
        assert monte_carlo(cfg, two_centers, model, trials=1, seed=0).expected_distance_bound == \
            switched_index_distance_bound(3, 11)

    def test_distance_bound_caps_at_one(self, two_centers):
        cfg = PointConfig([[0.0, -1.0], [0.0, 1.0]])
        a = assign_nearest(cfg, two_centers)
        model = PerturbationModel.gaussian(1.0, dim=2)
        assert expected_distance_bound(a, model) == 1.0

    def test_total_is_a_left_to_right_sum(self):
        """Python 3.12 made builtin sum() compensated; on this input (the montecarlo
        --preset two_gaussians --n 2000 --sigma 0.3 seed-0 input) it then differs from
        the plain left-to-right sum in the last bit, so a report would depend on the
        Python version."""
        config, centers = two_gaussians(n=2000, seed=0)
        model = PerturbationModel.gaussian(0.3, dim=2)
        a = assign_nearest(config, centers)
        bounds = [switch_probability_bound(float(g), model) for g in a.margins]
        total = functools.reduce(operator.add, bounds, 0.0)
        assert total == 48.903721696181435
        assert expected_switch_bound(a, model) == total
        assert monte_carlo(config, centers, model, trials=1, seed=0).expected_switch_bound == total

    def test_monte_carlo_computes_each_tail_bound_once(self, monkeypatch, anchored_config, two_centers):
        # one gammaincc call over all n margins, and no per-point scalar call
        calls, tail = [], gammaincc

        def counted(a, x):
            calls.append(np.size(x))
            return tail(a, x)

        monkeypatch.setattr(stochastic, "_gammaincc", lambda: counted)
        monkeypatch.setattr(stochastic, "switch_probability_bound", None)
        monte_carlo(anchored_config, two_centers, PerturbationModel.gaussian(0.2, dim=2), trials=2, seed=0)
        assert calls == [anchored_config.n]


# Each runs in a fresh interpreter: this module imports scipy.special, after which _gammaincc takes the ufunc
# from sys.modules. gaussian_run is one Gaussian monte_carlo; each script prints a JSON value.
LOADER_PRELUDE = """if True:
    import json, sys
    from margin_guard import PerturbationModel, make_preset, monte_carlo, stochastic

    def gaussian_run():
        monte_carlo(*make_preset("near_boundary"), PerturbationModel.gaussian(0.1), trials=20, seed=0)
"""
LOADER_SCRIPTS = {
    "extension_first": """
    gaussian_run()
    gaussian_run()
    info = stochastic._gammaincc.cache_info()
    alone = [name in sys.modules for name in (stochastic._SPECIAL_UFUNCS, "scipy.special", "numpy.f2py")]
    import scipy.special
    from scipy.special import _special_ufuncs
    print(json.dumps([info.misses, alone, scipy.special.gammaincc is stochastic._gammaincc(),
                      _special_ufuncs is sys.modules[stochastic._SPECIAL_UFUNCS]]))
""",
    "package_first": """
    import scipy.special
    gaussian_run()
    print(json.dumps(scipy.special.gammaincc is stochastic._gammaincc()))
""",
    "missing_extension": """
    stochastic._SPECIAL_UFUNCS = "scipy.special._no_such_ufuncs"
    gaussian_run()
    import scipy.special
    print(json.dumps([scipy.special.gammaincc is stochastic._gammaincc(), stochastic._SPECIAL_UFUNCS in sys.modules]))
""",
    "failed_load": """
    import scipy  # its own extension modules load before the refusing loader is in place

    def fail(self, module):
        raise ImportError("refused")
    exec_module, stochastic.ExtensionFileLoader.exec_module = stochastic.ExtensionFileLoader.exec_module, fail
    try:
        gaussian_run()
    except ImportError as error:
        refused = [str(error), stochastic._SPECIAL_UFUNCS in sys.modules]
    stochastic.ExtensionFileLoader.exec_module = exec_module
    gaussian_run()
    import scipy.special
    print(json.dumps([refused, scipy.special.gammaincc is stochastic._gammaincc()]))
""",
}


class TestGammainccLoader:
    @pytest.mark.parametrize(("case", "want"), [
        # two runs load the extension once, without scipy.special; a later scipy.special reuses that module
        ("extension_first", [1, [True, False, False], True, True]),
        ("package_first", True),
        # a scipy without the extension: the loader falls back to scipy.special's own name
        ("missing_extension", [True, False]),
        # a load that fails leaves no half-made module behind, and is not cached
        ("failed_load", [["refused", False], True]),
    ])
    def test_fresh_interpreter(self, case, want):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", LOADER_PRELUDE + LOADER_SCRIPTS[case]], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert json.loads(done.stdout) == want


class TestLabelPairDistance:
    def test_matches_partition_distance(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            la = rng.integers(1, 5, n)
            lb = rng.integers(1, 5, n)
            expect = partition_distance(Partition.from_labels(la), Partition.from_labels(lb))
            assert _label_distance(la, lb) == expect

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            partition_distance(Partition.from_labels(np.array([1, 2])), Partition.from_labels(np.array([1, 2, 3])))

    def test_linear_memory_at_n_5000(self):
        rng = np.random.default_rng(45)
        la = rng.integers(1, 5, 5000)
        lb = rng.integers(1, 5, 5000)
        expect = partition_distance(Partition.from_labels(la), Partition.from_labels(lb))
        peak, got = peak_traced_mib(lambda: _label_distance(la, lb))
        assert got == expect
        assert peak < 1.0


class TestPerTrialInvariants:
    def test_necessity_and_hard_bound_every_trial(self, anchored_config, two_centers):
        base = assign_nearest(anchored_config, two_centers)
        model = PerturbationModel.gaussian(0.25, dim=2)
        n = anchored_config.n
        for t in range(500):
            eta = _noise(model, n, [trial_rng(4242, t)])[0][0]
            perturbed = PointConfig(anchored_config.points + eta)
            after = assign_nearest(perturbed, two_centers)
            switched = base.labels != after.labels
            # a switch requires noise at least half the margin, exactly
            norms = np.linalg.norm(eta, axis=1)
            assert (norms[switched] >= base.margins[switched] / 2.0).all()
            # per-trial distance never exceeds the switched-count bound
            d = partition_distance(induced_partition(base), induced_partition(after))
            assert d <= min(1.0, 2.0 * int(switched.sum()) / (n - 1))


class TestMonteCarlo:
    def test_no_switches_when_noise_below_margins(self, anchored_config, two_centers):
        model = PerturbationModel.bounded_disk(0.09, dim=2)
        report = monte_carlo(anchored_config, two_centers, model, trials=300, seed=1)
        assert (report.per_index_switch_frequency == 0.0).all()
        assert report.mean_switched_count == 0.0
        assert report.mean_partition_distance == 0.0
        assert (report.trial_distances == 0.0).all()

    def test_linearity_identity_exact(self, anchored_config, two_centers):
        model = PerturbationModel.gaussian(0.2, dim=2)
        report = monte_carlo(anchored_config, two_centers, model, trials=400, seed=5)
        assert report.mean_switched_count == float(report.per_index_switch_frequency.sum())
        assert ((0.0 <= report.per_index_switch_frequency) & (report.per_index_switch_frequency <= 1.0)).all()

    def test_bit_reproducible(self, anchored_config, two_centers):
        model = PerturbationModel.gaussian(0.1, dim=2)
        a = monte_carlo(anchored_config, two_centers, model, trials=50, seed=9)
        b = monte_carlo(anchored_config, two_centers, model, trials=50, seed=9)
        assert np.array_equal(a.per_index_switch_frequency, b.per_index_switch_frequency)
        assert np.array_equal(a.trial_distances, b.trial_distances)
        assert a.to_json_dict() == b.to_json_dict()

    def test_single_trial_allowed(self, anchored_config, two_centers):
        model = PerturbationModel.bounded_disk(0.01, dim=2)
        report = monte_carlo(anchored_config, two_centers, model, trials=1, seed=0)
        assert report.trials == 1

    def test_trials_validation(self, anchored_config, two_centers):
        model = PerturbationModel.bounded_disk(0.1, dim=2)
        with pytest.raises(ValueError):
            monte_carlo(anchored_config, two_centers, model, trials=0, seed=0)

    def test_more_trials_than_stream_keys_rejected_before_drawing(self, monkeypatch, anchored_config, two_centers):
        monkeypatch.setattr(stochastic, "_TrialSeeder", None)  # any draw would fail with TypeError
        model = PerturbationModel.bounded_disk(0.1, dim=2)
        with pytest.raises(ValueError, match=r"2\*\*32"):
            monte_carlo(anchored_config, two_centers, model, trials=2**32 + 1, seed=0)

    def test_aggregate_bounds_attached(self, anchored_config, two_centers):
        model = PerturbationModel.bounded_disk(0.3, dim=2)
        report = monte_carlo(anchored_config, two_centers, model, trials=100, seed=3)
        assert report.expected_switch_bound == pytest.approx(8.0 / 9.0)
        assert report.expected_distance_bound == pytest.approx(8.0 / 9.0)
        assert report.per_index_bound == pytest.approx([0.0, 0.0, 8.0 / 9.0])


class TestSweep:
    def test_zero_region_below_threshold(self, anchored_config, two_centers):
        # min margin 0.2 -> threshold 0.1; everything below stays at zero
        grid = [0.02, 0.05, 0.09]
        result = sweep_table(anchored_config, two_centers, grid, trials=40, seed=2)
        assert result.threshold == pytest.approx(0.1)
        for row in result.rows:
            assert row.below_threshold
            assert row.mean_distance == 0.0
            assert row.max_distance == 0.0

    def test_rows_marked_against_threshold(self, anchored_config, two_centers):
        result = sweep_table(anchored_config, two_centers, [0.05, 0.5], trials=20, seed=2)
        assert [r.below_threshold for r in result.rows] == [True, False]

    def test_extending_grid_preserves_rows(self, anchored_config, two_centers):
        short = sweep_table(anchored_config, two_centers, [0.05, 0.3], trials=25, seed=6)
        long = sweep_table(anchored_config, two_centers, [0.05, 0.3, 0.7], trials=25, seed=6)
        for a, b in zip(short.rows, long.rows):
            assert a == b

    def test_grid_validation(self, anchored_config, two_centers):
        with pytest.raises(ValueError):
            sweep_table(anchored_config, two_centers, [0.1], trials=10, seed=0)
        with pytest.raises(ValueError):
            sweep_table(anchored_config, two_centers, [0.1, -0.2], trials=10, seed=0)
        with pytest.raises(ValueError):
            sweep_table(anchored_config, two_centers, [0.1, 0.2], trials=0, seed=0)

    @pytest.mark.parametrize("bad", [1e150, 1e160, float("inf"), float("nan")])
    def test_every_epsilon_checked_before_drawing(self, monkeypatch, anchored_config, two_centers, bad):
        monkeypatch.setattr(stochastic, "_TrialSeeder", None)  # any draw would fail with TypeError
        with pytest.raises(ValueError, match=re.escape(f"below 1e150, got {bad!r}")):
            sweep_table(anchored_config, two_centers, [0.1, 0.2, bad], trials=10, seed=0)

    def test_more_trials_than_stream_keys_rejected_before_drawing(self, monkeypatch, anchored_config, two_centers):
        monkeypatch.setattr(stochastic, "_TrialSeeder", None)  # any draw would fail with TypeError
        with pytest.raises(ValueError, match=r"2\*\*32"):
            sweep_table(anchored_config, two_centers, [0.1, 0.2], trials=2**32 + 1, seed=0)

    def test_reproducible(self, anchored_config, two_centers):
        a = sweep_table(anchored_config, two_centers, [0.05, 0.2], trials=10, seed=12)
        b = sweep_table(anchored_config, two_centers, [0.05, 0.2], trials=10, seed=12)
        assert a == b


def noise_one_trial(model, n, rng):
    """One trial's noise exactly as it was drawn before trials ran in chunks (test oracle)."""
    if model.kind == "gaussian":
        return rng.standard_normal((n, model.dim)) * model.scale
    g = rng.standard_normal((n, model.dim))
    norms = np.linalg.norm(g, axis=1)
    while (norms == 0).any():
        redo = norms == 0
        g[redo] = rng.standard_normal((int(redo.sum()), model.dim))
        norms = np.linalg.norm(g, axis=1)
    radii = model.scale * rng.random(n) ** (1.0 / model.dim)
    eta = g * (radii / norms)[:, None]
    out_norms = np.linalg.norm(eta, axis=1)
    factors = [np.nextafter(1.0, 0.0)] * 65 + [1.0 - 2.0**e for e in range(-52, 1)]
    for factor in factors:
        if not (over := out_norms > model.scale).any():
            break
        eta[over] *= factor
        out_norms = np.linalg.norm(eta, axis=1)
    return eta


def disagreements_one_row(a, b):
    """The one-row contingency count used before labels were compared in chunks (test oracle)."""
    counts_a, counts_b = np.bincount(a), np.bincount(b)
    _, joint = np.unique(a * counts_b.size + b, return_counts=True)
    return int(counts_a @ counts_a + counts_b @ counts_b - 2 * (joint @ joint)) // 2


def per_trial_loop(config, centers, model, trials, make_rng):
    """(switch indicators, distances) of each trial, one trial at a time (test oracle)."""
    base = assign_nearest(config, centers).labels
    switched, dists = [], []
    for t in range(trials):
        noisy = PointConfig(config.points + noise_one_trial(model, config.n, make_rng(t)))
        labels = assign_nearest(noisy, centers).labels
        switched.append(labels != base)
        dists.append(disagreements_one_row(base, labels) / (config.n * (config.n - 1) // 2))
    return np.array(switched), np.array(dists)


def _sweep_rng(seed, epsilon, trial):
    """One sweep trial's stream, keyed by (seed, float64 bits of epsilon) (test oracle)."""
    eps_bits = int(np.float64(epsilon).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, eps_bits), spawn_key=(trial,)))


def random_setup(n, d, k=3):
    rng = np.random.default_rng(100 * n + d)
    return PointConfig(rng.uniform(-1.5, 1.5, (n, d))), CenterSet(rng.uniform(-1.0, 1.0, (k, d)))


def set_trials_per_chunk(monkeypatch, per_chunk, config, centers):
    """Trial chunks of ``per_chunk`` trials, through the one block budget of n * (k + d) entries per trial."""
    if per_chunk is not None:  # None keeps the default chunk size
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", per_chunk * config.n * (centers.k + config.d))


class ZeroNormRowGenerator:
    """A generator whose first ``zero_draws`` normal draws each have a row of norm 0 (row 1 of the first
    draw, row 0 of a redraw): all zeros, or values whose squares underflow."""

    def __init__(self, seed, fill, zero_draws=1):
        self.rng = np.random.default_rng(seed)
        self.fill = fill
        self.zero_draws = zero_draws
        self.normal_draws = 0

    def standard_normal(self, size=None, out=None):
        g = self.rng.standard_normal(size, out=out)
        if self.normal_draws < self.zero_draws:
            g[1 if self.normal_draws == 0 else 0] = self.fill
        self.normal_draws += 1
        return g

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)


class TestChunkedTrialsMatchPerTrialLoop:
    """Chunked trials against a copy of the one-trial-at-a-time loop, bit for bit."""

    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["gaussian", "bounded_disk"])
    def test_monte_carlo(self, monkeypatch, kind, d, n, per_chunk):
        config, centers = random_setup(n, d)
        model = PerturbationModel(kind=kind, scale=0.3, dim=d)
        trials = 9 if n == 2000 else 30
        set_trials_per_chunk(monkeypatch, per_chunk, config, centers)
        report = monte_carlo(config, centers, model, trials=trials, seed=11)
        switched, dists = per_trial_loop(config, centers, model, trials, lambda t: trial_rng(11, t))
        assert np.array_equal(report.trial_switch_counts, switched.sum(axis=1))
        assert np.array_equal(report.per_index_switch_frequency, switched.sum(axis=0) / trials)
        assert np.array_equal(report.trial_distances, dists)
        assert report.mean_partition_distance == float(dists.mean())

    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_sweep_table(self, monkeypatch, d, n, per_chunk):
        config, centers = random_setup(n, d)
        trials = 9 if n == 2000 else 30
        set_trials_per_chunk(monkeypatch, per_chunk, config, centers)
        result = sweep_table(config, centers, [0.1, 0.6], trials=trials, seed=4)
        for row in result.rows:
            model = PerturbationModel.bounded_disk(row.epsilon, dim=d)
            _, dists = per_trial_loop(config, centers, model, trials, lambda t: _sweep_rng(4, row.epsilon, t))
            assert (row.mean_distance, row.max_distance) == (float(dists.mean()), float(dists.max()))

    def test_switches_happen_in_these_inputs(self):
        config, centers = random_setup(50, 2)
        switched, dists = per_trial_loop(config, centers, PerturbationModel.gaussian(0.3, 2), 30, lambda t: trial_rng(11, t))
        assert switched.any() and (dists > 0).any()

    @pytest.mark.parametrize("fill", [0.0, 1e-200])
    def test_zero_norm_rows_are_redrawn_from_their_own_stream(self, fill):
        model = PerturbationModel.bounded_disk(0.5, dim=3)
        streams = lambda: [trial_rng(1, 0), ZeroNormRowGenerator(8, fill), trial_rng(1, 2)]  # noqa: E731
        chunk = _noise(model, 6, streams())[0]
        assert np.array_equal(chunk, np.array([noise_one_trial(model, 6, rng) for rng in streams()]))
        stub = ZeroNormRowGenerator(8, fill)
        _noise(model, 6, [stub])
        assert stub.normal_draws == 2  # the first draw, then one redraw of the row
        assert np.isfinite(chunk).all() and (np.linalg.norm(chunk, axis=2) > 0).all()

    @pytest.mark.parametrize("fill", [0.0, 1e-200])
    def test_two_flagged_trials_in_one_chunk(self, fill):
        model = PerturbationModel.bounded_disk(0.5, dim=3)
        streams = lambda: [  # noqa: E731
            trial_rng(1, 0), ZeroNormRowGenerator(8, fill), trial_rng(1, 2), ZeroNormRowGenerator(9, fill),
            trial_rng(1, 4),
        ]
        chunk_streams = streams()
        chunk = _noise(model, 6, chunk_streams)[0]
        assert np.array_equal(chunk, np.array([noise_one_trial(model, 6, rng) for rng in streams()]))
        assert [chunk_streams[t].normal_draws for t in (1, 3)] == [2, 2]

    @pytest.mark.parametrize("fill", [0.0, 1e-200])
    def test_a_redrawn_row_with_norm_0_is_redrawn_again(self, fill):
        model = PerturbationModel.bounded_disk(0.5, dim=3)
        streams = lambda: [trial_rng(1, 0), ZeroNormRowGenerator(8, fill, zero_draws=2)]  # noqa: E731
        chunk_streams = streams()
        chunk = _noise(model, 6, chunk_streams)[0]
        assert np.array_equal(chunk, np.array([noise_one_trial(model, 6, rng) for rng in streams()]))
        assert chunk_streams[1].normal_draws == 3  # the first draw, then two redraws of the row


def unpruned_chunks(config, centers, base, model, trials, entropy):
    """Every row of every chunk through the kernel, and every trial through the distance kernel: the
    chunked trial loop before candidate pruning (test oracle)."""
    n, d = config.points.shape
    seeder = _TrialSeeder(entropy)
    for rows in geometry._row_blocks(trials, n * (centers.k + d)):
        noisy = config.points + _noise(model, n, stochastic._generators(seeder.words(range(trials)[rows])))[0]
        labels = geometry._nearest(noisy.reshape(-1, d), centers.centers, geometry._LABELS)[0].reshape(-1, n)
        yield labels, _label_distance(base, labels)


def unpruned_monte_carlo(config, centers, model, trials, seed):
    """monte_carlo before candidate pruning (test oracle)."""
    base = assign_nearest(config, centers)
    chunks = list(unpruned_chunks(config, centers, base.labels, model, trials, seed))
    switched = np.concatenate([labels for labels, _ in chunks]) != base.labels
    dists = np.concatenate([d for _, d in chunks])
    freq = switched.sum(axis=0) / trials
    bounds, total = stochastic._tail_bounds(base.margins, model)
    return MonteCarloReport(
        trials=trials, seed=seed, model=model, per_index_switch_frequency=freq, mean_switched_count=float(freq.sum()),
        mean_partition_distance=float(dists.mean()), per_index_bound=bounds, expected_switch_bound=total,
        expected_distance_bound=_distance_bound(config.n, total), trial_switch_counts=switched.sum(axis=1),
        trial_distances=dists,
    )


def unpruned_sweep(config, centers, grid, trials, seed):
    """sweep_table before candidate pruning and row skipping (test oracle)."""
    base = assign_nearest(config, centers)
    rows = []
    for eps in grid:
        model = PerturbationModel.bounded_disk(eps, dim=config.d)
        entropy = (seed, int(np.float64(eps).view(np.uint64)))
        dists = np.concatenate([d for _, d in unpruned_chunks(config, centers, base.labels, model, trials, entropy)])
        rows.append(SweepRow(eps, float(dists.mean()), float(dists.max()), geometry._no_switch(eps, base.min_margin)))
    return SweepResult(base.min_margin, trials, seed, tuple(rows))


def assert_same_report(got, want):
    """Every field equal bit for bit, arrays with their dtypes."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        else:
            assert (type(a), a) == (type(b), b), field.name
    assert dump_json(got.to_json_dict()) == dump_json(want.to_json_dict())


# noise scales relative to the coordinate scale, and absolute ones at the extremes
RELATIVE_NOISE = [1e-16, 1e-9, 1e-3, 0.05, 0.3, 2.0]
ABSOLUTE_NOISE = [1e-300, 1e-160, 1e140]


@st.composite
def pruning_cases(draw):
    """(config, centers, noise scales) with d in both summation branches of the kernel, k > n, duplicate
    points, points exactly on a bisector, and points 0, 1e-16 or 1e-14 scale off one at scales 1e0 to 1e8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3, 8, 9]))
    n, k = draw(st.integers(2, 7)), draw(st.integers(2, 6))
    scale = 10.0 ** draw(st.integers(0, 8))
    centers = rng.uniform(-scale, scale, (k, d))
    points = rng.uniform(-1.5 * scale, 1.5 * scale, (n, d))
    layout = draw(st.sampled_from(["random", "duplicates", "tie", "near_bisector"]))
    if layout == "duplicates":
        points[n // 2:] = points[: n - n // 2]
    elif layout == "tie":  # centers 1 and 2 mirror each other in coordinate 0, and the points sit on that plane
        centers[0, 0] = scale
        centers[1] = centers[0] * np.where(np.arange(d) == 0, -1.0, 1.0)
        points[:, 0] = 0.0
    elif layout == "near_bisector":  # ROADMAP item 1's construction
        axis = (centers[1] - centers[0]) / np.linalg.norm(centers[1] - centers[0])
        across = rng.normal(size=(n, d)) * scale
        across -= (across @ axis)[:, None] * axis
        off = draw(st.sampled_from([0.0, 1e-16, 1e-14]))
        points = (centers[0] + centers[1]) / 2.0 + across + off * scale * rng.choice([-1.0, 1.0], (n, 1)) * axis
    noise = draw(st.lists(st.one_of(st.sampled_from(RELATIVE_NOISE).map(lambda r: r * scale),
                                    st.sampled_from(ABSOLUTE_NOISE)), min_size=2, max_size=3))
    return PointConfig(points), CenterSet(centers), noise


class TestCandidatePruningMatchesTheUnprunedLoop:
    """monte_carlo and sweep_table against the loop that sends every row to the kernel, bit for bit."""

    @given(case=pruning_cases(), kind=st.sampled_from(["gaussian", "bounded_disk"]), trials=st.integers(1, 12),
           per_chunk=st.sampled_from([1, 3, None]), seed=st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_monte_carlo(self, case, kind, trials, per_chunk, seed):
        config, centers, noise = case
        model = PerturbationModel(kind=kind, scale=noise[0], dim=config.d)
        entries = per_chunk * config.n * (centers.k + config.d) if per_chunk else geometry._BLOCK_ENTRIES
        with mock.patch.object(geometry, "_BLOCK_ENTRIES", entries):
            got = monte_carlo(config, centers, model, trials=trials, seed=seed)
            want = unpruned_monte_carlo(config, centers, model, trials, seed)
        assert_same_report(got, want)

    @given(case=pruning_cases(), trials=st.integers(1, 12), per_chunk=st.sampled_from([1, 3, None]),
           seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_sweep_table(self, case, trials, per_chunk, seed):
        config, centers, grid = case
        entries = per_chunk * config.n * (centers.k + config.d) if per_chunk else geometry._BLOCK_ENTRIES
        with mock.patch.object(geometry, "_BLOCK_ENTRIES", entries):
            got = sweep_table(config, centers, grid, trials=trials, seed=seed)
            want = unpruned_sweep(config, centers, grid, trials, seed)
        assert got == want
        assert_same_report(got, want)

    def test_centers_closer_than_the_certified_gap_send_every_row(self):
        # 2^-400 is about 3.9e-121: below it no radius is certified, and every row goes to the kernel
        config = PointConfig([[0.0, 0.0], [2e-122, 1e-122], [5e-123, 0.0]])
        centers = CenterSet([[0.0, 0.0], [1e-121, 0.0], [1.0, 1.0]])
        base, radii = geometry._assign(config, centers, geometry._RADII)
        assert (radii > 0).all()
        assert (stochastic._certified_radii(config.points, centers.centers, radii) == -np.inf).all()
        for model in (PerturbationModel.gaussian(1e-122), PerturbationModel.bounded_disk(1e-125)):
            assert_same_report(monte_carlo(config, centers, model, trials=20, seed=1),
                               unpruned_monte_carlo(config, centers, model, 20, 1))


class TestCertifiedRadii:
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3, 8, 9]), k=st.integers(2, 6),
           exponent=st.integers(-100, 100), off=st.sampled_from([1e-15, 1e-12, 1e-8, 1e-3, 0.1]))
    @settings(max_examples=300, deadline=None)
    def test_noise_just_below_the_radius_keeps_the_label(self, seed, d, k, exponent, off):
        # the worst direction: straight at the nearest bisector, with the longest norm the filter lets through
        rng = np.random.default_rng(seed)
        scale = 2.0**exponent
        centers = CenterSet(rng.uniform(-scale, scale, (k, d)))
        c = centers.centers
        points = (c[0] + c[1]) / 2.0 + off * scale * (c[0] - c[1]) + rng.normal(size=(6, d)) * scale * 1e-3
        base, radii = geometry._assign(PointConfig(points), centers, geometry._RADII)
        reach = stochastic._certified_radii(points, c, radii)
        for i in np.flatnonzero(reach > 0):
            bisector = geometry._nearest(points[i:i + 1], c, geometry._BISECTORS)[2][0]
            toward = c[np.argmin(bisector)] - c[base.labels[i] - 1]
            eta = toward * (reach[i] / np.linalg.norm(toward))
            while not geometry._row_norms(eta) < reach[i]:
                eta *= np.nextafter(1.0, 0.0)
            assert geometry._nearest((points[i] + eta)[None, :], c, geometry._LABELS)[0][0] == base.labels[i]

    def test_slack_is_below_a_part_in_1e13_of_unit_scale_inputs(self, anchored_config, two_centers):
        base, radii = geometry._assign(anchored_config, two_centers, geometry._RADII)
        reach = stochastic._certified_radii(anchored_config.points, two_centers.centers, radii)
        assert ((radii - reach > 0) & (radii - reach < 1e-13)).all()

    def test_every_row_is_a_candidate_near_a_bisector_at_coordinates_near_1e8(self):
        rng = np.random.default_rng(7)
        centers = rng.uniform(-1e8, 1e8, (3, 2))
        axis = (centers[1] - centers[0]) / np.linalg.norm(centers[1] - centers[0])
        across = np.outer(rng.normal(size=20), [-axis[1], axis[0]])
        points = (centers[0] + centers[1]) / 2.0 + 1e-16 * 1e8 * axis + across
        base, radii = geometry._assign(PointConfig(points), CenterSet(centers), geometry._RADII)
        assert (stochastic._certified_radii(points, centers, radii) < 0).all()


class CountingGenerator:
    """A trial's Generator that counts its draw calls by method name (test spy)."""

    def __init__(self, bit_generator):
        self.rng = np.random.Generator(bit_generator)
        self.calls = Counter()

    def standard_normal(self, size=None, out=None):
        self.calls["standard_normal"] += 1
        return self.rng.standard_normal(size, out=out)

    def random(self, size=None, out=None):
        self.calls["random"] += 1
        return self.rng.random(size, out=out)


class TestChunkedTrialsWork:
    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        fn = getattr(stochastic, name)

        def counting(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(stochastic, name, counting)
        return calls

    @staticmethod
    def record_chunks(monkeypatch):
        """The trial range of every chunk a seeder is asked for."""
        chunks = []
        words = stochastic._TrialSeeder.words

        def recording(self, trials):
            chunks.append(trials)
            return words(self, trials)

        monkeypatch.setattr(stochastic._TrialSeeder, "words", recording)
        return chunks

    @staticmethod
    def record_fallbacks(monkeypatch):
        """Per chunk, the indices of the trials that ``_replay`` hands to their Generators."""
        fallbacks = []
        replay = stochastic._replay

        def recording(*args):
            rngs, replayed = replay(*args)
            fallbacks.append(replayed[2].tolist())
            return rngs, replayed

        monkeypatch.setattr(stochastic, "_replay", recording)
        return fallbacks

    @pytest.mark.parametrize("per_chunk, chunks", [(None, 1), (7, 8), (1, 50)])
    def test_one_distance_table_per_chunk(self, monkeypatch, anchored_config, two_centers, per_chunk, chunks):
        # the labels-only kernel gets exactly the chunk's candidate rows, in one call or none, and the
        # distance kernel the whole chunk's labels against the base, in one call per chunk
        chunk_trials = self.record_chunks(monkeypatch)
        fallbacks = self.record_fallbacks(monkeypatch)
        rngs = self.count_calls(monkeypatch, "trial_rng")
        seeders = self.count_calls(monkeypatch, "_TrialSeeder")
        seed_sequences = self.count_calls(monkeypatch, "SeedSequence")
        streams = self.count_calls(monkeypatch, "Generator")
        tables = self.count_calls(monkeypatch, "_nearest")
        distances = self.count_calls(monkeypatch, "_label_distance")
        set_trials_per_chunk(monkeypatch, per_chunk, anchored_config, two_centers)
        model = PerturbationModel.bounded_disk(0.3)
        report = monte_carlo(anchored_config, two_centers, model, trials=50, seed=1)
        assert len(rngs) == 0
        size = per_chunk or 50
        assert seeders == [(1,)]
        chunk_ranges = [range(start, min(start + size, 50)) for start in range(0, 50, size)]
        assert chunk_trials == chunk_ranges and len(chunk_ranges) == chunks
        assert len(seed_sequences) == 1  # one shared pool per run, whatever the chunk count
        # 9 draws a trial: every chunk replays, and only the trials whose normals leave the replay build a Generator
        fallback = fallback_trials(lambda t: trial_rng(1, t), range(50), 6)
        assert [chunk[i] for chunk, indices in zip(chunk_trials, fallbacks) for i in indices] == fallback == [46]
        assert len(streams) == len(fallback)

        # radii (1, 1, 0.1) against noise norms up to 0.3: only the third point's longer draws can switch
        points = anchored_config.points
        eta = np.array([noise_one_trial(model, 3, trial_rng(1, t)) for t in range(50)])
        candidate = np.linalg.norm(eta, axis=2) >= np.array([1.0, 1.0, 0.1]) - 1e-13
        assert not candidate[:, :2].any() and 0 < candidate[:, 2].sum() < 50
        assert np.concatenate([p for p, _, _ in tables]).tobytes() == (points + eta)[candidate].tobytes()
        assert [len(p) for p, _, _ in tables] == [candidate[c].sum() for c in chunk_ranges if candidate[c].any()]
        assert all(want == geometry._LABELS for _, _, want in tables)
        moved = report.trial_switch_counts > 0
        assert 0 < moved.sum() < candidate.sum()
        base = assign_nearest(anchored_config, two_centers).labels
        assert all(np.array_equal(labels, base) for labels, _ in distances)
        assert [rows.shape for _, rows in distances] == [(len(c), 3) for c in chunk_ranges]
        changed = np.concatenate([rows for _, rows in distances]) != base
        assert changed.sum(axis=1).tolist() == report.trial_switch_counts.tolist()
        assert (report.trial_distances[~moved] == 0.0).all() and (report.trial_distances[moved] > 0.0).all()

    def test_sweep_draws_each_trial_once(self, monkeypatch, anchored_config, two_centers):
        # the 0.05 row lies below every certified radius (about 0.1, 1, 1): it makes no seeder, stream or draw
        chunk_trials = self.record_chunks(monkeypatch)
        fallbacks = self.record_fallbacks(monkeypatch)
        seeders = self.count_calls(monkeypatch, "_TrialSeeder")
        seed_sequences = self.count_calls(monkeypatch, "SeedSequence")
        streams = self.count_calls(monkeypatch, "Generator")
        draws = self.count_calls(monkeypatch, "_noise")
        tables = self.count_calls(monkeypatch, "_nearest")
        set_trials_per_chunk(monkeypatch, 7, anchored_config, two_centers)
        result = sweep_table(anchored_config, two_centers, [0.05, 0.2, 0.5], trials=40, seed=2)
        chunks = [range(start, min(start + 7, 40)) for start in range(0, 40, 7)]
        assert seeders == [((2, int(np.float64(e).view(np.uint64))),) for e in (0.2, 0.5)]
        assert chunk_trials == 2 * chunks
        assert len(seed_sequences) == 2  # one shared pool per drawn epsilon row, whatever the chunk count
        # every chunk replays; a Generator only for each trial whose normals leave the replay
        fallback = [fallback_trials(lambda t: _sweep_rng(2, e, t), range(40), 6) for e in (0.2, 0.5)]
        assert [chunk[i] for chunk, indices in zip(chunk_trials, fallbacks) for i in indices] == sum(fallback, [])
        assert len(streams) == len(sum(fallback, [])) == 8
        assert len(draws) == 2 * len(chunks)
        assert 0 < len(tables) <= 2 * len(chunks)
        assert all(want == geometry._LABELS for _, _, want in tables)
        assert result.rows[0] == SweepRow(0.05, 0.0, 0.0, True)
        assert result == unpruned_sweep(anchored_config, two_centers, [0.05, 0.2, 0.5], 40, 2)

    @pytest.mark.parametrize("model, draws", [
        (PerturbationModel.bounded_disk(0.3), {"standard_normal": 1, "random": 1}),
        (PerturbationModel.gaussian(0.3), {"standard_normal": 1}),
    ])
    def test_two_draws_per_ball_trial_and_one_per_gaussian_trial(
            self, monkeypatch, anchored_config, two_centers, model, draws):
        # each trial that falls back to its Generator makes the draws it would make alone
        expected = monte_carlo(anchored_config, two_centers, model, trials=1500, seed=5)
        chunk_trials = self.record_chunks(monkeypatch)
        fallbacks = self.record_fallbacks(monkeypatch)
        streams = []

        def counting(bit_generator):
            streams.append(CountingGenerator(bit_generator))
            return streams[-1]

        monkeypatch.setattr(stochastic, "Generator", counting)
        report = monte_carlo(anchored_config, two_centers, model, trials=1500, seed=5)
        assert chunk_trials == [range(1500)[rows] for rows in geometry._row_blocks(1500, 3 * (2 + 2))]  # n, k, d
        fallback = fallback_trials(lambda t: trial_rng(5, t), range(1500), 6)
        assert [chunk[i] for chunk, indices in zip(chunk_trials, fallbacks) for i in indices] == fallback
        assert len(streams) == len(fallback) == 144  # 1,356 trials replayed
        assert all(stream.calls == draws for stream in streams)
        assert np.array_equal(report.trial_distances, expected.trial_distances)

    @pytest.mark.parametrize("model, passes", [(PerturbationModel.bounded_disk(0.3), 2), (PerturbationModel.gaussian(0.3), 1)])
    def test_two_norm_passes_per_ball_chunk_and_one_per_gaussian_chunk(
            self, monkeypatch, anchored_config, two_centers, model, passes):
        # the ball takes the normals' norms and the noise's, the Gaussian the noise's; the candidate filter
        # reads the noise's norms as the draw returns them. Trials that fall back to their Generators draw
        # into the chunk's normals before its norm pass, so they take none of their own
        expected = monte_carlo(anchored_config, two_centers, model, trials=50, seed=5)
        chunk_trials = self.record_chunks(monkeypatch)
        fallbacks = self.record_fallbacks(monkeypatch)
        norms = self.count_calls(monkeypatch, "_row_norms")
        set_trials_per_chunk(monkeypatch, 7, anchored_config, two_centers)
        report = monte_carlo(anchored_config, two_centers, model, trials=50, seed=5)
        assert len(chunk_trials) == 8
        assert [chunk[i] for chunk, indices in zip(chunk_trials, fallbacks) for i in indices] == [10, 13, 47]
        chunk_shapes = [(len(trials), 3, 2) for trials in chunk_trials for _ in range(passes)]
        assert [v.shape for (v,) in norms if v.ndim == 3] == chunk_shapes
        assert [v.shape for (v,) in norms if v.ndim != 3] == [(3, 2), (2, 2)]  # the certified radii's points, centers
        assert report.to_json_dict() == expected.to_json_dict()
        assert np.array_equal(report.trial_distances, expected.trial_distances)

    def test_ball_noise_holds_no_chunk_sized_square(self):
        # at d = 4: the normals (d units of trials x n floats), their norms, the radii and the two (trials, n)
        # temporaries of a norm pass, 8 units; a chunk-sized g * g for the zero-norm test took 3 more
        model, trials, n = PerturbationModel.bounded_disk(0.3, dim=4), 20, 500
        rngs = lambda: [trial_rng(2, t) for t in range(trials)]  # noqa: E731
        peak, (eta, norms) = peak_traced_mib(lambda: _noise(model, n, rngs()))
        assert peak * 2**20 < (model.dim + 5) * trials * n * 8
        assert norms.tobytes() == geometry._row_norms(eta).tobytes()

    def test_memory_stays_small_over_many_trials(self):
        config, centers = two_gaussians(n=200, seed=3)
        model = PerturbationModel.bounded_disk(0.3, dim=2)
        peak, report = peak_traced_mib(lambda: monte_carlo(config, centers, model, trials=5000, seed=0))
        assert report.trial_distances.size == 5000
        assert peak < 4.0

    @pytest.mark.parametrize("kind", ["gaussian", "bounded_disk"])
    def test_chunk_memory_is_bounded_in_d(self, kind):
        # a trial's n * d noise coordinates count against the block budget: at n = 10, k = 2, d = 256 a chunk
        # holds 25 trials, about 0.5 MiB of noise
        config, centers = random_setup(10, 256, k=2)
        model = PerturbationModel(kind=kind, scale=0.3, dim=256)
        monte_carlo(config, centers, model, trials=1, seed=0)  # scipy's first import stays out of the trace
        peak, report = peak_traced_mib(lambda: monte_carlo(config, centers, model, trials=500, seed=0))
        assert report.trial_distances.size == 500
        assert peak < 4.0
