import functools
import math
import operator

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
    trial_rng,
)
from margin_guard import CenterSet, geometry, stochastic, two_gaussians
from margin_guard.partitions import _label_distance
from margin_guard.stochastic import _TrialSeeder, _noise
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
            eta = _noise(model, 100, [rng])[0]
            assert (np.linalg.norm(eta, axis=1) <= 0.37).all()

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
        for trial, rng in zip(trials, _TrialSeeder(entropy).rngs(trials), strict=True):
            assert_numpy_stream(rng, entropy, trial)

    # every count of 32-bit entropy words from 1 to 9, where the spawn word's hash constant moves
    @pytest.mark.parametrize(
        "entropy",
        [0, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 - 1, 2**128, 2**160, 2**192, 2**255, 2**256,
         (0, 0), (2**32, 1), (2**64, 2**64 - 1), (0, 0, 0, 0), (1, 2, 3, 4, 5), (2**40, 0, 2**100)],
    )
    def test_every_entropy_word_count(self, entropy):
        for trials in (EDGE_TRIALS, range(2**32 - 3, 2**32)):
            for trial, rng in zip(trials, _TrialSeeder(entropy).rngs(trials), strict=True):
                assert_numpy_stream(rng, entropy, trial)


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
        calls, tail = [], stochastic.gammaincc

        def counted(a, x):
            calls.append(np.size(x))
            return tail(a, x)

        monkeypatch.setattr(stochastic, "gammaincc", counted)
        monkeypatch.setattr(stochastic, "switch_probability_bound", None)
        monte_carlo(anchored_config, two_centers, PerturbationModel.gaussian(0.2, dim=2), trials=2, seed=0)
        assert calls == [anchored_config.n]


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
            eta = _noise(model, n, [trial_rng(4242, t)])[0]
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
        sw, dist = report.aggregate_bounds
        assert sw == pytest.approx(8.0 / 9.0)
        assert dist == pytest.approx(8.0 / 9.0)
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
    while (over := out_norms > model.scale).any():
        eta[over] *= np.nextafter(1.0, 0.0)
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


def set_trials_per_chunk(monkeypatch, per_chunk, n, k):
    if per_chunk is not None:  # None keeps the default chunk size
        monkeypatch.setattr(stochastic, "_CHUNK_ENTRIES", per_chunk * n * k)


class ZeroNormRowGenerator:
    """A generator whose first normal draw has a row of norm 0: all zeros, or values whose squares underflow."""

    def __init__(self, seed, fill):
        self.rng = np.random.default_rng(seed)
        self.fill = fill
        self.normal_draws = 0

    def standard_normal(self, size):
        g = self.rng.standard_normal(size)
        if self.normal_draws == 0:
            g[1] = self.fill
        self.normal_draws += 1
        return g

    def random(self, size):
        return self.rng.random(size)


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
        set_trials_per_chunk(monkeypatch, per_chunk, n, centers.k)
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
        set_trials_per_chunk(monkeypatch, per_chunk, n, centers.k)
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
        chunk = _noise(model, 6, streams())
        assert np.array_equal(chunk, np.array([noise_one_trial(model, 6, rng) for rng in streams()]))
        stub = ZeroNormRowGenerator(8, fill)
        _noise(model, 6, [stub])
        assert stub.normal_draws == 2  # the first draw, then one redraw of the row
        assert np.isfinite(chunk).all() and (np.linalg.norm(chunk, axis=2) > 0).all()


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
        rngs = stochastic._TrialSeeder.rngs

        def recording(self, trials):
            chunks.append(trials)
            return rngs(self, trials)

        monkeypatch.setattr(stochastic._TrialSeeder, "rngs", recording)
        return chunks

    @pytest.mark.parametrize("per_chunk, chunks", [(None, 1), (7, 8), (1, 50)])
    def test_one_distance_table_per_chunk(self, monkeypatch, anchored_config, two_centers, per_chunk, chunks):
        # one labels-only kernel call per chunk; the kernel blocks its own rows
        chunk_trials = self.record_chunks(monkeypatch)
        rngs = self.count_calls(monkeypatch, "trial_rng")
        seeders = self.count_calls(monkeypatch, "_TrialSeeder")
        seed_sequences = self.count_calls(monkeypatch, "SeedSequence")
        streams = self.count_calls(monkeypatch, "Generator")
        tables = self.count_calls(monkeypatch, "_nearest")
        set_trials_per_chunk(monkeypatch, per_chunk, anchored_config.n, two_centers.k)
        monte_carlo(anchored_config, two_centers, PerturbationModel.bounded_disk(0.3), trials=50, seed=1)
        assert len(rngs) == 0
        size = per_chunk or 50
        assert seeders == [(1,)]
        assert chunk_trials == [range(start, min(start + size, 50)) for start in range(0, 50, size)]
        assert len(seed_sequences) == 1  # one shared pool per run, whatever the chunk count
        assert len(streams) == 50
        assert len(tables) == chunks
        assert all(want == geometry._LABELS for _, _, want in tables)

    def test_sweep_draws_each_trial_once(self, monkeypatch, anchored_config, two_centers):
        chunk_trials = self.record_chunks(monkeypatch)
        seeders = self.count_calls(monkeypatch, "_TrialSeeder")
        seed_sequences = self.count_calls(monkeypatch, "SeedSequence")
        streams = self.count_calls(monkeypatch, "Generator")
        tables = self.count_calls(monkeypatch, "_nearest")
        set_trials_per_chunk(monkeypatch, 7, anchored_config.n, two_centers.k)
        sweep_table(anchored_config, two_centers, [0.05, 0.2, 0.5], trials=40, seed=2)
        chunks = [range(start, min(start + 7, 40)) for start in range(0, 40, 7)]
        assert seeders == [((2, int(np.float64(e).view(np.uint64))),) for e in (0.05, 0.2, 0.5)]
        assert chunk_trials == 3 * chunks
        assert len(seed_sequences) == 3  # one shared pool per epsilon row, whatever the chunk count
        assert len(streams) == 3 * 40
        assert len(tables) == 3 * len(chunks)
        assert all(want == geometry._LABELS for _, _, want in tables)

    def test_memory_stays_small_over_many_trials(self):
        config, centers = two_gaussians(n=200, seed=3)
        model = PerturbationModel.bounded_disk(0.3, dim=2)
        peak, report = peak_traced_mib(lambda: monte_carlo(config, centers, model, trials=5000, seed=0))
        assert report.trial_distances.size == 5000
        assert peak < 4.0
