"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints a
single pass line when it holds. Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines; the whole module targets desk scale (well under two minutes
on one core).
"""

import itertools
import json
import math

import numpy as np
import pytest

from margin_guard import (
    CenterSet,
    Partition,
    PerturbationModel,
    PointConfig,
    Trajectory,
    assign_nearest,
    cumulative_drift_check,
    exact_switch_radius,
    induced_partition,
    iter_partitions,
    many_point_instability,
    monte_carlo,
    near_boundary_instability,
    nearest_label,
    PairRelation,
    pair_disagreements,
    per_point_switch_radii,
    persistence_certificate,
    perturbation_size,
    single_point_instability,
    snapshot_partitions,
    step_sizes,
    stepwise_stability_check,
    sweep_table,
    switch_probability_bound,
    two_gaussians,
)
from margin_guard.cli import main
from conftest import random_instance


def passed(num: int, description: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] PASS {description}{suffix}")


def ball_noise(rng, shape, radius):
    """Per-point noise with every row norm <= radius."""
    n, d = shape
    g = rng.standard_normal(shape)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random((n, 1)) ** (1.0 / d)
    return g / norms * radii


def test_criterion_01_no_switch_theorem():
    trials = 10_000
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(trials):
        config, centers = random_instance(rng, n_max=50, d_max=5, k_max=5)
        a = assign_nearest(config, centers)
        if a.min_margin <= 0.0:
            continue
        eps = float(rng.uniform(0.0, 0.999)) * a.min_margin / 2.0
        perturbed = PointConfig(config.points + ball_noise(rng, config.points.shape, eps))
        assert perturbation_size(config, perturbed) <= eps * (1 + 1e-12)
        b = assign_nearest(perturbed, centers)
        assert np.array_equal(a.labels, b.labels), "a label changed below the certified radius"
        assert induced_partition(a) == induced_partition(b)
        checked += 1
    assert checked >= trials * 0.99
    passed(1, "no-switch theorem", f"{checked} randomized trials, zero partition changes")


def test_criterion_02_switch_necessity():
    trials = 10_000
    rng = np.random.default_rng(202)
    switches_seen = 0
    for _ in range(trials):
        config, centers = random_instance(rng, n_max=50, d_max=5, k_max=5)
        a = assign_nearest(config, centers)
        eps = float(rng.uniform(0.0, 3.0))
        perturbed = PointConfig(config.points + ball_noise(rng, config.points.shape, eps))
        b = assign_nearest(perturbed, centers)
        for i in np.flatnonzero(a.labels != b.labels):
            assert a.margins[i] <= 2.0 * eps, (
                f"index {i + 1} switched with margin {a.margins[i]} > 2*eps {2 * eps}"
            )
            switches_seen += 1
    assert switches_seen > 0, "trial distribution produced no switches at all"
    passed(2, "switch necessity", f"{trials} trials, {switches_seen} switches, all with margin <= 2*eps")


def test_criterion_03_counterexample_fixtures():
    cases = [
        single_point_instability(1.0),
        single_point_instability(0.01),
        many_point_instability(1.0, 3),
        many_point_instability(0.4, 10),
        near_boundary_instability(0.1),
        near_boundary_instability(1e-9),
    ]
    for fx in cases:
        before = induced_partition(assign_nearest(fx.config, fx.centers))
        after = induced_partition(assign_nearest(fx.perturbed, fx.centers))
        assert before == fx.expected_before
        assert after == fx.expected_after
        assert before != after
    # the epsilon-parameterized constructions keep the move strictly inside epsilon
    for eps in (1.0, 0.01, 4.0):
        fx = single_point_instability(eps)
        assert fx.perturbation_size == pytest.approx(eps / 2.0, rel=1e-15)
        assert fx.perturbation_size < eps
        fx = many_point_instability(eps, 4)
        assert fx.perturbation_size == pytest.approx(eps / 2.0, rel=1e-15)
        assert fx.perturbation_size < eps
    passed(3, "instability fixtures reproduce their frozen partitions exactly")


def test_criterion_04_partition_metric_axioms():
    rng = np.random.default_rng(404)
    triples = 10_000
    for _ in range(triples):
        n = int(rng.integers(2, 11))
        p = Partition.from_labels(rng.integers(1, n + 1, n))
        q = Partition.from_labels(rng.integers(1, n + 1, n))
        r = Partition.from_labels(rng.integers(1, n + 1, n))
        dpq = pair_disagreements(p, q)
        assert dpq == pair_disagreements(q, p)
        assert (dpq == 0) == (p == q)
        assert pair_disagreements(p, p) == 0
        # triangle inequality on exact integer counts
        assert pair_disagreements(p, r) <= dpq + pair_disagreements(q, r)

    total = 0
    for n in range(1, 9):
        for part in iter_partitions(n):
            total += 1
            if n >= 2:
                assert PairRelation.from_partition(part).to_partition() == part
    assert total == 1 + 2 + 5 + 15 + 52 + 203 + 877 + 4140
    passed(4, "partition metric axioms", f"{triples} random triples + {total} exhaustive round trips")


def _pair_bits(labelings: np.ndarray) -> np.ndarray:
    """Pack each labeling's same-block pair indicators into one integer."""
    count, n = labelings.shape
    iu, ju = np.triu_indices(n, k=1)
    indicators = labelings[:, iu] == labelings[:, ju]
    weights = (1 << np.arange(iu.size)).astype(np.int64)
    return indicators @ weights


def test_criterion_05_distance_bound_exhaustive():
    popcount = np.array([bin(v).count("1") for v in range(1 << 16)], dtype=np.int64)
    pairs_checked = 0
    for n in range(2, 7):
        for k in (2, 3):
            labelings = np.array(list(itertools.product(range(1, k + 1), repeat=n)), dtype=np.int64)
            bits = _pair_bits(labelings)
            disagreements = popcount[np.bitwise_xor.outer(bits, bits)]
            switched = np.zeros((len(labelings), len(labelings)), dtype=np.int64)
            for pos in range(n):
                switched += labelings[:, pos][:, None] != labelings[:, pos][None, :]
            # d <= min(1, 2m/(n-1))  <=>  disagreements <= min(C(n,2), m*n)
            total_pairs = n * (n - 1) // 2
            bound = np.minimum(total_pairs, switched * n)
            assert (disagreements <= bound).all(), f"bound violated for n={n}, k={k}"
            pairs_checked += disagreements.size
    # the packed-bits disagreement count must agree with the real metric
    for n in (2, 3, 4):
        labelings = np.array(list(itertools.product((1, 2, 3), repeat=n)), dtype=np.int64)
        bits = _pair_bits(labelings)
        popdis = popcount[np.bitwise_xor.outer(bits, bits)]
        for a in range(len(labelings)):
            for b in range(len(labelings)):
                pa = Partition.from_labels(labelings[a])
                pb = Partition.from_labels(labelings[b])
                assert pair_disagreements(pa, pb) == popdis[a, b]
    passed(5, "switched-count distance bound", f"exhaustive over {pairs_checked} labeling pairs, n<=6, k<=3")


def test_criterion_06_exact_switch_radius():
    rng = np.random.default_rng(606)
    nudge = 1e-6
    band = 1e-9
    points_checked = 0
    for _ in range(400):
        config, centers = random_instance(rng, n_max=30, d_max=5, k_max=5)
        a = assign_nearest(config, centers)
        radii = per_point_switch_radii(config, centers)
        assert (radii >= a.margins / 2.0 - band).all()
        for i in range(config.n):
            own = int(a.labels[i])
            r = exact_switch_radius(config.points[i], centers, own)
            assert r == pytest.approx(radii[i], rel=1e-9, abs=1e-12)
            if r < 2 * nudge:
                continue  # too close to a boundary for the +/- nudge probes
            # direction of the minimizing bisector
            sq = ((centers.centers - config.points[i][None, :]) ** 2).sum(axis=1)
            gaps = np.linalg.norm(centers.centers - centers.centers[own - 1][None, :], axis=1)
            per_center = np.full(centers.k, np.inf)
            for j in range(centers.k):
                if j != own - 1:
                    per_center[j] = (sq[j] - sq[own - 1]) / (2.0 * gaps[j])
            target = int(per_center.argmin())
            if abs(per_center[target] - r) > band:
                continue
            direction = centers.centers[target] - centers.centers[own - 1]
            direction = direction / np.linalg.norm(direction)
            crossed = config.points[i] + (r + nudge) * direction
            stayed = config.points[i] + (r - nudge) * direction
            assert nearest_label(crossed, centers) != own, "crossing past the radius must switch"
            assert nearest_label(stayed, centers) == own, "staying inside the radius must not switch"
            points_checked += 1
    assert points_checked > 1000
    passed(6, "exact switch radius", f"{points_checked} nudge probes, zero violations")


def test_criterion_07_discrete_time():
    rng = np.random.default_rng(707)
    centers = CenterSet([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5]])
    certified_seen = 0
    for trial in range(1000):
        n = int(rng.integers(2, 21))
        T = int(rng.integers(1, 21))
        scale = float(rng.choice([0.005, 0.05, 0.4]))
        snaps = [PointConfig(rng.uniform(-3, 3, (n, 2)))]
        for _ in range(T):
            snaps.append(PointConfig(snaps[-1].points + rng.normal(0.0, scale, (n, 2))))
        traj = Trajectory(snapshots=tuple(snaps), centers=centers)
        deltas = step_sizes(traj)

        # cumulative bound on every (s, t) window, 1e-9 relative slack
        for s in range(T):
            drift_row = np.linalg.norm(
                traj.snapshots[s].points[None, :, :]
                - np.stack([snap.points for snap in traj.snapshots[s + 1 :]]),
                axis=2,
            ).max(axis=1)
            budgets = np.cumsum(deltas[s:])
            assert (drift_row <= budgets * (1.0 + 1e-9) + 1e-15).all()
        check = cumulative_drift_check(traj, 0, T)
        assert check.bound_holds

        parts = snapshot_partitions(traj)
        passes = stepwise_stability_check(traj)
        for t in range(T + 1):
            cert = persistence_certificate(traj, t)
            if cert.certified:
                certified_seen += 1
                assert all(parts[r] == parts[0] for r in range(t + 1)), "certified persistence contradicted"
            if t >= 1 and all(passes[:t]):
                assert parts[t] == parts[0], "stepwise chain broken"
    assert certified_seen > 0
    passed(7, "discrete-time bounds", f"1000 trajectories, {certified_seen} certified horizons upheld")


def test_criterion_08_stochastic_bounds():
    fx = near_boundary_instability(0.1)
    config, centers = fx.config, fx.centers

    # bounded noise strictly inside the margin: zero switches, 1e5 trials, exact
    quiet = monte_carlo(config, centers, PerturbationModel.bounded_disk(0.09, dim=2), trials=100_000, seed=808)
    assert (quiet.per_index_switch_frequency == 0.0).all()
    assert quiet.mean_switched_count == 0.0
    assert (quiet.trial_distances == 0.0).all()

    def check_dominance(report):
        T = report.trials
        for freq, bound in zip(report.per_index_switch_frequency, report.per_index_bound):
            stderr = math.sqrt(bound * (1.0 - bound) / T)
            assert freq <= bound + 4.0 * stderr, f"per-index frequency {freq} above bound {bound}"
        sw_stderr = float(report.trial_switch_counts.std(ddof=1)) / math.sqrt(T)
        assert report.mean_switched_count <= report.expected_switch_bound + 4.0 * sw_stderr
        d_stderr = float(report.trial_distances.std(ddof=1)) / math.sqrt(T)
        assert report.mean_partition_distance <= report.expected_distance_bound + 4.0 * d_stderr

    near = monte_carlo(config, centers, PerturbationModel.gaussian(0.05, dim=2), trials=20_000, seed=809)
    check_dominance(near)
    # the near-boundary index tracks its analytic tail, the anchors stay quiet
    assert near.per_index_bound[2] == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert near.per_index_switch_frequency[0] == 0.0
    assert near.per_index_switch_frequency[1] == 0.0

    preset_config, preset_centers = two_gaussians(n=200, sigma0=0.2, seed=810)
    for model in (PerturbationModel.gaussian(0.05, dim=2), PerturbationModel.bounded_disk(0.05, dim=2)):
        report = monte_carlo(preset_config, preset_centers, model, trials=2000, seed=811)
        check_dominance(report)

    # exact gaussian tail vs a 1e6-sample oracle across the (gamma, sigma, d) grid
    oracle_rng = np.random.default_rng(812)
    samples = 1_000_000
    for d in (1, 2, 3, 5):
        norms = np.linalg.norm(oracle_rng.standard_normal((samples, d)), axis=1)
        for sigma in (0.1, 0.5, 1.0):
            for gamma in (0.1, 0.5, 1.0, 2.0):
                estimate = float((norms >= gamma / (2.0 * sigma)).mean())
                exact = switch_probability_bound(gamma, PerturbationModel.gaussian(sigma, dim=d))
                stderr = math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
                assert abs(estimate - exact) <= 4.0 * stderr + 1e-9, (
                    f"gaussian tail off at gamma={gamma}, sigma={sigma}, d={d}"
                )
    passed(8, "stochastic bounds", "zero-switch regime exact; dominance and tail oracle within 4 stderr")


def test_criterion_09_sweep_threshold():
    config, centers = two_gaussians(n=200, sigma0=0.2, seed=909)
    base = assign_nearest(config, centers)
    threshold = base.min_margin / 2.0
    assert threshold > 0.0
    grid_below = [f * threshold for f in (0.2, 0.5, 0.8, 0.95)]
    grid = grid_below + [2.0 * threshold, 20.0 * threshold]
    result = sweep_table(config, centers, grid, trials=50, seed=910)
    assert result.threshold == pytest.approx(threshold)
    for row in result.rows[: len(grid_below)]:
        assert row.below_threshold
        assert row.mean_distance == 0.0
        assert row.max_distance == 0.0  # zero in every single trial
    assert not result.rows[-1].below_threshold
    passed(9, "sweep threshold", f"S(eps) identically zero below {threshold:.3g} in all trials")


def test_criterion_10_reproducibility(tmp_path):
    jobs = [
        lambda out: main(
            ["montecarlo", "--preset", "two_gaussians", "--n", "50", "--sigma0", "0.2",
             "--sigma", "0.1", "--trials", "200", "--seed", "13", "--out", out]
        ),
        lambda out: main(
            ["analyze", "--preset", "two_gaussians", "--n", "30", "--seed", "21", "--out", out]
        ),
        lambda out: main(
            ["sweep", "--preset", "two_gaussians", "--n", "30", "--seed", "34",
             "--grid", "0.01,0.05,0.2", "--trials", "20", "--out", out]
        ),
    ]
    for idx, job in enumerate(jobs):
        first = tmp_path / f"run_{idx}_a.json"
        second = tmp_path / f"run_{idx}_b.json"
        assert job(str(first)) == 0
        assert job(str(second)) == 0
        assert first.read_bytes() == second.read_bytes(), "reports must be byte-identical"
        json.loads(first.read_text())  # and valid JSON
    passed(10, "reproducibility", "byte-identical JSON reports across consecutive runs")
