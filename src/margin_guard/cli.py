"""Command-line front end.

Subcommands map one-to-one onto the analysis operations: analyze (margin and
radius report), sweep (distance vs. noise radius table), preset (input file
generation), trajectory (time-series report), montecarlo (random-noise
estimates vs. analytic bounds), and construct (instability fixture emitter).

Exit codes: 0 success, 2 input or usage error, 3 internal invariant violation.
The default seed is 0, overridden by the MARGIN_GUARD_SEED environment
variable, which is in turn overridden by --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .counterexamples import FIXTURE_NAMES, make_fixture
from .dynamics import _trajectory_pass
from .errors import InvariantViolation
from .formats import (
    centers_to_csv,
    centers_to_json_dict,
    csv_table,
    dump_json,
    points_to_csv,
    points_to_json_dict,
    read_centers,
    read_points,
    read_trajectory_file,
)
from .presets import PRESET_NAMES, make_preset
from .stability import analyze_stability, no_switch_certificate, switch_candidates
from .stochastic import PerturbationModel, monte_carlo, sweep_table

__all__ = ["main", "entry"]


def _common_flags() -> argparse.ArgumentParser:
    """The input and output flags of analyze, sweep and montecarlo, built once and shared as a parent."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--points", metavar="PATH", help="points file (.csv or .json)")
    p.add_argument("--centers", metavar="PATH", help="centers file (.csv or .json)")
    p.add_argument("--preset", choices=PRESET_NAMES, help="generate input instead of reading files")
    p.add_argument("--n", type=int, default=200, help="point count for the two_gaussians preset")
    p.add_argument("--sigma0", type=float, default=0.2, help="spread for the two_gaussians preset")
    p.add_argument("--m", type=int, default=1, help="switching-point count for the many_point preset")
    p.add_argument("--delta", type=float, default=0.1, help="boundary offset for the near_boundary preset")
    p.add_argument("--seed", type=int, default=None, help="master RNG seed (default: MARGIN_GUARD_SEED or 0)")
    p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margin-guard",
        description="Stability analysis for nearest-center clustering partitions under perturbation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p = sub.add_parser("analyze", parents=[common],
                       help="margins, certified lower bound, and empirical radius upper bound")
    p.add_argument("--epsilon", type=float, default=None,
                   help="also report the no-switch certificate and switch candidates at this size")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", parents=[common],
                       help="partition distance vs. bounded-noise radius over an epsilon grid")
    p.add_argument("--epsilon", type=float, default=None, help=argparse.SUPPRESS)
    p.add_argument("--grid", required=True, metavar="F,F,...", help="comma-separated epsilon grid (>= 2 values)")
    p.add_argument("--trials", type=int, default=100, help="perturbation trials per grid point")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("preset", help="emit a generated (points, centers) input")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--sigma0", type=float, default=0.2)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="PATH",
                   help="json: one combined file; csv: writes PATH.points.csv and PATH.centers.csv")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("trajectory", help="step sizes, persistence certificates, and instability time")
    p.add_argument("--points", required=True, metavar="PATH",
                   help="trajectory file (.json self-contained, or .csv with a t column)")
    p.add_argument("--centers", metavar="PATH", help="centers file (required for CSV trajectories)")
    p.add_argument("--eta", type=float, default=None, help="partition-distance threshold in (0, 1]")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("montecarlo", parents=[common], help="empirical switching estimates next to analytic bounds")
    p.add_argument("--epsilon", type=float, default=None, help=argparse.SUPPRESS)
    p.add_argument("--rho", type=float, default=None, help="bounded-noise radius")
    p.add_argument("--sigma", type=float, default=None, help="gaussian noise scale")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("construct", help="emit an instability fixture with frozen expected partitions")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_construct)

    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MARGIN_GUARD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MARGIN_GUARD_SEED must be an integer, got {env!r}") from None
    return 0


def _resolve_inputs(args, seed: int):
    has_files = args.points is not None or args.centers is not None
    if args.preset is not None and has_files:
        raise ValueError("give either --points/--centers or --preset, not both")
    if args.preset is not None:
        epsilon = getattr(args, "epsilon", None)
        return make_preset(
            args.preset, n=args.n, sigma0=args.sigma0, seed=seed,
            epsilon=1.0 if epsilon is None else epsilon, m=args.m, delta=args.delta,
        )
    if args.points is None or args.centers is None:
        raise ValueError("need both --points and --centers, or a --preset")
    return read_points(args.points), read_centers(args.centers)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_analyze(args) -> int:
    seed = _resolve_seed(args)
    config, centers = _resolve_inputs(args, seed)
    report = analyze_stability(config, centers)
    certificate, candidates = {}, frozenset()
    if args.epsilon is not None:
        assignment = report.assignment
        certificate = {"epsilon": args.epsilon, "certified_no_switch": no_switch_certificate(assignment, args.epsilon)}
        candidates = switch_candidates(assignment, args.epsilon)
    if args.format == "csv":
        notes = {key: getattr(report, key) for key in ("min_margin", "margin_lower_bound_radius", "assignment_radius")}
        columns = ["index", "label", "margin", "switch_radius"]
        rows = zip(range(1, report.labels.size + 1), report.labels, report.margins, report.per_point_switch_radius)
        if certificate:
            columns.append("switch_candidate")
            rows = [(*row, row[0] in candidates) for row in rows]
        _emit(csv_table(columns, rows, **notes, **certificate), args.out)
        return 0
    payload = report.to_json_dict()
    if certificate:
        payload.update(certificate, switch_candidates=sorted(candidates))
    _emit(dump_json(payload), args.out)
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--grid must be comma-separated numbers, got {text!r}") from None


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    config, centers = _resolve_inputs(args, seed)
    result = sweep_table(config, centers, _parse_grid(args.grid), trials=args.trials, seed=seed)
    if args.format == "csv":
        rows = [(r.epsilon, r.mean_distance, r.max_distance, r.below_threshold) for r in result.rows]
        _emit(csv_table(["epsilon", "mean_S", "max_S", "threshold_flag"], rows, threshold=result.threshold), args.out)
    else:
        _emit(dump_json(result.to_json_dict()), args.out)
    return 0


def cmd_preset(args) -> int:
    seed = _resolve_seed(args)
    config, centers = make_preset(
        args.name, n=args.n, sigma0=args.sigma0, seed=seed,
        epsilon=args.epsilon, m=args.m, delta=args.delta,
    )
    if args.format == "csv":
        if args.out is None:
            raise ValueError("csv preset output needs --out (two files are written)")
        points_path = Path(f"{args.out}.points.csv")
        centers_path = Path(f"{args.out}.centers.csv")
        points_path.write_text(points_to_csv(config))
        centers_path.write_text(centers_to_csv(centers))
        sys.stdout.write(f"wrote {points_path} and {centers_path}\n")
        return 0
    payload = {**points_to_json_dict(config), **centers_to_json_dict(centers), "preset": args.name}
    _emit(dump_json(payload), args.out)
    return 0


def cmd_trajectory(args) -> int:
    traj = read_trajectory_file(args.points, args.centers)
    if traj.horizon < 1:
        raise ValueError("trajectory needs at least two snapshots")
    if args.eta is not None and not 0.0 < args.eta <= 1.0:
        raise ValueError("--eta must lie in (0, 1]")
    run = _trajectory_pass(traj)
    budgets = run.deltas.cumsum()
    certs = [run.certificate(t) for t in range(1, traj.horizon + 1)]
    stepwise = run.stepwise()

    if args.format == "csv":
        columns = ["step", "delta", "cumulative_budget", "persistence_certified", "stepwise_pass",
                   "distance_from_initial"]
        rows = zip(range(traj.horizon), run.deltas, budgets, [c.certified for c in certs], stepwise, run.distances[1:])
        _emit(csv_table(columns, rows), args.out)
        return 0

    payload = {
        "snapshots": traj.horizon + 1,
        "n": traj.n,
        "d": traj.d,
        "centers_fixed_over_time": True,
        "initial_min_margin": certs[0].initial_radius_lower_bound * 2.0,
        "initial_radius_lower_bound": certs[0].initial_radius_lower_bound,
        "step_sizes": run.deltas.tolist(),
        "cumulative_budget": budgets.tolist(),
        "persistence": [
            {
                "horizon": c.horizon,
                "cumulative_budget": c.cumulative_budget,
                "certified": c.certified,
            }
            for c in certs
        ],
        "stepwise_pass": stepwise,
        "distance_from_initial": run.distances,
    }
    if args.eta is not None:
        tau = run.instability_time(args.eta)
        payload["eta"] = args.eta
        payload["instability_time"] = tau
        if tau is None:
            payload["instability_time_note"] = "not observed within horizon"
    _emit(dump_json(payload), args.out)
    return 0


def cmd_montecarlo(args) -> int:
    seed = _resolve_seed(args)
    config, centers = _resolve_inputs(args, seed)
    if (args.rho is None) == (args.sigma is None):
        raise ValueError("choose exactly one noise model: --rho (bounded) or --sigma (gaussian)")
    if args.rho is not None:
        model = PerturbationModel.bounded_disk(args.rho, dim=config.d)
    else:
        model = PerturbationModel.gaussian(args.sigma, dim=config.d)
    report = monte_carlo(config, centers, model, trials=args.trials, seed=seed)
    if args.format == "csv":
        rows = zip(range(report.trials), report.trial_switch_counts, report.trial_distances)
        _emit(csv_table(["trial", "n_switched", "partition_distance"], rows), args.out)
    else:
        _emit(dump_json(report.to_json_dict()), args.out)
    return 0


def cmd_construct(args) -> int:
    if args.format != "json":
        raise ValueError("construct emits JSON fixtures only")
    fx = make_fixture(args.name, epsilon=args.epsilon, m=args.m, delta=args.delta)
    _emit(dump_json(fx.to_json_dict()), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
