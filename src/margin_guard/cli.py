"""Command-line front end.

Subcommands map one-to-one onto the analysis operations: analyze (margin and
radius report), sweep (distance vs. noise radius table), preset (input file
generation), trajectory (time-series report), montecarlo (random-noise
estimates vs. analytic bounds), and construct (instability fixture emitter).

Each subcommand returns its report as (payload, table): a function that builds
the JSON dict, and (columns, rows, notes) for csv_table or None, each built only
when written. main alone resolves the seed before the subcommand runs, then
formats the report by --format and writes it to --out or stdout; only preset
writes its own two CSV files. Every subcommand takes --out, and all but
construct, whose fixtures are JSON only, take --format.

A flag that several subcommands take is declared once, in a parent parser
they share, so it has one help text and one default. Four are declared per
subcommand: trajectory's --points and --centers name a trajectory file and its
centers; --trials defaults to 100 in sweep and 1,000 in montecarlo; and
analyze's --epsilon sizes only the no-switch certificate, while in sweep,
preset, montecarlo and construct --epsilon sizes the single_point and
many_point fixtures. analyze builds a fixture --preset at its default size;
another size is analyzed by writing it with preset --epsilon and reading the
file back through --points and --centers.

Exit codes: 0 success, 2 input or usage error, 3 internal invariant violation.
The default seed is 0, overridden by the MARGIN_GUARD_SEED environment
variable, which is in turn overridden by --seed. Only the subcommands that draw
(analyze, sweep, preset and montecarlo) declare --seed; trajectory and construct
declare none and ignore the variable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

from .counterexamples import FIXTURE_NAMES, make_fixture
from .dynamics import _check_eta, _check_steps, _trajectory_pass
from .errors import InvariantViolation
from .formats import (_named, centers_to_csv, centers_to_json_dict, csv_table, dump_json, points_to_csv,
                      points_to_json_dict, read_centers, read_points, read_trajectory_file)
from .presets import PRESET_NAMES, make_preset
from .stability import _check_epsilon, analyze_stability, no_switch_certificate, switch_candidates
from .stochastic import PerturbationModel, _check_trials, _sweep_grid, monte_carlo, sweep_table

__all__ = ["main", "entry"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared: parsing leaves it unchanged, and its help
    text is formatted, with the terminal's width, when it is printed. Each flag that several subcommands
    take is declared once, in a help-less parent parser, so they share one Action, help text and default."""
    parser = argparse.ArgumentParser(
        prog="margin-guard",
        description="Stability analysis for nearest-center clustering partitions under perturbation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand composes the parents it takes in the order its help lists them
    parents = (argparse.ArgumentParser(add_help=False) for _ in range(7))
    inputs, gaussian, fixture_epsilon, fixture, seed, out, fmt = parents
    inputs.add_argument("--points", metavar="PATH", help="points file (.csv or .json)")
    inputs.add_argument("--centers", metavar="PATH", help="centers file (.csv or .json)")
    inputs.add_argument("--preset", choices=PRESET_NAMES, help="generate input instead of reading files")
    gaussian.add_argument("--n", type=int, default=200, help="point count for the two_gaussians preset")
    gaussian.add_argument("--sigma0", type=float, default=0.2, help="spread for the two_gaussians preset")
    fixture_epsilon.add_argument("--epsilon", type=float, default=1.0,
                                 help="size of the single_point and many_point presets, not a noise radius")
    fixture.add_argument("--m", type=int, default=1, help="switching-point count for the many_point preset")
    fixture.add_argument("--delta", type=float, default=0.1, help="boundary offset for the near_boundary preset")
    seed.add_argument("--seed", type=int, default=None, help="master RNG seed (default: MARGIN_GUARD_SEED or 0)")
    out.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    fmt.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    # analyze takes no fixture --epsilon, so a fixture preset keeps its default size; its own sizes the certificate
    p = sub.add_parser("analyze", parents=[inputs, gaussian, fixture, seed, out, fmt],
                       help="margins, certified lower bound, and empirical radius upper bound")
    p.add_argument("--epsilon", dest="certificate_epsilon", metavar="EPSILON", type=float, default=None,
                   help="also report the no-switch certificate and switch candidates at this size")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", parents=[inputs, gaussian, fixture_epsilon, fixture, seed, out, fmt],
                       help="partition distance vs. bounded-noise radius over an epsilon grid")
    p.add_argument("--grid", required=True, metavar="F,F,...", help="comma-separated epsilon grid (>= 2 values)")
    p.add_argument("--trials", type=int, default=100, help="perturbation trials per grid point")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("preset", parents=[gaussian, fixture_epsilon, fixture, seed, out, fmt],
                       help="emit a generated (points, centers) input",
                       description="json: one combined file; csv: --out PATH writes PATH.points.csv and "
                                   "PATH.centers.csv")
    p.add_argument("preset", choices=PRESET_NAMES, help="preset to generate")
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("trajectory", parents=[out, fmt],
                       help="step sizes, persistence certificates, and instability time")
    p.add_argument("--points", required=True, metavar="PATH",
                   help="trajectory file (.json self-contained, or .csv with a t column)")
    p.add_argument("--centers", metavar="PATH", help="centers file (required for CSV trajectories)")
    p.add_argument("--eta", type=float, default=None, help="partition-distance threshold in (0, 1]")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("montecarlo", parents=[inputs, gaussian, fixture_epsilon, fixture, seed, out, fmt],
                       help="empirical switching estimates next to analytic bounds")
    p.add_argument("--rho", type=float, default=None, help="bounded-noise radius")
    p.add_argument("--sigma", type=float, default=None, help="gaussian noise scale")
    p.add_argument("--trials", type=int, default=1000, help="perturbation trials")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("construct", parents=[fixture_epsilon, fixture, out],
                       help="emit an instability fixture with frozen expected partitions")
    p.add_argument("name", choices=FIXTURE_NAMES, help="fixture to construct")
    p.set_defaults(func=cmd_construct, format="json")

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        source, seed = "--seed", args.seed
    elif (env := os.environ.get("MARGIN_GUARD_SEED")) is not None:
        try:
            source, seed = "MARGIN_GUARD_SEED", int(env)
        except ValueError:
            raise ValueError(f"MARGIN_GUARD_SEED must be an integer, got {env!r}") from None
    else:
        return 0
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _preset(args):
    """The preset named by args.preset, at the preset sizes the subcommand takes: a size it does not take
    (analyze's fixture epsilon) keeps make_preset's default."""
    sizes = {key: getattr(args, key) for key in ("n", "sigma0", "epsilon", "m", "delta") if key in args}
    return make_preset(args.preset, seed=args.seed, **sizes)


def _resolve_inputs(args):
    if args.preset is not None:
        if args.points is not None or args.centers is not None:
            raise ValueError("give either --points/--centers or --preset, not both")
        return _preset(args)
    if args.points is None or args.centers is None:
        raise ValueError("need both --points and --centers, or a --preset")
    return read_points(args.points), read_centers(args.centers)


def cmd_analyze(args):
    epsilon = args.certificate_epsilon
    if epsilon is not None:  # flags first: a bad one exits 2 before any input is read or generated
        _check_epsilon(epsilon)
    config, centers = _resolve_inputs(args)
    report = analyze_stability(config, centers)
    notes = {key: getattr(report, key) for key in ("min_margin", "margin_lower_bound_radius", "assignment_radius")}
    columns = ["index", "label", "margin", "switch_radius"]
    rows = zip(range(1, report.labels.size + 1), report.labels, report.margins, report.per_point_switch_radius)
    fields = {}  # the JSON report's --epsilon fields
    if epsilon is not None:
        certificate = {"epsilon": epsilon, "certified_no_switch": no_switch_certificate(report.assignment, epsilon)}
        candidates = switch_candidates(report.assignment, epsilon)
        notes.update(certificate)
        fields = {**certificate, "switch_candidates": sorted(candidates)}
        columns.append("switch_candidate")
        rows = ((*row, row[0] in candidates) for row in rows)
    return lambda: {**report.to_json_dict(), **fields}, (columns, rows, notes)


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--grid must be comma-separated numbers, got {text!r}") from None
    return _sweep_grid(grid)


def cmd_sweep(args):
    grid = _parse_grid(args.grid)  # flags first: a bad one exits 2 before any input is read or generated
    _check_trials(args.trials)
    config, centers = _resolve_inputs(args)
    result = sweep_table(config, centers, grid, trials=args.trials, seed=args.seed)
    rows = ((r.epsilon, r.mean_distance, r.max_distance, r.below_threshold) for r in result.rows)
    columns = ["epsilon", "mean_S", "max_S", "threshold_flag"]
    return result.to_json_dict, (columns, rows, {"threshold": result.threshold})


def cmd_preset(args):
    config, centers = _preset(args)
    if args.format == "json":
        return lambda: {**points_to_json_dict(config), **centers_to_json_dict(centers), "preset": args.preset}, None
    if args.out is None:
        raise ValueError("csv preset output needs --out (two files are written)")
    points_path = Path(f"{args.out}.points.csv")
    centers_path = Path(f"{args.out}.centers.csv")
    points_path.write_text(points_to_csv(config))
    centers_path.write_text(centers_to_csv(centers))
    sys.stdout.write(f"wrote {points_path} and {centers_path}\n")
    return None


def cmd_trajectory(args):
    if args.eta is not None:  # before the file is read
        _check_eta(args.eta)
    traj = read_trajectory_file(args.points, args.centers)
    _named(Path(args.points), _check_steps, traj)
    run = _trajectory_pass(traj)
    budgets = run.deltas.cumsum()
    certs = [run.certificate(t) for t in range(1, traj.horizon + 1)]
    stepwise = run.stepwise()
    fields = {}  # the --eta fields: all in the JSON report, and those that are not null as CSV notes
    if args.eta is not None:
        tau = run.instability_time(args.eta)
        fields = {"eta": args.eta, "instability_time": tau}
        if tau is None:
            fields["instability_time_note"] = "not observed within horizon"

    def payload() -> dict:
        return {
            "snapshots": traj.horizon + 1,
            "n": traj.n,
            "d": traj.d,
            "centers_fixed_over_time": True,
            "initial_min_margin": run.min_margins[0],
            "initial_radius_lower_bound": certs[0].initial_radius_lower_bound,
            "step_sizes": run.deltas.tolist(),
            "cumulative_budget": budgets.tolist(),
            "persistence": [{"horizon": c.horizon, "cumulative_budget": c.cumulative_budget, "certified": c.certified}
                            for c in certs],
            "stepwise_pass": stepwise,
            "distance_from_initial": run.distances,
            **fields,
        }

    columns = ["step", "delta", "cumulative_budget", "persistence_certified", "stepwise_pass", "distance_from_initial"]
    rows = zip(range(traj.horizon), run.deltas, budgets, (c.certified for c in certs), stepwise, run.distances[1:])
    return payload, (columns, rows, {key: value for key, value in fields.items() if value is not None})


def cmd_montecarlo(args):
    if (args.rho is None) == (args.sigma is None):
        raise ValueError("choose exactly one noise model: --rho (bounded) or --sigma (gaussian)")
    # flags first: the model checks its scale, with the input's dimension set once the input is read
    if args.rho is not None:
        model = PerturbationModel.bounded_disk(args.rho, dim=1)
    else:
        model = PerturbationModel.gaussian(args.sigma, dim=1)
    _check_trials(args.trials)
    config, centers = _resolve_inputs(args)
    report = monte_carlo(config, centers, replace(model, dim=config.d), trials=args.trials, seed=args.seed)
    rows = zip(range(report.trials), report.trial_switch_counts, report.trial_distances)
    return report.to_json_dict, (["trial", "n_switched", "partition_distance"], rows, {})


def cmd_construct(args):
    return make_fixture(args.name, epsilon=args.epsilon, m=args.m, delta=args.delta).to_json_dict, None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "seed" in args:  # trajectory and construct declare no --seed
            args.seed = _resolve_seed(args)
        report = args.func(args)
        if report is not None:
            payload, table = report
            if args.format == "json":
                text = dump_json(payload())
            else:
                columns, rows, notes = table
                text = csv_table(columns, rows, **notes)
            if args.out is None:
                sys.stdout.write(text)
            else:
                Path(args.out).write_text(text)
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
