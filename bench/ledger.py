"""Ledger of fresh CLI processes: wall time, peak memory and report digest of each command in a suite.

Usage, from the repository root:

    python3 bench/ledger.py SUITE --out PATH [--repeats R] [--n N] [--tree NAME=SRC ...]

Every CLI call starts a new interpreter, so its import time is part of what a
user waits for. Each command of SUITE runs as a fresh ``python -m margin_guard``
child with the source directory SRC on PYTHONPATH (default: this checkout's
src/, named ``current``), in a temporary directory that holds the suite's
inputs, so no recorded command names a local path. Wall time is taken around
the child, and its peak RSS comes from ``os.wait4``. Each suite carries the
point count N its commands run at, which --n overrides. ``coldstart`` runs the
subcommands on the inputs of tests/golden/cli at N = 300, the size of its
goldens, which hold only at that N. ``scale`` runs them on N = 10^5 points in
d = 2: the two_gaussians preset, and ``k64`` from ``write_k64``. Its one row
at a fixed size, 10^5 Monte Carlo trials on the 3-point near_boundary preset,
measures the cost of each trial rather than of each point.

Every run of a command, in every tree, must print the same report, whose
SHA-256 the ledger records; a command that names a golden file must print it
byte for byte. Each command's entry gives its wall time in every round, their
median and quartiles, and its peak RSS over all rounds. Trees run in
alternating order from round to round, so a drift in host speed falls on every
tree alike. The ledger is written as JSON to --out, which has no default, so
that no smoke run overwrites a checked-in BENCH_<SUITE>.json.
"""

from __future__ import annotations

import os

# Before numpy is imported in any child: one BLAS thread, as the benchmark runs it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import multiprocessing
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests", "golden", "cli")


def copy_trajectory_input(directory: Path, n: int) -> None:
    shutil.copy(ROOT / GOLDEN / "trajectory_long_input.json", directory)


def clustered(rng, k: int, n: int):
    """(n points, k centers): centers uniform in [-10, 10]^2, each point a center picked at random plus
    N(0, 0.8^2) noise per coordinate."""
    centers = rng.uniform(-10.0, 10.0, (k, 2))
    return centers[rng.integers(0, k, n)] + rng.normal(0.0, 0.8, (n, 2)), centers


def write_csv(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))


def write_k64(directory: Path, n: int) -> None:
    """n clustered points around 64 centers from ``default_rng(0)``, as k64.points.csv and k64.centers.csv."""
    import numpy as np

    points, centers = clustered(np.random.default_rng(0), 64, n)
    write_csv(directory / "k64.points.csv", "x1,x2", points.tolist())
    write_csv(directory / "k64.centers.csv", "x1,x2", centers.tolist())


WALK_HORIZONS = (10, 100)


def write_walks(directory: Path, n: int) -> None:
    """A random walk of n // 10 clustered points around 8 centers, each step adding N(0, 0.05^2) noise per
    coordinate, from ``default_rng(1)``. Its first T + 1 snapshots, for each T of WALK_HORIZONS, go to
    walk_T<T>.csv as time-major t,x1,x2 rows, and its centers to walk.centers.csv. The whole walk, for the
    largest T, also goes with its centers to walk_T<T>.json, one self-contained JSON trajectory."""
    import numpy as np

    rng = np.random.default_rng(1)
    points, centers = clustered(rng, 8, n // 10)
    steps = rng.normal(0.0, 0.05, (max(WALK_HORIZONS), *points.shape))
    stack = np.concatenate([points[None], points + steps.cumsum(axis=0)])
    for horizon in WALK_HORIZONS:
        rows = ((t, *p) for t, snapshot in enumerate(stack[: horizon + 1].tolist()) for p in snapshot)
        write_csv(directory / f"walk_T{horizon}.csv", "t,x1,x2", rows)
    write_csv(directory / "walk.centers.csv", "x1,x2", centers.tolist())
    doc = {"schema_version": 1, "centers": centers.tolist(), "snapshots": stack.tolist()}
    (directory / f"walk_T{max(WALK_HORIZONS)}.json").write_text(json.dumps(doc))


def write_scale(directory: Path, n: int) -> None:
    write_k64(directory, n)
    write_walks(directory, n)


GAUSS = ["--preset", "two_gaussians", "--n", "N", "--seed", "0"]
K64 = ["--points", "k64.points.csv", "--centers", "k64.centers.csv"]
# suite: (input writer, default N, {name: (argv after ``python -m margin_guard`` with N for the point count,
# golden or None)})
SUITES = {
    "coldstart": (copy_trajectory_input, 300, {
        "analyze": (["analyze", *GAUSS, "--epsilon", "0.1"], "analyze_two_gaussians_n300.json"),
        "trajectory": (["trajectory", "--points", "trajectory_long_input.json", "--eta", "0.2"], "trajectory_long.json"),
        "sweep": (["sweep", *GAUSS, "--grid", "0.01,0.1,0.4,1.0", "--trials", "40"], "sweep_two_gaussians_n300.json"),
        "montecarlo_rho": (["montecarlo", *GAUSS, "--rho", "0.3", "--trials", "100"],
                           "montecarlo_rho_two_gaussians_n300.json"),
        "montecarlo_sigma": (["montecarlo", *GAUSS, "--sigma", "0.2", "--trials", "100"],
                             "montecarlo_sigma_two_gaussians_n300.json"),
    }),
    "scale": (write_scale, 10**5, {
        "analyze_two_g": (["analyze", *GAUSS, "--epsilon", "0.05"], None),
        "analyze_k64": (["analyze", *K64, "--epsilon", "0.01"], None),
        "montecarlo_k64_sigma0.05": (["montecarlo", *K64, "--sigma", "0.05", "--trials", "200", "--seed", "0"], None),
        "montecarlo_k64_sigma0.3": (["montecarlo", *K64, "--sigma", "0.3", "--trials", "20", "--seed", "0"], None),
        "montecarlo_two_g_sigma0.3": (["montecarlo", "--preset", "two_gaussians", "--n", "N", "--sigma", "0.3",
                                       "--trials", "100", "--seed", "0"], None),
        "sweep_two_g": (["sweep", "--preset", "two_gaussians", "--n", "N", "--grid", "0.05,0.2,0.5", "--trials", "100",
                         "--seed", "0"], None),
        "montecarlo_near_boundary_trials": (["montecarlo", "--preset", "near_boundary", "--delta", "0.05",
                                             "--rho", "0.2", "--trials", "100000", "--seed", "0"], None),
        **{f"trajectory_k8_T{t}": (["trajectory", "--points", f"walk_T{t}.csv", "--centers", "walk.centers.csv",
                                    "--eta", "0.05"], None) for t in WALK_HORIZONS},
        # the same report from the T = 100 walk as one JSON file
        "trajectory_k8_T100_json": (["trajectory", "--points", "walk_T100.json", "--eta", "0.05"], None),
    }),
}


def run_child(args: list[str], src: str, cwd: str) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MiB and the SHA-256 of the stdout of one ``python`` child run in ``cwd`` with
    ``src`` on PYTHONPATH, which must succeed."""
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryFile() as out:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, cwd=cwd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        if code := os.waitstatus_to_exitcode(status):
            raise SystemExit(f"ledger: python {' '.join(args)} exited with {code}")
        out.seek(0)
        # hashed a block at a time: a child's peak RSS is at least this process's, so this process never holds a
        # whole report (an analyze report at N = 10^5 is 15.6 MB)
        digest = hashlib.sha256()
        while block := out.read(2**20):
            digest.update(block)
        return wall, usage.ru_maxrss / 1024.0, digest.hexdigest()


def summary(args: list[str], runs: list[tuple[float, float]], digest: str) -> dict:
    walls = [wall for wall, _ in runs]
    return {"command": " ".join(["python", *args]), "wall_s": walls, "wall_quartiles": quartiles(walls),
            "peak_rss_mb": max(rss for _, rss in runs), "report_sha256": digest}


def quartiles(values: list[float]) -> dict:
    """First quartile, median and third quartile of ``values``, by the inclusive method."""
    # before Python 3.13, quantiles needs at least two values
    q1, median, q3 = values * 3 if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def measure(suite: str, trees: dict[str, str], repeats: int, n: int) -> dict:
    write_inputs, _, table = SUITES[suite]
    argvs = {cmd: ["-m", "margin_guard", *(str(n) if a == "N" else a for a in argv)] for cmd, (argv, _) in table.items()}
    # a command's golden fixes its digest before the first run; without one, the first run fixes it
    digests = {cmd: hashlib.sha256((ROOT / GOLDEN / golden).read_bytes()).hexdigest()
               for cmd, (_, golden) in table.items() if golden}
    runs = {name: {cmd: [] for cmd in table} for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        # a child's peak RSS from os.wait4 is at least this process's, so a fresh interpreter writes the inputs
        writer = multiprocessing.get_context("spawn").Process(target=write_inputs, args=(Path(tmp), n))
        writer.start()
        writer.join()
        if writer.exitcode:
            raise SystemExit(f"ledger: writing the {suite} inputs exited with {writer.exitcode}")
        for round_ in range(repeats):
            for name in (list(trees) if round_ % 2 == 0 else list(reversed(trees))):
                for cmd, argv in argvs.items():
                    wall, rss, digest = run_child(argv, trees[name], tmp)
                    if digests.setdefault(cmd, digest) != digest:
                        raise SystemExit(f"ledger: {name} {cmd} does not reproduce {table[cmd][1] or 'its first run'}")
                    runs[name][cmd].append((wall, rss))
    return {
        "environment": {"python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
                        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "suite": suite,
        "n": n,
        "repeats": repeats,
        "trees": {name: {cmd: summary(argvs[cmd], samples, digests[cmd]) for cmd, samples in cmds.items()}
                  for name, cmds in runs.items()},
    }


def parse_tree(text: str) -> tuple[str, str]:
    name, sep, src = text.partition("=")
    if not (sep and name and src):
        raise argparse.ArgumentTypeError(f"expected NAME=SRC, got {text!r}")
    if not (Path(src) / "margin_guard" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{src} holds no margin_guard package")
    return name, str(Path(src).resolve())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--repeats", type=int, default=5, help="rounds; each runs every command once per tree")
    p.add_argument("--n", type=int, help="point count N in a suite's commands and inputs (default: the suite's)")
    p.add_argument("--tree", type=parse_tree, action="append", metavar="NAME=SRC",
                   help="a source directory to measure, repeatable (default: current=src)")
    p.add_argument("--out", type=Path, required=True, help="ledger file")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    trees = dict(args.tree or [("current", str(ROOT / "src"))])
    ledger = measure(args.suite, trees, args.repeats, SUITES[args.suite][1] if args.n is None else args.n)
    args.out.write_text(json.dumps(ledger, indent=2) + "\n")
    for name, cmds in ledger["trees"].items():
        for cmd, entry in cmds.items():
            wall = entry["wall_quartiles"]
            print(f"{name:>10} {cmd:<32} {wall['median']:.3f} s ({wall['q1']:.3f}-{wall['q3']:.3f})"
                  f"  {entry['peak_rss_mb']:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
