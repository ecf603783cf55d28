"""Scale ledger: wall time and peak memory of fresh CLI processes at the north-star size.

Usage, from the repository root:

    python3 bench/scale.py [--repeats N] [--n N] [--tree NAME=SRC ...] [--out PATH]

Each command below runs as a fresh ``python -m margin_guard`` child with the
source directory SRC on PYTHONPATH (default: this checkout's src/, named
``current``). Wall time is taken around the child, and its peak RSS comes from
``os.wait4``. Every run of a command, in every tree, must print the same report
byte for byte; the ledger records its SHA-256.

Inputs have N points (default 10^5) in d = 2:
- ``two_g`` is the two_gaussians preset (sigma0 = 0.2, seed 0);
- ``k64`` is N points around 64 centers uniform in [-10, 10]^2, each a center
  picked at random plus N(0, 0.8^2) noise per coordinate, from
  ``default_rng(0)``. It is written as CSV to a temporary directory, which is
  the children's working directory, so no input lands in the repository.

Trees run in alternating order from round to round, so a drift in host speed
falls on every tree alike. The result, with per-run wall times, is written as
JSON (default BENCH_scale.json at the repository root).
"""

from __future__ import annotations

import os

# Before numpy is imported in any child: one BLAS thread, as the benchmark runs it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

import numpy as np

from coldstart import ROOT, parse_tree, run_child

K64 = ["--points", "k64.points.csv", "--centers", "k64.centers.csv"]
# name: argv after ``python -m margin_guard``, with N standing for the point count
COMMANDS = {
    "montecarlo_k64_sigma0.05": ["montecarlo", *K64, "--sigma", "0.05", "--trials", "200", "--seed", "0"],
    "montecarlo_k64_sigma0.3": ["montecarlo", *K64, "--sigma", "0.3", "--trials", "20", "--seed", "0"],
    "montecarlo_two_g_sigma0.3": ["montecarlo", "--preset", "two_gaussians", "--n", "N", "--sigma", "0.3",
                                  "--trials", "100", "--seed", "0"],
    "sweep_two_g": ["sweep", "--preset", "two_gaussians", "--n", "N", "--grid", "0.05,0.2,0.5", "--trials", "100",
                    "--seed", "0"],
}


def write_k64(directory: Path, n: int) -> None:
    rng = np.random.default_rng(0)
    centers = rng.uniform(-10.0, 10.0, (64, 2))
    points = centers[rng.integers(0, 64, n)] + rng.normal(0.0, 0.8, (n, 2))
    for name, rows in (("k64.points.csv", points), ("k64.centers.csv", centers)):
        body = "\n".join(f"{x!r},{y!r}" for x, y in rows.tolist())
        (directory / name).write_text(f"x1,x2\n{body}\n")


def measure(trees: dict[str, str], repeats: int, n: int) -> dict:
    argvs = {cmd: [str(n) if a == "N" else a for a in argv] for cmd, argv in COMMANDS.items()}
    samples = {name: {cmd: ([], []) for cmd in COMMANDS} for name in trees}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_k64(Path(tmp), n)
        for round_ in range(repeats):
            for name in (list(trees) if round_ % 2 == 0 else list(reversed(trees))):
                for cmd, argv in argvs.items():
                    wall, rss, report = run_child(["-m", "margin_guard", *argv], trees[name], cwd=tmp)
                    digest = hashlib.sha256(report).hexdigest()
                    if digests.setdefault(cmd, digest) != digest:
                        raise SystemExit(f"scale: {name} {cmd} printed a report unlike the first run's")
                    samples[name][cmd][0].append(wall)
                    samples[name][cmd][1].append(rss)
    return {
        "environment": {
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "n": n,
        "repeats": repeats,
        "trees": {
            name: {
                cmd: {"command": " ".join(["python", "-m", "margin_guard", *argvs[cmd]]),
                      "median_s": statistics.median(walls), "peak_rss_mb": max(rss), "wall_s": walls,
                      "report_sha256": digests[cmd]}
                for cmd, (walls, rss) in cmds.items()
            }
            for name, cmds in samples.items()
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=3, help="rounds; each runs every command once per tree")
    p.add_argument("--n", type=int, default=10**5, help="point count of every input")
    p.add_argument("--tree", type=parse_tree, action="append", metavar="NAME=SRC",
                   help="a source directory to measure, repeatable (default: current=src)")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    trees = dict(args.tree or [("current", str(ROOT / "src"))])
    ledger = measure(trees, args.repeats, args.n)
    args.out.write_text(json.dumps(ledger, indent=2) + "\n")
    for name, cmds in ledger["trees"].items():
        for cmd, entry in cmds.items():
            print(f"{name:>10} {cmd:<26} {entry['median_s']:.3f} s  {entry['peak_rss_mb']:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
