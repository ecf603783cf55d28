"""Cold-start ledger: wall time and peak memory of fresh CLI processes.

Usage, from the repository root:

    python3 bench/coldstart.py [--repeats N] [--tree NAME=SRC ...] [--out PATH]

Every CLI call starts a new interpreter, so its import time is part of what a
user waits for. Each subcommand below runs as a fresh ``python -m margin_guard``
child on a golden input of tests/golden/cli, with the source directory SRC on
PYTHONPATH (default: this checkout's src/, named ``current``); its report must
equal the golden file byte for byte. Wall time is taken around the child, and
its peak RSS comes from ``os.wait4``.

A reference child, ``python -c "import numpy"``, runs before each tree's
commands in every round. Host load moves it with the children, so each
command's median over the reference's median is steadier than either time
alone. Trees run in alternating order from round to round, so a drift in host
speed falls on every tree alike. The result, with per-run wall times, is
written as JSON (default BENCH_coldstart.json at the repository root).
"""

from __future__ import annotations

import os

# Before numpy is imported in any child: one BLAS thread, as the benchmark runs it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests", "golden", "cli")
GAUSS = ["--preset", "two_gaussians", "--n", "300", "--seed", "0"]
# name: (argv after ``python -m margin_guard``, golden report it must print)
COMMANDS = {
    "analyze": (["analyze", *GAUSS, "--epsilon", "0.1"], "analyze_two_gaussians_n300.json"),
    "trajectory": (["trajectory", "--points", str(GOLDEN / "trajectory_long_input.json"), "--eta", "0.2",
                    "--seed", "0"], "trajectory_long.json"),
    "sweep": (["sweep", *GAUSS, "--grid", "0.01,0.1,0.4,1.0", "--trials", "40"], "sweep_two_gaussians_n300.json"),
    "montecarlo_rho": (["montecarlo", *GAUSS, "--rho", "0.3", "--trials", "100"],
                       "montecarlo_rho_two_gaussians_n300.json"),
    "montecarlo_sigma": (["montecarlo", *GAUSS, "--sigma", "0.2", "--trials", "100"],
                         "montecarlo_sigma_two_gaussians_n300.json"),
}
REFERENCE = ["-c", "import numpy"]


def run_child(args: list[str], src: str | None, cwd: Path | str = ROOT) -> tuple[float, float, bytes]:
    """Wall seconds, peak RSS in MiB and stdout of one ``python`` child run in ``cwd``, which must succeed."""
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = src
    with tempfile.TemporaryFile() as out:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, cwd=cwd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"coldstart: python {' '.join(args)} exited with {proc.returncode}")
        out.seek(0)
        return wall, usage.ru_maxrss / 1024.0, out.read()


def summary(argv: list[str], walls: list[float], rss: list[float]) -> dict:
    return {"command": " ".join(["python", *argv]), "median_s": statistics.median(walls), "peak_rss_mb": max(rss),
            "wall_s": walls}


def measure(trees: dict[str, str], repeats: int) -> dict:
    samples = {name: {cmd: ([], []) for cmd in COMMANDS} for name in trees}
    reference = ([], [])
    for round_ in range(repeats):
        for name in (list(trees) if round_ % 2 == 0 else list(reversed(trees))):
            wall, rss, _ = run_child(REFERENCE, None)
            reference[0].append(wall)
            reference[1].append(rss)
            for cmd, (argv, golden) in COMMANDS.items():
                wall, rss, report = run_child(["-m", "margin_guard", *argv], trees[name])
                if report != (ROOT / GOLDEN / golden).read_bytes():
                    raise SystemExit(f"coldstart: {name} {cmd} does not reproduce {GOLDEN / golden}")
                samples[name][cmd][0].append(wall)
                samples[name][cmd][1].append(rss)
    ref = summary(REFERENCE, *reference)
    result = {name: {} for name in trees}
    for name, cmds in samples.items():
        for cmd, (walls, rss) in cmds.items():
            entry = summary(["-m", "margin_guard", *COMMANDS[cmd][0]], walls, rss)
            entry["ratio_to_reference"] = entry["median_s"] / ref["median_s"]
            result[name][cmd] = entry
    return {
        "environment": {
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "repeats": repeats,
        "reference": ref,
        "trees": result,
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
    p.add_argument("--repeats", type=int, default=7, help="rounds; each runs every command once per tree")
    p.add_argument("--tree", type=parse_tree, action="append", metavar="NAME=SRC",
                   help="a source directory to measure, repeatable (default: current=src)")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_coldstart.json")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    trees = dict(args.tree or [("current", str(ROOT / "src"))])
    ledger = measure(trees, args.repeats)
    args.out.write_text(json.dumps(ledger, indent=2) + "\n")
    for name, cmds in ledger["trees"].items():
        for cmd, entry in cmds.items():
            print(f"{name:>10} {cmd:<17} {entry['median_s']:.3f} s  x{entry['ratio_to_reference']:.2f}"
                  f"  {entry['peak_rss_mb']:.1f} MiB")
    print(f"{'reference':>10} {'import numpy':<17} {ledger['reference']['median_s']:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
