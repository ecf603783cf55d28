"""margin-guard benchmark: end-to-end CLI jobs and per-layer spans.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of the workloads in workloads.py, or ``all`` to run each in its
own child process. One process runs one workload as a closed loop: a single
caller, one job at a time, no threads, BLAS pools held to one thread. A job
calls ``margin_guard.cli.main`` in-process for each of the workload's
invocations, writing reports to files, and each report is checked
(checks.py). Jobs repeat until S seconds have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and prints the per-layer metrics of spans.py plus
``cli.*`` and ``trace.overhead_frac``. The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics. The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 1 and prints no result.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBCOMMANDS = ("montecarlo", "sweep", "trajectory", "analyze")
END_TO_END_UNITS = {"setup_s": "s", "job_min_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MiB"}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def import_cli():
    """Import margin_guard from this checkout's src/ and return its cli module."""
    if not (SRC / "margin_guard" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'margin_guard'} is missing")
    sys.path.insert(0, str(SRC))
    import margin_guard
    import margin_guard.cli

    if Path(margin_guard.__file__).resolve().parent != SRC / "margin_guard":
        raise SystemExit(f"perfbench: imported margin_guard from {margin_guard.__file__}, not from {SRC}")
    return margin_guard.cli


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_inputs(workload: str, seed: int, smoke: bool, directory: Path) -> None:
    w = WORKLOADS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    w.write_inputs(directory, np.random.default_rng(seed), w.sizes(smoke))


# Reference child: a fresh interpreter importing only modules the program
# does not own. Set-up time drifts by a third with the host's state, and the
# reference drifts with it; the median set-up over the median reference of
# the same run stays within about 5%. REFERENCE_CHILD_S, the reference's time
# on an unloaded host, turns that ratio back into seconds.
REFERENCE_CHILD = [sys.executable, "-c", "import argparse, json, numpy"]
REFERENCE_CHILD_S = 0.11


def timed_child(cmd: list[str]) -> float:
    """Wall time of one child process, which must succeed."""
    start = perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd[1:3])} failed with exit code {done.returncode}")
    return elapsed


def measure_setup(args, directory: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import the program and write the
    inputs, each followed by one reference child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--write-inputs", str(directory)] + (["--smoke"] if args.smoke else [])
    setups, references = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(timed_child(cmd))
        references.append(timed_child(REFERENCE_CHILD))
    return setups, references


# Host-speed probe: a fixed mix of the program's kinds of work (numpy calls
# on tiny arrays in a Python loop, small array reductions, interpreter
# arithmetic, a pair-matrix compare with its large temporaries), owned by the
# benchmark so no program change can move it. It is timed after every
# untraced job. On a shared host whose speed drifts by a third for tens of
# seconds, the fastest job divided by the fastest probe of the same run is
# steady where raw job times are not; PROBE_REFERENCE_S, the probe's fastest
# time on an unloaded 2.1 GHz core, turns that ratio back into seconds.
PROBE_REFERENCE_S = 0.007
_PROBE_POINTS = np.random.default_rng(0).random((256, 2))
_PROBE_CENTERS = np.random.default_rng(1).random((64, 2))
_PROBE_LABELS = np.random.default_rng(2).integers(0, 4, 600)


def probe_s() -> float:
    """Wall time of one run of the fixed host-speed probe."""
    start = perf_counter()
    acc = 0.0
    for i in range(1024):
        acc += float(((_PROBE_POINTS[i % 256] - _PROBE_CENTERS[i % 64]) ** 2).sum())
    for c in _PROBE_CENTERS:
        acc += float(np.linalg.norm(_PROBE_POINTS - c, axis=1).min())
    acc += sum(i * 0.5 for i in range(20000))
    same = _PROBE_LABELS[:, None] == _PROBE_LABELS[None, :]
    iu, ju = np.triu_indices(_PROBE_LABELS.size, k=1)
    acc += int(same[iu, ju].sum())
    return perf_counter() - start


def job_plan(workload: str, directory: Path, seed: int, sizes: dict) -> tuple[list[list[str]], list[Path]]:
    """Each invocation's argv, writing its report to the matching output path."""
    argvs = WORKLOADS[workload].argvs(directory, seed, sizes)
    outs = [directory / f"out{i}.json" for i in range(len(argvs))]
    return [argv + ["--out", str(out)] for argv, out in zip(argvs, outs)], outs


def run_job(main, argvs: list[list[str]], outs: list[Path]) -> tuple[float, list[float], list[int]]:
    """Run one job; return its wall time, each invocation's time and exit codes."""
    for out in outs:
        out.unlink(missing_ok=True)
    times, codes = [], []
    start = perf_counter()
    for argv in argvs:
        t0 = perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash fails this job; the loop goes on
            traceback.print_exc()
            code = -1
        times.append(perf_counter() - t0)
        codes.append(code)
    return perf_counter() - start, times, codes


def job_problems(argvs, outs, codes, reference) -> list[str]:
    problems = []
    for i, (argv, out, code) in enumerate(zip(argvs, outs, codes)):
        if code != 0:
            problems.append(f"{argv[0]} exited with code {code}")
            continue
        try:
            doc = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{argv[0]} wrote no readable report: {exc}")
            continue
        problems += checks.invariant_problems(argv[0], doc)
        if reference is not None:
            problems += checks.reference_problems(reference[i], doc)
    return problems


def layer_metrics(tracer: spans.Tracer, argvs, job_s: float, times: list[float]) -> dict[str, float]:
    out = tracer.metrics()
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.s"] = sum(t for argv, t in zip(argvs, times) if argv[0] == sub)
    out["cli.self_s"] = job_s - tracer.top_s
    return out


def counts(layer: dict[str, float]) -> dict[str, float]:
    """The computed counts of one traced job, which must repeat exactly."""
    return {name: value for name, value in layer.items() if unit(name) != "s"}


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "fraction"
    return "count"


def run_workload(args) -> dict:
    w = WORKLOADS[args.workload]
    sizes = w.sizes(args.smoke)
    main = import_cli().main  # fail before any set-up when the program is missing
    work_root = ROOT / ".perfbench_work"
    directory = work_root / f"{w.name}-{os.getpid()}"
    try:
        setup_times, reference_times = measure_setup(args, directory)
        argvs, outs = job_plan(w.name, directory, args.seed, sizes)
        reference = None
        if args.seed == checks.DEFAULT_SEED and not args.smoke:
            reference = checks.load_reference()[w.name]

        untraced, traced, layers = [], [], []
        attempted = failed = 0
        tracer = spans.Tracer()
        probes = [probe_s()]
        deadline = perf_counter() + args.seconds
        while not (perf_counter() >= deadline and untraced and (traced or not args.trace)):
            if args.trace and len(traced) < len(untraced):
                tracer.reset()
                with tracer:
                    job_s, times, codes = run_job(main, argvs, outs)
                traced.append(job_s)
                layers.append(layer_metrics(tracer, argvs, job_s, times))
                problems = job_problems(argvs, outs, codes, reference)
                if counts(layers[-1]) != counts(layers[0]):
                    problems.append("computed counts differ from the first traced job")
            else:
                job_s, times, codes = run_job(main, argvs, outs)
                untraced.append(job_s)
                probes.append(probe_s())
                problems = job_problems(argvs, outs, codes, reference)
            attempted += 1
            if problems:
                failed += 1
                print(f"# job {attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    best = min(untraced)
    speed = PROBE_REFERENCE_S / min(probes)
    quartiles = statistics.quantiles(untraced, n=4) if len(untraced) > 1 else [best] * 3
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# {w.name}: sizes {json.dumps(sizes, sort_keys=True)}, {len(untraced)} untraced and "
          f"{len(traced)} traced jobs, error_rate {failed / attempted:.4g}, untraced job s "
          f"min {best:.4f} q1 {quartiles[0]:.4f} p50 {quartiles[1]:.4f} q3 {quartiles[2]:.4f}, "
          f"setup s {' '.join(f'{t:.3f}' for t in setup_times)}, reference child s "
          f"{' '.join(f'{t:.3f}' for t in reference_times)}, fastest probe {min(probes):.5f} s")
    if args.trace:
        fastest = layers[traced.index(min(traced))]
        values = {**fastest, "trace.overhead_frac": min(traced) / best - 1.0}
    else:
        values = {
            "setup_s": statistics.median(setup_times) * REFERENCE_CHILD_S / statistics.median(reference_times),
            "job_min_s": best * speed,
            "items_per_s": w.items(sizes) / (best * speed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in values.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process; metrics keyed <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with code {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--write-inputs", metavar="DIR", help=argparse.SUPPRESS)  # set-up child process
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_inputs:
        import_cli()
        write_inputs(args.workload, args.seed, args.smoke, Path(args.write_inputs))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
