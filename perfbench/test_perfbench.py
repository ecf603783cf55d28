"""The benchmark's own tests.

    python3 -m pytest -q perfbench

Smoke runs execute every workload once at tiny sizes in a fresh process; the
count tests run full-size jobs in-process, so the module takes about half a
minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
from workloads import WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_TABLE = json.loads((Path(__file__).with_name("metrics.json")).read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(*argv: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    script = Path(cwd) / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd, capture_output=True, text=True, timeout=300)


def traced_job(workload: str, seed: int, directory: Path, smoke: bool = False) -> tuple[float, dict]:
    """Write inputs, run one traced job in-process, return (job seconds, layer metrics)."""
    sizes = WORKLOADS[workload].sizes(smoke)
    run.write_inputs(workload, seed, smoke, directory)
    argvs, outs = run.job_plan(workload, directory, seed, sizes)
    tracer = spans.Tracer()
    with tracer:
        job_s, times, codes = run.run_job(run.import_cli().main, argvs, outs)
    assert run.job_problems(argvs, outs, codes, None) == []
    return job_s, run.layer_metrics(tracer, argvs, job_s, times)


def test_benchmark_json_matches_the_benchmark():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in BENCH[key])
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    tabled = [name for group in LAYER_TABLE["layers"] for name in group["metrics"]]
    assert sorted(tabled) == sorted(m["name"] for m in BENCH["per_layer"])
    for group in LAYER_TABLE["layers"]:
        assert all(w in WORKLOADS for ws in group["on"].values() for w in ws)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_and_no_errors(workload, trace):
    done = run_cli("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "error_rate 0," in done.stdout
    assert not (run.ROOT / ".perfbench_work").exists()


def test_tracer_restores_every_wrapped_function():
    run.import_cli()
    package = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "margin_guard"}
    before = {(name, attr): value for name, mod in package.items() for attr, value in vars(mod).items()}
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            cli = package["margin_guard.cli"]
            assert cli.monte_carlo.__wrapped__ is before["margin_guard.stochastic", "monte_carlo"]
            assert package["margin_guard.stability"].assign_nearest.__wrapped__ is not None
            raise RuntimeError("leave the block early")
    after = {(name, attr): value for name, mod in package.items() for attr, value in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_account_for_the_traced_job(workload, tmp_path):
    job_s, layer = traced_job(workload, 5, tmp_path, smoke=True)
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s") and not k.startswith("cli."))
    assert math.isclose(self_total + layer["cli.self_s"], job_s, rel_tol=1e-9)
    assert all(v >= 0 for k, v in layer.items() if k.endswith(".self_s") and k != "cli.self_s")


@pytest.mark.parametrize(
    "workload, metric, value",
    [(w, m, v) for m, by_workload in LAYER_TABLE["computed_counts"].items() if m != "about"
     for w, v in by_workload.items()],
)
def test_computed_counts_repeat_exactly(workload, metric, value, tmp_path):
    first = traced_job(workload, 0, tmp_path / "a")[1]
    second = traced_job(workload, 0, tmp_path / "b")[1]
    assert first[metric] == second[metric] == value
    assert run.counts(first) == run.counts(second)


def test_radius_search_rejections_do_not_depend_on_the_seed(tmp_path):
    reevaluations = {
        seed: traced_job("analyze_adversarial", seed, tmp_path / str(seed))[1][
            "stability.empirical_partition_radius_search.reevaluations"]
        for seed in (1, 2)
    }
    assert reevaluations == {1: 49, 2: 49}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "mc_small_n", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_checks_report_broken_invariants():
    mc = {"per_index_switch_frequency": [0.5, 0.0], "mean_switched_count": 0.5, "mean_partition_distance": 0.1,
          "model": {"kind": "bounded_disk"}, "per_index_bound": [1.0, 0.0], "expected_switch_bound": 1.0}
    assert checks.invariant_problems("montecarlo", mc) == []
    assert checks.invariant_problems("montecarlo", {**mc, "mean_switched_count": 0.6})
    assert checks.invariant_problems("montecarlo", {**mc, "per_index_switch_frequency": [0.5, 0.1],
                                                    "mean_switched_count": 0.6})
    sweep = {"threshold": 0.1, "rows": [{"epsilon": 0.05, "mean_distance": 0.0, "max_distance": 0.0,
                                         "below_threshold": True}]}
    assert checks.invariant_problems("sweep", sweep) == []
    sweep["rows"][0]["max_distance"] = 0.2
    assert checks.invariant_problems("sweep", sweep)
    traj = {"cumulative_budget": [0.1, 0.2], "distance_from_initial": [0.0, 0.0, 0.5], "eta": 0.3,
            "instability_time": 2, "persistence": [{"horizon": 1, "certified": True},
                                                   {"horizon": 2, "certified": False}]}
    assert checks.invariant_problems("trajectory", traj) == []
    assert checks.invariant_problems("trajectory", {**traj, "persistence": [{"horizon": 2, "certified": True}]})
    assert checks.invariant_problems("trajectory", {**traj, "cumulative_budget": [0.2, 0.1]})
    adv = {"empirical_partition_radius": {"radius": 0.3}, "margin_lower_bound_radius": 0.4}
    assert checks.invariant_problems("analyze", adv)
    assert checks.invariant_problems("analyze", {}) != []


def test_reference_check_ignores_added_fields_but_not_changed_ones():
    frozen = {"mean": checks.field_digest(0.25), "rows": checks.field_digest([1, 2])}
    assert checks.reference_problems(frozen, {"mean": 0.25, "rows": [1, 2], "meta": {"version": "x"}}) == []
    assert checks.reference_problems(frozen, {"mean": 0.2500001, "rows": [1, 2]})
    assert checks.reference_problems(frozen, {"mean": 0.25})


def test_reference_covers_every_invocation_of_every_workload(tmp_path):
    reference = checks.load_reference()
    for name, w in WORKLOADS.items():
        argvs, _ = run.job_plan(name, tmp_path, checks.DEFAULT_SEED, w.full)
        assert len(reference[name]) == len(argvs)
