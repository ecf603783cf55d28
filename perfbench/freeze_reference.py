"""Regenerate reference.json: the default-seed result fields of each workload.

    python3 perfbench/freeze_reference.py

Run it only when a workload's inputs or sizes change on purpose; the frozen
digests are what lets the benchmark notice a changed result.
"""

from __future__ import annotations

import json
import shutil

import checks
import run
from workloads import WORKLOADS


def main() -> None:
    cli_main = run.import_cli().main
    frozen = {}
    for name, w in WORKLOADS.items():
        directory = run.ROOT / ".perfbench_work" / f"freeze-{name}"
        try:
            run.write_inputs(name, checks.DEFAULT_SEED, False, directory)
            argvs, outs = run.job_plan(name, directory, checks.DEFAULT_SEED, w.full)
            _, _, codes = run.run_job(cli_main, argvs, outs)
            problems = run.job_problems(argvs, outs, codes, None)
            if problems:
                raise SystemExit(f"{name}: {'; '.join(problems)}")
            frozen[name] = [
                {key: checks.field_digest(value) for key, value in json.loads(out.read_text()).items()}
                for out in outs
            ]
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
