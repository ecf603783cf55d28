"""The benchmark's workloads: seeded input generators and the job each runs.

A job is a fixed list of margin-guard CLI invocations. Input files are
generated here from the workload seed; the program sees only those files and
argv. Sizes keep a job near 0.2 s on one core: on a shared host whose speed
drifts for seconds at a time, only many short jobs per run give a steady
fastest job. ``smoke`` sizes let the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Adversarial radius-search layout: an 8 x 8 grid of unit-spaced centers
# (k = 64). Cells with an even coordinate sum may hold points; the others stay
# empty, so every occupied cell has empty edge neighbours. Singletons sit at
# offset (u, v) toward one corner with u, v in SINGLETON_OFFSET. Each has three
# candidate moves that cost at most 0.29 and leave the partition unchanged:
# onto either empty edge neighbour (cost 0.5 - u), and just past the bisector
# of the occupied diagonal cell, (1 - u - v) / sqrt(2), which lands nearer an
# empty edge neighbour when u != v. Every partition-changing move costs more:
# a deep point's cheapest move is at least 0.5 - DEEP_RADIUS = 0.3. The search
# therefore re-evaluates 3 * SINGLETON_CELLS rejected moves and then its
# witness, whatever the seed.
GRID = 8
DEEP_CELLS = 16
SINGLETON_CELLS = 16
DEEP_RADIUS = 0.2
SINGLETON_OFFSET = (0.30, 0.33)

# Trajectory: points start within WALK_START of one of four centers three
# units apart and random-walk inside WALK_LIMIT of it, so no point crosses a
# bisector (1.5 away) and every seed does the same work.
WALK_CENTERS = [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]]
WALK_START = 0.8
WALK_LIMIT = 1.2
WALK_STEP = 0.005


def _write_matrix_csv(path: Path, rows: np.ndarray) -> None:
    header = ",".join(f"x{j + 1}" for j in range(rows.shape[1]))
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    path.write_text(f"{header}\n{body}\n")


def adversarial_inputs(rng: np.random.Generator, deep_per_cell: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, centers) of the checkerboard radius-search worst case."""
    cells = [(i, j) for i in range(GRID) for j in range(GRID)]
    centers = np.array(cells, dtype=float)
    occupied = [c for c in cells if (c[0] + c[1]) % 2 == 0]
    order = rng.permutation(len(occupied))
    deep = [occupied[i] for i in order[:DEEP_CELLS]]
    single = [occupied[i] for i in order[DEEP_CELLS:DEEP_CELLS + SINGLETON_CELLS]]
    rows = []
    for cell in deep:
        radius = DEEP_RADIUS * np.sqrt(rng.random(deep_per_cell))
        angle = 2.0 * np.pi * rng.random(deep_per_cell)
        rows.append(np.asarray(cell) + np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]))
    for i, j in single:
        # corner direction pointing into the grid, so both edge neighbours exist
        sx = 1 if i == 0 else -1 if i == GRID - 1 else int(rng.choice([-1, 1]))
        sy = 1 if j == 0 else -1 if j == GRID - 1 else int(rng.choice([-1, 1]))
        u, v = rng.uniform(*SINGLETON_OFFSET, size=2)
        rows.append(np.array([[i + sx * u, j + sy * v]]))
    return np.vstack(rows), centers


def trajectory_inputs(rng: np.random.Generator, n: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(snapshots of shape (steps + 1, n, 2), centers) of a confined random walk."""
    centers = np.array(WALK_CENTERS)
    home = centers[rng.integers(0, len(centers), size=n)]
    radius = WALK_START * np.sqrt(rng.random(n))
    angle = 2.0 * np.pi * rng.random(n)
    offset = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    snaps = np.empty((steps + 1, n, 2))
    snaps[0] = home + offset
    for t in range(1, steps + 1):
        offset = offset + rng.normal(0.0, WALK_STEP, size=(n, 2))
        norms = np.linalg.norm(offset, axis=1)
        far = norms > WALK_LIMIT
        offset[far] *= (WALK_LIMIT / norms[far])[:, None]
        snaps[t] = home + offset
    return snaps, centers


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict
    smoke: dict
    # (directory, rng, sizes) -> None: writes the input files
    write_inputs: Callable[[Path, np.random.Generator, dict], None]
    # (directory, seed, sizes) -> argv of each invocation, output excluded
    argvs: Callable[[Path, int, dict], list[list[str]]]
    # sizes -> work items per job
    items: Callable[[dict], int]

    def sizes(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.full


def _no_inputs(directory: Path, rng: np.random.Generator, sizes: dict) -> None:
    pass


def _write_trajectory(directory: Path, rng: np.random.Generator, sizes: dict) -> None:
    snaps, centers = trajectory_inputs(rng, sizes["n"], sizes["steps"])
    doc = {"schema_version": 1, "centers": centers.tolist(), "snapshots": snaps.tolist()}
    (directory / "traj.json").write_text(json.dumps(doc))


def _write_adversarial(directory: Path, rng: np.random.Generator, sizes: dict) -> None:
    points, centers = adversarial_inputs(rng, sizes["deep_per_cell"])
    _write_matrix_csv(directory / "adv.csv", points)
    _write_matrix_csv(directory / "ctr.csv", centers)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_large_n",
            full={"n": 2000, "mc_trials": 3, "sweep_trials": 1},
            smoke={"n": 60, "mc_trials": 3, "sweep_trials": 2},
            write_inputs=_no_inputs,
            argvs=lambda d, seed, s: [
                ["montecarlo", "--preset", "two_gaussians", "--n", str(s["n"]), "--sigma", "0.3",
                 "--trials", str(s["mc_trials"]), "--seed", str(seed)],
                ["sweep", "--preset", "two_gaussians", "--n", str(s["n"]), "--grid", "0.05,0.2,0.5",
                 "--trials", str(s["sweep_trials"]), "--seed", str(seed)],
            ],
            items=lambda s: s["n"] * (s["mc_trials"] + 3 * s["sweep_trials"]),
        ),
        Workload(
            name="mc_small_n",
            full={"trials": 2000},
            smoke={"trials": 50},
            write_inputs=_no_inputs,
            argvs=lambda d, seed, s: [
                ["montecarlo", "--preset", "near_boundary", "--delta", "0.05", "--rho", "0.2",
                 "--trials", str(s["trials"]), "--seed", str(seed)],
            ],
            items=lambda s: 3 * s["trials"],
        ),
        Workload(
            name="trajectory_long",
            full={"n": 200, "steps": 100},
            smoke={"n": 20, "steps": 12},
            write_inputs=_write_trajectory,
            argvs=lambda d, seed, s: [["trajectory", "--points", str(d / "traj.json"), "--eta", "0.05"]],
            items=lambda s: s["n"] * (s["steps"] + 1),
        ),
        Workload(
            name="analyze_adversarial",
            full={"deep_per_cell": 25},
            smoke={"deep_per_cell": 3},
            write_inputs=_write_adversarial,
            argvs=lambda d, seed, s: [
                ["analyze", "--points", str(d / "adv.csv"), "--centers", str(d / "ctr.csv"), "--epsilon", "0.05"],
            ],
            items=lambda s: (DEEP_CELLS * s["deep_per_cell"] + SINGLETON_CELLS) * GRID * GRID,
        ),
    )
}
