"""Discrete-time trajectories: step sizes, cumulative drift, persistence.

A trajectory is a time-ordered sequence of configurations over a fixed index
set with centers held fixed for all times. Certificates substitute the
computable lower bound min_margin / 2 for the exact stability radius, so they
are sound but conservative: certified implies the partition is unchanged,
uncertified implies nothing. Both certificates apply ``geometry._no_switch``,
the one no-switch rule. ``Trajectory``, the one snapshot shape check, has one
constructor, for ``PointConfig``s and ``read_trajectory_file``'s snapshots alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (CenterSet, PointConfig, _check_coordinates, _max_displacement, _nearest, _no_switch,
                       perturbation_size)
from .partitions import Partition, _label_distance

__all__ = [
    "Trajectory",
    "DriftCheck",
    "PersistenceCertificate",
    "step_sizes",
    "cumulative_drift_check",
    "persistence_certificate",
    "stepwise_stability_check",
    "instability_time",
    "snapshot_partitions",
]

# Relative slack for the drift <= budget comparison; covers floating-point
# accumulation in the budget sum, which could otherwise round below the drift.
DRIFT_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots X(0..T) over one index set, with centers shared across time.

    ``snapshots`` (``PointConfig``s, coordinate arrays, or one (T+1, n, d) array) are copied into one
    read-only (T+1, n, d) stack, checked as a whole the way PointConfig checks one snapshot, with rows
    named "snapshot t row i". Every reader works on the stack; ``snapshots`` holds a view per time.
    """

    snapshots: tuple[PointConfig, ...]
    centers: CenterSet
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        snaps = self.snapshots
        if not isinstance(snaps, np.ndarray):
            snaps = [getattr(snap, "points", snap) for snap in snaps]
        try:
            stack = np.array(snaps, dtype=float)
        except ValueError:  # name the first snapshot whose shape differs from snapshot 0, if one does
            shapes = [np.shape(snap) for snap in snaps]
            t = next((t for t, shape in enumerate(shapes) if shape != shapes[0]), None)
            if t is None:
                raise
            rule = ("the point indexing is fixed over time" if shapes[t][:1] != shapes[0][:1]
                    else "every snapshot has the dimension of snapshot 0")
            raise ValueError(f"snapshot {t} has shape {shapes[t]}, expected {shapes[0]}; {rule}") from None
        if stack.shape[:1] == (0,):
            raise ValueError("a trajectory needs at least one snapshot")
        if stack.ndim != 3:
            raise ValueError("snapshots must form a (T+1, n, d) array of coordinate vectors")
        _, n, d = stack.shape
        if d < 1:
            raise ValueError("snapshot points must have dimension >= 1")
        if n < 2:
            raise ValueError(f"snapshot 0 has {n} point(s); a configuration needs at least 2 points")
        _check_coordinates(stack, lambda r: f"snapshot {r // n} row {r % n + 1}")
        if d != self.centers.d:
            raise ValueError("centers dimension does not match snapshots")
        stack.setflags(write=False)
        object.__setattr__(self, "snapshots", tuple(map(PointConfig._of_checked, stack)))
        object.__setattr__(self, "_stack", stack)

    @property
    def horizon(self) -> int:
        """Number of steps T; snapshots run over times 0..T."""
        return len(self.snapshots) - 1

    @property
    def n(self) -> int:
        return self._stack.shape[1]

    @property
    def d(self) -> int:
        return self._stack.shape[2]


class DriftCheck(NamedTuple):
    drift: float
    budget: float
    bound_holds: bool


@dataclass(frozen=True)
class PersistenceCertificate:
    horizon: int
    cumulative_budget: float
    initial_radius_lower_bound: float
    certified: bool


class _Pass(NamedTuple):
    """Step sizes, plus the labels, min margin and distance from time 0 of each assigned snapshot."""

    deltas: np.ndarray
    labels: np.ndarray
    min_margins: list[float]
    distances: list[float]

    def certificate(self, t: int) -> PersistenceCertificate:
        budget = float(self.deltas[:t].sum())  # a numpy sum, not a cumsum entry: they differ in the last ulp
        return PersistenceCertificate(t, budget, self.min_margins[0] / 2.0, _no_switch(budget, self.min_margins[0]))

    def stepwise(self) -> list[bool]:
        return [_no_switch(delta, m) for delta, m in zip(self.deltas.tolist(), self.min_margins)]

    def instability_time(self, eta: float) -> int | None:
        return next((t for t, dist in enumerate(self.distances) if t > 0 and dist >= eta), None)


def _trajectory_pass(traj: Trajectory, assigned: int | None = None) -> _Pass:
    """One O(T·n·k) pass over the stored stack: all step sizes, then one _nearest call over the
    stacked rows of the first ``assigned`` snapshots (default all), then one distance call for all
    their labels. _nearest works in row blocks, so memory is O(block) beyond the stack and the
    (assigned, n) labels and margins."""
    stack = traj._stack
    deltas = _max_displacement(stack[:-1], stack[1:])
    rows = stack[:assigned]
    labels, margins = _nearest(rows.reshape(-1, traj.d), traj.centers.centers)
    labels, margins = labels.reshape(len(rows), traj.n), margins.reshape(len(rows), traj.n)
    distances = _label_distance(labels[0], labels).tolist() if len(rows) else []
    return _Pass(deltas, labels, margins.min(axis=1).tolist(), distances)


def _check_steps(traj: Trajectory) -> None:
    """The one rule of every step-size report: at least one step, so two snapshots."""
    if traj.horizon < 1:
        raise ValueError("step sizes need at least two snapshots")


def _check_eta(eta: float) -> None:
    """The one range check of a partition-distance threshold."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")


def step_sizes(traj: Trajectory) -> np.ndarray:
    """One-step sizes delta_t = max per-point displacement between t and t+1."""
    _check_steps(traj)
    return _trajectory_pass(traj, assigned=0).deltas


def cumulative_drift_check(traj: Trajectory, s: int, t: int) -> DriftCheck:
    """Compare total drift between times s < t against the step-size budget.

    The triangle inequality guarantees drift <= sum of step sizes; the check
    allows DRIFT_SLACK relative tolerance for floating accumulation.
    """
    if not 0 <= s < t <= traj.horizon:
        raise ValueError(f"need 0 <= s < t <= {traj.horizon}, got s={s}, t={t}")
    drift = perturbation_size(traj.snapshots[s], traj.snapshots[t])
    budget = float(_trajectory_pass(traj, assigned=0).deltas[s:t].sum())
    return DriftCheck(drift=drift, budget=budget, bound_holds=drift <= budget * (1.0 + DRIFT_SLACK))


def persistence_certificate(traj: Trajectory, t: int) -> PersistenceCertificate:
    """Certify that the partition at time t still equals the initial one.

    Uses the provable lower bound min_margin(X(0)) / 2 in place of the exact
    stability radius. When certified, partitions at all times 0..t coincide,
    since partial budget sums are monotone in t. A zero budget certifies even
    at zero margin: the only size-0 perturbation is the configuration itself.
    """
    if not 0 <= t <= traj.horizon:
        raise ValueError(f"horizon t={t} outside 0..{traj.horizon}")
    return _trajectory_pass(traj, assigned=1).certificate(t)


def stepwise_stability_check(traj: Trajectory) -> list[bool]:
    """Per-step certificates delta_r < min_margin(X(r)) / 2, or delta_r = 0.

    Margins are re-evaluated at each snapshot, so a trajectory whose points
    recede from all decision boundaries can pass late large steps that the
    initial margins would reject. If steps 0..t-1 all pass, the partitions at
    times 0..t are equal.
    """
    _check_steps(traj)
    return _trajectory_pass(traj, assigned=traj.horizon).stepwise()


def instability_time(traj: Trajectory, eta: float) -> int | None:
    """First time t >= 1 with partition distance from time 0 at least eta.

    Returns None when the threshold is not reached within the trajectory
    horizon; a finite trajectory cannot distinguish "never" from "not yet".
    """
    _check_eta(eta)
    return _trajectory_pass(traj).instability_time(eta)


def snapshot_partitions(traj: Trajectory) -> list[Partition]:
    """Induced partition at every snapshot time."""
    return [Partition.from_labels(labels) for labels in _trajectory_pass(traj).labels]
