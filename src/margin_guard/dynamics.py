"""Discrete-time trajectories: step sizes, cumulative drift, persistence.

A trajectory is a time-ordered sequence of configurations over a fixed index
set with centers held fixed for all times. Certificates substitute the
computable lower bound min_margin / 2 for the exact stability radius, so they
are sound but conservative: certified implies the partition is unchanged,
uncertified implies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import CenterSet, PointConfig, assign_nearest, perturbation_size
from .partitions import Partition, _label_distance, induced_partition

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


@dataclass(frozen=True)
class Trajectory:
    """Snapshots X(0..T) over one index set, with centers shared across time."""

    snapshots: tuple[PointConfig, ...]
    centers: CenterSet

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if not snaps:
            raise ValueError("a trajectory needs at least one snapshot")
        first = snaps[0]
        for t, snap in enumerate(snaps):
            if snap.n != first.n or snap.d != first.d:
                raise ValueError(
                    f"snapshot {t} has shape ({snap.n}, {snap.d}), expected ({first.n}, {first.d}); "
                    "the point indexing is fixed over time"
                )
        if first.d != self.centers.d:
            raise ValueError("centers dimension does not match snapshots")
        object.__setattr__(self, "snapshots", snaps)

    @property
    def horizon(self) -> int:
        """Number of steps T; snapshots run over times 0..T."""
        return len(self.snapshots) - 1

    @property
    def n(self) -> int:
        return self.snapshots[0].n

    @property
    def d(self) -> int:
        return self.snapshots[0].d


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
    """Step sizes, plus the min margin and distance from time 0 of each assigned snapshot."""

    deltas: np.ndarray
    min_margins: list[float]
    distances: list[float]

    def certificate(self, t: int) -> PersistenceCertificate:
        budget = float(self.deltas[:t].sum())  # a numpy sum, not a cumsum entry: they differ in the last ulp
        bound = self.min_margins[0] / 2.0
        return PersistenceCertificate(t, budget, bound, budget < bound)

    def stepwise(self) -> list[bool]:
        return [bool(delta < m / 2.0) for delta, m in zip(self.deltas, self.min_margins)]

    def instability_time(self, eta: float) -> int | None:
        return next((t for t, dist in enumerate(self.distances) if t > 0 and dist >= eta), None)


def _trajectory_pass(traj: Trajectory, assigned: int | None = None) -> _Pass:
    """One O(T·n·k) pass: all step sizes, then the first ``assigned`` snapshots (default all)
    assigned one at a time, keeping their labels and min margins, then one distance call for
    all labels; memory is O(n·k) beyond the stacked snapshots and the (T+1, n) labels."""
    steps = np.diff(np.stack([s.points for s in traj.snapshots]), axis=0)
    # sqrt of a sum over the last axis, then max: bit-identical to perturbation_size
    deltas = np.sqrt((steps * steps).sum(axis=2)).max(axis=1)
    out, labels = _Pass(deltas, [], []), []
    for snap in traj.snapshots[:assigned]:
        assignment = assign_nearest(snap, traj.centers)
        labels.append(assignment.labels)
        out.min_margins.append(assignment.min_margin)
    if labels:
        out.distances.extend(_label_distance(labels[0], np.array(labels)).tolist())
    return out


def step_sizes(traj: Trajectory) -> np.ndarray:
    """One-step sizes delta_t = max per-point displacement between t and t+1."""
    if traj.horizon < 1:
        raise ValueError("step sizes need at least two snapshots")
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
    since partial budget sums are monotone in t.
    """
    if not 0 <= t <= traj.horizon:
        raise ValueError(f"horizon t={t} outside 0..{traj.horizon}")
    return _trajectory_pass(traj, assigned=1).certificate(t)


def stepwise_stability_check(traj: Trajectory) -> list[bool]:
    """Per-step certificates delta_r < min_margin(X(r)) / 2.

    Margins are re-evaluated at each snapshot, so a trajectory whose points
    recede from all decision boundaries can pass late large steps that the
    initial margins would reject. If steps 0..t-1 all pass, the partitions at
    times 0..t are equal.
    """
    if traj.horizon < 1:
        raise ValueError("step sizes need at least two snapshots")
    return _trajectory_pass(traj, assigned=traj.horizon).stepwise()


def instability_time(traj: Trajectory, eta: float) -> int | None:
    """First time t >= 1 with partition distance from time 0 at least eta.

    Returns None when the threshold is not reached within the trajectory
    horizon; a finite trajectory cannot distinguish "never" from "not yet".
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    return _trajectory_pass(traj).instability_time(eta)


def snapshot_partitions(traj: Trajectory) -> list[Partition]:
    """Induced partition at every snapshot time."""
    return [induced_partition(assign_nearest(s, traj.centers)) for s in traj.snapshots]
