"""Correctness checks on each job's CLI output.

Two parts. ``invariant_problems`` holds for any seed: identities and bounds
from the paper that every report must satisfy. ``reference_problems`` holds
for the default seed only: each result field frozen in reference.json must be
present and equal, compared by a digest of its canonical JSON. Fields a later
version adds are ignored; a changed number is not.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0


def field_digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _montecarlo(doc: dict) -> list[str]:
    out = []
    freq = doc["per_index_switch_frequency"]
    if not _close(doc["mean_switched_count"], math.fsum(freq)):
        out.append("mean_switched_count differs from the sum of per-index frequencies")
    if not all(0.0 <= f <= 1.0 for f in freq) or not 0.0 <= doc["mean_partition_distance"] <= 1.0:
        out.append("a frequency or the mean distance lies outside [0, 1]")
    if doc["model"]["kind"] == "bounded_disk":
        # a zero tail bound means margin >= 2 rho: noise of norm <= rho cannot switch the index
        if any(f != 0.0 for f, b in zip(freq, doc["per_index_bound"]) if b == 0.0):
            out.append("an index with margin >= 2 rho switched under bounded noise")
    if not _close(doc["expected_switch_bound"], math.fsum(doc["per_index_bound"])):
        out.append("expected_switch_bound differs from the sum of per-index bounds")
    return out


def _sweep(doc: dict) -> list[str]:
    out = []
    for row in doc["rows"]:
        if row["below_threshold"] != (row["epsilon"] < doc["threshold"]):
            out.append(f"row epsilon={row['epsilon']} has the wrong below_threshold flag")
        if row["below_threshold"] and row["max_distance"] != 0.0:
            out.append(f"row epsilon={row['epsilon']} is below threshold but max_distance > 0")
        if not 0.0 <= row["mean_distance"] <= row["max_distance"] <= 1.0:
            out.append(f"row epsilon={row['epsilon']} has mean/max distance out of order")
    return out


def _trajectory(doc: dict) -> list[str]:
    out = []
    budgets = doc["cumulative_budget"]
    if any(b < a for a, b in zip(budgets, budgets[1:])):
        out.append("cumulative budgets are not monotone")
    certified = [p["certified"] for p in doc["persistence"]]
    if any(later and not earlier for earlier, later in zip(certified, certified[1:])):
        out.append("a persistence certificate holds after an earlier one failed")
    distances = doc["distance_from_initial"]
    for p in doc["persistence"]:
        if p["certified"] and distances[p["horizon"]] != 0.0:
            out.append(f"horizon {p['horizon']} is certified but its partition distance is nonzero")
    if "eta" in doc:
        tau, eta = doc["instability_time"], doc["eta"]
        first = next((t for t in range(1, len(distances)) if distances[t] >= eta), None)
        if tau != first:
            out.append(f"instability_time {tau} but distances first reach eta at {first}")
    return out


def _analyze(doc: dict) -> list[str]:
    out = []
    witness = doc["empirical_partition_radius"]
    if witness is not None and not witness["radius"] >= doc["margin_lower_bound_radius"]:
        out.append("witness radius is below margin_lower_bound_radius")
    if "epsilon" in doc:
        eps = doc["epsilon"]
        if doc["certified_no_switch"] != (eps == 0.0 or eps < doc["min_margin"] / 2.0):
            out.append("certified_no_switch disagrees with min_margin / 2")
        expected = [i + 1 for i, m in enumerate(doc["margins"]) if m <= 2.0 * eps]
        if doc["switch_candidates"] != expected:
            out.append("switch_candidates are not the indices with margin <= 2 epsilon")
    return out


INVARIANTS = {"montecarlo": _montecarlo, "sweep": _sweep, "trajectory": _trajectory, "analyze": _analyze}


def invariant_problems(subcommand: str, doc: dict) -> list[str]:
    """Seed-independent invariant violations in one report."""
    try:
        return INVARIANTS[subcommand](doc)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed {subcommand} report: {exc!r}"]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_problems(frozen: dict, doc: dict) -> list[str]:
    """Fields of ``doc`` that are missing or differ from their frozen digests."""
    return [
        f"field {key!r} differs from the frozen reference"
        for key, digest in frozen.items()
        if key not in doc or field_digest(doc[key]) != digest
    ]
