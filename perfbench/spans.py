"""Per-layer spans measured from outside the program.

A Tracer replaces the listed public functions of margin_guard's modules with
timing and counting wrappers, under every name a margin_guard module binds
them to (``cli.monte_carlo``, ``stability.assign_nearest``, ...), so calls
between modules and calls inside one module are both seen. Leaving the
``with`` block puts every original back.

A span's self time is its duration minus the durations of the wrapped calls
it made. Work counts marked below are computed from argument shapes or
results, never timed, so they repeat exactly for identical inputs.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

# module -> function -> stats reported for it, in metric-name order.
LAYERS = {
    "stochastic": {
        "label_pair_distance": ("calls", "self_s", "pairs"),
        "monte_carlo": ("self_s",),
        "sweep_table": ("self_s",),
        "trial_rng": ("calls", "self_s"),
        "expected_switch_bound": ("self_s",),
    },
    "geometry": {
        "assign_nearest": ("calls", "self_s", "point_centers"),
        "perturbation_size": ("calls", "self_s"),
    },
    "partitions": {
        "induced_partition": ("calls", "self_s"),
        "partition_distance": ("calls", "self_s", "pairs"),
    },
    "stability": {
        "empirical_partition_radius_search": ("self_s", "candidates", "reevaluations", "useful_ratio"),
        "per_point_switch_radii": ("self_s",),
        "analyze_stability": ("self_s",),
    },
    "dynamics": {
        "step_sizes": ("calls", "self_s"),
        "persistence_certificate": ("calls", "self_s"),
        "stepwise_stability_check": ("self_s",),
        "snapshot_partitions": ("calls", "self_s"),
        "instability_time": ("self_s",),
    },
    "formats": {
        "read_trajectory_file": ("self_s", "bytes"),
        "read_points": ("self_s",),
        "read_centers": ("self_s",),
        "dump_json": ("self_s", "bytes"),
    },
    "presets": {
        "make_preset": ("self_s",),
    },
}

SEARCH = "stability.empirical_partition_radius_search"
ASSIGN = "geometry.assign_nearest"


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# Computed work counts: (bound arguments, result) -> {stat: amount}.
WORK = {
    "stochastic.label_pair_distance": lambda a, r: {"pairs": _pairs(len(a["labels_a"]))},
    ASSIGN: lambda a, r: {"point_centers": a["config"].n * a["centers"].k},
    "partitions.partition_distance": lambda a, r: {"pairs": _pairs(a["p"].n)},
    SEARCH: lambda a, r: {"candidates": a["config"].n * (a["centers"].k - 1), "witnesses": int(r is not None)},
    "formats.read_trajectory_file": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "formats.dump_json": lambda a, r: {"bytes": len(r.encode())},
}


class Tracer:
    """Context manager that wraps the LAYERS functions and records spans.

    ``calls``, ``self_s`` and ``work`` accumulate until ``reset``;
    ``top_s`` is the total duration of spans that no wrapped call encloses,
    which equals the sum of all self times.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, child seconds] per open span
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.work: Counter = Counter()
        self.child_calls: Counter = Counter()  # (parent, child) -> calls
        self.top_s = 0.0

    def __enter__(self) -> "Tracer":
        package = [m for key, m in sys.modules.items() if key == "margin_guard" or key.startswith("margin_guard.")]
        try:
            for mod_name, fns in LAYERS.items():
                home = sys.modules.get(f"margin_guard.{mod_name}")
                for fn_name in fns:
                    # a function the program no longer has reads as never called
                    original = getattr(home, fn_name, None)
                    if original is None:
                        continue
                    wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                    for module in package:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patched.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        stack = self._stack
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([name, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, child_s = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - child_s
                if stack:
                    stack[-1][1] += elapsed
                    self.child_calls[stack[-1][0], name] += 1
                else:
                    self.top_s += elapsed
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for stat, amount in work(bound.arguments, result).items():
                    self.work[name, stat] += amount
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every ``<module>.<function>.<stat>`` of LAYERS since the last reset."""
        searches = self.calls[SEARCH]
        reevaluations = self.child_calls[SEARCH, ASSIGN] - searches
        derived = {
            (SEARCH, "reevaluations"): reevaluations,
            (SEARCH, "useful_ratio"): self.work[SEARCH, "witnesses"] / reevaluations if reevaluations else 0.0,
        }
        out = {}
        for mod, fns in LAYERS.items():
            for fn, stats in fns.items():
                name = f"{mod}.{fn}"
                for stat in stats:
                    if stat == "calls":
                        value = self.calls[name]
                    elif stat == "self_s":
                        value = self.self_s[name]
                    elif (name, stat) in derived:
                        value = derived[name, stat]
                    else:
                        value = self.work[name, stat]
                    out[f"{name}.{stat}"] = value
        return out
