"""The package namespace: exactly the union of the library modules' ``__all__`` lists."""

import margin_guard
from margin_guard import counterexamples, dynamics, errors, geometry, partitions, presets, stability, stochastic

LIBRARY_MODULES = (counterexamples, dynamics, errors, geometry, partitions, presets, stability, stochastic)

PUBLIC_NAMES = [
    "Assignment", "CenterSet", "CounterexampleFixture", "DriftCheck", "InvariantViolation",
    "MonteCarloReport", "PairRelation", "Partition", "PartitionRadiusWitness", "PersistenceCertificate",
    "PerturbationModel", "PointConfig", "StabilityReport", "SweepResult", "SweepRow", "Trajectory",
    "analyze_stability", "assign_nearest", "cumulative_drift_check", "exact_switch_radius",
    "expected_distance_bound", "expected_switch_bound", "induced_partition", "instability_time",
    "iter_partitions", "make_preset", "many_point_instability", "margin", "monte_carlo",
    "near_boundary_instability", "nearest_label", "no_switch_certificate", "pair_disagreements",
    "partition_distance", "per_point_switch_radii", "persistence_certificate", "perturbation_size",
    "sample_perturbation", "single_point_instability", "snapshot_partitions", "step_sizes",
    "stepwise_stability_check", "sweep_table", "switch_candidates", "switch_probability_bound",
    "switched_index_distance_bound", "trial_rng", "two_gaussians",
]


def test_package_exports_each_module_name_once_as_the_module_object():
    assert sorted(margin_guard.__all__) == PUBLIC_NAMES
    assert len(set(margin_guard.__all__)) == len(margin_guard.__all__)
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert name in margin_guard.__all__, (module.__name__, name)
            assert getattr(margin_guard, name) is getattr(module, name), (module.__name__, name)
    assert errors.__all__ == ["InvariantViolation"]
