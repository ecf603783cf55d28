"""Golden-file regression tests for the instability fixtures.

The JSON files under tests/golden/ are frozen ground truth: they are checked
both against the current constructors (byte-level) and re-evaluated from raw
file data through the assignment pipeline, so a regression in either the
constructions or the assignment logic shows up against fixed data.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from margin_guard import (
    CenterSet,
    Partition,
    PointConfig,
    assign_nearest,
    induced_partition,
    many_point_instability,
    near_boundary_instability,
    perturbation_size,
    single_point_instability,
)
from margin_guard.formats import dump_json

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("single_point_eps1.json", lambda: single_point_instability(1.0)),
    ("many_point_eps1_m3.json", lambda: many_point_instability(1.0, 3)),
    ("near_boundary_delta01.json", lambda: near_boundary_instability(0.1)),
]


@pytest.mark.parametrize("filename,make", CASES, ids=[c[0] for c in CASES])
def test_constructors_match_golden_bytes(filename, make):
    expected = (GOLDEN / filename).read_text()
    assert dump_json(make().to_json_dict()) == expected


@pytest.mark.parametrize("filename", [c[0] for c in CASES])
def test_golden_data_reproduces_expected_partitions(filename):
    doc = json.loads((GOLDEN / filename).read_text())
    centers = CenterSet(np.array(doc["centers"]))
    config = PointConfig(np.array(doc["points"]))
    perturbed = PointConfig(np.array(doc["perturbed"]))
    n = config.n
    before = induced_partition(assign_nearest(config, centers))
    after = induced_partition(assign_nearest(perturbed, centers))
    assert before == Partition(doc["expected_before"], n=n)
    assert after == Partition(doc["expected_after"], n=n)
    assert before != after
    assert perturbation_size(config, perturbed) == doc["perturbation_size"]
