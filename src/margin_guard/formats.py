"""File formats: points/centers as CSV or JSON, trajectories, and reports.

CSV files carry one row per index with columns x1..xd; the row order is the
1-based point index. Floats are written with 17 significant digits so a
written file re-ingests to bit-identical values. JSON mirrors the same data
with explicit arrays. Every emitted document carries schema_version 1, as a
top-level field in JSON and as a leading "# schema_version=1" comment in CSV.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .geometry import CenterSet, PointConfig
from .partitions import Partition

__all__ = [
    "SCHEMA_VERSION",
    "format_float",
    "dump_json",
    "points_to_csv",
    "centers_to_csv",
    "points_to_json_dict",
    "centers_to_json_dict",
    "read_points",
    "read_centers",
    "trajectory_to_json_dict",
    "read_trajectory_file",
    "partition_from_lists",
]

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; round-trips float64 exactly."""
    return format(float(x), ".17g")


def dump_json(payload: dict) -> str:
    """Canonical JSON text: schema header, sorted keys, trailing newline."""
    doc = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _matrix_to_csv(rows: np.ndarray) -> str:
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{j + 1}" for j in range(rows.shape[1])])
    for row in rows:
        writer.writerow([format_float(v) for v in row])
    return buf.getvalue()


def points_to_csv(config: PointConfig) -> str:
    return _matrix_to_csv(config.points)


def centers_to_csv(centers: CenterSet) -> str:
    return _matrix_to_csv(centers.centers)


def points_to_json_dict(config: PointConfig) -> dict:
    return {"points": [[float(v) for v in row] for row in config.points]}


def centers_to_json_dict(centers: CenterSet) -> dict:
    return {"centers": [[float(v) for v in row] for row in centers.centers]}


def _json_doc(path: Path, key: str) -> dict:
    """The JSON object in ``path``; it must hold ``key`` and a supported schema_version."""
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{path}: expected a JSON object with a {key!r} array")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {version}")
    return doc


def _read_csv_matrix(text: str, path: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    reader = csv.reader(lines)
    header = next(reader)
    expected = [f"x{j + 1}" for j in range(len(header))]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"{path}: header must be {','.join(expected)}, got {','.join(header)}")
    rows = []
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != len(header):
            raise ValueError(f"{path}: record {lineno} has {len(rec)} fields, expected {len(header)}")
        try:
            rows.append([float(v) for v in rec])
        except ValueError as exc:
            raise ValueError(f"{path}: record {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows after header")
    return np.array(rows)


def _load_matrix(path: str | Path, json_key: str) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: file not found")
    if path.suffix.lower() == ".json":
        return np.asarray(_json_doc(path, json_key)[json_key], dtype=float)
    return _read_csv_matrix(path.read_text(), str(path))


def read_points(path: str | Path) -> PointConfig:
    """Load a configuration from a .csv or .json file."""
    return PointConfig(_load_matrix(path, "points"))


def read_centers(path: str | Path) -> CenterSet:
    return CenterSet(_load_matrix(path, "centers"))


def trajectory_to_json_dict(snapshots, centers: CenterSet) -> dict:
    return {
        "centers": [[float(v) for v in row] for row in centers.centers],
        "snapshots": [[[float(v) for v in row] for row in snap.points] for snap in snapshots],
    }


def read_trajectory_file(path: str | Path, centers_path: str | Path | None = None):
    """Load (snapshots, centers) from a trajectory file.

    JSON files are self-contained ("centers" plus a "snapshots" array). The
    CSV alternative has columns t,x1..xd with one row per (time, index) and
    requires the centers from a separate file.
    """
    from .dynamics import Trajectory  # local import to avoid a cycle

    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: file not found")
    if path.suffix.lower() == ".json":
        doc = _json_doc(path, "snapshots")
        if centers_path is not None:
            centers = read_centers(centers_path)
        elif "centers" in doc:
            centers = CenterSet(np.asarray(doc["centers"], dtype=float))
        else:
            raise ValueError(f"{path}: no centers in file and no centers file given")
        snaps = [PointConfig(np.asarray(s, dtype=float)) for s in doc["snapshots"]]
        return Trajectory(snapshots=tuple(snaps), centers=centers)

    if centers_path is None:
        raise ValueError(f"{path}: CSV trajectories need a separate centers file")
    centers = read_centers(centers_path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    reader = csv.reader(lines)
    header = [h.strip() for h in next(reader)]
    if not header or header[0] != "t":
        raise ValueError(f"{path}: trajectory CSV header must start with a 't' column")
    d = len(header) - 1
    if header[1:] != [f"x{j + 1}" for j in range(d)]:
        raise ValueError(f"{path}: coordinate columns must be x1..x{d}")
    by_time: dict[int, list[list[float]]] = {}
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != d + 1:
            raise ValueError(f"{path}: record {lineno} has {len(rec)} fields, expected {d + 1}")
        try:
            t = int(rec[0])
            coords = [float(v) for v in rec[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: record {lineno}: {exc}") from None
        by_time.setdefault(t, []).append(coords)
    times = sorted(by_time)
    if times != list(range(len(times))):
        raise ValueError(f"{path}: snapshot times must be 0..T, got {times}")
    snaps = [PointConfig(np.array(by_time[t])) for t in times]
    return Trajectory(snapshots=tuple(snaps), centers=centers)


def partition_from_lists(lists, n: int) -> Partition:
    """Partition from its canonical JSON form (list of 1-based index lists)."""
    return Partition(lists, n=n)
