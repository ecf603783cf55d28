"""File formats: points/centers as CSV or JSON, trajectories, and reports.

CSV files carry one row per index with columns x1..xd; the row order is the
1-based point index. Floats are written with 17 significant digits so a
written file re-ingests to bit-identical values. JSON mirrors the same data
with explicit arrays. Every emitted document carries schema_version 1, as a
top-level field in JSON and as a leading "# schema_version=1" comment in CSV.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .geometry import CenterSet, PointConfig
from .partitions import Partition

__all__ = [
    "SCHEMA_VERSION",
    "format_float",
    "csv_table",
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
    """Canonical JSON text: schema header, sorted keys, trailing newline; non-finite floats raise ValueError."""
    doc = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_field(value) -> str:
    return str(int(value)) if isinstance(value, (bool, int, np.bool_, np.integer)) else format_float(value)


def csv_table(columns, rows, **notes) -> str:
    """CSV text: the schema line, a "# key=value" line per note, the header, then the rows.
    Floats are written by format_float, ints and bools as integers (flags as 0/1)."""
    lines = [f"# schema_version={SCHEMA_VERSION}", *(f"# {k}={_csv_field(v)}" for k, v in notes.items())]
    lines.append(",".join(columns))
    lines.extend(",".join(map(_csv_field, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _coordinate_columns(d: int) -> list[str]:
    return [f"x{j + 1}" for j in range(d)]


def points_to_csv(config: PointConfig) -> str:
    return csv_table(_coordinate_columns(config.d), config.points)


def centers_to_csv(centers: CenterSet) -> str:
    return csv_table(_coordinate_columns(centers.d), centers.centers)


def points_to_json_dict(config: PointConfig) -> dict:
    return {"points": [[float(v) for v in row] for row in config.points]}


def centers_to_json_dict(centers: CenterSet) -> dict:
    return {"centers": [[float(v) for v in row] for row in centers.centers]}


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except FileNotFoundError:
        raise ValueError(f"{path}: file not found") from None


def _json_doc(path: Path, key: str) -> dict:
    """The JSON object in ``path``; it must hold ``key`` and a supported schema_version."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise ValueError(f"{path}: expected a JSON object with a {key!r} array")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {version}")
    return doc


def _read_csv_records(path: Path, timed: bool = False) -> tuple[list[int], np.ndarray]:
    """The integer t column (empty unless ``timed``) and the coordinates of a CSV file with
    columns [t,]x1..xd. Errors number records among the lines that are not blank or "#"."""
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 2:  # a header and at least one record
        raise ValueError(f"{path}: no data rows")
    reader = csv.reader(lines)
    header = [h.strip() for h in next(reader)]
    lead = ["t"] if timed else []
    if header[: len(lead)] != lead:
        raise ValueError(f"{path}: trajectory CSV header must start with a 't' column")
    expected = lead + _coordinate_columns(len(header) - len(lead))
    if header != expected:
        raise ValueError(f"{path}: header must be {','.join(expected)}, got {','.join(header)}")
    times, rows = [], []
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != len(header):
            raise ValueError(f"{path}: record {lineno} has {len(rec)} fields, expected {len(header)}")
        try:
            if timed:
                if not (rec[0].strip().isascii() and rec[0].strip().isdigit()):  # int() also takes "1_0", "+3"
                    raise ValueError(f"time must be written with the digits 0-9, got {rec[0]!r}")
                times.append(int(rec[0]))
            rows.append([float(v) for v in rec[len(lead):]])
        except ValueError as exc:
            raise ValueError(f"{path}: record {lineno}: {exc}") from None
    return times, np.array(rows)


def _bad_json_entry(values, depth: int, what: str) -> str | None:
    """The first flaw, in file order, of nested JSON lists meant as coordinate rows (``depth`` 2) or
    as snapshots of them (``depth`` 3): a row that is not a list of plain numbers as long as the
    first row, or a snapshot whose point count differs from the first one's. None if there is none."""
    if not isinstance(values, list):
        return f"{what} must be a rectangular array of coordinate vectors"
    snaps, n, width = (values if depth == 3 else [values]), None, None
    for t, snap in enumerate(snaps):
        where = f"snapshot {t} " if depth == 3 else f"{what} "
        if not isinstance(snap, list):
            return f"snapshot {t} is not an array of points"
        n = len(snap) if n is None else n
        if len(snap) != n:
            return f"snapshot {t} has {len(snap)} points, expected {n}; the point indexing is fixed over time"
        for i, row in enumerate(snap, start=1):
            if not isinstance(row, list):
                return f"{where}row {i} is not an array of coordinates"
            width = len(row) if width is None else width
            if len(row) != width:
                return f"{where}row {i} has {len(row)} coordinates, expected {width}"
            for v in row:
                if type(v) not in (int, float):  # bool is not a number here, though a subclass of int
                    return f"{where}row {i} has a coordinate that is not a number: {json.dumps(v)}"
    return None


def _json_coordinates(values, path: Path, what: str, depth: int = 2) -> np.ndarray:
    """``values`` from a JSON document as a float array, rejecting ragged rows and non-numbers with
    the file and the entry named. numpy alone would read true as 1.0 and "1" as a number. Converting
    without a dtype sorts most cases out: strings give str, all-bool data bool, null object. Only an
    exact 0 or 1, which is what a true or false mixed in with numbers becomes, triggers a scan."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or ((arr == 0) | (arr == 1)).any():
        problem = _bad_json_entry(values, depth, what)
        if problem is not None:
            raise ValueError(f"{path}: {problem}")
    try:  # an object array of plain numbers holds ints too large for int64
        return np.asarray(arr, dtype=float)
    except OverflowError:
        raise ValueError(f"{path}: {what}: a coordinate has magnitude >= 1e150") from None


def _load_matrix(path: str | Path, json_key: str) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _json_coordinates(_json_doc(path, json_key)[json_key], path, json_key)
    return _read_csv_records(path)[1]


def read_points(path: str | Path) -> PointConfig:
    """Load a configuration from a .csv or .json file."""
    return PointConfig(_load_matrix(path, "points"))


def read_centers(path: str | Path) -> CenterSet:
    return CenterSet(_load_matrix(path, "centers"))


def trajectory_to_json_dict(snapshots, centers: CenterSet) -> dict:
    return {**centers_to_json_dict(centers), "snapshots": [snap.points.tolist() for snap in snapshots]}


def read_trajectory_file(path: str | Path, centers_path: str | Path | None = None):
    """Load (snapshots, centers) from a trajectory file.

    JSON files are self-contained ("centers" plus a "snapshots" array). The
    CSV alternative has columns t,x1..xd with one row per (time, index), in any
    order, and requires the centers from a separate file. Either way the
    snapshots become one (T+1, n, d) array, checked once as a whole.
    """
    from .dynamics import Trajectory  # local import to avoid a cycle

    path = Path(path)
    doc = {}
    if path.suffix.lower() == ".json":
        doc = _json_doc(path, "snapshots")
        stack = _json_coordinates(doc["snapshots"], path, "snapshots", depth=3)
    else:
        times, coords = _read_csv_records(path, timed=True)
        # one stable sort groups the rows by time and keeps file order within each time
        order = np.argsort(times, kind="stable")
        times = np.asarray(times)[order]
        cuts = np.flatnonzero(times[1:] != times[:-1]) + 1
        steps = times[np.r_[0, cuts]]
        if not np.array_equal(steps, np.arange(steps.size)):
            raise ValueError(f"{path}: snapshot times must be 0..T, got {steps.tolist()}")
        sizes = np.diff(np.r_[0, cuts, times.size])
        if (sizes != sizes[0]).any():
            t = int(np.argmax(sizes != sizes[0]))
            raise ValueError(f"{path}: snapshot {t} has {sizes[t]} points, expected {sizes[0]}; "
                             "the point indexing is fixed over time")
        stack = coords[order].reshape(steps.size, sizes[0], coords.shape[1])
    if centers_path is not None:
        centers = read_centers(centers_path)
    elif "centers" in doc:
        centers = CenterSet(_json_coordinates(doc["centers"], path, "centers"))
    else:
        raise ValueError(f"{path}: no centers in the file and no centers file given")
    return Trajectory._from_stack(stack, centers)


def partition_from_lists(lists, n: int) -> Partition:
    """Partition from its canonical JSON form (list of 1-based index lists)."""
    return Partition(lists, n=n)
