"""File formats: points/centers as CSV or JSON, trajectories, and reports.

CSV files carry one row per index with columns x1..xd; the row order is the
1-based point index. Floats are written with 17 significant digits so a
written file re-ingests to bit-identical values. JSON mirrors the same data
with explicit arrays. Every emitted document carries schema_version 1, as a
top-level field in JSON and as a leading "# schema_version=1" comment in CSV.

JSON reports are byte for byte what json.dumps writes with sort_keys=True and
indent=2, written in one pass: each list of numbers, or of rows of numbers, is
one call of CPython's compact C encoder, re-indented by string replacement.
CSV records are read in bulk, one float map over all fields; a file the bulk
parse could read or word differently goes through csv record by record.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
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


# One compact C encoder, CPython's, which json.dumps runs only when indent is None, for every scalar
# and every leaf list; dump_json lays out the rest. Non-finite floats raise (allow_nan is False), and
# the default raises json's TypeError for an unsupported type.
_encode_compact = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                                 ": ", ",", True, False, False)
_NOT_LEAF = (str, dict, list, tuple)


def _leaf_depth(items) -> int:
    """1 if ``items`` holds no string or container, 2 if it holds only lists or tuples of such items,
    else 0. The type sets come from C-level maps; only the distinct types are tested in Python."""
    kinds = set(map(type, items))
    if not any(issubclass(t, _NOT_LEAF) for t in kinds):
        return 1
    if all(issubclass(t, (list, tuple)) for t in kinds) and not any(
        issubclass(t, _NOT_LEAF) for t in set(map(type, chain.from_iterable(items)))
    ):
        return 2
    return 0


def _compact(value, depth: int = 0) -> str:
    """One C encoder call on a scalar (``depth`` 0) or a leaf list of that depth; a non-finite float
    raises json's ValueError, which names the value as json.dumps does and as CPython 3.11's C
    encoder does not."""
    try:
        return "".join(_encode_compact(value, 0))
    except ValueError:
        leaves = (value,) if depth == 0 else value if depth == 1 else chain.from_iterable(value)
        bad = next((v for v in leaves if isinstance(v, float) and not math.isfinite(v)), None)
        if bad is None:
            raise
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}") from None


def _indented(value, indent: str) -> str:
    """The text of ``value`` in the layout of json.dumps with sort_keys=True and indent=2, its first
    line opened at ``indent``. A leaf list is encoded compactly in one call and re-indented by string
    replacement, which is exact because no number, true, false or null holds a comma or a bracket."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(key)}: {_indented(item, inner)}" for key, item in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if not isinstance(value, (list, tuple)):
        return _compact(value)
    if not value:
        return "[]"
    depth = _leaf_depth(value)
    if depth == 0:
        return "[\n" + inner + (",\n" + inner).join(_indented(v, inner) for v in value) + "\n" + indent + "]"
    body = _compact(value, depth)[1:-1]
    if depth == 2:  # rows "[...]" or "[]" joined by the only commas that sit between "]" and "["
        row = inner + "  "
        body = (body.replace("],[", "]\0[").replace(",", ",\n" + row)
                .replace("[", "[\n" + row).replace("]", "\n" + inner + "]")
                .replace("[\n" + row + "\n" + inner + "]", "[]").replace("\0", ",\n" + inner))
    else:
        body = body.replace(",", ",\n" + inner)
    return "[\n" + inner + body + "\n" + indent + "]"


def dump_json(payload: dict) -> str:
    """Canonical JSON text: schema header, sorted keys, two-space indent, trailing newline. For a
    payload with string keys it is byte for byte what json.dumps writes with sort_keys=True, indent=2
    and allow_nan=False, plus "\n". Non-finite floats raise ValueError and unsupported values
    TypeError, with json's messages."""
    return _indented({"schema_version": SCHEMA_VERSION, **payload}, "") + "\n"


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
    return {"points": config.points.tolist()}


def centers_to_json_dict(centers: CenterSet) -> dict:
    return {"centers": centers.centers.tolist()}


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


# Records per step of the bulk CSV parse, which bounds the field strings held at once.
_CSV_CHUNK = 2**14


def _bulk_records(records: list[str], width: int, timed: bool) -> tuple[list[int], np.ndarray] | None:
    """The t column and the coordinates of ``records``, parsed in bulk, or None where the bulk parse
    could read or word a record otherwise than the csv loop of _read_csv_records: a record whose
    field count is not ``width``, or a field that the digit test or float rejects. That covers every
    quote character, which neither accepts; without quotes csv splits a line at its commas, and
    float gives the same bits either way."""
    times, coords = [], np.empty((len(records), width - timed))
    for start in range(0, len(records), _CSV_CHUNK):
        chunk = records[start:start + _CSV_CHUNK]
        if set(map(str.count, chunk, repeat(","))) != {width - 1}:
            return None
        fields = ",".join(chunk).split(",")
        if timed:
            stamps = list(map(str.strip, fields[::width]))
            if not (all(map(str.isdigit, stamps)) and "".join(stamps).isascii()):
                return None
            times += map(int, stamps)
            del fields[::width]
        try:
            values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
        except ValueError:
            return None
        coords[start:start + len(chunk)] = values.reshape(len(chunk), width - timed)
    return times, coords


def _read_csv_records(path: Path, timed: bool = False) -> tuple[list[int], np.ndarray]:
    """The integer t column (empty unless ``timed``) and the coordinates of a CSV file with
    columns [t,]x1..xd. Records are parsed in bulk (_bulk_records); a file the bulk parse declines
    goes through csv record by record, and its errors number records among the lines that are not
    blank or "#"."""
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
    # a header quoted over several lines leaves its closing quote to the bulk parse, which declines
    bulk = _bulk_records(lines[1:], len(header), timed)
    if bulk is not None:
        return bulk
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
    return Trajectory(stack, centers)


def partition_from_lists(lists, n: int) -> Partition:
    """Partition from its canonical JSON form (list of 1-based index lists)."""
    return Partition(lists, n=n)
