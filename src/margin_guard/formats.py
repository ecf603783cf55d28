"""File formats: points/centers as CSV or JSON, trajectories, and reports.

CSV files carry one row per index with columns x1..xd; the row order is the
1-based point index. Floats are written with 17 significant digits so a
written file re-ingests to bit-identical values. JSON mirrors the same data
with explicit arrays. Every emitted document carries schema_version 1, as a
top-level field in JSON and as a leading "# schema_version=1" comment in CSV.

JSON reports are byte for byte what json.dumps writes with sort_keys=True and
indent=2, written in one pass: each list of numbers, or of rows of numbers, is
one call of CPython's compact C encoder, re-indented by string replacement.
CSV records are read by numpy's C reader, np.loadtxt, which converts each
field with the routine float() ends in; a file it could read or word
differently goes through csv record by record. Whether a file holds a
non-ASCII character or U+001F, which np.loadtxt may strip as space, is one
test of its whole text; only the records of a text that does are tested one by
one. CSV coordinates are ASCII decimals without "_", which float() alone would
accept. Input text is UTF-8, with or without a byte order mark, whatever the
locale. A JSON trajectory is read one snapshot at a time: json's own scanner
walks its top-level object, and each snapshot's lists are converted to a float
array as soon as they are decoded. A file the walk declines, one json.loads
would not read as the same object or whose snapshots are not all arrays of
plain numbers, is decoded whole, as a JSON points or centers file is, and its
errors come from that path alone. Every error about an input file names the
file, those that ``PointConfig``, ``CenterSet`` and ``Trajectory`` (the one
snapshot shape check) raise included.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .geometry import CenterSet, PointConfig

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
    if isinstance(value, str):
        return value
    return str(int(value)) if isinstance(value, (bool, int, np.bool_, np.integer)) else format_float(value)


def csv_table(columns, rows, **notes) -> str:
    """CSV text: the schema line, a "# key=value" line per note, the header, then the rows.
    Floats are written by format_float, ints and bools as integers (flags as 0/1), strings as they are."""
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
    """The text of ``path`` as UTF-8, whatever the locale, after a byte order mark if there is one."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ValueError(f"{path}: file not found") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def _json_doc(path: Path, key: str, loads=json.loads) -> dict:
    """The JSON object that ``loads`` reads from the text of ``path``; it must hold ``key`` and a supported
    schema_version."""
    try:
        doc = loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise ValueError(f"{path}: expected a JSON object with a {key!r} array")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # true == 1 in Python
        raise ValueError(f"{path}: unsupported schema_version {json.dumps(version)}")
    return doc


def _bulk_records(records: list[str], width: int, timed: bool, plain: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The t column and the coordinates of ``records``, parsed by numpy's C reader, or None where it
    could read or word a record otherwise than the csv loop of _read_csv_records: a non-ASCII
    character or U+001F (both of which np.loadtxt may strip as space), a time field that is not
    digits or reaches 2**53, or a column count that is not ``width``. Only the records of a file
    whose text is not ``plain``, ASCII and free of U+001F as a whole, are tested for the first two.
    A time field may hold only ASCII digits, spaces and tabs; as np.loadtxt parsed each of them,
    none is empty or digits split by padding. np.loadtxt converts each field with
    PyOS_string_to_double, as float() does, and rejects "_", as the record loop does. It also
    rejects every quote character, which only csv reads as quoting; without quotes csv splits a
    line at its commas, as np.loadtxt does."""
    # a time field is ASCII digits and padding up to its comma or the end of its record
    if (not plain and any(not rec.isascii() or "\x1f" in rec for rec in records)
            or timed and not all(rec.lstrip("0123456789 \t")[:1] in "," for rec in records)):
        return None
    try:
        table = np.loadtxt(records, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != width or timed and table[:, 0].max() >= 2**53:  # floats hold smaller integers exactly
        return None
    return (table[:, 0].astype(np.int64) if timed else np.array([])), table[:, timed:]


def _read_csv_records(path: Path, timed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The integer t column as one array (empty unless ``timed``; int64 unless a time exceeds it)
    and the coordinates of a CSV file with columns [t,]x1..xd. Records are parsed in bulk
    (_bulk_records); a file the bulk parse declines goes through csv record by record, and its errors
    number records among the lines that are not blank or "#"."""
    text = _read_text(path)
    # the bulk parse's one test of the whole text, which is let go before its lines are filtered
    plain, lines, text = text.isascii() and "\x1f" not in text, text.splitlines(), None
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
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
    if (bulk := _bulk_records(lines[1:], len(header), timed, plain)) is not None:
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
            bad = next((v for v in rec[len(lead):] if not v.isascii() or "_" in v), None)
            if bad is not None:  # float() also takes "1_0" and non-ASCII digits
                raise ValueError(f"coordinate must be an ASCII decimal without '_', got {bad!r}")
            rows.append([float(v) for v in rec[len(lead):]])
        except ValueError as exc:
            raise ValueError(f"{path}: record {lineno}: {exc}") from None
    return np.array(times), np.array(rows)


def _bad_json_entry(values, what: str) -> str | None:
    """The first flaw, in file order, of nested JSON lists meant as coordinate rows: a row that is not
    a list of plain numbers as long as the first row. None if there is none."""
    if not isinstance(values, list):
        return f"{what} must be a rectangular array of coordinate vectors"
    for i, row in enumerate(values, start=1):
        if not isinstance(row, list):
            return f"{what} row {i} is not an array of coordinates"
        if len(row) != len(values[0]):  # row 1 passed the list test above
            return f"{what} row {i} has {len(row)} coordinates, expected {len(values[0])}"
        for v in row:
            if type(v) not in (int, float):  # bool is not a number here, though a subclass of int
                return f"{what} row {i} has a coordinate that is not a number: {json.dumps(v)}"
    return None


def _plain_numbers(values) -> np.ndarray | None:
    """``values`` from a JSON document in one numpy conversion, or None if it is ragged or not all plain
    numbers: strings, bools and null give other dtypes, and a bool among numbers becomes 0 or 1, so the
    Python objects at the entries equal to 0 or 1, and there only, are looked up for a bool, in an object
    array of just the rows that hold such an entry."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged
        return None
    if arr.dtype.kind not in "iuf":
        return None
    zero_one = (arr == 0) | (arr == 1)
    if arr.ndim and zero_one.any():  # a lone bool stays a numpy bool, so only arrays are looked up
        rows = np.flatnonzero(zero_one.reshape(len(arr), -1).any(axis=1))
        if bool in set(map(type, np.asarray([values[i] for i in rows], dtype=object)[zero_one[rows]])):
            return None
    return arr


def _json_coordinates(values, path: Path, what: str) -> np.ndarray:
    """``values`` from a JSON document as a float array, rejecting ragged rows and non-numbers with
    the file and the entry named; whatever _plain_numbers declines is scanned row by row."""
    arr = _plain_numbers(values)
    if arr is None and (problem := _bad_json_entry(values, what)) is not None:
        raise ValueError(f"{path}: {problem}")
    try:  # plain ints too large for int64 stay Python ints, and those too large for a float overflow
        return np.asarray(values if arr is None else arr, dtype=float)
    except OverflowError:
        raise ValueError(f"{path}: {what}: a coordinate has magnitude >= 1e150") from None


_DECODE = json.JSONDecoder().raw_decode  # strict, as json.loads is


def _token(text: str, end: int) -> tuple[int, str]:
    """The index of the first character at or after ``end`` that is not JSON whitespace, and that character."""
    end = json.decoder.WHITESPACE.match(text, end).end()
    return end, text[end:end + 1]


def _snapshot_arrays(text: str, start: int) -> tuple[list[np.ndarray] | None, int]:
    """The JSON array at ``text[start]`` as one float array per element, each converted by _plain_numbers as
    soon as the scanner has decoded it, and the index after the array; None in place of the arrays unless the
    array is non-empty and _plain_numbers takes every element. Their shapes are Trajectory's to check."""
    arrays, (end, char) = [], _token(text, start + 1)
    while text[start:start + 1] == "[" and char != "]":
        snap, end = _DECODE(text, end)
        if (arr := _plain_numbers(snap)) is None:
            break
        arrays.append(np.asarray(arr, dtype=float))
        end, char = _token(text, end)
        if char == "]":
            return arrays, end + 1
        if char != ",":
            break
        end = _token(text, end + 1)[0]
    return None, _DECODE(text, start)[1]  # decoded whole, to reach its end or raise its syntax error


def _walked_doc(text: str) -> dict | None:
    """The JSON object of a trajectory file's ``text``, walked key by key with json's own scanner and its
    "snapshots" read by _snapshot_arrays, so that no snapshot's lists outlive their conversion; None unless
    json.loads would read the same object (the last of duplicate keys wins) with "snapshots" so read."""
    doc, (end, char) = {}, _token(text, 0)
    if char != "{":
        return None
    try:
        end, char = _token(text, end + 1)
        while char == '"':
            key, end = json.decoder.scanstring(text, end + 1, True)
            end, char = _token(text, end)
            if char != ":":
                return None
            doc[key], end = (_snapshot_arrays if key == "snapshots" else _DECODE)(text, _token(text, end + 1)[0])
            end, char = _token(text, end)
            if char == "}":
                return doc if _token(text, end + 1)[1] == "" and doc.get("snapshots") is not None else None
            if char != ",":
                return None
            end, char = _token(text, end + 1)
    except json.JSONDecodeError:
        pass
    return None


def _named(path: Path, make, *args):
    """``make(*args)``, a value built from a file's content; a ValueError it raises names the file."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_matrix(path: str | Path, json_key: str) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _json_coordinates(_json_doc(path, json_key)[json_key], path, json_key)
    return _read_csv_records(path)[1]


def read_points(path: str | Path) -> PointConfig:
    """Load a configuration from a .csv or .json file."""
    return _named(path, PointConfig, _load_matrix(path, "points"))


def read_centers(path: str | Path) -> CenterSet:
    return _named(path, CenterSet, _load_matrix(path, "centers"))


def trajectory_to_json_dict(snapshots, centers: CenterSet) -> dict:
    return {**centers_to_json_dict(centers), "snapshots": [snap.points.tolist() for snap in snapshots]}


def read_trajectory_file(path: str | Path, centers_path: str | Path | None = None) -> Trajectory:
    """Load a ``Trajectory`` from a trajectory file.

    JSON files are self-contained ("centers" plus a "snapshots" array). The
    CSV alternative has columns t,x1..xd with one row per (time, index), in any
    order, and requires the centers from a separate file. Either way the
    snapshots go to ``Trajectory``, the one check of their shapes. A JSON file's
    top-level object is walked with json's own scanner and its snapshots decoded
    one at a time, each converted to a float array at once, so the file's whole
    JSON tree is never held. A file that json.loads would not read as the same
    object, or whose snapshots are not all arrays of plain numbers, is decoded
    whole and converted snapshot by snapshot, with rows named "snapshot t row
    i"; that path alone words the errors.
    """
    path = Path(path)
    doc = {}
    if path.suffix.lower() == ".json":
        # snapshots the walk read are float arrays; a file it declines is decoded whole, the one source of error text
        doc = _json_doc(path, "snapshots", lambda text: _walked_doc(text) or json.loads(text))
        snapshots = [snap if isinstance(snap, np.ndarray) else _json_coordinates(snap, path, f"snapshot {t}")
                     for t, snap in enumerate(doc["snapshots"])]
    else:
        times, coords = _read_csv_records(path, timed=True)
        steps, counts = np.unique(times, return_counts=True)
        if not np.array_equal(steps, np.arange(steps.size)):
            raise ValueError(f"{path}: snapshot times must be 0..T, got {steps.tolist()}")
        # one stable sort groups the rows by time and keeps file order within each time
        snapshots = np.split(coords[np.argsort(times, kind="stable")], np.cumsum(counts[:-1]))
    if centers_path is not None:
        centers = read_centers(centers_path)
    elif "centers" in doc:
        centers = _named(path, CenterSet, _json_coordinates(doc["centers"], path, "centers"))
    else:
        raise ValueError(f"{path}: no centers in the file and no centers file given")
    return _named(path, Trajectory, snapshots, centers)
