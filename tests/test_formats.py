import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from margin_guard import CenterSet, Partition, PointConfig, Trajectory, formats
from conftest import peak_traced_mib
from margin_guard.cli import main
from margin_guard.formats import (
    centers_to_csv,
    centers_to_json_dict,
    dump_json,
    format_float,
    points_to_csv,
    points_to_json_dict,
    read_centers,
    read_points,
    read_trajectory_file,
    trajectory_to_json_dict,
)


def random_config(rng, n=10, d=3):
    return PointConfig(rng.uniform(-5, 5, (n, d)))


class TestFloatFormatting:
    def test_17_digits_round_trip(self):
        rng = np.random.default_rng(1)
        for v in rng.uniform(-1e6, 1e6, 200):
            assert float(format_float(v)) == v

    def test_awkward_values(self):
        for v in (0.1, 1 / 3, 2e-308, 1e300, -0.0):
            assert float(format_float(v)) == v


class TestCsvRoundTrip:
    def test_points_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        cfg = random_config(rng)
        path = tmp_path / "pts.csv"
        path.write_text(points_to_csv(cfg))
        back = read_points(path)
        assert np.array_equal(back.points, cfg.points)

    def test_centers_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        cs = CenterSet(rng.uniform(-5, 5, (4, 2)))
        path = tmp_path / "ctr.csv"
        path.write_text(centers_to_csv(cs))
        assert np.array_equal(read_centers(path).centers, cs.centers)

    def test_schema_comment_present(self):
        cfg = PointConfig([[0.0, 1.0], [2.0, 3.0]])
        assert points_to_csv(cfg).startswith("# schema_version=1\n")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            read_points(path)

    def test_ragged_record_named(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1,x2\n1,2\n3\n")
        with pytest.raises(ValueError, match="record 3"):
            read_points(path)

    def test_non_numeric_record_named(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1,x2\n1,2\nfoo,4\n")
        with pytest.raises(ValueError, match="record 3"):
            read_points(path)

    @pytest.mark.parametrize("text", ["", "# schema_version=1\n", "x1,x2\n", "# schema_version=1\nx1,x2\n\n"])
    def test_no_records_rejected(self, tmp_path, text):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no data rows"):
            read_points(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            read_points(tmp_path / "absent.csv")


class TestInputText:
    """Input files are UTF-8 whatever the locale, with or without a byte order mark."""

    @pytest.mark.parametrize("name, text", [
        ("p.csv", "x1,x2\n0.5,-1\n2,3e-1\n"),
        ("p.csv", "# schema_version=1\nx1,x2\n0.5,-1\n2,3e-1\n"),
        ("p.json", '{"points": [[0.5, -1], [2, 0.3]]}'),
    ])
    def test_byte_order_mark_is_skipped(self, tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom_{name}"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read_points(marked).points.tobytes() == read_points(plain).points.tobytes()

    def test_undecodable_byte_names_the_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"x1,x2\n0.5,-1\n2,\xff\n")
        with pytest.raises(ValueError) as info:
            read_points(path)
        assert str(info.value).startswith(f"{path}: not UTF-8 text: ")
        assert "0xff" in str(info.value)


class TestJsonRoundTrip:
    def test_points_bit_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        cfg = random_config(rng, n=7, d=2)
        path = tmp_path / "pts.json"
        path.write_text(dump_json(points_to_json_dict(cfg)))
        assert np.array_equal(read_points(path).points, cfg.points)

    def test_centers_bit_identical(self, tmp_path):
        cs = CenterSet([[-1.0, 0.0], [1.0, 0.0]])
        path = tmp_path / "ctr.json"
        path.write_text(dump_json(centers_to_json_dict(cs)))
        assert np.array_equal(read_centers(path).centers, cs.centers)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"schema_version": 99, "points": [[0, 0], [1, 1]]}))
        with pytest.raises(ValueError, match="schema_version"):
            read_points(path)

    @pytest.mark.parametrize("command", ["analyze", "trajectory"])
    def test_bool_schema_version_exits_2_naming_the_file(self, capsys, tmp_path, command):
        # true == 1 in Python, but a JSON version is a number
        path = tmp_path / "input.json"
        rows = [[0.5, 0.0], [-2.0, 0.0]]
        path.write_text(json.dumps({"schema_version": True, "points": rows, "centers": [[-1, 0], [1, 0]],
                                    "snapshots": [rows, rows]}))
        argv = [command, "--points", str(path), *(["--centers", str(path)] if command == "analyze" else [])]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {path}: unsupported schema_version true\n")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_points(path)

    def test_dump_json_is_deterministic(self):
        payload = {"b": 2, "a": [1.5, 0.25]}
        assert dump_json(payload) == dump_json(payload)
        assert json.loads(dump_json(payload))["schema_version"] == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_dump_json_rejects_non_finite_floats(self, value):
        # NaN and Infinity are not JSON (RFC 8259); no report may carry them
        with pytest.raises(ValueError):
            dump_json({"nested": {"values": [1.0, value]}})


def json_dumps_report(payload) -> str:
    """The text dump_json must reproduce byte for byte (test oracle)."""
    return json.dumps({"schema_version": 1, **payload}, sort_keys=True, indent=2, allow_nan=False) + "\n"


NUMBERS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e16, 1e-5, 1e300, 2**63]),
)
JSON_TEXT = st.text(st.sampled_from(',[]{}":\\ a\u00e9\u20ac\n\x00'), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(NUMBERS, JSON_TEXT, st.lists(NUMBERS, max_size=6), st.lists(st.lists(NUMBERS, max_size=4), max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


class TestCanonicalJsonWriter:
    @given(st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=6))
    @example({"rows": [[1.5, -0.0], [], [True, None, 2**70]], "flat": (1e16, np.float64(1e-5)), "empty": [[]]})
    @example({"mixed": [[1], 2, [[3]], ["s,[]"], {"k": [[]]}], "text": 'a,b]["\u00e9', "d": {}})
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert dump_json(payload) == json_dumps_report(payload)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    @pytest.mark.parametrize("place", [
        lambda v: {"x": v},
        lambda v: {"x": [0.5, v]},
        lambda v: {"x": [[0.5], [1.0, v]]},
        lambda v: {"x": [{"y": 1.0}, (2.0, v)]},
    ])
    def test_non_finite_floats_raise_json_error(self, value, place):
        with pytest.raises(ValueError) as expected:
            json_dumps_report(place(value))
        with pytest.raises(ValueError) as raised:
            dump_json(place(value))
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == f"Out of range float values are not JSON compliant: {value!r}"

    @pytest.mark.parametrize("payload", [{"x": np.int64(3)}, {"x": [1, np.int64(3)]}, {"x": [[1], [np.int64(3)]]}])
    def test_unsupported_types_raise_json_type_error(self, payload):
        with pytest.raises(TypeError, match="^Object of type int64 is not JSON serializable$"):
            dump_json(payload)


def read_csv_by_records(path, timed):
    """_read_csv_records with its bulk parse turned off: the per-record csv loop alone (test oracle)."""
    with mock.patch.object(formats, "_bulk_records", lambda *args: None):
        return formats._read_csv_records(path, timed)


def csv_outcome(read, path, timed):
    """What reading ``path`` gives: the times' values and dtype and the coordinates' shape and bits, or the
    error text."""
    try:
        times, coords = read(path, timed)
    except ValueError as exc:
        return str(exc)
    return times.tolist(), times.dtype, coords.dtype, coords.shape, coords.tobytes()


CSV_FIELDS = ["1", "-2.5", " 3 ", "4\t", "1_0", "nan", "-inf", "Infinity", "", "x", "+1", '"5"', '"6,7"', "\u00b2",
              "\u0661", "1e400", "99999999999999999999", ".5", "5.", "+.5e+1", "1E5", "1e-400", "2.5e-324", "-0",
              "iNfInItY", "-nan", "0x10", "1d5", "\x1f1", "1\x1f", "1\xa0", "\u30001", "\x7f", "9007199254740993",
              "\t3", "\v3", "3\f"]


class TestBulkCsvRecords:
    @pytest.mark.parametrize("timed, text", [
        (False, "x1,x2\n1,2\n3,4\n"),
        (False, "# note\nx1,x2\n\n  1 , 2 \n   \n  # indented comment\n3,\t4\n"),
        (False, "x1,x2\r\n1,2\r\n3,4\r\n"),
        (False, "x1\n1\n2\n"),
        (False, "x1,x2\n1_0,2\nnan,inf\n-Infinity,NaN\n"),
        (False, 'x1,x2\n"1",2\n3,4\n'),
        (False, 'x1,x2\n"1,5",2\n3,4\n'),
        (False, 'x1,"x2\n"\n1,2\n'),
        (False, "x1,x2\n1,2\n3\n"),
        (False, "x1,x2\n1,2\n3,4,\n"),
        (False, "x1,x2\n1,2\n\n# gap\n3,\n"),
        (False, "x1,x2\n1,2\n3,four\n"),
        (True, "t,x1\n0,1\n 1 ,2\n"),
        (True, "t,x1,x2\r\n1,0.5,1\r\n0,2,3\r\n"),
        (True, "t\n0\n1\n"),
        (True, "t,x1\n0,1\n+1,2\n"),
        (True, "t,x1\n0,1\n1_0,2\n"),
        (True, "t,x1\n0,1\n1.0,2\n"),
        (True, "t,x1\n0,1\n\u00b2,2\n"),
        (True, "t,x1\n0,1\n,2\n"),
        (True, 't,x1\n0,1\n"1",2\n'),
        (True, "t,x1\n0,1\n99999999999999999999,2\n"),
        # np.loadtxt strips "\x1f" and non-ASCII spaces as whitespace, which the record loop rejects
        (False, "x1,x2\n1,\x1f2\n"),
        (False, "x1,x2\n1,2\xa0\n"),
        # 2**53 + 1, which a float time would round to 2**53
        (True, "t,x1\n9007199254740993,2\n"),
        # one field too many in every record, which np.loadtxt would drop if given usecols
        (True, "t,x1\n0,1,5\n1,2,6\n"),
    ])
    def test_matches_the_record_loop(self, tmp_path, timed, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert csv_outcome(formats._read_csv_records, path, timed) == csv_outcome(read_csv_by_records, path, timed)

    @given(st.booleans(), st.integers(1, 3), st.lists(st.lists(st.sampled_from(CSV_FIELDS), min_size=1, max_size=4),
                                                      min_size=1, max_size=12),
           st.sampled_from(["", "# note", "# caf\u00e9", "#\x1f"]))
    @settings(max_examples=300, deadline=None)
    def test_random_records_match_the_record_loop(self, tmp_path_factory, timed, d, records, comment):
        # the bulk parse tests the text once for ASCII and U+001F, so a comment may hold either
        header = ",".join(["t"] * timed + [f"x{j + 1}" for j in range(d)])
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text("\n".join([comment, header, *map(",".join, records)]) + "\n", encoding="utf-8")
        assert csv_outcome(formats._read_csv_records, path, timed) == csv_outcome(read_csv_by_records, path, timed)

    @pytest.mark.parametrize("timed", [False, True])
    @pytest.mark.parametrize("field", ["1_0", "-\u0661", "\u00b2", "\uff11e3"])
    def test_python_only_number_spellings_rejected(self, tmp_path, timed, field):
        # float() reads "1_0" as 10.0 and "-\u0661" as -1.0; a coordinate is an ASCII decimal without "_"
        path = tmp_path / "data.csv"
        lead = "0," * timed
        path.write_text(f"{'t,' * timed}x1,x2\n{lead}1,2\n{lead}3,{field}\n", encoding="utf-8")
        assert formats._bulk_records([f"{lead}3,{field}"], 2 + timed, timed, False) is None
        with pytest.raises(ValueError) as info:
            formats._read_csv_records(path, timed)
        assert str(info.value) == f"{path}: record 3: coordinate must be an ASCII decimal without '_', got {field!r}"

    def test_plain_files_take_the_bulk_parse(self, tmp_path):
        traj_path, points_path, noted_path = tmp_path / "traj.csv", tmp_path / "pts.csv", tmp_path / "noted.csv"
        traj_path.write_text("t,x1\n0,1.5\n1,2.5\n0,3\n1,4\n")
        points_path.write_text("# schema_version=1\nx1,x2\n1.5,-2\n 3 ,4e-1\n")
        # a non-ASCII comment and tab-padded times
        noted_path.write_text("# caf\u00e9\nt,x1\n\t0 ,1.5\n 1\t,2.5\n", encoding="utf-8")
        parsed, bulk = [], formats._bulk_records

        def spy(*args):
            parsed.append(bulk(*args))
            return parsed[-1]

        with mock.patch.object(formats, "_bulk_records", spy):
            times, coords = formats._read_csv_records(traj_path, timed=True)
            points = read_points(points_path).points
            noted_times, noted_coords = formats._read_csv_records(noted_path, timed=True)
        assert len(parsed) == 3 and None not in parsed
        assert noted_times.tolist() == [0, 1] and noted_coords.tolist() == [[1.5], [2.5]]
        assert times.dtype == np.int64 and np.array_equal(times, [0, 1, 0, 1])
        assert coords.tolist() == [[1.5], [2.5], [3.0], [4.0]]
        assert points.tolist() == [[1.5, -2.0], [3.0, 0.4]]


class TestTrajectoryFiles:
    def make_trajectory(self):
        centers = CenterSet([[-1.0, 0.0], [1.0, 0.0]])
        a = PointConfig([[0.1, 0.0], [-2.0, 0.0]])
        b = PointConfig([[0.15, 0.0], [-2.0, 0.0]])
        return Trajectory(snapshots=(a, b), centers=centers)

    def test_json_round_trip(self, tmp_path):
        traj = self.make_trajectory()
        path = tmp_path / "traj.json"
        path.write_text(dump_json(trajectory_to_json_dict(traj.snapshots, traj.centers)))
        back = read_trajectory_file(path)
        assert back.horizon == traj.horizon
        for mine, loaded in zip(traj.snapshots, back.snapshots):
            assert np.array_equal(mine.points, loaded.points)
        assert np.array_equal(back.centers.centers, traj.centers.centers)

    def test_csv_requires_centers(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,x1,x2\n0,0.1,0\n0,-2,0\n1,0.15,0\n1,-2,0\n")
        with pytest.raises(ValueError, match="centers"):
            read_trajectory_file(path)

    def test_csv_with_centers(self, tmp_path):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_text("t,x1,x2\n0,0.1,0\n0,-2,0\n1,0.15,0\n1,-2,0\n")
        centers_path = tmp_path / "ctr.csv"
        centers_path.write_text(centers_to_csv(CenterSet([[-1.0, 0.0], [1.0, 0.0]])))
        traj = read_trajectory_file(traj_path, centers_path)
        assert traj.horizon == 1
        assert traj.n == 2

    def test_csv_time_gaps_rejected(self, tmp_path):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_text("t,x1,x2\n0,0.1,0\n0,-2,0\n2,0.15,0\n2,-2,0\n")
        centers_path = tmp_path / "ctr.csv"
        centers_path.write_text(centers_to_csv(CenterSet([[-1.0, 0.0], [1.0, 0.0]])))
        with pytest.raises(ValueError, match="0..T"):
            read_trajectory_file(traj_path, centers_path)

    def test_csv_interleaved_rows_keep_file_order_within_each_time(self, tmp_path):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_text("t,x1,x2\n1,0.15,0\n0,0.1,0\n1,-2,1\n0,-2,0\n# note\n1,3,0\n0,3,1\n")
        centers_path = tmp_path / "ctr.csv"
        centers_path.write_text(centers_to_csv(CenterSet([[-1.0, 0.0], [1.0, 0.0]])))
        traj = read_trajectory_file(traj_path, centers_path)
        assert np.array_equal(traj.snapshots[0].points, [[0.1, 0.0], [-2.0, 0.0], [3.0, 1.0]])
        assert np.array_equal(traj.snapshots[1].points, [[0.15, 0.0], [-2.0, 1.0], [3.0, 0.0]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,x2\n0.1,0\n-2,0\n", "'t' column"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n1.5,0.15,0\n1.5,-2,0\n", "record 4"),
        ],
        ids=["missing_t", "fractional_t"],
    )
    def test_csv_bad_times_rejected(self, tmp_path, text, message):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_text(text)
        centers_path = tmp_path / "ctr.csv"
        centers_path.write_text(centers_to_csv(CenterSet([[-1.0, 0.0], [1.0, 0.0]])))
        with pytest.raises(ValueError, match=message):
            read_trajectory_file(traj_path, centers_path)

    def test_json_needs_snapshots_key(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"schema_version": 1, "centers": [[0, 0], [1, 1]]}))
        with pytest.raises(ValueError, match="snapshots"):
            read_trajectory_file(path)

    def test_json_snapshots_must_be_an_array(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"schema_version": 1, "centers": [[0, 0], [1, 1]], "snapshots": 5}))
        with pytest.raises(ValueError, match="'snapshots' array"):
            read_trajectory_file(path)

    def test_json_snapshots_are_views_of_one_checked_stack(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text('{"centers": [[-1, 0], [1, 0]], "snapshots": [[[0, 1], [1, 0]], [[0.5, 1], [1, -0.5]]]}')
        traj = read_trajectory_file(path)
        stack = traj.snapshots[0].points.base
        assert stack.shape == (2, 2, 2) and not stack.flags.writeable
        assert all(snap.points.base is stack for snap in traj.snapshots)
        assert stack.tolist() == [[[0.0, 1.0], [1.0, 0.0]], [[0.5, 1.0], [1.0, -0.5]]]

    @pytest.mark.parametrize("centers", ['"ab"', "true", '{"x": 1}'])
    def test_json_centers_must_be_an_array(self, tmp_path, centers):
        path = tmp_path / "traj.json"
        path.write_text(f'{{"centers": {centers}, "snapshots": [[[0.1, 0], [-2, 0]]]}}')
        with pytest.raises(ValueError) as info:
            read_trajectory_file(path)
        assert str(info.value) == f"{path}: centers must be a rectangular array of coordinate vectors"

    def test_integers_too_large_for_a_float_rejected(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(f'{{"centers": [[-1, 0], [1, 0]], "snapshots": [[[0, 0], [1{"0" * 400}, 0]]]}}')
        with pytest.raises(ValueError, match="magnitude >= 1e150"):
            read_trajectory_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n1,0.15,0\n1,-2,nan\n", "snapshot 1 row 2 contains a non-finite coordinate"),
            ("t,x1,x2\n0,0.1,0\n0,-2,0\n1,0.15,0\n", r"snapshot 1 has shape \(1, 2\), expected \(2, 2\)"),
        ],
        ids=["nan", "fewer_points"],
    )
    def test_csv_snapshot_errors_name_the_snapshot(self, tmp_path, text, message):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_text(text)
        centers_path = tmp_path / "ctr.csv"
        centers_path.write_text(centers_to_csv(CenterSet([[-1.0, 0.0], [1.0, 0.0]])))
        with pytest.raises(ValueError, match=message):
            read_trajectory_file(traj_path, centers_path)


class TestErrorsNameTheFile:
    """A value type's error about a file's content reaches the caller with the file named in front."""

    def test_unequal_snapshots_give_the_trajectory_message(self, tmp_path):
        centers = CenterSet([[-1.0, 0.0], [1.0, 0.0]])
        csv_path, json_path, centers_path = tmp_path / "traj.csv", tmp_path / "traj.json", tmp_path / "ctr.csv"
        csv_path.write_text("t,x1,x2\n0,0.1,0\n0,-2,0\n1,0.15,0\n")
        json_path.write_text('{"centers": [[-1, 0], [1, 0]], "snapshots": [[[0.1, 0], [-2, 0]], [[0.15, 0]]]}')
        centers_path.write_text(centers_to_csv(centers))
        with pytest.raises(ValueError) as direct:
            Trajectory([[[0.1, 0.0], [-2.0, 0.0]], [[0.15, 0.0]]], centers)
        assert str(direct.value) == ("snapshot 1 has shape (1, 2), expected (2, 2); "
                                     "the point indexing is fixed over time")
        for args in ((csv_path, centers_path), (json_path,)):
            with pytest.raises(ValueError) as info:
                read_trajectory_file(*args)
            assert str(info.value) == f"{args[0]}: {direct.value}"

    def test_snapshot_of_another_dimension_is_worded_so(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text('{"centers": [[-1, 0], [1, 0]], "snapshots": [[[0.1, 0], [-2, 0]], [[0.1, 0, 0], [-2, 0, 0]]]}')
        with pytest.raises(ValueError) as info:
            read_trajectory_file(path)
        assert str(info.value) == (f"{path}: snapshot 1 has shape (2, 3), expected (2, 2); "
                                   "every snapshot has the dimension of snapshot 0")

    @pytest.mark.parametrize("name, text, make, value", [
        ("p.csv", "x1,x2\n0.5,0\n", PointConfig, [[0.5, 0.0]]),
        ("p.json", '{"points": [[0.5, 0], [1, 1e200]]}', PointConfig, [[0.5, 0.0], [1.0, 1e200]]),
        ("c.json", '{"centers": [[-1, 0], [1, 0], [-1, 0]]}', CenterSet, [[-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
        ("c.csv", "x1\n1\n", CenterSet, [[1.0]]),
    ], ids=["points_csv", "points_json", "centers_json", "centers_csv"])
    def test_points_and_centers(self, tmp_path, name, text, make, value):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as direct:
            make(value)
        with pytest.raises(ValueError) as info:
            (read_points if make is PointConfig else read_centers)(path)
        assert str(info.value) == f"{path}: {direct.value}"

    def test_in_file_centers_of_a_trajectory(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text('{"centers": [[1, 0], [1, 0]], "snapshots": [[[0.1, 0], [-2, 0]]]}')
        with pytest.raises(ValueError) as info:
            read_trajectory_file(path)
        assert str(info.value) == f"{path}: centers 1 and 2 coincide"


class TestJsonCoordinates:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("[[true, 0], [false, 1]]", "row 1 has a coordinate that is not a number: true"),
            ("[[0.5, 0], [1.5, true]]", "row 2 has a coordinate that is not a number: true"),
            ("[[1, 0], [0, false]]", "row 2 has a coordinate that is not a number: false"),
            ('[[0.5, 0], ["1", 0]]', 'row 2 has a coordinate that is not a number: "1"'),
            ("[[0.5, null], [1, 0]]", "row 1 has a coordinate that is not a number: null"),
            ("[[0.5, 0], [1, 0, 2]]", "row 2 has 3 coordinates, expected 2"),
            ("[[0.5, 0], 1]", "row 2 is not an array of coordinates"),
        ],
        ids=["all_bool", "true_among_floats", "false_among_ints", "string", "null", "ragged", "scalar_row"],
    )
    @pytest.mark.parametrize("key", ["points", "centers"])
    def test_rejected_naming_the_file_and_row(self, tmp_path, key, rows, message):
        path = tmp_path / "m.json"
        path.write_text(f'{{"{key}": {rows}}}')
        with pytest.raises(ValueError) as info:
            (read_points if key == "points" else read_centers)(path)
        assert str(info.value) == f"{path}: {key} {message}"

    def test_exact_zeros_and_ones_still_read(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"points": [[1, 0], [0, 1.0], [-0.0, 1e-300]]}')
        assert read_points(path).points.tolist() == [[1.0, 0.0], [0.0, 1.0], [-0.0, 1e-300]]

    def test_exact_zeros_and_ones_take_one_conversion(self, tmp_path):
        # a bool among numbers converts to 0 or 1, so only the entries equal to 0 or 1 are looked up for one
        rows = [[0, 1], [0.0, 1.0], [-0.0, 0.5], [1, 2.5]]
        snapshots = [rows, [[1, 0.0], [0, 1.0], [1.0, 1], [0.0, -1]]]
        points_path, traj_path = tmp_path / "p.json", tmp_path / "t.json"
        points_path.write_text(json.dumps({"points": rows}))
        traj_path.write_text(json.dumps({"centers": [[0, 1], [1.0, 0.0]], "snapshots": snapshots}))
        with mock.patch.object(formats, "_bad_json_entry", side_effect=AssertionError("row scan")):
            points = read_points(points_path).points
            traj = read_trajectory_file(traj_path)
        assert points.tobytes() == np.array(rows, dtype=float).tobytes()
        assert np.stack([s.points for s in traj.snapshots]).tobytes() == np.array(snapshots, dtype=float).tobytes()
        assert traj.centers.centers.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_a_bool_in_a_later_snapshot_names_its_row(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"centers": [[0, 1], [1, 0]], "snapshots": [[[0, 1], [1, 0.5]], [[0, 1], [true, 0.5]]]}')
        with pytest.raises(ValueError) as info:
            read_trajectory_file(path)
        assert str(info.value) == f"{path}: snapshot 1 row 2 has a coordinate that is not a number: true"

    @pytest.mark.parametrize("values", [[[0.5, 1], [2, 3.5], [4.5, 0.0], [5, 6]], [[0.5, 2], [3, 4.5]], [0.0, 1, 2.5],
                                        [], 0, 1, 0.5])
    def test_only_rows_holding_a_zero_or_one_are_looked_up(self, values):
        # a bool is looked for in an object array of the rows that hold an exact 0 or 1, and a lone number
        # is never one
        made, asarray = [], np.asarray

        def spy(rows, dtype=None):
            if dtype is object:
                made.append(len(rows))
            return asarray(rows, dtype=dtype)

        with mock.patch.object(formats.np, "asarray", spy):
            arr = formats._plain_numbers(values)
        assert arr.tobytes() == np.asarray(values).tobytes()
        flagged = [row for row in values if np.any(np.isin(row, [0, 1]))] if isinstance(values, list) else []
        assert made == ([len(flagged)] if flagged else [])

    @pytest.mark.parametrize("values", [[[0.5, 1], [True, 2.5]], [[0.5, 2], [3, False]], [1, True], [[1.5], [False]]])
    def test_a_bool_in_any_row_declines(self, values):
        assert formats._plain_numbers(values) is None


def read_json_whole(path):
    """read_trajectory_file with the snapshot walk turned off: the whole-document path alone (test oracle)."""
    with mock.patch.object(formats, "_walked_doc", lambda text: None):
        return read_trajectory_file(path)


def trajectory_outcome(read, path):
    """The snapshot stack's shape and bits and the centers' bits that reading ``path`` gives, or the error text."""
    try:
        traj = read(path)
    except ValueError as exc:
        return str(exc)
    stack = np.stack([snap.points for snap in traj.snapshots])
    return stack.shape, stack.tobytes(), traj.centers.centers.tobytes()


# entries other than a plain float: exact 0 and 1, non-finite and huge values, ints past 2**53, 2**63 and 2**64,
# and what is not a number
JSON_ENTRIES = ["0", "1", "0.0", "1.0", "-0.0", "-0", "1e308", "-1e308", "1e309", "NaN", "Infinity", "-Infinity",
                "9007199254740993", "9223372036854775809", "18446744073709551617", "1" + "0" * 400, "true", "false",
                "null", '"1"', '"a"', "[]", "{}"]
JSON_SPACES = ["", "", "", " ", "\t", "\r", "\n", "\r\n", " \n  "]


class RandomTrajectoryText:
    """Texts of JSON trajectory files, most of them readable, with the cases the walk must decline or read as
    json.loads does drawn in: key order, duplicate keys, whitespace between tokens, a byte order mark, trailing
    data, odd entries, ragged rows and snapshots, and every kind of schema_version."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def space(self):
        return self.rng.choice(JSON_SPACES)

    def join(self, items, open_="[", close="]"):
        body = (self.space() + "," + self.space()).join(items)
        return open_ + self.space() + body + self.space() + close

    def entry(self):
        rng = self.rng
        return rng.choice(JSON_ENTRIES) if rng.random() < 0.06 else rng.choice(["0", "1", repr(rng.gauss(0, 2))])

    def snapshot(self, n, d):
        rng = self.rng
        if rng.random() < 0.03:
            return rng.choice(["[]", "[[]]", "[1, 2]", "[[[1]]]", "5", '"s"', "null", "{}"])
        n += rng.random() < 0.03  # a snapshot of another shape
        d += rng.random() < 0.03
        return self.join([self.join([self.entry() for _ in range(d + (rng.random() < 0.02))]) for _ in range(n)])

    def snapshots(self, n, d):
        rng = self.rng
        if rng.random() < 0.04:
            return rng.choice(["[]", "5", "null", '"x"', '{"a": 1}'])
        return self.join([self.snapshot(n, d) for _ in range(rng.randint(1, 3))])

    def text(self):
        rng = self.rng
        n, d = rng.randint(2, 3), rng.randint(1, 2)
        centers = self.join([self.join([str(c)] + ["0"] * (d - 1 + (rng.random() < 0.03))) for c in (-1, 1)])
        fields = [("snapshots", self.snapshots(n, d))]
        fields += [("centers", centers)] * (rng.random() < 0.97)
        version = rng.choices(["1", "1.0", "true", "2", '"1"', None], [40, 5, 3, 3, 3, 46])[0]
        fields += [("schema_version", version)] * (version is not None)
        fields += [("note", '"x"')] * (rng.random() < 0.2)
        rng.shuffle(fields)
        if rng.random() < 0.12:  # a leading duplicate, which the last one overrides
            fields.insert(0, ("snapshots", rng.choice(["[]", "5", "null", self.snapshots(n, d)])))
        if rng.random() < 0.06:  # a bad later one, which overrides the good one
            fields.append(("snapshots", rng.choice(["[]", "7", '"s"', self.join(["[[true, 0.5]]"] * 2)])))
        if rng.random() < 0.04:
            fields.append(("schema_version", rng.choice(["1", "2", "true"])))
        # a key spelled with an escape decodes to the same key, and one with a control character is not JSON
        key = lambda name: rng.choices([name, name.replace("s", "\\u0073", 1), name + "\t", "\x01" + name],
                                       [97, 2, 0.7, 0.3])[0]
        mark = lambda good, bad: good if rng.random() < 0.98 else rng.choice(bad)
        body = "".join(mark(",", ["", ";", ",,"]) * (i > 0) + self.space() + f'"{key(k)}"' + self.space()
                       + mark(":", ["", "=", "::", ","]) + self.space() + v + self.space()
                       for i, (k, v) in enumerate(fields))
        body = mark("{", ["", "[", "x{"]) + body + mark("}", ["", ",}", "]", "}}"])
        text = self.space() + body + (self.space() if rng.random() < 0.9 else rng.choice(["[]", "x", " {}", ",", "]"]))
        if rng.random() < 0.03:  # a character lost or one too many, anywhere
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(["", ",", ":", "[", "]", "{", "}", '"']) + text[i + 1:]
        return rng.choices(["", "\ufeff", "\ufeff\ufeff"], [90, 8, 2])[0] + text


class TestJsonTrajectoryWalk:
    def test_random_files_read_as_the_whole_document_path(self, tmp_path):
        path, texts = tmp_path / "t.json", RandomTrajectoryText(0)
        walked, declined, walk = [], [], formats._walked_doc

        def spy(text):
            doc = walk(text)
            (declined if doc is None else walked).append(doc)
            return doc

        read, outcomes = 0, set()
        for _ in range(3000):
            path.write_text(texts.text(), encoding="utf-8")
            with mock.patch.object(formats, "_walked_doc", spy):
                outcome = trajectory_outcome(read_trajectory_file, path)
            assert outcome == trajectory_outcome(read_json_whole, path), path.read_text(encoding="utf-8")
            read += not isinstance(outcome, str)
            outcomes.add(outcome.split(": ", 1)[1].split(" ")[0] if isinstance(outcome, str) else "read")
        # both paths are taken often, and the files fail in many ways
        assert len(walked) > 1000 and len(declined) > 500 and read > 750 and len(outcomes) > 8

    def test_peak_is_the_read_not_the_json_tree(self, tmp_path):
        # n = 2,000 points, T = 50: the whole document's tree alone is about twice the file
        rng = np.random.default_rng(0)
        points = rng.normal(size=(2000, 2))
        stack = np.concatenate([points[None], points + rng.normal(0, 0.05, (50, 2000, 2)).cumsum(axis=0)])
        path = tmp_path / "walk.json"
        path.write_text(json.dumps({"schema_version": 1, "centers": [[-1, 0], [1, 0]], "snapshots": stack.tolist()}))
        peak, traj = peak_traced_mib(lambda: read_trajectory_file(path))
        assert traj._stack.tobytes() == stack.tobytes()
        assert peak * 2**20 < 2 * path.stat().st_size + 2 * stack.nbytes

    def test_only_a_file_the_walk_declines_is_decoded_whole(self, tmp_path):
        plain, overridden, flawed = tmp_path / "plain.json", tmp_path / "overridden.json", tmp_path / "flawed.json"
        plain.write_text('{"centers": [[0, 1], [1, 0]], "snapshots": [[[0, 1], [1, 0.5]], [[0, 1], [1, 0.5]]]}')
        # a leading empty "snapshots", which the later one overrides
        overridden.write_text('{"snapshots": [], "centers": [[0, 1], [1, 0]], "snapshots": [[[0, 1], [1, 0]]]}')
        flawed.write_text('{"centers": [[0, 1], [1, 0]], "snapshots": [[[0, 1], [1, 0.5]], [[0, 1], [true, 0.5]]]}')
        whole = mock.Mock(side_effect=json.loads)
        with mock.patch.object(formats.json, "loads", whole):
            for golden in ("trajectory_input.json", "trajectory_long_input.json"):
                read_trajectory_file(Path(__file__).parent / "golden" / "cli" / golden)
            read_trajectory_file(plain)
            assert read_trajectory_file(overridden).horizon == 0
            assert whole.call_count == 0
            with pytest.raises(ValueError) as info:
                read_trajectory_file(flawed)
        assert whole.call_count == 1
        assert str(info.value) == f"{flawed}: snapshot 1 row 2 has a coordinate that is not a number: true"


def test_partition_from_lists():
    # a report's canonical partition form (1-based index lists) reads back through Partition itself
    p = Partition([[1, 3], [2]], n=3)
    assert p.blocks == ((1, 3), (2,))
    with pytest.raises(ValueError):
        Partition([[1], [2]], n=3)
