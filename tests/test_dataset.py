import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from posturemap.dataset import (
    MAX_GRID_POINTS,
    Dataset,
    JointSpec,
    check_postures,
    load_dataset,
    load_joint_specs,
    read_json,
    read_matrix_csv,
    save_dataset,
    save_joint_specs,
    write_matrix_csv,
)
from posturemap.codec import CodecSpec, build_codec, codec_from_json, codec_to_json
from posturemap.errors import DatasetFormatError, OutOfRangeError

JOINTS = (JointSpec("alpha", -40.0, 30.0), JointSpec("beta", 0.0, 90.0))


def make_dataset():
    samples = np.array([[-5.0, 45.0], [10.0, 60.0], [-39.9, 0.1]])
    return Dataset(joints=JOINTS, samples=samples)


class TestJointSpec:
    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            JointSpec("bad", 10.0, -10.0)

    @pytest.mark.parametrize("lo,hi,message", [
        (-1e308, 1e308, "joint 'j': the range from -1e+308 to 1e+308 is not finite"),
        (-math.inf, 0.0, "min_deg must be a finite number, got -inf"),
        (0.0, math.inf, "max_deg must be a finite number, got inf"),
    ], ids=["-1e+308-1e+308", "-inf-0.0", "0.0-inf"])
    def test_non_finite_range_rejected(self, lo, hi, message):
        # -1e308..1e308 used to have an infinite range_deg, and a normalized
        # codec encoded every sample of the joint as 0.
        with pytest.raises(ValueError) as info:
            JointSpec("j", lo, hi)
        assert str(info.value) == message

    def test_overflowing_sidecar_rejected_on_load(self, tmp_path):
        path = tmp_path / "joints.json"
        save_joint_specs(JOINTS, path)
        doc = json.loads(path.read_text())
        doc["joints"][1].update(min_deg=-1e308, max_deg=1e308)
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match="joint 'beta': the range .* is not finite"):
            load_joint_specs(path)

    def test_grid_point_cap(self):
        j = JointSpec("j", 0.0, MAX_GRID_POINTS - 1.0)
        assert j.grid(1.0).size == MAX_GRID_POINTS
        # 99999.5 steps round to 100000, one point too many.
        with pytest.raises(ValueError, match=f"joint 'j': .* more than {MAX_GRID_POINTS} points"):
            j.grid((MAX_GRID_POINTS - 1.0) / (MAX_GRID_POINTS - 0.5))

    @pytest.mark.parametrize("step", [1e-12, 1e-320])
    def test_fine_grid_rejected_before_allocating(self, step):
        # 1e-12 used to ask for petabytes; 1e-320 gives an infinite count.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="joint 'alpha': a grid step of"):
                JOINTS[0].grid(step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("step,size", [(0.1, 701), (0.07, 1001), (7.0, 11), (40.0, 3), (100.0, 2)])
    def test_grid_spans_range(self, step, size):
        j = JointSpec("j", -40.0, 30.0)
        grid = j.grid(step)
        assert j.range_deg == 70.0
        assert grid.size == size
        assert grid[0] == -40.0 and grid[-1] == 30.0
        np.testing.assert_allclose(np.diff(grid), 70.0 / (size - 1))


class TestCheckPostures:
    @pytest.mark.parametrize("postures,problem", [
        ([-40.0, 90.5], "value 90.5 at column 1 outside range [0, 90] of joint 'beta'"),
        ([np.nan, 0.0], "value nan at column 0 outside range [-40, 30] of joint 'alpha'"),
        ([[0.0, 0.0], [-40.0, 90.0], [0.0, -1.0], [31.0, 0.0]],
         "value -1 at row 2, column 1 outside range [0, 90] of joint 'beta'"),
        ([[0.0, 0.0], [np.nan, -1.0]], "value nan at row 1, column 0 outside range [-40, 30] of joint 'alpha'"),
    ], ids=["1d", "1d-nan", "2d", "2d-nan"])
    def test_first_bad_value_named(self, postures, problem):
        with pytest.raises(OutOfRangeError) as info:
            check_postures(np.array(postures), JOINTS)
        assert str(info.value) == problem

    @pytest.mark.parametrize("postures", [[-40.0, 90.0], [[30.0, 0.0], [-0.0, 45.0]]])
    def test_range_ends_accepted(self, postures):
        check_postures(np.array(postures), JOINTS)


class TestDatasetInvariants:
    def test_out_of_range_cell_named(self):
        with pytest.raises(OutOfRangeError, match=r"row 1.*alpha"):
            Dataset(joints=JOINTS, samples=np.array([[0.0, 1.0], [31.0, 1.0]]))

    def test_nan_rejected(self):
        with pytest.raises(OutOfRangeError, match="value nan at row 0, column 1 .* 'beta'"):
            Dataset(joints=JOINTS, samples=np.array([[0.0, np.nan]]))

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match=r"samples must be a \(n, 2\) array, got shape \(3, 3\)"):
            Dataset(joints=JOINTS, samples=np.zeros((3, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"samples must be non-empty, got shape \(0, 2\)"):
            Dataset(joints=JOINTS, samples=np.zeros((0, 2)))

    def test_samples_are_frozen(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.samples[0, 0] = 1.0

    def test_duration(self):
        assert make_dataset().duration_s == pytest.approx(3 / 50.0)


class TestCsvRoundtrip:
    def test_save_load_identical(self, tmp_path, babble_short):
        csv_path = tmp_path / "data.csv"
        spec_path = tmp_path / "joints.json"
        save_dataset(babble_short, csv_path, joint_spec_path=spec_path)
        loaded = load_dataset(csv_path, spec_path)
        assert np.array_equal(loaded.samples, babble_short.samples)
        assert loaded.joint_names == babble_short.joint_names

    def test_joint_spec_roundtrip(self, tmp_path):
        path = tmp_path / "joints.json"
        save_joint_specs(JOINTS, path)
        assert load_joint_specs(path) == JOINTS

    def test_header_spec_mismatch(self, tmp_path):
        ds = make_dataset()
        save_dataset(ds, tmp_path / "d.csv")
        save_joint_specs((JOINTS[0],), tmp_path / "one.json")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(tmp_path / "d.csv", tmp_path / "one.json")

    def test_row_width_mismatch(self, tmp_path):
        (tmp_path / "d.csv").write_text("alpha,beta\n1.0\n")
        save_joint_specs(JOINTS, tmp_path / "j.json")
        with pytest.raises(DatasetFormatError, match="row 0"):
            load_dataset(tmp_path / "d.csv", tmp_path / "j.json")

    def test_out_of_range_value_named(self, tmp_path):
        (tmp_path / "d.csv").write_text("alpha,beta\n31.0,5.0\n")
        save_joint_specs(JOINTS, tmp_path / "j.json")
        with pytest.raises(OutOfRangeError, match=r"row 0, column 0.*alpha"):
            load_dataset(tmp_path / "d.csv", tmp_path / "j.json")

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "d.csv").write_text("alpha,beta\n1.0,oops\n")
        save_joint_specs(JOINTS, tmp_path / "j.json")
        with pytest.raises(DatasetFormatError):
            load_dataset(tmp_path / "d.csv", tmp_path / "j.json")

    def test_empty_file(self, tmp_path):
        (tmp_path / "d.csv").write_text("")
        save_joint_specs(JOINTS, tmp_path / "j.json")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(tmp_path / "d.csv", tmp_path / "j.json")

    def test_header_only(self, tmp_path):
        (tmp_path / "d.csv").write_text("alpha,beta\n")
        save_joint_specs(JOINTS, tmp_path / "j.json")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_dataset(tmp_path / "d.csv", tmp_path / "j.json")

    def test_bad_sidecar(self, tmp_path):
        (tmp_path / "j.json").write_text("{not json")
        with pytest.raises(DatasetFormatError):
            load_joint_specs(tmp_path / "j.json")

    def test_joint_spec_sidecar_bytes(self, tmp_path):
        path = tmp_path / "j.json"
        save_joint_specs(JOINTS[:1], path)
        assert path.read_text() == (
            '{\n  "joints": [\n    {\n      "name": "alpha",\n'
            '      "min_deg": -40.0,\n      "max_deg": 30.0\n    }\n  ]\n}\n'
        )

    def test_inverted_sidecar_range_rejected(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(json.dumps({"joints": [{"name": "a", "min_deg": 5, "max_deg": 1}]}))
        with pytest.raises(DatasetFormatError, match=f"{path}: joint 'a': min_deg"):
            load_joint_specs(path)

    @pytest.mark.parametrize("edit,problem", [
        ({"name": 3}, "name must be a str, got 3"),
        ({"min_deg": "0"}, "min_deg must be a finite number, got '0'"),
        ({"max_deg": None}, "max_deg must be a finite number, got None"),
    ], ids=["int-name", "str-min", "null-max"])
    def test_sidecar_and_codec_read_joints_alike(self, edit, problem, tmp_path):
        # The sidecar reader used to coerce these to '3', 0.0 and a TypeError,
        # while a codec's joints rejected them.
        path = tmp_path / "j.json"
        save_joint_specs(JOINTS, path)
        doc = json.loads(path.read_text())
        doc["joints"][0].update(edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError) as info:
            load_joint_specs(path)
        assert str(info.value) == f"{path}: {problem}"
        codec_doc = codec_to_json(build_codec(CodecSpec("gaussian", "fixed_count", 5), JOINTS))
        codec_doc["joints"] = doc["joints"]
        with pytest.raises(ValueError) as info:
            codec_from_json(codec_doc)
        assert str(info.value) == problem

    def test_non_finite_cell(self, tmp_path):
        (tmp_path / "d.csv").write_text("alpha,beta\n1.0,2.0\n1.0,inf\n")
        save_joint_specs(JOINTS, tmp_path / "j.json")
        with pytest.raises(DatasetFormatError, match="non-finite value in row 1"):
            load_dataset(tmp_path / "d.csv", tmp_path / "j.json")


class TestMatrixCsv:
    def test_roundtrip_is_value_identical(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(7, 3)) * 1e3
        write_matrix_csv(tmp_path / "m.csv", ["a", "b", "c"], matrix)
        header, got = read_matrix_csv(tmp_path / "m.csv")
        assert header == ["a", "b", "c"]
        assert np.array_equal(got, matrix)

    @pytest.mark.parametrize("matrix", [
        np.array([[-0.0, 5e-324, 1e308], [0.1, 1 / 3, 2.0], [-7.0, 1e16, -1.5e-310]]),
        np.array([[1, -2, 0]]),
        np.array([[0.1, 1 / 3, -0.0]], dtype=np.float32),
        [[0.5, 3.0, -0.0]],
        np.array([[np.inf, -np.inf, np.nan], [-np.nan, 1.0, -np.inf]]),
        np.array([[2.5], [-0.0]]),
    ], ids=["float64", "int", "float32", "list", "inf-nan", "one-column"])
    def test_bytes_match_per_element_writer(self, tmp_path, matrix):
        # The writer this one replaced: one repr(float(v)) per element.
        with (tmp_path / "old.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c"])
            for row in matrix:
                writer.writerow([repr(float(v)) for v in row])
        write_matrix_csv(tmp_path / "new.csv", ["a", "b", "c"], matrix)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("text,problem", [
        ("", "empty file"),
        ("a,b\n", "no data rows"),
        ("a,b\n1.0,2.0\n3.0\n", "row 1 has 1 cells, expected 2"),
        ("a,b\n1.0,2.0,3.0\n", "row 0 has 3 cells, expected 2"),
        ("a,b\n1.0,x\n", "row 0: could not convert"),
        ("a,b\n1.0,2.0\nnan,2.0\n", "non-finite value in row 1"),
        ("a,b\n-inf,2.0\n", "non-finite value in row 0"),
    ], ids=["empty", "header-only", "short-row", "long-row", "non-numeric", "nan", "inf"])
    def test_malformed_file_named(self, tmp_path, text, problem):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as info:
            read_matrix_csv(path)
        assert str(info.value).startswith(f"{path}: ") and problem in str(info.value)


class TestReadJson:
    def test_returns_parsed_document(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": [1, 2]}')
        assert read_json(path, lambda doc: doc["a"]) == [1, 2]

    @pytest.mark.parametrize("text,parse,problem", [
        ("{not json", lambda doc: doc, "Expecting property name"),
        ('{"a": 1}', lambda doc: doc["b"], "missing key 'b'"),
        ('{"a": 1}', lambda doc: float(doc["a"] + "x"), "unsupported operand"),
        ('{"a": "x"}', lambda doc: float(doc["a"]), "could not convert"),
    ], ids=["not-json", "key", "type", "value"])
    def test_rejection_names_file(self, tmp_path, text, parse, problem):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as info:
            read_json(path, parse)
        assert str(info.value).startswith(f"{path}: ") and problem in str(info.value)

    def test_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "absent.json", lambda doc: doc)
