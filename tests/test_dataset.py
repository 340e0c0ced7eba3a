import csv
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from posturemap.babble import BabbleConfig, generate_babble
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
from posturemap.codec import CodecSpec, build_codec, codec_from_json, codec_to_json, encode_dataset
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
        ("a,b\n1.0,2.0\n\n3.0,4.0\n", "row 1 has 0 cells, expected 2"),
        ("a,b\r\n1.0,2.0\r\n\r\n", "row 1 has 0 cells, expected 2"),
        ("a,b\n\n", "row 0 has 0 cells, expected 2"),
        ("a,b\n1.0,2.0\n  \n", "row 1 has 1 cells, expected 2"),
        ("a,b\n1.0,\x1c2.0\n", "row 0: could not convert string to float: '\\x1c2.0'"),
        ("a,b\n1_0,2.0\n", "could not convert string '1_0'"),
        ("a,b\n1.0,\uff11\uff12\n", "could not convert string '\uff11\uff12'"),
        ('a,b\n"1.0\n",2.0\n', "a quoted cell spans lines"),
        ("\n\n", "the header has no cells"),
    ], ids=["empty", "header-only", "short-row", "long-row", "non-numeric", "nan", "inf",
            "blank-line", "blank-last-line", "blank-only", "spaces-line", "separator",
            "underscore", "fullwidth-digits", "quoted-newline", "no-header-cells"])
    def test_malformed_file_named(self, tmp_path, text, problem):
        path = tmp_path / "m.csv"
        path.write_text(text, newline="")
        with pytest.raises(DatasetFormatError) as info:
            read_matrix_csv(path)
        assert str(info.value).startswith(f"{path}: ") and problem in str(info.value)

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\n", "\n\n"],
                             ids=["header-only", "blank-lines", "no-header-cells"])
    def test_no_warning_on_input_without_data(self, tmp_path, text):
        # np.loadtxt warns on input with no data lines; the reader raises alone.
        path = tmp_path / "m.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError):
                read_matrix_csv(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_quoted_and_padded_cells_on_every_line_ending(self, tmp_path, newline):
        text = newline.join(['"x,y", z ', ' 1.5 ,"-0.0"', '"2e3",\t5e-324', ""])
        path = tmp_path / "m.csv"
        path.write_text(text, newline="")
        header, matrix = read_matrix_csv(path)
        assert header == ["x,y", "z"]
        assert matrix.tobytes() == np.array([[1.5, -0.0], [2e3, 5e-324]]).tobytes()

    def test_peak_memory_of_the_cli_read(self, tmp_path):
        # The 600 Gaussian-10 codes of the benchmark's CLI input, a 1.6 MB
        # file.  The csv.reader and float() reader this replaced peaked at
        # 3.27 MiB here; streaming lines to np.loadtxt peaks at 0.77 MiB, and
        # passing it a list of the lines at 2.32 MiB.
        ds = generate_babble(BabbleConfig(seed=0, duration_s=12.0))
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), ds.joints)
        path = tmp_path / "enc.csv"
        write_matrix_csv(path, [f"ch{c}" for c in range(codec.width)], encode_dataset(codec, ds))
        tracemalloc.start()
        try:
            read_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20


def reference_read_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """The reader that np.loadtxt replaced: csv.reader, then one float() per
    cell.  The reader must give its bits and its messages."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetFormatError(f"{path}: empty file")
        rows = []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise DatasetFormatError(
                    f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: row {r}: {exc}") from exc
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    matrix = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        raise DatasetFormatError(f"{path}: non-finite value in row {bad[0, 0]}")
    return [h.strip() for h in header], matrix


def float_only(cell: str) -> bool:
    """Whether ``float()`` takes ``cell`` and numpy's parser does not: an
    underscore between digits or a non-ASCII digit."""
    try:
        float(cell)
    except ValueError:
        return False
    return "_" in cell or not cell.strip().isascii()


def narrowed(text: str) -> bool:
    """Whether ``text`` holds what the reader rejects and the reference takes:
    a cell of :func:`float_only`, or a header of no cells."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    return not header or any(float_only(cell) for row in rows for cell in row)


def outcome(read, path):
    try:
        header, matrix = read(path)
    except DatasetFormatError as exc:
        return str(exc)
    return header, matrix.dtype, matrix.shape, matrix.tobytes()


def literals(x: float) -> list[str]:
    return [repr(x), f"{x:.12g}", f"{x:.17g}", f"{x:.25g}", f"{x:.40e}"]


# Finite floats, subnormals included, in repr, %.12g, 17-, 25- and 40-digit forms.
finite_cells = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from(literals(x)))
special_cells = st.sampled_from([
    "-0.0", "-0", "+0.0", "5e-324", "-5e-324", "2.4703282292062327e-324",
    "2.2250738585072011e-308", "9007199254740993", "0.1000000000000000055511151231257827",
    "1e400", "-1e-400", "nan", "NaN", "-nan", "+NAN", "inf", "-inf", "Infinity", "-Infinity",
    "+INF", "infinity",
])
bad_cells = st.sampled_from(["x", "", "1e", ".", "1.5.2", "--1", "0x10", "1 2", "infinit",
                             "1_0", "\uff11\uff12", "\u0663"])
# Mostly none; \x1c is whitespace to numpy's parser and not to float().
padding = st.one_of(st.just(""), st.just(""), st.just(""),
                    st.sampled_from([" ", "  ", "\t", "\xa0", "\x0b", "\x1c"]))


@st.composite
def cells(draw):
    value = draw(st.one_of(*[finite_cells] * 5, special_cells, special_cells, bad_cells))
    cell = draw(padding) + value + draw(padding)
    return f'"{cell}"' if draw(st.booleans()) else cell


@st.composite
def csv_texts(draw):
    """A header, then rows: mostly header-wide, some ragged, some blank or
    whitespace-only, each ended by LF, CRLF or CR."""
    names = draw(st.lists(st.sampled_from(["a", " b ", '"c,d"', "e f", ""]), min_size=1, max_size=4))
    width = len(names)
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 10 + ["ragged", "blank", "spaces"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            n = width if kind == "row" else draw(st.integers(0, width + 2))
            lines.append(",".join(draw(st.lists(cells(), min_size=n, max_size=n))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestReaderEquivalence:
    """read_matrix_csv against :func:`reference_read_matrix_csv`."""

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    def test_same_bits_or_same_message(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_text(text, newline="")
        got = outcome(read_matrix_csv, path)
        want = outcome(reference_read_matrix_csv, path)
        if got != want:
            # The deliberate narrowings: rejected, naming the file.
            assert narrowed(text) and isinstance(got, str) and got.startswith(f"{path}: ")

    @settings(max_examples=150, deadline=None)
    @given(matrix=arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 6)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
        ),
    ))
    def test_write_read_round_trip_is_byte_identical(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        header = [f"c{j}" for j in range(matrix.shape[1])]
        write_matrix_csv(path, header, matrix)
        got_header, got = read_matrix_csv(path)
        assert got_header == header
        assert got.dtype == np.float64 and got.shape == matrix.shape
        assert got.tobytes() == matrix.tobytes()


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
