import csv
import json
import multiprocessing
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import posturemap.cli as cli
from posturemap.babble import BabbleConfig
from posturemap.codec import CodecSpec
from posturemap.cli import main
from posturemap.dataset import JointSpec
from posturemap.decode import KdeConfig
from posturemap.experiment import ExperimentConfig
from posturemap.som import TrainConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared pipeline run: babble -> encode -> train."""
    root = tmp_path_factory.mktemp("cli")
    assert main([
        "babble", "--seed", "3", "--duration", "4",
        "--out", str(root / "data.csv"), "--spec-out", str(root / "joints.json"),
    ]) == 0
    assert main([
        "encode", "--family", "gaussian", "--count", "5",
        "--data", str(root / "data.csv"), "--spec", str(root / "joints.json"),
        "--out", str(root / "enc.csv"), "--codec-out", str(root / "codec.json"),
    ]) == 0
    assert main([
        "train", "--codec", str(root / "codec.json"), "--data", str(root / "enc.csv"),
        "--rows", "3", "--cols", "3", "--cycles", "1", "--seed", "1",
        "--out", str(root / "map.json"),
    ]) == 0
    return root


class TestPipeline:
    def test_babble_artifacts(self, workspace):
        with (workspace / "data.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 200
        assert rows[0][0] == "shoulder_pitch"
        spec = json.loads((workspace / "joints.json").read_text())
        assert len(spec["joints"]) == 13

    def test_encode_artifacts(self, workspace):
        with (workspace / "enc.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 200
        assert len(rows[1]) == 65
        codec = json.loads((workspace / "codec.json").read_text())
        assert codec["family"] == "gaussian"

    def test_map_artifacts(self, workspace):
        doc = json.loads((workspace / "map.json").read_text())
        assert doc["rows"] == 3 and doc["cols"] == 3
        assert len(doc["weights"]) == 9
        assert doc["train_config"]["cycles"] == 1

    def test_decode_roundtrip(self, workspace):
        out = workspace / "decoded.csv"
        assert main([
            "decode", "--codec", str(workspace / "codec.json"),
            "--data", str(workspace / "enc.csv"), "--out", str(out),
        ]) == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "shoulder_pitch"
        with (workspace / "data.csv").open() as fh:
            orig = list(csv.reader(fh))
        a = np.array(rows[1:], dtype=float)
        b = np.array(orig[1:], dtype=float)
        np.testing.assert_allclose(a, b, atol=0.1)

    def test_eval(self, workspace):
        out = workspace / "metrics.json"
        assert main([
            "eval", "--map", str(workspace / "map.json"),
            "--data", str(workspace / "data.csv"), "--spec", str(workspace / "joints.json"),
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["family"] == "gaussian"
        assert doc["qe_encoded"] > 0

    def test_train_naive_init(self, workspace):
        out = workspace / "map_naive.json"
        assert main([
            "train", "--codec", str(workspace / "codec.json"),
            "--data", str(workspace / "enc.csv"), "--rows", "2", "--cols", "2",
            "--cycles", "1", "--init", "naive", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["rows"] == 2

    def test_plot_map(self, workspace):
        out = workspace / "grid.svg"
        assert main(["plot-map", "--map", str(workspace / "map.json"), "--out", str(out)]) == 0
        ET.parse(out)

    def test_plot_curves_from_data(self, workspace):
        out = workspace / "curves.svg"
        assert main([
            "plot-curves", "--family", "sigmoid", "--count", "5",
            "--data", str(workspace / "data.csv"), "--spec", str(workspace / "joints.json"),
            "--dof", "2", "--out", str(out),
        ]) == 0
        ET.parse(out)

    def test_plot_curves_requires_spec_with_data(self, workspace, capsys):
        _fails_with_one_line([
            "plot-curves", "--family", "sigmoid",
            "--data", str(workspace / "data.csv"), "--out", str(workspace / "x.svg"),
        ], capsys, "--spec is required when --data is given")
        assert not (workspace / "x.svg").exists()


class TestDemoAndExperiment:
    def test_demo_inconsistency(self, tmp_path, capsys):
        assert main([
            "demo-inconsistency", "--family", "gaussian",
            "--angles", "-20", "10", "--out", str(tmp_path),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["manifold_drift"] > 1e-3

    def test_experiment_micro(self, tmp_path):
        out = tmp_path / "exp"
        assert main([
            "experiment", "--out", str(out), "--babble-seed", "3", "--duration", "4",
            "--families", "normalized,gaussian", "--counts", "5",
            "--rows", "3", "--cols", "3", "--cycles", "1", "--seeds", "0",
        ]) == 0
        assert (out / "aggregate.csv").exists()
        assert (out / "qe_bars.svg").exists()

    def test_experiment_config_file(self, tmp_path):
        cfg = {
            "out_dir": str(tmp_path / "exp"),
            "babble_seed": 3,
            "duration_s": 4.0,
            "families": ["normalized"],
            "rows": 3,
            "cols": 3,
            "cycles": 1,
            "seeds": [0],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "exp" / "normalized_seed0.json").exists()


class _Recorded(Exception):
    """Raised by a stand-in callee once it has recorded its arguments."""


def _called_with(monkeypatch, callee, argv):
    """The ``(args, kwargs)`` with which ``main(argv)`` calls ``cli.<callee>``."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Recorded

    monkeypatch.setattr(cli, callee, record)
    with pytest.raises(_Recorded):
        main(argv)
    return calls[0]


class TestDefaultsFromConfigs:
    """Run with only its required flags, each command builds the default
    config of what it calls, so the parser restates no default of its own."""

    @pytest.mark.parametrize("argv,callee,built,expected", [
        (["babble", "--out", "{ws}/never.csv"], "generate_babble",
         lambda a, kw: a[0], BabbleConfig()),
        (["encode", "--family", "gaussian", "--data", "{ws}/data.csv", "--spec", "{ws}/joints.json",
          "--out", "{ws}/never.csv"], "build_codec", lambda a, kw: a[0], CodecSpec("gaussian", "fixed_count")),
        (["train", "--codec", "{ws}/codec.json", "--data", "{ws}/enc.csv", "--out", "{ws}/never.json"],
         "train", lambda a, kw: (a[0].rows, a[0].cols, a[2]),
         (ExperimentConfig().rows, ExperimentConfig().cols, TrainConfig())),
        (["decode", "--codec", "{ws}/codec.json", "--data", "{ws}/enc.csv", "--out", "{ws}/never.csv"],
         "decode_matrix", lambda a, kw: a[2], KdeConfig()),
        (["eval", "--map", "{ws}/map.json", "--data", "{ws}/data.csv", "--spec", "{ws}/joints.json",
          "--out", "{ws}/never.json"], "evaluate_map", lambda a, kw: a[4], KdeConfig()),
        (["plot-map", "--map", "{ws}/map.json", "--out", "{ws}/never.svg"], "plot_posture_grid",
         lambda a, kw: kw["cfg"], KdeConfig()),
        (["experiment"], "run_experiment", lambda a, kw: a[0], ExperimentConfig()),
        # The angles are the only demo flag without a default in demo_inconsistency.
        (["demo-inconsistency", "--family", "gaussian"], "demo_inconsistency",
         lambda a, kw: (a, kw), (("gaussian", -20.0, 10.0), {})),
        (["demo-inconsistency", "--family", "gaussian", "--range", "-10", "50", "--count", "5",
          "--alpha", "0.25", "--out", "d"], "demo_inconsistency", lambda a, kw: kw,
         {"joint": JointSpec("demo_joint", -10.0, 50.0), "count": 5, "alpha": 0.25, "out_dir": "d"}),
    ], ids=["babble", "encode", "train", "decode", "eval", "plot-map", "experiment", "demo",
            "demo-flags-given"])
    def test_required_flags_build_the_defaults(self, argv, callee, built, expected, workspace,
                                               monkeypatch):
        argv = [arg.format(ws=workspace) for arg in argv]
        assert built(*_called_with(monkeypatch, callee, argv)) == expected


class TestErrors:
    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["encode", "--family", "cubic", "--data", "x", "--spec", "y", "--out", "z"])

    def test_strict_experiment_fails_on_cell_error(self, tmp_path, monkeypatch):
        import posturemap.cli as cli_mod
        from posturemap.experiment import CellResult

        def fake_run(cfg):
            return [CellResult("gaussian", 5, 0, error="RuntimeError: injected")]

        monkeypatch.setattr(cli_mod, "run_experiment", fake_run)
        args = ["experiment", "--out", str(tmp_path / "x"), "--families", "gaussian",
                "--counts", "5", "--seeds", "0", "--duration", "4"]
        assert main(args + ["--strict"]) == 1
        assert main(args) == 0

    def test_decode_undecodable_row(self, tmp_path, workspace):
        bad = tmp_path / "bad.csv"
        with (workspace / "enc.csv").open() as fh:
            header = fh.readline()
        bad.write_text(header + ",".join(["0.0"] * 65) + "\n")
        assert main([
            "decode", "--codec", str(workspace / "codec.json"),
            "--data", str(bad), "--out", str(tmp_path / "out.csv"),
        ]) == 1

    @pytest.mark.parametrize("command", ["train", "decode"])
    @pytest.mark.parametrize("cell,problem", [
        ("nan", "non-finite value in row 2"),
        ("x", "could not convert"),
    ])
    def test_bad_cell_rejected(self, command, cell, problem, tmp_path, workspace, capsys):
        lines = (workspace / "enc.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = cell
        lines[3] = ",".join(cells)
        bad = tmp_path / "enc.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([
            command, "--codec", str(workspace / "codec.json"),
            "--data", str(bad), "--out", str(tmp_path / "out"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(bad) in err and problem in err

    @pytest.mark.parametrize("command", ["eval", "plot-map"])
    def test_non_finite_map_weight_rejected(self, command, tmp_path, workspace, capsys):
        doc = json.loads((workspace / "map.json").read_text())
        doc["weights"][4][7] = float("nan")
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))
        args = {
            "eval": ["--data", str(workspace / "data.csv"), "--spec", str(workspace / "joints.json"),
                     "--out", str(tmp_path / "metrics.json")],
            "plot-map": ["--out", str(tmp_path / "grid.svg")],
        }[command]
        capsys.readouterr()
        assert main([command, "--map", str(bad)] + args) == 1
        err = capsys.readouterr().err
        assert err == f"posturemap {command}: {bad}: non-finite weight in unit 4\n"
        assert not (tmp_path / "metrics.json").exists() and not (tmp_path / "grid.svg").exists()

    @pytest.mark.parametrize("command", ["eval", "plot-map"])
    @pytest.mark.parametrize("edit,problem", [
        (lambda doc: {k: v for k, v in doc.items() if k != "rows"}, "map lacks rows"),
        (lambda doc: [], "a map is a JSON object, not list"),
        (lambda doc: {**doc, "trained_cycles": "x"}, "trained_cycles must be an integer >= 0, got 'x'"),
        (lambda doc: {**doc, "qe_trace": ["a"]},
         "qe_trace must be a tuple of values, each a finite number, got ('a',)"),
        (lambda doc: {**doc, "rows": 2.0, "cols": 2.0, "weights": doc["weights"][:4]},
         "rows must be an integer >= 1, got 2.0"),
        (lambda doc: {**doc, "weights": [row[0] for row in doc["weights"]]},
         "weights must be a units x width matrix, got shape (9,)"),
    ], ids=["no-rows", "list", "str-cycles", "str-trace", "float-lattice", "flat-weights"])
    def test_malformed_map_rejected(self, command, edit, problem, tmp_path, workspace, capsys):
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(edit(json.loads((workspace / "map.json").read_text()))))
        args = {
            "eval": ["--data", str(workspace / "data.csv"), "--spec", str(workspace / "joints.json"),
                     "--out", str(tmp_path / "metrics.json")],
            "plot-map": ["--out", str(tmp_path / "grid.svg")],
        }[command]
        capsys.readouterr()
        assert main([command, "--map", str(bad)] + args) == 1
        assert capsys.readouterr().err == f"posturemap {command}: {bad}: {problem}\n"
        assert not (tmp_path / "metrics.json").exists() and not (tmp_path / "grid.svg").exists()

    def test_decode_reports_first_undecodable_row(self, tmp_path, workspace, capsys):
        # Five Gaussians per DoF: zeroing a DoF's five channels leaves it no candidate.
        lines = (workspace / "enc.csv").read_text().splitlines()
        for row, dof in ((3, 2), (7, 0)):
            cells = lines[1 + row].split(",")
            cells[5 * dof:5 * dof + 5] = ["0.0"] * 5
            lines[1 + row] = ",".join(cells)
        bad = tmp_path / "enc.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "decoded.csv"
        name = json.loads((workspace / "codec.json").read_text())["joints"][2]["name"]
        capsys.readouterr()
        assert main([
            "decode", "--codec", str(workspace / "codec.json"), "--data", str(bad), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"posturemap decode: row 3: DoF 2 ({name!r}): ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "plot-map"])
    def test_map_without_codec_rejected(self, command, tmp_path, workspace, capsys):
        doc = json.loads((workspace / "map.json").read_text())
        doc["codec"] = None
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))
        args = {
            "eval": ["--data", str(workspace / "data.csv"), "--spec", str(workspace / "joints.json"),
                     "--out", str(tmp_path / "metrics.json")],
            "plot-map": ["--out", str(tmp_path / "grid.svg")],
        }[command]
        _fails_with_one_line([command, "--map", str(bad)] + args, capsys, f"{bad}: ", "no codec")
        assert not (tmp_path / "metrics.json").exists() and not (tmp_path / "grid.svg").exists()

    def test_plot_map_of_seven_joints_rejected(self, tmp_path, workspace, capsys):
        # Five Gaussians per DoF: the first 35 channels are the 7 arm joints.
        doc = json.loads((workspace / "map.json").read_text())
        doc["codec"]["joints"] = doc["codec"]["joints"][:7]
        doc["codec"]["per_dof"] = doc["codec"]["per_dof"][:7]
        doc["weights"] = [row[:35] for row in doc["weights"]]
        arm = tmp_path / "map.json"
        arm.write_text(json.dumps(doc))
        _fails_with_one_line(["plot-map", "--map", str(arm), "--out", str(tmp_path / "grid.svg")],
                             capsys, "7 arm + 6 head joints in order, got ('shoulder_pitch'")
        assert not (tmp_path / "grid.svg").exists()


def _fails_with_one_line(argv, capsys, *needles):
    """Run ``main``; it must exit 1 with one stderr line naming the command."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"posturemap {argv[0]}: ")
    for needle in needles:
        assert needle in err
    return err


class TestOneLineErrors:
    """Every malformed input ends the command with one line and exit 1."""

    @pytest.mark.parametrize("command", ["train", "decode"])
    @pytest.mark.parametrize("text,problem", [
        ("", "empty file"),
        ("ch0,ch1\n", "no data rows"),
        ("ch0,ch1\n0.5,0.5\n0.5\n", "row 1 has 1 cells, expected 2"),
    ], ids=["empty", "header-only", "ragged"])
    def test_malformed_encoded_csv(self, command, text, problem, tmp_path, workspace, capsys):
        bad = tmp_path / "enc.csv"
        bad.write_text(text)
        _fails_with_one_line([
            command, "--codec", str(workspace / "codec.json"),
            "--data", str(bad), "--out", str(tmp_path / "out"),
        ], capsys, f"{bad}: {problem}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "decode"])
    def test_width_mismatch(self, command, tmp_path, workspace, capsys):
        bad = tmp_path / "enc.csv"
        bad.write_text(",".join(f"ch{c}" for c in range(10)) + "\n" + ",".join(["0.5"] * 10) + "\n")
        _fails_with_one_line([
            command, "--codec", str(workspace / "codec.json"),
            "--data", str(bad), "--out", str(tmp_path / "out"),
        ], capsys, "65")

    @pytest.mark.parametrize("command", ["train", "decode"])
    def test_codec_without_setup(self, command, tmp_path, workspace, capsys):
        doc = json.loads((workspace / "codec.json").read_text())
        del doc["setup"]
        bad = tmp_path / "codec.json"
        bad.write_text(json.dumps(doc))
        _fails_with_one_line([
            command, "--codec", str(bad),
            "--data", str(workspace / "enc.csv"), "--out", str(tmp_path / "out"),
        ], capsys, f"{bad}: missing key 'setup'")

    @pytest.mark.parametrize("command", ["encode", "eval"])
    def test_inverted_joint_spec(self, command, tmp_path, workspace, capsys):
        doc = json.loads((workspace / "joints.json").read_text())
        doc["joints"][0]["min_deg"] = doc["joints"][0]["max_deg"] + 1.0
        bad = tmp_path / "joints.json"
        bad.write_text(json.dumps(doc))
        args = {
            "encode": ["--family", "gaussian", "--out", str(tmp_path / "enc.csv")],
            "eval": ["--map", str(workspace / "map.json"), "--out", str(tmp_path / "m.json")],
        }[command]
        _fails_with_one_line(
            [command, "--data", str(workspace / "data.csv"), "--spec", str(bad)] + args,
            capsys, f"{bad}: joint 'shoulder_pitch': min_deg",
        )

    @pytest.mark.parametrize("command", ["encode", "eval"])
    def test_joint_name_not_coerced(self, command, tmp_path, workspace, capsys):
        # The sidecar reader used to load a name of 3 as '3'.
        doc = json.loads((workspace / "joints.json").read_text())
        doc["joints"][0]["name"] = 3
        bad = tmp_path / "joints.json"
        bad.write_text(json.dumps(doc))
        args = {
            "encode": ["--family", "gaussian", "--out", str(tmp_path / "out")],
            "eval": ["--map", str(workspace / "map.json"), "--out", str(tmp_path / "out")],
        }[command]
        _fails_with_one_line(
            [command, "--data", str(workspace / "data.csv"), "--spec", str(bad)] + args,
            capsys, f"{bad}: name must be a str, got 3",
        )
        assert not (tmp_path / "out").exists()

    def test_out_of_range_cell(self, tmp_path, workspace, capsys):
        lines = (workspace / "data.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "shoulder_pitch"
        cells = lines[2].split(",")
        cells[0] = "999.0"
        lines[2] = ",".join(cells)
        bad = tmp_path / "data.csv"
        bad.write_text("\n".join(lines) + "\n")
        _fails_with_one_line([
            "encode", "--family", "gaussian", "--data", str(bad),
            "--spec", str(workspace / "joints.json"), "--out", str(tmp_path / "enc.csv"),
        ], capsys, "value 999 at row 1, column 0", "'shoulder_pitch'")
        assert not (tmp_path / "enc.csv").exists()

    def test_missing_input_file(self, tmp_path, workspace, capsys):
        _fails_with_one_line([
            "decode", "--codec", str(workspace / "codec.json"),
            "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "out.csv"),
        ], capsys, "No such file", "absent.csv")

    def test_unwritable_out_path(self, tmp_path, workspace, capsys):
        _fails_with_one_line([
            "decode", "--codec", str(workspace / "codec.json"),
            "--data", str(workspace / "enc.csv"), "--out", str(tmp_path / "no-dir" / "out.csv"),
        ], capsys, "no-dir")

    @pytest.mark.parametrize("edit,problem", [
        ({"bogus": 1}, "bogus"),
        ({"counts": [1]}, "counts must be a tuple of values, each an integer >= 2, got [1]"),
        ({"kde": {"bandwidth_h": -1}}, "bandwidth_h must be a finite number > 0 or 'auto', got -1"),
        ({"seeds": ["a"]}, "seeds must be a tuple of values, each an integer >= 0, got ['a']"),
        ({"rows": 2.5}, "rows must be an integer >= 1, got 2.5"),
        ({"duration_s": "x"},
         "duration_s must be a finite number > 0 and <= 7200 s (360000 samples at 50 Hz), got 'x'"),
        ({"counts": ["a"]}, "counts must be a tuple of values, each an integer >= 2, got ['a']"),
        ({"shuffle": "false"}, "shuffle must be true or false, got 'false'"),
        ({"strict": "no"}, "strict must be true or false, got 'no'"),
        # A bool bandwidth used to run the whole matrix at 1 degree.
        ({"kde": {"bandwidth_h": True}}, "bandwidth_h must be a finite number > 0 or 'auto', got True"),
        # An int output directory used to end in a TypeError traceback from pathlib.
        ({"out_dir": 5}, "out_dir must be a str or os.PathLike path, got 5"),
        # These four used to end in a line that named no field, such as
        # "'int' object is not iterable"; a string was split into letters.
        ({"counts": 5}, "counts must be a tuple of values, each an integer >= 2, got 5"),
        ({"kde": 5}, "kde must be a KdeConfig, got 5"),
        ({"families": ["gaussian", ["x"]]},
         "families must be a tuple of values, each a str, got ['gaussian', ['x']]"),
        ({"families": "gaussian"}, "families must be a tuple of values, each a str, got 'gaussian'"),
    ], ids=["unknown-key", "bad-count", "bad-kde", "str-seed", "float-rows", "str-duration", "str-count",
            "str-shuffle", "str-strict", "bool-bandwidth", "int-out-dir", "int-counts", "int-kde",
            "nested-family", "str-families"])
    def test_bad_experiment_config(self, edit, problem, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "x"), "duration_s": 4.0, **edit}))
        _fails_with_one_line(["experiment", "--config", str(cfg)], capsys, f"{cfg}: ", problem)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["decode", "eval", "plot-map"])
    @pytest.mark.parametrize("flag,value", [
        ("--bandwidth", "0"), ("--bandwidth", "-1"), ("--bandwidth", "inf"),
        ("--bandwidth", "nan"), ("--bandwidth", "abc"), ("--grid", "0"), ("--grid", "inf"),
    ])
    def test_bad_kde_flag(self, command, flag, value, tmp_path, workspace, capsys):
        args = {
            "decode": ["--codec", str(workspace / "codec.json"), "--data", str(workspace / "enc.csv"),
                       "--out", str(tmp_path / "out")],
            "eval": ["--map", str(workspace / "map.json"), "--data", str(workspace / "data.csv"),
                     "--spec", str(workspace / "joints.json"), "--out", str(tmp_path / "out")],
            "plot-map": ["--map", str(workspace / "map.json"), "--out", str(tmp_path / "out")],
        }[command]
        err = _fails_with_one_line([command] + args + [flag, value], capsys, f": {flag}: ")
        other = {"--bandwidth": "--grid", "--grid": "--bandwidth"}[flag]
        assert other not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_grid_too_fine(self, command, tmp_path, workspace, capsys):
        # A 1e-12 deg grid used to die allocating petabytes.
        args = {
            "decode": ["--codec", str(workspace / "codec.json"), "--data", str(workspace / "enc.csv")],
            "eval": ["--map", str(workspace / "map.json"), "--data", str(workspace / "data.csv"),
                     "--spec", str(workspace / "joints.json")],
        }[command]
        _fails_with_one_line(
            [command, *args, "--grid", "1e-12", "--out", str(tmp_path / "out")],
            capsys, "joint 'shoulder_pitch': a grid step of 1e-12 degrees gives more than",
        )
        assert not (tmp_path / "out").exists()

    def test_overflowing_joint_range(self, tmp_path, workspace, capsys):
        # Used to encode every sample of the joint as 0 with the normalized family.
        doc = json.loads((workspace / "joints.json").read_text())
        doc["joints"][0].update(min_deg=-1e308, max_deg=1e308)
        bad = tmp_path / "joints.json"
        bad.write_text(json.dumps(doc))
        _fails_with_one_line([
            "encode", "--family", "normalized", "--data", str(workspace / "data.csv"),
            "--spec", str(bad), "--out", str(tmp_path / "enc.csv"),
        ], capsys, f"{bad}: joint 'shoulder_pitch': the range", "is not finite")
        assert not (tmp_path / "enc.csv").exists()

    # The ids are the cases' established names, in the messages' earlier wording.
    @pytest.mark.parametrize("value,got", [
        ("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("1e7", "10000000.0"), ("1e300", "1e+300"),
    ], ids=["inf-duration_s must be finite", "nan-duration_s must be finite", "0-duration_s must be positive",
            "1e7-duration_s must be at most", "1e300-duration_s must be at most"])
    def test_bad_babble_duration(self, value, got, tmp_path, capsys):
        _fails_with_one_line([
            "babble", "--duration", value, "--out", str(tmp_path / "data.csv"),
        ], capsys, "posturemap babble: duration_s must be a finite number > 0 and <= 7200 s "
                   f"(360000 samples at 50 Hz), got {got}\n")
        assert not (tmp_path / "data.csv").exists()

    def test_negative_babble_seed(self, tmp_path, capsys):
        # It used to end in numpy's "expected non-negative integer".
        _fails_with_one_line([
            "babble", "--seed", "-1", "--out", str(tmp_path / "data.csv"),
        ], capsys, "posturemap babble: seed must be an integer >= 0, got -1\n")
        assert not (tmp_path / "data.csv").exists()

    # The ids are the cases' established names, in the messages' earlier wording.
    @pytest.mark.parametrize("flags,problem", [
        (["--offset", "1e-9"], "exceed the limit"),
        (["--count", "1000000000"], "exceed the limit"),
        (["--offset", "1e308"], "overflow the float range"),
        (["--offset", "inf"], "n_or_offset must be a finite number, got inf"),
        (["--offset", "nan"], "n_or_offset must be a finite number, got nan"),
    ], ids=["flags0-exceed the limit", "flags1-exceed the limit", "flags2-overflow the float range",
            "flags3-n_or_offset must be finite", "flags4-n_or_offset must be finite"])
    def test_bad_codec_size(self, flags, problem, tmp_path, workspace, capsys):
        _fails_with_one_line([
            "encode", "--family", "sigmoid", *flags, "--data", str(workspace / "data.csv"),
            "--spec", str(workspace / "joints.json"), "--out", str(tmp_path / "enc.csv"),
        ], capsys, problem)
        assert not (tmp_path / "enc.csv").exists()

    def test_experiment_empty_lattice(self, tmp_path, capsys):
        _fails_with_one_line([
            "experiment", "--rows", "0", "--duration", "2", "--out", str(tmp_path / "never"),
        ], capsys, "rows must be an integer >= 1, got 0")
        assert not (tmp_path / "never").exists()

    def test_experiment_negative_seed(self, tmp_path, capsys):
        # It used to fail every cell and exit 0.
        _fails_with_one_line([
            "experiment", "--seeds=-1", "--duration", "2", "--out", str(tmp_path / "never"),
        ], capsys, "seeds must be a tuple of values, each an integer >= 0, got (-1,)")
        assert not (tmp_path / "never").exists()

    def test_experiment_process_died(self, tmp_path, capsys, monkeypatch):
        import posturemap.experiment as exp

        caller, real = os.getpid(), exp._run_cells

        def dying(*args):
            if os.getpid() != caller:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(exp, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(exp, "_run_cells", dying)
        _fails_with_one_line([
            "experiment", "--duration", "2", "--families", "normalized", "--seeds", "0,1",
            "--rows", "2", "--cols", "2", "--cycles", "1", "--out", str(tmp_path / "exp"),
        ], capsys, "a matrix process exited with code 3 before sending its cells")
        assert multiprocessing.active_children() == []

    def test_plot_curves_dof_out_of_range(self, tmp_path, capsys):
        _fails_with_one_line([
            "plot-curves", "--family", "gaussian", "--dof", "99", "--out", str(tmp_path / "c.svg"),
        ], capsys, "dof must lie in 0..12, got 99")

    @pytest.mark.parametrize("alpha", ["3.0", "-1.0"])
    def test_demo_alpha_out_of_range(self, alpha, tmp_path, capsys):
        _fails_with_one_line([
            "demo-inconsistency", "--family", "gaussian", "--alpha", alpha,
            "--out", str(tmp_path / "demo"),
        ], capsys, "alpha")
        assert not (tmp_path / "demo").exists()

    @pytest.mark.parametrize("argv, flag, kind", [
        (["experiment", "--rows", "x", "--duration", "2"], "--rows", "int"),
        (["experiment", "--counts", "5,x", "--duration", "2"], "--counts", "int"),
        (["demo-inconsistency", "--family", "gaussian", "--alpha", "x"], "--alpha", "float"),
    ], ids=["experiment-rows", "experiment-counts", "demo-alpha"])
    def test_unparsable_flag_value(self, argv, flag, kind, tmp_path, capsys):
        # One line naming the flag, not argparse's usage block and exit 2.
        out = tmp_path / "never"
        err = _fails_with_one_line(argv + ["--out", str(out)], capsys)
        assert err == f"posturemap {argv[0]}: argument {flag}: invalid {kind} value: 'x'\n"
        assert not out.exists()

    def test_demo_angle_out_of_range(self, tmp_path, capsys):
        _fails_with_one_line([
            "demo-inconsistency", "--family", "gaussian", "--angles", "99", "0",
            "--out", str(tmp_path / "demo"),
        ], capsys, "value 99 at column 0 outside range [-40, 30] of joint 'demo_joint'")
        assert not (tmp_path / "demo").exists()
