import csv
import json
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posturemap.decode as decode_mod
from posturemap.codec import FAMILIES, CodecSpec, build_codec, encode_dataset
from posturemap.errors import OutOfRangeError
from posturemap.experiment import (
    CellResult,
    ExperimentConfig,
    _cell_map,
    demo_inconsistency,
    load_or_generate,
    median_qe_angle,
    run_experiment,
)
from posturemap.metrics import evaluate_map
from posturemap.som import train


@pytest.fixture(scope="module")
def tiny_cfg_kwargs():
    return dict(
        babble_seed=3,
        duration_s=4.0,
        families=("normalized", "gaussian"),
        counts=(5,),
        rows=3,
        cols=3,
        cycles=2,
        seeds=(0, 1),
    )


class TestConfig:
    def test_requires_families_and_seeds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(families=())
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())

    @pytest.mark.parametrize("field,values", [
        ("families", ("gaussian", "linear", "gaussian")),
        ("counts", (5, 10, 5)),
        ("counts", ()),
        ("seeds", (0, 0, 1)),
    ])
    def test_repeated_or_empty_rejected(self, field, values, tmp_path):
        # A repeated seed used to run its cell twice under one label, and
        # no counts ran no population-family cell at all.
        with pytest.raises(ValueError, match=f"{field} must be non-empty without repeats"):
            ExperimentConfig(out_dir=str(tmp_path / "out"),
                             **{"families": ("gaussian", "linear"), field: values})
        assert not (tmp_path / "out").exists()

    def test_counts_floor(self):
        with pytest.raises(ValueError):
            ExperimentConfig(counts=(1,))

    def test_csv_needs_sidecar(self):
        with pytest.raises(ValueError):
            ExperimentConfig(data_csv="x.csv")

    @pytest.mark.parametrize("field", ["rows", "cols", "cycles"])
    def test_lattice_and_cycles_at_least_one(self, field):
        # Rejected before any babble is generated or any cell is trained.
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**{field: 0})
        assert str(info.value) == f"{field} must be an integer >= 1, got 0"

    # The ids are the cases' established names, in the messages' earlier wording.
    @pytest.mark.parametrize("field,value,problem", [
        ("seeds", ("a",), "seeds must be a tuple of values, each an integer >= 0, got ('a',)"),
        ("seeds", (True,), "seeds must be a tuple of values, each an integer >= 0, got (True,)"),
        ("seeds", (0, 1.0), "seeds must be a tuple of values, each an integer >= 0, got (0, 1.0)"),
        ("seeds", (-1,), "seeds must be a tuple of values, each an integer >= 0, got (-1,)"),
        ("babble_seed", "7", "babble_seed must be an integer >= 0, got '7'"),
        ("babble_seed", -1, "babble_seed must be an integer >= 0, got -1"),
        ("counts", ("a",), "counts must be a tuple of values, each an integer >= 2, got ('a',)"),
        ("counts", (5.0,), "counts must be a tuple of values, each an integer >= 2, got (5.0,)"),
        ("rows", 2.5, "rows must be an integer >= 1, got 2.5"),
        ("cols", True, "cols must be an integer >= 1, got True"),
        ("cycles", "6", "cycles must be an integer >= 1, got '6'"),
        ("duration_s", "x",
         "duration_s must be a finite number > 0 and <= 7200 s (360000 samples at 50 Hz), got 'x'"),
        ("duration_s", False,
         "duration_s must be a finite number > 0 and <= 7200 s (360000 samples at 50 Hz), got False"),
    ], ids=[
        "seeds-value0-seeds must be integers, got ['a']",
        "seeds-value1-seeds must be integers, got [True]",
        "seeds-value2-seeds must be integers, got [0, 1.0]",
        "seeds-value3-seeds must be >= 0, got [-1]",
        "babble_seed-7-babble_seed must be an integer, got '7'",
        "babble_seed--1-babble_seed must be >= 0, got -1",
        "counts-value6-counts must be integers, got ['a']",
        "counts-value7-counts must be integers, got [5.0]",
        "rows-2.5-rows must be an integer, got 2.5",
        "cols-True-cols must be an integer, got True",
        "cycles-6-cycles must be an integer, got '6'",
        "duration_s-x-duration_s must be a number, got 'x'",
        "duration_s-False-duration_s must be a number, got False",
    ])
    def test_entry_types_rejected(self, field, value, problem):
        # A string or negative seed used to fail every cell and exit 0; a
        # string count or duration ended in a TypeError.
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**{field: value})
        assert str(info.value) == problem

    @pytest.mark.parametrize("field,value", [
        ("shuffle", "false"), ("shuffle", 0), ("strict", "no"), ("strict", None),
    ])
    def test_flags_must_be_bools(self, field, value):
        # A string flag used to be truthy: "false" shuffled and "no" ran strict.
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**{field: value})
        assert str(info.value) == f"{field} must be true or false, got {value!r}"

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(seeds=(np.int64(0), 1), counts=(np.int32(5),), rows=np.int64(2))
        assert cfg.seeds == (0, 1)


def _report_alone(cfg, dataset, family, count, seed):
    """Train one cell's map by itself and score it, as the matrix must."""
    spec = CodecSpec(family) if count is None else CodecSpec(family, "fixed_count", count)
    codec = build_codec(spec, dataset.joints)
    encoded = encode_dataset(codec, dataset)
    som, train_cfg = _cell_map(codec, cfg, count, seed)
    trained, _ = train(som, encoded, train_cfg)
    return evaluate_map(trained, codec, dataset, encoded, cfg.kde, cycles=cfg.cycles, seed=seed)


class TestRunExperiment:
    def test_matrix_shape_and_artifacts(self, tmp_path, tiny_cfg_kwargs):
        cfg = ExperimentConfig(out_dir=str(tmp_path / "out"), **tiny_cfg_kwargs)
        results = run_experiment(cfg)
        # normalized x 2 seeds + gaussian x 1 count x 2 seeds
        assert len(results) == 4
        assert all(c.error is None for c in results)
        out = tmp_path / "out"
        assert (out / "normalized_seed0.json").exists()
        assert (out / "gaussian_n5_seed1.json").exists()
        with (out / "aggregate.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4
        ET.parse(out / "qe_bars.svg")

    def test_deterministic_aggregate(self, tmp_path, tiny_cfg_kwargs):
        cfg_a = ExperimentConfig(out_dir=str(tmp_path / "a"), **tiny_cfg_kwargs)
        cfg_b = ExperimentConfig(out_dir=str(tmp_path / "b"), **tiny_cfg_kwargs)
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() == \
            (tmp_path / "b" / "aggregate.csv").read_bytes()

    @settings(max_examples=15, deadline=None)
    @given(
        kwargs=st.fixed_dictionaries({
            "babble_seed": st.integers(0, 1000),
            "duration_s": st.integers(2, 4).map(float),
            "families": st.lists(st.sampled_from(FAMILIES), min_size=1, unique=True).map(tuple),
            "counts": st.lists(st.integers(2, 3), min_size=1, unique=True).map(tuple),
            "seeds": st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True).map(tuple),
            "rows": st.integers(1, 3),
            "cols": st.integers(2, 3),
            "cycles": st.integers(1, 2),
        })
    )
    def test_outputs_repeat_and_each_family_runs_alone(self, kwargs):
        """Two runs of one config write byte-identical directories, each
        family's cell files equal those of a run of that family alone, and
        each cell file is the report of its map trained alone."""
        with tempfile.TemporaryDirectory() as tmp:
            def files(name, **changes):
                out = Path(tmp) / name
                run_experiment(ExperimentConfig(out_dir=str(out), **{**kwargs, **changes}))
                return {f.name: f.read_bytes() for f in out.iterdir()}

            first = files("first")
            assert files("second") == first
            for family in kwargs["families"]:
                alone = files(family, families=(family,))
                assert {k: v for k, v in alone.items() if k.startswith(f"{family}_")} == {
                    k: v for k, v in first.items() if k.startswith(f"{family}_")
                }

            # The matrix trains a group's seeds in lockstep; training each
            # cell's map alone must give its file exactly, or no file where
            # scoring fails.
            cfg = ExperimentConfig(**kwargs)
            dataset = load_or_generate(cfg)
            for family in cfg.families:
                for count in (None,) if family == "normalized" else cfg.counts:
                    for seed in cfg.seeds:
                        try:
                            report = _report_alone(cfg, dataset, family, count, seed)
                            expected = (json.dumps(report.to_json(), indent=2) + "\n").encode()
                        except ValueError:
                            expected = None
                        assert first.get(f"{CellResult(family, count, seed).label}.json") == expected

    def test_single_cell_reproduces_matrix_entry(self, tmp_path, tiny_cfg_kwargs):
        cfg = ExperimentConfig(out_dir=str(tmp_path / "out"), **tiny_cfg_kwargs)
        results = run_experiment(cfg)
        dataset = load_or_generate(cfg)
        assert all(cell.error is None for cell in results)
        for cell in results:
            assert _report_alone(cfg, dataset, cell.family, cell.count, cell.seed) == cell.report

    def test_numpy_integer_config_writes_same_bytes(self, tmp_path, tiny_cfg_kwargs):
        # Numpy integers used to train every group, then fail at the first
        # cell JSON: "Object of type int64 is not JSON serializable".
        as_numpy = {
            **tiny_cfg_kwargs,
            **{k: np.int64(tiny_cfg_kwargs[k]) for k in ("babble_seed", "rows", "cols", "cycles")},
            **{k: tuple(map(np.int64, tiny_cfg_kwargs[k])) for k in ("counts", "seeds")},
        }

        def files(name, kwargs):
            run_experiment(ExperimentConfig(out_dir=tmp_path / name, **kwargs))
            return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

        assert files("numpy", as_numpy) == files("python", tiny_cfg_kwargs)

    def test_normalized_only_matrix(self, tmp_path):
        cfg = ExperimentConfig(
            out_dir=str(tmp_path / "out"), babble_seed=3, duration_s=4.0,
            families=("normalized",), rows=3, cols=3, cycles=1, seeds=(0,),
        )
        results = run_experiment(cfg)
        assert len(results) == 1
        assert results[0].count is None

    def test_cell_failure_recorded_not_fatal(self, tmp_path, tiny_cfg_kwargs, monkeypatch):
        import posturemap.experiment as exp

        real = exp.evaluate_map

        def flaky(som, codec, dataset, encoded, cfg=None, cycles=0, seed=0):
            if codec.family == "gaussian" and seed == 1:
                raise RuntimeError("injected")
            return real(som, codec, dataset, encoded, cfg, cycles=cycles, seed=seed)

        monkeypatch.setattr(exp, "evaluate_map", flaky)
        cfg = ExperimentConfig(out_dir=str(tmp_path / "out"), **tiny_cfg_kwargs)
        results = exp.run_experiment(cfg)
        failed = [c for c in results if c.error is not None]
        assert len(failed) == 1
        assert "injected" in failed[0].error
        assert len(results) == 4

    def test_group_training_failure_fails_its_seeds_only(
        self, tmp_path, tiny_cfg_kwargs, monkeypatch
    ):
        import posturemap.experiment as exp

        real = exp.train_group

        def flaky(soms, data, cfgs):
            if soms[0].codec.family == "gaussian":
                raise RuntimeError("injected")
            return real(soms, data, cfgs)

        monkeypatch.setattr(exp, "train_group", flaky)
        cfg = ExperimentConfig(out_dir=str(tmp_path / "out"), **tiny_cfg_kwargs)
        results = exp.run_experiment(cfg)
        assert len(results) == 4
        failed = [c for c in results if c.error is not None]
        assert [(c.family, c.seed) for c in failed] == [("gaussian", 0), ("gaussian", 1)]
        assert all("injected" in c.error for c in failed)
        assert all(c.report is not None for c in results if c.family == "normalized")
        with (tmp_path / "out" / "aggregate.csv").open() as fh:
            assert len(list(csv.reader(fh))) == 1 + 2

    def test_median_helper(self):
        cells = [
            CellResult("gaussian", 5, 0, report=_FakeReport(0.2)),
            CellResult("gaussian", 5, 1, report=_FakeReport(0.4)),
            CellResult("gaussian", 5, 2, report=None, error="boom"),
        ]
        med = median_qe_angle(cells)
        assert med[("gaussian", 5)] == pytest.approx(0.3)


class _FakeReport:
    def __init__(self, qe_angle):
        self.qe_angle = qe_angle


class TestDemoInconsistency:
    def test_gaussian_drifts(self, tmp_path):
        report = demo_inconsistency("gaussian", -20.0, 10.0, out_dir=tmp_path)
        assert report["manifold_drift"] > 1e-3
        assert (tmp_path / "inconsistency_gaussian.svg").exists()
        saved = json.loads((tmp_path / "inconsistency_gaussian.json").read_text())
        assert saved["manifold_drift"] == report["manifold_drift"]
        ET.parse(tmp_path / "inconsistency_gaussian.svg")

    def test_normalized_stays_consistent(self):
        report = demo_inconsistency("normalized", -20.0, 10.0)
        assert report["manifold_drift"] < 1e-9

    def test_identical_angles_no_drift(self):
        report = demo_inconsistency("gaussian", 10.0, 10.0)
        assert report["manifold_drift"] < 1e-9

    def test_out_of_range_angles(self, tmp_path):
        # encode rejects either angle, NaN too, before anything is written.
        for family in ("normalized", "linear", "sigmoid", "gaussian"):
            for angles, value in (((-50.0, 10.0), "-50"), ((-20.0, 99.0), "99"), ((np.nan, 10.0), "nan")):
                with pytest.raises(OutOfRangeError) as info:
                    demo_inconsistency(family, *angles, out_dir=tmp_path)
                assert str(info.value) == (
                    f"value {value} at column 0 outside range [-40, 30] of joint 'demo_joint'"
                )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha", [3.0, -1.0, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha, tmp_path):
        with pytest.raises(ValueError, match="alpha"):
            demo_inconsistency("gaussian", -20.0, 10.0, out_dir=tmp_path, alpha=alpha)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_bounds_accepted(self, alpha):
        report = demo_inconsistency("gaussian", -20.0, 10.0, alpha=alpha)
        assert report["alpha"] == alpha

    @pytest.mark.parametrize("family", ["normalized", "linear", "sigmoid", "gaussian"])
    def test_report_decodes_as_figure(self, family, tmp_path):
        report = demo_inconsistency(family, -20.0, 10.0, out_dir=tmp_path)
        titles = [t.text for t in ET.parse(tmp_path / f"inconsistency_{family}.svg").iter()
                  if t.text and "decodes to" in t.text]
        assert titles == [f"after update (alpha=0.5), decodes to {report['decoded_after_update']:g} deg"]

    @pytest.mark.parametrize("family", ["linear", "sigmoid"])
    def test_other_population_families_drift(self, family):
        report = demo_inconsistency(family, -20.0, 10.0)
        assert report["manifold_drift"] > 1e-3

    @pytest.mark.parametrize("family", ["normalized", "linear", "sigmoid", "gaussian"])
    def test_decodes_once(self, family, tmp_path, monkeypatch):
        # The report and the figure share one decode of the updated weight:
        # one decode_matrix call, and no other decode of its one DoF.
        calls = {"decode_matrix": 0, "_decode_dof": 0}
        for name in calls:
            original = getattr(decode_mod, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in [m for n, m in sys.modules.items() if n.startswith("posturemap")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        demo_inconsistency(family, -20.0, 10.0, out_dir=tmp_path)
        assert calls == {"decode_matrix": 1, "_decode_dof": 1}
