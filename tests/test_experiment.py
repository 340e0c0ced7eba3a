import csv
import json
import xml.etree.ElementTree as ET

import pytest

from posturemap.experiment import (
    CellResult,
    ExperimentConfig,
    demo_inconsistency,
    load_or_generate,
    median_qe_angle,
    run_cell,
    run_experiment,
)


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

    def test_counts_floor(self):
        with pytest.raises(ValueError):
            ExperimentConfig(counts=(1,))

    def test_csv_needs_sidecar(self):
        with pytest.raises(ValueError):
            ExperimentConfig(data_csv="x.csv")

    @pytest.mark.parametrize("field", ["rows", "cols", "cycles"])
    def test_lattice_and_cycles_at_least_one(self, field):
        # Rejected before any babble is generated or any cell is trained.
        with pytest.raises(ValueError, match="need rows, cols, cycles >= 1"):
            ExperimentConfig(**{field: 0})


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

    def test_single_cell_reproduces_matrix_entry(self, tmp_path, tiny_cfg_kwargs):
        from posturemap.codec import CodecSpec, build_codec, encode_dataset

        cfg = ExperimentConfig(out_dir=str(tmp_path / "out"), **tiny_cfg_kwargs)
        results = run_experiment(cfg)
        ds = load_or_generate(cfg)
        # The matrix trains a group's seeds in lockstep; the single-cell
        # path trains each seed alone and must reproduce every cell exactly.
        for cell in results:
            spec = CodecSpec(cell.family) if cell.count is None else \
                CodecSpec(cell.family, "fixed_count", cell.count)
            codec = build_codec(spec, ds.joints)
            enc = encode_dataset(codec, ds)
            report = run_cell(ds, codec, enc, cfg, cell.count, cell.seed)
            assert report == cell.report

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

    def test_out_of_range_angles(self):
        with pytest.raises(ValueError):
            demo_inconsistency("gaussian", -50.0, 10.0)

    @pytest.mark.parametrize("alpha", [3.0, -1.0, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha, tmp_path):
        with pytest.raises(ValueError, match="alpha"):
            demo_inconsistency("gaussian", -20.0, 10.0, out_dir=tmp_path, alpha=alpha)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_bounds_accepted(self, alpha):
        report = demo_inconsistency("gaussian", -20.0, 10.0, alpha=alpha)
        assert report["alpha"] == alpha

    @pytest.mark.parametrize("family", ["linear", "sigmoid"])
    def test_other_population_families_drift(self, family):
        report = demo_inconsistency(family, -20.0, 10.0)
        assert report["manifold_drift"] > 1e-3
