import re
import warnings

import numpy as np
import pytest

from posturemap.codec import CodecSpec, build_codec, encode, encode_dataset
from posturemap.dataset import Dataset, JointSpec
from posturemap.errors import DegenerateMapError
from posturemap.metrics import (
    decode_units,
    evaluate_map,
    neighbor_coherence,
    normalize_postures,
    quantization_error,
    quantization_error_angle,
    topographic_error,
)
from posturemap.som import SomMap, TrainConfig, bmu_indices, find_bmu, init_consistent, train

JOINTS = (JointSpec("a", -40.0, 30.0), JointSpec("b", 0.0, 90.0))


def encoded_postures(codec, postures):
    return np.stack([encode(codec, p) for p in postures])


class TestQuantizationError:
    def test_perfect_codebook_is_zero(self, rng):
        data = rng.uniform(0, 1, (4, 6))
        som = SomMap(2, 2, data.copy())
        assert quantization_error(som, data) == 0.0

    def test_single_unit_midpoint(self):
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 1.0])
        som = SomMap(1, 1, ((x + y) / 2)[None, :])
        qe = quantization_error(som, np.stack([x, y]))
        assert qe == pytest.approx(np.linalg.norm(x - y) / 2, rel=1e-12)

    def test_training_reduces_qe(self, babble_60s):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_60s.joints)
        enc = encode_dataset(codec, babble_60s)
        som = init_consistent(5, 5, codec, seed=3)
        trained, _ = train(som, enc, TrainConfig(cycles=6, seed=3))
        assert quantization_error(trained, enc) < quantization_error(som, enc)

    def test_lloyd_step_does_not_increase_qe(self, rng):
        data = rng.uniform(0, 1, (60, 4))
        som = SomMap(2, 2, rng.uniform(0, 1, (4, 4)))
        from posturemap.som import bmu_indices

        bmus = bmu_indices(som, data)
        new_w = som.weights.copy()
        for u in range(4):
            members = data[bmus == u]
            if len(members):
                new_w[u] = members.mean(axis=0)
        stepped = SomMap(2, 2, new_w)
        assert quantization_error(stepped, data) <= quantization_error(som, data) + 1e-12

    def test_empty_data(self):
        som = SomMap(1, 1, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            quantization_error(som, np.zeros((0, 2)))


class TestQeAngle:
    def test_equals_qe_encoded_for_normalized(self, babble_short):
        codec = build_codec(CodecSpec("normalized"), babble_short.joints)
        enc = encode_dataset(codec, babble_short)
        som = init_consistent(3, 3, codec, seed=1)
        trained, _ = train(som, enc, TrainConfig(cycles=1, seed=1))
        qe_enc = quantization_error(trained, enc)
        qe_ang = quantization_error_angle(trained, codec, babble_short, enc)
        assert qe_ang == qe_enc

    def test_zero_when_units_decode_to_samples(self):
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        postures = np.array([[-20.0, 10.0], [0.0, 45.0], [20.0, 80.0], [-35.0, 5.0]])
        ds = Dataset(joints=JOINTS, samples=postures)
        enc = encoded_postures(codec, postures)
        som = SomMap(2, 2, enc.copy(), codec=codec)
        assert quantization_error_angle(som, codec, ds, enc) == 0.0

    def test_small_when_population_units_match_samples(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), JOINTS)
        postures = np.array([[-20.0, 10.0], [0.0, 45.0], [20.0, 80.0], [-35.0, 5.0]])
        ds = Dataset(joints=JOINTS, samples=postures)
        enc = encoded_postures(codec, postures)
        som = SomMap(2, 2, enc.copy(), codec=codec)
        # Decoding is grid-quantized, so "exact" means within one grid step
        # per DoF after range normalization.
        assert quantization_error_angle(som, codec, ds, enc) < 0.01

    def test_undecodable_units_warned_and_excluded(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), JOINTS)
        postures = np.array([[-20.0, 10.0], [20.0, 80.0]])
        ds = Dataset(joints=JOINTS, samples=postures)
        enc = encoded_postures(codec, postures)
        weights = enc.copy()
        weights[1] = 0.0
        som = SomMap(1, 2, weights, codec=codec)
        with pytest.warns(UserWarning, match="undecodable"):
            qe = quantization_error_angle(som, codec, ds, enc)
        assert qe < 0.01


class TestTopographicError:
    def test_adjacent_top_two(self):
        som = SomMap(1, 2, np.array([[0.0, 0.0], [1.0, 1.0]]))
        data = np.array([[0.1, 0.1], [0.2, 0.2]])
        assert topographic_error(som, data) == 0.0

    def test_non_adjacent_top_two(self):
        # Middle unit far away: best and second-best are the two ends.
        som = SomMap(1, 3, np.array([[0.0], [10.0], [1.0]]))
        data = np.array([[0.4], [0.6]])
        assert topographic_error(som, data) == 1.0

    def test_mixed(self):
        som = SomMap(1, 3, np.array([[0.0], [10.0], [1.0]]))
        data = np.array([[0.4], [9.0]])
        assert topographic_error(som, data) == 0.5

    def test_too_small_map(self):
        som = SomMap(1, 1, np.zeros((1, 2)))
        with pytest.raises(DegenerateMapError):
            topographic_error(som, np.zeros((3, 2)))


class TestNeighborCoherence:
    def test_identical_units_degenerate(self):
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        som = SomMap(2, 2, np.full((4, 2), 0.5), codec=codec)
        with pytest.raises(DegenerateMapError):
            neighbor_coherence(som)

    def test_random_consistent_init_is_near_one(self):
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        ratios = []
        for seed in range(20):
            som = init_consistent(5, 5, codec, seed=seed)
            ratios.append(neighbor_coherence(som))
        assert 0.8 <= float(np.median(ratios)) <= 1.2

    def test_trained_map_below_one(self, babble_60s):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_60s.joints)
        enc = encode_dataset(codec, babble_60s)
        som = init_consistent(5, 5, codec, seed=0)
        trained, _ = train(som, enc, TrainConfig(cycles=6, seed=0))
        assert neighbor_coherence(trained) < 1.0

    def test_too_small_map(self):
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        som = SomMap(1, 1, np.full((1, 2), 0.5), codec=codec)
        with pytest.raises(DegenerateMapError):
            neighbor_coherence(som)


class TestDecodeUnits:
    def test_marks_bad_units(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), JOINTS)
        good = encode(codec, [-5.0, 45.0])
        weights = np.stack([good, np.zeros_like(good)])
        som = SomMap(1, 2, weights, codec=codec)
        angles, ok = decode_units(som)
        assert ok.tolist() == [True, False]
        assert np.isnan(angles[1]).all()
        np.testing.assert_allclose(angles[0], [-5.0, 45.0], atol=0.1)


class TestEvaluateMap:
    def test_report_fields_and_determinism(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), babble_short.joints)
        enc = encode_dataset(codec, babble_short)
        som = init_consistent(3, 3, codec, seed=2)
        trained, _ = train(som, enc, TrainConfig(cycles=2, seed=2))
        a = evaluate_map(trained, codec, babble_short, enc, cycles=2, seed=2)
        b = evaluate_map(trained, codec, babble_short, enc, cycles=2, seed=2)
        assert a == b
        assert a.qe_encoded > 0
        assert a.qe_encoded_per_sqrt_width == pytest.approx(a.qe_encoded / np.sqrt(65))
        assert 0.0 <= a.topographic_error <= 1.0
        assert a.family == "gaussian" and a.width == 65
        doc = a.to_json()
        assert doc["qe_angle"] == a.qe_angle

    def test_normalize_postures(self):
        norm = normalize_postures(np.array([[-40.0, 0.0], [30.0, 90.0]]), JOINTS)
        np.testing.assert_allclose(norm, [[0.0, 0.0], [1.0, 1.0]])


def scored_maps(babble_short):
    """A briefly trained 3x3 map of every family, plus a Gaussian map with
    two undecodable units, each with its codec and encoded dataset."""
    maps = []
    for family in ("normalized", "linear", "sigmoid", "gaussian"):
        spec = CodecSpec(family) if family == "normalized" else CodecSpec(family, "fixed_count", 5)
        codec = build_codec(spec, babble_short.joints)
        enc = encode_dataset(codec, babble_short)
        trained, _ = train(init_consistent(3, 3, codec, seed=4), enc, TrainConfig(cycles=1, seed=4))
        maps.append((trained, codec, enc))
    weights = trained.weights.copy()
    weights[[2, 6]] = 0.0
    maps.append((SomMap(3, 3, weights, codec=codec), codec, enc))
    return maps


class TestOneRanking:
    def test_report_equals_metric_functions(self, babble_short):
        n_bad = []
        for som, codec, enc in scored_maps(babble_short):
            with warnings.catch_warnings(record=True) as report_warnings:
                warnings.simplefilter("always")
                report = evaluate_map(som, codec, babble_short, enc)
            with warnings.catch_warnings(record=True) as metric_warnings:
                warnings.simplefilter("always")
                qe = quantization_error(som, enc)
                fields = {
                    "qe_encoded": qe,
                    "qe_encoded_per_sqrt_width": qe / np.sqrt(som.width),
                    "qe_angle": quantization_error_angle(som, codec, babble_short, enc),
                    "topographic_error": topographic_error(som, enc),
                    "neighbor_coherence_ratio": neighbor_coherence(som, codec),
                }
            for name, value in fields.items():
                assert getattr(report, name).hex() == float(value).hex(), name
            assert [str(w.message) for w in report_warnings] == [
                str(w.message) for w in metric_warnings
            ]
            # Each warning names the line that called the metric.
            assert {w.filename for w in report_warnings + metric_warnings} <= {__file__}
            n_bad.append(report.n_undecodable_units)
        assert n_bad == [0, 0, 0, 0, 2]
        assert [str(w.message) for w in report_warnings] == [
            "2 undecodable unit(s) excluded from qe_angle",
            "2 undecodable unit(s) excluded from neighbor coherence",
        ]

    @pytest.mark.filterwarnings("ignore:2 undecodable unit")
    def test_one_sq_distances_pass_per_map(self, babble_short, monkeypatch):
        import posturemap.metrics as metrics_mod
        import posturemap.som as som_mod

        calls = []
        original = som_mod.sq_distances

        def counting(weights, data):
            calls.append(data.shape)
            return original(weights, data)

        monkeypatch.setattr(som_mod, "sq_distances", counting)
        monkeypatch.setattr(metrics_mod, "sq_distances", counting)
        for som, codec, enc in scored_maps(babble_short):
            calls.clear()
            evaluate_map(som, codec, babble_short, enc)
            assert calls == [enc.shape]


def bad_encoded(enc, kind):
    bad = enc.copy()
    if kind == "nan":
        bad[2, 1] = np.nan
    elif kind == "inf":
        bad[3, 0] = -np.inf
    elif kind == "wide":
        bad = np.hstack([enc, enc[:, :1]])
    elif kind == "empty":
        bad = enc[:0]
    elif kind == "flat":
        bad = enc[0]
    return bad


PROBLEMS = {
    "nan": "data row 2 contains NaN or infinite values",
    "inf": "data row 3 contains NaN or infinite values",
    "wide": "data width 66 does not match map width 65",
    "empty": "non-empty T x width matrix, got shape (0, 65)",
    "flat": "non-empty T x width matrix, got shape (65,)",
}


def metric_calls(som, codec, dataset, encoded):
    return {
        "evaluate_map": lambda: evaluate_map(som, codec, dataset, encoded),
        "quantization_error": lambda: quantization_error(som, encoded),
        "quantization_error_angle": lambda: quantization_error_angle(som, codec, dataset, encoded),
        "topographic_error": lambda: topographic_error(som, encoded),
        "bmu_indices": lambda: bmu_indices(som, encoded),
    }


class TestEncodedChecks:
    @pytest.fixture(scope="class")
    def scored(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), babble_short.joints)
        enc = encode_dataset(codec, babble_short)
        return init_consistent(3, 3, codec, seed=1), codec, enc

    @pytest.mark.parametrize("kind", list(PROBLEMS))
    @pytest.mark.parametrize("metric", [
        "evaluate_map", "quantization_error", "quantization_error_angle",
        "topographic_error", "bmu_indices",
    ])
    def test_bad_encoded_rejected(self, scored, babble_short, metric, kind):
        som, codec, enc = scored
        call = metric_calls(som, codec, babble_short, bad_encoded(enc, kind))[metric]
        with pytest.raises(ValueError, match=re.escape(PROBLEMS[kind])):
            call()

    @pytest.mark.parametrize("metric", ["evaluate_map", "quantization_error_angle"])
    def test_short_encoded_rejected(self, scored, babble_short, metric):
        # Only these two score against the dataset's postures, row by row.
        som, codec, enc = scored
        call = metric_calls(som, codec, babble_short, enc[:-7])[metric]
        problem = f"encoded has {enc.shape[0] - 7} rows for {enc.shape[0]} samples"
        with pytest.raises(ValueError, match=re.escape(problem)):
            call()

    def test_find_bmu_rejects_nan(self):
        som = SomMap(1, 2, np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            find_bmu(som, [np.nan, 0.5])
