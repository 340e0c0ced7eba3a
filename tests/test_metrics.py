import re

import numpy as np
import pytest

from posturemap.codec import CodecSpec, build_codec, encode, encode_dataset
from posturemap.dataset import Dataset, JointSpec
from posturemap.errors import DegenerateMapError
from posturemap.metrics import (
    _neighbor_coherence,
    _normalized_unit_postures,
    _topographic_error,
    decode_units,
    evaluate_map,
    normalize_postures,
)
from posturemap.som import SomMap, TrainConfig, init_consistent, mean_bmu_distance, sq_distances, train

JOINTS = (JointSpec("a", -40.0, 30.0), JointSpec("b", 0.0, 90.0))
POSTURES = np.array([[-20.0, 10.0], [0.0, 45.0], [20.0, 80.0], [-35.0, 5.0]])


def encoded_postures(codec, postures):
    return np.stack([encode(codec, p) for p in postures])


def report(som, codec, postures=POSTURES):
    """``evaluate_map`` of ``som`` on a dataset of ``postures`` of ``codec``'s joints."""
    ds = Dataset(joints=codec.joints, samples=postures)
    return evaluate_map(som, codec, ds, encoded_postures(codec, postures))


class TestQuantizationError:
    def test_perfect_codebook_is_zero(self, rng):
        data = rng.uniform(0, 1, (4, 6))
        som = SomMap(2, 2, data.copy())
        assert mean_bmu_distance(som.weights, data) == 0.0

    def test_single_unit_midpoint(self):
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 1.0])
        som = SomMap(1, 1, ((x + y) / 2)[None, :])
        qe = mean_bmu_distance(som.weights, np.stack([x, y]))
        assert qe == pytest.approx(np.linalg.norm(x - y) / 2, rel=1e-12)

    def test_training_reduces_qe(self, babble_60s):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_60s.joints)
        enc = encode_dataset(codec, babble_60s)
        som = init_consistent(5, 5, codec, seed=3)
        trained, _ = train(som, enc, TrainConfig(cycles=6, seed=3))
        after = evaluate_map(trained, codec, babble_60s, enc).qe_encoded
        assert after < evaluate_map(som, codec, babble_60s, enc).qe_encoded

    def test_lloyd_step_does_not_increase_qe(self, rng):
        data = rng.uniform(0, 1, (60, 4))
        som = SomMap(2, 2, rng.uniform(0, 1, (4, 4)))
        bmus = np.argmin(sq_distances(som.weights, data), axis=1)
        new_w = som.weights.copy()
        for u in range(4):
            members = data[bmus == u]
            if len(members):
                new_w[u] = members.mean(axis=0)
        assert mean_bmu_distance(new_w, data) <= mean_bmu_distance(som.weights, data) + 1e-12

    def test_empty_data(self):
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        som = SomMap(1, 2, np.zeros((2, 2)), codec=codec)
        ds = Dataset(joints=JOINTS, samples=POSTURES)
        with pytest.raises(ValueError):
            evaluate_map(som, codec, ds, np.zeros((0, 2)))


class TestQeAngle:
    def test_equals_qe_encoded_for_normalized(self, babble_short):
        codec = build_codec(CodecSpec("normalized"), babble_short.joints)
        enc = encode_dataset(codec, babble_short)
        som = init_consistent(3, 3, codec, seed=1)
        trained, _ = train(som, enc, TrainConfig(cycles=1, seed=1))
        scores = evaluate_map(trained, codec, babble_short, enc)
        assert scores.qe_angle == scores.qe_encoded

    def test_zero_when_units_decode_to_samples(self):
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        som = SomMap(2, 2, encoded_postures(codec, POSTURES), codec=codec)
        assert report(som, codec).qe_angle == 0.0

    def test_small_when_population_units_match_samples(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), JOINTS)
        som = SomMap(2, 2, encoded_postures(codec, POSTURES), codec=codec)
        # Decoding is grid-quantized, so "exact" means within one grid step
        # per DoF after range normalization.
        assert report(som, codec).qe_angle < 0.01

    def test_undecodable_units_excluded(self):
        # The all-zero third unit decodes to no posture: it is counted, and
        # the second sample, whose BMU it is, drops out of qe_angle, which
        # the other two samples score exactly.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), JOINTS)
        postures = POSTURES[:3]
        enc = encoded_postures(codec, postures)
        som = SomMap(1, 3, np.vstack([enc[0], enc[2], np.zeros(codec.width)]), codec=codec)
        assert np.argmin(sq_distances(som.weights, enc), axis=1).tolist() == [0, 2, 1]
        scores = report(som, codec, postures)
        assert scores.n_undecodable_units == 1
        assert scores.qe_angle < 0.01


class TestTopographicError:
    # Maps without a codec: score the private step on one sq_distances pass.
    def test_adjacent_top_two(self):
        som = SomMap(1, 2, np.array([[0.0, 0.0], [1.0, 1.0]]))
        data = np.array([[0.1, 0.1], [0.2, 0.2]])
        assert _topographic_error(som, sq_distances(som.weights, data)) == 0.0

    def test_non_adjacent_top_two(self):
        # Middle unit far away: best and second-best are the two ends.
        som = SomMap(1, 3, np.array([[0.0], [10.0], [1.0]]))
        data = np.array([[0.4], [0.6]])
        assert _topographic_error(som, sq_distances(som.weights, data)) == 1.0

    def test_mixed(self):
        som = SomMap(1, 3, np.array([[0.0], [10.0], [1.0]]))
        data = np.array([[0.4], [9.0]])
        assert _topographic_error(som, sq_distances(som.weights, data)) == 0.5

    def test_too_small_map(self):
        som = SomMap(1, 1, np.zeros((1, 2)))
        with pytest.raises(DegenerateMapError):
            _topographic_error(som, sq_distances(som.weights, np.zeros((3, 2))))


class TestNeighborCoherence:
    def test_identical_units_degenerate(self):
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        som = SomMap(2, 2, np.full((4, 2), 0.5), codec=codec)
        with pytest.raises(DegenerateMapError, match="same posture"):
            report(som, codec)

    def test_random_consistent_init_is_near_one(self):
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        ratios = []
        for seed in range(20):
            som = init_consistent(5, 5, codec, seed=seed)
            ratios.append(report(som, codec).neighbor_coherence_ratio)
        assert 0.8 <= float(np.median(ratios)) <= 1.2

    def test_trained_map_below_one(self, babble_60s):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_60s.joints)
        enc = encode_dataset(codec, babble_60s)
        som = init_consistent(5, 5, codec, seed=0)
        trained, _ = train(som, enc, TrainConfig(cycles=6, seed=0))
        assert evaluate_map(trained, codec, babble_60s, enc).neighbor_coherence_ratio < 1.0

    def test_too_small_map(self):
        # evaluate_map would stop at topographic error first.
        codec = build_codec(CodecSpec("normalized"), JOINTS)
        som = SomMap(1, 1, np.full((1, 2), 0.5), codec=codec)
        with pytest.raises(DegenerateMapError):
            _neighbor_coherence(som, *_normalized_unit_postures(som, None))


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

    def test_codec_must_be_the_maps_own(self, babble_short):
        codec, other = (build_codec(CodecSpec("gaussian", "fixed_count", n), babble_short.joints)
                        for n in (5, 10))
        som = init_consistent(2, 2, codec, seed=0)
        enc = encode_dataset(codec, babble_short)
        with pytest.raises(ValueError, match="codec must be som.codec and not None"):
            evaluate_map(som, other, babble_short, enc)
        with pytest.raises(ValueError, match="codec must be som.codec and not None"):
            evaluate_map(SomMap(2, 2, som.weights), None, babble_short, enc)

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
    entry: {
        "nan": f"{name} must be finite, got nan at (2, 1)",
        "inf": f"{name} must be finite, got -inf at (3, 0)",
        "wide": f"{name} must be a (n, 65) array, got shape (250, 66)",
        "empty": f"{name} must be non-empty, got shape (0, 65)",
        "flat": f"{name} must be a (n, 65) array, got shape (65,)",
    }
    for entry, name in [("evaluate_map", "encoded"), ("train", "data")]
}


class TestEncodedChecks:
    """``check_encoded`` is the one check of an encoded matrix, for scoring
    and for training alike."""

    @pytest.fixture(scope="class")
    def scored(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), babble_short.joints)
        enc = encode_dataset(codec, babble_short)
        return init_consistent(3, 3, codec, seed=1), codec, enc

    @pytest.mark.parametrize("kind", list(PROBLEMS["train"]))
    @pytest.mark.parametrize("entry", list(PROBLEMS))
    def test_bad_encoded_rejected(self, scored, babble_short, entry, kind):
        som, codec, enc = scored
        bad = bad_encoded(enc, kind)
        call = {
            "evaluate_map": lambda: evaluate_map(som, codec, babble_short, bad),
            "train": lambda: train(som, bad, TrainConfig(cycles=1)),
        }[entry]
        with pytest.raises(ValueError, match=re.escape(PROBLEMS[entry][kind])):
            call()

    def test_short_encoded_rejected(self, scored, babble_short):
        # Scoring reads the dataset's postures row by row.
        som, codec, enc = scored
        problem = f"encoded has {enc.shape[0] - 7} rows for {enc.shape[0]} samples"
        with pytest.raises(ValueError, match=re.escape(problem)):
            evaluate_map(som, codec, babble_short, enc[:-7])
