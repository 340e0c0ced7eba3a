import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posturemap import som as som_module
from posturemap.codec import SETUPS, CodecSpec, build_codec, encode, encode_dataset
from posturemap.dataset import JointSpec
from posturemap.decode import decode_matrix
from posturemap.errors import DatasetFormatError
from posturemap.som import (
    SomMap,
    TrainConfig,
    data_ranges,
    init_consistent,
    init_naive,
    load_map,
    manifold_distance,
    map_from_json,
    map_to_json,
    mean_bmu_distance,
    save_map,
    sq_distances,
    train,
    train_group,
)
from test_codec import codecs

RANGE_JOINT = (JointSpec("j", -40.0, 30.0),)


def gaussian_codec(joints=RANGE_JOINT, n=10):
    return build_codec(CodecSpec("gaussian", "fixed_count", n), joints)


class TestSomMap:
    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            SomMap(0, 5, np.zeros((0, 3)))

    def test_weight_count_validation(self):
        with pytest.raises(ValueError):
            SomMap(2, 2, np.zeros((3, 4)))

    def test_codec_width_validation(self):
        with pytest.raises(ValueError):
            SomMap(1, 1, np.zeros((1, 7)), codec=gaussian_codec())

    @pytest.mark.parametrize("weights", [
        np.zeros(4), np.zeros((4, 3, 1)), np.zeros((4, 0)), np.zeros(()),
    ], ids=["flat", "3-d", "zero-width", "scalar"])
    def test_weights_must_be_a_matrix(self, weights):
        # A flat weight list used to pass here and fail later, on ``width``,
        # with an IndexError that map readers did not catch.
        with pytest.raises(ValueError) as info:
            SomMap(2, 2, weights)
        assert str(info.value) == (
            "weights must be non-empty, got shape (4, 0)" if weights.shape == (4, 0)
            else f"weights must be a (4, m) array, got shape {weights.shape}")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        weights = np.full((4, 3), 0.5)
        weights[2, 1] = bad
        with pytest.raises(ValueError, match=rf"weights must be finite, got {bad} at \(2, 1\)"):
            SomMap(2, 2, weights)

    def test_unit_coords_row_major(self):
        som = SomMap(2, 3, np.zeros((6, 2)))
        np.testing.assert_array_equal(
            som.unit_coords(),
            [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
        )


class TestInitConsistent:
    def test_single_unit_decodes_to_seeded_posture(self):
        codec = gaussian_codec()
        som = init_consistent(1, 1, codec, seed=3)
        rng = np.random.default_rng(3)
        posture = rng.uniform(-40.0, 30.0, 1)
        decoded = decode_matrix(codec, som.weights)[0]
        np.testing.assert_allclose(decoded, posture, atol=0.1)

    def test_deterministic(self):
        codec = gaussian_codec()
        a = init_consistent(3, 3, codec, seed=11)
        b = init_consistent(3, 3, codec, seed=11)
        assert np.array_equal(a.weights, b.weights)

    def test_5x5_units_decode_in_range(self, babble_60s):
        codec = gaussian_codec(babble_60s.joints)
        som = init_consistent(5, 5, codec, seed=0)
        assert som.n_units == 25
        lo = np.array([j.min_deg for j in codec.joints])
        hi = np.array([j.max_deg for j in codec.joints])
        decoded = decode_matrix(codec, som.weights)
        assert np.all(decoded >= lo - 1e-9) and np.all(decoded <= hi + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        codec=codecs(),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_unit_loop(self, codec, shape, seed):
        # The loop one batched draw and encode replaced, bit for bit: one
        # posture drawn and encoded per unit, in row-major unit order.
        rows, cols = shape
        rng = np.random.default_rng(seed)
        lo = np.array([j.min_deg for j in codec.joints])
        hi = np.array([j.max_deg for j in codec.joints])
        expected = np.stack([encode(codec, rng.uniform(lo, hi)) for _ in range(rows * cols)])
        som = init_consistent(rows, cols, codec, seed=seed)
        assert som.weights.tobytes() == expected.tobytes()


class TestInitNaive:
    def test_off_manifold_for_population_codes(self):
        codec = gaussian_codec()
        ranges = np.tile([[0.0, 1.0]], (codec.width, 1))
        n_off = 0
        total = 0
        for seed in range(100):
            som = init_naive(3, 3, ranges, seed=seed, codec=codec)
            dists = manifold_distance(som)
            n_off += int((dists > 1e-3).sum())
            total += som.n_units
        assert n_off / total >= 0.95

    def test_scalar_codes_always_consistent(self):
        codec = build_codec(CodecSpec("normalized"), RANGE_JOINT)
        ranges = np.array([[0.0, 1.0]])
        for seed in range(20):
            som = init_naive(2, 2, ranges, seed=seed, codec=codec)
            assert manifold_distance(som).max() < 1e-12

    def test_deterministic(self):
        ranges = np.tile([[0.0, 1.0]], (5, 1))
        a = init_naive(2, 2, ranges, seed=9)
        b = init_naive(2, 2, ranges, seed=9)
        assert np.array_equal(a.weights, b.weights)

    def test_respects_observed_ranges(self, rng):
        data = rng.uniform(0.2, 0.4, size=(50, 6))
        ranges = data_ranges(data)
        som = init_naive(4, 4, ranges, seed=1)
        assert np.all(som.weights >= ranges[:, 0]) and np.all(som.weights <= ranges[:, 1])

    def test_bad_ranges_shape(self):
        with pytest.raises(ValueError):
            init_naive(2, 2, np.zeros((4, 3)), seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ranges_rejected(self, bad):
        # These used to raise numpy's OverflowError, which is no ValueError.
        ranges = np.tile([[0.0, 1.0]], (3, 1))
        ranges[1, 0] = bad
        with pytest.raises(ValueError, match=rf"^input_ranges must be finite, got {bad} at \(1, 0\)$"):
            init_naive(2, 2, ranges, seed=0)

    def test_reversed_range_rejected(self):
        # This used to raise numpy's "high - low < 0".
        ranges = np.array([[0.0, 1.0], [0.5, 0.25]])
        with pytest.raises(ValueError, match=r"^input_ranges must be \[min, max\] rows with min <= max, "
                                             r"got \[0\.5, 0\.25\] at row 1$"):
            init_naive(2, 2, ranges, seed=0)

    def test_empty_range_accepted(self):
        som = init_naive(2, 2, [[0.5, 0.5], [0.0, 1.0]], seed=0)
        assert np.all(som.weights[:, 0] == 0.5)


def bmus(weights, data):
    """Each input's BMU, ranked as everywhere outside the training loop."""
    return np.argmin(sq_distances(np.asarray(weights, dtype=float), np.asarray(data, dtype=float)), axis=1)


class TestBmuRanking:
    def test_exact_match(self):
        w = [[0.1, 0.2], [0.5, 0.9], [0.3, 0.3]]
        assert bmus(w, [[0.5, 0.9]]).tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        assert bmus([[0.4, 0.4], [0.4, 0.4], [0.0, 0.0]], [[0.4, 0.4]]).tolist() == [0]
        # Symmetric tie around the input.
        assert bmus([[0.0, 0.0], [1.0, 1.0]], [[0.5, 0.5]]).tolist() == [0]

    def test_singleton_map(self):
        assert bmus([[0.7]], [[0.0]]).tolist() == [0]

    def test_batch_matches_single(self, rng):
        w = rng.uniform(0, 1, (12, 6))
        data = rng.uniform(0, 1, (30, 6))
        singles = [bmus(w, x[None, :])[0] for x in data]
        np.testing.assert_array_equal(bmus(w, data), singles)

    def test_training_breaks_ties_low(self):
        # Full rate and a radius too small to reach the neighbor: only the
        # BMU moves, and of two equal units that is unit 0.
        som = SomMap(1, 2, np.array([[0.2, 0.8], [0.2, 0.8]]))
        x = np.array([[0.6, 0.1]])
        cfg = TrainConfig(cycles=1, alpha0=1.0, alpha_end=1.0, radius0=1e-3, radius_end=0.0)
        trained, _ = train(som, x, cfg)
        np.testing.assert_array_equal(trained.weights, [[0.6, 0.1], [0.2, 0.8]])


class TestTrain:
    def test_full_rate_single_input(self):
        som = SomMap(1, 1, np.array([[0.2, 0.9]]))
        x = np.array([[0.6, 0.1]])
        trained, _ = train(som, x, TrainConfig(cycles=1, shuffle=False, alpha0=1.0, alpha_end=1.0))
        np.testing.assert_array_equal(trained.weights[0], x[0])

    def test_zero_learning_rate_is_noop(self):
        som = SomMap(2, 2, np.full((4, 3), 0.5))
        data = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])
        trained, _ = train(som, data, TrainConfig(cycles=2, alpha0=0.0, alpha_end=0.0))
        assert np.array_equal(trained.weights, som.weights)

    def test_contraction_law(self):
        alpha, k = 0.25, 7
        som = SomMap(1, 1, np.array([[0.9, 0.1, 0.4]]))
        x = np.array([0.2, 0.6, 0.5])
        trained, _ = train(
            som,
            np.tile(x, (k, 1)),
            TrainConfig(cycles=1, shuffle=False, alpha0=alpha, alpha_end=alpha),
        )
        expected = (1 - alpha) ** k * np.linalg.norm(som.weights[0] - x)
        assert np.linalg.norm(trained.weights[0] - x) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_retrain(self, babble_short):
        codec = gaussian_codec(babble_short.joints, n=5)
        enc = encode_dataset(codec, babble_short)
        som = init_consistent(3, 3, codec, seed=2)
        cfg = TrainConfig(cycles=2, shuffle=True, seed=5)
        a, trace_a = train(som, enc, cfg)
        b, trace_b = train(som, enc, cfg)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert trace_a == trace_b

    def test_shuffle_changes_result(self, babble_short):
        codec = gaussian_codec(babble_short.joints, n=5)
        enc = encode_dataset(codec, babble_short)
        som = init_consistent(3, 3, codec, seed=2)
        a, _ = train(som, enc, TrainConfig(cycles=1, shuffle=True, seed=5))
        b, _ = train(som, enc, TrainConfig(cycles=1, shuffle=False, seed=5))
        assert not np.array_equal(a.weights, b.weights)

    def test_weights_stay_in_unit_interval(self, rng):
        som = SomMap(3, 3, rng.uniform(0, 1, (9, 8)))
        data = rng.uniform(0, 1, (200, 8))
        trained, _ = train(som, data, TrainConfig(cycles=2, seed=0))
        assert trained.weights.min() >= 0.0 and trained.weights.max() <= 1.0

    def test_qe_trace_decreases_on_babble(self, babble_60s):
        codec = gaussian_codec(babble_60s.joints)
        enc = encode_dataset(codec, babble_60s)
        som = init_consistent(5, 5, codec, seed=0)
        trained, trace = train(som, enc, TrainConfig(cycles=6, seed=0))
        assert len(trace) == 7
        assert trace[-1] < trace[0]
        assert trained.trained_cycles == 6

    def test_input_map_not_mutated(self, babble_short):
        codec = gaussian_codec(babble_short.joints, n=5)
        enc = encode_dataset(codec, babble_short)
        som = init_consistent(2, 2, codec, seed=0)
        before = som.weights.copy()
        train(som, enc, TrainConfig(cycles=1, seed=0))
        assert np.array_equal(som.weights, before)

    def test_width_mismatch(self):
        som = SomMap(1, 1, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            train(som, np.zeros((3, 5)), TrainConfig())

    def test_empty_dataset(self):
        som = SomMap(1, 1, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            train(som, np.zeros((0, 4)), TrainConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        som = SomMap(1, 1, np.zeros((1, 2)))
        data = np.array([[0.1, 0.2], [bad, 0.3]])
        with pytest.raises(ValueError, match=rf"data must be finite, got {bad} at \(1, 0\)"):
            train(som, data, TrainConfig())

    @pytest.mark.parametrize("radius0", [1e-200, 1e-160, 5e-324])
    def test_tiny_radius_moves_the_bmu_alone(self, babble_short, radius0):
        # -2 r^2 underflows to -0.0 or to a subnormal; either way the
        # neighborhood is the r -> 0 limit, the BMU indicator, which is also
        # exp(d^2 / (-2 r^2)) at r = 1e-3 (d^2 is 0 or at least 1).  It used
        # to give NaN at the BMU, with two RuntimeWarnings.
        codec = gaussian_codec(babble_short.joints, n=5)
        data = encode_dataset(codec, babble_short)[::5]
        som = init_consistent(3, 3, codec, seed=1)
        expected, _ = train(som, data, TrainConfig(cycles=2, radius0=1e-3, radius_end=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trained, _ = train(som, data, TrainConfig(cycles=2, radius0=radius0, radius_end=0.0))
        assert trained.weights.tobytes() == expected.weights.tobytes()
        assert trained.qe_trace == expected.qe_trace

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(("normalized", "linear", "sigmoid", "gaussian")),
        setup=st.sampled_from(SETUPS),
        count=st.integers(2, 12),
        naive=st.booleans(),
        alpha0=st.sampled_from([0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_stay_in_unit_interval_on_encoded_babble(
        self, babble_short, family, setup, count, naive, alpha0, seed
    ):
        n = count if setup == "fixed_count" else 120.0 / count
        spec = CodecSpec(family) if family == "normalized" else CodecSpec(family, setup, n)
        codec = build_codec(spec, babble_short.joints)
        enc = encode_dataset(codec, babble_short)[::4]
        if naive:
            som = init_naive(3, 3, data_ranges(enc), seed=seed, codec=codec)
        else:
            som = init_consistent(3, 3, codec, seed=seed)
        trained, _ = train(som, enc, TrainConfig(cycles=2, seed=seed, alpha0=alpha0))
        assert trained.weights.min() >= 0.0 and trained.weights.max() <= 1.0

    def test_mean_bmu_distance_over_several_row_blocks(self, rng):
        weights = rng.uniform(0, 1, (6, 5))
        data = rng.uniform(0, 1, (2 * som_module._QE_BLOCK_ROWS + 3, 5))
        bmus = np.argmin(sq_distances(weights, data), axis=1)
        for rows in (data.shape[0], 7):
            expected = float(np.linalg.norm(data[:rows] - weights[bmus[:rows]], axis=1).mean())
            assert mean_bmu_distance(weights, data[:rows]).hex() == expected.hex()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(cycles=0)
        with pytest.raises(ValueError):
            TrainConfig(alpha0=0.4, alpha_end=0.5)
        with pytest.raises(ValueError):
            TrainConfig(radius_end=-1.0)

    # The ids are the cases' established names, in the messages' earlier wording.
    @pytest.mark.parametrize("field, value, problem", [
        ("cycles", 2.5, "cycles must be an integer >= 1, got 2.5"),
        ("cycles", 0, "cycles must be an integer >= 1, got 0"),
        ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("seed", True, "seed must be an integer >= 0, got True"),
        ("shuffle", "no", "shuffle must be true or false, got 'no'"),
        ("shuffle", 1, "shuffle must be true or false, got 1"),
        ("alpha0", float("nan"), "alpha0 must be a finite number >= 0 and <= 1, got nan"),
        ("alpha_end", "0.1", "alpha_end must be a finite number >= 0 and <= 1, got '0.1'"),
        ("radius0", float("inf"), "radius0 must be a finite number > 0 or None, got inf"),
        ("radius_end", float("nan"), "radius_end must be a finite number >= 0, got nan"),
        ("radius_end", None, "radius_end must be a finite number >= 0, got None"),
    ], ids=[
        "cycles-2.5-cycles must be an integer >= 1, got 2.5",
        "cycles-0-cycles must be an integer >= 1, got 0",
        "seed-1.5-seed must be an integer >= 0, got 1.5",
        "seed--1-seed must be an integer >= 0, got -1",
        "seed-True-seed must be an integer >= 0, got True",
        "shuffle-no-shuffle must be true or false, got 'no'",
        "shuffle-1-shuffle must be true or false, got 1",
        "alpha0-nan-alpha0 must be a finite number, got nan",
        "alpha_end-0.1-alpha_end must be a finite number, got '0.1'",
        "radius0-inf-radius0 must be a finite number, got inf",
        "radius_end-nan-radius_end must be a finite number, got nan",
        "radius_end-None-radius_end must be a finite number, got None",
    ])
    def test_config_types_rejected(self, field, value, problem):
        # These used to train (NaN radius_end collapsed the neighborhood, a
        # string shuffle was truthy) or fail later with a TypeError.
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == problem


FAMILIES = ("normalized", "linear", "sigmoid", "gaussian")
TWO_JOINTS = (JointSpec("a", -40.0, 30.0), JointSpec("b", 0.0, 120.0))


def reference_train(som, data, cfg):
    """One map, one input at a time: the arithmetic training must reproduce."""
    weights = som.weights.copy()
    coords = som.unit_coords()
    lat_d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)

    def qe(w):
        d2 = np.einsum("uw,uw->u", w, w)[None, :] - 2.0 * data @ w.T
        return float(np.linalg.norm(data - w[np.argmin(d2, axis=1)], axis=1).mean())

    n, total = data.shape[0], cfg.cycles * data.shape[0]
    r0 = cfg.start_radius(som.rows, som.cols)
    rng = np.random.default_rng(cfg.seed)
    trace, step = [qe(weights)], 0
    for _ in range(cfg.cycles):
        for t in rng.permutation(n) if cfg.shuffle else range(n):
            frac = step / (total - 1) if total > 1 else 0.0
            alpha = cfg.alpha0 + (cfg.alpha_end - cfg.alpha0) * frac
            radius = r0 + (cfg.radius_end - r0) * frac
            w2 = np.einsum("uw,uw->u", weights, weights)
            bmu = int(np.argmin(w2 - 2.0 * (weights @ data[t])))
            if radius > 0.0:
                h = np.exp(lat_d2[bmu] / (-2.0 * radius * radius))
            else:
                h = (lat_d2[bmu] == 0.0).astype(float)
            c = (alpha * h)[:, None]
            weights *= 1.0 - c
            weights += c * data[t]
            step += 1
        trace.append(qe(weights))
    return weights, tuple(trace)


def assert_equals_reference_flushed(trained, ref_weights, ref_trace):
    """``trained`` holds ``reference_train``'s weights byte for byte, except
    that a weight the reference holds subnormal is +0.0 (training flushes
    subnormals between blocks of steps), and its QE trace is the reference's."""
    tiny = np.finfo(float).tiny
    subnormal = (ref_weights != 0.0) & (np.abs(ref_weights) < tiny)
    assert trained.weights.tobytes() == np.where(subnormal, 0.0, ref_weights).tobytes()
    assert trained.qe_trace == ref_trace
    assert not ((trained.weights != 0.0) & (np.abs(trained.weights) < tiny)).any()


class TestTrainGroup:
    @settings(max_examples=60, deadline=None)
    @given(
        n_maps=st.integers(1, 5),
        family=st.sampled_from(FAMILIES),
        count=st.integers(2, 6),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        n_samples=st.integers(1, 25),
        cycles=st.integers(1, 2),
        shuffle=st.booleans(),
        schedule=st.sampled_from(["default", "radius_end_0", "alpha_1"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_equals_one_at_a_time(
        self, n_maps, family, count, shape, n_samples, cycles, shuffle, schedule, seed
    ):
        spec = CodecSpec(family) if family == "normalized" else \
            CodecSpec(family, "fixed_count", count)
        codec = build_codec(spec, TWO_JOINTS)
        rng = np.random.default_rng(seed)
        lo, hi = [j.min_deg for j in TWO_JOINTS], [j.max_deg for j in TWO_JOINTS]
        data = np.stack([encode(codec, p)
                         for p in rng.uniform(lo, hi, (n_samples, 2))])
        extra = {"default": {}, "radius_end_0": {"radius_end": 0.0},
                 "alpha_1": {"alpha0": 1.0, "alpha_end": 1.0}}[schedule]
        rows, cols = shape
        soms = [init_consistent(rows, cols, codec, seed=seed + s) for s in range(n_maps)]
        cfgs = [TrainConfig(cycles=cycles, shuffle=shuffle, seed=seed + 7 * s, **extra)
                for s in range(n_maps)]
        together = train_group(soms, data, cfgs)
        assert len(together) == n_maps
        for som, cfg, trained in zip(soms, cfgs, together):
            alone, alone_trace = train(som, data, cfg)
            assert trained.weights.tobytes() == alone.weights.tobytes()
            assert trained.qe_trace == alone_trace == alone.qe_trace
            assert trained.trained_cycles == alone.trained_cycles == cycles
            assert_equals_reference_flushed(trained, *reference_train(som, data, cfg))

    @pytest.mark.parametrize("n_maps", [1, 3])
    @pytest.mark.parametrize("shape", [(5, 5), (10, 10)])
    @pytest.mark.parametrize("family, count, width", [
        ("normalized", None, 13), ("gaussian", 10, 130), ("sigmoid", 20, 520),
    ])
    def test_lockstep_equals_one_at_a_time_at_babble_widths(
        self, babble_short, n_maps, shape, family, count, width
    ):
        # The hypothesis property above draws widths of at most 24, narrower
        # than the step loop's ufunc buffer; these are the widths the
        # experiment trains, on either side of it.  reference_train runs
        # under numpy's default buffer.
        spec = CodecSpec(family) if count is None else CodecSpec(family, "fixed_count", count)
        codec = build_codec(spec, babble_short.joints)
        assert codec.width == width
        data = encode_dataset(codec, babble_short)[::6][:40]
        rows, cols = shape
        soms = [init_consistent(rows, cols, codec, seed=s) for s in range(n_maps)]
        cfgs = [TrainConfig(cycles=1, seed=10 + s) for s in range(n_maps)]
        for som, cfg, trained in zip(soms, cfgs, train_group(soms, data, cfgs)):
            alone, alone_trace = train(som, data, cfg)
            assert trained.weights.tobytes() == alone.weights.tobytes()
            assert trained.qe_trace == alone_trace
            assert_equals_reference_flushed(trained, *reference_train(som, data, cfg))

    def test_subnormal_weights_are_flushed(self, babble_60s):
        # Linear codes leave many inputs at exactly 0, where the reference's
        # weights decay into the subnormal range; training holds +0.0 there.
        codec = build_codec(CodecSpec("linear", "fixed_count", 20), babble_60s.joints)
        data = encode_dataset(codec, babble_60s)
        som, cfg = init_consistent(5, 5, codec), TrainConfig(cycles=2, seed=3)
        ref_weights, ref_trace = reference_train(som, data, cfg)
        subnormal = (ref_weights != 0.0) & (np.abs(ref_weights) < np.finfo(float).tiny)
        assert subnormal.sum() > 100
        assert_equals_reference_flushed(train(som, data, cfg)[0], ref_weights, ref_trace)

    @pytest.mark.parametrize("family, count, step_bufsize", [
        ("normalized", None, 4096), ("gaussian", 10, som_module._STEP_BUFSIZE),
    ])
    def test_step_buffer_is_restored(self, babble_short, monkeypatch, family, count, step_bufsize):
        # Rows at least _STEP_BUFSIZE wide train under that buffer, narrower
        # ones under the caller's (4096 here); either way the caller's comes
        # back, also when a step raises.  Of the numpy functions training calls
        # by name, np.matmul is the one that runs only in the step loop.
        spec = CodecSpec(family) if count is None else CodecSpec(family, "fixed_count", count)
        codec = build_codec(spec, babble_short.joints)
        data = encode_dataset(codec, babble_short)[:20]
        som, cfg = init_consistent(2, 2, codec), TrainConfig(cycles=2)
        matmul, seen = np.matmul, []

        def failing_matmul(*args, **kwargs):
            seen.append(np.getbufsize())
            if len(seen) == 2:
                raise RuntimeError("step failed")
            return matmul(*args, **kwargs)

        outer = np.setbufsize(4096)
        try:
            train_group([som], data, [cfg])
            assert np.getbufsize() == 4096
            monkeypatch.setattr(np, "matmul", failing_matmul)
            with pytest.raises(RuntimeError, match="step failed"):
                train_group([som], data, [cfg])
            assert seen == [step_bufsize, step_bufsize]
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(outer)

    @pytest.mark.parametrize("other", [
        SomMap(2, 2, np.zeros((4, 3))),
        SomMap(1, 4, np.zeros((4, 2))),
        SomMap(4, 1, np.zeros((4, 2))),
    ])
    def test_maps_must_share_shape_and_width(self, other):
        som = SomMap(2, 2, np.zeros((4, 2)))
        data = np.full((3, 2), 0.5)
        with pytest.raises(ValueError, match="rows, cols and width"):
            train_group([som, other], data, [TrainConfig(seed=0), TrainConfig(seed=1)])

    @pytest.mark.parametrize("field, value", [
        ("cycles", 2), ("shuffle", False), ("alpha0", 0.4), ("alpha_end", 0.02),
        ("radius0", 1.0), ("radius_end", 0.0),
    ])
    def test_configs_may_differ_only_in_seed(self, field, value):
        som = SomMap(2, 2, np.zeros((4, 2)))
        data = np.full((3, 2), 0.5)
        other = TrainConfig(seed=1, **{field: value})
        with pytest.raises(ValueError, match="only in seed"):
            train_group([som, som], data, [TrainConfig(seed=0), other])

    def test_one_config_per_map(self):
        som = SomMap(1, 1, np.zeros((1, 2)))
        data = np.full((3, 2), 0.5)
        with pytest.raises(ValueError):
            train_group([som, som], data, [TrainConfig()])
        with pytest.raises(ValueError):
            train_group([], data, [])


def reference_manifold_distance(som, codec, grid_deg, refine, iterations=None):
    """Per unit and DoF, one scalar golden-section search: the arithmetic
    ``manifold_distance`` must reproduce bit for bit.  ``iterations``, if
    given, collects how many steps each search ran before stopping."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0

    def refine_minimum(f, a, b):
        c = b - golden * (b - a)
        d = a + golden * (b - a)
        fc, fd = f(c), f(d)
        for step in range(1, 81):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                fd = f(d)
            if b - a < 1e-13 * max(1.0, abs(a)):
                break
        if iterations is not None:
            iterations.append(step)
        return min(fc, fd)

    out = np.zeros(som.n_units)
    for d, joint in enumerate(codec.joints):
        params = codec.per_dof[d]
        n_steps = max(1, round(joint.range_deg / grid_deg))
        grid = np.linspace(joint.min_deg, joint.max_deg, n_steps + 1)
        curves = params.activations(grid)
        segs = codec.segment(som.weights, d)
        d2 = ((curves[None, :, :] - segs[:, None, :]) ** 2).sum(axis=2)
        best = np.argmin(d2, axis=1)
        for u in range(som.n_units):
            i = int(best[u])
            if refine:
                lo = grid[max(i - 1, 0)]
                hi = grid[min(i + 1, len(grid) - 1)]
                seg = segs[u]
                f = lambda a: float(((params.activations(a) - seg) ** 2).sum())
                out[u] += np.sqrt(max(refine_minimum(f, lo, hi), 0.0))
            else:
                out[u] += np.sqrt(max(float(d2[u, i]), 0.0))
    return out


def grid_encodings(codec, grid_deg, n_units, rng):
    """Exact encodings of random angles of ``manifold_distance``'s search
    grid, one per unit, so every segment's nearest grid code is at 0."""
    parts = []
    for joint, params in zip(codec.joints, codec.per_dof):
        grid = np.linspace(joint.min_deg, joint.max_deg, max(1, round(joint.range_deg / grid_deg)) + 1)
        parts.append(params.activations(rng.choice(grid, n_units)))
    return np.concatenate(parts, axis=1)


def assert_equals_reference(som, codec, grid_deg):
    for refine in (False, True):
        expected = reference_manifold_distance(som, codec, grid_deg, refine)
        assert manifold_distance(som, grid_deg=grid_deg, refine=refine).tobytes() == expected.tobytes()


class TestManifoldDistance:
    @settings(max_examples=80, deadline=None)
    @given(
        codec=codecs(),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        source=st.sampled_from(["near_manifold", "uniform", "grid_encodings"]),
        grid_deg=st.floats(0.05, 20.0),
        refine=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_unit_scalar_search(self, codec, shape, source, grid_deg, refine, seed):
        rows, cols = shape
        rng = np.random.default_rng(seed)
        if source == "near_manifold":
            weights = init_consistent(rows, cols, codec, seed=seed).weights
            weights = weights + rng.normal(0.0, 1e-6, weights.shape)
        elif source == "uniform":
            weights = rng.uniform(0.0, 1.0, (rows * cols, codec.width))
        else:
            weights = grid_encodings(codec, grid_deg, rows * cols, rng)
        som = SomMap(rows, cols, weights, codec=codec)
        got = manifold_distance(som, grid_deg=grid_deg, refine=refine)
        expected = reference_manifold_distance(som, codec, grid_deg, refine)
        assert got.tobytes() == expected.tobytes()

    def test_searches_stop_independently(self, rng):
        # One grid step spans a very wide joint: the search pinned at 0 keeps
        # the 1e-13 tolerance and runs all 80 steps, those far from 0 stop
        # earlier, each at its own step.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), (JointSpec("w", 0.0, 2e4),))
        postures = [0.0, 2e4, 7e3, 1.3e4, 5.0, 1.5e4]
        weights = np.stack([encode(codec, [p]) for p in postures])
        weights[2:] += rng.uniform(0.0, 0.05, weights[2:].shape)
        som = SomMap(2, 3, weights, codec=codec)
        iterations = []
        expected = reference_manifold_distance(som, codec, 4e4, True, iterations)
        assert iterations[0] == 80 and len(set(iterations[1:]) - {80}) >= 2
        assert manifold_distance(som, grid_deg=4e4).tobytes() == expected.tobytes()

    def test_direct_tie_goes_to_lowest_grid_index(self):
        # Each segment is the exact midpoint of two neighbouring grid codes,
        # so the direct form ties them and the lower grid index must win.
        # Their expanded-form scores can differ in the last bits, which only the
        # rounding window absorbs; the refinement bracket shows the winner.
        codec = build_codec(CodecSpec("linear", "fixed_count", 5), (JointSpec("j", 0.0, 180.0),))
        grid = np.linspace(0.0, 180.0, 361)
        first = np.array([146, 300, 341])
        below, above = (codec.per_dof[0].activations(grid[i]) for i in (first, first + 1))
        weights = (below + above) / 2.0
        assert (((below - weights) ** 2).sum(axis=1) == ((above - weights) ** 2).sum(axis=1)).all()
        som = SomMap(1, 3, weights, codec=codec)
        assert_equals_reference(som, codec, 0.5)

    def test_exact_grid_codes(self):
        # Every segment is the code of a grid angle, at direct distance
        # exactly 0, and the saturated sigmoids put other grid codes within
        # about 1e-16 of it: below the expanded form's rounding of |c|^2.
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 3), (JointSpec("j", -90.0, 90.0),))
        grid = np.linspace(-90.0, 90.0, 181)
        som = SomMap(1, 5, codec.per_dof[0].activations(grid[[116, 50, 56, 129, 71]]), codec=codec)
        assert reference_manifold_distance(som, codec, 1.0, False).max() == 0.0
        assert_equals_reference(som, codec, 1.0)

    def test_fixed_offset_dofs_of_unequal_width(self):
        # Fixed offset gives the two joints 8 and 4 curves; one golden-section
        # search refines both DoFs, each through its own curve bank.
        joints = (JointSpec("a", -90.0, 90.0), JointSpec("b", 0.0, 50.0))
        codec = build_codec(CodecSpec("sigmoid", "fixed_offset", 60.0), joints)
        assert [params.width for params in codec.per_dof] == [8, 4]
        rng = np.random.default_rng(1)
        som = SomMap(4, 4, grid_encodings(codec, 1.0, 16, rng), codec=codec)
        assert_equals_reference(som, codec, 1.0)

    def test_too_fine_grid_rejected(self):
        codec = build_codec(CodecSpec("linear", "fixed_count", 5), (JointSpec("j", 0.0, 180.0),))
        som = init_consistent(1, 2, codec, seed=0)
        with pytest.raises(ValueError, match="joint 'j': a grid step of 1e-12 degrees"):
            manifold_distance(som, grid_deg=1e-12)

    def test_consistent_init_is_on_manifold(self):
        codec = gaussian_codec()
        som = init_consistent(2, 2, codec, seed=4)
        assert manifold_distance(som).max() < 1e-6

    def test_blend_is_off_manifold(self):
        codec = gaussian_codec()
        va = encode(codec, [-20.0])
        vb = encode(codec, [10.0])
        som = SomMap(1, 1, (0.5 * (va + vb))[None, :], codec=codec)
        assert manifold_distance(som)[0] > 1e-3

    def test_normalized_family_always_zero(self, rng):
        codec = build_codec(CodecSpec("normalized"), RANGE_JOINT)
        som = SomMap(2, 2, rng.uniform(0, 1, (4, 1)), codec=codec)
        assert manifold_distance(som).max() < 1e-12

    def test_training_induces_drift(self, babble_short):
        for family in ("linear", "sigmoid", "gaussian"):
            codec = build_codec(CodecSpec(family, "fixed_count", 10), babble_short.joints)
            enc = encode_dataset(codec, babble_short)
            som = init_consistent(3, 3, codec, seed=1)
            trained, _ = train(som, enc, TrainConfig(cycles=1, seed=1))
            assert manifold_distance(trained).mean() > manifold_distance(som).mean()

    def test_requires_codec(self):
        som = SomMap(1, 1, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            manifold_distance(som)

    @pytest.mark.parametrize("width", [4, 9])
    def test_codec_width_must_match(self, width):
        # manifold_distance reads the map's own codec, whose width the map
        # checks when it is built.
        with pytest.raises(ValueError, match=rf"weights must be a \(2, 5\) array, got shape \(2, {width}\)"):
            SomMap(1, 2, np.full((2, width), 0.5), codec=gaussian_codec(n=5))

    @pytest.mark.parametrize("grid_deg", [np.nan, np.inf, 0.0, -1.0])
    def test_grid_deg_must_be_positive_and_finite(self, grid_deg):
        som = init_consistent(1, 2, gaussian_codec(n=5), seed=0)
        with pytest.raises(ValueError, match="grid_deg must be a finite number > 0, got "):
            manifold_distance(som, grid_deg=grid_deg)


class TestSerialization:
    def test_roundtrip(self, tmp_path, babble_short):
        codec = gaussian_codec(babble_short.joints, n=5)
        enc = encode_dataset(codec, babble_short)
        som = init_consistent(2, 3, codec, seed=8)
        cfg = TrainConfig(cycles=1, seed=8)
        trained, _ = train(som, enc, cfg)
        path = tmp_path / "map.json"
        save_map(trained, path, train_config=cfg)
        loaded = load_map(path)
        assert loaded.rows == 2 and loaded.cols == 3
        assert np.array_equal(loaded.weights, trained.weights)
        assert loaded.trained_cycles == 1
        assert loaded.qe_trace == trained.qe_trace
        assert loaded.codec.per_dof == codec.per_dof

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        codec=st.one_of(st.none(), codecs()),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        cycles=st.integers(0, 1000),
        train_config=st.booleans(),
    )
    def test_json_roundtrip_is_identity(self, data, codec, shape, cycles, train_config):
        rows, cols = shape
        width = codec.width if codec is not None else data.draw(st.integers(1, 6))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        weights = np.array(data.draw(st.lists(
            finite, min_size=rows * cols * width, max_size=rows * cols * width,
        ))).reshape(rows * cols, width)
        qe_trace = tuple(data.draw(st.lists(finite, max_size=8)))
        som = SomMap(rows, cols, weights, codec=codec, trained_cycles=cycles, qe_trace=qe_trace)
        doc = map_to_json(som, TrainConfig(cycles=3, seed=cycles) if train_config else None)
        for loaded in (map_from_json(doc), map_from_json(json.loads(json.dumps(doc)))):
            assert (loaded.rows, loaded.cols) == shape
            assert loaded.weights.tobytes() == som.weights.tobytes()
            assert np.array(loaded.qe_trace).tobytes() == np.array(qe_trace).tobytes()
            assert loaded.trained_cycles == cycles
            assert loaded.codec == codec

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_load_rejects_non_finite_weights(self, tmp_path, bad):
        codec = gaussian_codec(n=3)
        path = tmp_path / "map.json"
        save_map(init_consistent(2, 2, codec, seed=0), path)
        doc = json.loads(path.read_text())
        doc["weights"][3][1] = float(bad)
        path.write_text(json.dumps(doc))
        assert bad in path.read_text()
        problem = rf"{path}: weights must be finite, got {float(bad)} at \(3, 1\)"
        with pytest.raises(DatasetFormatError, match=problem):
            load_map(path)

    # The ids are the cases' established names, in the messages' earlier wording.
    @pytest.mark.parametrize("field,value,problem", [
        ("trained_cycles", "x", "trained_cycles must be an integer >= 0, got 'x'"),
        ("trained_cycles", -7, "trained_cycles must be an integer >= 0, got -7"),
        ("trained_cycles", 1.5, "trained_cycles must be an integer >= 0, got 1.5"),
        ("trained_cycles", True, "trained_cycles must be an integer >= 0, got True"),
        ("qe_trace", ["a"], "qe_trace must be a tuple of values, each a finite number, got ('a',)"),
        ("qe_trace", [0.5, None],
         "qe_trace must be a tuple of values, each a finite number, got (0.5, None)"),
        ("qe_trace", [False], "qe_trace must be a tuple of values, each a finite number, got (False,)"),
        ("qe_trace", [float("inf")], "qe_trace must be a tuple of values, each a finite number, got (inf,)"),
        ("rows", 1.0, "rows must be an integer >= 1, got 1.0"),
        ("cols", "2", "cols must be an integer >= 1, got '2'"),
        ("rows", True, "rows must be an integer >= 1, got True"),
    ], ids=[
        "trained_cycles-x-trained_cycles must be a non-negative integer, got 'x'",
        "trained_cycles--7-trained_cycles must be a non-negative integer, got -7",
        "trained_cycles-1.5-trained_cycles must be a non-negative integer, got 1.5",
        "trained_cycles-True-trained_cycles must be a non-negative integer, got True",
        "qe_trace-value4-qe_trace entries must be finite numbers, got 'a'",
        "qe_trace-value5-qe_trace entries must be finite numbers, got None",
        "qe_trace-value6-qe_trace entries must be finite numbers, got False",
        "qe_trace-value7-qe_trace entries must be finite numbers, got inf",
        "rows-1.0-rows and cols must be integers, got 1.0 and 2",
        "cols-2-rows and cols must be integers, got 1 and '2'",
        "rows-True-rows and cols must be integers, got True and 2",
    ])
    def test_load_rejects_bad_training_record(self, tmp_path, field, value, problem):
        # These used to load (a string lattice size ended in a TypeError), and eval
        # wrote e.g. "cycles": "x" or "rows": 1.0 into its report.
        path = tmp_path / "map.json"
        save_map(init_consistent(1, 2, gaussian_codec(n=3), seed=0), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError) as info:
            load_map(path)
        assert str(info.value) == f"{path}: {problem}"

    def test_json_doc_without_codec(self):
        som = SomMap(1, 2, np.zeros((2, 3)))
        doc = map_to_json(som)
        assert doc["codec"] is None
        loaded = map_from_json(doc)
        assert loaded.codec is None

    def test_train_config_written_in_field_order(self):
        cfg = TrainConfig(cycles=2, shuffle=False, seed=5, radius0=1.5)
        doc = map_to_json(SomMap(1, 1, np.zeros((1, 2))), cfg)
        assert json.dumps(doc["train_config"]) == (
            '{"cycles": 2, "shuffle": false, "seed": 5, "alpha0": 0.5, '
            '"alpha_end": 0.01, "radius0": 1.5, "radius_end": 0.5}'
        )
