import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import posturemap.decode as decode_mod
from posturemap.babble import BabbleConfig, generate_babble
from posturemap.codec import (
    FAMILIES,
    SETUPS,
    CodecSpec,
    GaussianParams,
    LinearParams,
    PopulationCodec,
    SigmoidParams,
    build_codec,
    codec_from_json,
    codec_to_json,
    encode,
    encode_dataset,
)
from posturemap.dataset import JointSpec
from posturemap.decode import (
    KdeConfig,
    decode_matrix,
    kde_density,
    silverman_bandwidth,
    undecodable_dof_error,
)
from posturemap.errors import UndecodableError
from posturemap.som import init_consistent
from test_codec import TWO_JOINTS, codecs

RANGE_JOINT = (JointSpec("j", -40.0, 30.0),)


class TestKdeConfig:
    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KdeConfig(bandwidth_h=0.0)
        with pytest.raises(ValueError):
            KdeConfig(bandwidth_h="adaptive")

    def test_bad_floor(self):
        with pytest.raises(ValueError):
            KdeConfig(activation_floor=0.7)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            KdeConfig(grid_resolution=-0.1)

    @pytest.mark.parametrize("field", ["bandwidth_h", "grid_resolution"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        # Unchecked, an infinite value decodes every angle to the grid start
        # and NaN fails deep inside the KDE argmax.
        with pytest.raises(ValueError) as info:
            KdeConfig(**{field: bad})
        what = "a finite number > 0 or 'auto'" if field == "bandwidth_h" else "a finite number > 0"
        assert str(info.value) == f"{field} must be {what}, got {bad!r}"


class TestInvertLinear:
    """``LinearParams.inverse``, the one ramp inverse the decoder uses."""

    def test_midpoint_of_full_ramp(self):
        # Ramp rising from 0 at -40 to 1 at 30: y = (x + 40) / 70.
        a, b = 1.0 / 70.0, 40.0 / 70.0
        assert LinearParams.inverse(a, b, 0.5) == pytest.approx(-5.0, abs=1e-12)

    def test_roundtrip(self):
        codec = build_codec(CodecSpec("linear", "fixed_count", 10), RANGE_JOINT)
        params = codec.per_dof[0]
        x = 12.3
        acts = params.activations(np.array(x))
        for a, b, y in zip(params.slopes, params.intercepts, acts):
            if 0.0 < y < 1.0:
                assert LinearParams.inverse(a, b, float(y)) == pytest.approx(x, abs=1e-12)

    def test_encode_of_inverse_matches(self, rng):
        a, b = 1.0 / 70.0, 40.0 / 70.0
        for y in rng.uniform(0.01, 0.99, 200):
            x = LinearParams.inverse(a, b, float(y))
            assert a * x + b == pytest.approx(y, abs=1e-12)


class TestInvertSigmoid:
    """``SigmoidParams.inverse``, the one logistic inverse the decoder uses."""

    def test_inflection(self):
        assert SigmoidParams.inverse(-12.5, 1, 0.5, gain=1.0) == pytest.approx(-12.5, abs=1e-12)

    def test_forward_then_invert(self):
        y = 1.0 / (1.0 + math.exp(-2.0))
        assert y == pytest.approx(0.88080, abs=1e-5)
        assert SigmoidParams.inverse(0.0, 1, y, gain=1.0) == pytest.approx(2.0, abs=1e-9)

    def test_negative_orientation(self):
        y = 1.0 / (1.0 + math.exp(3.0))
        assert SigmoidParams.inverse(5.0, -1, y, gain=1.0) == pytest.approx(8.0, abs=1e-9)

    def test_roundtrip_within_band(self, rng):
        for y in rng.uniform(0.002, 0.998, 300):
            x = SigmoidParams.inverse(3.0, 1, float(y), gain=1.0)
            back = 1.0 / (1.0 + math.exp(3.0 - x))
            assert back == pytest.approx(y, abs=1e-9)

    def test_gain(self):
        gain = 2.0
        x_true = 4.0
        y = 1.0 / (1.0 + math.exp(gain * (1.0 - x_true)))
        assert SigmoidParams.inverse(1.0, 1, y, gain=gain) == pytest.approx(x_true, abs=1e-9)


class TestInvertGaussian:
    """``GaussianParams.inverse``, both branches of each bump."""

    def test_peak(self):
        lo, hi = GaussianParams.inverse(3.0, 7.0, 1.0)
        assert lo == hi == pytest.approx(3.0)

    def test_one_sigma_branches(self):
        sigma = 70.0 / 9.0
        lo, hi = GaussianParams.inverse(0.0, sigma, math.exp(-0.5))
        assert lo == pytest.approx(-sigma, rel=1e-9)
        assert hi == pytest.approx(sigma, rel=1e-9)

    def test_branches_symmetric_about_mu(self, rng):
        mu, sigma = -4.0, 5.0
        for y in rng.uniform(0.01, 1.0, 100):
            lo, hi = GaussianParams.inverse(mu, sigma, float(y))
            assert (lo + hi) / 2.0 == pytest.approx(mu, abs=1e-9)

    def test_both_branches_reencode(self, rng):
        mu, sigma = 2.0, 6.0
        for y in rng.uniform(0.01, 1.0, 100):
            for x in GaussianParams.inverse(mu, sigma, float(y)):
                back = math.exp(-((x - mu) ** 2) / (2 * sigma**2))
                assert back == pytest.approx(y, abs=1e-9)


class TestKdeDensity:
    def test_single_kernel_peak(self):
        assert kde_density([0.0], 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
        assert kde_density([0.0], 1.0, 0.0) == pytest.approx(0.39894, abs=1e-5)

    def test_symmetric_pair_argmax_at_midpoint(self):
        grid = np.linspace(-5.0, 5.0, 1001)
        dens = kde_density([-1.0, 1.0], 1.0, grid)
        assert grid[np.argmax(dens)] == pytest.approx(0.0, abs=1e-9)

    def test_coincident_samples_argmax(self):
        grid = np.linspace(0.0, 10.0, 2001)
        dens = kde_density([5.0, 5.0, 5.0], 0.5, grid)
        assert grid[np.argmax(dens)] == pytest.approx(5.0, abs=1e-9)

    def test_permutation_invariance(self, rng):
        samples = rng.uniform(-10, 10, 40)
        xs = rng.uniform(-12, 12, 25)
        a = kde_density(samples, 1.3, xs)
        b = kde_density(rng.permutation(samples), 1.3, xs)
        assert np.array_equal(a, b)

    def test_scaling_property(self, rng):
        samples = rng.uniform(-5, 5, 30)
        x, h, c = 1.7, 0.8, 3.0
        scaled = kde_density(samples * c, h * c, x * c)
        assert scaled == pytest.approx(kde_density(samples, h, x) / c, rel=1e-12)

    def test_integrates_to_one(self, rng):
        samples = rng.uniform(-20, 20, 25)
        grid = np.linspace(-120.0, 120.0, 40001)
        dens = kde_density(samples, 2.0, grid)
        integral = np.trapezoid(dens, grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            kde_density([], 1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # NaN samples or a NaN bandwidth used to give a NaN density, an
        # infinite bandwidth 0.0, and a NaN floor was ignored.
        with pytest.raises(ValueError, match="samples must be finite"):
            kde_density([bad, 1.0], 0.3, 0.0)
        with pytest.raises(ValueError, match="bandwidth must be a finite number > 0"):
            kde_density([0.0, 1.0], bad, 0.0)
        with pytest.raises(ValueError, match="x must be finite"):
            kde_density([0.0, 1.0], 0.3, [0.0, bad])
        with pytest.raises(ValueError, match="samples must be finite"):
            silverman_bandwidth([1.0, bad], floor=0.1)
        with pytest.raises(ValueError, match="floor must be a finite number > 0"):
            silverman_bandwidth([1.0, 2.0], floor=bad)

    def test_silverman_needs_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            silverman_bandwidth([], floor=0.1)
        for bad in (3.0, np.zeros((1, 2, 2))):
            with pytest.raises(ValueError, match=r"samples must be a \(n,\) or \(n, m\) array"):
                silverman_bandwidth(bad, floor=0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.tuples(st.integers(1, 5), st.integers(1, 40)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.floats(-1e6, 1e6))),
        floor=st.floats(1e-6, 10.0),
    )
    def test_silverman_rows_equal_scalar_calls(self, samples, floor):
        rows = silverman_bandwidth(samples, floor)
        assert rows.tobytes() == np.array([silverman_bandwidth(row, floor) for row in samples]).tobytes()

    def test_silverman_formula(self):
        samples = np.array([1.0, 2.0, 4.0, 8.0])
        expected = 1.06 * samples.std() * 4 ** (-0.2)
        assert silverman_bandwidth(samples, floor=0.1) == pytest.approx(expected, rel=1e-12)
        assert silverman_bandwidth(np.array([3.0, 3.0]), floor=0.25) == 0.25


def decode_one(codec, vector, cfg=None):
    """The angles ``decode_matrix`` gives one activation vector."""
    return decode_matrix(codec, np.asarray(vector, dtype=float)[None, :], cfg)[0]


class TestDecodePopulation:
    """Single rows of one-joint codecs."""

    def test_consistent_roundtrip_gaussian(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        v = encode(codec, [-5.0])
        assert decode_one(codec, v)[0] == pytest.approx(-5.0, abs=0.1)

    def test_all_zero_segment_undecodable(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        angles = decode_one(codec, np.zeros(10))
        assert np.isnan(angles[0])
        assert isinstance(undecodable_dof_error(codec, angles), UndecodableError)

    def test_blended_vector_lands_between(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        blend = 0.5 * (encode(codec, [-20.0]) + encode(codec, [10.0]))
        x = decode_one(codec, blend)[0]
        assert -20.0 <= x <= 10.0

    def test_normalized_affine_inverse(self):
        codec = build_codec(CodecSpec("normalized"), RANGE_JOINT)
        assert decode_one(codec, [0.5])[0] == pytest.approx(-5.0, abs=1e-12)

    @pytest.mark.parametrize("family", ["linear", "sigmoid", "gaussian"])
    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_roundtrip_sweep(self, family, n):
        codec = build_codec(CodecSpec(family, "fixed_count", n), RANGE_JOINT)
        cfg = KdeConfig()
        xs = -40.0 + (np.arange(60) + 0.5) * (70.0 / 60)
        decoded = decode_matrix(codec, encode(codec, xs[:, None]), cfg)[:, 0]
        np.testing.assert_allclose(decoded, xs, rtol=0, atol=cfg.grid_resolution)

    def test_wrong_segment_width(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        with pytest.raises(ValueError):
            decode_one(codec, np.zeros(9))

    @pytest.mark.parametrize("setup,n", [("fixed_count", 5), ("fixed_offset", 2.5)])
    def test_linear_range_ends(self, setup, n):
        # Every ramp saturates at a range end; the ones reading exactly 1 name it.
        codec = build_codec(CodecSpec("linear", setup, n), (JointSpec("j", 0.0, 10.0),))
        for x in (0.0, 10.0):
            assert decode_one(codec, encode(codec, [x]))[0] == x

    @pytest.mark.xfail(strict=True, reason=(
        "a sigmoid activation within rounding of 1 still yields a candidate, "
        "up to ~0.7 deg off, which pulls the KDE argmax"))
    def test_sigmoid_near_saturation_outlier(self):
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 6), (JointSpec("j", -30.0, 120.0),))
        v = encode(codec, [-29.0])
        assert decode_one(codec, v)[0] == pytest.approx(-29.0, abs=0.1)

    def test_ties_resolve_to_lowest_angle(self):
        # Two coincident candidate piles via a symmetric gaussian segment:
        # only the center curve active at peak gives candidates {mu, mu}.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), RANGE_JOINT)
        seg = encode(codec, [-5.0])
        x = decode_one(codec, seg)[0]
        assert x == pytest.approx(-5.0, abs=0.1)


class TestDecodeVector:
    """Single rows of multi-joint codecs."""

    def test_posture_roundtrip(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_short.joints)
        posture = babble_short.samples[100]
        v = encode(codec, posture)
        decoded = decode_one(codec, v)
        np.testing.assert_allclose(decoded, posture, atol=0.1)

    def test_normalized_identity(self, babble_short):
        codec = build_codec(CodecSpec("normalized"), babble_short.joints)
        posture = babble_short.samples[10]
        v = encode(codec, posture)
        np.testing.assert_allclose(decode_one(codec, v), posture, atol=1e-9)

    def test_failure_names_dof(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_short.joints)
        v = encode(codec, babble_short.samples[0]).copy()
        start, stop = codec.layout[4]
        v[start:stop] = 0.0
        angles = decode_one(codec, v)
        assert np.flatnonzero(np.isnan(angles)).tolist() == [4]
        error = undecodable_dof_error(codec, angles)
        assert isinstance(error, UndecodableError) and str(error).startswith("DoF 4 ")

    def test_wrong_width(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        with pytest.raises(ValueError):
            decode_one(codec, np.zeros(11))

    def test_non_unit_gain_codec_from_json(self):
        built = build_codec(CodecSpec("sigmoid", "fixed_count", 10, sigmoid_gain=0.5), TWO_JOINTS)
        codec = codec_from_json(json.loads(json.dumps(codec_to_json(built))))
        posture = np.array([-21.3, 12.7])
        decoded = decode_one(codec, encode(codec, posture))
        np.testing.assert_allclose(decoded, posture, atol=KdeConfig().grid_resolution)

    @settings(max_examples=150, deadline=None)
    @given(
        codec=codecs(families=("normalized", "linear", "gaussian")),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_roundtrip_within_grid_resolution(self, codec, fractions):
        # Left out, as the decoder misses by more than a grid step there:
        # sigmoids (test_sigmoid_near_saturation_outlier) and banks of fewer
        # than five Gaussians, where the mirror branch of the nearest curve
        # pulls the KDE peak.  The matrix uses five curves or more.
        assume(codec.family != "gaussian" or min(p.width for p in codec.per_dof) >= 5)
        posture = np.array([j.min_deg + f * j.range_deg for j, f in zip(codec.joints, fractions)])
        posture = np.clip(posture, [j.min_deg for j in codec.joints], [j.max_deg for j in codec.joints])
        cfg = KdeConfig()
        decoded = decode_one(codec, encode(codec, posture), cfg)
        np.testing.assert_allclose(decoded, posture, rtol=0, atol=cfg.grid_resolution)


def reference_candidates(family, params, segment, floor):
    """One segment's candidate angles by the scalar per-curve rules
    (``math.log``/``math.sqrt``), with the decoder's masks and order, kept
    here so that the decoder's array form is checked against them."""
    if family == "linear":
        return [
            (y - b) / a
            for a, b, y in zip(params.slopes, params.intercepts, segment)
            if a != 0.0 and floor < y <= 1.0
        ]
    if family == "sigmoid":
        return [
            o - s * math.log((1.0 - y) / y) / params.gain
            for o, s, y in zip(params.offsets, params.sgns, segment)
            if floor < y < 1.0
        ]
    out = []
    for mu, y in zip(params.centers, segment):
        if floor <= y <= 1.0:
            r = math.sqrt(-2.0 * params.sigma**2 * math.log(min(y, 1.0)))
            out.extend((mu - r, mu + r))
    return out


def reference_decode(codec, vectors, cfg):
    """The per-segment decoder that scores the KDE on the whole grid."""
    out = np.full((len(vectors), len(codec.joints)), np.nan)
    for t, vec in enumerate(vectors):
        for d, (params, joint) in enumerate(zip(codec.per_dof, codec.joints)):
            seg = codec.segment(vec, d)
            if codec.family == "normalized":
                x = params.min_deg + float(seg[0]) * (params.max_deg - params.min_deg)
                out[t, d] = min(max(x, joint.min_deg), joint.max_deg)
                continue
            cands = reference_candidates(codec.family, params, seg.tolist(), cfg.activation_floor)
            if not cands:
                continue
            cands = np.array(cands)
            if isinstance(cfg.bandwidth_h, str):
                h = silverman_bandwidth(cands, floor=cfg.grid_resolution)
            else:
                h = float(cfg.bandwidth_h)
            n_steps = max(1, round(joint.range_deg / cfg.grid_resolution))
            grid = np.linspace(joint.min_deg, joint.max_deg, n_steps + 1)
            out[t, d] = grid[int(np.argmax(kde_density(cands, h, grid)))]
    return out


def decode_recording(codec, vectors, cfg):
    """``decode_matrix`` plus every (samples, h, grid points, densities) row
    its windowed search scored."""
    scored = []
    window_densities = decode_mod._window_densities

    def recording(samples, h, grid, *windows):
        for rows, idx, dens in window_densities(samples, h, grid, *windows):
            scored.extend(zip(samples[rows], h[rows], grid[idx], dens))
            yield rows, idx, dens

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode_mod, "_window_densities", recording)
        return decode_matrix(codec, vectors, cfg), scored


@st.composite
def activation_rows(draw, codec):
    """Valid codes, consistent map weights plus noise, or uniform [0, 1]."""
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["valid", "noisy", "uniform"]))
    if kind == "valid":
        lo = np.array([j.min_deg for j in codec.joints])
        span = np.array([j.range_deg for j in codec.joints])
        postures = np.clip(lo + rng.uniform(0.0, 1.0, (n, lo.size)) * span, lo, lo + span)
        return np.stack([encode(codec, p) for p in postures])
    if kind == "noisy":
        weights = init_consistent(1, n, codec, seed=seed).weights
        return np.clip(weights + rng.normal(0.0, draw(st.sampled_from([1e-6, 1e-3, 0.05])),
                                            weights.shape), 0.0, 1.0)
    return rng.uniform(0.0, 1.0, (n, codec.width))


class TestDecodeMatrix:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        codec=codecs(),
        grid=st.floats(0.05, 2.0),
        bandwidth=st.one_of(st.just("auto"), st.floats(0.05, 5.0)),
    )
    def test_equals_full_grid_decoder(self, data, codec, grid, bandwidth):
        vectors = data.draw(activation_rows(codec))
        cfg = KdeConfig(bandwidth_h=bandwidth, grid_resolution=grid)
        angles, scored = decode_recording(codec, vectors, cfg)
        assert angles.tobytes() == reference_decode(codec, vectors, cfg).tobytes()
        for samples, h, points, dens in scored:
            assert dens.tobytes() == kde_density(samples, h, points).tobytes()

    def test_auto_bandwidth_is_silverman_per_row(self):
        # "auto" applies Silverman's rule to each row's unsorted candidates
        # bit for bit as silverman_bandwidth does.  Candidate counts here run
        # past 51, 70 and 79, where numpy's int64 ** -0.2 and Python's
        # int ** -0.2 differ in the last bit.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 60), (JointSpec("j", -90.0, 90.0),))
        rng = np.random.default_rng(0)
        vectors = rng.uniform(0.0, 1.0, (300, codec.width))
        vectors *= rng.uniform(0.0, 1.0, vectors.shape) < rng.uniform(0.0, 1.0, (300, 1))
        cfg = KdeConfig(bandwidth_h="auto")
        expected = {}
        for seg in vectors:
            cands = np.array(reference_candidates("gaussian", codec.per_dof[0], seg.tolist(),
                                                  cfg.activation_floor))
            if cands.size:
                h = silverman_bandwidth(cands, floor=cfg.grid_resolution)
                expected.setdefault(np.sort(cands).tobytes(), set()).add(h)
        _, scored = decode_recording(codec, vectors, cfg)
        assert len({samples.size for samples, *_ in scored}) > 50
        for samples, h, _, _ in scored:
            assert float(h) in expected[samples.tobytes()]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), codec=codecs(families=("linear", "sigmoid", "gaussian")))
    def test_candidates_are_scalar_rules(self, data, codec):
        # Values and order, bit for bit: "auto" takes the spread of the
        # unsorted candidates.
        vectors = data.draw(activation_rows(codec))
        floor = KdeConfig().activation_floor
        for d, params in enumerate(codec.per_dof):
            segments = codec.segment(vectors, d)
            values, mask = params.candidates(segments, floor)
            assert values.shape == mask.shape and values.shape[0] == len(segments)
            for row, seg in enumerate(segments.tolist()):
                expected = np.array(reference_candidates(codec.family, params, seg, floor))
                assert values[row][mask[row]].tobytes() == expected.tobytes()

    def test_all_densities_underflow_to_grid_start(self):
        # Every candidate of the falling sigmoids lies over 100 deg above the
        # range, far beyond the ~38.6 h at which a kernel underflows to 0.
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 2, sigmoid_gain=0.05),
                            (JointSpec("j", 0.0, 10.0),))
        vectors = np.array([[0.0, 0.0, 0.0011, 0.0011]])
        cfg = KdeConfig()
        angles, scored = decode_recording(codec, vectors, cfg)
        assert angles.tobytes() == reference_decode(codec, vectors, cfg).tobytes()
        assert angles[0, 0] == 0.0
        ((samples, _, points, dens),) = scored
        assert samples.min() > 100.0 and points.min() > 0.0 and not dens.any()

    def test_subnormal_kernels_are_not_skipped(self):
        # Both rising sigmoids put their candidate at 10.39 deg, 38.59
        # bandwidths above the range end: the kernel terms there lie in
        # (-746, -744.5), so exp gives nonzero subnormals, and only they
        # make 10 deg the argmax.  Terms of the farther points are skipped.
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 2), (JointSpec("j", 0.0, 10.0),))
        rising = codec.per_dof[0].offsets[:2]
        vectors = np.array([[*(1.0 / (1.0 + math.exp(o - 10.39)) for o in rising), 0.0, 0.0]])
        cfg = KdeConfig(bandwidth_h=0.39 / 38.59)
        angles, scored = decode_recording(codec, vectors, cfg)
        assert angles.tobytes() == reference_decode(codec, vectors, cfg).tobytes()
        assert angles[0, 0] == 10.0
        ((samples, h, points, dens),) = scored
        terms = -0.5 * ((points[:, None] - samples) / h) ** 2
        at_end = points == 10.0
        assert ((terms[at_end] > -746.0) & (terms[at_end] < -744.5)).all()
        assert (terms[~at_end] < -746.0).all()
        assert 0.0 < dens[at_end][0] < np.finfo(float).tiny and not dens[~at_end].any()
        assert dens.tobytes() == kde_density(samples, h, points).tobytes()

    def test_exact_tie_goes_to_lowest_angle(self):
        # The peak of the curve at 2.5 deg yields candidates {2.5, 2.5},
        # halfway between the grid points 2 and 3.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), (JointSpec("j", 0.0, 10.0),))
        vectors = np.array([[0.0, 1.0, 0.0, 0.0, 0.0]])
        cfg = KdeConfig(grid_resolution=1.0)
        angles, scored = decode_recording(codec, vectors, cfg)
        ((_, _, points, dens),) = scored
        assert dens[points == 2.0] == dens[points == 3.0]
        assert angles[0, 0] == 2.0 == reference_decode(codec, vectors, cfg)[0, 0]

    def test_undecodable_dof_is_nan(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), TWO_JOINTS)
        vectors = np.stack([encode(codec, [-21.3, 12.7])] * 2)
        vectors[1, codec.layout[1][0]:] = 0.0
        angles = decode_matrix(codec, vectors)
        assert not np.isnan(angles[0]).any()
        assert not np.isnan(angles[1, 0]) and np.isnan(angles[1, 1])
        assert angles[0, 0] == angles[1, 0]

    @pytest.mark.parametrize("family", ["normalized", "linear", "sigmoid", "gaussian"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_activation_rejected(self, family, bad):
        # A NaN used to decode as "no curve passed the floor", or to NaN
        # for the normalized family.
        spec = CodecSpec(family) if family == "normalized" else CodecSpec(family, "fixed_count", 5)
        codec = build_codec(spec, TWO_JOINTS)
        vectors = np.stack([encode(codec, [-21.3, 12.7])] * 3)
        col = codec.layout[1][0]
        vectors[2, col] = bad
        match = rf"vectors must be finite, got {bad:g} at \(2, {col}\)"
        with pytest.raises(ValueError, match=match):
            decode_matrix(codec, vectors)
        with pytest.raises(ValueError, match=rf"at \(0, {col}\)"):
            decode_matrix(codec, vectors[2:])

    def test_wrong_shape(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        with pytest.raises(ValueError):
            decode_matrix(codec, np.zeros(10))
        with pytest.raises(ValueError):
            decode_matrix(codec, np.zeros((3, 11)))


def ramp_codec(n: int = 16) -> PopulationCodec:
    """One joint over [0, 64] with ``n`` equal ramps ``y = x / 256``: the
    activation ``x / 256`` gives a ramp the candidate ``x`` exactly, for any
    ``x`` in (0.256, 256], so rows can place candidates where they like."""
    ramps = LinearParams((2.0**-8,) * n, (0.0,) * n)
    return PopulationCodec(CodecSpec("linear", "fixed_count", n), (JointSpec("j", 0.0, 64.0),), (ramps,))


def split_distance(h: float, step: float, m: int) -> float:
    """About the distance in degrees at which two candidates' windows stop
    touching and they fall into separate clusters."""
    return 2.0 * (math.sqrt(2.0 * h * h * math.log(m)) + 2.0 * step) + step


@st.composite
def bound_row(draw, h: float, step: float):
    """One row's candidates near the edges of the cluster bound."""
    kind = draw(st.sampled_from(["clusters", "equal", "near-lb", "beyond"]))
    if kind == "clusters":
        # Clusters of chosen sizes, around the split distance apart.
        sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        split = split_distance(h, step, sum(sizes))
        x, row = draw(st.floats(1.0, 10.0)), []
        for size in sizes:
            spread = draw(st.floats(0.0, 0.5)) * h
            row.extend(x + spread * np.arange(size))
            x = row[-1] + split * draw(st.floats(0.7, 1.4))
        return row
    if kind == "equal":
        # Equal clusters of coincident candidates on grid points: their
        # densities can tie exactly, and the lowest angle must win.
        # With three or more, a middle one gets the most from its neighbours.
        size, count = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        gap = math.ceil(split_distance(h, step, size * count) * draw(st.floats(1.0, 2.0)) / step) * step
        x = draw(st.integers(4, 12)) * step
        return [x + k * gap for k in range(count) for _ in range(size)]
    if kind == "near-lb":
        # A cluster {a - d, a, a + d} whose density at a, the LB point, sums
        # to 2 within a few ulps, and a pair at b, whose bound sums to 2 once
        # its other terms vanish: the bound lies within a few ulps of LB.
        ulps = draw(st.integers(-8, 8))
        a = 4.0 + draw(st.integers(0, 8)) * step
        d = h * math.sqrt(2.0 * math.log(2.0 / (1.0 + ulps * 2.0**-52)))
        b = min(math.ceil((a + d + max(split_distance(h, step, 5), 40.0 * h)) / step) * step, 64.0)
        return [a - d, a, a + d, b, b]
    # Clusters past the range end, where their terms at the grid are
    # subnormal or underflow to 0, alone or beside one inside the range.
    row = []
    for _ in range(draw(st.integers(1, 3))):
        x = 64.0 + draw(st.floats(37.0, 40.0)) * h
        row.extend([x] * draw(st.integers(1, 3)))
    if draw(st.booleans()):
        row.append(draw(st.floats(1.0, 63.0)))
    return row


class TestClusterBound:
    """The pruning of clusters that cannot hold the argmax keeps every bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        step=st.sampled_from([0.25, 0.5, 1.0]),
        h=st.sampled_from([0.05, 0.3, 1.0, 2.5]),
        auto=st.booleans(),
    )
    def test_equals_full_grid_decoder_near_the_bound(self, data, step, h, auto):
        rows = data.draw(st.lists(bound_row(h, step), min_size=1, max_size=6))
        codec = ramp_codec()
        vectors = np.zeros((len(rows), codec.width))
        for i, row in enumerate(rows):
            vectors[i, :len(row)] = np.asarray(row) / 256.0
        assert (vectors <= 1.0).all()
        cfg = KdeConfig(bandwidth_h="auto" if auto else h, grid_resolution=step)
        angles, scored = decode_recording(codec, vectors, cfg)
        assert angles.tobytes() == reference_decode(codec, vectors, cfg).tobytes()
        for samples, h_row, points, dens in scored:
            assert dens.tobytes() == kde_density(samples, h_row, points).tobytes()

    def test_pruning_scores_at_most_a_third_of_the_windows(self, babble_short):
        # Valid Gaussian codes: each active bump's true branch agrees with
        # the others, and its mirror lies alone.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_short.joints)
        vectors = encode(codec, babble_short.samples)
        cfg = KdeConfig()
        _, scored = decode_recording(codec, vectors, cfg)
        pruned = sum(np.unique(points).size for _, _, points, _ in scored)
        unpruned = 0
        for d, (joint, params) in enumerate(zip(codec.joints, codec.per_dof)):
            grid = joint.grid(cfg.grid_resolution)
            step = (grid[-1] - grid[0]) / (grid.size - 1)
            for seg in codec.segment(vectors, d).tolist():
                cands = np.sort(reference_candidates("gaussian", params, seg, cfg.activation_floor))
                # Every candidate's window, as the decoder set it before pruning.
                pos = (cands - grid[0]) / step
                delta = np.abs(grid[np.clip(np.rint(pos), 0, grid.size - 1).astype(int)] - cands).min()
                h = cfg.bandwidth_h
                reach = (math.sqrt(2.0 * h * h * math.log(cands.size) + delta * delta) + 2.0 * step) / step
                covered = np.zeros(grid.size, dtype=bool)
                for lo, hi in zip(np.ceil(pos - reach), np.floor(pos + reach)):
                    covered[max(int(lo), 0):max(int(hi) + 1, 0)] = True
                unpruned += int(covered.sum())
        assert len(scored) == vectors.shape[0] * len(codec.joints)
        assert 3 * pruned <= unpruned

    @pytest.mark.parametrize("family", ["linear", "sigmoid", "gaussian"])
    @pytest.mark.parametrize("bandwidth", [5e-324, 1e-300, 1e300, float(np.finfo(float).max), "auto"])
    @pytest.mark.parametrize("grid", [0.05, 1e300])
    def test_no_runtime_warning_at_any_accepted_config(self, family, bandwidth, grid):
        # A bandwidth of 1e-300 or 1e300 used to overflow a multiply.
        codec = build_codec(CodecSpec(family, "fixed_count", 5), TWO_JOINTS)
        rng = np.random.default_rng(3)
        vectors = np.concatenate([
            encode(codec, [[-21.3, 12.7], [29.9, -10.0]]),
            init_consistent(2, 2, codec, seed=1).weights,
            rng.uniform(0.0, 1.0, (3, codec.width)),
        ])
        cfg = KdeConfig(bandwidth_h=bandwidth, grid_resolution=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            angles = decode_matrix(codec, vectors, cfg)
            expected = reference_decode(codec, vectors, cfg)
        assert angles.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_rows_decode_to_no_rows(self, family):
        # Population families used to fail reshaping zero rows.
        spec = CodecSpec(family) if family == "normalized" else CodecSpec(family, "fixed_count", 5)
        codec = build_codec(spec, TWO_JOINTS)
        for vectors in (np.empty((0, codec.width)), encode(codec, np.empty((0, 2)))):
            angles = decode_matrix(codec, vectors)
            assert angles.shape == (0, 2) and angles.dtype == float


@st.composite
def multi_joint_codecs(draw):
    """A population codec over 2-5 joints of different ranges, so that their
    grids differ in size, under either setup: fixed-offset banks then differ
    in curve count from one DoF to the next."""
    family = draw(st.sampled_from(("linear", "sigmoid", "gaussian")))
    setup = draw(st.sampled_from(SETUPS))
    n = draw(st.integers(2, 10) if setup == "fixed_count" else st.floats(4.0, 40.0))
    spans = draw(st.lists(st.floats(5.0, 180.0), min_size=2, max_size=5, unique=True))
    lows = draw(st.lists(st.floats(-180.0, 90.0), min_size=len(spans), max_size=len(spans)))
    joints = tuple(JointSpec(f"j{d}", lo, lo + span) for d, (lo, span) in enumerate(zip(lows, spans)))
    return build_codec(CodecSpec(family, setup, n), joints)


def batch_recording(codec, vectors, cfg, cap):
    """``decode_matrix`` under a batch cap of ``cap`` candidates, plus the
    DoFs and the candidate count of every batch it decoded."""
    batches = []
    decode_batch = decode_mod._decode_batch

    def recording(codec, batch, *args):
        batches.append(([d for d, _, _ in batch], sum(int(mask.sum()) for _, _, mask in batch)))
        return decode_batch(codec, batch, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode_mod, "_BATCH_CANDIDATES", cap)
        mp.setattr(decode_mod, "_decode_batch", recording)
        return decode_matrix(codec, vectors, cfg), batches


class TestBatches:
    """DoFs decoded together in a batch decode as each does alone."""

    @pytest.mark.parametrize("cap", [1, 64])
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        codec=multi_joint_codecs(),
        grid=st.floats(0.1, 2.0),
        bandwidth=st.one_of(st.just("auto"), st.floats(0.05, 5.0)),
    )
    def test_equals_each_dof_under_its_own_codec(self, cap, data, codec, grid, bandwidth):
        vectors = data.draw(activation_rows(codec))
        cfg = KdeConfig(bandwidth_h=bandwidth, grid_resolution=grid)
        angles, batches = batch_recording(codec, vectors, cfg, cap)
        assert [d for dofs, _ in batches for d in dofs] == list(range(len(codec.joints)))
        alone = [
            decode_matrix(PopulationCodec(codec.spec, (joint,), (params,)), codec.segment(vectors, d), cfg)
            for d, (joint, params) in enumerate(zip(codec.joints, codec.per_dof))
        ]
        assert angles.tobytes() == np.concatenate(alone, axis=1).tobytes()

    def test_batches_pool_split_and_stand_alone(self):
        # Under a cap of 1 each DoF is a batch of its own, under the two DoFs'
        # total they share one, and one below the first DoF's count leaves it
        # alone past the cap.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), TWO_JOINTS)
        vectors = init_consistent(2, 2, codec, seed=0).weights
        cfg = KdeConfig()
        expected, batches = batch_recording(codec, vectors, cfg, 1 << 13)
        ((_, total),) = batches
        first = int(codec.per_dof[0].candidates(codec.segment(vectors, 0), cfg.activation_floor)[1].sum())
        assert 1 < first < total
        for cap, shape in [(1, [[0], [1]]), (total, [[0, 1]]), (first - 1, [[0], [1]])]:
            angles, batches = batch_recording(codec, vectors, cfg, cap)
            assert [dofs for dofs, _ in batches] == shape
            assert angles.tobytes() == expected.tobytes()

    def test_all_underflow_goes_to_its_own_grid_start(self):
        # As test_all_densities_underflow_to_grid_start, on two joints in one
        # batch: each DoF's full-grid argmax is the start of its own grid.
        joints = (JointSpec("a", 0.0, 10.0), JointSpec("b", 20.0, 30.0))
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 2, sigmoid_gain=0.05), joints)
        vectors = np.array([[0.0, 0.0, 0.0011, 0.0011] * 2])
        cfg = KdeConfig()
        angles, batches = batch_recording(codec, vectors, cfg, 1 << 13)
        assert [dofs for dofs, _ in batches] == [[0, 1]]
        assert angles.tolist() == [[0.0, 20.0]]
        assert angles.tobytes() == reference_decode(codec, vectors, cfg).tobytes()

    def test_peak_memory_of_the_cli_decode(self):
        # 600 valid Gaussian-10 codes, the benchmark's CLI decode input.  The
        # per-DoF decoder this replaced peaked at 1.56 MiB here; batches are
        # capped so that a large decode keeps about that.
        ds = generate_babble(BabbleConfig(seed=0, duration_s=12.0))
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), ds.joints)
        vectors = encode_dataset(codec, ds)
        tracemalloc.start()
        try:
            decode_matrix(codec, vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 1.56 * 2**20
