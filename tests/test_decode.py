import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import posturemap.decode as decode_mod
from posturemap.codec import CodecSpec, build_codec, codec_from_json, codec_to_json, encode
from posturemap.dataset import JointSpec
from posturemap.decode import (
    KdeConfig,
    decode_matrix,
    decode_population,
    decode_vector,
    invert_gaussian,
    invert_linear,
    invert_sigmoid,
    kde_density,
    silverman_bandwidth,
)
from posturemap.errors import OutOfRangeError, SaturationError, UndecodableError
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
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            KdeConfig(**{field: bad})


class TestInvertLinear:
    def test_midpoint_of_full_ramp(self):
        # Ramp rising from 0 at -40 to 1 at 30: y = (x + 40) / 70.
        a, b = 1.0 / 70.0, 40.0 / 70.0
        assert invert_linear(a, b, 0.5) == pytest.approx(-5.0, abs=1e-12)

    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_saturated(self, y):
        with pytest.raises(SaturationError):
            invert_linear(1.0 / 70.0, 40.0 / 70.0, y)

    def test_degenerate_ramp(self):
        with pytest.raises(SaturationError):
            invert_linear(0.0, 0.0, 0.5)

    def test_roundtrip(self):
        codec = build_codec(CodecSpec("linear", "fixed_count", 10), RANGE_JOINT)
        params = codec.per_dof[0]
        x = 12.3
        acts = params.activations(np.array(x))
        for a, b, y in zip(params.slopes, params.intercepts, acts):
            if 0.0 < y < 1.0:
                assert invert_linear(a, b, float(y)) == pytest.approx(x, abs=1e-12)

    def test_encode_of_inverse_matches(self, rng):
        a, b = 1.0 / 70.0, 40.0 / 70.0
        for y in rng.uniform(0.01, 0.99, 200):
            x = invert_linear(a, b, float(y))
            assert a * x + b == pytest.approx(y, abs=1e-12)


class TestInvertSigmoid:
    def test_inflection(self):
        assert invert_sigmoid(-12.5, 1, 0.5) == pytest.approx(-12.5, abs=1e-12)

    def test_forward_then_invert(self):
        y = 1.0 / (1.0 + math.exp(-2.0))
        assert y == pytest.approx(0.88080, abs=1e-5)
        assert invert_sigmoid(0.0, 1, y) == pytest.approx(2.0, abs=1e-9)

    def test_negative_orientation(self):
        y = 1.0 / (1.0 + math.exp(3.0))
        assert invert_sigmoid(5.0, -1, y) == pytest.approx(8.0, abs=1e-9)

    def test_unreliable_band(self):
        with pytest.raises(SaturationError):
            invert_sigmoid(0.0, 1, 0.999999999)
        with pytest.raises(SaturationError):
            invert_sigmoid(0.0, 1, 1e-12)

    def test_roundtrip_within_band(self, rng):
        for y in rng.uniform(0.002, 0.998, 300):
            x = invert_sigmoid(3.0, 1, float(y))
            back = 1.0 / (1.0 + math.exp(3.0 - x))
            assert back == pytest.approx(y, abs=1e-9)

    def test_gain(self):
        gain = 2.0
        x_true = 4.0
        y = 1.0 / (1.0 + math.exp(gain * (1.0 - x_true)))
        assert invert_sigmoid(1.0, 1, y, gain=gain) == pytest.approx(x_true, abs=1e-9)


class TestInvertGaussian:
    def test_peak(self):
        lo, hi = invert_gaussian(3.0, 7.0, 1.0)
        assert lo == hi == pytest.approx(3.0)

    def test_one_sigma_branches(self):
        sigma = 70.0 / 9.0
        lo, hi = invert_gaussian(0.0, sigma, math.exp(-0.5))
        assert lo == pytest.approx(-sigma, rel=1e-9)
        assert hi == pytest.approx(sigma, rel=1e-9)

    def test_branches_symmetric_about_mu(self, rng):
        mu, sigma = -4.0, 5.0
        for y in rng.uniform(0.01, 1.0, 100):
            lo, hi = invert_gaussian(mu, sigma, float(y))
            assert (lo + hi) / 2.0 == pytest.approx(mu, abs=1e-9)

    def test_both_branches_reencode(self, rng):
        mu, sigma = 2.0, 6.0
        for y in rng.uniform(0.01, 1.0, 100):
            for x in invert_gaussian(mu, sigma, float(y)):
                back = math.exp(-((x - mu) ** 2) / (2 * sigma**2))
                assert back == pytest.approx(y, abs=1e-9)

    def test_above_peak_rejected(self):
        with pytest.raises(OutOfRangeError):
            invert_gaussian(0.0, 5.0, 1.01)

    def test_below_floor_rejected(self):
        with pytest.raises(SaturationError):
            invert_gaussian(0.0, 5.0, 1e-5)


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

    def test_silverman_formula(self):
        samples = np.array([1.0, 2.0, 4.0, 8.0])
        expected = 1.06 * samples.std() * 4 ** (-0.2)
        assert silverman_bandwidth(samples, floor=0.1) == pytest.approx(expected, rel=1e-12)
        assert silverman_bandwidth(np.array([3.0, 3.0]), floor=0.25) == 0.25


class TestDecodePopulation:
    def test_consistent_roundtrip_gaussian(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        v = encode(codec, [-5.0])
        assert decode_population(codec, v) == pytest.approx(-5.0, abs=0.1)

    def test_all_zero_segment_undecodable(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        with pytest.raises(UndecodableError):
            decode_population(codec, np.zeros(10))

    def test_blended_vector_lands_between(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        blend = 0.5 * (encode(codec, [-20.0]) + encode(codec, [10.0]))
        x = decode_population(codec, blend)
        assert -20.0 <= x <= 10.0

    def test_normalized_affine_inverse(self):
        codec = build_codec(CodecSpec("normalized"), RANGE_JOINT)
        assert decode_population(codec, [0.5]) == pytest.approx(-5.0, abs=1e-12)

    @pytest.mark.parametrize("family", ["linear", "sigmoid", "gaussian"])
    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_roundtrip_sweep(self, family, n):
        codec = build_codec(CodecSpec(family, "fixed_count", n), RANGE_JOINT)
        cfg = KdeConfig()
        xs = -40.0 + (np.arange(60) + 0.5) * (70.0 / 60)
        for x in xs:
            v = encode(codec, [x])
            assert decode_population(codec, v, cfg) == pytest.approx(x, abs=cfg.grid_resolution)

    def test_wrong_segment_width(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        with pytest.raises(ValueError):
            decode_population(codec, np.zeros(9))

    @pytest.mark.parametrize("dof", [-1, 1])
    def test_dof_outside_joints_rejected(self, dof):
        # dof=-1 used to pick the last joint silently.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        v = encode(codec, [-5.0])
        with pytest.raises(ValueError, match=r"dof must lie in 0\.\.0, got"):
            decode_population(codec, v, dof=dof)

    @pytest.mark.parametrize("setup,n", [("fixed_count", 5), ("fixed_offset", 2.5)])
    def test_linear_range_ends(self, setup, n):
        # Every ramp saturates at a range end; the ones reading exactly 1 name it.
        codec = build_codec(CodecSpec("linear", setup, n), (JointSpec("j", 0.0, 10.0),))
        for x in (0.0, 10.0):
            assert decode_population(codec, encode(codec, [x])) == x

    @pytest.mark.xfail(strict=True, reason=(
        "a sigmoid activation within rounding of 1 still yields a candidate, "
        "up to ~0.7 deg off, which pulls the KDE argmax"))
    def test_sigmoid_near_saturation_outlier(self):
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 6), (JointSpec("j", -30.0, 120.0),))
        v = encode(codec, [-29.0])
        assert decode_population(codec, v) == pytest.approx(-29.0, abs=0.1)

    def test_ties_resolve_to_lowest_angle(self):
        # Two coincident candidate piles via a symmetric gaussian segment:
        # only the center curve active at peak gives candidates {mu, mu}.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), RANGE_JOINT)
        seg = encode(codec, [-5.0])
        x = decode_population(codec, seg)
        assert x == pytest.approx(-5.0, abs=0.1)


class TestDecodeVector:
    def test_posture_roundtrip(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_short.joints)
        posture = babble_short.samples[100]
        v = encode(codec, posture)
        decoded = decode_vector(codec, v)
        np.testing.assert_allclose(decoded, posture, atol=0.1)

    def test_normalized_identity(self, babble_short):
        codec = build_codec(CodecSpec("normalized"), babble_short.joints)
        posture = babble_short.samples[10]
        v = encode(codec, posture)
        np.testing.assert_allclose(decode_vector(codec, v), posture, atol=1e-9)

    def test_failure_names_dof(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_short.joints)
        v = encode(codec, babble_short.samples[0]).copy()
        start, stop = codec.layout[4]
        v[start:stop] = 0.0
        with pytest.raises(UndecodableError, match="DoF 4"):
            decode_vector(codec, v)

    def test_wrong_width(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        with pytest.raises(ValueError):
            decode_vector(codec, np.zeros(11))

    def test_non_unit_gain_codec_from_json(self):
        built = build_codec(CodecSpec("sigmoid", "fixed_count", 10, sigmoid_gain=0.5), TWO_JOINTS)
        codec = codec_from_json(json.loads(json.dumps(codec_to_json(built))))
        posture = np.array([-21.3, 12.7])
        decoded = decode_vector(codec, encode(codec, posture))
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
        decoded = decode_vector(codec, encode(codec, posture), cfg)
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
                out[t, d] = joint.clamp(params.min_deg + float(seg[0]) * (params.max_deg - params.min_deg))
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

    def recording(samples, h, grid):
        for rows, idx, dens in window_densities(samples, h, grid):
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
        match = rf"activation {bad:g} at index \[2, {col}\] is not finite"
        with pytest.raises(OutOfRangeError, match=match):
            decode_matrix(codec, vectors)
        with pytest.raises(OutOfRangeError, match=rf"index \[{col}\]"):
            decode_vector(codec, vectors[2])
        with pytest.raises(OutOfRangeError, match=r"index \[0\]"):
            decode_population(codec, codec.segment(vectors[2], 1), dof=1)

    def test_wrong_shape(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        with pytest.raises(ValueError):
            decode_matrix(codec, np.zeros(10))
        with pytest.raises(ValueError):
            decode_matrix(codec, np.zeros((3, 11)))
