import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posturemap.codec import (
    FAMILIES,
    MAX_CURVES_PER_DOF,
    SETUPS,
    CodecSpec,
    build_codec,
    codec_from_json,
    codec_to_json,
    encode,
    encode_dataset,
    load_codec,
    save_codec,
)
from posturemap.dataset import Dataset, JointSpec
from posturemap.errors import OutOfRangeError

RANGE_JOINT = (JointSpec("j", -40.0, 30.0),)


@st.composite
def codecs(draw, families=FAMILIES):
    """A codec of one of ``families`` under either setup, over one to three
    random joint ranges."""
    family = draw(st.sampled_from(families))
    setup = draw(st.sampled_from(SETUPS))
    n = draw(st.integers(2, 12) if setup == "fixed_count" else st.floats(2.0, 40.0))
    joints = tuple(
        JointSpec(f"j{d}", lo, lo + span)
        for d, (lo, span) in enumerate(draw(st.lists(
            st.tuples(st.floats(-180.0, 90.0), st.floats(5.0, 180.0)),
            min_size=1, max_size=3,
        )))
    )
    gain = draw(st.sampled_from([1.0, 0.5, 2.0]))
    return build_codec(CodecSpec(family, setup, n, sigmoid_gain=gain), joints)


def reference_activations(family, params, x):
    """One bank's activations at angles ``x`` by its closed form, from the
    parameter tuples, as the codec computed them before it held arrays."""
    x = np.asarray(x, dtype=float)[..., None]
    if family == "normalized":
        return (x - params.min_deg) / (params.max_deg - params.min_deg)
    if family == "linear":
        return np.clip(x * np.array(params.slopes) + np.array(params.intercepts), 0.0, 1.0)
    if family == "sigmoid":
        s = np.array(params.sgns, dtype=float)
        return 1.0 / (1.0 + np.exp(np.clip(params.gain * s * (np.array(params.offsets) - x), -500.0, 500.0)))
    d = x - np.array(params.centers)
    return np.exp(-(d * d) / (2.0 * params.sigma**2))


class TestCodecSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            CodecSpec("triangular")

    def test_count_below_two(self):
        with pytest.raises(ValueError):
            CodecSpec("gaussian", "fixed_count", 1)

    def test_non_integer_count(self):
        with pytest.raises(ValueError):
            CodecSpec("linear", "fixed_count", 2.5)

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            CodecSpec("sigmoid", "fixed_offset", 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("setup", SETUPS)
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_n_or_offset(self, family, setup, bad):
        with pytest.raises(ValueError) as info:
            CodecSpec(family, setup, bad)
        assert str(info.value) == f"n_or_offset must be a finite number, got {bad!r}"

    def test_normalized_ignores_setup(self):
        codec = build_codec(CodecSpec("normalized", "fixed_count", 10), RANGE_JOINT)
        assert codec.width == 1


class TestBuildCodec:
    def test_gaussian_sigma_formula(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        params = codec.per_dof[0]
        assert params.sigma == pytest.approx(70.0 / 9.0, rel=1e-12)
        assert params.sigma == pytest.approx(7.7778, abs=1e-4)
        assert len(params.centers) == 10
        assert params.centers[0] == pytest.approx(-40.0)
        assert params.centers[-1] == pytest.approx(30.0)

    def test_sigmoid_offset_spacing(self):
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 10), RANGE_JOINT)
        params = codec.per_dof[0]
        rising = sorted(o for o, s in zip(params.offsets, params.sgns) if s > 0)
        gaps = np.diff(rising)
        np.testing.assert_allclose(gaps, 7.0, atol=1e-12)
        assert len(params.offsets) == 20

    def test_linear_has_both_orientations(self):
        codec = build_codec(CodecSpec("linear", "fixed_count", 10), RANGE_JOINT)
        params = codec.per_dof[0]
        assert params.width == 20
        assert sum(1 for a in params.slopes if a > 0) == 10
        assert sum(1 for a in params.slopes if a < 0) == 10

    def test_fixed_count_width_is_range_independent(self):
        joints = (JointSpec("narrow", 0.0, 10.0), JointSpec("wide", -180.0, 180.0))
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 8), joints)
        assert codec.per_dof[0].width == codec.per_dof[1].width == 8

    def test_fixed_offset_count(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_offset", 7.0), RANGE_JOINT)
        assert codec.per_dof[0].width == math.ceil(70.0 / 7.0) + 1
        codec = build_codec(CodecSpec("gaussian", "fixed_offset", 8.0), RANGE_JOINT)
        assert codec.per_dof[0].width == math.ceil(70.0 / 8.0) + 1

    def test_fixed_offset_anchor_overshoot_is_bounded(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_offset", 8.0), RANGE_JOINT)
        params = codec.per_dof[0]
        assert params.centers[0] == -40.0
        assert params.centers[-1] <= 30.0 + params.sigma

    def test_total_widths(self, babble_60s):
        joints = babble_60s.joints
        assert build_codec(CodecSpec("gaussian", "fixed_count", 10), joints).width == 130
        assert build_codec(CodecSpec("linear", "fixed_count", 10), joints).width == 260
        assert build_codec(CodecSpec("sigmoid", "fixed_count", 10), joints).width == 260
        assert build_codec(CodecSpec("normalized"), joints).width == 13

    def test_empty_joints(self):
        with pytest.raises(ValueError):
            build_codec(CodecSpec("gaussian"), ())

    @pytest.mark.parametrize("family", ["linear", "sigmoid", "gaussian"])
    @pytest.mark.parametrize("setup,n", [
        ("fixed_offset", 1e-9),
        ("fixed_offset", 1e-320),
        ("fixed_offset", 70.0 / MAX_CURVES_PER_DOF),
        ("fixed_count", 10**9),
        ("fixed_count", MAX_CURVES_PER_DOF + 1),
    ])
    def test_oversized_bank_rejected_before_allocating(self, family, setup, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"exceed the limit of {MAX_CURVES_PER_DOF}"):
                build_codec(CodecSpec(family, setup, n), RANGE_JOINT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("family", ["linear", "sigmoid", "gaussian"])
    def test_largest_bank_builds(self, family):
        codec = build_codec(CodecSpec(family, "fixed_count", MAX_CURVES_PER_DOF), RANGE_JOINT)
        assert codec.width == MAX_CURVES_PER_DOF * (1 if family == "gaussian" else 2)

    @pytest.mark.parametrize("family", ["linear", "sigmoid", "gaussian"])
    @pytest.mark.parametrize("setup,n,joint", [
        ("fixed_offset", 1e308, RANGE_JOINT[0]),
    ])
    def test_anchors_past_float_range_rejected(self, family, setup, n, joint):
        # A spacing of 1e308 used to build a linear bank with a NaN intercept.
        # (A joint whose range overflows is rejected by JointSpec itself.)
        with pytest.raises(ValueError, match="overflow the float range"):
            build_codec(CodecSpec(family, setup, n), (joint,))


class TestEncode:
    def test_sigmoid_half_at_inflection(self):
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 10), RANGE_JOINT)
        params = codec.per_dof[0]
        x = params.offsets[3]
        acts = params.activations(np.array(x))
        assert acts[3] == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_peak_and_one_sigma(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        params = codec.per_dof[0]
        mu = params.centers[4]
        assert params.activations(np.array(mu))[4] == pytest.approx(1.0, abs=1e-12)
        at_sigma = params.activations(np.array(mu + params.sigma))[4]
        assert at_sigma == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert at_sigma == pytest.approx(0.60653, abs=1e-5)

    def test_normalized_endpoints(self):
        codec = build_codec(CodecSpec("normalized"), RANGE_JOINT)
        assert encode(codec, [30.0])[0] == pytest.approx(1.0)
        assert encode(codec, [-40.0])[0] == pytest.approx(0.0)
        assert encode(codec, [-5.0])[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("family", ["normalized", "linear", "sigmoid", "gaussian"])
    def test_activations_in_unit_interval(self, family, rng):
        spec = CodecSpec(family) if family == "normalized" else CodecSpec(family, "fixed_count", 7)
        codec = build_codec(spec, RANGE_JOINT)
        xs = rng.uniform(-40.0, 30.0, 500)
        acts = codec.per_dof[0].activations(xs)
        assert np.all(acts >= 0.0) and np.all(acts <= 1.0)

    def test_gaussian_symmetry(self, rng):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 9), RANGE_JOINT)
        params = codec.per_dof[0]
        mu = params.centers[4]
        for d in rng.uniform(0.0, 20.0, 50):
            left = params.activations(np.array(mu - d))[4]
            right = params.activations(np.array(mu + d))[4]
            assert left == pytest.approx(right, rel=1e-12)

    @pytest.mark.parametrize("family", ["linear", "sigmoid"])
    def test_per_curve_monotonicity(self, family):
        codec = build_codec(CodecSpec(family, "fixed_count", 6), RANGE_JOINT)
        xs = np.linspace(-40.0, 30.0, 400)
        acts = codec.per_dof[0].activations(xs)
        for k in range(acts.shape[1]):
            diffs = np.diff(acts[:, k])
            assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    def test_encode_is_pure(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), RANGE_JOINT)
        a = encode(codec, [3.0])
        b = encode(codec, [3.0])
        assert np.array_equal(a, b)

    def test_nan_posture_rejected(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), RANGE_JOINT)
        with pytest.raises(OutOfRangeError, match="nan.*'j'"):
            encode(codec, [np.nan])

    def test_nan_dataset_row_rejected(self):
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 5), RANGE_JOINT)
        ds = Dataset(RANGE_JOINT, np.zeros((3, 1)))
        # Dataset rejects NaN itself; bypass it to reach the check in encode.
        object.__setattr__(ds, "samples", np.array([[0.0], [np.nan], [1.0]]))
        with pytest.raises(OutOfRangeError, match="nan.*row 1"):
            encode_dataset(codec, ds)

    def test_strict_out_of_range(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), RANGE_JOINT)
        with pytest.raises(OutOfRangeError, match="'j'"):
            encode(codec, [31.0])

    def test_segment_layout(self, babble_60s):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_60s.joints)
        vec = encode(codec, babble_60s.samples[0])
        assert vec.shape == (130,)
        assert codec.layout[0] == (0, 10)
        assert codec.layout[-1] == (120, 130)
        assert codec.segment(vec, 12).shape == (10,)

    @pytest.mark.parametrize("dof", [-1, 13])
    def test_segment_rejects_a_dof_out_of_range(self, babble_60s, dof):
        # -1 used to give the last DoF's channels, and 13 an IndexError.
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_60s.joints)
        vec = encode(codec, babble_60s.samples[0])
        for call in (lambda: codec.segment(vec, dof), lambda: codec.bank(dof)):
            with pytest.raises(ValueError, match=rf"^dof must lie in 0\.\.12, got {dof}$"):
                call()

    @pytest.mark.parametrize("shape", [(), (1, 1, 1)])
    def test_encode_rejects_other_ranks(self, shape):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), RANGE_JOINT)
        with pytest.raises(ValueError, match=r"postures must be a \(1,\) or \(n, 1\) array"):
            encode(codec, np.zeros(shape))

    @settings(max_examples=200, deadline=None)
    @given(codec=codecs(), data=st.data())
    def test_matrix_encode_is_rowwise_encode(self, codec, data):
        # Bit for bit: one matrix call, the rows one at a time, and the
        # dataset path, with range ends.
        n = data.draw(st.integers(1, 20))
        postures = np.array([
            data.draw(st.lists(
                st.sampled_from([j.min_deg, j.max_deg]) | st.floats(j.min_deg, j.max_deg),
                min_size=n, max_size=n,
            ))
            for j in codec.joints
        ]).T
        matrix = encode(codec, postures)
        assert matrix.shape == (n, codec.width)
        rows = np.stack([encode(codec, p) for p in postures])
        assert matrix.tobytes() == rows.tobytes()
        assert encode_dataset(codec, Dataset(codec.joints, postures)).tobytes() == matrix.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(codec=codecs(), data=st.data())
    def test_all_dof_activations_are_per_dof_activations(self, codec, data):
        # One call over the flat column layout equals each bank's own
        # activations side by side, and those equal the closed forms, bit
        # for bit, in and out of range, for (N, D) and (D,) input; codecs()
        # draws every family, both setups (fixed_offset banks of unequal
        # width) and gains 0.5, 1 and 2.
        n = data.draw(st.integers(1, 20))
        postures = np.array([
            data.draw(st.lists(
                st.sampled_from([j.min_deg, j.max_deg]) | st.floats(j.min_deg - 90.0, j.max_deg + 90.0),
                min_size=n, max_size=n,
            ))
            for j in codec.joints
        ]).T
        per_dof = np.concatenate(
            [params.activations(postures[:, d]) for d, params in enumerate(codec.per_dof)], axis=-1
        )
        assert codec.activations(postures).tobytes() == per_dof.tobytes()
        assert codec.activations(postures[0]).tobytes() == per_dof[0].tobytes()
        closed_forms = np.concatenate([
            reference_activations(codec.family, params, postures[:, d])
            for d, params in enumerate(codec.per_dof)
        ], axis=-1)
        assert per_dof.tobytes() == closed_forms.tobytes()

    def test_encode_dataset_matches_rowwise(self, babble_short):
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 5), babble_short.joints)
        matrix = encode_dataset(codec, babble_short)
        assert matrix.shape == (babble_short.n_samples, codec.width)
        row7 = encode(codec, babble_short.samples[7])
        np.testing.assert_array_equal(matrix[7], row7)

    def test_encode_dataset_joint_mismatch(self, babble_short):
        codec = build_codec(CodecSpec("normalized"), RANGE_JOINT)
        with pytest.raises(ValueError):
            encode_dataset(codec, babble_short)


class TestSerialization:
    @pytest.mark.parametrize("family,setup,n", [
        ("normalized", "fixed_count", 10),
        ("linear", "fixed_count", 10),
        ("sigmoid", "fixed_offset", 7.5),
        ("gaussian", "fixed_count", 5),
    ])
    def test_json_roundtrip_bit_exact(self, family, setup, n, babble_short, tmp_path):
        codec = build_codec(CodecSpec(family, setup, n), babble_short.joints)
        path = tmp_path / "codec.json"
        save_codec(codec, path)
        loaded = load_codec(path)
        assert loaded.spec == codec.spec
        assert loaded.joints == codec.joints
        assert loaded.per_dof == codec.per_dof
        a = encode_dataset(codec, babble_short)
        b = encode_dataset(loaded, babble_short)
        assert np.array_equal(a, b)

    def test_doc_roundtrip_through_text(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 7), babble_short.joints)
        doc = json.loads(json.dumps(codec_to_json(codec)))
        assert codec_from_json(doc).per_dof == codec.per_dof

    @settings(max_examples=150, deadline=None)
    @given(codec=codecs())
    def test_json_roundtrip_is_identity(self, codec):
        doc = codec_to_json(codec)
        assert codec_from_json(doc) == codec
        assert codec_from_json(json.loads(json.dumps(doc))) == codec

    def test_doc_with_strict_key_loads(self, tmp_path):
        # Codec files written while CodecSpec had a "strict" field carry
        # it; encoding is now always strict, so the key is ignored.
        codec = build_codec(CodecSpec("sigmoid", "fixed_offset", 7.5), TWO_JOINTS)
        path = tmp_path / "codec.json"
        path.write_text(json.dumps({**codec_to_json(codec), "strict": True}))
        assert load_codec(path) == codec
        assert "strict" not in codec_to_json(load_codec(path))


TWO_JOINTS = (JointSpec("a", -40.0, 30.0), JointSpec("b", -10.0, 40.0))


class TestJsonValidation:
    @staticmethod
    def doc(family="linear", n=4):
        return codec_to_json(build_codec(CodecSpec(family, "fixed_count", n), TWO_JOINTS))

    def test_per_dof_count_must_match_joints(self):
        doc = self.doc()
        doc["per_dof"] = doc["per_dof"][:1]
        with pytest.raises(ValueError, match="1 per-DoF curve banks for 2 joints"):
            codec_from_json(doc)

    def test_keys_must_match_family(self):
        doc = self.doc("gaussian")
        doc["family"] = "linear"
        with pytest.raises(ValueError, match=r"per_dof\[0\] has keys.*linear"):
            codec_from_json(doc)

    def test_ragged_bank_rejected(self):
        doc = self.doc()
        doc["per_dof"][1]["intercepts"].pop()
        with pytest.raises(ValueError, match="DoF 1: ragged"):
            codec_from_json(doc)

    def test_sigmoid_gain_must_match_spec(self):
        doc = codec_to_json(build_codec(
            CodecSpec("sigmoid", "fixed_count", 6, sigmoid_gain=0.5), TWO_JOINTS))
        doc["sigmoid_gain"] = 1.0
        with pytest.raises(ValueError, match="gain 0.5 differs"):
            codec_from_json(doc)
