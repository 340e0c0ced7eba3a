import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import posturemap.experiment as experiment_mod
import posturemap.plots as plots_mod
from posturemap.codec import CodecSpec, build_codec, encode
from posturemap.dataset import Dataset, JointSpec
from posturemap.decode import decode_matrix
from posturemap.kinematics import KinematicChain, arm_points
from posturemap.plots import (
    plot_posture_grid,
    plot_qe_bars,
    plot_tuning_curves,
    plot_update_drift,
)
from posturemap.som import SomMap, init_consistent
from posturemap.svg import Frame, SvgCanvas

RANGE_JOINT = (JointSpec("j", -40.0, 30.0),)


def assert_well_formed(xml_text: str):
    root = ET.fromstring(xml_text)
    assert root.tag.endswith("svg")
    # Self-contained: no hrefs or external resource references.
    assert "href" not in xml_text
    assert xml_text.count("http") == xml_text.count("http://www.w3.org/2000/svg")


class TestSvgCanvas:
    def test_document_structure(self):
        c = SvgCanvas(100, 50)
        c.line(0, 0, 10, 10)
        c.circle(5, 5, 2)
        c.rect(1, 1, 8, 8)
        c.text(2, 2, "label <&>")
        c.polyline([(0, 0), (1, 2), (3, 1)])
        xml = c.to_xml()
        assert_well_formed(xml)
        assert "label" in xml and "&lt;&amp;&gt;" in xml

    def test_save(self, tmp_path):
        c = SvgCanvas(10, 10)
        c.save(tmp_path / "x.svg")
        assert_well_formed((tmp_path / "x.svg").read_text())

    def test_frame_maps_corners(self):
        f = Frame(10, 20, 100, 50, 0.0, 2.0, -1.0, 1.0)
        assert f.px(0.0) == 10 and f.px(2.0) == 110
        assert f.py(-1.0) == 70 and f.py(1.0) == 20


class TestTuningCurvesFigure:
    @pytest.mark.parametrize("family,n", [("linear", 10), ("sigmoid", 10), ("gaussian", 10), ("normalized", 10)])
    def test_well_formed(self, family, n, babble_short):
        codec = build_codec(CodecSpec(family, "fixed_count", n), babble_short.joints)
        xml = plot_tuning_curves(codec, babble_short, dof=3).to_xml()
        assert_well_formed(xml)

    def test_gaussian_curve_count(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), babble_short.joints)
        xml = plot_tuning_curves(codec, babble_short, dof=0).to_xml()
        # Two curve panels (bank + close-up) with 10 bumps each, plus one
        # input polyline and 10 encoded-channel polylines.
        assert xml.count("<polyline") == 10 + 10 + 1 + 10

    def test_linear_draws_both_orientations(self, babble_short):
        codec = build_codec(CodecSpec("linear", "fixed_count", 10), babble_short.joints)
        xml = plot_tuning_curves(codec, babble_short, dof=0).to_xml()
        assert xml.count("<polyline") == 20 + 20 + 1 + 20

    def test_deterministic(self, babble_short):
        codec = build_codec(CodecSpec("sigmoid", "fixed_count", 5), babble_short.joints)
        a = plot_tuning_curves(codec, babble_short, dof=1).to_xml()
        b = plot_tuning_curves(codec, babble_short, dof=1).to_xml()
        assert a == b


class TestPostureGridFigure:
    def test_stick_figure_matches_forward_kinematics(self):
        joints13 = _default_joints()
        codec = build_codec(CodecSpec("normalized"), joints13)
        som = init_consistent(1, 1, codec, seed=6)
        canvas = plot_posture_grid(som)
        xml = canvas.to_xml()
        assert_well_formed(xml)

        posture = decode_matrix(codec, som.weights)[0]
        chain = KinematicChain()
        pts = arm_points(chain, posture[:7])
        m = re.search(r'<polyline points="([^"]+)"', xml)
        drawn = np.array([[float(v) for v in p.split(",")] for p in m.group(1).split()])
        # Same projection the renderer uses: x right, z up over the cell.
        assert drawn.shape == (4, 2)
        dx = np.diff(drawn[:, 0])
        expected_dx = np.diff(pts[:, 0])
        assert np.all(np.sign(dx) == np.sign(np.round(expected_dx, 12)))

    def test_crossed_cell_for_undecodable_unit(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), _default_joints())
        good = encode(codec, [j.min_deg / 2 + j.max_deg / 2 for j in codec.joints])
        weights = np.stack([good, np.zeros_like(good)])
        som = SomMap(1, 2, weights, codec=codec)
        xml = plot_posture_grid(som).to_xml()
        assert_well_formed(xml)
        assert xml.count('stroke="#d62728"') == 2

    @pytest.mark.parametrize("n_joints", [2, 7, 12, 14])
    def test_rejects_codec_not_of_the_13_babble_joints(self, n_joints, monkeypatch):
        joints = (_default_joints() + (JointSpec("extra", 0.0, 10.0),))[:n_joints]
        som = init_consistent(1, 2, build_codec(CodecSpec("gaussian", "fixed_count", 5), joints), seed=0)

        def no_decoding(*args, **kwargs):
            raise AssertionError("decoded before the joints were checked")

        monkeypatch.setattr(plots_mod, "decode_units", no_decoding)
        names = tuple(j.name for j in joints)
        with pytest.raises(ValueError, match=re.escape(f"7 arm + 6 head joints in order, got {names}")):
            plot_posture_grid(som)

    def test_full_grid(self, babble_short):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), babble_short.joints)
        som = init_consistent(2, 3, codec, seed=0)
        xml = plot_posture_grid(som).to_xml()
        assert_well_formed(xml)
        assert xml.count("<rect") == 6


def _update(codec, angle_input, angle_init, alpha=0.5):
    """The input, seeded and updated vectors of one BMU update."""
    x = encode(codec, [angle_input])
    w0 = encode(codec, [angle_init])
    return x, w0, w0 + alpha * (x - w0)


class TestUpdateDriftFigure:
    def test_three_panels(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        xml = plot_update_drift(codec, (-20.0, 10.0, -4.9), _update(codec, -20.0, 10.0), 0.5).to_xml()
        assert_well_formed(xml)
        assert xml.count("<rect") == 3
        assert "decodes to -4.9 deg" in xml

    def test_deterministic(self):
        codec = build_codec(CodecSpec("linear", "fixed_count", 5), RANGE_JOINT)
        args = (codec, (-20.0, 10.0, -5.0), _update(codec, -20.0, 10.0), 0.5)
        assert plot_update_drift(*args).to_xml() == plot_update_drift(*args).to_xml()

    def test_undecodable_update_drawn_at_midpoint(self):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), RANGE_JOINT)
        xml = plot_update_drift(codec, (-20.0, 10.0, None), _update(codec, -20.0, 10.0), 0.5).to_xml()
        assert "decodes to -5 deg" in xml

    def test_other_decode_errors_propagate(self, monkeypatch, tmp_path):
        # The figure draws the demo's one decode: an undecodable update is
        # drawn at the midpoint, any other decode error ends the demo.
        def broken(*args, **kwargs):
            raise ValueError("vectors have shape (3,)")

        monkeypatch.setattr(experiment_mod, "decode_matrix", broken)
        with pytest.raises(ValueError, match="vectors have shape"):
            experiment_mod.demo_inconsistency("gaussian", -20.0, 10.0, out_dir=tmp_path)
        assert not list(tmp_path.iterdir())


class TestQeBarsFigure:
    def test_grouped_bars(self):
        medians = {
            ("normalized", None): 0.10,
            ("linear", 5): 0.11, ("linear", 10): 0.12, ("linear", 20): 0.13,
            ("gaussian", 20): 0.18, ("gaussian", 5): 0.12, ("gaussian", 10): 0.15,
        }
        xml = plot_qe_bars(medians).to_xml()
        assert_well_formed(xml)
        assert xml.count("fill=\"#") >= 7
        # After the axis title and five ticks: each bar's count, then its
        # family, all in the order of the keys.
        labels = [t.text for t in ET.fromstring(xml).iter() if t.tag.endswith("text")][6:]
        assert labels == ["normalized", "5", "10", "20", "linear", "20", "5", "10", "gaussian"]


def _default_joints():
    from posturemap.babble import DEFAULT_JOINTS

    return DEFAULT_JOINTS


class TestDofChecked:
    @pytest.fixture
    def codec(self):
        joints = (JointSpec("a", -40.0, 30.0), JointSpec("b", 0.0, 90.0))
        return build_codec(CodecSpec("gaussian", "fixed_count", 5), joints)

    def test_update_drift_rejects_multi_joint_codec(self, codec):
        x = encode(codec, [-20.0, 45.0])
        with pytest.raises(ValueError, match="one-joint codec, got 2 joints"):
            plot_update_drift(codec, (-20.0, 10.0, -5.0), (x, x, x), 0.5)

    @pytest.mark.parametrize("dof", [-1, 2])
    def test_tuning_curves_rejects_dof(self, codec, dof):
        ds = Dataset(joints=codec.joints, samples=np.array([[0.0, 45.0], [1.0, 46.0]]))
        with pytest.raises(ValueError, match=r"dof must lie in 0\.\.1"):
            plot_tuning_curves(codec, ds, dof=dof)
        assert_well_formed(plot_tuning_curves(codec, ds, dof=1).to_xml())
