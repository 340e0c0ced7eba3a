import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posturemap.babble as babble_mod
import posturemap.plots as plots_mod
from posturemap.babble import DEFAULT_JOINTS, BabbleConfig, generate_babble
from posturemap.codec import CodecSpec, build_codec
from posturemap.errors import OutOfRangeError
from posturemap.kinematics import (
    ArmGeometry,
    KinematicChain,
    arm_points,
    gaze_to_target,
    hand_position,
    head_posture,
    joint_angle_from_length,
    minimum_jerk_profile,
    minimum_jerk_segment,
    muscle_length,
    solve_arm_ik,
)
from posturemap.som import SomMap, init_consistent

HEAD_LIMITS = np.array([
    [-40.0, 25.0], [-20.0, 20.0], [-55.0, 55.0],
    [-35.0, 30.0], [-50.0, 50.0], [0.0, 45.0],
])
ARM_LIMITS = np.array([[j.min_deg, j.max_deg] for j in DEFAULT_JOINTS[:7]])


# The per-posture forward kinematics and IK that the stacked ones replaced,
# kept as the bitwise reference for them.

def _rot_x(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _rot_y(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rot_z(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def reference_arm_points(chain, q_deg) -> np.ndarray:
    q = np.radians(np.asarray(q_deg, dtype=float))
    shoulder = np.asarray(chain.shoulder_offset, dtype=float)
    r_sh = _rot_y(q[0]) @ _rot_x(q[1]) @ _rot_z(q[2])
    elbow = shoulder + r_sh @ np.array([0.0, 0.0, -chain.upper_arm])
    r_el = r_sh @ _rot_y(q[3]) @ _rot_z(q[4])
    wrist = elbow + r_el @ np.array([0.0, 0.0, -chain.forearm])
    r_wr = r_el @ _rot_y(q[5]) @ _rot_x(q[6])
    hand = wrist + r_wr @ np.array([0.0, 0.0, -chain.hand])
    return np.stack([shoulder, elbow, wrist, hand])


def reference_solve_arm_ik(chain, target_m, q0_deg, limits_deg, damping=0.1, tol_m=1e-3, max_iters=200):
    def hand(q_rad):
        return reference_arm_points(chain, np.degrees(q_rad))[3]

    def jacobian(q_rad, eps=1e-6):
        jac = np.empty((3, 7))
        base = hand(q_rad)
        for i in range(7):
            probe = q_rad.copy()
            probe[i] += eps
            jac[:, i] = (hand(probe) - base) / eps
        return jac

    target = np.asarray(target_m, dtype=float)
    q = np.radians(np.array(q0_deg, dtype=float))
    lo = np.radians(np.asarray(limits_deg, dtype=float)[:, 0])
    hi = np.radians(np.asarray(limits_deg, dtype=float)[:, 1])
    eye = np.eye(3) * damping**2
    for _ in range(max_iters):
        err = target - hand(q)
        if np.linalg.norm(err) <= tol_m:
            return np.degrees(q), True
        jac = jacobian(q)
        dq = jac.T @ np.linalg.solve(jac @ jac.T + eye, err)
        step = np.linalg.norm(dq)
        if step > 0.5:
            dq *= 0.5 / step
        q = np.clip(q + dq, lo, hi)
    ok = bool(np.linalg.norm(target - hand(q)) <= tol_m)
    return np.degrees(q), ok


def reference_stacked_arm_points(chain, q_deg) -> np.ndarray:
    stack = np.asarray(q_deg, dtype=float)
    return np.array([reference_arm_points(chain, q) for q in stack.reshape(-1, 7)]).reshape(
        stack.shape[:-1] + (4, 3)
    )


class TestMuscleLength:
    def test_right_angle_unit_segments(self):
        assert muscle_length(ArmGeometry(1.0, 1.0), 90.0) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_degenerate_overlap(self):
        assert muscle_length(ArmGeometry(1.0, 1.0), 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_direct_evaluation(self):
        # a^2 + b^2 - 2ab cos(120deg) = 0.09 + 0.0625 + 0.075 = 0.2275
        expected = math.sqrt(0.2275)
        assert muscle_length(ArmGeometry(0.30, 0.25), 120.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.476970, abs=1e-6)

    def test_bounds(self):
        geom = ArmGeometry(0.3, 0.2)
        for theta in np.linspace(0.0, 180.0, 181):
            lam = muscle_length(geom, float(theta))
            assert abs(geom.a - geom.b) - 1e-12 <= lam <= geom.a + geom.b + 1e-12

    @pytest.mark.parametrize("theta", [-0.001, 180.001, 270.0])
    def test_domain_error(self, theta):
        with pytest.raises(OutOfRangeError):
            muscle_length(ArmGeometry(1.0, 1.0), theta)

    def test_monotonic_in_theta(self):
        geom = ArmGeometry(0.30, 0.25)
        thetas = np.arange(0.0, 180.0 + 0.1, 0.1)
        lams = [muscle_length(geom, float(t)) for t in thetas]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ArmGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            ArmGeometry(1.0, -0.5)


class TestJointAngleFromLength:
    def test_right_angle_inverse(self):
        assert joint_angle_from_length(ArmGeometry(1.0, 1.0), math.sqrt(2)) == pytest.approx(90.0, abs=1e-9)

    def test_fully_extended(self):
        assert joint_angle_from_length(ArmGeometry(1.0, 1.0), 2.0) == pytest.approx(180.0, abs=1e-9)

    def test_derived_roundtrip(self):
        geom = ArmGeometry(0.30, 0.25)
        lam = muscle_length(geom, 120.0)
        assert joint_angle_from_length(geom, lam) == pytest.approx(120.0, abs=1e-6)

    def test_roundtrip_sweep(self):
        geom = ArmGeometry(0.30, 0.25)
        for theta in np.linspace(1.0, 179.0, 357):
            lam = muscle_length(geom, float(theta))
            assert joint_angle_from_length(geom, lam) == pytest.approx(float(theta), abs=1e-9)

    @pytest.mark.parametrize("lam", [0.04, 0.56, -0.1])
    def test_out_of_band(self, lam):
        with pytest.raises(OutOfRangeError):
            joint_angle_from_length(ArmGeometry(0.30, 0.25), lam)


class TestArmChain:
    def test_zero_posture_hangs_down(self):
        chain = KinematicChain()
        hand = hand_position(chain, np.zeros(7))
        expected = np.asarray(chain.shoulder_offset) + [0.0, 0.0, -chain.reach]
        np.testing.assert_allclose(hand, expected, atol=1e-12)

    def test_points_are_chained(self):
        chain = KinematicChain()
        pts = arm_points(chain, [-60.0, 25.0, 10.0, 60.0, 5.0, -10.0, 15.0])
        np.testing.assert_allclose(np.linalg.norm(pts[1] - pts[0]), chain.upper_arm, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(pts[2] - pts[1]), chain.forearm, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(pts[3] - pts[2]), chain.hand, atol=1e-12)

    def test_ik_reaches_targets(self, rng):
        chain = KinematicChain()
        limits = np.array([
            [-140, 40], [-10, 120], [-60, 90], [2, 145], [-90, 90], [-65, 65], [-45, 45]
        ], dtype=float)
        q = np.array([-60.0, 25.0, 10.0, 60.0, 0.0, 0.0, 0.0])
        hits = 0
        for _ in range(25):
            target = np.array([0.16, 0.09, 0.14]) + rng.uniform(-1, 1, 3) * [0.09, 0.07, 0.07]
            q_sol, ok = solve_arm_ik(chain, target, q, limits)
            if ok:
                hits += 1
                assert np.all(q_sol >= limits[:, 0] - 1e-9)
                assert np.all(q_sol <= limits[:, 1] + 1e-9)
                assert np.linalg.norm(hand_position(chain, q_sol) - target) <= 1e-3
                q = q_sol
        assert hits >= 20

    def test_ik_unreachable_reports_failure(self):
        chain = KinematicChain()
        limits = np.tile([[-180.0, 180.0]], (7, 1))
        _, ok = solve_arm_ik(chain, [1.0, 0.0, 0.0], np.zeros(7), limits)
        assert not ok


class TestAgainstPerPostureReference:
    """Stacked FK, and everything built on it, keeps the per-posture bits.

    No digests are stored: 3x3 BLAS products may round differently on
    another CPU, so each check compares against the reference on this one.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(st.floats(-360.0, 360.0), min_size=7, max_size=7), min_size=1, max_size=8,
    ))
    def test_stacked_fk_is_bitwise_per_posture(self, postures):
        # Angles span +-2 pi radians.
        chain = KinematicChain()
        stack = np.array(postures)
        expected = np.stack([reference_arm_points(chain, q) for q in stack])
        assert arm_points(chain, stack).tobytes() == expected.tobytes()
        assert hand_position(chain, stack).tobytes() == expected[:, 3].tobytes()
        assert arm_points(chain, stack[0]).tobytes() == expected[0].tobytes()
        assert hand_position(chain, stack[0]).tobytes() == expected[0, 3].tobytes()

    def test_ik_is_bitwise_reference(self, rng):
        chain = KinematicChain()
        reachable = np.array([0.16, 0.09, 0.14]) + rng.uniform(-1, 1, (12, 3)) * [0.1, 0.075, 0.075]
        unreachable = np.array([[1.0, 0.0, 0.0], [0.0, 0.4, -0.4]])
        q0 = np.array([-60.0, 25.0, 10.0, 60.0, 0.0, 0.0, 0.0])
        wide = np.tile([[-180.0, 180.0]], (7, 1))
        oks = []
        for limits in (ARM_LIMITS, wide):
            for target in np.concatenate([reachable, unreachable]):
                q, ok = solve_arm_ik(chain, target, q0, limits)
                q_ref, ok_ref = reference_solve_arm_ik(chain, target, q0, limits)
                assert q.tobytes() == q_ref.tobytes() and ok == ok_ref
                oks.append(ok)
        assert 0 < sum(oks) < len(oks)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_babble_is_bitwise_reference(self, monkeypatch, seed):
        cfg = BabbleConfig(seed=seed, duration_s=5.0)
        got = generate_babble(cfg).samples
        monkeypatch.setattr(babble_mod, "solve_arm_ik", reference_solve_arm_ik)
        assert got.tobytes() == generate_babble(cfg).samples.tobytes()

    def test_posture_grid_svg_is_bytewise_reference(self, monkeypatch):
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 5), DEFAULT_JOINTS)
        som = init_consistent(2, 3, codec, seed=3)
        # One undecodable unit, drawn as a crossed cell, among decodable ones.
        weights = som.weights.copy()
        weights[4] = 0.0
        som = SomMap(2, 3, weights, codec=codec)
        got = plots_mod.plot_posture_grid(som).to_xml()
        assert got.count('stroke="#d62728"') == 2 and got.count("<polyline") == 5
        monkeypatch.setattr(plots_mod, "arm_points", reference_stacked_arm_points)
        assert got == plots_mod.plot_posture_grid(som).to_xml()


class TestInputChecks:
    GOOD = dict(target_m=[0.16, 0.09, 0.14], q0_deg=np.zeros(7), limits_deg=ARM_LIMITS)

    @pytest.mark.parametrize("name,value", [
        ("target_m", [np.nan, 0.09, 0.14]),
        ("target_m", [0.16, np.inf, 0.14]),
        ("target_m", [0.16, 0.09]),
        ("q0_deg", [0.0] * 6 + [np.nan]),
        ("q0_deg", [-np.inf] + [0.0] * 6),
        ("q0_deg", np.zeros(6)),
        ("limits_deg", ARM_LIMITS[:6]),
        ("limits_deg", ARM_LIMITS.T),
        ("limits_deg", ARM_LIMITS[:, ::-1]),
        ("limits_deg", np.where(np.eye(7, 2, dtype=bool), np.nan, ARM_LIMITS)),
    ], ids=[
        "target-nan", "target-inf", "target-short", "q0-nan", "q0-inf", "q0-short",
        "limits-short", "limits-transposed", "limits-min-above-max", "limits-nan",
    ])
    def test_ik_rejects_bad_argument(self, monkeypatch, name, value):
        # The check fires before any forward kinematics runs.
        monkeypatch.setattr("posturemap.kinematics.arm_points", None)
        with pytest.raises(ValueError, match=name):
            solve_arm_ik(KinematicChain(), **{**self.GOOD, name: value})

    @pytest.mark.parametrize("target", [[np.nan, 0.0, 0.3], [0.3, -np.inf, 0.3], [0.3, 0.3]])
    def test_gaze_rejects_bad_target(self, target):
        chain = KinematicChain()
        with pytest.raises(ValueError, match="target_m"):
            gaze_to_target(chain, target)
        with pytest.raises(ValueError, match="target_m"):
            head_posture(chain, target, HEAD_LIMITS)

    @pytest.mark.parametrize("shape", [(6,), (2, 8), (2, 2, 7), ()])
    def test_fk_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match=r"q_deg must be a \(7,\) or \(n, 7\) array"):
            arm_points(KinematicChain(), np.zeros(shape))

    def test_head_limits_of_wrong_shape_rejected(self):
        # This used to raise a bare IndexError.
        with pytest.raises(ValueError, match=r"^head_limits_deg must be a \(6, 2\) array, got shape \(3, 2\)$"):
            head_posture(KinematicChain(), [0.3, 0.0, 0.3], np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_head_limits_rejected(self, bad):
        # NaN limits used to give finite angles, clamped by nothing.
        limits = HEAD_LIMITS.copy()
        limits[4, 1] = bad
        with pytest.raises(ValueError, match=rf"^head_limits_deg must be finite, got {bad} at \(4, 1\)$"):
            head_posture(KinematicChain(), [0.3, 0.0, 0.3], limits)

    def test_reversed_head_limits_rejected(self):
        limits = HEAD_LIMITS.copy()
        limits[3] = limits[3, ::-1]
        with pytest.raises(ValueError, match=r"^head_limits_deg must be \[min, max\] rows with min <= max, "
                                             r"got \[30\.0, -35\.0\] at row 3$"):
            head_posture(KinematicChain(), [0.3, 0.0, 0.3], limits)

    def test_fk_of_empty_stack(self):
        assert arm_points(KinematicChain(), np.zeros((0, 7))).shape == (0, 4, 3)


class TestGaze:
    def test_straight_ahead(self):
        chain = KinematicChain(head_offset=(0.0, 0.0, 0.3))
        pitch, yaw, vergence = gaze_to_target(chain, [0.5, 0.0, 0.3])
        assert pitch == pytest.approx(0.0, abs=1e-12)
        assert yaw == pytest.approx(0.0, abs=1e-12)
        assert vergence == pytest.approx(2 * math.degrees(math.atan2(chain.eye_baseline / 2, 0.5)))

    def test_vergence_shrinks_with_distance(self):
        chain = KinematicChain()
        _, _, near = gaze_to_target(chain, [0.2, 0.0, 0.28])
        _, _, far = gaze_to_target(chain, [0.6, 0.0, 0.28])
        assert near > far > 0

    def test_yaw_sign_symmetry(self):
        chain = KinematicChain(head_offset=(0.0, 0.0, 0.3))
        _, yaw_left, _ = gaze_to_target(chain, [0.3, 0.2, 0.3])
        _, yaw_right, _ = gaze_to_target(chain, [0.3, -0.2, 0.3])
        assert yaw_left == pytest.approx(-yaw_right)

    def test_head_posture_splits_gain_and_residual(self):
        chain = KinematicChain(head_gain=0.7)
        target = [0.3, 0.1, 0.1]
        pitch, yaw, _ = gaze_to_target(chain, target)
        head = head_posture(chain, target, HEAD_LIMITS)
        assert head[0] + head[3] == pytest.approx(pitch, abs=1e-9)
        assert head[2] + head[4] == pytest.approx(yaw, abs=1e-9)
        assert head[1] == 0.0

    def test_head_posture_respects_limits(self):
        chain = KinematicChain()
        head = head_posture(chain, [0.05, 0.4, -0.4], HEAD_LIMITS)
        assert np.all(head >= HEAD_LIMITS[:, 0] - 1e-12)
        assert np.all(head <= HEAD_LIMITS[:, 1] + 1e-12)

    def test_target_at_head_rejected(self):
        chain = KinematicChain()
        with pytest.raises(ValueError):
            gaze_to_target(chain, chain.head_offset)


class TestMinimumJerk:
    def test_endpoints(self):
        assert minimum_jerk_profile(0.0) == 0.0
        assert minimum_jerk_profile(1.0) == 1.0

    def test_monotone(self):
        tau = np.linspace(0, 1, 1001)
        s = minimum_jerk_profile(tau)
        assert np.all(np.diff(s) >= 0)

    def test_peak_slope_is_15_eighths(self):
        tau = np.linspace(0, 1, 100001)
        s = minimum_jerk_profile(tau)
        slope = np.diff(s) / np.diff(tau)
        assert slope.max() == pytest.approx(15.0 / 8.0, rel=1e-6)

    def test_zero_velocity_at_ends(self):
        h = 1e-5
        assert (minimum_jerk_profile(h) - minimum_jerk_profile(0.0)) / h == pytest.approx(0.0, abs=1e-9)
        assert (minimum_jerk_profile(1.0) - minimum_jerk_profile(1.0 - h)) / h == pytest.approx(0.0, abs=1e-9)

    def test_segment_shape_and_endpoint(self):
        seg = minimum_jerk_segment([0.0, 10.0], [1.0, -10.0], 40)
        assert seg.shape == (40, 2)
        np.testing.assert_allclose(seg[-1], [1.0, -10.0], atol=1e-12)
        assert np.all(seg[:, 0] >= 0.0) and np.all(seg[:, 0] <= 1.0)

    def test_segment_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            minimum_jerk_segment([0.0], [1.0], 0)
