"""Muscle-length geometry and the serial-chain arm/head surrogate.

The muscle model is the two-segment triangle: a muscle spanning a hinge
joint has length ``lambda = sqrt(a^2 + b^2 - 2*a*b*cos(theta))`` where
``a`` and ``b`` are the segment lengths and ``theta`` is the inter-segment
angle.  The inverse recovers ``theta`` from a length via the law of
cosines.

The arm surrogate is a generic 7-DoF serial chain (3 shoulder, elbow
flexion, forearm pronosupination, 2 wrist) with configurable link lengths,
solved for hand position by damped-least-squares inverse kinematics.  The
head plant (neck pitch/roll/yaw plus eye tilt/version/vergence) is solved
analytically from target geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import check_array, check_fields, check_ranges, check_value, integer, real, tuple_of
from .errors import OutOfRangeError


@dataclass(frozen=True)
class ArmGeometry:
    """Two muscle attachment lever lengths, in meters."""

    a: float
    b: float

    def __post_init__(self):
        check_fields(self, a=real(gt=0), b=real(gt=0))


def muscle_length(geom: ArmGeometry, theta_deg: float) -> float:
    """Muscle length over a hinge joint opened to ``theta_deg``.

    Valid for 0 <= theta_deg <= 180; the result lies in [|a-b|, a+b].
    """
    if not 0.0 <= theta_deg <= 180.0:
        raise OutOfRangeError(f"theta must be in [0, 180] degrees, got {theta_deg}")
    theta = math.radians(theta_deg)
    sq = geom.a**2 + geom.b**2 - 2.0 * geom.a * geom.b * math.cos(theta)
    return math.sqrt(max(sq, 0.0))


def joint_angle_from_length(geom: ArmGeometry, lambda_m: float) -> float:
    """Inverse of :func:`muscle_length`: angle in degrees for a muscle length.

    Closed form from the law of cosines,
    ``theta = arccos((a^2 + b^2 - lambda^2) / (2*a*b))``.
    """
    lo, hi = abs(geom.a - geom.b), geom.a + geom.b
    # Tolerate float dust from a forward evaluation at the band edges.
    eps = 1e-12 * max(hi, 1.0)
    if not lo - eps <= lambda_m <= hi + eps:
        raise OutOfRangeError(
            f"length {lambda_m} outside reachable band [{lo}, {hi}]"
        )
    c = (geom.a**2 + geom.b**2 - lambda_m**2) / (2.0 * geom.a * geom.b)
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


# ---------------------------------------------------------------------------
# Serial-chain surrogate
# ---------------------------------------------------------------------------

ARM_JOINT_NAMES = (
    "shoulder_pitch",
    "shoulder_roll",
    "shoulder_yaw",
    "elbow_flex",
    "forearm_prono",
    "wrist_pitch",
    "wrist_yaw",
)

HEAD_JOINT_NAMES = (
    "neck_pitch",
    "neck_roll",
    "neck_yaw",
    "eyes_tilt",
    "eyes_version",
    "eyes_vergence",
)


@dataclass(frozen=True)
class KinematicChain:
    """Link lengths and frame offsets of the arm/head surrogate, in meters.

    World frame: x forward, y left, z up, origin at the torso.  The arm
    hangs straight down (-z) at the zero posture.
    """

    shoulder_offset: tuple[float, float, float] = (0.0, 0.11, 0.0)
    upper_arm: float = 0.15
    forearm: float = 0.15
    hand: float = 0.08
    head_offset: tuple[float, float, float] = (0.0, 0.0, 0.28)
    eye_baseline: float = 0.068
    head_gain: float = 0.7

    def __post_init__(self):
        check_fields(
            self, shoulder_offset=tuple_of(real(), 3), upper_arm=real(gt=0), forearm=real(gt=0),
            hand=real(gt=0), head_offset=tuple_of(real(), 3), eye_baseline=real(gt=0),
            head_gain=real(ge=0, le=1),
        )

    @property
    def reach(self) -> float:
        return self.upper_arm + self.forearm + self.hand


# Arm joint j turns in the plane (a, b) = _PLANES[j], about the third axis
# k: its rotation holds cos at (a, a) and (b, b), -sin at (a, b), sin at
# (b, a) and 1 at (k, k).  _ROWS[j] and _COLS[j] index those five entries.
_PLANES = ((2, 0), (1, 2), (0, 1), (2, 0), (0, 1), (2, 0), (1, 2))
_ROWS = np.array([(a, b, a, b, 3 - a - b) for a, b in _PLANES])
_COLS = np.array([(a, b, b, a, 3 - a - b) for a, b in _PLANES])


def arm_points(chain: KinematicChain, q_deg) -> np.ndarray:
    """World positions of shoulder, elbow, wrist, and hand for arm angles.

    ``q_deg`` holds the 7 arm joint values in degrees, ordered as
    :data:`ARM_JOINT_NAMES`, or an n x 7 stack of such postures.  Returns a
    4x3 array, or n x 4 x 3 for a stack.  Each posture's rotations are
    chained by the same 3x3 products whatever the stack's size, and the
    trigonometry comes from :mod:`math`, so a posture's points do not
    depend on the postures stacked with it.
    """
    # Shape only: this runs at every IK step, on angles solve_arm_ik checked.
    q = np.radians(check_array("q_deg", q_deg, (7,), (None, 7), finite=False))
    t = q.reshape(-1, 7).T.ravel().tolist()
    c = np.array([math.cos(v) for v in t]).reshape(7, -1)
    s = np.array([math.sin(v) for v in t]).reshape(7, -1)
    n = c.shape[1]
    rot = np.zeros((7, n, 3, 3))
    rot[np.arange(7)[:, None], :, _ROWS, _COLS] = np.stack([c, c, -s, s, np.ones_like(c)], axis=1)
    pts = np.empty((n, 4, 3))
    pts[:, 0] = chain.shoulder_offset
    r = rot[0]
    for i, link in enumerate((chain.upper_arm, chain.forearm, chain.hand)):
        r = r @ rot[2 * i + 1] @ rot[2 * i + 2]
        pts[:, i + 1] = pts[:, i] + r @ np.array([0.0, 0.0, -link])
    return pts.reshape(q.shape[:-1] + (4, 3))


def hand_position(chain: KinematicChain, q_deg) -> np.ndarray:
    return arm_points(chain, q_deg)[..., 3, :]


# Damped-least-squares IK: the damping d, the hand's distance from the
# target that counts as reached (m) and the iteration cap.
IK_DAMPING = 0.1
IK_TOL_M = 1e-3
IK_MAX_ITERS = 200


def solve_arm_ik(chain: KinematicChain, target_m, q0_deg, limits_deg) -> tuple[np.ndarray, bool]:
    """Damped-least-squares IK for the hand position.

    Works in radians internally: iterates ``dq = J^T (J J^T + d^2 I)^-1 err``,
    ``d = IK_DAMPING``, at most ``IK_MAX_ITERS`` times, and clamps to
    ``limits_deg`` (a 7x2 array of [min, max] rows) after every step.  The
    damped step keeps the joint displacement minimum-norm on the redundant
    arm.  ``J`` is a forward difference: each iteration evaluates
    the posture and its 7 probes, one joint each nudged by 1e-6 rad, in one
    :func:`arm_points` call.  Returns ``(q_deg, converged)``; convergence
    means the hand is within ``IK_TOL_M`` of the target.
    """
    target = check_array("target_m", target_m, (3,))
    q = np.radians(check_array("q0_deg", q0_deg, (7,)))
    limits = check_ranges("limits_deg", limits_deg, 7)
    lo, hi = np.radians(limits[:, 0]), np.radians(limits[:, 1])
    eye = np.eye(3) * IK_DAMPING**2
    joints = np.arange(7)
    for _ in range(IK_MAX_ITERS):
        probes = np.repeat(q[None], 8, axis=0)
        probes[joints + 1, joints] += 1e-6
        hands = hand_position(chain, np.degrees(probes))
        err = target - hands[0]
        if np.linalg.norm(err) <= IK_TOL_M:
            return np.degrees(q), True
        # A C-contiguous copy: J J^T on a transposed view takes another
        # BLAS path, whose rounding differs.
        jac = np.ascontiguousarray(((hands[1:] - hands[0]) / 1e-6).T)
        dq = jac.T @ np.linalg.solve(jac @ jac.T + eye, err)
        # Cap the per-iteration step to keep the linearization honest.
        step = np.linalg.norm(dq)
        if step > 0.5:
            dq *= 0.5 / step
        q = np.clip(q + dq, lo, hi)
    ok = bool(np.linalg.norm(target - hand_position(chain, np.degrees(q))) <= IK_TOL_M)
    return np.degrees(q), ok


def gaze_to_target(chain: KinematicChain, target_m) -> tuple[float, float, float]:
    """Total gaze pitch, yaw, and vergence (degrees) for a world target.

    Vergence follows from the target distance and the interocular baseline.
    """
    v = check_array("target_m", target_m, (3,)) - np.asarray(chain.head_offset, dtype=float)
    dist = float(np.linalg.norm(v))
    if dist <= 1e-9:
        raise ValueError("gaze target coincides with the head origin")
    yaw = math.degrees(math.atan2(v[1], v[0]))
    pitch = math.degrees(math.atan2(v[2], math.hypot(v[0], v[1])))
    vergence = 2.0 * math.degrees(math.atan2(chain.eye_baseline / 2.0, dist))
    return pitch, yaw, vergence


def head_posture(chain: KinematicChain, target_m, head_limits_deg) -> np.ndarray:
    """Neck/eye angles (degrees) fixating a target, clamped to joint limits.

    The neck takes ``head_gain`` of the required pitch/yaw and the eyes
    cover whatever residual remains after the neck is clamped.  Neck roll
    is held at zero.  ``head_limits_deg`` is a 6x2 array of [min, max] rows.
    """
    pitch, yaw, vergence = gaze_to_target(chain, target_m)
    limits = check_ranges("head_limits_deg", head_limits_deg, 6)
    g = chain.head_gain
    neck_pitch = min(max(g * pitch, limits[0, 0]), limits[0, 1])
    neck_yaw = min(max(g * yaw, limits[2, 0]), limits[2, 1])
    eyes_tilt = min(max(pitch - neck_pitch, limits[3, 0]), limits[3, 1])
    eyes_version = min(max(yaw - neck_yaw, limits[4, 0]), limits[4, 1])
    vergence = min(max(vergence, limits[5, 0]), limits[5, 1])
    return np.array([neck_pitch, 0.0, neck_yaw, eyes_tilt, eyes_version, vergence])


# ---------------------------------------------------------------------------
# Minimum-jerk interpolation
# ---------------------------------------------------------------------------

def minimum_jerk_profile(tau) -> np.ndarray:
    """Normalized minimum-jerk position profile on tau in [0, 1].

    ``s(tau) = 10 tau^3 - 15 tau^4 + 6 tau^5`` rises monotonically from 0
    to 1 with zero velocity and acceleration at both ends; peak slope is
    15/8 at the midpoint.
    """
    tau = np.clip(np.asarray(tau, dtype=float), 0.0, 1.0)
    return tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)


def minimum_jerk_segment(q_from, q_to, n_steps: int) -> np.ndarray:
    """Joint-space minimum-jerk segment over ``n_steps`` samples.

    Returns an ``n_steps x D`` array covering tau in (0, 1] so that
    consecutive segments chain without repeating the shared endpoint.
    """
    check_value("n_steps", n_steps, integer(1))
    q_from = np.asarray(q_from, dtype=float)
    q_to = np.asarray(q_to, dtype=float)
    tau = np.arange(1, n_steps + 1) / n_steps
    s = minimum_jerk_profile(tau)
    return q_from + s[:, None] * (q_to - q_from)
