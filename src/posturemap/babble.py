"""Synthetic reach-and-gaze motor babbling.

Generates structured 13-DoF joint trajectories: the hand is driven through
a sequence of random targets inside a Cartesian box in front of the face
while the head and eyes fixate each target.  Targets are reached with
damped-least-squares IK and joined by joint-space minimum-jerk segments,
so trajectories are smooth and velocity-bounded rather than white noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import SAMPLE_RATE_HZ, Dataset, JointSpec, check_fields, instance, integer, real, tuple_of
from .errors import TargetUnreachableError
from .kinematics import (
    ARM_JOINT_NAMES,
    HEAD_JOINT_NAMES,
    KinematicChain,
    head_posture,
    minimum_jerk_segment,
    solve_arm_ik,
)

# Upper bound on one run's duration: 360 000 samples of 13 joints at SAMPLE_RATE_HZ.
MAX_DURATION_S = 7200.0
_ok, _what = real(gt=0, le=MAX_DURATION_S)
# The rule for a run's duration_s, whose message gives the cap in samples too.
DURATION_S = _ok, f"{_what} s ({MAX_DURATION_S * SAMPLE_RATE_HZ:.0f} samples at {SAMPLE_RATE_HZ:g} Hz)"

DEFAULT_JOINTS = (
    JointSpec("shoulder_pitch", -140.0, 40.0),
    JointSpec("shoulder_roll", -10.0, 120.0),
    JointSpec("shoulder_yaw", -60.0, 90.0),
    JointSpec("elbow_flex", 2.0, 145.0),
    JointSpec("forearm_prono", -90.0, 90.0),
    JointSpec("wrist_pitch", -65.0, 65.0),
    JointSpec("wrist_yaw", -45.0, 45.0),
    JointSpec("neck_pitch", -40.0, 25.0),
    JointSpec("neck_roll", -20.0, 20.0),
    JointSpec("neck_yaw", -55.0, 55.0),
    JointSpec("eyes_tilt", -35.0, 30.0),
    JointSpec("eyes_version", -50.0, 50.0),
    JointSpec("eyes_vergence", 0.0, 45.0),
)

HOME_POSTURE_DEG = np.array([-60.0, 25.0, 10.0, 60.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class BabbleConfig:
    """Configuration of one babbling run."""

    seed: int = 0
    duration_s: float = 60.0
    box_center: tuple[float, float, float] = (0.16, 0.09, 0.14)
    box_extent: tuple[float, float, float] = (0.20, 0.15, 0.15)
    chain: KinematicChain = field(default_factory=KinematicChain)
    joints: tuple[JointSpec, ...] = DEFAULT_JOINTS
    max_velocity_deg_s: float = 120.0
    min_transit_s: float = 0.5
    dwell_s: float = 0.1
    max_target_retries: int = 50

    def __post_init__(self):
        check_fields(
            self, seed=integer(0), duration_s=DURATION_S, box_center=tuple_of(real(), 3),
            box_extent=tuple_of(real(gt=0), 3), chain=instance(KinematicChain),
            max_velocity_deg_s=real(gt=0), min_transit_s=real(gt=0), dwell_s=real(ge=0),
            max_target_retries=integer(1),
        )
        names = tuple(j.name for j in self.joints)
        if names != ARM_JOINT_NAMES + HEAD_JOINT_NAMES:
            raise ValueError(
                f"joint specs must be the 7 arm + 6 head joints in order, got {names}"
            )


def _sample_target(rng: np.random.Generator, cfg: BabbleConfig) -> np.ndarray:
    center = np.asarray(cfg.box_center, dtype=float)
    half = np.asarray(cfg.box_extent, dtype=float) / 2.0
    return center + rng.uniform(-1.0, 1.0, size=3) * half


def _goal_posture(
    cfg: BabbleConfig,
    rng: np.random.Generator,
    q_arm_deg: np.ndarray,
    arm_limits: np.ndarray,
    head_limits: np.ndarray,
) -> np.ndarray:
    """IK-solve a reachable random target; returns the full 13-DoF goal."""
    chain = cfg.chain
    for _ in range(cfg.max_target_retries):
        target = _sample_target(rng, cfg)
        q_sol, ok = solve_arm_ik(chain, target, q_arm_deg, arm_limits)
        if not ok:
            continue
        return np.concatenate([q_sol, head_posture(chain, target, head_limits)])
    raise TargetUnreachableError(
        f"no reachable target found in {cfg.max_target_retries} draws; "
        "check box placement against the chain's reach"
    )


def generate_babble(cfg: BabbleConfig) -> Dataset:
    """Generate a babbling dataset of ``duration_s * SAMPLE_RATE_HZ`` samples.

    Deterministic for a fixed seed.  Consecutive samples never differ by
    more than ``max_velocity_deg_s / SAMPLE_RATE_HZ`` degrees per joint: transit times
    are stretched so that the minimum-jerk peak slope (15/8 of the mean)
    respects the velocity cap.
    """
    rng = np.random.default_rng(cfg.seed)
    n_total = max(1, round(cfg.duration_s * SAMPLE_RATE_HZ))
    limits = np.array([[j.min_deg, j.max_deg] for j in cfg.joints])
    arm_limits, head_limits = limits[:7], limits[7:]

    q_arm = np.clip(HOME_POSTURE_DEG, arm_limits[:, 0], arm_limits[:, 1])
    first_goal = _goal_posture(cfg, rng, q_arm, arm_limits, head_limits)
    current = np.concatenate([q_arm, first_goal[7:]])

    dwell_steps = round(cfg.dwell_s * SAMPLE_RATE_HZ)
    rows = np.empty((n_total, 13))
    filled = 0
    goal = first_goal
    while filled < n_total:
        dq_max = float(np.max(np.abs(goal - current)))
        # Peak min-jerk velocity is 1.875 * dq / T; solve T for the cap.
        transit_s = max(cfg.min_transit_s, 1.875 * dq_max / cfg.max_velocity_deg_s)
        n_steps = max(1, math.ceil(transit_s * SAMPLE_RATE_HZ))
        seg = minimum_jerk_segment(current, goal, n_steps)
        take = min(n_steps, n_total - filled)
        rows[filled : filled + take] = seg[:take]
        filled += take
        if filled < n_total and dwell_steps:
            take = min(dwell_steps, n_total - filled)
            rows[filled : filled + take] = goal
            filled += take
        current = goal
        if filled < n_total:
            goal = _goal_posture(cfg, rng, current[:7], arm_limits, head_limits)

    # Goals are clamped per joint, and min-jerk stays between its endpoints,
    # so rows are in range up to float dust; snap that dust away.
    rows = np.clip(rows, limits[:, 0], limits[:, 1])
    return Dataset(joints=cfg.joints, samples=rows)
