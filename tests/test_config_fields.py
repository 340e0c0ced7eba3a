"""The one field rule of every config dataclass, and of the library
arguments that share it, as two tables; and the one array rule of every
array argument, as a third."""

import math
from pathlib import Path

import numpy as np
import pytest

from posturemap.babble import DEFAULT_JOINTS, BabbleConfig
from posturemap.codec import CodecSpec, build_codec, codec_from_json, codec_to_json, encode
from posturemap.dataset import Dataset, JointSpec
from posturemap.decode import KdeConfig, decode_matrix, kde_density, silverman_bandwidth
from posturemap.experiment import ExperimentConfig, demo_inconsistency
from posturemap.kinematics import (
    ArmGeometry,
    KinematicChain,
    arm_points,
    gaze_to_target,
    head_posture,
    minimum_jerk_segment,
    solve_arm_ik,
)
from posturemap.som import SomMap, TrainConfig, init_consistent, init_naive, manifold_distance, train

JOINT = JointSpec("j", 0.0, 5.0)

# Each config class from keyword arguments over a valid base.
BUILD = {
    "JointSpec": lambda **kw: JointSpec(**{"name": "j", "min_deg": 0.0, "max_deg": 5.0, **kw}),
    "Dataset": lambda **kw: Dataset(**{"joints": (JOINT,), "samples": [[1.0]], **kw}),
    "ArmGeometry": lambda **kw: ArmGeometry(**{"a": 0.3, "b": 0.2, **kw}),
    "KinematicChain": KinematicChain,
    "BabbleConfig": BabbleConfig,
    "CodecSpec": lambda **kw: CodecSpec(**{"family": "sigmoid", **kw}),
    "KdeConfig": KdeConfig,
    "SomMap": lambda **kw: SomMap(**{"rows": 1, "cols": 2, "weights": np.zeros((2, 3)), **kw}),
    "TrainConfig": TrainConfig,
    "ExperimentConfig": ExperimentConfig,
}

# Every numeric and bool field, by kind: a "tuple" field takes a bad value
# as its first entry.
FIELDS = {
    "JointSpec": {"min_deg": "number", "max_deg": "number"},
    "ArmGeometry": {"a": "number", "b": "number"},
    "KinematicChain": {
        "shoulder_offset": "tuple", "upper_arm": "number", "forearm": "number", "hand": "number",
        "head_offset": "tuple", "eye_baseline": "number", "head_gain": "number",
    },
    "BabbleConfig": {
        "seed": "number", "duration_s": "number", "box_center": "tuple", "box_extent": "tuple",
        "max_velocity_deg_s": "number", "min_transit_s": "number", "dwell_s": "number",
        "max_target_retries": "number",
    },
    "CodecSpec": {"n_or_offset": "number", "sigmoid_gain": "number"},
    "KdeConfig": {"bandwidth_h": "number", "grid_resolution": "number", "activation_floor": "number"},
    "SomMap": {"rows": "number", "cols": "number", "trained_cycles": "number", "qe_trace": "tuple"},
    "TrainConfig": {
        "cycles": "number", "shuffle": "bool", "seed": "number", "alpha0": "number",
        "alpha_end": "number", "radius0": "number", "radius_end": "number",
    },
    "ExperimentConfig": {
        "babble_seed": "number", "duration_s": "number", "counts": "tuple", "rows": "number",
        "cols": "number", "cycles": "number", "shuffle": "bool", "seeds": "tuple", "strict": "bool",
    },
}

BAD = ("x", True, math.nan, math.inf, -math.inf)


def _rows():
    for cls, fields in FIELDS.items():
        for field, kind in fields.items():
            for bad in BAD:
                if kind == "bool" and isinstance(bad, bool):
                    continue
                if kind == "tuple":
                    bad = (bad, *getattr(BUILD[cls](), field)[1:])
                yield cls, field, bad
    # Values that used to be accepted, each then silently wrong or failing later.
    yield "BabbleConfig", "seed", 1.5
    yield "BabbleConfig", "seed", -1
    yield "ExperimentConfig", "duration_s", -1
    yield "ExperimentConfig", "kde", {"bandwidth_h": 0.3}
    yield "JointSpec", "name", 3
    # A path that was not one used to end in a TypeError from pathlib.
    yield "ExperimentConfig", "out_dir", 5
    yield "ExperimentConfig", "data_csv", 5
    yield "ExperimentConfig", "joint_spec_path", ["j.json"]
    # Values a JSON config can hold; the CLI used to convert them into a
    # TypeError naming no field, and a string of families into its letters.
    yield "ExperimentConfig", "counts", 5
    yield "ExperimentConfig", "kde", 5
    yield "ExperimentConfig", "families", ["gaussian", ["x"]]
    yield "ExperimentConfig", "families", "gaussian"


@pytest.mark.parametrize("cls,field,value", list(_rows()),
                         ids=lambda v: v if isinstance(v, str) else repr(v))
def test_bad_field_rejected_naming_it(cls, field, value):
    with pytest.raises(ValueError) as info:
        BUILD[cls](**{field: value})
    message = str(info.value)
    assert message.startswith(f"{field} must be ")
    assert message.endswith(f", got {value!r}")


# Each library argument checked by dataset.check_value, called with a value.
ARGUMENTS = {
    "step": lambda v: JOINT.grid(v),
    "bandwidth": lambda v: kde_density([0.0, 1.0], v, 0.0),
    "floor": lambda v: silverman_bandwidth([0.0, 1.0], v),
    "grid_deg": lambda v: manifold_distance(
        init_consistent(1, 2, build_codec(CodecSpec("gaussian", "fixed_count", 5), (JOINT,))), grid_deg=v),
    "alpha": lambda v: demo_inconsistency("gaussian", -20.0, 10.0, alpha=v),
    "n_steps": lambda v: minimum_jerk_segment([0.0], [1.0], v),
}


@pytest.mark.parametrize("name,value", [
    *((name, bad) for name in ARGUMENTS for bad in BAD),
    # A grid step of -0.1 used to give [min, max], True a 1 degree grid, 0.0
    # a ZeroDivisionError and NaN a complaint about the point count.
    ("step", -0.1), ("step", 0.0), ("bandwidth", 0), ("floor", -1.0), ("grid_deg", 0.0),
    ("alpha", 1.5), ("alpha", -0.5), ("n_steps", 0), ("n_steps", 2.0),
], ids=lambda v: v if isinstance(v, str) else repr(v))
def test_bad_argument_rejected_naming_it(name, value):
    with pytest.raises(ValueError) as info:
        ARGUMENTS[name](value)
    message = str(info.value)
    assert message.startswith(f"{name} must be ")
    assert message.endswith(f", got {value!r}")


CODEC = build_codec(CodecSpec("gaussian", "fixed_count", 5), (JOINT,))
MAP = init_consistent(1, 2, CODEC)
CHAIN = KinematicChain()
TARGET = [0.16, 0.09, 0.14]
LIMITS = np.array([[j.min_deg, j.max_deg] for j in DEFAULT_JOINTS])
ARM_LIMITS, HEAD_LIMITS = LIMITS[:7], LIMITS[7:]

# Each array argument checked by dataset.check_array: its caller, the
# argument's name, the call with an array, a valid array, and the kinds of
# bad array it rejects.  "rank" adds an axis, "size" drops the last entry
# of the last axis, "nan" and "inf" replace the last entry, and "reversed"
# swaps the columns of [min, max] rows.  A posture's NaN is out of its
# joint's range, which check_postures reports, so posture arrays take no
# "nan" or "inf" here.
SHAPED = ("rank", "size", "nan", "inf")
RANGES = SHAPED + ("reversed",)
ARRAYS = [
    ("Dataset", "samples", lambda v: Dataset((JOINT,), v), [[1.0]], ("rank", "size")),
    ("SomMap", "weights", lambda v: SomMap(1, 2, v, codec=CODEC), MAP.weights, SHAPED),
    ("init_naive", "input_ranges", lambda v: init_naive(1, 2, v), [[0.0, 1.0]], RANGES),
    ("train", "data", lambda v: train(MAP, v, TrainConfig(cycles=1)), MAP.weights, SHAPED),
    ("kde_density", "samples", lambda v: kde_density(v, 0.3, 0.0), [0.0, 1.0], ("nan", "inf")),
    ("kde_density", "x", lambda v: kde_density([0.0, 1.0], 0.3, v), [0.0, 1.0], ("nan", "inf")),
    ("silverman_bandwidth", "samples", lambda v: silverman_bandwidth(v, 0.1), [[0.0, 1.0]],
     ("rank", "nan", "inf")),
    ("decode_matrix", "vectors", lambda v: decode_matrix(CODEC, v), MAP.weights, SHAPED),
    ("encode", "postures", lambda v: encode(CODEC, v), [[1.0]], ("rank", "size")),
    ("arm_points", "q_deg", lambda v: arm_points(CHAIN, v), np.zeros(7), ("rank", "size")),
    ("solve_arm_ik", "target_m", lambda v: solve_arm_ik(CHAIN, v, np.zeros(7), ARM_LIMITS), TARGET, SHAPED),
    ("solve_arm_ik", "q0_deg", lambda v: solve_arm_ik(CHAIN, TARGET, v, ARM_LIMITS), np.zeros(7), SHAPED),
    ("solve_arm_ik", "limits_deg", lambda v: solve_arm_ik(CHAIN, TARGET, np.zeros(7), v), ARM_LIMITS,
     RANGES),
    ("gaze_to_target", "target_m", lambda v: gaze_to_target(CHAIN, v), TARGET, SHAPED),
    ("head_posture", "target_m", lambda v: head_posture(CHAIN, v, HEAD_LIMITS), TARGET, SHAPED),
    ("head_posture", "head_limits_deg", lambda v: head_posture(CHAIN, TARGET, v), HEAD_LIMITS, RANGES),
]


def _bad_array(valid, kind):
    bad = np.array(valid, dtype=float)
    if kind == "rank":
        return bad[..., None]
    if kind == "size":
        return bad[..., :-1]
    if kind == "reversed":
        return bad[..., ::-1]
    bad[(-1,) * bad.ndim] = math.nan if kind == "nan" else math.inf
    return bad


@pytest.mark.parametrize("argument,call,valid", [
    pytest.param(argument, call, valid, id=f"{caller}-{argument}")
    for caller, argument, call, valid, _ in ARRAYS
])
def test_valid_array_accepted(argument, call, valid):
    call(valid)


@pytest.mark.parametrize("argument,call,bad", [
    pytest.param(argument, call, _bad_array(valid, kind), id=f"{caller}-{argument}-{kind}")
    for caller, argument, call, valid, kinds in ARRAYS for kind in kinds
])
def test_bad_array_rejected_naming_it(argument, call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value).startswith(f"{argument} must be ")


@pytest.mark.parametrize("cls", BUILD)
def test_defaults_accepted(cls):
    BUILD[cls]()


@pytest.mark.parametrize("cls,kwargs", [
    ("JointSpec", {"min_deg": np.int64(0), "max_deg": np.float32(5.0)}),
    ("Dataset", {"samples": np.array([[1.0]])}),
    ("BabbleConfig", {"seed": np.int64(3), "duration_s": np.float32(2.0), "box_extent": [0.2, 0.15, 0.15]}),
    ("CodecSpec", {"setup": "fixed_count", "n_or_offset": 5.0}),
    ("CodecSpec", {"setup": "fixed_offset", "n_or_offset": np.float64(2.5), "sigmoid_gain": np.int64(2)}),
    ("KdeConfig", {"bandwidth_h": "auto", "activation_floor": np.float64(0.01)}),
    ("SomMap", {"rows": np.int64(2), "cols": np.int32(1), "qe_trace": (np.float64(0.5), 1)}),
    ("TrainConfig", {"cycles": np.int64(2), "seed": np.uint32(7), "radius0": None, "alpha0": 1}),
    ("TrainConfig", {"radius0": np.float64(1.5), "radius_end": 0}),
    ("ExperimentConfig", {"counts": (np.int32(5),), "seeds": [0, np.int64(1)], "duration_s": 4}),
    ("ExperimentConfig", {"out_dir": Path("out"), "data_csv": "d.csv", "joint_spec_path": Path("j.json")}),
])
def test_valid_values_accepted(cls, kwargs):
    cfg = BUILD[cls](**kwargs)
    for field, value in kwargs.items():
        if cls == "ExperimentConfig" and field in ("counts", "seeds"):
            # Stored as a tuple of Python ints, so that outputs match the ints'.
            assert getattr(cfg, field) == tuple(map(int, value))
            assert all(type(v) is int for v in getattr(cfg, field))
        else:
            assert getattr(cfg, field) is value


def test_integral_float_count_round_trips_through_codec_json():
    doc = codec_to_json(build_codec(CodecSpec("linear", "fixed_count", 5), (JOINT,)))
    doc["n_or_offset"] = 5.0
    assert codec_from_json(doc).width == 10
