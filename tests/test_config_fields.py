"""The one field rule of every config dataclass, as one table."""

import math
from pathlib import Path

import numpy as np
import pytest

from posturemap.babble import BabbleConfig
from posturemap.codec import CodecSpec, build_codec, codec_from_json, codec_to_json
from posturemap.dataset import Dataset, JointSpec
from posturemap.decode import KdeConfig
from posturemap.experiment import ExperimentConfig
from posturemap.kinematics import ArmGeometry, KinematicChain
from posturemap.som import SomMap, TrainConfig

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
    "Dataset": {"rate_hz": "number"},
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


@pytest.mark.parametrize("cls", BUILD)
def test_defaults_accepted(cls):
    BUILD[cls]()


@pytest.mark.parametrize("cls,kwargs", [
    ("JointSpec", {"min_deg": np.int64(0), "max_deg": np.float32(5.0)}),
    ("Dataset", {"rate_hz": np.float64(50.0)}),
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
