"""Population-coded posture data, self-organizing maps, and decoders."""

from .babble import BabbleConfig, generate_babble
from .codec import (
    CodecSpec,
    PopulationCodec,
    build_codec,
    encode,
    encode_dataset,
    load_codec,
    save_codec,
)
from .dataset import Dataset, JointSpec, load_dataset, save_dataset
from .decode import (
    KdeConfig,
    decode_matrix,
    kde_density,
)
from .experiment import ExperimentConfig, demo_inconsistency, run_experiment
from .kinematics import ArmGeometry, KinematicChain, joint_angle_from_length, muscle_length
from .metrics import MetricsReport, evaluate_map
from .som import (
    SomMap,
    TrainConfig,
    init_consistent,
    init_naive,
    load_map,
    manifold_distance,
    save_map,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ArmGeometry",
    "BabbleConfig",
    "CodecSpec",
    "Dataset",
    "ExperimentConfig",
    "JointSpec",
    "KdeConfig",
    "KinematicChain",
    "MetricsReport",
    "PopulationCodec",
    "SomMap",
    "TrainConfig",
    "build_codec",
    "decode_matrix",
    "demo_inconsistency",
    "encode",
    "encode_dataset",
    "evaluate_map",
    "generate_babble",
    "init_consistent",
    "init_naive",
    "joint_angle_from_length",
    "kde_density",
    "load_codec",
    "load_dataset",
    "load_map",
    "manifold_distance",
    "muscle_length",
    "run_experiment",
    "save_codec",
    "save_dataset",
    "save_map",
    "train",
]
