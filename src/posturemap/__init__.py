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
from .metrics import (
    MetricsReport,
    evaluate_map,
    neighbor_coherence,
    quantization_error,
    quantization_error_angle,
    topographic_error,
)
from .som import (
    SomMap,
    TrainConfig,
    find_bmu,
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
    "find_bmu",
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
    "neighbor_coherence",
    "quantization_error",
    "quantization_error_angle",
    "run_experiment",
    "save_codec",
    "save_dataset",
    "save_map",
    "topographic_error",
    "train",
]
