"""Experiment matrix and demonstration runners.

``run_experiment`` measures map quality for every combination of encoding
family, curve count, and seed on one shared dataset, writing per-run JSON
reports, an aggregate CSV, and a grouped-bar SVG of median angle-space
quantization error.  ``demo_inconsistency`` reproduces the single-update
drift effect: one BMU update in activation space pulls a weight vector off
the set of valid population codes for every population family, while the
plain normalized encoding stays consistent.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .babble import BabbleConfig, generate_babble
from .codec import FAMILIES, CodecSpec, PopulationCodec, build_codec, encode, encode_dataset
from .dataset import Dataset, JointSpec, load_dataset
from .decode import KdeConfig, decode_vector
from .errors import UndecodableError
from .metrics import MetricsReport, evaluate_map
from .plots import plot_qe_bars, plot_update_drift
from .som import SomMap, TrainConfig, init_consistent, manifold_distance, train, train_group

AGGREGATE_COLUMNS = (
    "family", "count", "seed", "qe_encoded", "qe_encoded_per_sqrt_width",
    "qe_angle", "topographic_error", "neighbor_coherence_ratio",
    "n_undecodable_units", "width", "rows", "cols", "cycles",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment matrix."""

    out_dir: str = "experiment_out"
    babble_seed: int = 42
    duration_s: float = 120.0
    data_csv: str | None = None
    joint_spec_path: str | None = None
    families: tuple[str, ...] = FAMILIES
    counts: tuple[int, ...] = (5, 10, 20)
    rows: int = 5
    cols: int = 5
    cycles: int = 6
    shuffle: bool = True
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    kde: KdeConfig = field(default_factory=KdeConfig)
    strict: bool = False

    def __post_init__(self):
        if not self.families:
            raise ValueError("at least one family is required")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown families: {sorted(unknown)}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if min(self.rows, self.cols, self.cycles) < 1:
            raise ValueError(f"need rows, cols, cycles >= 1, got {self.rows}, {self.cols}, {self.cycles}")
        if any(n < 2 for n in self.counts):
            raise ValueError("curve counts must be >= 2")
        if (self.data_csv is None) != (self.joint_spec_path is None):
            raise ValueError("data_csv and joint_spec_path must be given together")


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (family, count, seed) cell."""

    family: str
    count: int | None
    seed: int
    report: MetricsReport | None = None
    error: str | None = None

    @property
    def label(self) -> str:
        mid = "" if self.count is None else f"_n{self.count}"
        return f"{self.family}{mid}_seed{self.seed}"


def _cell_seed(base: int, family: str, count: int | None, seed: int) -> np.random.SeedSequence:
    fam_id = FAMILIES.index(family)
    return np.random.SeedSequence([base, fam_id, 0 if count is None else count, seed])


def _cell_map(
    codec: PopulationCodec, cfg: ExperimentConfig, count: int | None, seed: int
) -> tuple[SomMap, TrainConfig]:
    """A cell's initial map and training config, derived from its seeds alone."""
    ss = _cell_seed(cfg.babble_seed, codec.family, count, seed)
    init_seed, train_seed = (int(s) for s in ss.generate_state(2))
    som = init_consistent(cfg.rows, cfg.cols, codec, seed=init_seed)
    return som, TrainConfig(cycles=cfg.cycles, shuffle=cfg.shuffle, seed=train_seed)


def run_cell(
    dataset: Dataset,
    codec: PopulationCodec,
    encoded: np.ndarray,
    cfg: ExperimentConfig,
    count: int | None,
    seed: int,
) -> MetricsReport:
    """Train and evaluate one matrix cell; deterministic per config values.

    ``run_experiment`` trains a group's seeds together; this single-seed
    path yields the same report for each cell.
    """
    som, train_cfg = _cell_map(codec, cfg, count, seed)
    trained, _ = train(som, encoded, train_cfg)
    return evaluate_map(
        trained, codec, dataset, encoded, cfg.kde, cycles=cfg.cycles, seed=seed
    )


def load_or_generate(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_csv is not None:
        return load_dataset(cfg.data_csv, cfg.joint_spec_path)
    return generate_babble(BabbleConfig(seed=cfg.babble_seed, duration_s=cfg.duration_s))


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_group(dataset: Dataset, codec: PopulationCodec, encoded: np.ndarray,
               cfg: ExperimentConfig, count: int | None, out: Path) -> list[CellResult]:
    """Train every seed of one (family, count) group in lockstep, then score
    each cell.  A training failure fails every seed of the group; a scoring
    failure fails its cell alone."""
    family = codec.family
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            soms, train_cfgs = zip(*(_cell_map(codec, cfg, count, seed) for seed in cfg.seeds))
            trained = [som for som, _ in train_group(soms, encoded, train_cfgs)]
    except Exception as exc:  # noqa: BLE001 - a group must not kill the matrix
        return [CellResult(family, count, seed, error=_error(exc)) for seed in cfg.seeds]

    cells = []
    for seed, som in zip(cfg.seeds, trained):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = evaluate_map(
                    som, codec, dataset, encoded, cfg.kde, cycles=cfg.cycles, seed=seed
                )
        except Exception as exc:  # noqa: BLE001 - cells must not kill the matrix
            cells.append(CellResult(family, count, seed, error=_error(exc)))
            continue
        cell = CellResult(family, count, seed, report=report)
        (out / f"{cell.label}.json").write_text(json.dumps(report.to_json(), indent=2) + "\n")
        cells.append(cell)
    return cells


def run_experiment(cfg: ExperimentConfig) -> list[CellResult]:
    """Run the full matrix; cell failures are recorded, not fatal.

    Writes ``<label>.json`` per cell, ``aggregate.csv`` over all cells, and
    ``qe_bars.svg`` of the per-configuration median qe_angle.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_or_generate(cfg)

    results: list[CellResult] = []
    for family in cfg.families:
        counts: tuple[int | None, ...] = (None,) if family == "normalized" else cfg.counts
        for count in counts:
            spec = (
                CodecSpec(family)
                if count is None
                else CodecSpec(family, "fixed_count", count)
            )
            codec = build_codec(spec, dataset.joints)
            encoded = encode_dataset(codec, dataset)
            results.extend(_run_group(dataset, codec, encoded, cfg, count, out))

    write_aggregate_csv(results, out / "aggregate.csv")
    medians = median_qe_angle(results)
    if medians:
        plot_qe_bars(medians, cfg.counts).save(out / "qe_bars.svg")
    return results


def write_aggregate_csv(results: list[CellResult], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for cell in results:
            if cell.report is None:
                continue
            r = cell.report
            writer.writerow([
                cell.family,
                "" if cell.count is None else cell.count,
                cell.seed,
                repr(r.qe_encoded),
                repr(r.qe_encoded_per_sqrt_width),
                repr(r.qe_angle),
                repr(r.topographic_error),
                repr(r.neighbor_coherence_ratio),
                r.n_undecodable_units,
                r.width,
                r.rows,
                r.cols,
                r.cycles,
            ])


def median_qe_angle(results: list[CellResult]) -> dict[tuple[str, int | None], float]:
    """Median qe_angle per (family, count) over seeds, skipping failed cells."""
    groups: dict[tuple[str, int | None], list[float]] = {}
    for cell in results:
        if cell.report is not None:
            groups.setdefault((cell.family, cell.count), []).append(cell.report.qe_angle)
    return {key: float(np.median(vals)) for key, vals in groups.items()}


# ---------------------------------------------------------------------------
# Single-update drift demonstration
# ---------------------------------------------------------------------------

def demo_inconsistency(
    family: str,
    angle_input: float,
    angle_init: float,
    out_dir=None,
    count: int = 10,
    joint: JointSpec = JointSpec("demo_joint", -40.0, 30.0),
    alpha: float = 0.5,
    kde: KdeConfig | None = None,
) -> dict:
    """One BMU update from one encoded angle toward another.

    Returns a report with the manifold drift of the updated weight vector
    and, when possible, its decoded angle.  With ``out_dir`` set, writes a
    three-panel SVG plus the report as JSON.
    """
    if not (joint.contains(angle_input) and joint.contains(angle_init)):
        raise ValueError(
            f"angles ({angle_input}, {angle_init}) must lie in "
            f"[{joint.min_deg}, {joint.max_deg}]"
        )
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha is a learning rate and must lie in [0, 1], got {alpha}")
    spec = CodecSpec(family) if family == "normalized" else CodecSpec(family, "fixed_count", count)
    codec = build_codec(spec, (joint,))
    x = encode(codec, [angle_input])
    w0 = encode(codec, [angle_init])
    w1 = w0 + alpha * (x - w0)

    som = SomMap(1, 1, w1[None, :], codec=codec)
    drift = float(manifold_distance(som)[0])
    report = {
        "family": family,
        "count": None if family == "normalized" else count,
        "joint_range": [joint.min_deg, joint.max_deg],
        "angle_input": angle_input,
        "angle_init": angle_init,
        "alpha": alpha,
        "manifold_drift": drift,
    }
    try:
        report["decoded_after_update"] = float(decode_vector(codec, w1, kde)[0])
    except UndecodableError as exc:
        report["decoded_after_update"] = None
        report["decode_error"] = str(exc)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        plot_update_drift(codec, angle_input, angle_init, alpha).save(
            out / f"inconsistency_{family}.svg"
        )
        (out / f"inconsistency_{family}.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )
    return report
