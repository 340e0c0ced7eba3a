"""Experiment matrix and demonstration runners.

``run_experiment`` measures map quality for every combination of encoding
family, curve count, and seed on one shared dataset, writing per-run JSON
reports, an aggregate CSV, and a grouped-bar SVG of median angle-space
quantization error; its cells are shared over the usable CPUs, the caller
taking one share and forked processes the rest.  ``demo_inconsistency``
reproduces the single-update drift effect: one BMU update in activation
space pulls a weight vector off the set of valid population codes for
every population family, while the plain normalized encoding stays
consistent.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import numpy as np

from .babble import DURATION_S, BabbleConfig, generate_babble
from .codec import FAMILIES, CodecSpec, PopulationCodec, build_codec, encode, encode_dataset
from .dataset import (
    BOOL, PATH, Dataset, JointSpec, check_fields, check_value, either, instance, integer, load_dataset,
    real, tuple_of,
)
from .decode import KdeConfig, decode_matrix, undecodable_dof_error
from .errors import WorkerExitError
from .metrics import MetricsReport, evaluate_map
from .plots import plot_qe_bars, plot_update_drift
from .som import SomMap, TrainConfig, init_consistent, manifold_distance, train_group

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
    cycles: int = TrainConfig.cycles
    shuffle: bool = TrainConfig.shuffle
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    kde: KdeConfig = field(default_factory=KdeConfig)
    strict: bool = False

    def __post_init__(self):
        check_fields(
            self, out_dir=PATH, babble_seed=integer(0), duration_s=DURATION_S,
            data_csv=either(PATH, None), joint_spec_path=either(PATH, None),
            families=tuple_of(instance(str)), counts=tuple_of(integer(2)),
            rows=integer(1), cols=integer(1), cycles=integer(1), shuffle=BOOL,
            seeds=tuple_of(integer(0)), kde=instance(KdeConfig), strict=BOOL,
        )
        # Python ints, so that a config of numpy integers writes the same
        # bytes, JSON included, as one of the ints they equal.
        for name in ("babble_seed", "rows", "cols", "cycles"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("counts", "seeds"):
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        object.__setattr__(self, "families", tuple(self.families))
        # A repeat would run a cell twice under one label: its JSON
        # overwritten and its row counted twice in the medians.
        for name in ("families", "counts", "seeds"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be non-empty without repeats, got {list(values)}")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown families: {sorted(unknown)}")
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


def load_or_generate(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_csv is not None:
        return load_dataset(cfg.data_csv, cfg.joint_spec_path)
    return generate_babble(BabbleConfig(seed=cfg.babble_seed, duration_s=cfg.duration_s))


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cells(dataset: Dataset, cfg: ExperimentConfig, family: str, count: int | None,
               seeds) -> list[CellResult]:
    """The one cell path: build the (family, count) codec, encode the data,
    train the maps of ``seeds`` in lockstep, then score each.  A failure
    before scoring fails every one of these seeds; a scoring failure fails
    its cell alone."""
    try:
        spec = CodecSpec(family) if count is None else CodecSpec(family, "fixed_count", count)
        codec = build_codec(spec, dataset.joints)
        encoded = encode_dataset(codec, dataset)
        soms, train_cfgs = zip(*(_cell_map(codec, cfg, count, seed) for seed in seeds))
        trained = train_group(soms, encoded, train_cfgs)
    except Exception as exc:  # noqa: BLE001 - a group must not kill the matrix
        return [CellResult(family, count, seed, error=_error(exc)) for seed in seeds]

    cells = []
    for seed, som in zip(seeds, trained):
        try:
            report = evaluate_map(som, codec, dataset, encoded, cfg.kde, cycles=cfg.cycles, seed=seed)
        except Exception as exc:  # noqa: BLE001 - cells must not kill the matrix
            cells.append(CellResult(family, count, seed, error=_error(exc)))
        else:
            cells.append(CellResult(family, count, seed, report=report))
    return cells


def _usable_cpus() -> int:
    """How many processes share a matrix: the CPUs this process may run on,
    or 1 where processes cannot be forked."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_share(dataset: Dataset, cfg: ExperimentConfig, cells) -> list[CellResult]:
    """One process's ``(family, count, seed)`` cells, in order, each
    (family, count) group's seeds in one :func:`_run_cells` call."""
    results = []
    for (family, count), group in groupby(cells, key=lambda cell: cell[:2]):
        results.extend(_run_cells(dataset, cfg, family, count, [seed for *_, seed in group]))
    return results


def _send_share(conn, dataset: Dataset, cfg: ExperimentConfig, cells) -> None:
    conn.send(_run_share(dataset, cfg, cells))


def _run_shares(dataset: Dataset, cfg: ExperimentConfig, shares) -> list[list[CellResult]]:
    """Each share's results: the first share run here, every other one in a
    process forked now, which sends its results back over a pipe.  A process
    that exits without sending raises :class:`WorkerExitError`; whatever
    ends this call, no forked process is left running."""
    children = []
    try:
        for share in shares[1:]:
            ctx = multiprocessing.get_context("fork")
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_share, args=(writer, dataset, cfg, share))
            proc.start()
            writer.close()
            children.append((proc, reader))
        results = [_run_share(dataset, cfg, shares[0])]
        for proc, reader in children:
            try:
                results.append(reader.recv())
            except EOFError:
                proc.join()
                raise WorkerExitError(
                    f"a matrix process exited with code {proc.exitcode} before sending its cells"
                ) from None
        return results
    finally:
        # Stopping a child that has sent its results loses nothing.
        for proc, reader in children:
            reader.close()
            proc.terminate()
            proc.join()


def run_experiment(cfg: ExperimentConfig) -> list[CellResult]:
    """Run the full matrix; cell failures are recorded, not fatal.

    The cells, in output order (group-major, seed-minor), are dealt out
    over ``n = min(_usable_cpus(), cells)`` processes: cell ``i`` goes to
    process ``i mod n``, process 0 being the caller.  Only the caller
    writes: ``<label>.json`` per scored cell, ``aggregate.csv`` over all
    cells, and ``qe_bars.svg`` of the per-configuration median qe_angle, so
    no output depends on ``n``.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_or_generate(cfg)

    cells = [
        (family, count, seed)
        for family in cfg.families
        for count in ((None,) if family == "normalized" else cfg.counts)
        for seed in cfg.seeds
    ]
    n = min(_usable_cpus(), len(cells))
    results: list[CellResult] = [None] * len(cells)
    for i, share in enumerate(_run_shares(dataset, cfg, [cells[i::n] for i in range(n)])):
        results[i::n] = share

    for cell in results:
        if cell.report is not None:
            (out / f"{cell.label}.json").write_text(json.dumps(cell.report.to_json(), indent=2) + "\n")
    write_aggregate_csv(results, out / "aggregate.csv")
    medians = median_qe_angle(results)
    if medians:
        plot_qe_bars(medians).save(out / "qe_bars.svg")
    return results


def write_aggregate_csv(results: list[CellResult], path) -> None:
    """One row per scored cell: ``count`` from the cell (empty for the
    normalized family), every other column the report field of that name,
    floats as ``repr`` and integers as they are."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for cell in results:
            if cell.report is None:
                continue
            values = (cell.count if name == "count" else getattr(cell.report, name)
                      for name in AGGREGATE_COLUMNS)
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in values])


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
    count: int = CodecSpec.n_or_offset,
    joint: JointSpec = JointSpec("demo_joint", -40.0, 30.0),
    alpha: float = 0.5,
) -> dict:
    """One BMU update from one encoded angle toward another.

    Returns a report with the manifold drift of the updated weight vector
    and, when possible, its angle decoded under the default
    :class:`KdeConfig`.  With ``out_dir`` set, writes a three-panel SVG
    that draws the updated weight at that angle, plus the report as JSON.
    An angle outside ``joint``'s range raises :class:`OutOfRangeError`.
    """
    check_value("alpha", alpha, real(ge=0, le=1))
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
    decoded = decode_matrix(codec, w1[None, :])[0]
    error = undecodable_dof_error(codec, decoded)
    if error is None:
        report["decoded_after_update"] = float(decoded[0])
    else:
        report["decoded_after_update"] = None
        report["decode_error"] = str(error)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        angles = (angle_input, angle_init, report["decoded_after_update"])
        plot_update_drift(codec, angles, (x, w0, w1), alpha).save(out / f"inconsistency_{family}.svg")
        (out / f"inconsistency_{family}.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )
    return report
