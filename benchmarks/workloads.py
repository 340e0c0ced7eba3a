"""The benchmark's three workloads.

Each workload has a set-up (not timed as ``wall_s``; measured as
``setup_s``), a repetition of fixed work (``steps``, the timed phase: an
ordered list of named calls into the program, each timed on its own) and
an untimed ``collect`` that reads what the repetition produced into an
:class:`Outcome`: one comparable output per operation (a matrix cell, an
evaluated map, a CLI subcommand) plus SHA-256 digests of the files it
wrote.  ``collect`` receives each step's result, or the exception the
step raised.  ``collect`` also clears the repetition's
files, so the next one starts from the state set-up left.  ``check``
compares an outcome with the reference recorded for the same input
instance.

All inputs derive from the instance number passed to ``setup``: it is the
babble seed, and every SOM seed is derived from it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from posturemap import cli
from posturemap.babble import SAMPLE_RATE_HZ, BabbleConfig, generate_babble
from posturemap.codec import CodecSpec, build_codec, encode_dataset
from posturemap.dataset import load_dataset, save_dataset
from posturemap.decode import KdeConfig
from posturemap.experiment import ExperimentConfig, run_experiment
from posturemap.metrics import evaluate_map
from posturemap.som import TrainConfig, init_consistent, manifold_distance, train

FAMILIES = ("normalized", "linear", "sigmoid", "gaussian")

# Float outputs must agree with the reference to this relative tolerance
# (absolute near zero).  Training and decoding are deterministic, so a
# change that keeps the arithmetic reproduces the reference bit for bit;
# the tolerance admits only reordered floating-point sums.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass
class Outcome:
    """What one repetition produced."""

    outputs: dict[str, dict] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _groups(families, counts):
    for family in families:
        for count in (None,) if family == "normalized" else counts:
            yield family, count


def _spec(family: str, count: int | None) -> CodecSpec:
    return CodecSpec(family) if count is None else CodecSpec(family, "fixed_count", count)


def _parse_cell(text: str):
    """An aggregate.csv field as int, float, or the text itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_matrix(path: Path) -> np.ndarray:
    """A header-plus-rows numeric CSV, parsed with ``float`` (exact for repr output)."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row] for row in rows])


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _group_label(family: str, count: int | None) -> str:
    return family if count is None else f"{family}_n{count}"


class Matrix:
    """``experiment.run_experiment`` over the acceptance matrix shape.

    All families, counts 5/10/20, 5x5 maps, 6 shuffled cycles and three
    seeds per group, on a babble shorter than acceptance's 300 s.  Set-up
    writes the babble to CSV; the timed phase is one ``run_experiment``
    per (family, count) group, each training and scoring that group's
    seeds.  A cell's seeds derive from the babble seed, family, count and
    seed alone, so every cell is the one a single whole-matrix call makes.
    """

    name = "matrix"

    def __init__(self, duration_s=20.0, families=FAMILIES, counts=(5, 10, 20),
                 seeds=(0, 1, 2), rows=5, cols=5, cycles=6):
        self.duration_s = duration_s
        self.families = tuple(families)
        self.counts = tuple(counts)
        self.seeds = tuple(seeds)
        self.rows, self.cols, self.cycles = rows, cols, cycles

    def sizes(self) -> dict:
        return {
            "babble_s": self.duration_s, "families": list(self.families),
            "counts": list(self.counts), "seeds_per_group": len(self.seeds),
            "map": f"{self.rows}x{self.cols}", "cycles": self.cycles,
            "cells": self.items(), "run_experiment_calls": len(self._labels()),
        }

    def items(self) -> int:
        return len(self._labels()) * len(self.seeds)

    def _labels(self) -> list[str]:
        return [_group_label(f, c) for f, c in _groups(self.families, self.counts)]

    def setup(self, instance: int, work: Path) -> dict:
        ds = generate_babble(BabbleConfig(seed=instance, duration_s=self.duration_s))
        save_dataset(ds, work / "data.csv", joint_spec_path=work / "joints.json")
        return {"instance": instance}

    def steps(self, state: dict, work: Path) -> list:
        steps = []
        for family, count in _groups(self.families, self.counts):
            cfg = ExperimentConfig(
                out_dir=str(work / "experiment" / _group_label(family, count)),
                babble_seed=state["instance"], data_csv=str(work / "data.csv"),
                joint_spec_path=str(work / "joints.json"), families=(family,),
                counts=self.counts if count is None else (count,), rows=self.rows,
                cols=self.cols, cycles=self.cycles, seeds=self.seeds,
            )
            steps.append((_group_label(family, count), lambda cfg=cfg: run_experiment(cfg)))
        return steps

    def collect(self, state: dict, work: Path, results: dict) -> Outcome:
        outcome = Outcome()
        for group in self._labels():
            out_dir = work / "experiment" / group
            cells = results[group]
            if isinstance(cells, Exception):
                outcome.outputs[group] = {"error": _error(cells)}
                continue
            for cell in cells:
                if cell.error is not None:
                    outcome.outputs[cell.label] = {"error": cell.error}
            qe_angles = []
            with (out_dir / "aggregate.csv").open(newline="") as fh:
                for row in csv.DictReader(fh):
                    row = {k: _parse_cell(v) for k, v in row.items()}
                    outcome.outputs[f"{group}_seed{row['seed']}"] = row
                    qe_angles.append(row["qe_angle"])
            if qe_angles:
                outcome.outputs[f"median_qe_angle:{group}"] = {
                    "qe_angle": float(np.median(qe_angles))}
            for name in ("aggregate.csv", "qe_bars.svg"):
                if (out_dir / name).exists():
                    outcome.files[f"{group}/{name}"] = _sha256(out_dir / name)
        shutil.rmtree(work / "experiment", ignore_errors=True)
        return outcome


class Evaluate:
    """``metrics.evaluate_map`` and ``som.manifold_distance`` on trained maps.

    Set-up babbles, encodes and trains one 10x10 map per family and count
    for one cycle; the timed phase scores every map and measures its
    distance from the valid-code manifold.  No training is timed.
    """

    name = "evaluate"
    CYCLES = 1

    def __init__(self, duration_s=10.0, families=FAMILIES, counts=(5,), rows=10, cols=10):
        self.duration_s = duration_s
        self.families = tuple(families)
        self.counts = tuple(counts)
        self.rows, self.cols = rows, cols

    def sizes(self) -> dict:
        return {
            "babble_s": self.duration_s, "families": list(self.families),
            "counts": list(self.counts), "map": f"{self.rows}x{self.cols}",
            "train_cycles": self.CYCLES, "maps": self.items(),
        }

    def items(self) -> int:
        return len(list(_groups(self.families, self.counts)))

    def setup(self, instance: int, work: Path) -> dict:
        ds = generate_babble(BabbleConfig(seed=instance, duration_s=self.duration_s))
        maps = []
        for g, (family, count) in enumerate(_groups(self.families, self.counts)):
            codec = build_codec(_spec(family, count), ds.joints)
            encoded = encode_dataset(codec, ds)
            init_seed, train_seed = (
                int(s) for s in np.random.SeedSequence([instance, g]).generate_state(2)
            )
            som = init_consistent(self.rows, self.cols, codec, seed=init_seed)
            trained, _ = train(som, encoded, TrainConfig(cycles=self.CYCLES, seed=train_seed))
            maps.append((_group_label(family, count), codec, encoded, trained))
        return {"dataset": ds, "maps": maps, "instance": instance}

    def steps(self, state: dict, work: Path) -> list:
        """Per map, its report and its drift, as two steps."""
        kde = KdeConfig()
        steps = []
        for label, codec, encoded, som in state["maps"]:
            steps.append((f"{label}.evaluate_map", lambda codec=codec, encoded=encoded, som=som:
                          evaluate_map(som, codec, state["dataset"], encoded, kde,
                                       cycles=self.CYCLES, seed=state["instance"])))
            steps.append((f"{label}.manifold_distance", lambda som=som: manifold_distance(som)))
        return steps

    def collect(self, state: dict, work: Path, results: dict) -> Outcome:
        outcome = Outcome()
        for label, *_ in state["maps"]:
            report = results[f"{label}.evaluate_map"]
            drift = results[f"{label}.manifold_distance"]
            failed = [r for r in (report, drift) if isinstance(r, Exception)]
            if failed:
                outcome.outputs[label] = {"error": _error(failed[0])}
            else:
                outcome.outputs[label] = {**report.to_json(), "manifold_mean": float(drift.mean())}
        return outcome


class Cli:
    """``cli.main`` on files: babble, encode, train, decode, eval.

    Gaussian codes (10 curves per DoF) keep every valid code decodable;
    the decode subcommand decodes every encoded row.  Set-up runs the same
    babble and encode through the library, as the reference the CLI's
    files are checked against.
    """

    name = "cli"
    SUBCOMMANDS = ("babble", "encode", "train", "decode", "eval")
    FAMILY = "gaussian"

    def __init__(self, duration_s=12.0, count=10, rows=5, cols=5, cycles=6):
        self.duration_s = duration_s
        self.count = count
        self.rows, self.cols, self.cycles = rows, cols, cycles

    def sizes(self) -> dict:
        return {
            "babble_s": self.duration_s, "family": self.FAMILY, "count": self.count,
            "map": f"{self.rows}x{self.cols}", "cycles": self.cycles,
            "samples": self.items(),
        }

    def items(self) -> int:
        return max(1, round(self.duration_s * SAMPLE_RATE_HZ))

    def setup(self, instance: int, work: Path) -> dict:
        ds = generate_babble(BabbleConfig(seed=instance, duration_s=self.duration_s))
        codec = build_codec(_spec(self.FAMILY, self.count), ds.joints)
        return {"instance": instance, "dataset": ds, "encoded": encode_dataset(codec, ds)}

    def _argv(self, instance: int, work: Path) -> dict[str, list[str]]:
        f = {k: str(work / k) for k in (
            "data.csv", "joints.json", "enc.csv", "codec.json", "map.json",
            "decoded.csv", "metrics.json")}
        return {
            "babble": ["babble", "--seed", str(instance), "--duration", str(self.duration_s),
                       "--out", f["data.csv"], "--spec-out", f["joints.json"]],
            "encode": ["encode", "--family", self.FAMILY, "--count", str(self.count),
                       "--data", f["data.csv"], "--spec", f["joints.json"],
                       "--out", f["enc.csv"], "--codec-out", f["codec.json"]],
            "train": ["train", "--codec", f["codec.json"], "--data", f["enc.csv"],
                      "--rows", str(self.rows), "--cols", str(self.cols),
                      "--cycles", str(self.cycles), "--seed", str(instance),
                      "--out", f["map.json"]],
            "decode": ["decode", "--codec", f["codec.json"], "--data", f["enc.csv"],
                       "--out", f["decoded.csv"]],
            "eval": ["eval", "--map", f["map.json"], "--data", f["data.csv"],
                     "--spec", f["joints.json"], "--out", f["metrics.json"]],
        }

    def steps(self, state: dict, work: Path) -> list:
        """One step per subcommand; each returns its exit code."""
        sink = io.StringIO()

        def main(argv):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)

        return [(sub, lambda argv=argv: main(argv))
                for sub, argv in self._argv(state["instance"], work).items()]

    def collect(self, state: dict, work: Path, codes: dict) -> Outcome:
        outcome = Outcome()
        for sub in self.SUBCOMMANDS:
            code = codes[sub]
            if isinstance(code, Exception):
                outcome.outputs[sub] = {"error": _error(code)}
            else:
                outcome.outputs[sub] = {"exit": code} if code == 0 else {"error": f"exit {code}"}
        if codes["babble"] == 0:
            got = load_dataset(work / "data.csv", work / "joints.json").samples
            outcome.outputs["babble"]["matches_library"] = bool(
                np.array_equal(got, state["dataset"].samples))
        if codes["encode"] == 0:
            got = _read_matrix(work / "enc.csv")
            outcome.outputs["encode"]["matches_library"] = bool(
                np.array_equal(got, state["encoded"]))
        if codes["decode"] == 0:
            outcome.outputs["decode"]["decoded_sha256"] = _sha256(work / "decoded.csv")
            outcome.outputs["decode"]["off_nearest_grid"] = self._off_grid(state, work)
        if codes["eval"] == 0:
            outcome.outputs["eval"]["metrics"] = json.loads((work / "metrics.json").read_text())
        for path in sorted(work.iterdir()):
            outcome.files[path.name] = _sha256(path)
            outcome.bytes_written += path.stat().st_size
            path.unlink()
        return outcome

    @staticmethod
    def _off_grid(state: dict, work: Path) -> int:
        """Decoded angles that are not the grid point nearest the true angle."""
        decoded = _read_matrix(work / "decoded.csv")
        truth = state["dataset"].samples
        off = 0
        res = KdeConfig().grid_resolution
        for d, joint in enumerate(state["dataset"].joints):
            n_steps = max(1, round(joint.range_deg / res))
            grid = np.linspace(joint.min_deg, joint.max_deg, n_steps + 1)
            nearest = grid[np.abs(truth[:, d, None] - grid[None, :]).argmin(axis=1)]
            off += int((decoded[:, d] != nearest).sum())
        return off


WORKLOADS = {w.name: w for w in (Matrix, Evaluate, Cli)}


def close(a, b) -> bool:
    """Structural equality with floats compared to ``REL_TOL``/``ABS_TOL``."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not isinstance(a, bool) and not isinstance(b, bool)
            and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        )
    return a == b


def check(outcome: Outcome, reference: dict) -> tuple[set[str], dict]:
    """Failed operations of an outcome, and its bitwise-equality report.

    An operation fails when it raised, is missing, is unexpected, or its
    output differs from the reference beyond the tolerance.  The bitwise
    report (not a gate) says whether all outputs are exactly equal and
    which written files are byte-identical to the reference.
    """
    ref_out = reference["outputs"]
    failed = {
        op for op, out in outcome.outputs.items()
        if "error" in out or op not in ref_out or not close(out, ref_out[op])
    }
    failed |= set(ref_out) - set(outcome.outputs)
    bitwise = {"outputs": outcome.outputs == ref_out}
    for name, digest in outcome.files.items():
        bitwise[name] = digest == reference["files"].get(name)
    return failed, bitwise


def reference_entry(outcome: Outcome) -> dict:
    return {"outputs": outcome.outputs, "files": outcome.files}
