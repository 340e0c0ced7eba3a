"""Tiny-size smoke test of the benchmark itself.

Run from the repository root with ``python3 -m pytest benchmarks``.  Each
workload runs once at a tiny size against a reference recorded in the
test, then against a perturbed copy of it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_threads()
run.import_package()

from workloads import Cli, Evaluate, Matrix, reference_entry  # noqa: E402

TINY = {
    "matrix": lambda: Matrix(duration_s=2.0, families=("normalized", "gaussian"),
                             counts=(5,), seeds=(0,), rows=3, cols=3, cycles=1),
    "evaluate": lambda: Evaluate(duration_s=2.0, families=("normalized", "sigmoid"),
                                 rows=3, cols=3),
    "cli": lambda: Cli(duration_s=2.0, count=5, rows=3, cols=3, cycles=1),
}

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    (HERE / "out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=HERE / "out", prefix="smoke-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_reference(workload, work: Path) -> dict:
    run.fresh_dir(work)
    state = workload.setup(0, work)
    return reference_entry(workload.collect(state, work, run.run_steps(workload, state, work)[0]))


def perturb(reference: dict) -> dict:
    """Shift the first float output found by a relative 1e-6."""
    bad = copy.deepcopy(reference)

    def shift_first_float(node: dict) -> bool:
        for key, value in node.items():
            if isinstance(value, float):
                node[key] = value * (1.0 + 1e-6) + 1e-6
                return True
            if isinstance(value, dict) and shift_first_float(value):
                return True
        return False

    assert shift_first_float(bad["outputs"]), "reference holds no float output"
    return bad


@pytest.mark.parametrize("name", sorted(TINY))
def test_emits_every_metric_and_checks_outputs(name, work):
    workload = TINY[name]()
    reference = tiny_reference(workload, work / "ref")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(workload, 0, reference, 0.0, trace, work / "run")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    result = run.measure(workload, 0, perturb(reference), 0.0, False, work / "run")
    assert not result["correct"] and result["failed"] >= 1


def test_traced_self_times_fit_in_traced_wall(work):
    workload = TINY["matrix"]()
    reference = tiny_reference(workload, work / "ref")
    m = run.measure(workload, 0, reference, 0.0, True, work / "run")["metrics"]
    assert 0.0 < m["trace.timed_self_sum_s"]["value"] <= m["trace.wall_s"]["value"]
    assert m["experiment.cells"]["value"] == workload.items()
    assert m["som.train_calls"]["value"] == workload.items()


def test_fails_without_the_program(work):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits nonzero and prints no result."""
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
