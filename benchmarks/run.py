"""posturemap benchmark: one workload per run, one process, ``time.perf_counter``.

Usage, from the repository root::

    python3 benchmarks/run.py --workload matrix --seed 0 --seconds 35 --trace 0

The run sets the workload up five times, then repeats the workload's
fixed work while another repetition is expected to fit in ``--seconds``.
Each step of a repetition is timed on its own, and a fixed reference loop
runs before the first step and after each step, and around each set-up.
Times are reported in reference seconds: a time divided by the mean of
the two reference loops around it, times the loop's nominal
``REF_LOOP_S``.  ``setup_s`` is the median set-up, and ``wall_s`` sums
each step's median.  Every repetition's outputs are collected after its
timers stop and checked against the reference recorded for the input
instance.  With ``--trace 1`` it then sets up and runs once more with
spans recorded around every public function of the package, and reports
per-layer metrics, in plain seconds, instead of the end-to-end ones.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.

Inputs derive from the seed: instance ``seed % INSTANCES`` is the babble
seed, and references exist for every instance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

INSTANCES = 32
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# The reference loop's duration, by definition, in reference seconds.  On
# the machine in README.md it takes 3 ms when the machine is fast and up
# to 9 ms when it is slow.
REF_LOOP_S = 0.003

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

LAYER_SELF = tuple(
    f"{layer}.self_s" for layer in (
        "babble", "kinematics", "codec", "dataset", "som",
        "decode", "metrics", "experiment", "plots", "cli",
    )
)

PER_LAYER = {
    "trace.setup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.timed_self_sum_s": "s",
    **{name: "s" for name in LAYER_SELF},
    "babble.busy_s": "s",
    "babble.samples": "count",
    "kinematics.ik_calls": "count",
    "kinematics.ik_busy_s": "s",
    "kinematics.ik_ok_frac": "ratio",
    "codec.encode_busy_s": "s",
    "codec.encode_values": "count",
    "codec.encode_sample_calls": "count",
    "dataset.io_busy_s": "s",
    "som.train_calls": "count",
    "som.train_busy_s": "s",
    "som.train_steps": "count",
    "som.train_us_per_step": "us",
    "som.train_flops": "flop-computed",
    "som.init_busy_s": "s",
    "som.manifold_calls": "count",
    "som.manifold_units": "count",
    "som.manifold_busy_s": "s",
    "som.bmu_busy_s": "s",
    "decode.vector_calls": "count",
    "decode.busy_s": "s",
    "decode.kde_calls": "count",
    "decode.kde_busy_s": "s",
    "decode.undecodable_frac": "ratio",
    "metrics.evaluate_calls": "count",
    "metrics.evaluate_busy_s": "s",
    "metrics.evaluate_self_s": "s",
    "metrics.decode_units_busy_s": "s",
    "experiment.cells": "count",
    "experiment.cells_failed": "count",
    "experiment.cell_s.p50": "s",
    "experiment.cell_s.tail": "s",
    "experiment.cell_s.tail_pct": "%",
    "plots.busy_s": "s",
    "cli.babble_s": "s",
    "cli.encode_s": "s",
    "cli.train_s": "s",
    "cli.decode_s": "s",
    "cli.eval_s": "s",
    "cli.bytes_written": "bytes",
}

# Each workload's own name for ``items_per_s`` in the printed report.
ITEM_NAMES = {"matrix": "cells_per_s", "evaluate": "maps_per_s", "cli": "samples_per_s"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("matrix", "evaluate", "cli"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> None:
    """One BLAS thread: steadier timings on a shared 2-core box, and the
    same floating-point reduction order as the recorded references."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


_REF_DATA = []


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter work and small and
    medium numpy operations, like the program's own: the median of three
    runs, so that one interrupt does not count.

    The benchmark's machine is shared, and its speed moves by 30-50% in
    spells lasting from a fraction of a second to minutes.  A step's time
    over the reference loop's time around it moves far less."""
    import numpy as np

    if not _REF_DATA:
        rng = np.random.default_rng(0)
        _REF_DATA.extend((rng.random((25, 13)), rng.random(60_000)))
    w, x = _REF_DATA
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(500):
            d = ((w - w[i % 25]) ** 2).sum(axis=1)
            acc += float(d[int(d.argmin())])
            if i % 100 == 0:
                acc += float(np.sqrt(x * x + 1.0).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_package():
    """Import posturemap from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "posturemap" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'posturemap'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import posturemap

    if Path(posturemap.__file__).resolve().parent != (SRC / "posturemap").resolve():
        raise SystemExit(f"error: imported posturemap from {posturemap.__file__}, not {SRC}")
    return posturemap


def provenance(args, instance: int, workload) -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "posturemap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "instance": instance,
        "sizes": workload.sizes(),
    }


def load_reference(workload, instance: int) -> dict:
    path = HERE / "reference" / f"{workload.name}.json"
    doc = json.loads(path.read_text())
    if doc["sizes"] != workload.sizes():
        raise SystemExit(f"error: {path} was recorded for sizes {doc['sizes']}")
    return doc["instances"][str(instance)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Tally:
    """Operations attempted and failed over every checked repetition."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failed_ops: set[str] = set()
        self.bitwise: dict[str, bool] = {}

    def add(self, outcome) -> None:
        from workloads import check

        failed, bitwise = check(outcome, self.reference)
        self.attempted += len(set(outcome.outputs) | set(self.reference["outputs"]))
        self.failed += len(failed)
        self.failed_ops |= failed
        for key, same in bitwise.items():
            self.bitwise[key] = self.bitwise.get(key, True) and same


def timed_setups(workload, instance: int, work: Path,
                 repeats: int) -> tuple[list[float], list[float], dict]:
    """Each set-up's seconds, and the seconds of reference loops run
    before the first set-up and after each."""
    times, refs, state = [], [reference_loop()], None
    for _ in range(repeats):
        fresh_dir(work)
        t0 = time.perf_counter()
        state = workload.setup(instance, work)
        times.append(time.perf_counter() - t0)
        refs.append(reference_loop())
    return times, refs, state


def run_steps(workload, state, work: Path, bracket: bool = False) -> tuple[dict, dict, list]:
    """One repetition: each step's result (or the exception it raised), its
    seconds and, with ``bracket``, the seconds of reference loops run
    before the first step and after each step."""
    results, times = {}, {}
    refs = [reference_loop()] if bracket else []
    for name, step in workload.steps(state, work):
        t0 = time.perf_counter()
        try:
            results[name] = step()
        except Exception as exc:  # noqa: BLE001 - a failed step is counted, not fatal
            results[name] = exc
        times[name] = time.perf_counter() - t0
        if bracket:
            refs.append(reference_loop())
    return results, times, refs


def timed_reps(workload, state, work: Path, seconds: float,
               tally: Tally) -> tuple[dict[str, list[float]], dict[str, list[float]], list[float]]:
    """Repeat the fixed work while another repetition is expected to fit in
    ``seconds`` of step time: at least once, and no more than ``seconds``
    plus the variation between repetitions in all.  Returns each step's
    times and the mean reference loop time around each, and every
    reference loop time.

    Only the steps are timed; their outputs are collected and checked after."""
    step_times: dict[str, list[float]] = {}
    step_refs: dict[str, list[float]] = {}
    all_refs: list[float] = []
    reps: list[float] = []
    while True:
        results, times, refs = run_steps(workload, state, work, bracket=True)
        for (name, t), ref in zip(times.items(), around(refs)):
            step_times.setdefault(name, []).append(t)
            step_refs.setdefault(name, []).append(ref)
        all_refs += refs
        reps.append(sum(times.values()))
        tally.add(workload.collect(state, work, results))
        if sum(reps) + statistics.median(reps) > seconds:
            return step_times, step_refs, all_refs


def around(refs: list[float]) -> list[float]:
    """The mean of each two consecutive reference loop times."""
    return [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def in_ref_s(times: list[float], refs: list[float]) -> float:
    """The median of ``times`` over the matching reference loop times, in
    reference seconds."""
    return REF_LOOP_S * statistics.median(t / r for t, r in zip(times, refs))


def cell_tail(durations: list[float]) -> dict:
    """Median cell time, and the highest percentile with >= 10 cells above it."""
    n = len(durations)
    out = {"p50": statistics.median(durations) if n else 0.0, "tail": 0.0, "tail_pct": 0.0}
    if n > 10:
        out["tail"] = sorted(durations)[n - 11]
        out["tail_pct"] = 100.0 * (n - 10) / n
    return out


def layer_metrics(tracer, outcome, untraced_rep_s: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics over the traced set-up and repetition together."""
    from tracer import summarize

    phase = {s[2]: s for s in tracer.spans if s[2].startswith("bench.")}
    setup_s = phase["bench.setup"][4] - phase["bench.setup"][3]
    t0, t1 = phase["bench.timed"][3:5]
    wall_s = t1 - t0
    spans = [s for s in tracer.spans if not s[2].startswith("bench.")]
    by_name, by_layer = summarize(spans)
    name_of = {s[0]: s[2] for s in spans}

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def busy(*names):
        # Outermost spans among ``names`` only, so nested calls count once.
        return sum(s[4] - s[3] for s in spans if s[2] in names and name_of.get(s[1]) not in names)

    def layer(name, key):
        return by_layer.get(name, {}).get(key, 0.0)

    counts = tracer.counts
    steps = counts["som.train_steps"]
    ik_calls = calls("kinematics.solve_arm_ik")
    vec_calls = calls("decode.decode_vector")
    cell_times = [s[4] - s[3] for s in spans if s[2] == "experiment.run_cell"]
    cells = cell_tail(cell_times)
    m = {
        "trace.setup_s": setup_s,
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_rep_s,
        "trace.spans": len(spans),
        # The package's self time within the timed phase.  Self times
        # partition a span tree, so this is at most ``trace.wall_s`` unless
        # the tracer's span stack is inconsistent.
        "trace.timed_self_sum_s": sum(s[5] for s in spans if t0 <= s[3] and s[4] <= t1),
        **{name: layer(name.split(".")[0], "self_s") for name in LAYER_SELF},
        "babble.busy_s": layer("babble", "busy_s"),
        "babble.samples": counts["babble.samples"],
        "kinematics.ik_calls": ik_calls,
        "kinematics.ik_busy_s": busy("kinematics.solve_arm_ik"),
        "kinematics.ik_ok_frac": counts["kinematics.ik_ok"] / ik_calls if ik_calls else 0.0,
        "codec.encode_busy_s": busy("codec.encode_dataset", "codec.encode_sample"),
        "codec.encode_values": counts["codec.encode_values"],
        "codec.encode_sample_calls": calls("codec.encode_sample"),
        "dataset.io_busy_s": busy("dataset.save_dataset", "dataset.load_dataset",
                                  "dataset.save_joint_specs", "dataset.load_joint_specs"),
        "som.train_calls": calls("som.train"),
        "som.train_busy_s": busy("som.train"),
        "som.train_steps": steps,
        "som.train_us_per_step": busy("som.train") / steps * 1e6 if steps else 0.0,
        "som.train_flops": counts["som.train_flops"],
        "som.init_busy_s": busy("som.init_consistent", "som.init_naive"),
        "som.manifold_calls": calls("som.manifold_distance"),
        "som.manifold_units": counts["som.manifold_units"],
        "som.manifold_busy_s": busy("som.manifold_distance"),
        "som.bmu_busy_s": busy("som.bmu_indices", "som.find_bmu"),
        "decode.vector_calls": vec_calls,
        "decode.busy_s": layer("decode", "busy_s"),
        "decode.kde_calls": calls("decode.kde_density"),
        "decode.kde_busy_s": busy("decode.kde_density"),
        "decode.undecodable_frac": (
            by_name["decode.decode_vector"]["raised"] / vec_calls if vec_calls else 0.0
        ),
        "metrics.evaluate_calls": calls("metrics.evaluate_map"),
        "metrics.evaluate_busy_s": busy("metrics.evaluate_map"),
        "metrics.evaluate_self_s": sum(s[5] for s in spans if s[2] == "metrics.evaluate_map"),
        "metrics.decode_units_busy_s": busy("metrics.decode_units"),
        "experiment.cells": len(cell_times),
        "experiment.cells_failed": by_name.get("experiment.run_cell", {}).get("raised", 0),
        "experiment.cell_s.p50": cells["p50"],
        "experiment.cell_s.tail": cells["tail"],
        "experiment.cell_s.tail_pct": cells["tail_pct"],
        "plots.busy_s": layer("plots", "busy_s"),
        **{f"cli.{sub}_s": busy(f"cli.cmd_{sub}")
           for sub in ("babble", "encode", "train", "decode", "eval")},
        "cli.bytes_written": outcome.bytes_written,
    }
    return m, by_name, by_layer


def print_layer_table(workload: str, by_layer: dict, wall_s: float, self_sum: float) -> None:
    print(f"per-layer spans ({workload}, set-up and timed): layer, calls, busy_s, self_s")
    for name, g in sorted(by_layer.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<11} {g['calls']:>8d} {g['busy_s']:>10.4f} {g['self_s']:>10.4f}")
    verdict = "ok" if self_sum <= wall_s else "EXCEEDS"
    print(f"  timed self-time sum {self_sum:.4f} s <= traced wall_s {wall_s:.4f} s: {verdict}")


def measure(workload, instance: int, reference: dict, seconds: float, trace: bool,
            work: Path, trace_path: Path | None = None, prov: dict | None = None) -> dict:
    """Set up, time and check one workload; returns the result object."""
    try:
        setups, setup_refs, state = timed_setups(workload, instance, work, SETUP_REPEATS)
        tally = Tally(reference)
        step_times, step_refs, all_refs = timed_reps(workload, state, work, seconds, tally)
        wall_s = sum(in_ref_s(step_times[name], step_refs[name]) for name in step_times)
        reps = [sum(rep) for rep in zip(*step_times.values())]
        print(f"set-ups: {[round(t, 4) for t in setups]} s")
        print(f"repetitions: {[round(t, 4) for t in reps]} s (median {statistics.median(reps):.4f})")
        for name, times in step_times.items():
            print(f"  step {name}: median {statistics.median(times):.4f} s of {len(times)}, "
                  f"{in_ref_s(times, step_refs[name]):.4f} reference s")
        all_refs += setup_refs
        print(f"reference loop: median {statistics.median(all_refs) * 1e3:.2f} ms, "
              f"{min(all_refs) * 1e3:.2f}-{max(all_refs) * 1e3:.2f} ms over {len(all_refs)}")
        metrics = {
            "setup_s": in_ref_s(setups, around(setup_refs)),
            "wall_s": wall_s,
            "items_per_s": workload.items() / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"{ITEM_NAMES[workload.name]}: {metrics['items_per_s']:.6g} "
              f"({workload.items()} per repetition)")

        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(callers=[sys.modules[type(workload).__module__]])
            try:
                fresh_dir(work)
                with tracer.span("bench.setup"):
                    state = workload.setup(instance, work)
                with tracer.span("bench.timed"):
                    results, _, _ = run_steps(workload, state, work)
            finally:
                tracer.uninstall()
            outcome = workload.collect(state, work, results)
            tally.add(outcome)
            metrics, by_name, by_layer = layer_metrics(tracer, outcome, statistics.median(reps))
            units = PER_LAYER
            print_layer_table(workload.name, by_layer, metrics["trace.wall_s"],
                              metrics["trace.timed_self_sum_s"])
            print(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s "
                  f"(traced wall_s {metrics['trace.wall_s']:.4f} - untraced median repetition "
                  f"{statistics.median(reps):.4f})")
            if trace_path is not None:
                trace_path.write_text(json.dumps({
                    "provenance": prov,
                    "functions": by_name,
                    "layers": by_layer,
                    "span_fields": ["id", "parent", "name", "start", "end", "self_s", "raised"],
                    "spans": tracer.spans,
                }))
                print(f"spans written to {trace_path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"bitwise equal to reference: {json.dumps(tally.bitwise, sort_keys=True)}")
    if tally.failed_ops:
        print(f"failed operations: {sorted(tally.failed_ops)}")
    print(f"fail_frac: {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    instance = args.seed % INSTANCES
    reference = load_reference(workload, instance)
    prov = provenance(args, instance, workload)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    out_root = HERE / "out"
    result = measure(
        workload, instance, reference, args.seconds, bool(args.trace),
        work=out_root / f"work-{args.workload}-{os.getpid()}",
        trace_path=out_root / f"trace-{args.workload}-seed{args.seed}.json",
        prov=prov,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
