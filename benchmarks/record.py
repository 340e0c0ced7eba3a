"""Record the reference outputs the benchmark's correctness check compares against.

Usage, from the repository root, at the commit whose outputs are the
reference::

    python3 benchmarks/record.py --workload matrix

Runs set-up and one repetition for every input instance and writes
``benchmarks/reference/<workload>.json``.  Every operation must succeed;
a failure aborts the recording.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("matrix", "evaluate", "cli"))
    args = p.parse_args(argv)
    run.pin_threads()
    run.import_package()
    from workloads import WORKLOADS, reference_entry

    workload = WORKLOADS[args.workload]()
    work = run.HERE / "out" / f"record-{args.workload}-{os.getpid()}"
    instances = {}
    try:
        for instance in range(run.INSTANCES):
            run.fresh_dir(work)
            state = workload.setup(instance, work)
            outcome = workload.collect(state, work, run.run_steps(workload, state, work)[0])
            errors = {op: out["error"] for op, out in outcome.outputs.items() if "error" in out}
            if errors:
                raise SystemExit(f"instance {instance}: failed operations {errors}")
            instances[str(instance)] = reference_entry(outcome)
            print(f"{args.workload} instance {instance}: {len(outcome.outputs)} operations")
    finally:
        run.shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"sizes": workload.sizes(), "instances": instances}) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
