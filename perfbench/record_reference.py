#!/usr/bin/env python3
"""Record the outputs the benchmark checks later runs against.

For each workload and each seed in ``--seeds`` (``a-b``, inclusive),
runs the workload's operations once on every input it builds and writes
the checked outputs (Hit@1/Hit@5, trace length, last trace objective,
sweep Hit@1 per k) to ``perfbench/reference.json``, keyed by the
workload's sizes so that a run at other sizes is not compared with them.
Run it from the root of a checkout, only when the program's outputs are
meant to change::

    python3 perfbench/record_reference.py --seeds 0-19
"""

import argparse
import json
import os
import shutil
import sys

import run


def record(workload, seed, zs):
    work = os.path.join(run.WORK, f"reference-{workload.name}")
    os.makedirs(work, exist_ok=True)
    state = workload.setup(zs, seed, work)
    observed = {}
    runner = run.Runner()
    for index in range(workload.datasets):
        runner.round(workload.ops(zs, state, index, None, observed))
    shutil.rmtree(work)
    if runner.failed:
        raise RuntimeError(f"{workload.name} seed {seed}: "
                           f"{runner.failed} operation(s) failed")
    return observed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19")
    parser.add_argument("--workload", action="append",
                        choices=list(run.WORKLOADS))
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))

    run.set_blas_threads()
    zs = run.import_package()
    reference = {}
    if os.path.isfile(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            reference = json.load(fh)
    for name in args.workload or run.WORKLOADS:
        workload = run.WORKLOADS[name]
        seeds = {}
        for seed in range(lo, hi + 1):
            seeds[str(seed)] = record(workload, seed, zs)
            print(f"{name} seed {seed}: {seeds[str(seed)]}", flush=True)
        reference[name] = {"spec": workload.spec, "seeds": seeds}
        with open(run.REFERENCE, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
