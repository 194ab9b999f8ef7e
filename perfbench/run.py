#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the zsadjust package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload awa-cli --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0      # every workload, one process each

The package is imported from the checkout's ``src/``; without it the run
exits with status 2 before measuring anything.

Each workload builds its inputs from ``--seed`` (set-up, timed as
``setup_s``), then runs rounds of operations on them for about
``--seconds`` seconds: a round is one pass over the workload's
operations, and no round is started that would end past the deadline.
Every operation's output is checked; a failed check or an exception
counts the operation as failed.

``--trace 0`` prints the end-to-end metrics; each time is the geometric
mean of its repetitions in the run, scaled to a reference machine speed
measured beside them (see :class:`Calibration`). ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
rounds (medians over rounds), plus the tracing overhead: the fastest
traced round against the fastest untraced one. Spans are written to
``perfbench/.work/`` when the run ends. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Lines before it give each metric with its unit and the
environment (numpy, BLAS build and thread count, CPU).

Workload choice, the layers each one exercises, and which per-layer
metric should move which end-to-end metric are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracer import Tracer, check_accounting, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# BLAS threads. One thread: other tenants of a small shared machine make
# two-thread timings spread far more than one-thread timings.
BLAS_THREADS = 1

clock = time.perf_counter


# ---------------------------------------------------------------------------
# checks shared by the workloads


def _objective_tol(value):
    """Room for float-sum reordering between BLAS builds and threads."""
    return 1e-8 * abs(value) + 1e-12


def compare(problems, label, got, want, hit_tol):
    """Append to ``problems`` where ``got`` differs from ``want``.

    Keys starting with ``hit`` may differ by ``hit_tol`` (one instance),
    ``objective`` by :func:`_objective_tol`; other keys must be equal.
    """
    for key, expected in want.items():
        value = got.get(key)
        if value is None:
            problems.append(f"{label}: {key} missing")
        elif key.startswith("hit"):
            ok = abs(value - expected) <= hit_tol
        elif key == "objective":
            ok = abs(value - expected) <= _objective_tol(expected)
        else:
            ok = value == expected
        if value is not None and not ok:
            problems.append(f"{label}: {key} = {value!r}, expected {expected!r}")


def check_hits(problems, hits, candidates):
    """Hit@1 and Hit@5 are shares, ordered, and above chance."""
    h1, h5 = hits.get("hit_at_1"), hits.get("hit_at_5")
    if h1 is None or h5 is None:
        problems.append(f"Hit@1/Hit@5 missing: {hits}")
        return
    if not (0.0 <= h1 <= h5 <= 1.0):
        problems.append(f"Hit@k not ordered shares: {h1}, {h5}")
    if h1 <= 1.0 / candidates:
        problems.append(f"Hit@1 = {h1} is not above chance (1/{candidates})")


def check_trace(problems, objectives, deltas, hp):
    """The trace has one record per iteration the loop ran."""
    n = len(objectives)
    stopped_early = n < hp.iterations and n > 0 and deltas[-1] < hp.tol
    if n != hp.iterations and not stopped_early:
        problems.append(f"trace has {n} records for {hp.iterations} iterations")
    if not all(math.isfinite(v) and v > 0 for v in objectives):
        problems.append(f"trace objectives not finite and positive: {objectives}")


def check_weights(problems, weights, shape):
    if weights.shape != shape:
        problems.append(f"weights shape {weights.shape}, expected {shape}")
    elif not weights.size or not bool(_np().isfinite(weights).all()):
        problems.append("weights are not all finite")


def _np():
    import numpy
    return numpy


class Op:
    """One timed call ``fn()`` and the check ``check(result)`` of its
    output, which returns a list of problems."""

    def __init__(self, kind, fn, check):
        self.kind, self.fn, self.check = kind, fn, check


class Workload:
    """Base: subclasses give ``name``, ``default_spec`` (the
    ``SynthSpec`` sizes), ``setup`` and ``ops``. Observed outputs are
    compared with the reference recorded for the same sizes and seed, and
    with the first output of the same operation in this run."""

    name = ""
    setup_repeats = 5
    datasets = 1        # inputs a set-up builds; round i uses i % datasets
    evals = 1           # evaluations per training in a round

    def __init__(self, spec=None):
        self.spec = dict(spec or self.default_spec)

    def hit_at_1(self, state):
        """Hit@1 of the run: the checked value of the evaluation."""
        return state.get("hit_at_1")

    def expect(self, problems, key, observed, hit_tol, reference, first):
        if key in first:
            compare(problems, f"{key} vs first round", observed, first[key],
                    hit_tol)
        else:
            first[key] = observed
        if reference is not None and key in reference:
            compare(problems, f"{key} vs reference", observed,
                    reference[key], hit_tol)


def _quiet_cli(zs, argv):
    """``zsadjust.cli.main(argv)`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zs.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read_zsm(path):
    """A matrix in the package's binary format, read independently of it:
    magic ``ZSRM``, u32-LE rows and cols, row-major float64-LE."""
    np = _np()
    with open(path, "rb") as fh:
        head = fh.read(12)
        body = fh.read()
    if len(head) != 12 or head[:4] != b"ZSRM":
        raise ValueError(f"{path}: not a ZSRM matrix")
    rows = int.from_bytes(head[4:8], "little")
    cols = int.from_bytes(head[8:12], "little")
    if len(body) != rows * cols * 8:
        raise ValueError(f"{path}: payload size does not match {rows}x{cols}")
    return np.frombuffer(body, dtype="<f8").reshape(rows, cols)


# ---------------------------------------------------------------------------
# workloads


class AwaCli(Workload):
    """Acceptance scale through the command line: files in, files out."""

    name = "awa-cli"
    default_spec = dict(d_v=1024, d_s=85, seen_count=40, unseen_count=10,
                        per_class=500, noise_sigma=0.05, shift_sigma=0.1)
    iterations = 5
    # eval is short, IO-bound and noisy: two per train give the run
    # more samples of it for little time.
    evals = 2

    def setup(self, zs, seed, work):
        data = os.path.join(work, "data")
        shutil.rmtree(data, ignore_errors=True)
        os.makedirs(data)
        dataset, table, _ = zs.data.synthesize(
            zs.data.SynthSpec(seed=seed, **self.spec))
        files = {name: os.path.join(data, name) for name in
                 ("features.zsm", "labels.txt", "prototypes.zsm",
                  "partition.txt")}
        zs.data.save_matrix(files["features.zsm"], dataset.features)
        zs.data.save_labels(files["labels.txt"], dataset.labels)
        zs.data.save_prototypes(table, files["prototypes.zsm"],
                                files["partition.txt"])
        return {"files": files, "work": work,
                "unseen": self.spec["unseen_count"] * self.spec["per_class"],
                "hp": zs.mapping.HyperParams(iterations=self.iterations,
                                             tol=0.0)}

    def ops(self, zs, state, index, reference, first):
        files = state["files"]
        run_dir = os.path.join(state["work"], f"run{index}")
        hit_tol = (1 + 1e-9) / state["unseen"]
        shape = (self.spec["d_s"], self.spec["d_v"])

        def train():
            return _quiet_cli(zs, [
                "train", "--features", files["features.zsm"],
                "--labels", files["labels.txt"],
                "--prototypes", files["prototypes.zsm"],
                "--partition", files["partition.txt"],
                "--iters", str(self.iterations), "--tol", "0",
                "--out", run_dir])

        def check_train(result):
            problems = self._exit_ok(result)
            if problems:
                return problems
            names = ("model.zsm", "prototypes_adjusted.zsm",
                     "partition_adjusted.txt", "trace.jsonl", "report.json",
                     "report.txt")
            missing = [n for n in names
                       if not os.path.isfile(os.path.join(run_dir, n))]
            if missing:
                return [f"train wrote no {', '.join(missing)}"]
            check_weights(problems, _read_zsm(os.path.join(run_dir,
                                                           "model.zsm")),
                          shape)
            with open(os.path.join(run_dir, "trace.jsonl")) as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            check_trace(problems, [r["objective"] for r in records],
                        [r["w_delta"] for r in records], state["hp"])
            observed = self._hits(run_dir)
            check_hits(problems, observed, self.spec["unseen_count"])
            if records:
                observed["objective"] = records[-1]["objective"]
            self.expect(problems, "train", observed, hit_tol, reference, first)
            state["hit_at_1"] = observed.get("hit_at_1")
            return problems

        def eval_op(n):
            eval_dir = f"{run_dir}-eval{n}"

            def evaluate():
                return _quiet_cli(zs, [
                    "eval", "--model", os.path.join(run_dir, "model.zsm"),
                    "--features", files["features.zsm"],
                    "--labels", files["labels.txt"],
                    "--prototypes", os.path.join(run_dir,
                                                 "prototypes_adjusted.zsm"),
                    "--partition", os.path.join(run_dir,
                                                "partition_adjusted.txt"),
                    "--ks", "1,5", "--out", eval_dir])

            def check_eval(result):
                problems = self._exit_ok(result)
                if not problems and not os.path.isfile(
                        os.path.join(eval_dir, "report.json")):
                    problems = ["eval wrote no report.json"]
                if not problems:
                    observed = self._hits(eval_dir)
                    check_hits(problems, observed, self.spec["unseen_count"])
                    self.expect(problems, "eval", observed, hit_tol,
                                reference, first)
                    # eval re-scores the artifacts train wrote, on the same
                    # data, so it must reproduce train's own report.
                    if os.path.isfile(os.path.join(run_dir, "report.json")):
                        compare(problems, "eval vs train report", observed,
                                self._hits(run_dir), 0.0)
                shutil.rmtree(eval_dir, ignore_errors=True)
                if n == self.evals - 1:
                    shutil.rmtree(run_dir, ignore_errors=True)
                return problems

            return Op("eval", evaluate, check_eval)

        return [Op("train", train, check_train),
                *(eval_op(n) for n in range(self.evals))]

    @staticmethod
    def _exit_ok(result):
        code, _out, err = result
        return [] if code == 0 else [f"exit code {code}: {err.strip()}"]

    @staticmethod
    def _hits(out_dir):
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        return {f"hit_at_{k}": v for k, v in report["hit_at"].items()}


class Library(Workload):
    """Workloads that call the library on inputs split during set-up."""

    def train_eval(self, zs, data, hp, tag, reference, first, state):
        """Ops that train on ``data`` = (seen, unseen, table) and then
        evaluate the trained model; outputs are keyed ``train<tag>`` and
        ``eval<tag>``."""
        seen, unseen, table = data
        hit_tol = (1 + 1e-9) / unseen.instance_count
        box = {}

        def train():
            box["trained"] = zs.trainer.train(seen, table, hp)
            return box["trained"]

        def check_train(result):
            model, _adjusted, trace = result
            problems = []
            check_weights(problems, model.weights,
                          (self.spec["d_s"], self.spec["d_v"]))
            records = trace.records
            check_trace(problems, [r.objective for r in records],
                        [r.w_delta for r in records], hp)
            observed = {"iterations": len(records)}
            if records:
                observed["objective"] = records[-1].objective
            self.expect(problems, f"train{tag}", observed, hit_tol,
                        reference, first)
            return problems

        def evaluate():
            model, adjusted, _ = box["trained"]
            return zs.inference.evaluate(model, unseen, adjusted, ks=(1, 5))

        def check_eval(report):
            problems = []
            observed = {f"hit_at_{k}": v for k, v in report.hit_at.items()}
            check_hits(problems, observed, self.spec["unseen_count"])
            self.expect(problems, f"eval{tag}", observed, hit_tol, reference,
                        first)
            state["hit_at_1"] = observed.get("hit_at_1")
            return problems

        return [Op("train", train, check_train),
                *(Op("eval", evaluate, check_eval) for _ in range(self.evals))]


class ManyClasses(Library):
    """Many classes, few instances each: per-class work dominates."""

    name = "many-classes"
    default_spec = dict(d_v=512, d_s=300, seen_count=1000, unseen_count=500,
                        per_class=4, noise_sigma=0.15, shift_sigma=0.2)
    # An evaluation takes about 0.12 s against 5 s for a training: four
    # per training give the run more samples of it for little time.
    evals = 4

    def setup(self, zs, seed, work):
        dataset, table, _ = zs.data.synthesize(
            zs.data.SynthSpec(seed=seed, **self.spec))
        seen, unseen = zs.data.split(dataset, table)
        return {"data": (seen, unseen, table),
                "hp": zs.mapping.HyperParams(iterations=5, tol=0.0)}

    def ops(self, zs, state, index, reference, first):
        return self.train_eval(zs, state["data"], state["hp"], "", reference,
                               first, state)


class SweepSmall(Library):
    """The criterion-4 domain-shift setting: many small solves, where
    fixed per-call overhead dominates."""

    name = "sweep-small"
    default_spec = dict(d_v=100, d_s=85, seen_count=20, unseen_count=20,
                        per_class=20, noise_sigma=0.05, shift_sigma=0.1)
    k_values = (1, 4, 8, 12, 16)
    datasets = 8
    setup_repeats = 20      # a set-up takes about 50 ms

    def setup(self, zs, seed, work):
        sets = []
        for j in range(self.datasets):
            dataset, table, _ = zs.data.synthesize(zs.data.SynthSpec(
                seed=seed * self.datasets + j, **self.spec))
            seen, unseen = zs.data.split(dataset, table)
            sets.append((seen, unseen, table))
        return {"sets": sets, "hp": zs.mapping.HyperParams(), "sweeps": {}}

    def ops(self, zs, state, index, reference, first):
        j = index % self.datasets
        data = state["sets"][j]
        hit_tol = (1 + 1e-9) / data[1].instance_count

        def sweep():
            return zs.inference.sweep_k(*data, state["hp"], self.k_values)

        def check_sweep(result):
            problems = []
            if sorted(result) != sorted(self.k_values):
                return [f"sweep_k returned k values {sorted(result)}"]
            observed = {f"hit_at_1_k{k}": float(result[k])
                        for k in self.k_values}
            if not all(0.0 <= v <= 1.0 for v in observed.values()):
                problems.append(f"sweep Hit@1 outside [0, 1]: {observed}")
            self.expect(problems, f"sweep/{j}", observed, hit_tol, reference,
                        first)
            state["sweeps"][j] = statistics.fmean(observed.values())
            return problems

        return self.train_eval(zs, data, state["hp"], f"/{j}", reference,
                               first, state) + [Op("sweep", sweep, check_sweep)]

    def hit_at_1(self, state):
        """Mean of the checked sweep Hit@1 over datasets and k values."""
        sweeps = state["sweeps"]
        return statistics.fmean(sweeps.values()) if sweeps else None


WORKLOADS = {w.name: w for w in (AwaCli(), ManyClasses(), SweepSmall())}


# ---------------------------------------------------------------------------
# traced functions and computed counts


def _gflop(*terms):
    return sum(2.0 * a * b * c for a, b, c in terms) / 1e9


def _assemble_counts(args, kwargs, result):
    # L = P P^T, R = X X^T, M = (...) X^T, as dense products.
    d_v, m = args[0].features.shape
    d_s = args[1].shape[0]
    return {"mapping.assemble_system.gflop":
            _gflop((d_s, m, d_s), (d_v, m, d_v), (d_s, m, d_v))}


def _objective_counts(args, kwargs, result):
    # W^T P and W X, as dense products.
    d_s, d_v = args[0].weights.shape
    m = args[1].features.shape[1]
    return {"mapping.objective.gflop": _gflop((d_v, d_s, m), (d_s, d_v, m))}


def _unseen_classes(table):
    table = getattr(table, "table", table)
    return int((~table.seen).sum())


COMPUTED = {
    "mapping.assemble_system.gflop": "GFLOP",
    "mapping.objective.gflop": "GFLOP",
    "linalg.sym_eig.n3_sum": "n3",
    "data.load_matrix.bytes": "bytes",
    "inference.evaluate.cells": "cells",
    "adjustment.adjust_unseen.classes": "classes",
    "trainer.train.iterations": "iterations",
}

# Wrapped functions, by defining module, with the counts computed at
# their boundary from argument and result shapes.
TRACED = {
    "cli.main": None,
    "cli.cmd_train": None,
    "cli.cmd_eval": None,
    "data.load_matrix": lambda a, k, r: {"data.load_matrix.bytes": r.nbytes},
    "data.load_labels": None,
    "data.load_prototypes": None,
    "data.save_matrix": None,
    "data.save_labels": None,
    "data.save_prototypes": None,
    "data.split": None,
    "trainer.train": lambda a, k, r: {"trainer.train.iterations": len(r[2])},
    "mapping.expand_per_instance": None,
    "mapping.class_mean_map": None,
    "mapping.class_centroids": None,
    "mapping.assemble_system": _assemble_counts,
    "mapping.objective": _objective_counts,
    "mapping.solve_weights": None,
    "linalg.as_matrix": None,
    "linalg.is_symmetric": None,
    "linalg.sym_eig": lambda a, k, r: {
        "linalg.sym_eig.n3_sum": float(len(r[0])) ** 3},
    "linalg.solve_sylvester": None,
    "adjustment.untouched_provenance": None,
    "adjustment.adjust_seen": None,
    "adjustment.adjust_unseen": lambda a, k, r: {
        "adjustment.adjust_unseen.classes": _unseen_classes(a[0])},
    "inference.evaluate": lambda a, k, r: {
        "inference.evaluate.cells":
            _unseen_classes(a[2]) * a[1].instance_count},
    "inference.skewness": None,
    "inference.sweep_k": None,
}


def per_layer_names():
    """Every per-layer metric with its unit, in a fixed order."""
    names = {}
    for target in TRACED:
        names[f"{target}.calls"] = "count"
        names[f"{target}.s"] = "s"
        names[f"{target}.self_s"] = "s"
    names.update(COMPUTED)
    names["trace.overhead"] = "share"
    return names


def layer_metrics(tracer, rounds, present):
    """Per-layer values: for each metric the median over traced rounds of
    its per-round total. ``rounds`` lists the operation ids of each
    traced round; ``present`` holds the targets this version of the
    package has.

    Returns (values, missing): a metric of a target the package lacks, or
    a computed count whose counter raised, is missing, never 0.
    """
    selfs = self_times(tracer.spans)
    per_op = {}
    for span_id, name, start, end, parent, op_id in tracer.spans:
        if parent is None:
            continue
        acc = per_op.setdefault(op_id, {})
        acc[f"{name}.calls"] = acc.get(f"{name}.calls", 0) + 1
        acc[f"{name}.s"] = acc.get(f"{name}.s", 0.0) + (end - start)
        acc[f"{name}.self_s"] = acc.get(f"{name}.self_s", 0.0) + selfs[span_id]
    for (op_id, key), value in tracer.counts.items():
        acc = per_op.setdefault(op_id, {})
        acc[key] = acc.get(key, 0.0) + value
    out, missing = {}, {}
    for metric in per_layer_names():
        if metric == "trace.overhead":
            continue
        target = metric.rsplit(".", 1)[0]
        if target not in present:
            missing[metric] = f"{target} is not in this version of the package"
            continue
        if metric in COMPUTED and target in tracer.failed_counts:
            missing[metric] = (f"counter of {target} failed: "
                               f"{tracer.failed_counts[target]}")
            continue
        totals = [sum(per_op.get(op, {}).get(metric, 0) for op in ops)
                  for ops in rounds]
        out[metric] = statistics.median(totals) if totals else 0.0
    return out, missing


# ---------------------------------------------------------------------------
# running one workload


def blas_threads_in_use():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(np, threads_requested, set_before_numpy):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_requested": threads_requested,
        "blas_threads_set_before_numpy": set_before_numpy,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def set_blas_threads():
    """Pin BLAS to ``BLAS_THREADS``; takes effect only before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """The zsadjust package from this checkout's ``src/``, never another."""
    init = os.path.join(SRC, "zsadjust", "__init__.py")
    if not os.path.isfile(init):
        raise FileNotFoundError(f"no zsadjust package at {init}")
    sys.path.insert(0, SRC)
    import zsadjust
    import zsadjust.cli
    import zsadjust.data
    import zsadjust.inference
    import zsadjust.mapping
    import zsadjust.trainer
    if os.path.realpath(zsadjust.__file__) != os.path.realpath(init):
        raise ImportError(f"zsadjust imported from {zsadjust.__file__}, "
                          f"not from {init}")
    return zsadjust


def load_reference(workload, seed):
    """Outputs recorded for this spec and seed, or None."""
    if not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        entry = json.load(fh).get(workload.name)
    if not entry or entry["spec"] != workload.spec:
        return None
    return entry["seeds"].get(str(seed))


# A typical time of Calibration.sample() on the reference machine (a
# 2-core Intel Xeon shared with other tenants, 1 BLAS thread, numpy
# 2.4.6, OpenBLAS 0.3.31), where it ranged over 55-80 ms. Time metrics
# are given at that machine speed.
CALIB_REF_S = 0.075


class Calibration:
    """A fixed kernel timed before every set-up and operation, to measure
    how fast the machine runs at the moment.

    On a small machine shared with other tenants, the speed this process
    gets drifts by up to a third for tens of seconds at a time, long
    enough to move a whole run. Process CPU time does not leave the drift
    out: it tracks wall time within 2%, so the process is not descheduled,
    it runs slower. The kernel is made of what the package's work is made
    of (dense products, a symmetric eigendecomposition, a loop of small
    array operations) and slows with it: over 30-second spans, the median
    time of two kinds of ``train`` and of a Gram product varied by 4-9%,
    and its ratio to the median kernel time by 3-4%.

    A phase's time for an operation is the geometric mean of its
    repetitions, scaled by ``CALIB_REF_S`` over the geometric mean of the
    kernel times of the same phase. The speed is often bimodal (fast and
    slow spells): the median then jumps between the two modes as the
    share of slow repetitions passes one half, where the geometric mean
    moves with that share.
    """

    def __init__(self):
        np = _np()
        rng = np.random.default_rng(0)
        # A few MB in all, so that peak_rss_mb stays the workload's own.
        self.dense = rng.standard_normal((512, 1000))
        self.sym = self.dense[:, :600] @ self.dense[:, :600].T
        self.small = rng.standard_normal((50, 40))
        self.samples = {}   # phase -> kernel times

    def sample(self, phase):
        np = _np()
        x = self.small
        tic = clock()
        for _ in range(4):
            self.dense @ self.dense.T
        np.linalg.eigh(self.sym)
        for _ in range(300):
            (x - x.mean(axis=1, keepdims=True)).sum()
        self.samples.setdefault(phase, []).append(clock() - tic)

    def scale(self, phase):
        """Factor from the phase's wall times to reference-speed times."""
        return CALIB_REF_S / statistics.geometric_mean(self.samples[phase])


class Runner:
    """Runs operations, times them and counts failures."""

    def __init__(self, tracer=None, calibration=None):
        self.tracer = tracer
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0
        self.op_ids = 0

    def round(self, ops, traced=False):
        """Run one round; returns ([(kind, seconds)] of the operations that
        returned, operation ids)."""
        times, ids = [], []
        for op in ops:
            if self.calibration is not None:
                self.calibration.sample("ops")
            self.attempted += 1
            self.op_ids += 1
            ids.append(self.op_ids)
            span = (self.tracer.operation(op.kind, self.op_ids) if traced
                    else contextlib.nullcontext())
            try:
                with span:
                    tic = clock()
                    result = op.fn()
                    times.append((op.kind, clock() - tic))
                problems = op.check(result)
            except Exception:  # any failure of the program is counted
                problems = [traceback.format_exc()]
            if problems:
                self.failed += 1
                print(f"FAILED {op.kind} (op {self.op_ids}):", file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
        return times, ids


def run_workload(workload, seed, seconds, trace, zs):
    """Set up, measure and check one workload; returns (correct,
    attempted, failed, metrics, details)."""
    work = os.path.join(WORK, f"{workload.name}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    reference = load_reference(workload, seed)
    first = {}
    calibration = Calibration()
    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            state = None    # free the last set-up's inputs first
            calibration.sample("setup")
            tic = clock()
            state = workload.setup(zs, seed, work)
            setup_times.append(clock() - tic)

        tracer = Tracer() if trace else None
        runner = Runner(tracer, calibration)
        op_times = {}
        round_wall, plain_rounds, traced_rounds, traced_ids = [], [], [], []
        present = set()     # traced targets this version of the package has
        start = clock()
        while True:
            elapsed = clock() - start
            if len(round_wall) >= 3 and (
                    elapsed + statistics.median(round_wall) > seconds):
                break
            index = len(round_wall)
            traced = trace and index % 2 == 1
            ops = workload.ops(zs, state, index, reference, first)
            tic = clock()
            if traced:
                with tracer.installed("zsadjust", TRACED) as present:
                    times, ids = runner.round(ops, traced=True)
                traced_rounds.append(sum(t for _, t in times))
                traced_ids.append(ids)
            else:
                times, _ = runner.round(ops)
                plain_rounds.append(sum(t for _, t in times))
                for kind, value in times:
                    op_times.setdefault(kind, []).append(value)
            round_wall.append(clock() - tic)
        measured = clock() - start
    finally:
        # Inputs and artifacts are large; spans and results are kept.
        for name in os.listdir(work):
            path = os.path.join(work, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)

    details = {"setup_s": setup_times, "op_s": op_times,
               "round_s": plain_rounds, "traced_round_s": traced_rounds,
               "calibration_s": calibration.samples,
               "scale": {phase: calibration.scale(phase)
                         for phase in calibration.samples},
               "measured_s": measured,
               "reference_checked": reference is not None}
    correct = runner.failed == 0
    if trace:
        problems = check_accounting(tracer.spans, self_times(tracer.spans))
        for problem in problems:
            print(f"trace accounting: {problem}", file=sys.stderr)
        correct = correct and not problems and bool(traced_ids)
        metrics, missing = layer_metrics(tracer, traced_ids, present)
        for metric, why in missing.items():
            print(f"missing {metric}: {why}", file=sys.stderr)
        metrics["trace.overhead"] = min(traced_rounds) / min(plain_rounds) - 1
        with open(os.path.join(work, "spans.jsonl"), "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"id": s[0], "name": s[1],
                                     "start": s[2], "end": s[3],
                                     "parent": s[4], "op": s[5]}) + "\n")
    else:
        h1 = workload.hit_at_1(state)
        correct = correct and h1 is not None

        def scaled(values, phase="ops"):
            """Geometric mean at reference speed; None when no operation
            returned."""
            if not values:
                return None
            return statistics.geometric_mean(values) * details["scale"][phase]

        metrics = {
            "setup_s": scaled(setup_times, "setup"),
            "train_s": scaled(op_times.get("train")),
            "eval_s": scaled(op_times.get("eval")),
            "round_s": scaled(plain_rounds),
            "hit_at_1": h1,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok": (runner.attempted - runner.failed) / runner.attempted,
        }
        details["sweep_s"] = scaled(op_times.get("sweep"))
        details["ops_failed"] = runner.failed / runner.attempted
        for kind, values in (("setup", setup_times), ("round", plain_rounds),
                             *op_times.items()):
            details[f"{kind}_n"] = len(values)
            details[f"{kind}_wall_median_s"] = statistics.median(values)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"metrics": metrics, "details": details}, fh, indent=1)
    return correct, runner.attempted, runner.failed, metrics, details


# ---------------------------------------------------------------------------
# command line


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in bench[key]]


def print_result(correct, attempted, failed, metrics, units):
    """Print each metric as ``name value unit``, then the result line; a
    metric absent from ``metrics`` reads ``missing`` and is left out of
    the result."""
    for name, unit in units:
        label = " [computed]" if name in COMPUTED else ""
        print(f"{name} {metrics.get(name, 'missing')!r} {unit}{label}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units if name in metrics},
    }))


def run_all(args):
    """Each workload in its own process (peak RSS is per process)."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        try:
            # Set-ups and the last round may run past --seconds.
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=3 * args.seconds + 90)
        except subprocess.TimeoutExpired as exc:
            print(f"{name}: no result after {exc.timeout:.0f} s",
                  file=sys.stderr)
            return 2
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 2
        for line in lines[:-1]:
            print(f"  {line}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            units.append((f"{name}.{metric}", entry["unit"]))
    print_result(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = (workloads or WORKLOADS)[args.workload]

    set_before = "numpy" not in sys.modules
    set_blas_threads()
    try:
        units = declared_metrics(args.trace)
        zs = import_package()
    except (OSError, ImportError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    print("env " + json.dumps(environment(np, BLAS_THREADS, set_before)))
    print(f"workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    correct, attempted, failed, metrics, details = run_workload(
        workload, args.seed, args.seconds, args.trace, zs)
    if not args.trace:
        # Not in the JSON metrics: sweep_s applies to one workload only,
        # and ops_failed is 0 on a correct run (ops_ok carries it).
        if details["sweep_s"] is not None:
            print(f"sweep_s {details['sweep_s']!r} s")
        print(f"ops_failed {details['ops_failed']!r} share")
        for key, value in details.items():
            if key.endswith("_wall_median_s"):
                print(f"{key} {value!r} s")
            elif key.endswith("_n"):
                print(f"{key} {value!r} count")
        for phase, value in details["scale"].items():
            print(f"scale_{phase} {value!r} x")
    print_result(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
