"""Alternating optimization: closed-form weight solves interleaved with
prototype adjustment.

The schedule. An initial solve with ``alpha = 0`` on the original
prototypes, since the class centroids depend on W. Then each iteration
maps the class means W xbar_c once from the current W (they pull the
seen prototypes and are the centroids), adjusts the seen prototypes,
adjusts the unseen prototypes and re-solves the full objective on the
adjusted seen prototypes. Both adjustments anchor on the original table.
The unseen prototypes reach no solve, so the weights do not depend on
their blend. Every solve and objective runs from the seen class
statistics, as :mod:`zsadjust.mapping` sets out: the loop keeps W V and
forms W = (W V) V^T at the end (given a dataset, each objective forms W
and W G too).

The carried blocks. The loop carries arrays, not tables. Once per call
it gathers the seen prototypes P0 in class id order (that of the
statistics and of the k-NN search) and the unseen prototypes Q with
their norms. An iteration forms P_t = lambda1 P0 + gamma1 O, searches
and blends Q against P_t (P0 for ``unseen_neighbors="original"``) and
solves on a C-order copy of P_t that lives only through the solve.
Across iterations the loop holds P0, Q, Q's norms, P_t and the unseen
blend. The gather of the classes with data, which the first solve and
the objective read, is dropped once a seen blend replaces it (with
gamma1 = 0 it stays, as the objective's block). Each trace shift is
taken as soon as its block is replaced, so the old block is dropped
before the search and the solve. No iteration copies a table, looks up
an id or re-checks an array the loop made.

The validation order: the neighbor flag before any statistics are
computed, the class ids before the first solve and, with the seen blend
on, each seen class's instances after it. In an iteration the unseen
search runs before the solve, so its errors come first.

The stop rule: after ``hp.iterations`` rounds, or once the relative
weight change ||dW||_F / ||W||_F drops below ``hp.tol``. Each completed
iteration appends a trace record. The objective need not decrease:
adjustment changes the objective itself between solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .adjustment import (
    _blend,
    _blend_neighbors,
    _check_present,
    _nearest,
    _seen_block,
    _with_columns,
)
from .errors import DataError, SolverError
from .linalg import as_number
from .mapping import (
    MappingModel,
    _objective,
    _solve_rotated,
    _sq_cols,
    class_stats,
    expand_per_instance,
    objective,
)


@dataclass(frozen=True)
class IterationRecord:
    """Observability for one completed alternating iteration."""

    iteration: int
    objective: float
    w_delta: float          # ||W_new - W_old||_F / ||W_new||_F
    seen_shift: float       # ||seen prototypes - previous iterate||_F
    unseen_shift: float
    ms: float


@dataclass(frozen=True)
class TrainingTrace:
    records: tuple

    def __len__(self):
        return len(self.records)


def train(seen, table, hp, unseen_neighbors="adjusted",
          ridge_on_failure=False):
    """Run the alternating loop on the seen-class dataset.

    Parameters
    ----------
    seen : LabeledDataset or ClassStats
        Seen-class instances only (see :func:`zsadjust.data.split`), or
        their :func:`zsadjust.mapping.class_stats`.
    table : PrototypeTable
        Original prototypes for all classes, seen and unseen.
    hp : HyperParams
    unseen_neighbors : {"adjusted", "original"}
        Whether the unseen-prototype blend draws its seen neighbors from
        that iteration's adjusted seen prototypes (default) or from the
        original table.
    ridge_on_failure : bool
        Passed through to the weight solver.

    Returns
    -------
    (MappingModel, PrototypeTable, TrainingTrace)
        The final weights, the adjusted prototypes of every class (the
        input table itself after zero iterations) and one trace record
        per completed iteration.
    """
    return _alternate(seen, table, hp, unseen_neighbors,
                      ridge_on_failure)[:3]


def _alternate(seen, table, hp, unseen_neighbors="adjusted",
               ridge_on_failure=False, trace=True):
    """:func:`train`'s three results and ``source``, the seen block that
    the last unseen search read (None after zero iterations). With
    ``trace=False`` it runs no unseen search or blend, no objective and
    no shift: ``adjusted`` is the seen-adjusted table, the trace empty."""
    if unseen_neighbors not in ("adjusted", "original"):
        raise ValueError("unseen_neighbors must be 'adjusted' or 'original'")
    stats = class_stats(seen)
    data = None if seen is stats else seen
    if stats.counts.size == 0:
        raise DataError("cannot train on an empty seen dataset")

    # the objective's block until a seen blend replaces it
    p_obj = expand_per_instance(table, stats.class_ids)
    unseen = stats.class_ids[~np.isin(stats.class_ids, table.seen_ids)]
    if unseen.size:
        raise DataError(f"seen data of unseen classes {unseen.tolist()}")
    (g, v), means = stats.gram_eig, stats.rotated_means

    # step 1 of the schedule, on a C-order copy of P for the solve
    try:
        w_hat = _solve_rotated(stats, np.ascontiguousarray(p_obj),
                               np.zeros(p_obj.shape),
                               replace(hp, alpha=0.0), ridge_on_failure)
    except SolverError as exc:
        raise SolverError(f"initial solve failed: {exc}") from exc
    centroids = w_hat @ means

    if hp.iterations == 0:
        return MappingModel(w_hat @ v.T), table, TrainingTrace(()), None
    blends_seen = hp.gamma1 != 0.0
    if blends_seen:     # then stats.class_ids are all seen ids, sorted
        _check_present(table.seen_ids, stats.class_ids)
    _, seen_cols, p0 = _seen_block(table)
    unseen_cols = np.flatnonzero(~table.seen)
    q = table.vectors[:, unseen_cols]
    searches = trace and hp.gamma2 != 0.0
    q_norms = np.linalg.norm(q, axis=0)
    p_t, u = p0, q
    records = []

    for it in range(1, hp.iterations + 1):
        tic = time.perf_counter()
        seen_shift = unseen_shift = 0.0
        try:
            if blends_seen:
                blended = _blend("seen", hp, p0, centroids, table.class_ids,
                                 seen_cols)
                if trace:
                    seen_shift = _shift(blended, p_t)
                p_t = p_obj = blended
            source = p0 if unseen_neighbors == "original" else p_t
            if searches:    # before the solve: its errors come first
                top, sims = _nearest(source, q, q_norms, hp.k)
                blended = _blend_neighbors(q, source, top, sims, hp,
                                           table.class_ids, unseen_cols)
                unseen_shift = _shift(blended, u)
                u = blended
            new_hat = _solve_rotated(stats, np.ascontiguousarray(p_obj),
                                     centroids, hp, ridge_on_failure)
        except SolverError as exc:
            raise SolverError(f"iteration {it}: {exc}") from exc
        mapped = new_hat @ means
        w_hat -= new_hat    # ||dW|| = ||dW V||; the old W V is done with
        delta = float(np.linalg.norm(w_hat, "fro")
                      / max(np.linalg.norm(new_hat, "fro"), 1e-300))
        if trace:
            # the dataset branch: perfbench/run.py sizes mapping.objective
            # from its dataset argument, and perfbench/test_run.py's
            # test_absent_target_and_failed_counter_read_missing needs it
            if data is None:
                obj = _objective(stats, new_hat @ new_hat.T,
                                 float(g @ _sq_cols(new_hat)), mapped, p_obj,
                                 centroids, hp)
            else:
                obj = objective(MappingModel(new_hat @ v.T), data, p_obj,
                                centroids, hp, stats=stats)
            records.append(IterationRecord(
                it, obj, delta, seen_shift, unseen_shift,
                (time.perf_counter() - tic) * 1e3))

        w_hat, centroids = new_hat, mapped
        if delta < hp.tol:
            break

    adjusted = _with_columns(table, seen_cols, p_t) if blends_seen else table
    if searches:
        adjusted = _with_columns(adjusted, unseen_cols, u)
    return (MappingModel(w_hat @ v.T), adjusted,
            TrainingTrace(tuple(records)), source)


def _shift(now, before):
    """``||now - before||_F``, inf where it overflows: it is taken before
    the solve, whose own error about such blocks must come first."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(now - before, "fro"))


@dataclass(frozen=True)
class BenchmarkResult:
    repeats: int
    median_ms: float
    max_ms: float
    runs_ms: tuple


def benchmark_training(data, hp, repeats=1, **train_kwargs):
    """Median and max wall-clock of ``train`` over ``repeats`` runs on
    ``data``, a ``(seen, prototype_table)`` pair. Each run trains on a
    fresh ``replace(seen)`` with nothing cached, so it times its own
    eigh(d_v) and, for a dataset, its own Gram product."""
    as_number(repeats, "repeats", 1, int)
    seen, table = data

    runs = []
    for _ in range(repeats):
        fresh = replace(seen)
        tic = time.perf_counter()
        train(fresh, table, hp, **train_kwargs)
        runs.append((time.perf_counter() - tic) * 1e3)
    return BenchmarkResult(
        repeats=repeats,
        median_ms=float(np.median(runs)),
        max_ms=float(max(runs)),
        runs_ms=tuple(runs),
    )
