"""Alternating optimization: closed-form weight solves interleaved with
prototype adjustment.

The schedule is:

1. Initial solve with ``alpha = 0`` and the original prototypes (class
   centroids depend on W and are undefined before a first weight
   estimate exists).
2. Per iteration: map the class means W xbar_c once from the current
   W (they pull the seen prototypes and are the class centroids),
   adjust seen prototypes, adjust unseen prototypes, then re-solve the
   full objective with the adjusted seen prototypes. Both adjustments
   anchor on the original table, and the last iteration's adjusted
   prototypes are returned as a plain
   :class:`~zsadjust.data.PrototypeTable`. The unseen prototypes never
   reach a solve, so the weights do not depend on the unseen blend.

Every solve and objective runs from the class statistics of the seen
data (:func:`zsadjust.mapping.class_stats`) alone: the counts, the class
feature sums and the Gram product X X^T, built once per call, or given
instead of the dataset (as ``zsadjust train`` streams them from a
features file), one eigh(d_v) = V diag(g) V^T and V^T xbar_c. The loop
keeps W V, not W: an iteration costs O(d_s d_v (c + d_s) + d_s^3) for c
seen classes, with no d_v^2 term and no m. W = (W V) V^T is formed at
the end; given a dataset, each objective also forms W and W G (d_s d_v^2).

The loop carries arrays, not tables. It gathers two blocks of the
original table once per call: the seen prototypes P0, their columns in
class id order (the order of the class statistics and of the k-NN
search), and the unseen prototypes Q with their column norms. An
iteration forms P_t = lambda1 P0 + gamma1 O and checks it once, searches
and blends Q against P_t (or P0 for ``unseen_neighbors="original"``),
and solves on a C-order copy of P_t; the shifts come from the blocks.
The arguments are validated once: the neighbor flag before any
statistics are computed, the class ids before the first solve and, when
the seen blend is on, each seen class's instances after it. No iteration copies a
table, looks up an id or re-checks an array that the loop made itself;
tables are built only for what the loop returns.

The loop stops after ``hp.iterations`` rounds or as soon as the relative
weight change ``||dW||_F / ||W||_F`` drops below ``hp.tol``. Each
completed iteration appends a trace record. Note that the objective is
not guaranteed to decrease across iterations: prototype adjustment
changes the objective itself between solves.
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
    ClassStats,
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
    """The loop of :func:`train`.

    Returns ``(model, adjusted, trace, seen_adjusted, neighbors)``:
    train's three results, the last iteration's seen-adjusted table
    (``None`` after zero iterations) and the neighbor source of its
    unseen blend (``table`` for ``"original"``, else ``None``), so that
    ``adjusted`` is ``adjust_unseen(seen_adjusted, hp, neighbors)``.
    Only the seen columns reach the solves: everything but ``adjusted``
    and the ``unseen_shift`` records is independent of k, lambda2 and
    gamma2. ``trace=False`` skips what only ``adjusted`` and the trace
    need (the unseen blend, the objective, the shifts): ``table`` and an
    empty trace stand in for them. Given the class statistics alone, it
    reads nothing else of the data; given the dataset, it checks them.
    It carries the blocks that the module docstring describes.
    """
    if unseen_neighbors not in ("adjusted", "original"):
        raise ValueError("unseen_neighbors must be 'adjusted' or 'original'")
    stats = seen if isinstance(seen, ClassStats) else class_stats(seen)
    data = None if seen is stats else seen
    if stats.counts.size == 0:
        raise DataError("cannot train on an empty seen dataset")

    # the prototypes of the classes with data, gathered in id order
    proto0 = expand_per_instance(table, stats.class_ids)
    unseen = stats.class_ids[~np.isin(stats.class_ids, table.seen_ids)]
    if unseen.size:
        raise DataError(f"seen data of unseen classes {unseen.tolist()}")
    (g, v), means = stats.gram_eig, stats.rotated_means

    # Initial weights: cycle objective only, hard constraint relaxed,
    # no centroid term yet. Each solve's W V maps the class means once.
    # The solve takes P in C order, the objective and the search in the
    # column-gather layout.
    solve_p = np.ascontiguousarray(proto0)
    try:
        w_hat = _solve_rotated(stats, solve_p, np.zeros(proto0.shape),
                               replace(hp, alpha=0.0), ridge_on_failure)
    except SolverError as exc:
        raise SolverError(f"initial solve failed: {exc}") from exc
    centroids = w_hat @ means

    neighbors = table if unseen_neighbors == "original" else None
    if hp.iterations == 0:
        return (MappingModel(w_hat @ v.T), table, TrainingTrace(()), None,
                neighbors)
    blends_seen = hp.gamma1 != 0.0
    if blends_seen:     # then stats.class_ids are all seen ids, sorted
        _check_present(table.seen_ids, stats.class_ids)
    _, seen_cols, p0 = _seen_block(table)
    unseen_cols = np.flatnonzero(~table.seen)
    q = table.vectors[:, unseen_cols]
    searches = trace and hp.gamma2 != 0.0
    q_norms = np.linalg.norm(q, axis=0)
    p_t, p_obj, u = p0, proto0, q
    records = []

    for it in range(1, hp.iterations + 1):
        prev_p, prev_u = p_t, u
        tic = time.perf_counter()
        try:
            if blends_seen:
                p_t = p_obj = _blend("seen", hp, p0, centroids,
                                     table.class_ids, seen_cols)
                solve_p = np.ascontiguousarray(p_t)
            if searches:    # before the solve: its errors come first
                source = p_t if neighbors is None else p0
                top, sims = _nearest(source, q, q_norms, hp.k)
                u = _blend_neighbors(q, source, top, sims, hp,
                                     table.class_ids, unseen_cols)
            new_hat = _solve_rotated(stats, solve_p, centroids, hp,
                                     ridge_on_failure)
        except SolverError as exc:
            raise SolverError(f"iteration {it}: {exc}") from exc
        mapped = new_hat @ means
        w_hat -= new_hat    # ||dW|| = ||dW V||; the old W V is done with
        delta = float(np.linalg.norm(w_hat, "fro")
                      / max(np.linalg.norm(new_hat, "fro"), 1e-300))
        if trace:
            # perfbench/run.py sizes the work of mapping.objective from
            # its dataset argument, and perfbench/test_run.py::
            # test_absent_target_and_failed_counter_read_missing needs
            # this call. Once the benchmark sizes it from the ClassStats
            # shapes (ROADMAP item 1), this loop calls one objective on
            # ``stats`` alone and the branch goes.
            if data is None:
                obj = _objective(stats, new_hat @ new_hat.T,
                                 float(g @ _sq_cols(new_hat)), mapped, p_obj,
                                 centroids, hp)
            else:
                obj = objective(MappingModel(new_hat @ v.T), data, p_obj,
                                centroids, hp, stats=stats)
            shifts = [float(np.linalg.norm(now - before, "fro"))
                      for now, before in ((p_t, prev_p), (u, prev_u))]
            records.append(IterationRecord(it, obj, delta, *shifts,
                                           (time.perf_counter() - tic) * 1e3))

        w_hat, centroids = new_hat, mapped
        if delta < hp.tol:
            break

    seen_adjusted = (_with_columns(table, seen_cols, p_t) if blends_seen
                     else table)
    adjusted = (table if not trace
                else _with_columns(seen_adjusted, unseen_cols, u) if searches
                else seen_adjusted)
    return (MappingModel(w_hat @ v.T), adjusted,
            TrainingTrace(tuple(records)), seen_adjusted, neighbors)


@dataclass(frozen=True)
class BenchmarkResult:
    repeats: int
    median_ms: float
    max_ms: float
    runs_ms: tuple


def benchmark_training(data, hp, repeats=1, **train_kwargs):
    """Median and max wall-clock of ``train`` over ``repeats`` runs on
    ``data``, a ``(seen_dataset, prototype_table)`` pair."""
    as_number(repeats, "repeats", 1, int)
    seen, table = data

    runs = []
    for _ in range(repeats):
        tic = time.perf_counter()
        train(seen, table, hp, **train_kwargs)
        runs.append((time.perf_counter() - tic) * 1e3)
    return BenchmarkResult(
        repeats=repeats,
        median_ms=float(np.median(runs)),
        max_ms=float(max(runs)),
        runs_ms=tuple(runs),
    )
