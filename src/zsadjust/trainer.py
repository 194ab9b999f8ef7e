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
data (:func:`zsadjust.mapping.class_stats`), built once per call: one
Gram product X X^T and one eigh(d_v). Each iteration then costs
O(d_s d_v^2 + d_v d_s c) for c seen classes, independent of the
instance count m.

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

from .adjustment import _blend_seen, adjust_unseen
from .errors import DataError, SolverError
from .linalg import as_number
from .mapping import (
    class_mean_map,
    class_stats,
    expand_per_instance,
    objective,
    solve_weights,
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
    seen : LabeledDataset
        Seen-class instances only (see :func:`zsadjust.data.split`).
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
               ridge_on_failure=False):
    """The loop of :func:`train`.

    Returns ``(model, adjusted, trace, seen_adjusted, neighbors)``:
    train's three results, the last iteration's seen-adjusted table
    (``None`` after zero iterations) and the neighbor source of its
    unseen blend (``table`` for ``"original"``, else ``None``), so that
    ``adjusted`` is ``adjust_unseen(seen_adjusted, hp, neighbors)``.
    Only the seen columns reach the solves: everything but ``adjusted``
    and the ``unseen_shift`` records is independent of k, lambda2 and
    gamma2.
    """
    if seen.instance_count == 0:
        raise DataError("cannot train on an empty seen dataset")
    if unseen_neighbors not in ("adjusted", "original"):
        raise ValueError("unseen_neighbors must be 'adjusted' or 'original'")

    stats = class_stats(seen)
    proto0 = expand_per_instance(table, stats.class_ids)
    zeros = np.zeros_like(proto0)

    # Initial weights: cycle objective only, hard constraint relaxed,
    # no centroid term yet.
    hp0 = replace(hp, alpha=0.0)
    try:
        model = solve_weights(seen, proto0, zeros, hp0,
                              ridge_on_failure=ridge_on_failure, stats=stats)
    except SolverError as exc:
        raise SolverError(f"initial solve failed: {exc}") from exc

    neighbors = table if unseen_neighbors == "original" else None
    adjusted = table
    seen_adjusted = None
    records = []

    for it in range(1, hp.iterations + 1):
        prev_vectors = adjusted.vectors
        tic = time.perf_counter()
        try:
            ids, centroids = class_mean_map(model, seen, stats)
            seen_adjusted = _blend_seen(table, ids, centroids, hp)
            adjusted = adjust_unseen(seen_adjusted, hp, neighbors=neighbors)
            proto = expand_per_instance(adjusted, stats.class_ids)
            new_model = solve_weights(seen, proto, centroids, hp,
                                      ridge_on_failure=ridge_on_failure,
                                      stats=stats)
        except SolverError as exc:
            raise SolverError(f"iteration {it}: {exc}") from exc

        obj = objective(new_model, seen, proto, centroids, hp, stats=stats)
        delta = float(
            np.linalg.norm(new_model.weights - model.weights, "fro")
            / max(np.linalg.norm(new_model.weights, "fro"), 1e-300)
        )
        vecs = adjusted.vectors
        seen_mask = table.seen
        seen_shift = float(np.linalg.norm(
            vecs[:, seen_mask] - prev_vectors[:, seen_mask], "fro"))
        unseen_shift = float(np.linalg.norm(
            vecs[:, ~seen_mask] - prev_vectors[:, ~seen_mask], "fro"))
        ms = (time.perf_counter() - tic) * 1e3
        records.append(IterationRecord(it, obj, delta, seen_shift,
                                       unseen_shift, ms))

        model = new_model
        if delta < hp.tol:
            break

    return (model, adjusted, TrainingTrace(tuple(records)), seen_adjusted,
            neighbors)


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
