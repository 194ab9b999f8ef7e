"""Adaptive adjustment of seen and unseen class prototypes.

Seen prototypes are blended with the mean mapped feature of their own
training instances:

    p' = lambda1 * p + gamma1 * mean_j(W @ x_j).

Unseen prototypes, which have no instances, are blended with a
similarity-weighted average of their k nearest seen prototypes:

    p' = lambda2 * p + gamma2 * sum_j (w_j / sum w) * p_seen_j,

where the weights are cosine similarities floored at zero. If all k
floored weights vanish the unseen prototype is left unchanged for that
round (a non-positive weight sum has no meaningful normalization).

A zero blend weight (gamma) disables the corresponding adjustment
outright: prototypes pass through untouched rather than being scaled by
the lambda anchor alone.

Both adjustments take a :class:`PrototypeTable` and return a new one,
computed for all classes at once: one assignment for the seen columns;
for the unseen columns one cosine matrix (seen x unseen), a partition
to the k-th best similarity per column and a similarity-weighted gather
of the k neighbors. Both anchor on the prototypes of the table passed
in; the training loop always passes the original pre-training table, so
blends never compound across iterations.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .mapping import _sq_cols, class_mean_map


# Unused by the package: kept only because perfbench/run.py traces it.
def untouched_provenance(table):
    """Every class id mapped to a copy of its prototype column."""
    return dict(zip(table.class_ids.tolist(), table.vectors.T.copy()))


def adjust_seen(table, model, seen_data, hp, stats=None):
    """Blend each seen prototype with its class's mean mapped feature.

    The class means are mapped as ``W @ mean(x)``, from
    ``stats = class_stats(seen_data)`` when given, without encoding each
    instance. Every seen class in ``table`` must have at least one
    instance in ``seen_data``. Unseen prototypes are untouched, and
    ``gamma1 = 0`` returns ``table`` itself.

    Raises
    ------
    DataError
        If a seen class has no instances, or if a blend is the zero
        vector (for example ``lambda1 = 0`` and a class whose mapped
        features average to 0) or its norm overflows (a huge
        ``lambda1`` or ``gamma1``); the message names the classes.
    """
    if hp.gamma1 == 0.0:
        return table
    return _blend_seen(table, *class_mean_map(model, seen_data, stats), hp)


def _blend_seen(table, present_ids, means, hp):
    """:func:`adjust_seen` from the mapped means (d_s, c) of the sorted
    classes ``present_ids``, as :func:`class_mean_map` returns them."""
    if hp.gamma1 == 0.0:
        return table
    seen_ids = table.seen_ids
    missing = seen_ids[~np.isin(seen_ids, present_ids)]
    if missing.size:
        raise DataError(f"seen classes without instances: {missing.tolist()}")
    seen = np.flatnonzero(table.seen)
    vectors = table.vectors.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        vectors[:, seen] = (hp.lambda1 * table.vectors[:, seen] + hp.gamma1
                            * means[:, np.searchsorted(present_ids, seen_ids)])
    _check_blend("seen", seen_ids, vectors[:, seen], "lambda1 and gamma1")
    return table.with_vectors(vectors)


def _check_blend(kind, ids, vectors, weights):
    """DataError naming the classes whose blended prototype column of
    ``vectors`` is the zero vector or has no finite norm."""
    sq = _sq_cols(vectors)      # squared norms; einsum does not warn
    for bad, what in ((sq == 0.0, "to the zero vector (similarity would be "
                                  "undefined)"),
                      (~np.isfinite(sq), f"beyond the float range; lower "
                                         f"{weights}")):
        if bad.any():
            raise DataError(f"{kind} adjustment blends the prototypes of "
                            f"classes {ids[bad].tolist()} {what}")


def _knn(source, queries, k):
    """The k seen prototypes of ``source`` most cosine-similar to each
    query column, best first with exact ties toward the smaller class
    id: the seen ids and vectors sorted by id, and per query column the
    rows (k, q) and similarities (k, q) of the k best."""
    seen_ids = source.seen_ids
    if k > seen_ids.size:
        raise DataError(
            f"k={k} exceeds the number of seen classes ({seen_ids.size})"
        )
    order = np.argsort(seen_ids)
    ids = seen_ids[order]
    vecs = source.vectors[:, np.flatnonzero(source.seen)[order]]
    sims = (vecs.T @ queries) / np.outer(np.linalg.norm(vecs, axis=0),
                                         np.linalg.norm(queries, axis=0))
    # Sort key: best first, a NaN similarity (overflowed norms) last.
    key = -sims
    key[np.isnan(key)] = np.inf
    # Per column keep the rows at or above the k-th value: k of them,
    # unless ties at the k-th value straddle the cut, where only the
    # smallest-id tied rows are kept. A stable sort of the k rows (in row
    # order, i.e. id order) then breaks ties toward the smaller id.
    kth = np.partition(key, k - 1, axis=0)[k - 1]
    keep = key <= kth
    if np.count_nonzero(keep) > k * keep.shape[1]:
        better = key < kth
        tied = key == kth
        keep = better | (tied & (np.cumsum(tied, axis=0)
                                 <= k - np.count_nonzero(better, axis=0)))
    top = np.nonzero(keep.T)[1].reshape(-1, k).T
    cols = np.arange(top.shape[1])
    top = top[np.argsort(key[top, cols], axis=0, kind="stable"), cols]
    return ids, vecs, top, sims[top, cols]


def knn_seen(table, unseen_id, k):
    """The k seen classes most cosine-similar to an unseen prototype.

    Returns a list of ``(seen class id, similarity)`` in descending
    similarity; exact ties break toward the smaller class id.
    """
    ids, _, top, sims = _knn(table, table.vector(unseen_id)[:, None], k)
    return [(int(ids[j]), float(s)) for j, s in zip(top[:, 0], sims[:, 0])]


def adjust_unseen(table, hp, neighbors=None):
    """Blend each unseen prototype with its k nearest seen prototypes.

    Neighbor search and averaging use the seen prototypes of
    ``neighbors`` when given (e.g. the original table), otherwise those
    of ``table`` itself; in the training loop that is the table returned
    by :func:`adjust_seen`, so neighbors reflect that round's seen
    adjustment. Seen prototypes are untouched, and ``gamma2 = 0``
    returns ``table`` itself.

    Raises
    ------
    DataError
        If k exceeds the number of seen classes, or if a blend's norm
        overflows (a huge ``lambda2`` or ``gamma2``); the message names
        the classes.
    """
    if hp.gamma2 == 0.0:
        return table
    source = table if neighbors is None else neighbors
    unseen = np.flatnonzero(~table.seen)
    _, vecs, top, sims = _knn(source, table.vectors[:, unseen], hp.k)
    weights = np.maximum(sims, 0.0)
    total = weights.sum(axis=0)
    # no positive similarity: leave that column unchanged this round
    cols = total > 0.0
    top, weights = top[:, cols], weights[:, cols] / total[cols]
    # one neighbor rank at a time keeps the gathered block d_s x q
    # instead of d_s x k x q
    blend = sum(vecs[:, top[j]] * weights[j] for j in range(hp.k))
    vectors = table.vectors.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        vectors[:, unseen[cols]] = (
            hp.lambda2 * table.vectors[:, unseen[cols]] + hp.gamma2 * blend)
    _check_blend("unseen", table.class_ids[unseen[cols]],
                 vectors[:, unseen[cols]], "lambda2 and gamma2")
    return table.with_vectors(vectors)
