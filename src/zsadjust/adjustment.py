"""Adaptive adjustment of seen and unseen class prototypes.

A seen prototype is blended with the mean mapped feature of its own
training instances:

    p' = lambda1 * p + gamma1 * mean_j(W @ x_j).

An unseen prototype, which has no instances, is blended with the
similarity-weighted average of its k nearest seen prototypes:

    p' = lambda2 * p + gamma2 * sum_j (w_j / sum w) * p_seen_j,

the weights being cosine similarities floored at zero; if all k vanish,
the prototype is left unchanged that round. A zero gamma disables its
adjustment outright: prototypes pass through rather than scaled by
lambda alone. Both rules anchor on the table passed in, which training
always passes as the original, so blends never compound.

Each rule is written once, on prototype blocks (d_s x n arrays):
:func:`_blend`, the k-NN search :func:`_nearest` and the neighbour blend
:func:`_blend_neighbors`. The training loop and
:func:`zsadjust.inference.sweep_k` call them on the blocks they carry;
the public functions gather the blocks of a :class:`PrototypeTable`.
"""

from __future__ import annotations

import numpy as np

from .data import PrototypeTable
from .errors import DataError
from .mapping import _sq_cols, class_mean_map


# Unused by the package: kept only because perfbench/run.py traces it.
def untouched_provenance(table):
    """Every class id mapped to a copy of its prototype column."""
    return dict(zip(table.class_ids.tolist(), table.vectors.T.copy()))


def adjust_seen(table, model, seen, hp):
    """Blend each seen prototype with its class's mean mapped feature.

    The means come from the class statistics of ``seen``, a
    LabeledDataset or its ClassStats
    (:func:`zsadjust.mapping.class_mean_map`). Unseen prototypes are
    untouched, and ``gamma1 = 0`` returns ``table`` itself.

    Raises
    ------
    DataError
        If a seen class of ``table`` has no instances in ``seen``, or if
        a blend is the zero vector (say ``lambda1 = 0`` and a class whose
        mapped features average to 0) or its norm overflows (a huge
        ``lambda1`` or ``gamma1``); the message names the classes.
    """
    if hp.gamma1 == 0.0:
        return table
    return _blend_seen(table, *class_mean_map(model, seen), hp)


def _blend_seen(table, present_ids, means, hp):
    """:func:`adjust_seen` from the mapped means (d_s, c) of the sorted
    classes ``present_ids``, as :func:`class_mean_map` returns them."""
    if hp.gamma1 == 0.0:
        return table
    seen_ids = table.seen_ids
    _check_present(seen_ids, present_ids)
    seen = np.flatnonzero(table.seen)
    return _with_columns(table, seen, _blend(
        "seen", hp, table.vectors[:, seen],
        means[:, np.searchsorted(present_ids, seen_ids)], table.class_ids,
        seen))


def _check_present(seen_ids, present_ids):
    """DataError listing the ``seen_ids`` that ``present_ids`` lacks."""
    missing = seen_ids[~np.isin(seen_ids, present_ids)]
    if missing.size:
        raise DataError(f"seen classes without instances: {missing.tolist()}")


def _with_columns(table, cols, block):
    """``table`` with its columns ``cols`` replaced by those of ``block``,
    which a blend has checked: nothing is scanned again."""
    vectors = table.vectors.copy()
    vectors[:, cols] = block
    return PrototypeTable._of_checked(table.class_ids.copy(), vectors,
                                      table.seen.copy())


_WEIGHTS = {"seen": ("lambda1", "gamma1"), "unseen": ("lambda2", "gamma2")}


def _blend(kind, hp, anchor, pull, class_ids, cols):
    """``lambda * anchor + gamma * pull`` with the ``kind`` ("seen" or
    "unseen") weights of ``hp``; column j is the prototype of the class
    ``class_ids[cols[j]]``. A blend that is zero or has no finite norm is
    a DataError naming its classes in the order of ``class_ids``."""
    names = _WEIGHTS[kind]
    lam, gam = (getattr(hp, name) for name in names)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = lam * anchor
        out += gam * pull
    sq = _sq_cols(out)      # squared norms; einsum does not warn
    for bad, what in ((sq == 0.0, "to the zero vector (similarity would be "
                                  "undefined)"),
                      (~np.isfinite(sq), f"beyond the float range; lower "
                                         f"{' and '.join(names)}")):
        if bad.any():
            raise DataError(f"{kind} adjustment blends the prototypes of "
                            f"classes {class_ids[np.sort(cols[bad])].tolist()}"
                            f" {what}")
    return out


def _check_k(k, seen_count):
    if k > seen_count:
        raise DataError(
            f"k={k} exceeds the number of seen classes ({seen_count})")


def _seen_block(table):
    """The seen class ids of ``table`` in ascending order, their columns
    and their prototypes (d_s, s), gathered in that order."""
    seen = np.flatnonzero(table.seen)
    cols = seen[np.argsort(table.class_ids[seen])]
    return table.class_ids[cols], cols, table.vectors[:, cols]


def _nearest(vecs, queries, query_norms, k):
    """Rows (k, q) and similarities (k, q) of the k columns of ``vecs``
    (seen prototypes in id order) most cosine-similar to each query column
    (norms ``query_norms``): best first, exact ties toward the smaller id,
    NaN last. The first j ranks are those of a search for j."""
    _check_k(k, vecs.shape[1])
    sims = (vecs.T @ queries) / np.outer(np.linalg.norm(vecs, axis=0),
                                         query_norms)
    # Sort key: best first, a NaN similarity (overflowed norms) last.
    key = -sims
    key[np.isnan(key)] = np.inf
    # Per column keep the rows at or above the k-th value, only the
    # smallest-id ones where ties straddle the cut; a stable sort of the k
    # rows (in id order) then breaks ties toward the smaller id.
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
    return top, sims[top, cols]


def _knn(source, queries, k):
    """:func:`_nearest` of the query columns among the seen prototypes
    of the table ``source``: the seen ids and vectors sorted by id, and
    the rows and similarities of the k best."""
    ids, _, vecs = _seen_block(source)
    return (ids, vecs,
            *_nearest(vecs, queries, np.linalg.norm(queries, axis=0), k))


def knn_seen(table, unseen_id, k):
    """The k seen classes most cosine-similar to an unseen prototype: a
    list of ``(seen class id, similarity)``, best first, exact ties toward
    the smaller class id."""
    ids, _, top, sims = _knn(table, table.vector(unseen_id)[:, None], k)
    return [(int(ids[j]), float(s)) for j, s in zip(top[:, 0], sims[:, 0])]


def adjust_unseen(table, hp, neighbors=None):
    """Blend each unseen prototype with its k nearest seen prototypes.

    The neighbours are the seen prototypes of ``neighbors`` when given
    (the original table, say), else those of ``table``. Seen prototypes
    are untouched, and ``gamma2 = 0`` returns ``table`` itself.

    Raises
    ------
    DataError
        If k exceeds the number of seen classes, or if a blend's norm
        overflows (a huge ``lambda2`` or ``gamma2``); the message names
        the classes.
    """
    if hp.gamma2 == 0.0:
        return table
    unseen = np.flatnonzero(~table.seen)
    queries = table.vectors[:, unseen]
    _, vecs, top, sims = _knn(table if neighbors is None else neighbors,
                              queries, hp.k)
    return _with_columns(table, unseen, _blend_neighbors(
        queries, vecs, top, sims, hp, table.class_ids, unseen))


def _blend_neighbors(queries, vecs, top, sims, hp, class_ids, cols):
    """A new block: the unseen blend of the prototypes ``queries`` (the
    classes ``class_ids[cols]``) from the first ``hp.k`` ranks of their
    :func:`_nearest` search ``top, sims`` among ``vecs`` at any k >=
    ``hp.k``."""
    _check_k(hp.k, vecs.shape[1])
    weights = np.maximum(sims[:hp.k], 0.0)
    total = weights.sum(axis=0)
    # no positive similarity: leave that column unchanged this round
    live = total > 0.0
    top, weights = top[:hp.k, live], weights[:, live] / total[live]
    # a rank at a time: the gathered block is d_s x q, not d_s x k x q
    pull = sum(vecs[:, top[j]] * weights[j] for j in range(hp.k))
    out = queries.copy(order="K")
    out[:, live] = _blend("unseen", hp, queries[:, live], pull, class_ids,
                          cols[live])
    return out
