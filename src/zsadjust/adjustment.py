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
:func:`_blend`, the k-NN search :func:`_nearest`, which ranks a (queries
x seen) similarity block along its rows, and the neighbour blend
:func:`_blend_neighbors`. The search holds that one block, which it
turns into its sort key in place, and a one-byte mask of its NaN; its
other temporaries are taken a cache-sized row chunk at a time. The blend
forms its neighbour means in one of two ways, by the width of the seen
block. From ``_GATHER_RATIO`` (16) times k seen classes up, they are
k-term sums of each query's gathered seen prototypes, taken in query
chunks no larger than the search's similarities or a cache-sized count.
Below that, they are one product of the seen block with a (seen x
queries) weight matrix of k entries a column, which costs n_seen/k times
the multiply-adds but one BLAS call. The two agree up to rounding; the
timings behind the ratio are given where it is set. A :class:`PrototypeTable` becomes blocks one way:
:func:`_side` gathers one side in class id order, once per side, and
:func:`_with_columns` writes a blended block back into the table's own
column order. The training loop, :func:`zsadjust.inference.sweep_k`,
the ranking and the public functions here all go through them, so no
result depends on the order in which a table lists its classes.
"""

from __future__ import annotations

import numpy as np

from .data import PrototypeTable, _rows
from .errors import DataError
from .linalg import as_number, as_type
from .mapping import _check_fits, _sq_cols, class_mean_map


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
        If ``model`` does not fit ``seen`` and ``table``, if a seen class
        of ``table`` has no instances in ``seen``, or if a blend is the
        zero vector (say ``lambda1 = 0`` and a class whose mapped
        features average to 0) or its norm overflows (a huge ``lambda1``
        or ``gamma1``); the message names the classes.
    """
    if hp.gamma1 == 0.0:
        return table
    present_ids, means = class_mean_map(model, seen)  # checks the features
    _check_fits(model, semantic_dim=table.semantic_dim)
    ids, cols, vecs = _side(table, True)
    pull = means[:, _rows(present_ids, ids, "seen classes without instances:")]
    return _with_columns(table, cols, _blend("seen", hp, vecs, pull, ids))


def _with_columns(table, cols, block):
    """``table`` with its columns ``cols`` replaced by those of ``block``,
    which a blend has checked: nothing is scanned again."""
    vectors = table.vectors.copy()
    vectors[:, cols] = block
    return PrototypeTable._of_checked(table.class_ids.copy(), vectors,
                                      table.seen.copy())


_WEIGHTS = {"seen": ("lambda1", "gamma1"), "unseen": ("lambda2", "gamma2")}


def _blend(kind, hp, anchor, pull, ids):
    """``lambda * anchor + gamma * pull`` with the ``kind`` ("seen" or
    "unseen") weights of ``hp``; column j is the prototype of the class
    ``ids[j]``, the ids ascending. A blend that is zero or has no finite
    norm is a DataError naming its classes."""
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
                            f"classes {ids[bad].tolist()} {what}")
    return out


def _check_k(k, count):
    if k > count:
        raise DataError(f"k={k} exceeds the number of seen classes ({count})")


def _side(table, seen):
    """The ascending class ids of the seen (``seen`` True) or unseen side
    of ``table``, their columns and their prototypes (d_s, n), in order."""
    cols = np.flatnonzero(table.seen == seen)
    cols = cols[np.argsort(table.class_ids[cols])]
    return table.class_ids[cols], cols, table.vectors[:, cols]


# The most values a chunk holds, a row chunk of the search's temporaries
# (:func:`_keyed_top`) or a gathered block of :func:`_gathered_means`:
# 2^16 floats (512 kB) stay in cache. At 1000 seen x 500 unseen, d_s = 300
# and k = 12, on the F-order blocks that _side gathers, a gather call took
# 1.05 ms with this cap, 1.92 ms with chunks the size of the similarities
# and 1.85 ms with a 2^18 cap (medians of 15 interleaved rounds), and a
# search call 10.4 ms with this cap against 10.6, 10.5 and 10.8 ms with
# caps of 2^14, 2^15 and 2^17 (medians of 41); one BLAS thread, numpy
# 2.4.6 and OpenBLAS 0.3.31 on a 2-core Xeon.
_CHUNK_VALUES = 2 ** 16


def _nearest(vecs, queries, k):
    """Rows (k, q) and similarities (k, q) of the k columns of ``vecs``
    (seen prototypes in id order) most cosine-similar to each column of
    ``queries``: best first, exact ties toward the smaller id, NaN last.
    The first j ranks are those of a search for j.

    The query-major (q, n_seen) product is the only float array of its
    size, beside a one-byte mask of its NaN: :func:`_keyed_top` turns it
    into the sort key in place, in row chunks of at most ``_CHUNK_VALUES``
    values, and the similarities are read back from the key."""
    _check_k(k, vecs.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: ranked last
        # np.linalg.norm's sums, without its call overhead, taken first:
        # their squared copies are freed before the block
        norms = [np.sqrt((a * a).sum(axis=0)) for a in (queries, vecs)]
        key = queries.T @ vecs
        nan = np.empty(key.shape, dtype=bool)
        step = max(1, _CHUNK_VALUES // vecs.shape[1])
        if step >= key.shape[0]:
            top = _keyed_top(key, nan, *norms, k)
        else:
            top = np.concatenate([
                _keyed_top(key[s:s + step], nan[s:s + step],
                           norms[0][s:s + step], norms[1], k)
                for s in range(0, key.shape[0], step)])
    # a stable sort of each query's k (in id order) breaks ties toward the
    # smaller id
    top = top.T
    cols = np.arange(top.shape[1])
    top = top[np.argsort(key[cols, top], axis=0, kind="stable"), cols]
    sims = -key[cols, top]
    if nan.any():
        sims[nan[cols, top]] = np.nan
    return top, sims


def _keyed_top(key, nan, q_norms, v_norms, k):
    """Each row's k smallest keys (r, k), in id order, where ``key`` (r,
    n_seen) holds the products of the columns whose norms are ``q_norms``
    and ``v_norms``. In place, it becomes the sort key: the negated
    cosine, best first, a NaN (overflowed norms) set to +inf and so ranked
    last, and ``nan`` marks those. Per row it keeps the keys at or below
    the k-th, only the smallest-id ones where ties straddle the cut."""
    key /= np.outer(q_norms, v_norms)
    np.negative(key, out=key)
    np.isnan(key, out=nan)
    key[nan] = np.inf
    kth = np.partition(key, k - 1, axis=1)[:, k - 1:k]
    keep = key <= kth
    if np.count_nonzero(keep) > k * keep.shape[0]:
        better = key < kth
        tied = key == kth
        room = k - np.count_nonzero(better, axis=1, keepdims=True)
        keep = better | (tied & (np.cumsum(tied, axis=1) <= room))
    return (np.flatnonzero(keep) % keep.shape[1]).reshape(-1, k)


def knn_seen(table, unseen_id, k):
    """The k seen classes most cosine-similar to an unseen prototype: a
    list of ``(seen class id, similarity)``, best first, exact ties toward
    the smaller class id. ``k`` must be a positive integer, and a seen
    ``unseen_id`` is a DataError."""
    as_number(k, "k", 1, int)
    col = table.column_of(unseen_id)
    if table.seen[col]:
        raise DataError(f"class {unseen_id} is seen; knn_seen takes an "
                        f"unseen class")
    ids, _, vecs = _side(table, True)
    top, sims = _nearest(vecs, table.vectors[:, [col]], k)
    return [(int(ids[j]), float(s)) for j, s in zip(top[:, 0], sims[:, 0])]


def adjust_unseen(table, hp, neighbors=None):
    """Blend each unseen prototype with its k nearest seen prototypes.

    The neighbours are the seen prototypes of ``neighbors`` when given
    (the original table, say), else those of ``table``. Seen prototypes
    are untouched, and ``gamma2 = 0`` returns ``table`` itself.

    Raises
    ------
    TypeError
        If ``neighbors`` is neither a PrototypeTable nor None.
    DataError
        If ``neighbors`` has another semantic dimension than ``table``,
        if k exceeds the number of seen classes, or if a blend's norm
        overflows (a huge ``lambda2`` or ``gamma2``); the message names
        the classes.
    """
    as_type(neighbors, "neighbors", PrototypeTable, type(None))
    if hp.gamma2 == 0.0:
        return table
    if neighbors is not None and neighbors.semantic_dim != table.semantic_dim:
        raise DataError(f"neighbors have {neighbors.semantic_dim} semantic "
                        f"dimensions, the table has {table.semantic_dim}")
    ids, cols, queries = _side(table, False)
    _, _, vecs = _side(table if neighbors is None else neighbors, True)
    top, sims = _nearest(vecs, queries, hp.k)
    return _with_columns(table, cols, _blend_neighbors(
        queries, vecs, top, sims, hp, ids))


# The neighbour means take the cheaper of two forms. Where the seen block
# is at least _GATHER_RATIO * k wide, each query gathers its k seen
# prototypes (:func:`_gathered_means`); below that, one product with a
# (seen x queries) weight matrix (:func:`_product_means`) is faster: it
# does n_seen / k times the multiply-adds, but in one BLAS call. Measured
# per blend call, interleaved (one BLAS thread, numpy 2.4.6 and OpenBLAS
# 0.3.31 on a 2-core Xeon; d_s 85 and 300, 20 to 500 queries): the gather
# is the faster from 150-400 seen classes up at k = 12 and from 50-150 up
# at k = 3, a crossover at 12 to 50 times k. A whole blend call at 1000
# seen x 500 unseen, d_s = 300 and k = 12 took 2.3 ms with the gather and
# 5.8 ms with the product; at 20 x 20, d_s = 85, 100 us and 34 us.
_GATHER_RATIO = 16


def _blend_neighbors(queries, vecs, top, sims, hp, ids):
    """A new block: the unseen blend of the prototypes ``queries`` (the
    classes ``ids``, ascending) from the first ``hp.k`` ranks of their
    :func:`_nearest` search ``top, sims`` among ``vecs`` at any k >=
    ``hp.k``. The neighbour means are k-term sums of gathered seen
    prototypes where ``vecs`` has at least ``_GATHER_RATIO * k`` columns,
    else one product of ``vecs`` with a (seen x queries) weight matrix;
    the two forms were measured to cross over at 12 to 50 times k seen
    classes (the comment at ``_GATHER_RATIO`` gives the timings)."""
    _check_k(hp.k, vecs.shape[1])
    weights = np.maximum(sims[:hp.k], 0.0)
    total = weights.sum(axis=0)
    # no positive similarity: leave that column unchanged this round
    live = total > 0.0
    top, weights = top[:hp.k, live], weights[:, live] / total[live]
    means = (_gathered_means if vecs.shape[1] >= _GATHER_RATIO * hp.k
             else _product_means)
    pull = means(vecs, top, weights)
    if live.all():      # every column blends: no copy of the block
        return _blend("unseen", hp, queries, pull, ids)
    out = queries.copy(order="K")
    out[:, live] = _blend("unseen", hp, queries[:, live], pull, ids[live])
    return out


def _product_means(vecs, top, weights):
    """The weighted means of the columns ``top`` (k, q) of ``vecs`` as one
    product with a (seen x queries) matrix that holds each query's k
    ``weights`` in its column, zero elsewhere, and is freed on return. The
    transposes give the means (d_s, q) the F order of the anchor columns,
    which :func:`_blend` then adds without a buffer."""
    mix = np.zeros((vecs.shape[1], weights.shape[1]))
    np.put_along_axis(mix, top, weights, axis=0)
    return (mix.T @ vecs.T).T


def _gathered_means(vecs, top, weights):
    """:func:`_product_means` as k-term sums: each query's k rows of
    ``vecs.T`` are gathered and summed with its weights by one batched
    product. The queries go in chunks, so that no gathered (chunk, k, d_s)
    block holds more values than the search's (seen x queries)
    similarities or ``_CHUNK_VALUES``. Each query's sum is its own, so the
    means are the same bits at any chunk size."""
    (k, q), (d, n) = top.shape, vecs.shape
    step = max(1, min(n * q, _CHUNK_VALUES) // (k * d))
    means = np.empty((q, d))
    for s in range(0, q, step):
        part = slice(s, s + step)
        np.matmul(weights[:, part].T[:, None], vecs.T[top[:, part].T],
                  out=means[part, None])
    return means.T
