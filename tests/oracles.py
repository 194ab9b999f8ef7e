"""Independent reference implementations used to check the library.

These deliberately avoid the code paths they validate: the
matrix-equation solve goes through Kronecker vectorization and a dense
linear solve, the unseen-prototype blend runs one class at a time (or, on
the package's blocks, one neighbour rank at a time), the k-NN search
forms whole (queries x seen) blocks where the package keeps one, the
ranking tail builds one mask per comparison and takes np.argmax of the
similarities, and the per-instance training loop is the reference for the class-level
statistics that the package trains from. The table-level training loop
is the reference for the prototype blocks that the package's loop
carries through its iterations.
"""

from dataclasses import replace

import numpy as np

from zsadjust.adjustment import _blend, adjust_unseen
from zsadjust.data import _rows
from zsadjust.linalg import SylvesterSystem, solve_sylvester
from zsadjust.mapping import (
    MappingModel,
    _columns,
    _objective,
    _solve_rotated,
    _sq_cols,
    class_stats,
    expand_per_instance,
    objective,
)


def kron_solve(L, R, M):
    """Solve L W + W R + M = 0 via (I (x) L + R^T (x) I) vec(W) = -vec(M).

    Column-major vec convention; dense solve, no eigendecomposition.
    """
    p = L.shape[0]
    q = R.shape[0]
    op = np.kron(np.eye(q), L) + np.kron(R.T, np.eye(p))
    vec_w = np.linalg.solve(op, -M.flatten(order="F"))
    return vec_w.reshape((p, q), order="F")


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    b = rng.standard_normal((n, rank))
    return b @ b.T


def cosine_similarity(a, b):
    """Cosine of the angle between two nonzero vectors, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for the zero vector")
    return float(np.dot(a, b) / (na * nb))


# ---------------------------------------------------------------------------
# per-class unseen adjustment: one matrix-vector product and one lexsort
# per unseen class


def per_class_knn(source, query, k):
    """The k seen classes of ``source`` most cosine-similar to ``query``
    as (id, similarity) pairs, ordered by (-similarity, id)."""
    seen_ids = source.seen_ids
    seen_vecs = source.vectors[:, source.seen]
    sims = (seen_vecs.T @ query) / (np.linalg.norm(seen_vecs, axis=0)
                                    * np.linalg.norm(query))
    order = np.lexsort((seen_ids, -sims))[:k]
    return [(int(seen_ids[j]), float(sims[j])) for j in order]


def per_class_adjust_unseen(table, hp, neighbors=None):
    """Vectors of ``table`` after the unseen blend, one class at a time."""
    vectors = table.vectors.copy()
    if hp.gamma2 == 0.0:
        return vectors
    source = table if neighbors is None else neighbors
    for i in np.flatnonzero(~table.seen):
        ranked = per_class_knn(source, table.vectors[:, i], hp.k)
        weights = np.maximum([s for _, s in ranked], 0.0)
        total = weights.sum()
        if total <= 0.0:
            continue  # no positive similarity: left unchanged
        weights /= total
        neigh = np.stack([source.vectors[:, source.column_of(c)]
                          for c, _ in ranked], axis=1)
        vectors[:, i] = (hp.lambda2 * table.vectors[:, i]
                         + hp.gamma2 * (neigh @ weights))
    return vectors


def per_rank_blend_neighbors(queries, vecs, top, sims, hp, ids):
    """:func:`zsadjust.adjustment._blend_neighbors` a rank at a time: the
    neighbour means sum k gathered d_s x q blocks, each scaled by its
    rank's weights."""
    weights = np.maximum(sims[:hp.k], 0.0)
    total = weights.sum(axis=0)
    live = total > 0.0
    top, weights = top[:hp.k, live], weights[:, live] / total[live]
    pull = sum(vecs[:, top[j]] * weights[j] for j in range(hp.k))
    out = queries.copy(order="K")
    out[:, live] = _blend("unseen", hp, queries[:, live], pull, ids[live])
    return out


def whole_block_nearest(vecs, queries, k):
    """:func:`zsadjust.adjustment._nearest` on whole (queries x seen)
    blocks: the similarities, their negated copy as the sort key and a
    partitioned copy of that, with no chunk and nothing in place."""
    with np.errstate(over="ignore", invalid="ignore"):
        sims = (queries.T @ vecs) / np.outer(np.linalg.norm(queries, axis=0),
                                             np.linalg.norm(vecs, axis=0))
    key = -sims
    key[np.isnan(key)] = np.inf
    kth = np.partition(key, k - 1, axis=1)[:, k - 1:k]
    keep = key <= kth
    if np.count_nonzero(keep) > k * keep.shape[0]:
        better = key < kth
        tied = key == kth
        room = k - np.count_nonzero(better, axis=1, keepdims=True)
        keep = better | (tied & (np.cumsum(tied, axis=1) <= room))
    top = (np.flatnonzero(keep) % keep.shape[1]).reshape(-1, k).T
    cols = np.arange(top.shape[1])
    top = top[np.argsort(key[cols, top], axis=0, kind="stable"), cols]
    return top, sims[cols, top]


# ---------------------------------------------------------------------------
# the ranking tail: each comparison as its own (candidates x instances)
# mask, and the 1-NN in-degree from np.argmax over the similarity block


def mask_true_ranks(sims, rows):
    """Each instance's rank, the candidates above its class's row ``rows``
    in ``sims`` plus tied ones of smaller row, and if its similarity is
    NaN."""
    true = sims[rows, np.arange(rows.size)]
    cand = np.arange(sims.shape[0])[:, None]
    rank_of = np.count_nonzero(
        (sims > true) | ((sims == true) & (cand < rows)), axis=0)
    return rank_of, np.isnan(true)


def argmax_in_degree(sims, zero):
    """How often each row of ``sims`` is the first maximum of a column,
    over the columns not in ``zero``."""
    return np.bincount(np.argmax(sims, axis=0)[~zero],
                       minlength=sims.shape[0])


# ---------------------------------------------------------------------------
# per-instance training: every product over all m instance columns


def _prototype_per_instance(table, labels):
    return table.vectors[:, [table.column_of(c) for c in labels]]


def _grouped_means(mapped, labels):
    ids, inverse, counts = np.unique(
        labels, return_inverse=True, return_counts=True
    )
    sums = np.zeros((mapped.shape[0], ids.size))
    np.add.at(sums.T, inverse, mapped.T)
    return ids, inverse, sums / counts


def per_instance_objective(w, x, p, o, alpha, beta):
    """J(W) from the m-column residuals."""
    recon = x - w.T @ p
    wx = w @ x
    return (0.5 * float(np.sum(recon * recon))
            + 0.5 * alpha * float(np.sum((wx - o) ** 2))
            + 0.5 * beta * float(np.sum((wx - p) ** 2)))


def per_instance_solve(x, p, o, alpha, beta):
    """Weights from L = P P^T, R = (alpha + beta) X X^T and
    M = -[(1 + beta) P + alpha O] X^T, both sides decomposed here."""
    system = SylvesterSystem(p @ p.T, (alpha + beta) * (x @ x.T),
                             -((1.0 + beta) * p + alpha * o) @ x.T)
    return solve_sylvester(system)


def per_instance_train(seen, table, hp):
    """The alternating loop of :func:`zsadjust.trainer.train` over
    per-instance matrices, with the seen blend taken from the mean of
    the encoded instances. Returns (weights, adjusted prototype vectors,
    objective per iteration)."""
    x, labels = seen.features, seen.labels
    p = _prototype_per_instance(table, labels)
    w = per_instance_solve(x, p, np.zeros_like(p), 0.0, hp.beta)
    current = table
    objectives = []
    for _ in range(hp.iterations):
        # centroids O: column i is the mean of the encoded instances of
        # instance i's class
        ids, inverse, means = _grouped_means(MappingModel(w).encode(x), labels)
        o = means[:, inverse]
        vectors = table.vectors.copy()
        if hp.gamma1 != 0.0:
            for i, cid in enumerate(table.class_ids):
                if table.seen[i]:
                    mean = means[:, np.flatnonzero(ids == cid)[0]]
                    vectors[:, i] = (hp.lambda1 * table.vectors[:, i]
                                     + hp.gamma1 * mean)
        current = table.with_vectors(
            per_class_adjust_unseen(table.with_vectors(vectors), hp))
        p = _prototype_per_instance(current, labels)
        w_new = per_instance_solve(x, p, o, hp.alpha, hp.beta)
        objectives.append(
            per_instance_objective(w_new, x, p, o, hp.alpha, hp.beta))
        delta = np.linalg.norm(w_new - w) / max(np.linalg.norm(w_new), 1e-300)
        w = w_new
        if delta < hp.tol:
            break
    return w, current.vectors, objectives


# ---------------------------------------------------------------------------
# the training loop over whole prototype tables


def _id_ordered(table, mask):
    """The columns of ``table`` where ``mask`` holds, by ascending id."""
    cols = np.flatnonzero(mask)
    return cols[np.argsort(table.class_ids[cols])]


def _seen_blend(table, class_ids, means, hp):
    """``table`` with each seen column p replaced by lambda1 p + gamma1 o,
    o the column of ``means`` of its class in the sorted ``class_ids``;
    ``table`` itself when gamma1 = 0. The rule and its errors are the
    package's :func:`_blend`, on the seen columns by ascending id."""
    if hp.gamma1 == 0.0:
        return table
    cols = _id_ordered(table, table.seen)
    ids = table.class_ids[cols]
    rows = _rows(class_ids, ids, "seen classes without instances:")
    vectors = table.vectors.copy()
    vectors[:, cols] = _blend("seen", hp, table.vectors[:, cols],
                              means[:, rows], ids)
    return table.with_vectors(vectors)


def table_loop(seen, table, hp, unseen_neighbors="adjusted", trace=True):
    """The loop of :func:`zsadjust.trainer._alternate` written over
    tables: each iteration blends the seen columns into a copy of the
    whole table, searches and blends the unseen columns into another
    copy, gathers the solve's prototypes by class id and checks them
    again, and takes both shifts from the tables' columns by ascending
    id. The rules are the
    package's table functions; what it checks is the block bookkeeping
    of the package's loop. Returns ``(weights, adjusted, seen_adjusted,
    records)`` with ``seen_adjusted`` None after zero iterations and
    one ``(objective, w_delta, seen_shift, unseen_shift)`` per traced
    iteration."""
    stats = class_stats(seen)
    data = None if seen is stats else seen
    proto0 = expand_per_instance(table, stats.class_ids)
    (g, v), means = stats.gram_eig, stats.rotated_means
    w_hat = _solve_rotated(
        stats, *_columns(stats, proto0, np.zeros_like(proto0)),
        replace(hp, alpha=0.0), False)
    centroids = w_hat @ means
    neighbors = table if unseen_neighbors == "original" else None
    adjusted, seen_adjusted, records = table, None, []
    for _ in range(hp.iterations):
        prev = adjusted
        seen_adjusted = _seen_blend(table, stats.class_ids, centroids, hp)
        if trace:
            adjusted = adjust_unseen(seen_adjusted, hp, neighbors)
        proto = expand_per_instance(seen_adjusted, stats.class_ids)
        new_hat = _solve_rotated(stats, *_columns(stats, proto, centroids),
                                 hp, False)
        mapped = new_hat @ means
        w_hat -= new_hat
        delta = float(np.linalg.norm(w_hat, "fro")
                      / max(np.linalg.norm(new_hat, "fro"), 1e-300))
        if trace:
            if data is None:
                obj = _objective(stats, new_hat @ new_hat.T,
                                 float(g @ _sq_cols(new_hat)), mapped, proto,
                                 centroids, hp)
            else:
                obj = objective(MappingModel(new_hat @ v.T), data, proto,
                                centroids, hp, stats=stats)
            shifts = [float(np.linalg.norm(
                adjusted.vectors[:, cols] - prev.vectors[:, cols], "fro"))
                for cols in (_id_ordered(table, table.seen),
                             _id_ordered(table, ~table.seen))]
            records.append((obj, delta, *shifts))
        w_hat, centroids = new_hat, mapped
        if delta < hp.tol:
            break
    return MappingModel(w_hat @ v.T).weights, adjusted, seen_adjusted, records
