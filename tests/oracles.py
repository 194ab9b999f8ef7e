"""Independent reference implementations used to check the library.

These deliberately avoid the code paths they validate: the
matrix-equation solve goes through Kronecker vectorization and a dense
linear solve, the unseen-prototype blend runs one class at a time, and
the per-instance training loop is the reference for the class-level
statistics that the package trains from. The table-level training loop
is the reference for the prototype blocks that the package's loop
carries through its iterations.
"""

from dataclasses import replace

import numpy as np

from zsadjust.adjustment import _blend_seen, adjust_unseen
from zsadjust.linalg import SylvesterSystem, solve_sylvester
from zsadjust.mapping import (
    ClassStats,
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
        neigh = np.stack([source.vector(c) for c, _ in ranked], axis=1)
        vectors[:, i] = (hp.lambda2 * table.vectors[:, i]
                         + hp.gamma2 * (neigh @ weights))
    return vectors


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


def table_loop(seen, table, hp, unseen_neighbors="adjusted", trace=True):
    """The loop of :func:`zsadjust.trainer._alternate` written over
    tables: each iteration blends the seen columns into a copy of the
    whole table, searches and blends the unseen columns into another
    copy, gathers the solve's prototypes by class id and checks them
    again, and takes both shifts from the tables. The rules are the
    package's table functions; what it checks is the block bookkeeping
    of the package's loop. Returns ``(weights, adjusted, seen_adjusted,
    records)`` with ``seen_adjusted`` None after zero iterations and
    one ``(objective, w_delta, seen_shift, unseen_shift)`` per traced
    iteration."""
    stats = seen if isinstance(seen, ClassStats) else class_stats(seen)
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
        seen_adjusted = _blend_seen(table, stats.class_ids, centroids, hp)
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
                adjusted.vectors[:, mask] - prev.vectors[:, mask], "fro"))
                for mask in (table.seen, ~table.seen)]
            records.append((obj, delta, *shifts))
        w_hat, centroids = new_hat, mapped
        if delta < hp.tol:
            break
    return MappingModel(w_hat @ v.T).weights, adjusted, seen_adjusted, records
