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

Both adjustments anchor on the prototypes of the table passed in; the
training loop always passes the original pre-training table, so blends
never compound across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PrototypeTable
from .errors import DataError
from .mapping import class_mean_map


def cosine_similarity(a, b):
    """Cosine of the angle between two nonzero vectors, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for the zero vector")
    return float(np.dot(a, b) / (na * nb))


@dataclass(frozen=True)
class BlendRecord:
    """What went into one class's last adjustment."""

    original: np.ndarray
    blend_term: np.ndarray | None  # None when the class was untouched


@dataclass(frozen=True)
class AdjustedPrototypes:
    """A prototype table after adjustment, plus per-class provenance."""

    table: PrototypeTable
    provenance: dict

    def __post_init__(self):
        if set(self.provenance) != set(self.table.class_ids.tolist()):
            raise DataError("provenance must cover exactly the table's classes")


def untouched_provenance(table):
    """Provenance dict marking every class as not yet blended."""
    return {
        int(cid): BlendRecord(table.vectors[:, i].copy(), None)
        for i, cid in enumerate(table.class_ids)
    }


def adjust_seen(table, model, seen_data, hp, stats=None):
    """Blend each seen prototype with its class's mean mapped feature.

    The class means are mapped as ``W @ mean(x)``, from
    ``stats = class_stats(seen_data)`` when given, without encoding each
    instance. Every seen class in ``table`` must have at least one
    instance in ``seen_data``. Unseen prototypes are untouched, and
    ``gamma1 = 0`` leaves the whole table unchanged.
    """
    if hp.gamma1 == 0.0:
        return AdjustedPrototypes(table, untouched_provenance(table))
    present_ids, means = class_mean_map(model, seen_data, stats)
    mean_col = {int(c): i for i, c in enumerate(present_ids)}
    missing = [int(c) for c in table.seen_ids if int(c) not in mean_col]
    if missing:
        raise DataError(f"seen classes without instances: {missing}")

    vectors = table.vectors.copy()
    provenance = untouched_provenance(table)
    for i, cid in enumerate(table.class_ids):
        if not table.seen[i]:
            continue
        mean = means[:, mean_col[int(cid)]]
        vectors[:, i] = hp.lambda1 * table.vectors[:, i] + hp.gamma1 * mean
        provenance[int(cid)] = BlendRecord(
            table.vectors[:, i].copy(), mean.copy()
        )
    return AdjustedPrototypes(table.with_vectors(vectors), provenance)


def _knn_by_query(table, query, k):
    seen_ids = table.seen_ids
    if k > seen_ids.size:
        raise DataError(
            f"k={k} exceeds the number of seen classes ({seen_ids.size})"
        )
    qn = np.linalg.norm(query)
    if qn == 0.0:
        raise ValueError("cosine similarity is undefined for the zero vector")
    seen_vecs = table.vectors[:, table.seen]
    sims = (seen_vecs.T @ query) / (np.linalg.norm(seen_vecs, axis=0) * qn)
    order = np.lexsort((seen_ids, -sims))[:k]
    return [(int(seen_ids[j]), float(sims[j])) for j in order]


def knn_seen(table, unseen_id, k):
    """The k seen classes most cosine-similar to an unseen prototype.

    Returns a list of ``(seen class id, similarity)`` in descending
    similarity; exact ties break toward the smaller class id.
    """
    return _knn_by_query(table, table.vector(unseen_id), k)


def adjust_unseen(table, hp, neighbors=None):
    """Blend each unseen prototype with its k nearest seen prototypes.

    Neighbor search and averaging use the seen prototypes of
    ``neighbors`` when given (e.g. the original table), otherwise those
    of ``table`` itself; in the training loop that is the table returned
    by :func:`adjust_seen`, so neighbors reflect that round's seen
    adjustment. Seen prototypes are untouched, and ``gamma2 = 0``
    leaves the whole table unchanged.
    """
    if hp.gamma2 == 0.0:
        return AdjustedPrototypes(table, untouched_provenance(table))
    source = table if neighbors is None else neighbors
    if source.seen_ids.size < hp.k:
        raise DataError(
            f"k={hp.k} exceeds the number of seen classes "
            f"({source.seen_ids.size})"
        )
    vectors = table.vectors.copy()
    provenance = untouched_provenance(table)
    for i, cid in enumerate(table.class_ids):
        if table.seen[i]:
            continue
        ranked = _knn_by_query(source, table.vectors[:, i], hp.k)
        weights = np.maximum([s for _, s in ranked], 0.0)
        total = weights.sum()
        if total <= 0.0:
            continue  # no positive similarity: leave this round unchanged
        weights /= total
        neigh = np.stack([source.vector(c) for c, _ in ranked], axis=1)
        blend = neigh @ weights
        vectors[:, i] = hp.lambda2 * table.vectors[:, i] + hp.gamma2 * blend
        provenance[int(cid)] = BlendRecord(
            table.vectors[:, i].copy(), blend
        )
    return AdjustedPrototypes(table.with_vectors(vectors), provenance)
