"""Zero-shot prediction, Hit@k scoring, and hubness diagnostics.

A test instance x is mapped to ``W @ x`` and the unseen classes of a
PrototypeTable are ranked by the cosine similarity of their prototypes,
ties toward the smaller class id. Hit@k is the fraction of instances
whose true class is in the top k. The hubness diagnostic, reported and
never gated, is the sample skewness of the 1-NN in-degree over the
candidate prototypes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .adjustment import _blend_neighbors, _nearest, _with_columns
from .errors import DataError
from .linalg import as_number
from .mapping import ClassStats
from .trainer import _alternate


def skewness(values):
    """Population (Fisher-Pearson) skewness; 0 for a constant sample."""
    v = np.asarray(values, dtype=np.float64)
    centered = v - v.mean()
    m2 = float(np.mean(centered ** 2))
    if m2 <= 1e-24 * max(1.0, float(np.mean(v ** 2))):
        return 0.0
    m3 = float(np.mean(centered ** 3))
    return m3 / m2 ** 1.5


def _candidate_block(table):
    """Unseen candidates sorted by ascending class id, unit-normalized."""
    unseen = np.flatnonzero(~table.seen)
    if unseen.size == 0:
        raise DataError("prototype table has no unseen classes")
    cols = unseen[np.argsort(table.class_ids[unseen])]
    vecs = table.vectors[:, cols]
    return (table.class_ids[cols],
            vecs / np.linalg.norm(vecs, axis=0, keepdims=True))


def _check_fits(model, feature_dim, table):
    """DataError unless ``model`` maps ``feature_dim``-dimensional
    features into the semantic space of ``table``."""
    if model.visual_dim != feature_dim:
        raise DataError(f"model expects {model.visual_dim}-dimensional "
                        f"features, data has {feature_dim}")
    if model.semantic_dim != table.semantic_dim:
        raise DataError(f"model maps into {model.semantic_dim} semantic "
                        f"dimensions, prototypes have {table.semantic_dim}")


def _check_direction(direction):
    if direction not in ("semantic", "visual"):
        raise ValueError("direction must be 'semantic' or 'visual'")


def _unit_instances(model, features, direction):
    """The instance columns as compared, ``W x`` (or ``x`` for "visual"),
    unit-normalized, and the mask of the zero ones (left at 0)."""
    lhs = (model.encode(features) if direction == "semantic"
           else np.asarray(features, dtype=np.float64))
    norms = np.linalg.norm(lhs, axis=0, keepdims=True)
    zero = norms[0] == 0.0
    return lhs / np.where(norms == 0.0, 1.0, norms), zero


def _ranked(model, instances, table, direction):
    """``(ids, sims)``: the unseen candidates of ``table`` in ascending id
    order, and their cosine similarity (c, m) to each column of
    :func:`_unit_instances`, NaN in the columns of zero instances."""
    unit, zero = instances
    if unit.shape[1] == 0:
        raise DataError("cannot evaluate an empty dataset")
    ids, cand = _candidate_block(table)
    rhs = cand                                # compare W x to prototypes
    if direction == "visual":
        rhs = model.decode(cand)              # compare x to W^T p
        rhs_norm = np.linalg.norm(rhs, axis=0, keepdims=True)
        if np.any(rhs_norm == 0.0):
            raise DataError("a decoded prototype is the zero vector")
        rhs = rhs / rhs_norm
    sims = rhs.T @ unit
    sims[:, zero] = np.nan
    return ids, sims


def _true_ranks(ids, sims, labels):
    """Each instance's class row in ``sims``, its rank (the candidates
    above it, plus tied ones of smaller id) and if its similarity is NaN."""
    missing = sorted(set(labels.tolist()) - set(ids.tolist()))
    if missing:
        raise DataError(f"labels without an unseen prototype: {missing}")
    true_idx = np.searchsorted(ids, labels)
    true = sims[true_idx, np.arange(labels.size)]
    cand = np.arange(ids.size)[:, None]
    rank_of = np.count_nonzero(
        (sims > true) | ((sims == true) & (cand < true_idx)), axis=0)
    return true_idx, rank_of, np.isnan(true)


def predict(model, x, table, direction="semantic"):
    """Rank the unseen classes for one instance.

    Parameters
    ----------
    model : MappingModel
    x : ndarray, shape (d_v,)
    table : PrototypeTable
        Only its unseen classes are candidates.
    direction : {"semantic", "visual"}
        Compare in semantic space (``W x`` vs prototypes, the default)
        or in visual space (``x`` vs decoded prototypes ``W^T p``).

    Returns
    -------
    list of (class id, similarity), best first; exact ties are ordered
    by ascending class id.

    Raises
    ------
    DataError
        If ``model`` does not fit ``x`` and ``table``, or if the mapped
        instance is the zero vector (cosine undefined).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    _check_fits(model, x.size, table)
    _check_direction(direction)
    ids, sims = _ranked(model, _unit_instances(model, x[:, None], direction),
                        table, direction)
    sims = sims[:, 0]
    if np.isnan(sims[0]):
        raise DataError("mapped instance is the zero vector; cannot rank")
    # the stable sort keeps the candidates' id order as the tie-break
    order = np.argsort(-sims, kind="stable")
    return [(int(ids[j]), float(sims[j])) for j in order]


@dataclass(frozen=True)
class EvalReport:
    """Hit@k accuracies plus per-class and hubness diagnostics."""

    hit_at: dict
    per_class_accuracy: dict
    hubness_skewness: float
    instance_count: int
    zero_mapped: int
    timing_ms: float


def evaluate(model, unseen, table, ks=(1, 5), direction="semantic"):
    """Score zero-shot predictions over a dataset of unseen-class instances.

    Parameters
    ----------
    model : MappingModel
    unseen : LabeledDataset
        Instances of unseen classes only; every label must have an
        unseen prototype in ``table``.
    table : PrototypeTable
    ks : iterable of int
        Which Hit@k accuracies to report, at least one; a k at or beyond
        the number of candidates scores every non-degenerate instance as
        a hit.

    Returns
    -------
    EvalReport
        Instances whose mapped feature is the zero vector are counted
        as misses at every k and reported in ``zero_mapped``;
        ``per_class_accuracy`` is Hit@1 per class.

    Raises
    ------
    DataError
        If ``model`` does not fit the features or ``table``.
    """
    tic = time.perf_counter()
    _check_fits(model, unseen.feature_dim, table)
    _check_direction(direction)
    ks = sorted({int(as_number(k, "k", 1, int)) for k in ks})
    if not ks:
        raise ValueError("ks must name at least one k")
    ids, sims = _ranked(model, _unit_instances(model, unseen.features,
                                               direction), table, direction)
    true_idx, rank_of, zero = _true_ranks(ids, sims, unseen.labels)

    hit_at = {k: float(np.mean((rank_of < k) & ~zero)) for k in ks}

    # Hit@1 per class: one division per class, as np.mean would do
    class_hits = np.bincount(true_idx, weights=(rank_of == 0) & ~zero,
                             minlength=ids.size)
    counts = np.bincount(true_idx, minlength=ids.size)
    present = np.flatnonzero(counts)
    per_class = dict(zip(ids[present].tolist(),
                         (class_hits[present] / counts[present]).tolist()))

    first = np.argmax(sims[:, ~zero], axis=0)
    in_degree = np.bincount(first, minlength=ids.size)
    return EvalReport(
        hit_at=hit_at,
        per_class_accuracy=per_class,
        hubness_skewness=skewness(in_degree),
        instance_count=unseen.instance_count,
        zero_mapped=int(np.count_nonzero(zero)),
        timing_ms=(time.perf_counter() - tic) * 1e3,
    )


def sweep_k(seen, unseen, table, hp, k_values, direction="semantic",
            **train_kwargs):
    """Hit@1 as a function of the neighbor count k: ``{k: hit_at_1}``,
    each what ``evaluate`` scores on the table ``train`` returns with that
    k. ``seen`` is what ``train`` takes. ``direction``, every k and the
    feature widths are checked first; ``k_values`` must name at least one
    k, and a k beyond the seen classes raises once the k before it are
    scored.

    One training and one search serve every k. Only the seen prototypes
    reach the weight solves, so the weights, the seen-adjusted prototypes
    and the stopping iteration do not depend on k: the loop runs once,
    with no trace. The seen block its last search read is searched once,
    at the largest k that fits, and the instances are mapped once; each k
    blends its first k ranks onto the seen-adjusted table
    (:func:`zsadjust.adjustment._blend_neighbors`) and scores Hit@1.
    """
    _check_direction(direction)
    hps = [replace(hp, k=k) for k in k_values]
    if not hps:
        raise ValueError("k_values must name at least one k")
    width = (seen.sums if isinstance(seen, ClassStats)
             else seen.features).shape[0]
    if unseen.feature_dim != width:
        raise DataError(f"unseen features are {unseen.feature_dim}-"
                        f"dimensional, seen features {width}-dimensional")
    model, adjusted, _, source = _alternate(
        seen, table, hps[0], trace=False, **train_kwargs)
    blends = source is not None and hp.gamma2 != 0.0
    if blends:
        unseen_cols = np.flatnonzero(~table.seen)
        queries = table.vectors[:, unseen_cols]
        top, sims = _nearest(source, queries,
                             np.linalg.norm(queries, axis=0),
                             min(max(h.k for h in hps), source.shape[1]))
    instances = _unit_instances(model, unseen.features, direction)
    out = {}
    for hp_k in hps:
        scored = (_with_columns(adjusted, unseen_cols, _blend_neighbors(
            queries, source, top, sims, hp_k, table.class_ids, unseen_cols))
                  if blends else adjusted)
        _, rank_of, zero = _true_ranks(
            *_ranked(model, instances, scored, direction), unseen.labels)
        out[int(hp_k.k)] = float(np.mean((rank_of < 1) & ~zero))
    return out
