"""Zero-shot prediction, Hit@k scoring, and hubness diagnostics.

A test instance x is mapped to ``W @ x`` and the unseen classes of a
PrototypeTable are ranked by cosine similarity, ties toward the smaller
class id. Both directions score the one product ``p . (W x)`` of a
prototype p and the mapped instance, and differ only in two norms::

    semantic (default):  p . (W x) / (|p| |W x|)      = cos(W x, p)
    visual:              p . (W x) / (|W^T p| |x|)    = cos(x, W^T p)

so no ranking works in feature space. The candidates are ranked as one
block of prototypes in class id order: the unseen side of the table or,
in :func:`sweep_k`, each k's blend of it. Hit@k is the fraction of
instances whose true class is in the top k. The hubness diagnostic,
reported and never gated, is the sample skewness of the 1-NN in-degree
over the candidate prototypes.

Both break exact ties toward the smaller class id, on the block's rows
(:func:`_true_ranks`, :func:`_first_max`): an instance's rank counts the
candidates more similar than its class and the equally similar ones of
smaller id, and its 1-NN is its first maximum, the smallest id among the
most similar. ``-0.0`` and ``0.0`` compare equal. A zero instance's
similarities are NaN: it is a miss at every k and has no 1-NN.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .adjustment import _blend_neighbors, _nearest, _side
from .data import LabeledDataset, PrototypeTable, _rows
from .errors import DataError
from .linalg import as_matrix, as_number, as_type
from .mapping import ClassStats, MappingModel, _check_fits, _sq_cols
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


def _check_direction(direction):
    if direction not in ("semantic", "visual"):
        raise ValueError("direction must be 'semantic' or 'visual'")


def _each(values, name):
    """An iterator over ``values``; one that is not iterable (a single k
    where a list of them is due, say) is a TypeError naming ``name``."""
    try:
        return iter(values)
    except TypeError:
        raise TypeError(f"{name} must be an iterable of integers, got "
                        f"{type(values).__name__}") from None


def _unit_instances(model, features, direction):
    """The instance columns mapped, ``W x``, each divided by the norm its
    cosine takes (``|W x|``, or ``|x|`` for "visual"), and the mask of the
    zero ones (left at 0). Both directions take column norms with
    :func:`zsadjust.mapping._sq_cols`, and the fresh encoding is scaled in
    place: it is the only d_s x m array. No instance is a DataError."""
    if features.shape[1] == 0:
        raise DataError("cannot evaluate an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mapped = model.encode(features)
        norms = np.sqrt(_sq_cols(mapped if direction == "semantic"
                                 else features))
    if not (np.isfinite(norms).all() and (direction == "semantic"
                                          or np.isfinite(mapped).all())):
        raise DataError("cannot rank an instance whose norm overflows; "
                        "rescale the features or the model")
    zero = norms == 0.0
    mapped /= np.where(zero, 1.0, norms)
    return mapped, zero


def _candidates(table):
    """The ascending ids and the prototypes (d_s, c) of the unseen classes
    of ``table``; none is a DataError."""
    ids, _, vecs = _side(table, False)
    if ids.size == 0:
        raise DataError("prototype table has no unseen classes")
    return ids, vecs


def _ranked(model, instances, ids, vecs, direction):
    """The cosine similarity (c, m) of the candidates ``vecs``, the
    classes ``ids``, to each column of :func:`_unit_instances`, NaN in the
    columns of zero instances. A candidate p is divided by ``|p|``, or
    ``|W^T p|`` for "visual", where a model near the float range can
    overflow a similarity: that is a DataError naming the classes."""
    unit, zero = instances
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        scale = np.linalg.norm(vecs if direction == "semantic"
                               else model.decode(vecs), axis=0)
    if np.any(scale == 0.0):
        raise DataError("a decoded prototype is the zero vector")
    if not np.isfinite(scale).all():
        raise DataError(f"cannot rank unseen classes "
                        f"{ids[~np.isfinite(scale)].tolist()}: their "
                        f"prototype norms overflow; rescale the prototypes")
    if direction == "semantic":     # unit columns: no cosine overflows
        sims = (vecs / scale).T @ unit
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            sims = (vecs / scale).T @ unit
        bad = ~np.isfinite(sims).all(axis=1)
        if bad.any():
            raise DataError(f"cannot rank unseen classes {ids[bad].tolist()}:"
                            f" their visual similarities overflow; rescale "
                            f"the model")
    sims[:, zero] = np.nan
    return sims


_NO_CANDIDATE = "labels without an unseen prototype:"


def _true_ranks(sims, rows):
    """Each instance's rank, the candidates above its class's row ``rows``
    in ``sims`` plus tied ones of smaller id, and if its similarity is
    NaN. Each column equals its own similarity once unless that is NaN
    (equal to nothing), so the ties are counted only where the block
    holds more equal values than the columns of a non-NaN one."""
    true = sims[rows, np.arange(rows.size)]
    nan = np.isnan(true)
    # int32 column sums take half the time of count_nonzero's intp ones
    rank_of = (sims > true).sum(axis=0, dtype=np.int32)
    tied = sims == true
    if np.count_nonzero(tied) > rows.size - np.count_nonzero(nan):
        cand = np.arange(sims.shape[0])[:, None]
        rank_of += (tied & (cand < rows)).sum(axis=0, dtype=np.int32)
    return rank_of, nan


def _first_max(sims):
    """``np.argmax(sims, axis=0)``, the first maximum of each column (the
    smallest candidate row), without the transposed copy that reduction
    makes: the row-wise max, then the argmax of a one-byte mask. A
    column holding a NaN, whose first NaN is its argmax, is redone
    alone."""
    top = sims.max(axis=0)
    first = np.argmax(sims == top, axis=0)
    odd = np.isnan(top)
    if odd.any():
        first[odd] = np.argmax(sims[:, odd], axis=0)
    return first


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
    ValueError
        If ``x`` is not 1-D or has a non-finite entry (named by its row).
    DataError
        If ``model`` does not fit ``x`` and ``table``, if the mapped
        instance is the zero vector (cosine undefined), if its norm or an
        unseen prototype's (decoded, for "visual") overflows, or if a
        visual similarity does.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"x must be 1-D, got shape {x.shape}")
    _check_fits(model, x.size, table.semantic_dim)
    _check_direction(direction)
    instances = _unit_instances(model, as_matrix(x[:, None], "x"), direction)
    ids, vecs = _candidates(table)
    sims = _ranked(model, instances, ids, vecs, direction)[:, 0]
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
    TypeError
        If ``model``, ``unseen`` or ``table`` is not of its type, or if
        ``ks`` is not iterable.
    DataError
        If ``model`` does not fit the features or ``table``, or if the
        norm of a compared instance or of an unseen prototype (decoded,
        for "visual") overflows, or a visual similarity does.
    """
    tic = time.perf_counter()
    as_type(model, "model", MappingModel)
    as_type(unseen, "unseen", LabeledDataset)
    as_type(table, "table", PrototypeTable)
    _check_fits(model, unseen.feature_dim, table.semantic_dim)
    _check_direction(direction)
    ks = sorted({int(as_number(k, "k", 1, int)) for k in _each(ks, "ks")})
    if not ks:
        raise ValueError("ks must name at least one k")
    instances = _unit_instances(model, unseen.features, direction)
    ids, vecs = _candidates(table)
    sims = _ranked(model, instances, ids, vecs, direction)
    del instances, vecs     # not to be held beside the rank temporaries
    true_idx = _rows(ids, unseen.labels, _NO_CANDIDATE)
    rank_of, zero = _true_ranks(sims, true_idx)

    hit_at = {k: float(np.mean((rank_of < k) & ~zero)) for k in ks}

    # Hit@1 per class: one division per class, as np.mean would do
    class_hits = np.bincount(true_idx, weights=(rank_of == 0) & ~zero,
                             minlength=ids.size)
    counts = np.bincount(true_idx, minlength=ids.size)
    present = np.flatnonzero(counts)
    per_class = dict(zip(ids[present].tolist(),
                         (class_hits[present] / counts[present]).tolist()))

    # a zero instance's column is all NaN: drop its argmax, not the column
    first = _first_max(sims)[~zero]
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
    feature widths are checked first; ``k_values``, an iterable, must name
    at least one k, and a k beyond the seen classes raises once the k
    before it are scored.

    One training and one search serve every k. Only the seen prototypes
    reach the weight solves, so the weights, the seen-adjusted prototypes
    and the stopping iteration do not depend on k: the loop runs once,
    with no trace. The instances are mapped and checked once, as are the
    unseen classes and the labels, so these faults come before any k's.
    The unseen block is searched once among the seen block that the
    loop's last search read, at the largest k that fits. Each k blends its
    first k ranks (:func:`zsadjust.adjustment._blend_neighbors`), and that
    blend is ranked as a block and scored for Hit@1.
    """
    as_type(seen, "seen", LabeledDataset, ClassStats)
    as_type(unseen, "unseen", LabeledDataset)
    _check_direction(direction)
    ks = [as_number(k, "k", 1, int) for k in _each(k_values, "k_values")]
    if not ks:
        raise ValueError("k_values must name at least one k")
    width = (seen.sums if isinstance(seen, ClassStats)
             else seen.features).shape[0]
    if unseen.feature_dim != width:
        raise DataError(f"unseen features are {unseen.feature_dim}-"
                        f"dimensional, seen features {width}-dimensional")
    model, _, _, source = _alternate(seen, table, hp, trace=False,
                                     **train_kwargs)
    instances = _unit_instances(model, unseen.features, direction)
    ids, queries = _candidates(table)
    rows = _rows(ids, unseen.labels, _NO_CANDIDATE)
    blends = source is not None and hp.gamma2 != 0.0
    if blends:
        top, sims = _nearest(source, queries, min(max(ks), source.shape[1]))
    out = {}
    for k in ks:
        block = (_blend_neighbors(queries, source, top, sims,
                                  replace(hp, k=k), ids)
                 if blends else queries)
        rank_of, zero = _true_ranks(
            _ranked(model, instances, ids, block, direction), rows)
        out[int(k)] = float(np.mean((rank_of < 1) & ~zero))
    return out
