"""The tied-weight encoder-decoder objective and its closed-form solution.

For visual features X (d_v, m), per-instance prototypes P (d_s, m) and
per-instance class centroids O (d_s, m), the training objective in the
encoder weights W (d_s, d_v) is

    J(W) = 1/2 ||X^T - P^T W||^2            (cycle reconstruction, tied
                                             decoder W^T)
         + alpha/2 ||W X - O||^2            (pull mapped instances to
                                             their class centroid)
         + beta/2  ||W X - P||^2            (relaxed exact-mapping
                                             constraint)

Setting the gradient to zero gives a linear matrix equation

    P P^T W + (alpha + beta) W X X^T - [(1 + beta) P + alpha O] X^T = 0

which is ``L W + W R + M = 0``, solved in closed form from the
eigenpairs of L and R (see :mod:`zsadjust.linalg`). No iterative descent
is involved.

Training runs from class statistics. P and O are constant within a
class, so every m-sized product reduces to the class counts n (c,), the
class feature sums S (d_v, c) and the Gram matrix G = X X^T:

    L = P_c diag(n) P_c^T,  R = (alpha + beta) G,
    M = -[(1 + beta) P_c + alpha O_c] S^T,

with one column per class in P_c and O_c. With the class means
Xbar = S diag(1/n) and the within-class scatter G_w = G - S diag(1/n) S^T,
each term of J is a sum of non-negative parts:

    ||X^T - P^T W||^2 = tr G_w        + sum_c n_c ||xbar_c - W^T p_c||^2
    ||W X - O||^2     = tr(W G_w W^T) + sum_c n_c ||W xbar_c - o_c||^2
    ||W X - P||^2     = tr(W G_w W^T) + sum_c n_c ||W xbar_c - p_c||^2

G_w itself is never formed: tr G_w = tr G - sum_c n_c ||xbar_c||^2 and
tr(W G_w W^T) = <W, W G> - sum_c n_c ||W xbar_c||^2.

:func:`class_stats` computes n, S and G once, and
:attr:`ClassStats.gram_eig` the single eigendecomposition
G = V diag(g) V^T that gives R's eigenpairs ((alpha + beta) g, V) in
every solve. :func:`solve_weights` forms only L and M and never R. A
training call thus costs one Gram product and one eigh(d_v); after that
no solve or objective depends on m.

The functions below take the LabeledDataset and optionally its
``class_stats``. With them, P and O hold one column per class; without
them, one column per instance, and the same code runs with each instance
as its own group of count 1 (S = X).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DataError
from .linalg import SylvesterSystem, _eig_solve, as_matrix, as_number, sym_eig


@dataclass(frozen=True)
class HyperParams:
    """Weights and budgets for training and prototype adjustment.

    ``lambda1``/``gamma1`` blend seen prototypes with their mapped class
    means; ``lambda2``/``gamma2`` blend unseen prototypes with their k
    nearest seen prototypes. ``alpha`` weighs the centroid regularizer,
    ``beta`` the relaxed mapping constraint (must stay positive or the
    constraint disappears and the solve can become singular).
    """

    # The blend weights follow the reported grid-search values; alpha and
    # beta were fixed on the synthetic suite and are package defaults, not
    # externally reported numbers. The CLI takes every default from here.
    lambda1: float = 0.75
    gamma1: float = 0.25
    lambda2: float = 0.8
    gamma2: float = 0.2
    alpha: float = 0.5
    beta: float = 1.0
    k: int = 12
    iterations: int = 5
    tol: float = 1e-4

    def __post_init__(self):
        lows = {"k": 1, "beta": float("-inf")}  # beta > 0 is checked below
        for f in fields(self):
            as_number(getattr(self, f.name), f.name, lows.get(f.name, 0),
                      type(f.default))
        if self.beta <= 0:
            raise ValueError("beta must be > 0 (the mapping constraint "
                             "vanishes at 0 and the solve can go singular)")


@dataclass(frozen=True)
class MappingModel:
    """Learned encoder weights W (d_s, d_v); the decoder is W^T."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", as_matrix(self.weights, "weights"))

    @property
    def semantic_dim(self):
        return self.weights.shape[0]

    @property
    def visual_dim(self):
        return self.weights.shape[1]

    def encode(self, x):
        """Map visual features (columns or a single vector) to semantic space."""
        return self.weights @ np.asarray(x, dtype=np.float64)

    def decode(self, s):
        """Map semantic features back to visual space with the tied decoder."""
        return self.weights.T @ np.asarray(s, dtype=np.float64)


def expand_per_instance(table, labels):
    """Prototype matrix with column i the prototype of class ``labels[i]``.

    With instance labels this is the per-instance P (d_s, m); training
    passes the sorted class ids and gets P_c (d_s, c).

    Parameters
    ----------
    table : PrototypeTable
    labels : ndarray of int, shape (m,)

    Returns
    -------
    ndarray, shape (d_s, m)
    """
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(table.class_ids)
    ids = table.class_ids[order]
    pos = np.minimum(np.searchsorted(ids, labels), ids.size - 1)
    found = ids[pos] == labels
    if not found.all():
        missing = np.unique(labels[~found]).tolist()
        raise DataError(f"labels without a prototype: {missing}")
    return table.vectors[:, order[pos]]


@dataclass(frozen=True)
class ClassStats:
    """Sufficient statistics of a labeled feature matrix, by group.

    Attributes
    ----------
    class_ids : ndarray of int, shape (c,)
        Group ids, ascending.
    counts : ndarray, shape (c,)
        Instances per group (n), as floats.
    sums : ndarray, shape (d_v, c)
        Feature sum of each group (S).
    gram : ndarray, shape (d_v, d_v)
        Gram matrix X X^T of all instances (G).
    """

    class_ids: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    gram: np.ndarray

    @cached_property
    def means(self):
        """Group means S diag(1/n), shape (d_v, c)."""
        return self.sums / self.counts

    @cached_property
    def gram_eig(self):
        """``(g, V)`` with G = V diag(g) V^T, g ascending."""
        return sym_eig(self.gram)


def _class_sums(x, labels):
    """Ascending class ids, counts and feature sums (d_v, c) of ``labels``.

    When each class is one contiguous run of columns (as
    :func:`zsadjust.data.split` returns them) the runs are summed in
    place; any other order is summed from one class-sorted copy.
    """
    if labels.size == 0:
        return labels, np.zeros(0), np.zeros((x.shape[0], 0))
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    run_ids = labels[starts]
    order = np.argsort(run_ids)
    if np.any(np.diff(run_ids[order]) == 0):
        perm = np.argsort(labels, kind="stable")
        return _class_sums(x[:, perm], labels[perm])
    counts = np.diff(np.r_[starts, labels.size]).astype(np.float64)
    sums = np.add.reduceat(x, starts, axis=1)
    return run_ids[order], counts[order], sums[:, order]


def class_stats(data):
    """Class-level statistics n, S and G of a LabeledDataset: one Gram
    product, and no within-class scatter G_w (nothing needs it formed).

    Raises DataError when finite features overflow in G.
    """
    x = data.features
    ids, counts, sums = _class_sums(x, data.labels)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        gram = x @ x.T
    if not np.isfinite(gram).all():
        raise DataError("the feature Gram matrix X X^T overflows; rescale "
                        "the features")
    return ClassStats(ids, counts, sums, gram)


def _stats(data, stats):
    """``stats`` checked against ``data``, or by default the statistics
    of ``data`` with each instance its own group of count 1."""
    if stats is None:
        x = data.features
        m = x.shape[1]
        return ClassStats(np.arange(m), np.ones(m), x, x @ x.T)
    if stats.sums.shape[0] != data.feature_dim or \
            stats.counts.sum() != data.instance_count:
        raise DataError("class statistics do not match the dataset")
    return stats


def class_mean_map(model, data, stats=None):
    """Mean of ``W @ x`` per class present in ``data``, computed as
    ``W @ mean(x)`` without encoding each instance.

    ``stats`` is ``class_stats(data)`` when the caller has it.

    Returns
    -------
    class_ids : ndarray of int, shape (c,)
        Sorted ids of the classes present.
    means : ndarray, shape (d_s, c)
    """
    if stats is not None:
        stats = _stats(data, stats)
        return stats.class_ids, model.weights @ stats.means
    ids, counts, sums = _class_sums(data.features, data.labels)
    return ids, model.weights @ (sums / counts)


def class_centroids(model, data):
    """Per-instance centroid matrix O: column i is the mean mapped
    feature of instance i's class.

    Returns
    -------
    ndarray, shape (d_s, m)
    """
    ids, means = class_mean_map(model, data)
    return means[:, np.searchsorted(ids, data.labels)]


def _sq_cols(a):
    return np.einsum("ij,ij->j", a, a)


def objective(model, data, prototypes, centroids, hp, stats=None):
    """Value of the training objective J(W) at the model's weights.

    Without ``stats``, ``prototypes`` and ``centroids`` hold one column
    per instance of ``data``. With ``stats = class_stats(data)`` they
    hold one column per class of ``stats.class_ids``, and nothing is
    computed over the instances.
    """
    stats = _stats(data, stats)
    w = model.weights
    n = stats.counts
    means = stats.means
    mapped = w @ means
    # tr(W G_w W^T) and tr G_w, from G and the class means
    spread = float(np.sum(w * (w @ stats.gram))) - float(n @ _sq_cols(mapped))
    within = float(np.trace(stats.gram)) - float(n @ _sq_cols(means))
    cycle = within + float(n @ _sq_cols(means - w.T @ prototypes))
    centroid = spread + float(n @ _sq_cols(mapped - centroids))
    constraint = spread + float(n @ _sq_cols(mapped - prototypes))
    return 0.5 * (cycle + hp.alpha * centroid + hp.beta * constraint)


def objective_gradient(model, data, prototypes, centroids, hp):
    """Analytic gradient dJ/dW, i.e. L W + W R + M of the normal equation."""
    sys_ = assemble_system(data, prototypes, centroids, hp)
    w = model.weights
    return sys_.L @ w + w @ sys_.R + sys_.M


def _normal_equation(stats, prototypes, centroids, hp):
    """L = P diag(n) P^T and M = -[(1 + beta) P + alpha O] S^T, with one
    column per group of ``stats`` in P and O; DataError where they
    overflow."""
    p = as_matrix(prototypes, "prototypes")
    o = as_matrix(centroids, "centroids")
    groups = stats.counts.size
    if p.shape[1] != groups or o.shape != p.shape:
        raise DataError(
            f"prototypes and centroids must both be (d_s, {groups}), one "
            f"column per group; got {p.shape} and {o.shape}"
        )
    b = p * np.sqrt(stats.counts)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        L = b @ b.T
        M = -((1.0 + hp.beta) * p + hp.alpha * o) @ stats.sums.T
    if not (np.isfinite(L).all() and np.isfinite(M).all()):
        raise DataError("the normal equation overflows; lower the blend "
                        "weights, alpha or beta, or rescale the features")
    return L, M


def assemble_system(data, prototypes, centroids, hp, stats=None):
    """Build the normal-equation system L W + W R + M = 0.

    L = P diag(n) P^T, R = (alpha + beta) G,
    M = -[(1 + beta) P + alpha O] S^T, with ``stats`` as in
    :func:`objective` (n = 1 and S = X per instance without it).
    """
    stats = _stats(data, stats)
    L, M = _normal_equation(stats, prototypes, centroids, hp)
    return SylvesterSystem(L, (hp.alpha + hp.beta) * stats.gram, M)


def solve_weights(data, prototypes, centroids, hp, ridge_on_failure=False,
                  stats=None):
    """Minimize J(W) in closed form; returns a MappingModel.

    ``stats`` as in :func:`objective`. Only L and M are formed: R's
    eigenpairs ((alpha + beta) g, V) come from the one eigendecomposition
    of G. Propagates SolverError from a singular eigenvalue pair unless
    ``ridge_on_failure`` requests the explicit ridge retry.
    """
    stats = _stats(data, stats)
    L, M = _normal_equation(stats, prototypes, centroids, hp)
    g, v = stats.gram_eig
    return MappingModel(_eig_solve(sym_eig(L), ((hp.alpha + hp.beta) * g, v),
                                   M, ridge_on_failure))
