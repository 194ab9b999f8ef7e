"""The tied-weight encoder-decoder objective and its closed-form solution.

For visual features X (d_v, m), per-instance prototypes P (d_s, m) and
per-instance class centroids O (d_s, m), the training objective in the
encoder weights W (d_s, d_v), with the tied decoder W^T, is

    J(W) = 1/2 ||X^T - P^T W||^2        (cycle reconstruction)
         + alpha/2 ||W X - O||^2        (mapped instances near their centroid)
         + beta/2  ||W X - P||^2        (relaxed exact-mapping constraint)

Its gradient vanishes where

    P P^T W + (alpha + beta) W X X^T - [(1 + beta) P + alpha O] X^T = 0,

which is ``L W + W R + M = 0``, solved in closed form (no descent) by
:mod:`zsadjust.linalg`.

Class statistics. P and O are constant within a class, so every m-sized
product reduces to the class counts n (c,), the class feature sums
S (d_v, c) and the Gram matrix G = X X^T:

    L = P_c diag(n) P_c^T,  R = (alpha + beta) G,
    M = -[(1 + beta) P_c + alpha O_c] S^T,

with one column per class in P_c and O_c. With the class means xbar_c,
J needs no d_v x c array and no within-class scatter: the cycle term is
tr G + sum_c n_c p_c^T (W W^T p_c - 2 W xbar_c), and

    ||W X - O||^2 = tr(W G W^T) + sum_c n_c (||W xbar_c - o_c||^2
                                             - ||W xbar_c||^2),

and the same with p_c for ||W X - P||^2. A LabeledDataset is its own
statistics with each instance a group of count 1 (S = X). So each
function here that takes the data takes a dataset or its
:class:`ClassStats`, the type of the argument is the whole choice, and
P and O hold one column per group.

The rotated solve. Given G = V diag(g) V^T (:attr:`ClassStats.gram_eig`)
and V^T xbar_c (:attr:`ClassStats.rotated_means`), :func:`_solve_rotated`
returns W V: M V costs d_s c d_v, L's eigenpairs come from a c x c
problem when 2c <= d_s, W V maps the means as (W V)(V^T xbar_c), and
tr(W G W^T) = sum_j g_j ||(W V)_:j||^2. An iteration of the training loop
thus costs O(d_s d_v (c + d_s) + d_s^3), with no d_v^2 term and no m;
W = (W V) V^T is one d_s d_v^2 product.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .data import LabeledDataset, _ids, block_width
from .errors import DataError
from .linalg import (
    SylvesterSystem,
    _eig_solve,
    as_matrix,
    as_number,
    as_type,
    sym_eig,
)


@dataclass(frozen=True)
class HyperParams:
    """Weights and budgets for training and prototype adjustment: the
    seen (``lambda1``, ``gamma1``) and unseen (``lambda2``, ``gamma2``, ``k``)
    blends, and the centroid (``alpha``) and constraint (``beta``) terms
    of the objective; ``beta`` > 0, or the solve can become singular."""

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


def _check_fits(model, feature_dim=None, semantic_dim=None):
    """DataError unless ``model`` maps ``feature_dim``-dimensional
    features into ``semantic_dim`` dimensions, each checked when given."""
    if feature_dim is not None and model.visual_dim != feature_dim:
        raise DataError(f"model expects {model.visual_dim}-dimensional "
                        f"features, data has {feature_dim}")
    if semantic_dim is not None and model.semantic_dim != semantic_dim:
        raise DataError(f"model maps into {model.semantic_dim} semantic "
                        f"dimensions, prototypes have {semantic_dim}")


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

    Raises
    ------
    DataError
        If ``labels`` is not a 1-D array of integers, or if a label has
        no prototype in ``table``.
    """
    return table.vectors[:, table._columns_of(_ids(labels, "labels",
                                                   flat=True))]


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

    def __post_init__(self):
        """DataError naming the first fault of the ids, counts and
        shapes; O(c + d_v). G's values are left to its eigh."""
        ids, gram = self.class_ids, self.gram
        if np.ndim(ids) != 1 or np.any(np.diff(ids) <= 0):
            raise DataError("class statistics: class_ids must be 1-D and "
                            "ascending")
        if np.ndim(gram) != 2 or gram.shape[0] != gram.shape[1]:
            raise DataError(f"class statistics: gram has shape "
                            f"{np.shape(gram)}, not (d_v, d_v)")
        for name, want in (("counts", (ids.size,)),
                           ("sums", (gram.shape[0], ids.size))):
            if np.shape(getattr(self, name)) != want:
                raise DataError(
                    f"class statistics: {name} has shape "
                    f"{np.shape(getattr(self, name))}, not {want} for "
                    f"{ids.size} classes and {gram.shape[0]} features")
        bad = ~(np.isfinite(self.counts) & (self.counts > 0))
        if bad.any():
            raise DataError(f"class statistics: the counts of classes "
                            f"{ids[bad].tolist()} are not finite and > 0")

    @cached_property
    def gram_eig(self):
        """``(g, V)`` with G = V diag(g) V^T, g ascending."""
        return sym_eig(self.gram)

    @cached_property
    def rotated_means(self):
        """Group means in the eigenbasis of G, V^T S diag(1/n): (d_v, c)."""
        out = self.gram_eig[1].T @ self.sums
        out /= self.counts
        return out


def _class_sums(x, labels):
    """Ascending class ids, counts and feature sums (d_v, c) of ``labels``:
    in place when each class is one run of columns (as
    :func:`zsadjust.data.split` returns them), else from a sorted copy."""
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    run_ids = labels[starts]
    order = np.argsort(run_ids)
    if np.any(np.diff(run_ids[order]) == 0):
        perm = np.argsort(labels, kind="stable")
        return _class_sums(x[:, perm], labels[perm])
    counts = np.diff(np.r_[starts, labels.size]).astype(np.float64)
    sums = np.add.reduceat(x, starts, axis=1)
    return run_ids[order], counts[order], sums[:, order]


def class_stats(seen):
    """The class statistics n, S and G of a LabeledDataset; a ClassStats
    is returned as it is, and anything else is a TypeError. Raises
    DataError when finite features overflow in G.

    The columns are reduced in views of ``block_width(d_v)`` columns, one
    Gram product per block, added up: the accumulator that ``zsadjust
    train`` feeds from a features file, so the library and the command
    give the same bits at one BLAS thread count. The ClassStats, its
    arrays read-only, is kept with the dataset, and so are the
    :attr:`~ClassStats.gram_eig` and :attr:`~ClassStats.rotated_means`
    that a training caches (2 d_v^2 + 2 d_v c floats): later calls on the
    dataset skip the Gram product and eigh(d_v), with the bits of the
    first call's BLAS thread count.
    """
    as_type(seen, "seen", LabeledDataset, ClassStats)
    if isinstance(seen, ClassStats):
        return seen
    stats = vars(seen).get("_class_stats")
    if stats is None:
        x = seen.features
        width = block_width(x.shape[0])
        blocks = (x[:, s:s + width] for s in range(0, x.shape[1], width))
        stats = _stats_of_blocks(seen.labels, blocks, x.shape[0])
        for a in (stats.counts, stats.sums, stats.gram):   # shared by later calls
            a.flags.writeable = False
        object.__setattr__(seen, "_class_stats", stats)
    return stats


def _stats_of_blocks(labels, blocks, rows):
    """n, S and G of the columns that ``blocks`` yields in order, column
    i of them labeled ``labels[i]``; each block is used only until the
    next one is asked for."""
    ids, counts = np.unique(labels, return_counts=True)
    # column-major, as _class_sums returns its sums: BLAS rounds the
    # products of S by layout, so a dataset of one block keeps its bits
    sums = np.zeros((rows, ids.size), order="F")
    gram = None
    start = 0
    for x in blocks:
        block_ids, _, block_sums = _class_sums(
            x, labels[start:start + x.shape[1]])
        start += x.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            if gram is None:
                gram = x @ x.T
            else:
                gram += x @ x.T
        sums[:, np.searchsorted(ids, block_ids)] += block_sums
    if gram is None:    # no columns
        gram = np.zeros((rows, rows))
    if not np.isfinite(gram).all():
        raise DataError("the feature Gram matrix X X^T overflows; rescale "
                        "the features")
    return ClassStats(ids, counts.astype(np.float64), sums, gram)


def _stats(data):
    """``data`` when it is a ClassStats, else the statistics of the
    LabeledDataset ``data`` with each instance its own group of count 1."""
    if isinstance(data, ClassStats):
        return data
    x = data.features
    m = x.shape[1]
    return ClassStats(np.arange(m), np.ones(m), x, x @ x.T)


def class_mean_map(model, seen):
    """Mean of ``W @ x`` per class of ``seen`` (a LabeledDataset or its
    ClassStats), as ``W @ mean(x)`` from :func:`class_stats`.

    Returns
    -------
    class_ids : ndarray of int, shape (c,)
        Sorted ids of the classes present.
    means : ndarray, shape (d_s, c)
    """
    stats = class_stats(seen)
    _check_fits(model, stats.gram.shape[0])
    return stats.class_ids, model.weights @ (stats.sums / stats.counts)


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
    """Value of the training objective J(W) at the model's weights, for
    ``prototypes`` and ``centroids`` of one column per group of ``data``.
    ``stats``, given with a dataset, must be the :func:`class_stats` it
    keeps; then they hold one column per class."""
    # ``stats`` serves the dataset branch of trainer._alternate
    if stats is None:
        stats = _stats(data)
    elif stats is not class_stats(data):
        raise DataError("class statistics do not match the dataset")
    # shapes only: an F-ordered P from the training loop is not copied
    _check_groups(stats, prototypes, centroids)
    _check_fits(model, stats.gram.shape[0], np.shape(prototypes)[0])
    w = model.weights
    return _objective(stats, w @ w.T, float(np.sum(w * (w @ stats.gram))),
                      (w @ stats.sums) / stats.counts, prototypes,
                      centroids, hp)


def _objective(stats, wwt, spread, mapped, prototypes, centroids, hp):
    """J(W) from the class statistics, W W^T, tr(W G W^T) (``spread``)
    and the mapped class means W xbar_c, summed as the module docstring
    sets out."""
    n = stats.counts
    spread -= float(n @ _sq_cols(mapped))      # tr(W G_w W^T)
    cycle = float(np.trace(stats.gram)) + float(n @ np.einsum(
        "ij,ij->j", prototypes, wwt @ prototypes - 2.0 * mapped))
    centroid = spread + float(n @ _sq_cols(mapped - centroids))
    constraint = spread + float(n @ _sq_cols(mapped - prototypes))
    return 0.5 * (cycle + hp.alpha * centroid + hp.beta * constraint)


def objective_gradient(model, data, prototypes, centroids, hp):
    """Analytic gradient dJ/dW, i.e. L W + W R + M of the normal equation."""
    sys_ = assemble_system(data, prototypes, centroids, hp)
    _check_fits(model, sys_.R.shape[0], sys_.L.shape[0])
    w = model.weights
    return sys_.L @ w + w @ sys_.R + sys_.M


def _check_groups(stats, prototypes, centroids):
    """DataError unless P and O are both (d_s, groups of ``stats``)."""
    p, o = np.shape(prototypes), np.shape(centroids)
    groups = stats.counts.size
    if len(p) != 2 or p[1] != groups or o != p:
        raise DataError(
            f"prototypes and centroids must both be (d_s, {groups}), one "
            f"column per group; got {p} and {o}"
        )


def _columns(stats, prototypes, centroids):
    """P and O as finite C-order matrices of one column per group of
    ``stats``: the check that :func:`solve_weights` and
    :func:`assemble_system` run on their arguments."""
    p = as_matrix(prototypes, "prototypes")
    o = as_matrix(centroids, "centroids")
    _check_groups(stats, p, o)
    return p, o


def _normal_equation(stats, p, o, hp):
    """``B = P diag(sqrt n)`` and ``A = (1 + beta) P + alpha O``, for P
    and O as :func:`_columns` returns them: L = B B^T and M = -A S^T."""
    return p * np.sqrt(stats.counts), (1.0 + hp.beta) * p + hp.alpha * o


def _finite(*parts):
    if not all(np.isfinite(a).all() for a in parts):
        raise DataError("the normal equation overflows; lower the blend "
                        "weights, alpha or beta, or rescale the features")


def assemble_system(data, prototypes, centroids, hp):
    """The normal-equation system L W + W R + M = 0 of the module
    docstring, for P and O of one column per group of ``data``."""
    stats = _stats(data)
    b, a = _normal_equation(stats, *_columns(stats, prototypes, centroids),
                            hp)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        L = b @ b.T
        M = -a @ stats.sums.T
    _finite(L, M)
    return SylvesterSystem(L, (hp.alpha + hp.beta) * stats.gram, M)


def _l_eig(b, thin):
    """Eigenpairs ``(lam, U)`` of L = B B^T, ascending: all d_s, or when
    ``thin`` the c from the QR B = Q K, as L = Q (K K^T) Q^T: eigh(K K^T)
    = (lam, Z) gives U = Q Z, and L's other eigenvalues are 0."""
    q, k = np.linalg.qr(b) if thin else (None, b)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        kkt = k @ k.T
    _finite(kkt)
    lam, z = sym_eig(kkt)
    return lam, (q @ z if thin else z)


def _solve_rotated(stats, p, o, hp, ridge_on_failure):
    """W V of :func:`solve_weights`, the rotated solve of the module
    docstring, for P and O as :func:`_columns` returns them (unchecked).
    Features with no rows leave no pivot: a DataError."""
    if not stats.gram.size:
        raise DataError("the features have no rows")
    b, a = _normal_equation(stats, p, o, hp)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        m_hat = -(a * stats.counts) @ stats.rotated_means.T
    _finite(m_hat)
    return _eig_solve(_l_eig(b, 2 * b.shape[1] <= b.shape[0]),
                      (hp.alpha + hp.beta) * stats.gram_eig[0], m_hat,
                      ridge_on_failure)


def solve_weights(data, prototypes, centroids, hp, ridge_on_failure=False):
    """Minimize J(W) in closed form; returns a MappingModel. P and O as in
    :func:`assemble_system`. Raises SolverError on a singular eigenvalue
    pair unless ``ridge_on_failure`` asks for the ridge retry."""
    stats = _stats(data)
    return MappingModel(_solve_rotated(
        stats, *_columns(stats, prototypes, centroids), hp, ridge_on_failure)
        @ stats.gram_eig[1].T)
