"""Dense real-matrix operations and the closed-form mapping-equation solver.

Besides finite-matrix coercion, the check of every scalar parameter and
symmetric eigendecomposition, this module solves L W + W R + M = 0 for
symmetric positive semi-definite L and R (Gram matrices of prototypes
and features) by eigendecomposing both sides, not by a general
Schur-based method: with L = U diag(lam) U^T and R = V diag(sig) V^T,

    W = U Wt V^T,   Wt[i, j] = -(U^T M V)[i, j] / (lam[i] + sig[j]).

That closed form is written once, in :func:`_eig_solve`, in R's
eigenbasis: from L's eigenpairs (or r of them, the others being 0), R's
eigenvalues and M V it returns W V = U Wt. Training takes R's eigenpairs
from its one eigendecomposition of the Gram matrix;
:func:`solve_sylvester` forms M V and W = (W V) V^T itself.

The pivot floor: every pair sum lam_i + sig_j must exceed
``PIVOT_FLOOR * (max|lam| + max|sig|)``. A smaller pair signals an
ill-posed objective (say, rank-deficient data with no constraint
weight) and is a SolverError, unless the caller opts into one retry
with the ridge L + eps I, eps = 1e-8 trace(L) / p. The floor is
relative, so rescaling L and R together does not change the decision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

# Relative Frobenius tolerance for "symmetric enough" checks.
SYMMETRY_RTOL = 1e-10

# The solver's pivot floor, relative to max|lam| + max|sig|.
PIVOT_FLOOR = 1e-13


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a finite 2-D float64 array (C order).

    Raises ValueError on wrong rank or non-finite entries.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    # scanned a band of rows (about 2**18 entries) at a time, so that no
    # mask the size of a large matrix is made
    step = max(1, 2**18 // max(1, out.shape[1]))
    for top in range(0, out.shape[0], step):
        finite = np.isfinite(out[top:top + step])
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(f"{name} contains a non-finite entry at "
                             f"row {top + row}, col {col}")
    return out


def as_number(value, name, low=0, kind=float, error=ValueError):
    """``value`` if it is an integer (``kind`` int) or a finite real
    (``kind`` float), not a bool, and at least ``low``; else ``error``
    naming the parameter ``name``."""
    integer = kind is int
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        what = "an integer" if integer else "a real number"
        raise error(f"{name} must be {what}, got {value!r}")
    if not (isinstance(value, numbers.Integral) or math.isfinite(value)):
        raise error(f"{name} must be finite")
    if value < low:
        bound = "a positive integer" if integer and low == 1 else f">= {low}"
        raise error(f"{name} must be {bound}")
    return value


def is_symmetric(a):
    """True if ``a`` is square and symmetric within ``SYMMETRY_RTOL``
    relative to its Frobenius norm (exactly symmetric zero matrices
    pass)."""
    if a.shape[0] != a.shape[1]:
        return False
    scale = np.linalg.norm(a, "fro")
    return float(np.linalg.norm(a - a.T, "fro")) <= SYMMETRY_RTOL * max(
        scale, 1e-300)


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    a : ndarray, shape (n, n)
        Symmetric within ``SYMMETRY_RTOL`` (relative Frobenius).

    Returns
    -------
    eigenvalues : ndarray, shape (n,)
        In ascending order.
    eigenvectors : ndarray, shape (n, n)
        Orthonormal columns; ``a @ V == V @ diag(w)`` up to roundoff.

    Raises
    ------
    ValueError
        If ``a`` is not square-symmetric within tolerance.
    SolverError
        If the backend iteration fails to converge.
    """
    a = as_matrix(a, "a")
    if not is_symmetric(a):
        raise ValueError("sym_eig requires a symmetric matrix")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise SolverError(
            f"symmetric eigendecomposition did not converge within the "
            f"backend iteration cap for a {a.shape[0]}x{a.shape[0]} matrix"
        ) from exc
    return w, v


@dataclass(frozen=True)
class SylvesterSystem:
    """The equation ``L W + W R + M = 0`` with symmetric PSD L (p, p) and
    R (q, q), and M and W (p, q). Symmetry is checked here; positive
    semi-definiteness is the caller's, and the pivot floor enforces it."""

    L: np.ndarray
    R: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        L = as_matrix(self.L, "L")
        R = as_matrix(self.R, "R")
        M = as_matrix(self.M, "M")
        if not is_symmetric(L):
            raise ValueError("L must be square and symmetric within tolerance")
        if not is_symmetric(R):
            raise ValueError("R must be square and symmetric within tolerance")
        if M.shape != (L.shape[0], R.shape[0]):
            raise ValueError(
                f"M must be {L.shape[0]}x{R.shape[0]} to conform with L and R, "
                f"got {M.shape[0]}x{M.shape[1]}"
            )
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "M", M)

    def residual(self, w):
        """Frobenius norm of ``L W + W R + M`` at a candidate solution."""
        return float(np.linalg.norm(self.L @ w + w @ self.R + self.M, "fro"))


def _eig_solve(l_eig, sig, m_hat, ridge_on_failure, null=0.0):
    """W V = U Wt from the eigenpairs ``(lam, U)`` of L and the eigenvalues
    ``sig`` of R, ascending, and ``m_hat = M V``. A thin U (p x r) leaves
    L's other eigenvalues at ``null``, which add (I - U U^T) M V ./
    -(null + sig_j); the ridge shifts lam and ``null`` by eps."""
    lam, u = l_eig
    thin = u.shape[1] < u.shape[0]
    pair_min = (min(lam[0], null) if thin else lam[0]) + sig[0]
    floor = PIVOT_FLOOR * (np.abs(lam).max() + np.abs(sig).max())
    if not pair_min > floor:
        if ridge_on_failure:
            eps = 1e-8 * float(lam.sum()) / u.shape[0]
            return _eig_solve((lam + eps, u), sig, m_hat, False, null + eps)
        raise SolverError(
            f"singular eigenvalue pair: min(lam_i + sig_j) = {pair_min:.3e} "
            f"<= pivot floor {floor:.3e} ({PIVOT_FLOOR:.0e} relative to "
            f"max|lam| + max|sig|); the objective is ill-posed "
            f"(rank-deficient data or vanishing constraint weight). "
            f"Retry with ridge_on_failure=True to regularize L."
        )
    proj = u.T @ m_hat
    w_hat = u @ (proj / np.add.outer(lam, sig))
    if thin:    # the complement's term, in one p x q scratch array
        rest = u @ proj
        w_hat += np.divide(np.subtract(m_hat, rest, out=rest), null + sig,
                           out=rest)
    return np.negative(w_hat, out=w_hat)


def solve_sylvester(system, ridge_on_failure=False):
    """Solve ``L W + W R + M = 0`` for symmetric PSD ``L`` and ``R``.

    Parameters
    ----------
    system : SylvesterSystem
    ridge_on_failure : bool
        If True and a pair falls below the pivot floor (see the module
        docstring), retry once with the ridge: an explicit opt-in,
        never silent.

    Returns
    -------
    ndarray, shape (p, q)
        W with ``||L W + W R + M||_F`` bounded by roundoff relative to
        the problem scale.

    Raises
    ------
    SolverError
        On a singular eigenvalue pair (after the optional ridge retry).
    """
    sig, v = sym_eig(system.R)
    return _eig_solve(sym_eig(system.L), sig, system.M @ v,
                      ridge_on_failure) @ v.T
