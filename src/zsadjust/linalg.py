"""Dense real-matrix operations and the closed-form mapping-equation solver.

Objective assembly and training are built on the operations here:
finite-matrix coercion, the symmetry check, symmetric
eigendecomposition, and the solver for

    L W + W R + M = 0

with symmetric positive semi-definite L and R. Because L and R are PSD by
construction (Gram matrices of prototypes and features), the equation is
solved by eigendecomposing both sides instead of a general Schur-based
method: with L = U diag(lam) U^T and R = V diag(sig) V^T,

    W = U Wt V^T,   Wt[i, j] = -(U^T M V)[i, j] / (lam[i] + sig[j]).

All matrices are dense, row-major, double precision. Operations are pure
functions of their inputs and hold no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

# Relative Frobenius tolerance for "symmetric enough" checks.
SYMMETRY_RTOL = 1e-10

# Smallest admissible eigenvalue-pair sum lam_i + sig_j in the solver,
# relative to the problem scale max|lam| + max|sig|.
DEFAULT_PIVOT_FLOOR = 1e-13


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a finite 2-D float64 array (C order).

    Raises ValueError on wrong rank or non-finite entries.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(
            f"{name} contains a non-finite entry at row {bad[0]}, col {bad[1]}"
        )
    return out


def is_symmetric(a, rtol=SYMMETRY_RTOL):
    """True if ``a`` is square and symmetric within ``rtol`` relative to
    its Frobenius norm (exactly symmetric zero matrices pass)."""
    if a.shape[0] != a.shape[1]:
        return False
    scale = np.linalg.norm(a, "fro")
    return float(np.linalg.norm(a - a.T, "fro")) <= rtol * max(scale, 1e-300)


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
    """The equation ``L W + W R + M = 0`` with symmetric PSD L and R.

    ``L`` is (p, p), ``R`` is (q, q) and ``M`` is (p, q); the solution W
    is (p, q). Symmetry of L and R is validated at construction; positive
    semi-definiteness is the caller's responsibility and is effectively
    enforced by the solver's pivot floor.
    """

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


def solve_sylvester(system, pivot_floor=DEFAULT_PIVOT_FLOOR,
                    ridge_on_failure=False, r_eig=None):
    """Solve ``L W + W R + M = 0`` for symmetric PSD ``L`` and ``R``.

    Parameters
    ----------
    system : SylvesterSystem
    pivot_floor : float
        Every eigenvalue-pair sum ``lam_i + sig_j`` must exceed
        ``pivot_floor * (max|lam| + max|sig|)``; smaller pairs signal an
        ill-posed objective (for example a rank-deficient system with no
        constraint weight). The floor is relative, so rescaling L and R
        together does not change the decision.
    ridge_on_failure : bool
        If True and a singular pair is found, retry once with
        ``L + eps*I`` where ``eps = 1e-8 * trace(L) / p``. This is an
        explicit opt-in, never silent.
    r_eig : (ndarray, ndarray), optional
        Eigenvalues (ascending) and orthonormal eigenvectors of ``R``,
        for a caller that solves several systems sharing one ``R`` up to
        scale. Computed here when omitted.

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
    lam, u = sym_eig(system.L)
    q = system.R.shape[0]
    if r_eig is None:
        r_eig = sym_eig(system.R)
    sig, v = r_eig
    if sig.shape != (q,) or v.shape != (q, q):
        raise ValueError(f"r_eig must hold {q} eigenpairs of the {q}x{q} R")
    pair_min = lam[0] + sig[0]
    floor = pivot_floor * (np.abs(lam).max() + np.abs(sig).max())
    if not pair_min > floor:
        if ridge_on_failure:
            p = system.L.shape[0]
            eps = 1e-8 * float(np.trace(system.L)) / p
            ridged = SylvesterSystem(
                system.L + eps * np.eye(p), system.R, system.M
            )
            return solve_sylvester(ridged, pivot_floor, ridge_on_failure=False,
                                   r_eig=r_eig)
        raise SolverError(
            f"singular eigenvalue pair: min(lam_i + sig_j) = {pair_min:.3e} "
            f"<= pivot floor {floor:.3e} ({pivot_floor:.0e} relative to "
            f"max|lam| + max|sig|); the objective is ill-posed "
            f"(rank-deficient data or vanishing constraint weight). "
            f"Retry with ridge_on_failure=True to regularize L."
        )
    mt = u.T @ system.M @ v
    wt = -mt / np.add.outer(lam, sig)
    return u @ wt @ v.T
