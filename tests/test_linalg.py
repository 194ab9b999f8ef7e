import tracemalloc

import numpy as np
import pytest

from zsadjust.errors import SolverError
from zsadjust.linalg import (
    SylvesterSystem,
    _eig_solve,
    as_matrix,
    is_symmetric,
    solve_sylvester,
    sym_eig,
)

from oracles import kron_solve, random_psd


def test_as_matrix_rejects_nonfinite_with_location():
    bad = np.array([[1.0, 2.0], [3.0, np.nan]])
    with pytest.raises(ValueError, match="non-finite entry at row 1, col 1"):
        as_matrix(bad, "a")


def test_sym_eig_diagonal():
    w, v = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    # axis-aligned eigenvectors up to sign: e2 pairs with 1, e1 with 3
    assert np.allclose(np.abs(v), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_sym_eig_hand_checked():
    # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 = 0
    w, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0])


def test_sym_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    a = a + a.T
    w, v = sym_eig(a)
    scale = np.linalg.norm(a, "fro")
    assert np.linalg.norm(a @ v - v @ np.diag(w), "fro") <= 1e-9 * scale
    assert np.linalg.norm(v.T @ v - np.eye(6), "fro") <= 1e-9
    assert np.linalg.norm(v @ np.diag(w) @ v.T - a, "fro") <= 1e-9 * scale
    assert np.all(np.diff(w) >= 0)


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sylvester_identity_pair():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((2, 2))
    w = solve_sylvester(SylvesterSystem(np.eye(2), np.eye(2), m))
    assert np.allclose(w, -m / 2.0, atol=1e-14)


def test_sylvester_zero_left_side():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4))
    w = solve_sylvester(SylvesterSystem(np.zeros((3, 3)), np.eye(4), -a))
    assert np.allclose(w, a, atol=1e-12)


def test_sylvester_matches_kron_oracle():
    rng = np.random.default_rng(12)
    L = random_psd(rng, 3)
    R = random_psd(rng, 4)
    M = rng.standard_normal((3, 4))
    w = solve_sylvester(SylvesterSystem(L, R, M))
    assert np.allclose(w, kron_solve(L, R, M), atol=1e-8)


def test_sylvester_singular_pair_raises():
    L = np.zeros((2, 2))
    R = np.diag([0.0, 1.0])
    M = np.ones((2, 2))
    with pytest.raises(SolverError, match="singular eigenvalue pair"):
        solve_sylvester(SylvesterSystem(L, R, M))


def test_symmetry_of_a_matrix_whose_norm_overflows():
    # finite entries whose Frobenius norm overflows are compared at unit
    # scale, with no overflow warning
    a = np.array([[1e200, 3e200], [3e200, 2e200]])
    assert is_symmetric(a)
    a[0, 1] *= 1.5
    assert not is_symmetric(a)


def test_sylvester_ridge_retry():
    # L singular with positive trace, R = 0: only the ridge makes the
    # operator invertible. The retried solve satisfies the ridged system.
    L = np.diag([2.0, 0.0])
    R = np.zeros((3, 3))
    M = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    sys_ = SylvesterSystem(L, R, M)
    with pytest.raises(SolverError):
        solve_sylvester(sys_)
    w = solve_sylvester(sys_, ridge_on_failure=True)
    eps = 1e-8 * np.trace(L) / 2
    ridged = SylvesterSystem(L + eps * np.eye(2), R, M)
    assert ridged.residual(w) <= 1e-10 * max(1.0, np.linalg.norm(w))


def test_sylvester_residual_bound_property():
    # contract: ||L W + W R + M||_F <= 1e-8 (||L|| ||W|| + ||W|| ||R|| + ||M||)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 11))
        q = int(rng.integers(1, 11))
        L = random_psd(rng, p)
        R = random_psd(rng, q) + 1e-3 * np.eye(q)  # keep pair sums valid
        M = rng.standard_normal((p, q))
        sys_ = SylvesterSystem(L, R, M)
        w = solve_sylvester(sys_)
        wn = np.linalg.norm(w, "fro")
        bound = 1e-8 * (
            np.linalg.norm(L, "fro") * wn
            + wn * np.linalg.norm(R, "fro")
            + np.linalg.norm(M, "fro")
        )
        assert sys_.residual(w) <= bound


def test_sylvester_kron_agreement_property():
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        L = random_psd(rng, p) + 1e-2 * np.eye(p)
        R = random_psd(rng, q)
        M = rng.standard_normal((p, q))
        w = solve_sylvester(SylvesterSystem(L, R, M))
        assert np.allclose(w, kron_solve(L, R, M), atol=1e-8)


def test_sylvester_system_rejects_nonsymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        SylvesterSystem(bad, np.eye(2), np.eye(2))


def test_sylvester_system_rejects_nonconforming():
    with pytest.raises(ValueError, match="conform"):
        SylvesterSystem(np.eye(2), np.eye(3), np.eye(2))


def test_solve_is_deterministic():
    rng = np.random.default_rng(42)
    L = random_psd(rng, 5)
    R = random_psd(rng, 6)
    M = rng.standard_normal((5, 6))
    sys_ = SylvesterSystem(L, R, M)
    assert np.array_equal(solve_sylvester(sys_), solve_sylvester(sys_))


def test_thin_solve_holds_one_scratch_array():
    # a thin U (r < p) adds L's null-space term in one p x q scratch
    # array: the peak is the result, that array and the r x q products
    rng = np.random.default_rng(0)
    p, q, r = 85, 1024, 20
    u = np.linalg.qr(rng.standard_normal((p, r)))[0]
    lam = np.sort(rng.uniform(1.0, 2.0, r))
    sig = np.sort(rng.uniform(1.0, 2.0, q))
    m_hat = rng.standard_normal((p, q))
    tracemalloc.start()
    try:
        w_hat = _eig_solve((lam, u), sig, m_hat, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * w_hat.nbytes
    # the same solve through full eigenpairs of L (its other ones 0)
    full = np.linalg.qr(np.hstack([u, rng.standard_normal((p, p - r))]))[0]
    lam_full = np.r_[lam, np.zeros(p - r)]
    want = _eig_solve((lam_full, np.hstack([u, full[:, r:]])), sig, m_hat,
                      False)
    assert np.abs(w_hat - want).max() <= 1e-12 * np.abs(want).max()
