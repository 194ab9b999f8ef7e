import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsadjust.data import LabeledDataset, PrototypeTable, SynthSpec, split, synthesize
from zsadjust.errors import DataError, SolverError
from zsadjust.linalg import _eig_solve
from zsadjust.mapping import (
    HyperParams,
    MappingModel,
    _l_eig,
    assemble_system,
    class_centroids,
    class_mean_map,
    class_stats,
    expand_per_instance,
    objective,
    objective_gradient,
    solve_weights,
)

from oracles import kron_solve


def _random_instance(seed, d_v=6, d_s=4, m=12, n_classes=3):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((d_v, m))
    labels = rng.integers(0, n_classes, size=m)
    labels[:n_classes] = np.arange(n_classes)  # every class populated
    data = LabeledDataset(feats, labels, n_classes)
    protos = rng.standard_normal((d_s, n_classes))
    table = PrototypeTable(np.arange(n_classes), protos,
                           np.ones(n_classes, dtype=bool))
    p = expand_per_instance(table, data.labels)
    o = rng.standard_normal((d_s, m))
    w = rng.standard_normal((d_s, d_v))
    return data, table, p, o, MappingModel(w)


def _objective_loops(w, x, p, o, alpha, beta):
    """Direct elementwise evaluation of the objective, no matrix algebra."""
    d_v, m = x.shape
    d_s = w.shape[0]
    total = 0.0
    for i in range(d_v):
        for j in range(m):
            recon = x[i, j] - sum(w[k, i] * p[k, j] for k in range(d_s))
            total += 0.5 * recon ** 2
    for i in range(d_s):
        for j in range(m):
            wx = sum(w[i, k] * x[k, j] for k in range(d_v))
            total += 0.5 * alpha * (wx - o[i, j]) ** 2
            total += 0.5 * beta * (wx - p[i, j]) ** 2
    return total


def test_expand_single_class():
    table = PrototypeTable(np.array([0]), np.array([[1.0], [2.0]]),
                           np.array([True]))
    out = expand_per_instance(table, np.array([0, 0, 0]))
    assert np.array_equal(out, np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))


def test_expand_orders_by_label():
    table = PrototypeTable(np.array([0, 1]),
                           np.array([[1.0, 3.0], [2.0, 4.0]]),
                           np.array([True, True]))
    out = expand_per_instance(table, np.array([0, 1, 0]))
    assert np.array_equal(out, np.array([[1.0, 3.0, 1.0], [2.0, 4.0, 2.0]]))


def test_expand_matches_direct_indexing():
    rng = np.random.default_rng(8)
    ids = np.array([2, 5, 9])
    table = PrototypeTable(ids, rng.standard_normal((4, 3)),
                           np.ones(3, dtype=bool))
    labels = np.array([9, 2, 2, 5, 9])
    out = expand_per_instance(table, labels)
    for i, lab in enumerate(labels):
        assert np.array_equal(out[:, i],
                              table.vectors[:, table.column_of(lab)])


def test_expand_missing_class():
    table = PrototypeTable(np.array([0]), np.ones((2, 1)), np.array([True]))
    with pytest.raises(DataError, match="without a prototype"):
        expand_per_instance(table, np.array([0, 3]))


def test_expand_names_every_missing_class_once():
    table = PrototypeTable(np.array([7, 3]), np.eye(2), np.ones(2, bool))
    with pytest.raises(DataError, match=r"prototype: \[1, 5, 9\]"):
        expand_per_instance(table, np.array([9, 3, 1, 7, 5, 9, 1]))


def test_centroids_single_instance_classes():
    data = LabeledDataset(np.arange(6.0).reshape(2, 3),
                          np.array([0, 1, 2]), 3)
    model = MappingModel(np.array([[1.0, 0.0], [0.0, 2.0]]))
    out = class_centroids(model, data)
    assert np.allclose(out, model.encode(data.features))


def test_centroids_identical_instances():
    x = np.array([[1.0, 1.0], [2.0, 2.0]])
    data = LabeledDataset(x, np.array([0, 0]), 1)
    model = MappingModel(np.array([[0.5, 0.5]]))
    out = class_centroids(model, data)
    assert np.allclose(out, model.encode(x))


def test_centroids_match_grouped_mean_oracle():
    rng = np.random.default_rng(17)
    data = LabeledDataset(rng.standard_normal((5, 9)),
                          np.array([0, 1, 2, 0, 1, 2, 0, 1, 2]), 3)
    model = MappingModel(rng.standard_normal((3, 5)))
    out = class_centroids(model, data)
    mapped = model.encode(data.features)
    for i in range(9):
        members = data.labels == data.labels[i]
        assert np.allclose(out[:, i], mapped[:, members].mean(axis=1),
                           atol=1e-12)


def test_class_stats_of_grouped_columns_copy_no_features():
    # one contiguous run per class, in descending id order
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(40), 200)[::-1].copy()
    data = LabeledDataset(rng.standard_normal((64, labels.size)), labels, 40)
    tracemalloc.start()
    try:
        stats = class_stats(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.features.nbytes / 10
    assert np.allclose(stats.sums[:, 3],
                       data.features[:, labels == 3].sum(axis=1))


def test_class_stats_allocates_one_gram():
    # G itself and little else: no within-class scatter is formed
    d_v = 512
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(8), 128)
    data = LabeledDataset(rng.standard_normal((d_v, labels.size)), labels, 8)
    tracemalloc.start()
    try:
        stats = class_stats(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * d_v * d_v * 8
    assert np.allclose(stats.gram, data.features @ data.features.T)


def test_class_mean_map_ids_sorted():
    rng = np.random.default_rng(4)
    data = LabeledDataset(rng.standard_normal((3, 4)),
                          np.array([7, 2, 7, 2]), 8)
    model = MappingModel(rng.standard_normal((2, 3)))
    ids, means = class_mean_map(model, data)
    assert np.array_equal(ids, [2, 7])
    assert means.shape == (2, 2)


def test_class_mean_map_of_no_columns_is_empty():
    data = LabeledDataset(np.zeros((3, 0)), np.zeros(0, dtype=int), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids, means = class_mean_map(MappingModel(np.ones((2, 3))), data)
    assert ids.shape == (0,)
    assert means.shape == (2, 0)


def test_objective_all_zero():
    data = LabeledDataset(np.zeros((2, 3)), np.zeros(3, dtype=int), 1)
    model = MappingModel(np.zeros((2, 2)))
    z = np.zeros((2, 3))
    assert objective(model, data, z, z, HyperParams()) == 0.0


def test_objective_reconstruction_only_when_weights_vanish():
    # alpha = beta = 0 isolates the reconstruction term
    data, _, p, o, model = _random_instance(1)
    hp = SimpleNamespace(alpha=0.0, beta=0.0)
    expected = 0.5 * np.sum(
        (data.features - model.weights.T @ p) ** 2
    )
    assert np.isclose(objective(model, data, p, o, hp), expected, rtol=1e-12)


def test_objective_matches_elementwise_oracle():
    data, _, p, o, model = _random_instance(2, d_v=4, d_s=3, m=5)
    hp = HyperParams(alpha=0.7, beta=1.3)
    got = objective(model, data, p, o, hp)
    want = _objective_loops(model.weights, data.features, p, o, 0.7, 1.3)
    assert np.isclose(got, want, rtol=1e-10)


def test_gradient_zero_at_solution():
    data, _, p, o, _ = _random_instance(3)
    hp = HyperParams()
    model = solve_weights(data, p, o, hp)
    grad = objective_gradient(model, data, p, o, hp)
    m_norm = np.linalg.norm(assemble_system(data, p, o, hp).M, "fro")
    assert np.linalg.norm(grad, "fro") <= 1e-6 * (1.0 + m_norm)


def test_gradient_matches_central_differences():
    h = 1e-6
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        d_v = int(rng.integers(2, 6))
        d_s = int(rng.integers(1, 6))
        m = int(rng.integers(2, 8))
        n_classes = 2
        labels = rng.integers(0, n_classes, size=m)
        labels[:n_classes] = np.arange(n_classes)
        data = LabeledDataset(rng.standard_normal((d_v, m)), labels, n_classes)
        p = rng.standard_normal((d_s, m))
        o = rng.standard_normal((d_s, m))
        w = rng.standard_normal((d_s, d_v))
        hp = HyperParams(alpha=float(rng.uniform(0, 2)),
                         beta=float(rng.uniform(0.1, 2)))
        grad = objective_gradient(MappingModel(w), data, p, o, hp)
        fd = np.zeros_like(w)
        for i in range(d_s):
            for j in range(d_v):
                up, dn = w.copy(), w.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (
                    objective(MappingModel(up), data, p, o, hp)
                    - objective(MappingModel(dn), data, p, o, hp)
                ) / (2 * h)
        scale = max(1.0, np.abs(grad).max())
        assert np.allclose(fd, grad, rtol=1e-4, atol=1e-4 * scale)


def test_gradient_term_isolation_orthonormal_p():
    # with alpha = beta = 0 and P having orthonormal rows the gradient
    # reduces to P P^T W - P X^T
    rng = np.random.default_rng(31)
    d_s, m, d_v = 3, 6, 4
    q, _ = np.linalg.qr(rng.standard_normal((m, d_s)))
    p = q.T  # orthonormal rows
    labels = np.array([0, 1, 0, 1, 0, 1])
    data = LabeledDataset(rng.standard_normal((d_v, m)), labels, 2)
    o = np.zeros((d_s, m))
    w = rng.standard_normal((d_s, d_v))
    hp = SimpleNamespace(alpha=0.0, beta=0.0)
    grad = objective_gradient(MappingModel(w), data, p, o, hp)
    expected = p @ p.T @ w - p @ data.features.T
    assert np.allclose(grad, expected, atol=1e-12)
    assert np.allclose(p @ p.T, np.eye(d_s), atol=1e-12)


def test_solve_weights_matches_kron_oracle():
    data, _, p, o, _ = _random_instance(5, d_v=2, d_s=2, m=4, n_classes=2)
    hp = HyperParams(alpha=0.4, beta=0.9)
    model = solve_weights(data, p, o, hp)
    sys_ = assemble_system(data, p, o, hp)
    assert np.allclose(model.weights, kron_solve(sys_.L, sys_.R, sys_.M),
                       atol=1e-8)


def _grouped(seed, d_v, d_s, sizes):
    """Features in shuffled column order with ``sizes[c]`` instances of
    class c, plus one prototype and one centroid column per class."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    data = LabeledDataset(rng.standard_normal((d_v, labels.size)), labels,
                          len(sizes))
    return (data, rng.standard_normal((d_s, len(sizes))),
            rng.standard_normal((d_s, len(sizes))))


ALPHA_BETA = (st.floats(0.0, 2.0), st.floats(0.1, 2.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
       st.lists(st.integers(1, 4), min_size=1, max_size=4), *ALPHA_BETA)
def test_class_level_solve_matches_per_instance_kron_oracle(
        seed, d_v, d_s, sizes, alpha, beta):
    if sum(sizes) < d_v:         # keep G = X X^T nonsingular
        sizes = [*sizes, d_v]
    data, p, o = _grouped(seed, d_v, d_s, sizes)
    hp = HyperParams(alpha=alpha, beta=beta)
    model = solve_weights(class_stats(data), p, o, hp)
    # the per-instance system: one column of P and O per instance
    sys_ = assemble_system(data, p[:, data.labels], o[:, data.labels], hp)
    want = kron_solve(sys_.L, sys_.R, sys_.M)
    lam = np.linalg.eigvalsh(sys_.L)
    sig = np.linalg.eigvalsh(sys_.R)
    cond = (lam[-1] + sig[-1]) / (lam[0] + sig[0])
    assert np.linalg.norm(model.weights - want) <= \
        1e-12 * cond * np.linalg.norm(want)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), *ALPHA_BETA)
def test_ridge_retry_satisfies_the_ridged_system(seed, classes, alpha,
                                                 beta):
    # fewer classes than semantic dimensions and fewer instances than
    # visual dimensions: L and G are both singular
    data, p, o = _grouped(seed, 2 * classes + 1, classes + 1, [2] * classes)
    hp = HyperParams(alpha=alpha, beta=beta)
    stats = class_stats(data)
    with pytest.raises(SolverError, match="singular"):
        solve_weights(stats, p, o, hp)
    w = solve_weights(stats, p, o, hp, ridge_on_failure=True).weights
    sys_ = assemble_system(stats, p, o, hp)
    ridged = sys_.L + 1e-8 * np.trace(sys_.L) / p.shape[0] * np.eye(
        p.shape[0])
    residual = np.linalg.norm(ridged @ w + w @ sys_.R + sys_.M)
    assert residual <= 1e-10 * (
        (np.linalg.norm(ridged) + np.linalg.norm(sys_.R)) * np.linalg.norm(w)
        + np.linalg.norm(sys_.M))


def test_solve_from_cached_gram_eig_allocates_no_dv_square():
    d_v = 256
    data, p, o = _grouped(3, d_v, 6, [40] * 8)
    stats = class_stats(data)
    stats.gram_eig
    tracemalloc.start()
    try:
        solve_weights(stats, p, o, HyperParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d_v * d_v * 8


@pytest.mark.parametrize("d_s, classes, duplicates", [
    (12, 4, 0),     # random prototypes
    (12, 5, 2),     # two prototype columns repeated: B is rank-deficient
    (9, 1, 0),      # one class
    (10, 5, 0),     # 2c = d_s, the largest c that takes the thin path
    (10, 5, 1),
])
def test_thin_and_full_eigenpairs_of_l_solve_alike(d_s, classes, duplicates):
    rng = np.random.default_rng(d_s * 10 + classes + duplicates)
    p = rng.standard_normal((d_s, classes))
    p[:, classes - duplicates:] = p[:, :duplicates]
    b = p * np.sqrt(rng.integers(1, 9, size=classes).astype(float))
    thin, full = _l_eig(b, True), _l_eig(b, False)
    assert thin[1].shape == (d_s, classes) and full[1].shape == (d_s, d_s)
    assert np.abs(thin[1].T @ thin[1] - np.eye(classes)).max() <= 1e-14
    m_hat = rng.standard_normal((d_s, 7))
    sig = np.sort(rng.uniform(0.5, 3.0, 7))
    w_full = _eig_solve(full, sig, m_hat, False)
    assert np.abs(_eig_solve(thin, sig, m_hat, False) - w_full).max() \
        <= 1e-12 * np.abs(w_full).max()
    # R singular (sig_0 = 0): the pivot floor stops both, and the ridge
    # shifts both by the same eps = 1e-8 trace(L) / d_s. In the ridged
    # null space W V = -M V / eps, so any change of eps shows at full
    # size; the full pairs are compared with their roundoff-level zero
    # eigenvalues (1e-16 max lam, 1e-8 of eps) set to 0.
    sig[0] = 0.0
    for pairs in (thin, full):
        with pytest.raises(SolverError, match="singular"):
            _eig_solve(pairs, sig, m_hat, False)
    lam, u = full
    exact = (np.where(np.abs(lam) <= 1e-12 * lam.max(), 0.0, lam), u)
    w_exact = _eig_solve(exact, sig, m_hat, True)
    assert np.abs(_eig_solve(thin, sig, m_hat, True) - w_exact).max() \
        <= 1e-12 * np.abs(w_exact).max()


def test_solution_depends_only_on_alpha_plus_beta_when_centroids_match():
    data, _, p, _, _ = _random_instance(6)
    a = solve_weights(data, p, p, HyperParams(alpha=0.5, beta=1.0))
    b = solve_weights(data, p, p, HyperParams(alpha=1.2, beta=0.3))
    assert np.allclose(a.weights, b.weights, atol=1e-10)


def test_noiseless_alpha_zero_stationary_and_recovers():
    spec = SynthSpec(d_v=20, d_s=8, seen_count=16, unseen_count=4,
                     per_class=6, seed=13)
    ds, table, _ = synthesize(spec)
    seen, _ = split(ds, table)
    p = expand_per_instance(table, seen.labels)
    o = np.zeros_like(p)
    hp = HyperParams(alpha=0.0)
    model = solve_weights(seen, p, o, hp)
    grad = objective_gradient(model, seen, p, o, hp)
    m_norm = np.linalg.norm(assemble_system(seen, p, o, hp).M, "fro")
    assert np.linalg.norm(grad, "fro") <= 1e-6 * (1.0 + m_norm)


def test_objective_invariant_to_column_permutation():
    data, _, p, o, model = _random_instance(7)
    hp = HyperParams()
    perm = np.random.default_rng(0).permutation(data.instance_count)
    permuted = LabeledDataset(data.features[:, perm], data.labels[perm],
                              data.class_count)
    a = objective(model, data, p, o, hp)
    b = objective(model, permuted, p[:, perm], o[:, perm], hp)
    assert np.isclose(a, b, rtol=1e-12)


def test_perturbation_never_improves_solution():
    data, _, p, o, _ = _random_instance(9)
    hp = HyperParams()
    model = solve_weights(data, p, o, hp)
    base = objective(model, data, p, o, hp)
    w_norm = np.linalg.norm(model.weights, "fro")
    rng = np.random.default_rng(99)
    for _ in range(100):
        delta = rng.standard_normal(model.weights.shape)
        delta *= 1e-3 * w_norm / np.linalg.norm(delta, "fro")
        probed = objective(MappingModel(model.weights + delta),
                           data, p, o, hp)
        assert probed >= base - 1e-12 * max(1.0, base)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="beta"):
        HyperParams(beta=0.0)
    with pytest.raises(ValueError, match="alpha"):
        HyperParams(alpha=-0.1)
    with pytest.raises(ValueError, match="gamma1"):
        HyperParams(gamma1=-1.0)
    with pytest.raises(ValueError, match="k"):
        HyperParams(k=0)


def test_assemble_system_shape_check():
    data, _, p, o, _ = _random_instance(10)
    with pytest.raises(DataError, match="centroids"):
        assemble_system(data, p, o[:, :-1], HyperParams())
