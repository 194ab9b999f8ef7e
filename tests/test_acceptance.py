"""Acceptance suite: one test per gated criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import time
from dataclasses import replace

import numpy as np

from zsadjust.adjustment import adjust_seen, adjust_unseen, knn_seen
from zsadjust.cli import main
from zsadjust.data import (
    LabeledDataset,
    PrototypeTable,
    SynthSpec,
    load_matrix,
    save_matrix,
    split,
    synthesize,
)
from zsadjust.inference import evaluate, predict
from zsadjust.linalg import SylvesterSystem, solve_sylvester
from zsadjust.mapping import (
    HyperParams,
    MappingModel,
    assemble_system,
    objective,
    objective_gradient,
    solve_weights,
)
from zsadjust.trainer import train

from oracles import kron_solve, random_psd


def _report(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_sylvester_oracle_equivalence():
    tic = time.perf_counter()
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        L = random_psd(rng, p)
        R = random_psd(rng, q) + 1e-3 * np.eye(q)
        M = rng.standard_normal((p, q))
        sys_ = SylvesterSystem(L, R, M)
        w = solve_sylvester(sys_)
        ok &= bool(np.max(np.abs(w - kron_solve(L, R, M))) <= 1e-8)
        wn = np.linalg.norm(w, "fro")
        bound = 1e-8 * (np.linalg.norm(L, "fro") * wn
                        + wn * np.linalg.norm(R, "fro")
                        + np.linalg.norm(M, "fro"))
        ok &= bool(sys_.residual(w) <= bound)
    elapsed = time.perf_counter() - tic
    ok &= elapsed < 5.0
    _report(1, f"Sylvester solve matches Kronecker oracle "
               f"(100 systems, {elapsed:.2f}s)", ok)


def _random_training_instance(rng):
    d_v = int(rng.integers(2, 21))
    d_s = int(rng.integers(1, 11))
    m = int(rng.integers(4, 61))
    n_classes = int(rng.integers(1, 4))
    labels = rng.integers(0, n_classes, size=m)
    labels[:n_classes] = np.arange(n_classes)
    data = LabeledDataset(rng.standard_normal((d_v, m)), labels, n_classes)
    p = rng.standard_normal((d_s, m))
    o = rng.standard_normal((d_s, m))
    hp = HyperParams(alpha=float(rng.uniform(0, 2)),
                     beta=float(rng.uniform(0.2, 2)))
    return data, p, o, hp


def test_criterion_2_stationarity_and_gradient():
    ok = True
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        data, p, o, hp = _random_training_instance(rng)
        model = solve_weights(data, p, o, hp)
        grad = objective_gradient(model, data, p, o, hp)
        m_norm = np.linalg.norm(assemble_system(data, p, o, hp).M, "fro")
        ok &= bool(np.linalg.norm(grad, "fro") <= 1e-6 * (1.0 + m_norm))

    # finite-difference confirmation on small dimensions
    h = 1e-6
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        d_v = int(rng.integers(2, 6))
        d_s = int(rng.integers(1, 6))
        m = int(rng.integers(3, 9))
        labels = np.zeros(m, dtype=int)
        data = LabeledDataset(rng.standard_normal((d_v, m)), labels, 1)
        p = rng.standard_normal((d_s, m))
        o = rng.standard_normal((d_s, m))
        hp = HyperParams(alpha=0.7, beta=1.1)
        w = rng.standard_normal((d_s, d_v))
        grad = objective_gradient(MappingModel(w), data, p, o, hp)
        fd = np.zeros_like(w)
        for i in range(d_s):
            for j in range(d_v):
                up, dn = w.copy(), w.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (objective(MappingModel(up), data, p, o, hp)
                            - objective(MappingModel(dn), data, p, o, hp)
                            ) / (2 * h)
        scale = max(1.0, np.abs(grad).max())
        ok &= bool(np.allclose(fd, grad, rtol=1e-4, atol=1e-4 * scale))
    _report(2, "normal-equation stationarity and finite-difference "
               "gradient agreement", ok)


def test_criterion_3_noiseless_recovery():
    tic = time.perf_counter()
    spec = SynthSpec(d_v=50, d_s=20, seen_count=40, unseen_count=10,
                     per_class=25, noise_sigma=0.0, shift_sigma=0.0, seed=0)
    dataset, table, _ = synthesize(spec)
    seen, unseen = split(dataset, table)
    model, adjusted, _ = train(seen, table, HyperParams())
    report = evaluate(model, unseen, adjusted, ks=(1,))
    elapsed = time.perf_counter() - tic
    ok = report.hit_at[1] >= 0.99 and elapsed < 10.0
    _report(3, f"noiseless synthetic recovery "
               f"(Hit@1 = {report.hit_at[1]:.3f}, {elapsed:.2f}s)", ok)


def test_criterion_4_domain_shift_benefit():
    full = HyperParams()
    ablation = replace(full, gamma1=0.0, gamma2=0.0, alpha=0.0)
    wins = 0
    diffs = []
    for seed in range(10):
        spec = SynthSpec(d_v=100, d_s=85, seen_count=20, unseen_count=20,
                         per_class=20, noise_sigma=0.05, shift_sigma=0.1,
                         seed=seed)
        dataset, table, _ = synthesize(spec)
        seen, unseen = split(dataset, table)
        m1, a1, _ = train(seen, table, full)
        h1 = evaluate(m1, unseen, a1, ks=(1,)).hit_at[1]
        m0, a0, _ = train(seen, table, ablation)
        h0 = evaluate(m0, unseen, a0, ks=(1,)).hit_at[1]
        wins += int(h1 >= h0)
        diffs.append(h1 - h0)
    mean_gain = float(np.mean(diffs))
    ok = wins >= 8 and mean_gain > 0.0
    _report(4, f"adjustment beats ablation under domain shift "
               f"({wins}/10 seeds, mean Hit@1 gain {mean_gain:+.4f})", ok)


def test_criterion_5_monotonicity_and_scale_invariance():
    ok = True
    cases = 0
    for seed in range(200):
        rng = np.random.default_rng(3000 + seed)
        d_s = int(rng.integers(2, 7))
        d_v = int(rng.integers(2, 8))
        n_unseen = int(rng.integers(2, 7))
        per = int(rng.integers(1, 5))
        vecs = rng.standard_normal((d_s, n_unseen + 1))
        table = PrototypeTable(np.arange(n_unseen + 1), vecs,
                               np.array([True] + [False] * n_unseen))
        labels = np.repeat(np.arange(1, n_unseen + 1), per)
        feats = rng.standard_normal((d_v, labels.size))
        data = LabeledDataset(feats, labels, n_unseen + 1)
        model = MappingModel(rng.standard_normal((d_s, d_v)))

        ks = tuple(range(1, n_unseen + 1))
        report = evaluate(model, data, table, ks=ks)
        values = [report.hit_at[k] for k in ks]
        ok &= all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

        ranked = predict(model, feats[:, 0], table)
        scaled_vecs = vecs.copy()
        target = int(rng.integers(1, n_unseen + 1))
        scaled_vecs[:, target] *= float(rng.uniform(0.1, 20.0))
        scaled_table = PrototypeTable(table.class_ids, scaled_vecs, table.seen)
        rescaled = predict(model, float(rng.uniform(0.1, 20.0)) * feats[:, 0],
                           scaled_table)
        ok &= [c for c, _ in ranked] == [c for c, _ in rescaled]
        cases += 1
    ok &= cases >= 200
    _report(5, f"Hit@k monotonicity and ranking scale-invariance "
               f"({cases} random cases)", ok)


def test_criterion_6_adjustment_algebra():
    ok = True
    rng = np.random.default_rng(4)

    # gamma = 0 no-ops are exact
    vecs = rng.standard_normal((5, 8))
    table = PrototypeTable(np.arange(8), vecs,
                           np.array([True] * 5 + [False] * 3))
    labels = np.repeat(np.arange(5), 3)
    data = LabeledDataset(rng.standard_normal((5, 15)), labels, 8)
    model = MappingModel(rng.standard_normal((5, 5)))
    out = adjust_seen(table, model, data, HyperParams(gamma1=0.0, k=2))
    ok &= bool(np.array_equal(out.vectors, vecs))
    out = adjust_unseen(table, HyperParams(gamma2=0.0, k=2))
    ok &= bool(np.array_equal(out.vectors, vecs))

    # reported blend values: a seen prototype equal to its mapped mean is
    # a fixed point of 0.75/0.25
    proto = rng.standard_normal(4)
    fix_table = PrototypeTable(np.array([0, 1]),
                               np.column_stack([proto, rng.standard_normal(4)]),
                               np.array([True, False]))
    fix_data = LabeledDataset(proto.reshape(-1, 1), np.array([0]), 2)
    out = adjust_seen(fix_table, MappingModel(np.eye(4)), fix_data,
                      HyperParams(k=1))
    ok &= bool(np.max(np.abs(out.vectors[:, 0] - proto)) <= 1e-12)

    # 0.8/0.2 single-neighbor blend
    q = np.array([0.6, 0.8])
    p = np.array([0.0, 1.0])
    pair = PrototypeTable(np.array([0, 1]), np.column_stack([q, p]),
                          np.array([True, False]))
    out = adjust_unseen(pair, HyperParams(k=1))
    ok &= bool(np.max(np.abs(out.vectors[:, 1]
                             - (0.8 * p + 0.2 * q))) <= 1e-12)

    # normalized neighbor weights sum to one
    base = rng.standard_normal((6, 1))
    seen_vecs = base + 0.25 * rng.standard_normal((6, 7))
    crowd = PrototypeTable(np.arange(8),
                           np.column_stack([seen_vecs, base[:, 0]]),
                           np.array([True] * 7 + [False]))
    ranked = knn_seen(crowd, 7, 4)
    weights = np.array([max(s, 0.0) for _, s in ranked])
    weights /= weights.sum()
    ok &= bool(abs(weights.sum() - 1.0) <= 1e-12)
    _report(6, "adjustment no-ops, reported blend identities, and "
               "weight normalization", ok)


def test_criterion_7_training_speed_at_scale():
    spec = SynthSpec(d_v=1024, d_s=85, seen_count=40, unseen_count=10,
                     per_class=500, noise_sigma=0.05, shift_sigma=0.1,
                     seed=0)
    dataset, table, _ = synthesize(spec)
    seen, _ = split(dataset, table)
    assert seen.instance_count == 20000
    hp = HyperParams(iterations=5, tol=0.0)
    tic = time.perf_counter()
    _, _, trace = train(seen, table, hp)
    elapsed = time.perf_counter() - tic
    ok = elapsed < 60.0 and len(trace) == 5
    _report(7, f"training at m=20000, d_v=1024, d_s=85 took "
               f"{elapsed:.1f}s (< 60s)", ok)


def test_criterion_8_determinism_and_roundtrips(tmp_path):
    ok = True
    args = ["train", "--synth", "--synth-dv", "24", "--synth-ds", "10",
            "--synth-seen", "12", "--synth-unseen", "4",
            "--synth-per-class", "6", "--synth-noise", "0.05",
            "--synth-shift", "0.1", "--k", "5", "--iters", "2",
            "--seed", "42"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ok &= main([*args, "--out", str(out_a)]) == 0
    ok &= main([*args, "--out", str(out_b)]) == 0
    for name in ("model.zsm", "prototypes_adjusted.zsm"):
        ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()

    rng = np.random.default_rng(8)
    x = rng.standard_normal((9, 5))
    for fmt in ("binary", "csv"):
        path = tmp_path / f"m.{fmt}"
        save_matrix(path, x, fmt=fmt)
        ok &= bool(np.array_equal(load_matrix(path, fmt=fmt), x))
    _report(8, "same-seed byte-identical artifacts and exact format "
               "round-trips", ok)
