import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import zsadjust
from zsadjust import trainer
from zsadjust.adjustment import adjust_seen, adjust_unseen
from zsadjust.data import LabeledDataset, PrototypeTable, SynthSpec, split, synthesize
from zsadjust.errors import DataError, SolverError
from zsadjust.mapping import (
    ClassStats,
    HyperParams,
    MappingModel,
    _columns,
    _solve_rotated,
    assemble_system,
    class_mean_map,
    class_stats,
    expand_per_instance,
    objective,
    solve_weights,
)
from zsadjust.inference import sweep_k
from zsadjust.trainer import benchmark_training, train

from oracles import per_instance_train


def _synthetic(seed=0, noise=0.02, shift=0.0):
    spec = SynthSpec(d_v=16, d_s=6, seen_count=8, unseen_count=3,
                     per_class=5, noise_sigma=noise, shift_sigma=shift,
                     seed=seed)
    ds, table, _ = synthesize(spec)
    seen, unseen = split(ds, table)
    return seen, unseen, table


def test_zero_iterations_returns_initial_solve():
    seen, _, table = _synthetic()
    hp = HyperParams(iterations=0, k=3)
    model, adjusted, trace = train(seen, table, hp)
    assert len(trace) == 0
    assert np.array_equal(adjusted.vectors, table.vectors)
    # the returned weights are the alpha = 0 closed-form solution
    stats = class_stats(seen)
    p = expand_per_instance(table, stats.class_ids)
    direct = solve_weights(stats, p, np.zeros_like(p), replace(hp, alpha=0.0))
    assert np.array_equal(model.weights, direct.weights)


def test_fixed_point_converges_in_one_iteration():
    seen, _, table = _synthetic()
    hp = HyperParams(gamma1=0.0, gamma2=0.0, alpha=0.0, iterations=5,
                     tol=1e-10, k=3)
    model, adjusted, trace = train(seen, table, hp)
    # every iteration re-solves the identical system, so the relative
    # weight change vanishes immediately and tol stops the loop
    assert len(trace) == 1
    assert trace.records[0].w_delta < hp.tol
    assert np.array_equal(adjusted.vectors, table.vectors)


def test_trace_length_bounded_and_finite():
    seen, _, table = _synthetic(noise=0.05, shift=0.1)
    hp = HyperParams(iterations=4, tol=0.0, k=3)
    _, _, trace = train(seen, table, hp)
    assert len(trace) == 4
    for i, rec in enumerate(trace.records, start=1):
        assert rec.iteration == i
        assert np.isfinite(rec.objective)
        assert rec.ms >= 0.0


def test_first_iteration_matches_manual_replay():
    seen, _, table = _synthetic(noise=0.03)
    hp = HyperParams(iterations=1, tol=0.0, k=3)
    model, adjusted, trace = train(seen, table, hp)

    # replay the loop's steps in the eigenbasis V of the Gram matrix:
    # initial alpha = 0 solve for W V, centroids (W V)(V^T xbar_c) from
    # it, adjust prototypes, re-solve the full objective
    stats = class_stats(seen)
    p0 = expand_per_instance(table, stats.class_ids)
    w0_hat = _solve_rotated(stats, *_columns(stats, p0, np.zeros_like(p0)),
                            replace(hp, alpha=0.0), False)
    o1 = w0_hat @ stats.rotated_means
    cols = np.flatnonzero(table.seen)
    vectors = table.vectors.copy()
    vectors[:, cols] = hp.lambda1 * vectors[:, cols] + hp.gamma1 * o1[
        :, np.searchsorted(stats.class_ids, table.seen_ids)]
    step = table.with_vectors(vectors)
    adj = adjust_unseen(step, hp)
    p1 = expand_per_instance(adj, stats.class_ids)
    model1 = solve_weights(stats, p1, o1, hp)

    assert np.array_equal(model.weights, model1.weights)
    assert np.array_equal(adjusted.vectors, adj.vectors)
    # the same steps through the public functions, up to roundoff
    model0 = solve_weights(stats, p0, np.zeros_like(p0),
                           replace(hp, alpha=0.0))
    assert np.allclose(model0.weights, w0_hat @ stats.gram_eig[1].T,
                       rtol=0, atol=1e-13)
    _, means = class_mean_map(model0, stats)
    assert np.allclose(means, o1, rtol=0, atol=1e-13)
    public = adjust_unseen(adjust_seen(table, model0, stats, hp), hp)
    assert np.allclose(public.vectors, adj.vectors, rtol=0, atol=1e-13)
    assert trace.records[0].objective == objective(model1, seen, p1, o1, hp,
                                                   stats=stats)
    assert objective(model1, stats, p1, o1, hp) == trace.records[0].objective
    # the recorded objective is the minimum of that iteration's quadratic
    sys_ = assemble_system(stats, p1, o1, hp)
    w = model1.weights
    grad = sys_.L @ w + w @ sys_.R + sys_.M
    assert np.linalg.norm(grad, "fro") <= 1e-6 * (
        1.0 + np.linalg.norm(sys_.M, "fro"))


def _shuffled_uneven(seed):
    """Seen data in shuffled column order with unequal class sizes,
    including a class of one instance, plus three unseen classes."""
    rng = np.random.default_rng(seed)
    sizes = np.array([1, 3, 5, 8, 2, 6, 4])
    n_seen, n_unseen, d_v, d_s = sizes.size, 3, 12, 6
    gmap = rng.standard_normal((d_v, d_s)) / np.sqrt(d_v)
    protos = rng.standard_normal((d_s, n_seen + n_unseen))
    labels = rng.permutation(np.repeat(np.arange(n_seen), sizes))
    feats = gmap @ protos[:, labels] + 0.1 * rng.standard_normal(
        (d_v, labels.size))
    table = PrototypeTable(np.arange(n_seen + n_unseen), protos,
                           np.arange(n_seen + n_unseen) < n_seen)
    return LabeledDataset(feats, labels, n_seen + n_unseen), table


@pytest.mark.parametrize("seed", range(5))
def test_train_matches_per_instance_oracle(seed):
    seen, table = _shuffled_uneven(seed)
    hp = HyperParams(iterations=3, tol=0.0, k=3)
    model, adjusted, trace = train(seen, table, hp)
    w, vectors, objectives = per_instance_train(seen, table, hp)

    assert (np.abs(model.weights - w).max()
            <= 1e-10 * np.abs(w).max())
    assert np.abs(adjusted.vectors - vectors).max() <= 1e-12
    assert len(trace) == len(objectives) == 3
    for rec, want in zip(trace.records, objectives):
        assert abs(rec.objective - want) <= 1e-12 * want


def test_class_stats_any_label_order():
    seen, _ = _shuffled_uneven(0)
    order = np.argsort(seen.labels, kind="stable")
    grouped = LabeledDataset(seen.features[:, order], seen.labels[order],
                             seen.class_count)
    reversed_ = LabeledDataset(grouped.features[:, ::-1],
                               grouped.labels[::-1], seen.class_count)
    want = class_stats(grouped)
    assert np.array_equal(want.class_ids, np.arange(7))
    assert np.array_equal(want.counts, [1, 3, 5, 8, 2, 6, 4])
    for data in (seen, reversed_):
        got = class_stats(data)
        assert np.array_equal(got.class_ids, want.class_ids)
        assert np.array_equal(got.counts, want.counts)
        assert np.allclose(got.sums, want.sums, rtol=0, atol=1e-13)
    for c in range(7):
        members = seen.features[:, seen.labels == c]
        assert np.allclose(want.sums[:, c], members.sum(axis=1),
                           rtol=0, atol=1e-13)
    # statistics of other data are refused
    half = LabeledDataset(grouped.features[:, 1:], grouped.labels[1:],
                          seen.class_count)
    model = MappingModel(np.ones((6, 12)))
    z = np.zeros((6, 7))
    with pytest.raises(DataError, match="do not match"):
        objective(model, half, z, z, HyperParams(), stats=want)


def test_rescaled_features_train():
    # The criterion-4 setting with features scaled by 1e-5: the smallest
    # eigenvalue pair is about 3e-11, which an absolute pivot floor of
    # 1e-10 rejected although the problem is well posed.
    spec = SynthSpec(d_v=100, d_s=85, seen_count=20, unseen_count=20,
                     per_class=20, noise_sigma=0.05, shift_sigma=0.1, seed=0)
    ds, table, _ = synthesize(spec)
    seen, unseen = split(ds, table)
    tiny = LabeledDataset(1e-5 * seen.features, seen.labels, seen.class_count)
    model, _, trace = train(tiny, table, HyperParams())
    assert len(trace) >= 1
    assert np.isfinite(model.weights).all()
    assert all(np.isfinite(r.objective) for r in trace.records)


def test_train_deterministic():
    seen, _, table = _synthetic(noise=0.05, shift=0.1)
    hp = HyperParams(iterations=3, k=3)
    a = train(seen, table, hp)
    b = train(seen, table, hp)
    assert np.array_equal(a[0].weights, b[0].weights)
    assert np.array_equal(a[1].vectors, b[1].vectors)
    assert [r.objective for r in a[2].records] == \
        [r.objective for r in b[2].records]


@pytest.mark.parametrize("gamma1", [0.0, 0.25])
def test_class_means_mapped_once_per_iteration(gamma1):
    seen, _, table = _synthetic(noise=0.05, shift=0.1)
    stats = class_stats(seen)
    maps = []

    class Counted(np.ndarray):
        """Counts the products ``x @ rotated_means``; the solve's
        ``... @ rotated_means.T`` multiplies by a view and is not
        counted."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[1] is counted:
                maps.append(1)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    counted = stats.rotated_means.view(Counted)
    stats.__dict__["rotated_means"] = counted   # the cached property
    _, _, trace = train(stats, table, HyperParams(iterations=3, tol=0.0, k=3,
                                                  gamma1=gamma1))
    assert len(trace) == 3
    # one map of the initial solve's weights, then one per iteration: it
    # gives that iteration's objective and the next centroids
    assert len(maps) == 4


# Trains at d_v = 512 on 4000 seen instances, saves the weights to
# argv[1] and prints Hit@k on the unseen instances (0.27 and 0.86 for k = 1
# and 5: not saturated).
_TRAIN_AND_EVALUATE = """
import sys
import numpy as np
from zsadjust.data import SynthSpec, split, synthesize
from zsadjust.inference import evaluate
from zsadjust.mapping import HyperParams
from zsadjust.trainer import train

spec = SynthSpec(d_v=512, d_s=85, seen_count=40, unseen_count=10,
                 per_class=100, noise_sigma=0.3, shift_sigma=0.3, seed=5)
dataset, table, _ = synthesize(spec)
seen, unseen = split(dataset, table)
model, adjusted, _ = train(seen, table, HyperParams(iterations=5, tol=0.0))
np.save(sys.argv[1], model.weights)
print(evaluate(model, unseen, adjusted, ks=(1, 5)).hit_at)
"""


def test_train_agrees_across_blas_thread_counts(tmp_path):
    # The BLAS library splits its sums by thread count, so the weights
    # may differ in the last bits (criterion 8's byte-identity holds at
    # one thread count); they must agree to 1e-12 relative, with the
    # same Hit@k. Each count runs in its own process, as the BLAS reads
    # it when it loads.
    src = os.path.dirname(os.path.dirname(zsadjust.__file__))
    weights, hits = [], []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        path = tmp_path / f"weights{threads}.npy"
        run = subprocess.run([sys.executable, "-c", _TRAIN_AND_EVALUATE,
                              str(path)], env=env, capture_output=True,
                             text=True, check=True)
        weights.append(np.load(path))
        hits.append(run.stdout)
    assert np.abs(weights[0] - weights[1]).max() \
        <= 1e-12 * np.abs(weights[0]).max()
    assert hits[0] == hits[1]


def test_large_class_id_costs_no_memory():
    # class 7, the largest seen id, renamed 10**7: same order, same result
    seen, _, table = _synthetic(noise=0.05, shift=0.1)
    ids = table.class_ids.copy()
    ids[7] = 10**7
    big_table = PrototypeTable(ids, table.vectors, table.seen)
    big_seen = LabeledDataset(seen.features,
                              np.where(seen.labels == 7, 10**7, seen.labels),
                              10**7 + 1)
    hp = HyperParams(iterations=2, k=3)
    tracemalloc.start()
    try:
        model, adjusted, _ = train(big_seen, big_table, hp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    want_model, want_adjusted, _ = train(seen, table, hp)
    assert np.array_equal(model.weights, want_model.weights)
    assert np.array_equal(adjusted.vectors, want_adjusted.vectors)


def test_unseen_neighbor_source_flag_changes_result():
    seen, _, table = _synthetic(noise=0.05)
    hp = HyperParams(iterations=2, k=3)
    adj = train(seen, table, hp, unseen_neighbors="adjusted")[1]
    orig = train(seen, table, hp, unseen_neighbors="original")[1]
    unseen_mask = ~table.seen
    assert not np.array_equal(adj.vectors[:, unseen_mask],
                              orig.vectors[:, unseen_mask])


@pytest.mark.parametrize("neighbors, gamma1, searches", [
    ("adjusted", 0.25, 5), ("original", 0.25, 1), ("adjusted", 0.0, 1)])
def test_search_among_the_original_seen_block_runs_once(neighbors, gamma1,
                                                        searches):
    # the search reads P0 for "original", or with gamma1 = 0, and gives the
    # same blend in every iteration: it runs in the first only, and later
    # records read no unseen shift
    seen, _, table = _synthetic(noise=0.05)
    hp = HyperParams(gamma1=gamma1, iterations=5, tol=0.0, k=3)
    with mock.patch.object(trainer, "_nearest",
                           side_effect=trainer._nearest) as spy:
        trace = train(seen, table, hp, unseen_neighbors=neighbors)[2]
    assert spy.call_count == searches and len(trace) == 5
    assert trace.records[0].unseen_shift > 0.0
    if searches == 1:
        assert all(r.unseen_shift == 0.0 for r in trace.records[1:])


def test_train_rejects_bad_neighbor_flag():
    seen, _, table = _synthetic()
    with pytest.raises(ValueError, match="unseen_neighbors"):
        train(seen, table, HyperParams(k=3), unseen_neighbors="latest")


def test_singular_data_reports_solver_error():
    # one seen class, one instance, rank-deficient in every direction
    features = np.array([[1.0], [0.0]])
    data = LabeledDataset(features, np.array([0]), 2)
    table = PrototypeTable(np.array([0, 1]),
                           np.array([[1.0, 0.0], [0.0, 1.0]]),
                           np.array([True, False]))
    with pytest.raises(SolverError, match="initial solve"):
        train(data, table, HyperParams(k=1))


def test_train_rejects_instances_of_unseen_classes():
    # only seen prototypes reach a solve, so instances of an unseen class
    # have no prototype to be mapped to: refused, in train and sweep_k
    dataset, table, _ = synthesize(SynthSpec(
        d_v=16, d_s=6, seen_count=8, unseen_count=3, per_class=5, seed=0))
    seen, unseen = split(dataset, table)
    mixed = LabeledDataset(np.hstack([seen.features, unseen.features[:, :6]]),
                           np.r_[seen.labels, unseen.labels[:6]],
                           dataset.class_count)
    for run in (lambda: train(mixed, table, HyperParams(k=3)),
                lambda: sweep_k(mixed, unseen, table, HyperParams(), [3])):
        with pytest.raises(DataError, match=r"unseen classes \[8, 9\]"):
            run()


def test_train_rejects_empty_seen():
    data = LabeledDataset(np.zeros((2, 0)), np.zeros(0, dtype=int), 1)
    table = PrototypeTable(np.array([0]), np.ones((2, 1)), np.array([True]))
    with pytest.raises(DataError, match="empty"):
        train(data, table, HyperParams(k=1))


def test_benchmark_single_repeat_echoes_measurement():
    seen, _, table = _synthetic()
    hp = HyperParams(iterations=1, k=3)
    result = benchmark_training((seen, table), hp, repeats=1)
    assert result.repeats == 1
    assert result.median_ms == result.max_ms == result.runs_ms[0]


def test_benchmark_rejects_zero_repeats():
    seen, _, table = _synthetic()
    with pytest.raises(ValueError, match="repeats"):
        benchmark_training((seen, table), HyperParams(k=3), repeats=0)


@pytest.mark.parametrize("run", [
    lambda seen, unseen, table: train(seen, table, HyperParams(k=3),
                                      unseen_neighbors="bogus"),
    lambda seen, unseen, table: sweep_k(seen, unseen, table, HyperParams(),
                                        [3], unseen_neighbors="bogus"),
])
def test_bad_neighbor_flag_is_refused_before_class_stats(run):
    seen, unseen, table = _synthetic()
    stats_calls, solves = [], []
    real_stats, real_solve = trainer.class_stats, trainer._solve_rotated
    with mock.patch.object(trainer, "class_stats",
                           lambda *a: stats_calls.append(1) or real_stats(*a)), \
            mock.patch.object(trainer, "_solve_rotated",
                              lambda *a: solves.append(1) or real_solve(*a)):
        with pytest.raises(ValueError, match="unseen_neighbors"):
            run(seen, unseen, table)
    assert stats_calls == solves == []


def _faulty_stats(fault, stats):
    """The fields of ``stats`` with one fault put in, as a dict."""
    ids, counts, sums, gram = (stats.class_ids, stats.counts, stats.sums,
                               stats.gram)
    bad_count = {"zero count": 0.0, "negative count": -1.0,
                 "NaN count": np.nan, "infinite count": np.inf}
    if fault in bad_count:
        counts = counts.copy()
        counts[2] = bad_count[fault]
    elif fault == "descending ids":
        ids = ids[::-1]
    elif fault == "repeated id":
        ids = np.r_[ids[:1], ids[:-1]]
    elif fault == "2-D ids":
        ids = ids[None, :]
    elif fault == "short counts":
        counts = counts[:-1]
    elif fault == "short sums":
        sums = sums[:-1]
    elif fault == "wide sums":
        sums = np.c_[sums, sums[:, :1]]
    elif fault == "non-square gram":
        gram = gram[:, :-1]
    return dict(class_ids=ids, counts=counts, sums=sums, gram=gram)


@pytest.mark.parametrize("fault, message", [
    ("zero count", r"the counts of classes \[2\] are not finite and > 0"),
    ("negative count", r"the counts of classes \[2\] are not finite"),
    ("NaN count", r"the counts of classes \[2\] are not finite"),
    ("infinite count", r"the counts of classes \[2\] are not finite"),
    ("descending ids", "class_ids must be 1-D and ascending"),
    ("repeated id", "class_ids must be 1-D and ascending"),
    ("2-D ids", "class_ids must be 1-D and ascending"),
    ("short counts", r"counts has shape \(7,\), not \(8,\)"),
    ("short sums", r"sums has shape \(15, 8\), not \(16, 8\)"),
    ("wide sums", r"sums has shape \(16, 9\), not \(16, 8\)"),
    ("non-square gram", r"gram has shape \(16, 15\), not \(d_v, d_v\)"),
])
@pytest.mark.parametrize("entry", ["train", "sweep_k", "benchmark_training",
                                   "solve_weights"])
def test_hand_built_class_stats_are_checked(entry, fault, message):
    # a DataError naming the fault before any product: unchecked, a zero
    # count divides by zero and a short array fails inside numpy
    seen, unseen, table = _synthetic()
    good = class_stats(seen)
    hp = HyperParams(iterations=2, k=3)
    protos = expand_per_instance(table, good.class_ids)
    runs = {
        "train": lambda stats: train(stats, table, hp),
        "sweep_k": lambda stats: sweep_k(stats, unseen, table, hp, [1, 3]),
        "benchmark_training": lambda stats: benchmark_training(
            (stats, table), hp),
        "solve_weights": lambda stats: solve_weights(
            stats, protos, np.zeros_like(protos), hp),
    }
    eigs = []
    with mock.patch("zsadjust.mapping.sym_eig",
                    side_effect=lambda a: eigs.append(1)):
        with pytest.raises(DataError, match="^class statistics: " + message):
            runs[entry](ClassStats(**_faulty_stats(fault, good)))
    assert eigs == []
