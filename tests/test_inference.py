import json
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsadjust import inference
from zsadjust.cli import _write_report
from zsadjust.data import LabeledDataset, PrototypeTable, SynthSpec, split, synthesize
from zsadjust.errors import DataError
from zsadjust.inference import EvalReport, evaluate, predict, skewness, sweep_k
from zsadjust.mapping import HyperParams, MappingModel
from zsadjust.trainer import train

from oracles import argmax_in_degree, cosine_similarity, mask_true_ranks


def _table(vectors, seen):
    n = vectors.shape[1]
    return PrototypeTable(np.arange(n), vectors, np.asarray(seen))


def test_predict_single_candidate():
    table = _table(np.array([[1.0, 0.0], [0.0, 1.0]]), [True, False])
    model = MappingModel(np.eye(2))
    ranked = predict(model, np.array([0.2, 0.9]), table)
    assert len(ranked) == 1
    assert ranked[0][0] == 1


def test_predict_exact_match_scores_one():
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((4, 5))
    table = _table(vecs, [True, True, False, False, False])
    model = MappingModel(np.eye(4))
    ranked = predict(model, vecs[:, 3], table)
    assert ranked[0][0] == 3
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)


def test_predict_matches_exhaustive_sort_oracle():
    rng = np.random.default_rng(1)
    d_s, d_v = 5, 7
    vecs = rng.standard_normal((d_s, 8))
    table = _table(vecs, [True, True] + [False] * 6)
    model = MappingModel(rng.standard_normal((d_s, d_v)))
    x = rng.standard_normal(d_v)
    got = predict(model, x, table)
    mapped = model.encode(x)
    sims = {cid: cosine_similarity(mapped, vecs[:, cid]) for cid in range(2, 8)}
    want = sorted(sims.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [c for c, _ in got] == [c for c, _ in want]
    assert np.allclose([s for _, s in got], [s for _, s in want], atol=1e-12)


def test_predict_tie_breaks_toward_smaller_id():
    # two identical unseen prototypes: exact tie, lower id first
    vecs = np.array([[1.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    table = _table(vecs, [True, False, False])
    model = MappingModel(np.eye(2))
    ranked = predict(model, np.array([1.0, 1.0]), table)
    assert [c for c, _ in ranked] == [1, 2]


def test_overflowing_norms_are_data_errors():
    # a finite unseen prototype or instance whose norm overflows cannot
    # be ranked by cosine; the seen-neighbour search ranks it last
    vecs = np.array([[1.0, 0.0, 1e200, 1.0], [0.0, 1.0, 1e200, 1.0]])
    table = _table(vecs, [True, True, False, False])
    data = LabeledDataset(np.ones((2, 2)), [2, 3], 4)
    with pytest.raises(DataError, match=r"cannot rank unseen classes \[2\]: "
                                        r"their prototype norms overflow"):
        evaluate(MappingModel(np.eye(2)), data, table)
    model, _, _ = train(LabeledDataset(np.eye(2), [0, 1], 4), table,
                        HyperParams(k=1, iterations=1))
    assert np.isfinite(model.weights).all()
    huge = LabeledDataset(np.array([[1.0, 1e200], [0.0, 1e200]]), [2, 2], 3)
    with pytest.raises(DataError, match="cannot rank an instance whose norm "
                                        "overflows"):
        evaluate(MappingModel(np.eye(2)), huge, _table(vecs[:, [0, 1, 3]],
                                                       [True, True, False]))


def test_predict_zero_mapped_instance_rejected():
    table = _table(np.eye(2), [True, False])
    model = MappingModel(np.zeros((2, 2)))
    with pytest.raises(DataError, match="zero vector"):
        predict(model, np.array([1.0, 1.0]), table)


def test_predict_visual_direction():
    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((3, 4))
    table = _table(vecs, [True, False, False, False])
    model = MappingModel(rng.standard_normal((3, 5)))
    x = rng.standard_normal(5)
    got = predict(model, x, table, direction="visual")
    decoded = {cid: model.decode(vecs[:, cid]) for cid in range(1, 4)}
    sims = {cid: cosine_similarity(x, d) for cid, d in decoded.items()}
    want = sorted(sims.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [c for c, _ in got] == [c for c, _ in want]


def test_evaluate_visual_direction_on_a_read_only_dataset():
    model, data, table = _eval_setup(seed=3)
    assert not data.features.flags.writeable
    before = data.features.copy()
    report = evaluate(model, data, table, ks=(1,), direction="visual")
    decoded = model.decode(table.vectors[:, 2:])
    sims = (decoded / np.linalg.norm(decoded, axis=0)).T @ (
        before / np.linalg.norm(before, axis=0))
    predicted = table.class_ids[2:][np.argmax(sims, axis=0)]
    assert report.hit_at[1] == np.mean(predicted == data.labels)
    assert np.array_equal(data.features, before)


def test_visual_similarities_are_the_decoded_cosine():
    # the visual direction scores p . (W x) / (|W^T p| |x|) from W x; it
    # must be cos(x, W^T p) formed in feature space, within 1e-14 (about
    # 45 ulp at 1; measured 5e-16)
    model, data, table = _eval_setup(seed=5, n_unseen=5, d_s=4, d_v=9)
    x = data.features
    decoded = model.decode(table.vectors[:, 2:])
    oracle = (decoded / np.linalg.norm(decoded, axis=0)).T @ (
        x / np.linalg.norm(x, axis=0))
    ids, vecs = inference._candidates(table)
    sims = inference._ranked(
        model, inference._unit_instances(model, x, "visual"), ids, vecs,
        "visual")
    assert np.array_equal(ids, table.class_ids[2:])
    assert np.max(np.abs(sims - oracle)) <= 1e-14
    for j in range(x.shape[1]):
        got = dict(predict(model, x[:, j], table, direction="visual"))
        for row, cid in enumerate(ids):
            assert abs(got[cid] - cosine_similarity(x[:, j], decoded[:, row])
                       ) <= 1e-14


@pytest.mark.parametrize("direction", ["semantic", "visual"])
def test_evaluate_holds_no_feature_sized_temporary(direction):
    # both directions rank from W x (d_s x m): a unit-normalized copy of
    # the features would peak at their size or more
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.standard_normal((512, 1000)),
                          np.repeat(np.arange(2, 6), 250), 6)
    table = _table(rng.standard_normal((5, 6)), [True, True] + [False] * 4)
    model = MappingModel(rng.standard_normal((5, 512)))
    assert _eval_peak(model, data, table, direction) < data.features.nbytes / 4
    # where W x (d_s x m) dominates, it is the only such array: no
    # squared copy for its norms, no divided copy, no masked copy of the
    # similarities
    data = LabeledDataset(rng.standard_normal((8, 4000)),
                          np.repeat(np.arange(2, 12), 400), 12)
    table = _table(rng.standard_normal((85, 12)), [True, True] + [False] * 10)
    model = MappingModel(rng.standard_normal((85, 8)))
    encoding = 85 * 4000 * 8
    assert _eval_peak(model, data, table, direction) < 1.5 * encoding


def _eval_peak(model, data, table, direction):
    tracemalloc.start()
    try:
        evaluate(model, data, table, direction=direction)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("direction", ["semantic", "visual"])
def test_unit_instances_are_the_scaled_encoding(direction, m):
    rng = np.random.default_rng(m)
    x = rng.standard_normal((9, m))
    model = MappingModel(rng.standard_normal((6, 9)))
    mapped = model.encode(x)
    want = mapped / np.linalg.norm(mapped if direction == "semantic" else x,
                                   axis=0)
    unit, zero = inference._unit_instances(model, x, direction)
    np.testing.assert_array_max_ulp(unit, want, maxulp=4)
    assert not zero.any()


def _eval_setup(seed=0, n_unseen=4, per_class=6, d_s=5, d_v=6, noise=0.3):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((d_s, n_unseen + 2))
    seen = [True, True] + [False] * n_unseen
    table = _table(vecs, seen)
    w = rng.standard_normal((d_s, d_v))
    labels = np.repeat(np.arange(2, 2 + n_unseen), per_class)
    # instances that map near their prototype, plus noise
    x = np.linalg.lstsq(w, vecs[:, labels], rcond=None)[0]
    x += noise * rng.standard_normal(x.shape)
    data = LabeledDataset(x, labels, n_unseen + 2)
    return MappingModel(w), data, table


def test_evaluate_exhaustive_k_scores_one():
    model, data, table = _eval_setup()
    report = evaluate(model, data, table, ks=(4,))
    assert report.hit_at[4] == 1.0


def test_evaluate_perfect_mapping():
    # every instance maps exactly onto its prototype: hit@1 = 1, each
    # prototype is hubbed exactly by its own class, skewness 0
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((4, 5))
    table = _table(vecs, [True] + [False] * 4)
    labels = np.repeat(np.arange(1, 5), 3)
    data = LabeledDataset(vecs[:, labels], labels, 5)
    report = evaluate(MappingModel(np.eye(4)), data, table, ks=(1, 2))
    assert report.hit_at[1] == 1.0
    assert report.hubness_skewness == pytest.approx(0.0, abs=1e-9)
    assert all(v == 1.0 for v in report.per_class_accuracy.values())


def test_evaluate_matches_bruteforce_recount():
    model, data, table = _eval_setup(seed=7, noise=0.8)
    ks = (1, 2, 3)
    report = evaluate(model, data, table, ks=ks)
    cand_ids = sorted(int(c) for c in table.unseen_ids)
    hits = {k: 0 for k in ks}
    first = []
    for i in range(data.instance_count):
        mapped = model.encode(data.features[:, i])
        sims = sorted(
            ((cosine_similarity(mapped, table.vectors[:, table.column_of(c)]),
              -c) for c in cand_ids),
            reverse=True,
        )
        order = [-c for _, c in sims]
        first.append(order[0])
        for k in ks:
            hits[k] += int(data.labels[i] in order[:k])
    for k in ks:
        assert report.hit_at[k] == pytest.approx(hits[k] / data.instance_count)
    counts = [first.count(c) for c in cand_ids]
    assert report.hubness_skewness == pytest.approx(skewness(counts))


def test_evaluate_counts_zero_mapped_as_miss():
    vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
    table = _table(vecs, [True, False])
    model = MappingModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # second instance maps to the zero vector
    x = np.array([[1.0, 0.0], [0.5, 1.0]])
    data = LabeledDataset(x, np.array([1, 1]), 2)
    report = evaluate(model, data, table, ks=(1,))
    assert report.zero_mapped == 1
    assert report.instance_count == 2
    # single candidate: the surviving instance hits, the degenerate one
    # is a forced miss
    assert report.hit_at[1] == 0.5
    assert report.per_class_accuracy == {1: 0.5}


@pytest.mark.parametrize("direction", ["semantic", "visual"])
def test_hubness_leaves_out_a_zero_instance(direction):
    # each of three candidates is the nearest of one instance: in-degree
    # (1, 1, 1), skewness 0; the zero instance, counted at any candidate,
    # would make it (2, 1, 1)
    vecs = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                     [1.0, 0.0, 0.0, 1.0]])
    table = _table(vecs, [True, False, False, False])
    model = MappingModel(np.hstack([np.eye(3), np.zeros((3, 1))]))
    x = np.vstack([vecs[:, [1, 2, 3]], np.ones((1, 3))])
    x = np.hstack([x, np.zeros((4, 1))])
    data = LabeledDataset(x, np.array([1, 2, 3, 1]), 4)
    report = evaluate(model, data, table, ks=(1,), direction=direction)
    assert report.zero_mapped == 1
    assert report.hit_at[1] == 0.75
    assert report.hubness_skewness == 0.0
    assert skewness([2, 1, 1]) != 0.0


def test_evaluate_monotone_in_k():
    for seed in range(30):
        model, data, table = _eval_setup(seed=seed, noise=1.5)
        report = evaluate(model, data, table, ks=(1, 2, 3, 4))
        values = [report.hit_at[k] for k in (1, 2, 3, 4)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_ranking_scale_invariance():
    rng = np.random.default_rng(11)
    model, data, table = _eval_setup(seed=4, noise=0.6)
    ranked = predict(model, data.features[:, 0], table)
    # scale one prototype and the instance by positive constants
    scaled_vecs = table.vectors.copy()
    scaled_vecs[:, 3] *= 7.5
    scaled = PrototypeTable(table.class_ids, scaled_vecs, table.seen)
    ranked_scaled = predict(model, 3.2 * data.features[:, 0], scaled)
    assert [c for c, _ in ranked] == [c for c, _ in ranked_scaled]


def test_evaluate_missing_prototype():
    model, data, table = _eval_setup()
    only_first = PrototypeTable(table.class_ids[:3], table.vectors[:, :3],
                                table.seen[:3])
    with pytest.raises(DataError, match="without an unseen prototype"):
        evaluate(model, data, only_first, ks=(1,))


def test_evaluate_rejects_empty():
    _, _, table = _eval_setup()
    empty = LabeledDataset(np.zeros((6, 0)), np.zeros(0, dtype=int), 6)
    with pytest.raises(DataError, match="empty"):
        evaluate(MappingModel(np.eye(5, 6)), empty, table, ks=(1,))


def test_skewness_balanced_is_zero():
    assert skewness([5, 5, 5, 5]) == 0.0
    assert abs(skewness([2, 3, 2, 3])) <= 1e-9 or skewness([2, 3, 2, 3]) == 0.0


def test_skewness_hand_computed():
    # values [0, 0, 3]: m2 = 2, m3 = 2, skew = 2 / 2**1.5
    assert skewness([0.0, 0.0, 3.0]) == pytest.approx(2.0 / 2.0 ** 1.5)


def test_report_serialization(tmp_path):
    model, data, table = _eval_setup(seed=5)
    report = evaluate(model, data, table, ks=(1, 2))
    assert isinstance(report, EvalReport)
    _write_report(report, tmp_path)
    d = json.loads((tmp_path / "report.json").read_text())
    # every field in declaration order; int keys become decimal strings
    assert list(d) == [f.name for f in fields(EvalReport)]
    assert d["hit_at"] == {str(k): v for k, v in report.hit_at.items()}
    assert d["per_class_accuracy"] == {
        str(c): v for c, v in report.per_class_accuracy.items()}
    assert set(d["hit_at"]) == {"1", "2"}
    assert d["instance_count"] == data.instance_count
    for name in ("hubness_skewness", "zero_mapped", "timing_ms"):
        assert d[name] == getattr(report, name)


def _sweep_setup(seed=0, shift=0.1):
    spec = SynthSpec(d_v=16, d_s=6, seen_count=8, unseen_count=3,
                     per_class=5, noise_sigma=0.05, shift_sigma=shift,
                     seed=seed)
    ds, table, _ = synthesize(spec)
    seen, unseen = split(ds, table)
    return seen, unseen, table


def test_sweep_single_k():
    seen, unseen, table = _sweep_setup()
    hp = HyperParams(iterations=2, k=3)
    curve = sweep_k(seen, unseen, table, hp, [4])
    assert list(curve) == [4]
    assert 0.0 <= curve[4] <= 1.0


def test_sweep_flat_when_gamma2_zero():
    seen, unseen, table = _sweep_setup()
    hp = HyperParams(iterations=2, gamma2=0.0, k=3)
    curve = sweep_k(seen, unseen, table, hp, [1, 3, 5, 8])
    values = set(curve.values())
    assert len(values) == 1


def test_sweep_matches_manual_training():
    from zsadjust.trainer import train
    seen, unseen, table = _sweep_setup(seed=2)
    hp = HyperParams(iterations=2, k=3)
    curve = sweep_k(seen, unseen, table, hp, [2, 5])
    for k in (2, 5):
        model, adjusted, _ = train(seen, table, replace(hp, k=k))
        report = evaluate(model, unseen, adjusted, ks=(1,))
        assert curve[k] == report.hit_at[1]


def test_evaluate_exact_tie_goes_to_smaller_id():
    # unseen classes 1 and 2 share one prototype; an instance of class 2
    # maps onto it, and an instance of class 3 ties all three classes
    vecs = np.array([[-1.0, 1.0, 1.0, 0.0],
                     [-1.0, 0.0, 0.0, 1.0]])
    table = _table(vecs, [True, False, False, False])
    data = LabeledDataset(np.array([[2.0, 1.0], [0.0, 1.0]]),
                          np.array([2, 3]), 4)
    report = evaluate(MappingModel(np.eye(2)), data, table, ks=(1, 2, 3))
    assert report.hit_at == {1: 0.0, 2: 0.5, 3: 1.0}
    # both first-rank predictions go to class 1: in-degree (2, 0, 0);
    # ties toward the larger id would give (0, 1, 1)
    assert report.hubness_skewness == pytest.approx(skewness([2, 0, 0]))
    assert skewness([2, 0, 0]) != pytest.approx(skewness([0, 1, 1]))


def test_evaluate_refuses_bad_direction_before_any_work(monkeypatch):
    model, unseen, table = _eval_setup()
    calls = []
    real = inference._unit_instances
    monkeypatch.setattr(inference, "_unit_instances",
                        lambda *a: calls.append(1) or real(*a))
    encodes = []
    real_encode = MappingModel.encode
    monkeypatch.setattr(MappingModel, "encode",
                        lambda *a: encodes.append(1) or real_encode(*a))
    for run in (lambda: evaluate(model, unseen, table, direction="bogus"),
                lambda: predict(model, unseen.features[:, 0], table,
                                direction="bogus")):
        with pytest.raises(ValueError, match="direction"):
            run()
    assert calls == encodes == []


@pytest.mark.parametrize("direction", ["semantic", "visual"])
@pytest.mark.parametrize("fault, message", [
    ("features", "model expects 6-dimensional features, data has 5"),
    ("prototypes",
     "model maps into 5 semantic dimensions, prototypes have 4"),
])
def test_a_model_that_does_not_fit_is_a_data_error(fault, message, direction):
    # the texts of zsadjust eval, from the library entry points
    model, unseen, table = _eval_setup()
    if fault == "features":
        unseen = LabeledDataset(unseen.features[:-1], unseen.labels,
                                unseen.class_count)
    else:
        table = _table(table.vectors[:-1], table.seen)
    for run in (lambda: evaluate(model, unseen, table, direction=direction),
                lambda: predict(model, unseen.features[:, 0], table,
                                direction=direction)):
        with pytest.raises(DataError) as err:
            run()
        assert str(err.value) == message


@pytest.mark.parametrize("statistics", [False, True])
def test_sweep_refuses_unseen_features_of_another_width(statistics,
                                                       monkeypatch):
    from zsadjust import trainer
    from zsadjust.mapping import class_stats
    seen, unseen, table = _sweep_setup()
    narrow = LabeledDataset(unseen.features[:-1], unseen.labels,
                            unseen.class_count)
    solves = []
    real = trainer._solve_rotated
    monkeypatch.setattr(trainer, "_solve_rotated",
                        lambda *a: solves.append(1) or real(*a))
    with pytest.raises(DataError) as err:
        sweep_k(class_stats(seen) if statistics else seen, narrow, table,
                HyperParams(iterations=2, k=3), [1, 3])
    assert str(err.value) == ("unseen features are 15-dimensional, seen "
                              "features 16-dimensional")
    assert solves == []


def _tail_ties(rng, c, m):
    """A model, unseen instances and a table of 2 seen and ``c`` unseen
    classes, all small integers: unseen prototypes copied from one another
    tie exactly, in either direction, and the last instance is zero. W is
    unit upper triangular, so only a zero x maps to zero and no decoded
    prototype is zero."""
    w = np.eye(3) + np.triu(rng.integers(-1, 2, size=(3, 3)), 1)
    vecs = rng.integers(-2, 3, size=(3, c + 2)).astype(float)
    copied = np.flatnonzero(rng.random(c + 2) < 0.4)
    vecs[:, copied] = vecs[:, rng.integers(2, c + 2, size=copied.size)]
    vecs[0, ~vecs.any(axis=0)] = 1.0
    labels = rng.integers(2, c + 2, size=m)
    x = np.linalg.solve(w, vecs[:, labels]) + rng.integers(-1, 2, (3, m))
    x[:, -1] = 0.0
    return (MappingModel(w), LabeledDataset(x, labels, c + 2),
            _table(vecs, np.arange(c + 2) < 2))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(seed=st.integers(0, 2**16), c=st.integers(1, 5), m=st.integers(1, 10),
       distinct=st.booleans(), stray_nan=st.booleans(),
       direction=st.sampled_from(["semantic", "visual"]))
def test_ranking_tail_matches_mask_oracle(seed, c, m, distinct, stray_nan,
                                          direction):
    # A similarity block as _ranked leaves it, drawn from five values (ties
    # between candidates, with the true class at a smaller and at a larger
    # row, and -0.0 against 0.0) or distinct ones, where no tie is counted.
    # A zero instance's column is all NaN; a stray NaN in another column is
    # that column's argmax, as np.argmax takes it.
    rng = np.random.default_rng(seed)
    sims = (rng.standard_normal((c, m)) if distinct
            else rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(c, m)))
    sims[:, rng.random(m) < 0.25] = np.nan
    if stray_nan:
        sims[rng.integers(c), rng.integers(m)] = np.nan
    rows = rng.integers(0, c, size=m)
    rank_of, zero = inference._true_ranks(sims, rows)
    want_rank, want_zero = mask_true_ranks(sims, rows)
    assert np.array_equal(rank_of, want_rank)
    assert np.array_equal(zero, want_zero)
    first = inference._first_max(sims)
    assert np.array_equal(first, np.argmax(sims, axis=0))
    assert np.array_equal(np.bincount(first[~zero], minlength=c),
                          argmax_in_degree(sims, zero))

    # evaluate, against the same call through the oracle tail
    model, unseen, table = _tail_ties(rng, c, m + 1)
    got = evaluate(model, unseen, table, ks=(1, 2), direction=direction)
    with mock.patch.object(inference, "_true_ranks", mask_true_ranks), \
            mock.patch.object(inference, "_first_max",
                              lambda sims: np.argmax(sims, axis=0)):
        want = evaluate(model, unseen, table, ks=(1, 2), direction=direction)
    assert got.zero_mapped >= 1
    assert replace(got, timing_ms=0.0) == replace(want, timing_ms=0.0)

