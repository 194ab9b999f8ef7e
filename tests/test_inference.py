import json
from dataclasses import fields, replace

import numpy as np
import pytest

from zsadjust import inference
from zsadjust.cli import _write_report
from zsadjust.data import LabeledDataset, PrototypeTable, SynthSpec, split, synthesize
from zsadjust.errors import DataError
from zsadjust.inference import EvalReport, evaluate, predict, skewness, sweep_k
from zsadjust.mapping import HyperParams, MappingModel

from oracles import cosine_similarity


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
            ((cosine_similarity(mapped, table.vector(c)), -c) for c in cand_ids),
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
