"""Class statistics computed once per dataset: repeated trainings, a
k-sweep and a benchmark on one dataset reuse its Gram product and
eigh(d_v), and give the results of a fresh dataset."""

from dataclasses import replace

import numpy as np
import pytest

import zsadjust.mapping
from zsadjust.data import LabeledDataset, SynthSpec, split, synthesize
from zsadjust.inference import sweep_k
from zsadjust.mapping import HyperParams
from zsadjust.trainer import benchmark_training, train

D_V = 16    # no other eigendecomposition of these runs has this size
FULL = HyperParams(k=3, iterations=3, tol=0.0)
ABLATION = replace(FULL, gamma1=0.0, gamma2=0.0, alpha=0.0)


def _data():
    dataset, table, _ = synthesize(SynthSpec(
        d_v=D_V, d_s=6, seen_count=8, unseen_count=3, per_class=5,
        noise_sigma=0.05, shift_sigma=0.1))
    seen, unseen = split(dataset, table)
    return seen, unseen, table


def _fresh(data):
    """A new dataset over copies of the arrays of ``data``."""
    return LabeledDataset(data.features.copy(), data.labels.copy(),
                          data.class_count)


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``mapping._stats_of_blocks`` calls and of d_v-sized
    ``mapping.sym_eig`` calls."""
    counts = {"stats": 0, "eig": 0}
    real_stats = zsadjust.mapping._stats_of_blocks
    real_eig = zsadjust.mapping.sym_eig

    def stats(*args, **kwargs):
        counts["stats"] += 1
        return real_stats(*args, **kwargs)

    def eig(a, *args, **kwargs):
        counts["eig"] += a.shape[0] == D_V
        return real_eig(a, *args, **kwargs)

    monkeypatch.setattr(zsadjust.mapping, "_stats_of_blocks", stats)
    monkeypatch.setattr(zsadjust.mapping, "sym_eig", eig)
    return counts


def _records(trace):
    return [(r.iteration, r.objective, r.w_delta, r.seen_shift,
             r.unseen_shift) for r in trace.records]


@pytest.mark.parametrize("runs", [(FULL, FULL), (FULL, ABLATION),
                                  (ABLATION, FULL)],
                         ids=["full-full", "full-ablation", "ablation-full"])
def test_two_trainings_compute_the_statistics_once(calls, runs):
    seen, _, table = _data()
    results = [train(seen, table, hp) for hp in runs]
    assert calls == {"stats": 1, "eig": 1}
    kept = zsadjust.mapping.class_stats(seen)
    for a in (kept.counts, kept.sums, kept.gram):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    for hp, (model, adjusted, trace) in zip(runs, results):
        want_model, want_adjusted, want_trace = train(_fresh(seen), table, hp)
        assert np.array_equal(model.weights, want_model.weights)
        assert np.array_equal(adjusted.vectors, want_adjusted.vectors)
        assert _records(trace) == _records(want_trace)


def test_sweep_after_train_reuses_the_eigendecomposition(calls):
    seen, unseen, table = _data()
    train(seen, table, FULL)
    calls.update(stats=0, eig=0)
    curve = sweep_k(seen, unseen, table, FULL, [1, 2, 3])
    assert calls == {"stats": 0, "eig": 0}
    assert curve == sweep_k(_fresh(seen), unseen, table, FULL, [1, 2, 3])


def test_benchmark_computes_the_statistics_in_every_repeat(calls):
    seen, _, table = _data()
    train(seen, table, FULL)
    calls.update(stats=0, eig=0)
    result = benchmark_training((seen, table), FULL, repeats=3)
    assert len(result.runs_ms) == 3
    assert calls == {"stats": 3, "eig": 3}
    # the repeats train on their own copies: seen keeps what train kept
    calls.update(stats=0, eig=0)
    train(seen, table, ABLATION)
    assert calls == {"stats": 0, "eig": 0}
