"""A k-sweep trains once.

Only the seen prototypes reach the weight solves, so the weights, the
seen-adjusted prototypes and the stopping iteration do not depend on k,
and ``sweep_k`` blends each k's unseen prototypes from one training.
The property test requires that to equal one ``train`` per k: the same
Hit@1, the same weights and prototypes scored, the same error.
"""

from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsadjust import inference
from zsadjust.data import SynthSpec, split, synthesize
from zsadjust.errors import DataError
from zsadjust.inference import evaluate, sweep_k
from zsadjust.mapping import HyperParams
from zsadjust.trainer import train

SEEN = 6


@lru_cache(maxsize=None)
def _data(seed):
    spec = SynthSpec(d_v=12, d_s=8, seen_count=SEEN, unseen_count=5,
                     per_class=6, noise_sigma=0.3, shift_sigma=0.4,
                     seed=seed)
    dataset, table, _ = synthesize(spec)
    seen, unseen = split(dataset, table)
    return seen, unseen, table


def _scored(run):
    """The result of ``run()`` (or the message of its DataError) and
    the weights and prototypes of every ``evaluate`` call it made."""
    calls = []

    def spy(model, unseen, table, **kwargs):
        calls.append((model.weights, table.vectors))
        return evaluate(model, unseen, table, **kwargs)

    with mock.patch.object(inference, "evaluate", spy):
        try:
            return run(), calls
        except DataError as exc:
            return str(exc), calls


def _train_per_k(seen, unseen, table, hp, k_values, **train_kwargs):
    out = {}
    for k in k_values:
        model, adjusted, _ = train(seen, table, replace(hp, k=k),
                                   **train_kwargs)
        out[k] = inference.evaluate(model, unseen, adjusted,
                                    ks=(1,)).hit_at[1]
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=st.integers(0, 2),
       k_values=st.lists(st.integers(1, SEEN + 2), min_size=1, max_size=5),
       gamma1=st.sampled_from([0.0, 0.25, 0.6]),
       gamma2=st.sampled_from([0.0, 0.2, 0.6]),
       iterations=st.integers(0, 4),
       tol=st.sampled_from([0.0, 1e-2]),
       neighbors=st.sampled_from(["adjusted", "original"]))
def test_sweep_equals_one_train_per_k(seed, k_values, gamma1, gamma2,
                                      iterations, tol, neighbors):
    # k > SEEN is oversized: both raise the DataError of the first such
    # k in the list, or neither does; every k scored before it is scored
    # on the same weights and prototypes
    seen, unseen, table = _data(seed)
    hp = HyperParams(gamma1=gamma1, gamma2=gamma2, iterations=iterations,
                     tol=tol)
    got, got_calls = _scored(lambda: sweep_k(
        seen, unseen, table, hp, k_values, unseen_neighbors=neighbors))
    want, want_calls = _scored(lambda: _train_per_k(
        seen, unseen, table, hp, k_values, unseen_neighbors=neighbors))
    assert got == want
    if isinstance(got, dict):
        assert list(got) == list(want)
    assert len(got_calls) == len(want_calls)
    for (w, p), (w_want, p_want) in zip(got_calls, want_calls):
        assert np.array_equal(w, w_want)
        assert np.array_equal(p, p_want)


@pytest.mark.parametrize("tol, stops_at", [(0.0, 6), (1e-2, 3)])
@pytest.mark.parametrize("neighbors", ["adjusted", "original"])
def test_weights_do_not_depend_on_k(tol, stops_at, neighbors):
    seen, _, table = _data(0)
    hp = HyperParams(iterations=6, tol=tol)
    runs = [train(seen, table, replace(hp, k=k), unseen_neighbors=neighbors)
            for k in range(1, SEEN + 1)]
    model0, adjusted0, trace0 = runs[0]
    assert len(trace0) == stops_at
    for model, adjusted, trace in runs[1:]:
        assert np.array_equal(model.weights, model0.weights)
        assert np.array_equal(adjusted.vectors[:, table.seen],
                              adjusted0.vectors[:, table.seen])
        assert [r.objective for r in trace.records] == \
            [r.objective for r in trace0.records]
    # the unseen blend, and only it, does depend on k
    assert not np.array_equal(runs[-1][1].vectors, adjusted0.vectors)
