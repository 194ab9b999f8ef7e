"""A k-sweep trains once.

Only the seen prototypes reach the weight solves, so the weights, the
seen-adjusted prototypes and the stopping iteration do not depend on k,
and ``sweep_k`` blends each k's unseen prototypes from one training.
The property test requires that to equal one ``train`` per k: the same
Hit@1, the same weights and prototypes scored, the same error.
"""

from collections import Counter
import contextlib
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsadjust import adjustment, inference, trainer
from zsadjust.data import PrototypeTable, SynthSpec, split, synthesize
from zsadjust.errors import DataError
from zsadjust.inference import sweep_k
from zsadjust.mapping import HyperParams, MappingModel, class_stats
from zsadjust.trainer import _alternate, train

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
    the weights, candidate ids and candidate prototypes of every ranking
    it ran (the step that ``evaluate`` and ``sweep_k`` share)."""
    calls = []
    rank = inference._ranked

    def spy(model, instances, ids, vecs, direction):
        calls.append((model.weights, ids, vecs))
        return rank(model, instances, ids, vecs, direction)

    with mock.patch.object(inference, "_ranked", spy):
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
    for got_call, want_call in zip(got_calls, want_calls):
        for got_array, want_array in zip(got_call, want_call):
            assert np.array_equal(got_array, want_array)


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


def _counted(calls, owner, name):
    """Patch ``owner.name`` with a wrapper that counts its calls under
    ``"<owner>.<name>"``, the owner's last dotted name part."""
    real = getattr(owner, name)
    key = f"{owner.__name__.rpartition('.')[2]}.{name}"

    def spy(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)

    return mock.patch.object(owner, name, spy)


@pytest.mark.parametrize("k_values", [[3], [1, 2], [5, 1, 6, 2, 4, 3]])
@pytest.mark.parametrize("statistics", [False, True])
def test_sweep_searches_once_and_encodes_once(k_values, statistics):
    seen, unseen, table = _data(1)
    hp = HyperParams(iterations=3, tol=0.0)
    calls = Counter()
    spies = [(inference, "_nearest"), (MappingModel, "encode"),
             (trainer, "objective"), (trainer, "_objective"),
             (trainer, "_nearest"), (trainer, "_blend_neighbors"),
             (trainer, "_solve_rotated"), (inference, "_ranked"),
             (trainer, "_side"), (adjustment, "_side"), (inference, "_side"),
             (inference, "_rows"), (inference, "_blend_neighbors")]
    with contextlib.ExitStack() as stack:
        for owner, name in spies:
            stack.enter_context(_counted(calls, owner, name))
        got = sweep_k(class_stats(seen) if statistics else seen, unseen,
                      table, hp, k_values)
    # no objective and no unseen blend in the training: 4 solves only;
    # one gather per side (the loop's seen block, the sweep's unseen
    # block), one search and one label check; each k is blended and
    # ranked once
    assert calls == Counter({
        "inference._nearest": 1, "MappingModel.encode": 1,
        "trainer._solve_rotated": 4, "inference._ranked": len(k_values),
        "trainer._side": 1, "inference._side": 1,
        "inference._rows": 1,
        "inference._blend_neighbors": len(k_values)})
    assert got == _train_per_k(seen, unseen, table, hp, k_values)


@pytest.mark.parametrize("tol, solves", [(0.0, 7), (1e-2, 4)])
@pytest.mark.parametrize("neighbors", ["adjusted", "original"])
@pytest.mark.parametrize("gamma1", [0.0, 0.25])
def test_loop_without_trace_gives_trains_tables(tol, solves, neighbors,
                                                gamma1):
    # the same weights, searched seen block and stopping iteration as the
    # traced loop, and no table: no caller of the untraced loop reads one
    seen, _, table = _data(2)
    hp = HyperParams(gamma1=gamma1, iterations=6, tol=tol, k=3)
    runs = []
    for trace in (True, False):
        calls = Counter()
        with _counted(calls, trainer, "_solve_rotated"):
            runs.append((_alternate(seen, table, hp, neighbors, trace=trace),
                         calls["trainer._solve_rotated"]))
    (model, adjusted, records, source), traced = runs[0]
    (bare, no_table, no_records, bare_source), untraced = runs[1]
    assert traced == untraced == solves
    assert len(records) == solves - 1 and len(no_records) == 0
    assert no_table is None
    assert np.array_equal(bare_source, source)
    assert np.array_equal(bare.weights, model.weights)
    if neighbors == "adjusted":
        # the block searched last is train's seen side, in id order
        assert np.array_equal(bare_source, adjusted.vectors[
            :, table.seen][:, np.argsort(table.seen_ids)])


def test_bad_direction_is_refused_before_training():
    seen, unseen, table = _data(0)
    calls = Counter()
    with _counted(calls, trainer, "_solve_rotated"), \
            _counted(calls, trainer, "class_stats"):
        with pytest.raises(ValueError, match="direction"):
            sweep_k(seen, unseen, table, HyperParams(iterations=5), [1, 3],
                    direction="bogus")
    assert calls == Counter()


@pytest.mark.parametrize("k_values", [[1, 3], [SEEN + 1, 1]])
def test_label_fault_comes_before_any_k(k_values):
    # a label without an unseen prototype does not depend on k: it is found
    # once, before the first k is blended, an oversized k included
    seen, unseen, table = _data(0)
    label = int(unseen.labels[0])
    keep = table.class_ids != label
    partial = PrototypeTable(table.class_ids[keep], table.vectors[:, keep],
                             table.seen[keep])
    calls = Counter()
    with _counted(calls, inference, "_blend_neighbors"), \
            _counted(calls, inference, "_rows"):
        with pytest.raises(DataError, match=rf"labels without an unseen "
                                            rf"prototype: \[{label}\]$"):
            sweep_k(seen, unseen, partial, HyperParams(iterations=2),
                    k_values)
    assert calls == Counter({"inference._rows": 1})
