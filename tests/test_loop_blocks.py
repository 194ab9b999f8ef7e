"""The training loop carries prototype blocks, not tables.

``trainer._alternate`` gathers the seen block (in class id order) and
the unseen block once, then blends, searches and solves on arrays and
builds tables only for what it returns, none when untraced. Against the
table-level loop of ``oracles.table_loop`` it must give the same bits:
weights, adjusted tables, weight changes, objectives and both shifts,
whatever the order of the table's columns.
"""

import weakref
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from zsadjust import trainer
from zsadjust.data import LabeledDataset, PrototypeTable, SynthSpec, split, \
    synthesize
from zsadjust.errors import DataError, SolverError
from zsadjust.mapping import HyperParams, class_stats
from zsadjust.trainer import _alternate, train

from oracles import table_loop


@lru_cache(maxsize=None)
def _data(seed, shuffled):
    spec = SynthSpec(d_v=12, d_s=8, seen_count=6, unseen_count=5,
                     per_class=4, noise_sigma=0.3, shift_sigma=0.4,
                     seed=seed)
    dataset, table, _ = synthesize(spec)
    seen, _ = split(dataset, table)
    if shuffled:
        perm = np.random.default_rng(seed).permutation(table.class_ids.size)
        table = PrototypeTable(table.class_ids[perm], table.vectors[:, perm],
                               table.seen[perm])
        assert not np.all(np.diff(table.seen_ids) > 0)
    return seen, table


def _outcome(run):
    try:
        return run()
    except (DataError, SolverError) as exc:
        return type(exc), str(exc)


def _assert_matches_table_loop(seen, table, hp, neighbors):
    want_w, want_adj, want_seen, want_records = table_loop(
        seen, table, hp, neighbors)
    model, adjusted, trace = train(seen, table, hp,
                                   unseen_neighbors=neighbors)
    assert np.array_equal(model.weights, want_w)
    assert np.array_equal(adjusted.class_ids, want_adj.class_ids)
    assert np.array_equal(adjusted.seen, want_adj.seen)
    assert np.array_equal(adjusted.vectors, want_adj.vectors)
    assert len(trace) == len(want_records)
    for rec, (obj, delta, seen_shift, unseen_shift) in zip(trace.records,
                                                          want_records):
        assert rec.objective == obj
        assert rec.w_delta == delta
        assert rec.seen_shift == seen_shift
        assert rec.unseen_shift == unseen_shift

    bare_w, table_back, bare_adj, bare_records = table_loop(
        seen, table, hp, neighbors, trace=False)
    bare, no_table, no_trace, source = _alternate(seen, table, hp,
                                                  neighbors, trace=False)
    assert table_back is table
    assert no_table is None     # untraced, the loop builds no table
    assert len(no_trace) == len(bare_records) == 0
    assert np.array_equal(bare.weights, bare_w)
    assert np.array_equal(bare.weights, want_w)
    assert (source is None) == (bare_adj is None)
    if source is not None:
        # the seen block in id order of the table that the last search
        # read
        searched = table if neighbors == "original" else bare_adj
        assert np.array_equal(source, searched.vectors[:, searched.seen][
            :, np.argsort(searched.seen_ids)])
    return trace


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("gamma1, gamma2", [(0.0, 0.0), (0.0, 0.2),
                                            (0.25, 0.0), (0.25, 0.2)])
@pytest.mark.parametrize("neighbors", ["adjusted", "original"])
@pytest.mark.parametrize("seed", range(3))
def test_loop_matches_table_loop(seed, neighbors, gamma1, gamma2, shuffled):
    seen, table = _data(seed, shuffled)
    for tol, iterations in ((0.0, 4), (1e-2, 8)):
        hp = HyperParams(gamma1=gamma1, gamma2=gamma2, k=3, tol=tol,
                         iterations=iterations)
        for source in (seen, class_stats(seen)):
            trace = _assert_matches_table_loop(source, table, hp, neighbors)
            if tol == 0.0:
                assert len(trace) == iterations


def test_tol_stops_early_with_both_blends():
    seen, table = _data(0, True)
    hp = HyperParams(k=3, tol=1e-2, iterations=8)
    trace = _assert_matches_table_loop(seen, table, hp, "adjusted")
    assert 1 < len(trace) < hp.iterations


@pytest.mark.parametrize("neighbors", ["adjusted", "original"])
@pytest.mark.parametrize("shuffled", [False, True])
def test_gamma1_zero_trains_without_a_seen_class(neighbors, shuffled):
    # the solve uses the classes with data, the search every seen
    # prototype; with the seen blend on, the class is refused
    seen, table = _data(1, shuffled)
    keep = seen.labels != 2
    partial = LabeledDataset(seen.features[:, keep], seen.labels[keep],
                             seen.class_count)
    hp = HyperParams(gamma1=0.0, k=3, tol=0.0)
    for source in (partial, class_stats(partial)):
        _assert_matches_table_loop(source, table, hp, neighbors)
    with pytest.raises(DataError, match=r"without instances: \[2\]"):
        train(partial, table, replace(hp, gamma1=0.25),
              unseen_neighbors=neighbors)


# lambda1 overflows the seen blend, k=9 is beyond the 6 seen classes,
# lambda2 overflows the unseen blend and alpha overflows the normal
# equation of every solve but the initial one (which has alpha = 0)
_SEEN_BAD = dict(lambda1=1e308)
_K_BAD = dict(k=9)
_UNSEEN_BAD = dict(lambda2=1e308, gamma2=1e308)
_SOLVE_BAD = dict(alpha=1e308)


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("bad", [
    _SEEN_BAD, _K_BAD, _UNSEEN_BAD, _SOLVE_BAD,
    {**_SEEN_BAD, **_K_BAD, **_UNSEEN_BAD, **_SOLVE_BAD},
    {**_K_BAD, **_UNSEEN_BAD, **_SOLVE_BAD},
    {**_UNSEEN_BAD, **_SOLVE_BAD},
])
def test_errors_keep_their_text_and_order(bad, shuffled):
    seen, table = _data(2, shuffled)
    hp = HyperParams(**{"k": 3, "tol": 0.0, **bad})
    want = _outcome(lambda: table_loop(seen, table, hp))
    got = _outcome(lambda: train(seen, table, hp))
    assert isinstance(want, tuple) and len(want) == 2
    assert got == want


def _counting(calls):
    """Patches that count the calls of ``expand_per_instance`` in the
    loop and every PrototypeTable built, checked or not."""
    checked = PrototypeTable._of_checked.__func__
    post_init = PrototypeTable.__post_init__
    expand = trainer.expand_per_instance

    def of_checked(cls, *args):
        calls["tables"] += 1
        return checked(cls, *args)

    def counted_post_init(self):
        calls["tables"] += 1
        return post_init(self)

    def counted_expand(*args):
        calls["expand_per_instance"] += 1
        return expand(*args)

    return [mock.patch.object(PrototypeTable, "_of_checked",
                              classmethod(of_checked)),
            mock.patch.object(PrototypeTable, "__post_init__",
                              counted_post_init),
            mock.patch.object(trainer, "expand_per_instance", counted_expand)]


@pytest.mark.parametrize("neighbors", ["adjusted", "original"])
def test_iterations_build_no_tables(neighbors):
    seen, table = _data(0, True)
    counts = []
    for iterations in (1, 5):
        calls = Counter()
        patches = _counting(calls)
        for patch in patches:
            patch.start()
        try:
            _, _, trace = train(seen, table, HyperParams(
                k=3, tol=0.0, iterations=iterations),
                unseen_neighbors=neighbors)
        finally:
            for patch in patches:
                patch.stop()
        assert len(trace) == iterations
        assert calls["expand_per_instance"] <= 1
        counts.append(calls["tables"])
    assert counts[0] == counts[1] == 2  # the seen-adjusted and the result


def _spying(blocks, alive):
    """Patches that keep a weak reference to each block the loop makes
    and, at each solve, note which of them are alive. ``blocks`` gets
    ``(kind, iteration, ref)`` for the initial gather (iteration 0), each
    seen blend, each unseen blend and the prototypes of each solve;
    ``alive`` gets, per solve, the ``(kind, iteration)`` of the blocks
    alive when it starts."""
    def spy(kind, fn):
        def wrapped(*args):
            it = len(alive)     # the solves so far: the iteration number
            if kind == "solve":
                alive.append({(k, i) for k, i, ref in blocks
                              if ref() is not None})
                blocks.append((kind, it, weakref.ref(args[1])))
                return fn(*args)
            out = fn(*args)
            blocks.append((kind, it, weakref.ref(out)))
            return out
        return wrapped

    return [mock.patch.object(trainer, name, spy(kind, getattr(trainer, name)))
            for name, kind in (("expand_per_instance", "gather"),
                               ("_blend", "seen"),
                               ("_blend_neighbors", "unseen"),
                               ("_solve_rotated", "solve"))]


@pytest.mark.parametrize("trace", [True, False])
@pytest.mark.parametrize("gamma1", [0.25, 0.0])
@pytest.mark.parametrize("neighbors", ["adjusted", "original"])
def test_each_solve_holds_only_the_current_blocks(neighbors, gamma1, trace):
    # at every solve after the first seen blend, the initial gather and
    # every earlier block, the earlier solves' prototypes too, are
    # garbage; with gamma1 = 0 the gather is the objective's prototype
    # block and stays. A search among the original seen block (with
    # "original", or gamma1 = 0) runs in the first iteration only, and its
    # blend stays
    seen, table = _data(0, True)
    hp = HyperParams(gamma1=gamma1, k=3, tol=0.0, iterations=4)
    blocks, alive = [], []
    patches = _spying(blocks, alive)
    for patch in patches:
        patch.start()
    try:
        _alternate(class_stats(seen), table, hp, neighbors, trace=trace)
    finally:
        for patch in patches:
            patch.stop()
    assert len(alive) == hp.iterations + 1
    assert alive[0] == {("gather", 0)}
    for it in range(1, hp.iterations + 1):
        want = {("seen", it) if gamma1 else ("gather", 0)}
        if trace:
            want.add(("unseen", it if neighbors == "adjusted" and gamma1
                      else 1))
        assert alive[it] == want
