"""No result depends on the order in which a table lists its classes.

The adjustment is defined class by class, and every function gathers a
table's sides in class id order. So training, scoring, prediction, the
adjustments and the k-sweep give the same bits on a table and on any
column permutation of it: the weights, every trace and report field but
the timings, the adjusted prototypes of each class and the text of an
error that names classes.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

from zsadjust.adjustment import adjust_seen, adjust_unseen
from zsadjust.data import PrototypeTable, SynthSpec, split, synthesize
from zsadjust.errors import DataError
from zsadjust.inference import evaluate, predict, sweep_k
from zsadjust.mapping import HyperParams
from zsadjust.trainer import train

SPECS = {
    "small": SynthSpec(d_v=12, d_s=8, seen_count=6, unseen_count=5,
                       per_class=4, noise_sigma=0.3, shift_sigma=0.4,
                       seed=3),
    # a column-permuted copy changed iteration 2's unseen shift here
    "wide": SynthSpec(d_v=32, d_s=24, seen_count=60, unseen_count=40,
                      per_class=2, noise_sigma=0.3, shift_sigma=0.4,
                      seed=0),
}


def _permuted(table, seed):
    perm = np.random.default_rng(seed).permutation(table.class_ids.size)
    out = PrototypeTable(table.class_ids[perm], table.vectors[:, perm],
                         table.seen[perm])
    assert not np.all(np.diff(out.class_ids) > 0)
    return out


def _by_id(table):
    order = np.argsort(table.class_ids)
    return table.class_ids[order], table.vectors[:, order], table.seen[order]


def _outputs(seen, unseen, table, hp, neighbors):
    """Every output of the package on ``table``, with class-indexed arrays
    in class id order and timings left out."""
    model, adjusted, trace = train(seen, table, hp,
                                   unseen_neighbors=neighbors)
    out = {"weights": model.weights, "adjusted": _by_id(adjusted),
           "records": [replace(r, ms=0.0) for r in trace.records]}
    for direction in ("semantic", "visual"):
        report = evaluate(model, unseen, adjusted, ks=(1, 2, 5),
                          direction=direction)
        out[f"evaluate {direction}"] = asdict(replace(report, timing_ms=0.0))
        out[f"predict {direction}"] = [
            predict(model, unseen.features[:, j], adjusted, direction)
            for j in range(0, unseen.instance_count, 5)]
        out[f"sweep {direction}"] = sweep_k(
            seen, unseen, table, hp, [1, 3, 2, 5], direction=direction,
            unseen_neighbors=neighbors)
    out["adjust_unseen"] = _by_id(adjust_unseen(table, hp))
    out["adjust_unseen neighbors"] = _by_id(
        adjust_unseen(adjusted, hp, neighbors=table))
    out["adjust_seen"] = _by_id(adjust_seen(table, model, seen, hp))
    for name, bad in (("seen blend", dict(lambda1=1e308)),
                      ("unseen blend", dict(lambda2=1e308, gamma2=1e308))):
        with pytest.raises(DataError) as exc:
            train(seen, table, replace(hp, **bad), unseen_neighbors=neighbors)
        out[f"{name} error"] = str(exc.value)
    return out


def _assert_same(got, want):
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("neighbors", ["adjusted", "original"])
@pytest.mark.parametrize("spec", list(SPECS))
def test_outputs_do_not_depend_on_column_order(spec, neighbors):
    dataset, table, _ = synthesize(SPECS[spec])
    seen, unseen = split(dataset, table)
    hp = HyperParams(k=3, tol=0.0, iterations=3)
    want = _outputs(seen, unseen, table, hp, neighbors)
    assert len(want["records"]) == hp.iterations
    for seed in range(2):
        _assert_same(_outputs(seen, unseen, _permuted(table, seed), hp,
                              neighbors), want)
