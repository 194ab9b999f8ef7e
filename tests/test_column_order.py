"""No result depends on the order in which a table lists its classes.

The adjustment is defined class by class, and every function gathers a
table's sides in class id order. So training, scoring, prediction, the
adjustments and the k-sweep give the same bits on a table and on any
column permutation of it: the weights, every trace and report field but
the timings, the adjusted prototypes of each class and the text of an
error that names classes. Each lookup of a class id that the table or
the data lacks names the missing ids in ascending order.
"""

from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from zsadjust.adjustment import adjust_seen, adjust_unseen
from zsadjust.cli import main
from zsadjust.data import (
    LabeledDataset,
    PrototypeTable,
    SynthSpec,
    save_labels,
    save_matrix,
    save_prototypes,
    split,
    synthesize,
)
from zsadjust.errors import DataError
from zsadjust.inference import evaluate, predict, sweep_k
from zsadjust.mapping import HyperParams, expand_per_instance
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


def _without(table, *class_ids):
    keep = ~np.isin(table.class_ids, class_ids)
    return PrototypeTable(table.class_ids[keep], table.vectors[:, keep],
                          table.seen[keep])


def _fewer(seen, *class_ids):
    keep = ~np.isin(seen.labels, class_ids)
    return LabeledDataset(seen.features[:, keep], seen.labels[keep],
                          seen.class_count)


def _train_cli(c, table):
    """``zsadjust train`` on files of ``c.dataset`` and ``table``: it must
    exit 2 with no traceback, and its first stderr line, without the
    "data error: " prefix, is raised as the DataError it reports."""
    paths = [str(c.tmp_path / name) for name in
             ("features.zsm", "labels.txt", "prototypes.zsm", "partition.txt")]
    save_matrix(paths[0], c.dataset.features)
    save_labels(paths[1], c.dataset.labels)
    save_prototypes(table, *paths[2:])
    flags = ("--features", "--labels", "--prototypes", "--partition")
    code = main(["train", *(a for pair in zip(flags, paths) for a in pair),
                 "--out", str(c.tmp_path / "run")])
    err = c.capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    raise DataError(err.splitlines()[0].removeprefix("data error: "))


# The small spec's classes 0-5 are seen and 6-10 unseen. Each site is a
# call of the test's namespace and the whole text of its DataError.
HP = HyperParams(k=3, iterations=2)
LOOKUPS = {
    "split": (lambda c: split(c.dataset, _without(c.table, 9, 7)),
              "labels without a prototype: [7, 9]"),
    "cli": (lambda c: _train_cli(c, _without(c.table, 9, 7)),
            "labels without a prototype: [7, 9]"),
    "expand_per_instance": (lambda c: expand_per_instance(
        _without(c.table, 9, 7), c.dataset.labels),
        "labels without a prototype: [7, 9]"),
    "train on unseen classes": (
        lambda c: train(c.dataset, c.table, HP),
        "seen data of unseen classes [6, 7, 8, 9, 10]"),
    "adjust_seen without instances": (lambda c: adjust_seen(
        c.table, c.model, _fewer(c.seen, 4, 1), HP),
        "seen classes without instances: [1, 4]"),
    # a dataset of no columns: no class ids to look the seen ones up in
    "adjust_seen of no instances": (lambda c: adjust_seen(
        c.table, c.model, _fewer(c.seen, *range(6)), HP),
        "seen classes without instances: [0, 1, 2, 3, 4, 5]"),
    "train without instances": (lambda c: train(
        _fewer(c.seen, 4, 1), c.table, HP),
        "seen classes without instances: [1, 4]"),
    "evaluate": (lambda c: evaluate(c.model, c.unseen,
                                    _without(c.table, 9, 7)),
                 "labels without an unseen prototype: [7, 9]"),
    "sweep_k": (lambda c: sweep_k(c.seen, c.unseen, _without(c.table, 9, 7),
                                  HP, [1, 3]),
                "labels without an unseen prototype: [7, 9]"),
}


@pytest.mark.parametrize("permuted", [False, True])
@pytest.mark.parametrize("site", LOOKUPS)
def test_missing_class_ids_are_named_in_ascending_order(tmp_path, capsys,
                                                        site, permuted):
    dataset, table, _ = synthesize(SPECS["small"])
    seen, unseen = split(dataset, table)
    c = SimpleNamespace(tmp_path=tmp_path, capsys=capsys, dataset=dataset,
                        seen=seen, unseen=unseen,
                        table=_permuted(table, 0) if permuted else table,
                        model=train(seen, table, HP)[0])
    call, message = LOOKUPS[site]
    with pytest.raises(DataError) as exc:
        call(c)
    assert str(exc.value) == message
