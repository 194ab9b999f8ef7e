"""One row per fault: each input that must fail does so with its exit code
(or exception type) and message, and prints no traceback."""

import numpy as np
import pytest

from zsadjust.adjustment import adjust_seen, adjust_unseen, knn_seen
from zsadjust.cli import main
from zsadjust.data import (
    LabeledDataset,
    PrototypeTable,
    load_matrix,
    save_labels,
    save_matrix,
    save_prototypes,
    split,
    synthesize,
)
from zsadjust.errors import DataError, SolverError
from zsadjust.inference import evaluate, predict, sweep_k
from zsadjust.linalg import SylvesterSystem, as_matrix, solve_sylvester
from zsadjust.mapping import (
    HyperParams,
    MappingModel,
    class_centroids,
    class_mean_map,
    class_stats,
    expand_per_instance,
    objective,
    objective_gradient,
)
from zsadjust.trainer import benchmark_training, train

# lambda1 = 0 and gamma1 = 1 make the seen prototypes W xbar_c, of rank 2
# for features of rank 2: the first re-solve meets a zero pivot pair
RANK_TWO_HP = HyperParams(lambda1=0.0, gamma1=1.0, k=2, iterations=2)


def _rank_two(seen_ids=range(6), unseen_ids=range(6, 8)):
    """Features of rank 2 in d_v = 8, 3 instances per class, and a d_s = 4
    table of 6 seen and 2 unseen classes."""
    rng = np.random.default_rng(0)
    labels = np.repeat([*seen_ids, *unseen_ids], 3)
    x = rng.standard_normal((8, 2)) @ rng.standard_normal((2, labels.size))
    table = PrototypeTable(np.arange(8), rng.standard_normal((4, 8)),
                           np.arange(8) < 6)
    return LabeledDataset(x, labels, 8), table


def _files(tmp_path, **ids):
    data, table = _rank_two(**ids)
    paths = {name: str(tmp_path / name) for name in
             ("features.zsm", "labels.txt", "prototypes.zsm", "partition.txt")}
    save_matrix(paths["features.zsm"], data.features)
    save_labels(paths["labels.txt"], data.labels)
    save_prototypes(table, paths["prototypes.zsm"], paths["partition.txt"])
    return [arg for name, path in paths.items()
            for arg in (f"--{name.split('.')[0]}", path)]


CLI_FAULTS = [
    # (argv before --out, files kwargs or None, exit code, stderr prefix)
    (["train", "--ridge-retry", "maybe"], None, 1,
     "configuration error: bad value for --ridge-retry: not a boolean: "
     "'maybe'"),
    (["train", "--ridge-retry", "false", "--lambda1", "0", "--gamma1", "1",
      "--k", "2"], {}, 3,
     "solver error: iteration 1: singular eigenvalue pair"),
    (["train", "--config", "no-such.cfg"], None, 1,
     "configuration error: config file not found: no-such.cfg"),
    (["train"], None, 1, "configuration error: --features is required"),
    (["train"], {"seen_ids": []}, 2,
     "data error: seen partition is empty: nothing to train on"),
    (["sweep-k"], {"unseen_ids": []}, 2,
     "data error: no unseen-class instances to evaluate"),
]


@pytest.mark.parametrize("argv, files, code, prefix", CLI_FAULTS)
def test_cli_fault(tmp_path, capsys, argv, files, code, prefix):
    if files is not None:
        argv = [*argv, *_files(tmp_path, **files)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    out, err = capsys.readouterr()
    assert err.startswith(prefix)
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["train", "sweep-k", "bench"])
def test_solver_hint_names_the_cli_flag(tmp_path, capsys, command):
    argv = [command, "--lambda1", "0", "--gamma1", "1", "--k", "2",
            *_files(tmp_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "Retry with --ridge-retry to regularize L." in err
    assert "ridge_on_failure" not in err


def test_library_solver_hint_names_the_parameter():
    system = SylvesterSystem(np.zeros((2, 2)), np.zeros((2, 2)),
                             np.ones((2, 2)))
    with pytest.raises(SolverError, match=r"Retry with ridge_on_failure=True"):
        solve_sylvester(system)


# CSV features (8 x 24): each fault edits the lines of the file; the
# message follows "data error: " and names the file as {path}
CSV_FAULTS = {
    "non-UTF-8 line": (
        lambda rows: [*rows[:2], rows[2][:5] + "\udcff" + rows[2][5:],
                      *rows[3:]],
        "{path}:3: not valid UTF-8"),
    "ragged row": (lambda rows: [*rows[:3], rows[3] + ",1", *rows[4:]],
                   "{path}:4: expected 24 columns, got 25"),
    "unparsable token": (
        lambda rows: [rows[0], rows[1].replace(",", ",x", 1), *rows[2:]],
        "{path}:2: unparsable value"),
    "blank-only file": (lambda rows: ["", "  ", ""],
                        "{path}: empty matrix file"),
    "nan token": (
        lambda rows: [*rows[:4], "nan," + rows[4].split(",", 1)[1],
                      *rows[5:]],
        "{path} contains a non-finite entry at row 4, col 0"),
    "columns unlike the labels": (
        lambda rows: [row.rsplit(",", 1)[0] for row in rows],
        "expected one label per instance column: 24 labels for 23 columns"),
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("fault", CSV_FAULTS)
def test_csv_features_fault(tmp_path, capsys, fault, command):
    argv = _files(tmp_path)
    at = argv.index("--features") + 1
    rows = [",".join(f"{v:.17g}" for v in row)
            for row in load_matrix(argv[at])]
    edit, message = CSV_FAULTS[fault]
    path = tmp_path / "features.csv"
    path.write_bytes("\n".join(edit(rows)).encode("utf-8", "surrogateescape")
                     + b"\n")
    argv[at] = str(path)
    if command == "eval":
        model = tmp_path / "model.zsm"
        save_matrix(model, np.ones((4, 8)))
        argv += ["--model", str(model)]
    assert main([command, *argv, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("data error: " + message.format(path=path))
    assert "Traceback" not in out + err


def _empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    load_matrix(path, fmt="csv")


def _evaluate(table, direction, model=MappingModel(np.zeros((4, 8)))):
    evaluate(model, UNSEEN, table, direction=direction)


def _objective_of_other_stats(_):
    # two datasets of 5 features and 12 instances, of 3 and 4 classes
    rng = np.random.default_rng(0)
    a, b = (LabeledDataset(rng.standard_normal((5, 12)), np.arange(12) % c,
                           c) for c in (3, 4))
    z = np.zeros((2, 4))
    objective(MappingModel(np.ones((2, 5))), a, z, z, HyperParams(),
              stats=class_stats(b))


_, TABLE = _rank_two()
UNSEEN = _rank_two(seen_ids=[])[0]
ALL_SEEN = PrototypeTable(TABLE.class_ids, TABLE.vectors,
                          np.ones(8, dtype=bool))
SEEN = _rank_two(unseen_ids=[])[0]
# the 6 seen classes' statistics and prototypes, and models that do not
# fit them: 5 features, 3 or 1 semantic dimensions
STATS, P6 = class_stats(SEEN), TABLE.vectors[:, :6]
WIDE, TALL, ROW = (MappingModel(np.ones(shape))
                   for shape in ((4, 5), (3, 8), (1, 8)))
FEATURES_5 = "model expects 5-dimensional features, data has 8"
SEMANTIC_3 = "model maps into 3 semantic dimensions, prototypes have 4"
# classes 1 and 3 unseen: True is no class 1, and [3] no class 3
ODD_UNSEEN = PrototypeTable(np.arange(4), np.eye(4) + 1,
                            np.arange(4) % 2 == 0)
# W x stays finite for the unseen instances, but |W^T p| overflows
HUGE = MappingModel(np.random.default_rng(0).standard_normal((4, 8)) * 1e300)
# every norm is finite, yet class 0's visual similarity overflows: W^T p is
# (0, 1e-150), so p / |W^T p| is (-1e150, 1e150) against W x = (1e300,
# 1e300) for the instances (1, 0)
NEAR_MAX = MappingModel(np.array([[1e300, 0.0], [1e300, 1e-150]]))
NEAR_MAX_TABLE = PrototypeTable(np.arange(3), [[-1.0, 1e-150, 1e-150],
                                               [1.0, 0.0, 0.0]],
                                np.zeros(3, dtype=bool))
NEAR_MAX_DATA = LabeledDataset(np.array([[1.0, 1.0], [0.0, 0.0]]), [0, 1], 3)
NEAR_MAX_CLASS_0 = (r"cannot rank unseen classes \[0\]: their visual "
                    r"similarities overflow; rescale the model$")

LIBRARY_FAULTS = {
    # case: (call of tmp_path, exception type, message prefix)
    "empty CSV matrix": (_empty_csv, DataError,
                         r".*empty\.csv: empty matrix file"),
    "misaligned table": (lambda _: PrototypeTable(
        np.arange(3), np.ones((2, 2)), np.ones(3, dtype=bool)), DataError,
        "class_ids, vectors and seen tags must align"),
    "empty table": (lambda _: PrototypeTable(
        np.zeros(0, dtype=int), np.ones((2, 0)), np.zeros(0, dtype=bool)),
        DataError, "prototype table must contain at least one class"),
    "knn_seen of an absent id": (lambda _: knn_seen(TABLE, 99, 2),
                                 DataError, "class 99 has no prototype"),
    # an id is checked, not compared: one integer, as class ids are
    "knn_seen of a boolean id": (lambda _: knn_seen(ODD_UNSEEN, True, 1),
                                 DataError, "class ids must be integers$"),
    "knn_seen of an id in a list": (lambda _: knn_seen(ODD_UNSEEN, [3], 1),
                                    DataError, r"class id must be a scalar, "
                                               r"got shape \(1,\)$"),
    "no unseen candidates": (lambda _: _evaluate(ALL_SEEN, "semantic"),
                             DataError, "prototype table has no unseen"),
    "zero decoded prototype": (lambda _: _evaluate(TABLE, "visual"),
                               DataError, "a decoded prototype is the zero"),
    "singular first re-solve": (lambda _: train(
        _rank_two(unseen_ids=[])[0], TABLE, RANK_TWO_HP), SolverError,
        "iteration 1: singular eigenvalue pair"),
    "1-D matrix": (lambda _: as_matrix(np.ones(3), "w"), ValueError,
                   r"w must be 2-D, got shape \(3,\)"),
    "non-symmetric R": (lambda _: SylvesterSystem(
        np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros((2, 2))),
        ValueError, "R must be square and symmetric"),
    "objective of a one-column O": (lambda _: objective(
        MappingModel(np.ones((4, 8))), STATS, P6, P6[:, :1], HyperParams()),
        DataError, r"prototypes and centroids must both be \(d_s, 6\), one "
                   r"column per group; got \(4, 6\) and \(4, 1\)"),
    "objective of a wider model": (lambda _: objective(
        WIDE, STATS, P6, P6, HyperParams()), DataError, FEATURES_5),
    "objective of a taller model": (lambda _: objective(
        TALL, STATS, P6, P6, HyperParams()), DataError, SEMANTIC_3),
    "objective_gradient of a wider model": (lambda _: objective_gradient(
        WIDE, STATS, P6, P6, HyperParams()), DataError, FEATURES_5),
    "objective_gradient of a taller model": (lambda _: objective_gradient(
        TALL, STATS, P6, P6, HyperParams()), DataError, SEMANTIC_3),
    "class_mean_map of a wider model": (
        lambda _: class_mean_map(WIDE, SEEN), DataError, FEATURES_5),
    "class_centroids of a wider model": (
        lambda _: class_centroids(WIDE, SEEN), DataError, FEATURES_5),
    "adjust_seen of a wider model": (lambda _: adjust_seen(
        TABLE, WIDE, SEEN, HyperParams()), DataError, FEATURES_5),
    "adjust_seen of a taller model": (lambda _: adjust_seen(
        TABLE, TALL, SEEN, HyperParams()), DataError, SEMANTIC_3),
    # a 1-row model's mapped means broadcast over the 4 prototype rows
    "adjust_seen of a one-row model": (lambda _: adjust_seen(
        TABLE, ROW, SEEN, HyperParams()), DataError,
        "model maps into 1 semantic dimensions, prototypes have 4"),
    "adjust_unseen of neighbors of another dimension": (
        lambda _: adjust_unseen(TABLE, HyperParams(k=2), neighbors=(
            PrototypeTable(np.arange(8), np.ones((3, 8)), TABLE.seen))),
        DataError, "neighbors have 3 semantic dimensions, the table has 4"),
    "objective with another dataset's statistics": (
        _objective_of_other_stats, DataError,
        "class statistics do not match the dataset"),
    "knn_seen of k=0": (lambda _: knn_seen(TABLE, 6, 0), ValueError,
                        "k must be a positive integer"),
    "knn_seen of k=2.0": (lambda _: knn_seen(TABLE, 6, 2.0), ValueError,
                          r"k must be an integer, got 2\.0"),
    "save_matrix of an unknown format": (lambda tmp_path: save_matrix(
        tmp_path / "a.zsm", np.ones((2, 2)), fmt="bogus"), ValueError,
        "unknown matrix format: 'bogus'"),
    "load_matrix of an unknown format": (lambda tmp_path: load_matrix(
        tmp_path / "a.zsm", fmt="bogus"), ValueError,
        "unknown matrix format: 'bogus'"),
    "non-square L": (lambda _: SylvesterSystem(
        np.ones((2, 3)), np.eye(3), np.zeros((2, 3))), ValueError,
        "L must be square and symmetric"),
    "knn_seen of a seen class": (lambda _: knn_seen(TABLE, 0, 2), DataError,
                                 "class 0 is seen; knn_seen takes an unseen"),
    "predict of a 2-D x": (lambda _: predict(
        MappingModel(np.ones((4, 12))), np.ones((3, 4)), TABLE), ValueError,
        r"x must be 1-D, got shape \(3, 4\)"),
    "predict of a NaN in x": (lambda _: predict(
        MappingModel(np.ones((4, 8))), np.where(np.arange(8) == 3, np.nan, 1),
        TABLE), ValueError, "x contains a non-finite entry at row 3, col 0"),
    "fractional seen tags": (lambda _: PrototypeTable(
        np.arange(2), np.eye(2), np.array([0.5, 0.0])), DataError,
        "seen tags must be booleans or 0/1"),
    "seen tags other than 0/1": (lambda _: PrototypeTable(
        np.arange(2), np.eye(2), [2, 0]), DataError,
        "seen tags must be booleans or 0/1"),
    "visual evaluate of decoded norms that overflow": (
        lambda _: _evaluate(TABLE, "visual", HUGE), DataError,
        r"cannot rank unseen classes \[6, 7\]: their prototype norms "
        r"overflow"),
    "visual predict of decoded norms that overflow": (lambda _: predict(
        HUGE, UNSEEN.features[:, 0], TABLE, direction="visual"), DataError,
        r"cannot rank unseen classes \[6, 7\]: their prototype norms "
        r"overflow"),
    "visual evaluate of a similarity that overflows": (lambda _: evaluate(
        NEAR_MAX, NEAR_MAX_DATA, NEAR_MAX_TABLE, direction="visual"),
        DataError, NEAR_MAX_CLASS_0),
    "visual predict of a similarity that overflows": (lambda _: predict(
        NEAR_MAX, [1.0, 0.0], NEAR_MAX_TABLE, direction="visual"),
        DataError, NEAR_MAX_CLASS_0),
    # each label is checked, not cast: 1.5 and True are not class 1, and a
    # 2-D array is no list of labels
    "expand_per_instance of a fractional label": (
        lambda _: expand_per_instance(TABLE, [1.5]), DataError,
        "labels must be integers$"),
    "expand_per_instance of a boolean label": (
        lambda _: expand_per_instance(TABLE, [True]), DataError,
        "labels must be integers$"),
    "expand_per_instance of 2-D labels": (
        lambda _: expand_per_instance(TABLE, [[0, 1]]), DataError,
        r"labels must be 1-D, got shape \(1, 2\)$"),
    # a wrong Python type is a TypeError that names the parameter
    "adjust_unseen of neighbors that are no table": (
        lambda _: adjust_unseen(TABLE, HyperParams(k=2), neighbors="x"),
        TypeError, "neighbors must be a PrototypeTable or None, got str$"),
    "evaluate of one k": (lambda _: evaluate(
        MappingModel(np.ones((4, 8))), UNSEEN, TABLE, ks=5), TypeError,
        "ks must be an iterable of integers, got int$"),
    "sweep_k of one k": (lambda _: sweep_k(
        SEEN, UNSEEN, TABLE, HyperParams(), k_values=3), TypeError,
        "k_values must be an iterable of integers, got int$"),
    "evaluate of no table": (lambda _: evaluate(
        MappingModel(np.ones((4, 8))), UNSEEN, None), TypeError,
        "table must be a PrototypeTable, got NoneType$"),
    "evaluate of a bare weight matrix": (lambda _: evaluate(
        np.ones((4, 8)), UNSEEN, TABLE), TypeError,
        "model must be a MappingModel, got ndarray$"),
    "evaluate of a table as its instances": (lambda _: evaluate(
        MappingModel(np.ones((4, 8))), TABLE, TABLE), TypeError,
        "unseen must be a LabeledDataset, got PrototypeTable$"),
    "train of no hyperparameters": (lambda _: train(SEEN, TABLE, None),
                                    TypeError,
                                    "hp must be a HyperParams, got NoneType$"),
    "sweep_k of no hyperparameters": (lambda _: sweep_k(
        SEEN, UNSEEN, TABLE, None, [1]), TypeError,
        "hp must be a HyperParams, got NoneType$"),
    "train of a table as its seen data": (lambda _: train(
        TABLE, TABLE, HyperParams()), TypeError,
        "seen must be a LabeledDataset or a ClassStats, got PrototypeTable$"),
    "train of no table": (lambda _: train(SEEN, None, HyperParams()),
                          TypeError,
                          "table must be a PrototypeTable, got NoneType$"),
    "sweep_k of a table as its seen data": (lambda _: sweep_k(
        TABLE, UNSEEN, TABLE, HyperParams(), [1]), TypeError,
        "seen must be a LabeledDataset or a ClassStats, got PrototypeTable$"),
    "sweep_k of a table as its instances": (lambda _: sweep_k(
        SEEN, TABLE, TABLE, HyperParams(), [1]), TypeError,
        "unseen must be a LabeledDataset, got PrototypeTable$"),
    "split of no table": (lambda _: split(SEEN, None), TypeError,
                          "table must be a PrototypeTable, got NoneType$"),
    "split of a table as its dataset": (lambda _: split(TABLE, TABLE),
                                        TypeError,
                                        "dataset must be a LabeledDataset, "
                                        "got PrototypeTable$"),
    "synthesize of a dict": (lambda _: synthesize({}), TypeError,
                             "spec must be a SynthSpec, got dict$"),
    "solve_sylvester of a nested list": (lambda _: solve_sylvester([[1]]),
                                         TypeError,
                                         "system must be a SylvesterSystem, "
                                         "got list$"),
    "benchmark_training of a bare dataset": (lambda _: benchmark_training(
        SEEN, HyperParams()), TypeError,
        "data must be a tuple or a list, got LabeledDataset$"),
    # a truthy string is no bool: "no" would be taken as True too
    "train of a ridge flag that is a string": (lambda _: train(
        SEEN, TABLE, HyperParams(k=2), ridge_on_failure="yes"), TypeError,
        "ridge_on_failure must be a bool, got str$"),
}


@pytest.mark.parametrize("case", LIBRARY_FAULTS)
def test_library_fault(tmp_path, capsys, case):
    call, error, prefix = LIBRARY_FAULTS[case]
    with pytest.raises(error, match="^" + prefix):
        call(tmp_path)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
