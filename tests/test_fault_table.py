"""One row per fault: each input that must fail does so with its exit code
(or exception type) and message, and prints no traceback."""

import numpy as np
import pytest

from zsadjust.adjustment import knn_seen
from zsadjust.cli import main
from zsadjust.data import (
    LabeledDataset,
    PrototypeTable,
    load_matrix,
    save_labels,
    save_matrix,
    save_prototypes,
)
from zsadjust.errors import DataError, SolverError
from zsadjust.inference import evaluate
from zsadjust.linalg import SylvesterSystem, as_matrix, solve_sylvester
from zsadjust.mapping import HyperParams, MappingModel
from zsadjust.trainer import train

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


def _evaluate(table, direction):
    data, _ = _rank_two(seen_ids=[])
    evaluate(MappingModel(np.zeros((4, 8))), data, table, direction=direction)


_, TABLE = _rank_two()
ALL_SEEN = PrototypeTable(TABLE.class_ids, TABLE.vectors,
                          np.ones(8, dtype=bool))

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
}


@pytest.mark.parametrize("case", LIBRARY_FAULTS)
def test_library_fault(tmp_path, capsys, case):
    call, error, prefix = LIBRARY_FAULTS[case]
    with pytest.raises(error, match="^" + prefix):
        call(tmp_path)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
