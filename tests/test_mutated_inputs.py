"""Every input fault is a message: byte mutations of valid input files.

A valid 16/6/8+3 synthetic set (binary and CSV features, labels,
prototypes, partition), the model and adjusted prototypes of one
training on it, and a ``--config`` file per command are mutated one file
at a time: truncated, a byte flipped, bytes inserted or deleted, a token
spliced in, or one to three matrix entries made non-finite, huge or a
zero column. ``cli.main`` then runs ``train``, ``eval``, ``sweep-k`` or
``bench`` in-process on the mutated file, and the library loaders read
it too.

No mutated file carries a value that scales the work: the config files
hold no ``iters``, ``repeats``, ``k-list`` or ``synth*`` key, nor one
that an insertion of at most four bytes can make, and a binary header is
checked against the file size before anything is allocated.
"""

import contextlib
import io
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zsadjust.data
from zsadjust.cli import main
from zsadjust.data import (
    load_labels,
    load_matrix,
    load_prototypes,
    save_matrix,
)
from zsadjust.errors import DataError

PREFIX = {1: "configuration error: ", 2: "data error: ", 3: "solver error: "}

TRAIN_CONFIG = (b"# hyperparameters\nk = 3\nlambda1 = 1.0\n"
                b"normalize = features\n")
EVAL_CONFIG = b"# ranking\nks = 1,2\nnormalize = features\n"

# each command's files: flag -> name of the base file
TRAIN_FILES = {"--features": "features.zsm", "--labels": "labels.txt",
               "--prototypes": "prototypes.zsm",
               "--partition": "partition.txt", "--config": "train.cfg"}
COMMANDS = {
    "train": TRAIN_FILES,
    "sweep-k": TRAIN_FILES,
    "bench": TRAIN_FILES,
    "eval": {"--model": "model.zsm", "--features": "features.zsm",
             "--labels": "labels.txt",
             "--prototypes": "prototypes_adjusted.zsm",
             "--partition": "partition_adjusted.txt",
             "--config": "eval.cfg"},
}
# what scales the work stays on the command line, out of the mutations
EXTRA = {"train": ["--iters", "1"], "eval": [],
         "sweep-k": ["--iters", "1", "--k-list", "1,3"],
         "bench": ["--iters", "1"]}
TOKENS = [b"nan", b"1e309", b"\x00", b"\xc3", b"S", b"U", b"#", b"=",
          str(2**64).encode(), b",", b"\n", b"-"]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The directory of the valid files, and the bytes of each."""
    root = tmp_path_factory.mktemp("mutated")
    data = root / "data"
    assert main(["synth", "--synth-dv", "16", "--synth-ds", "6",
                 "--synth-seen", "8", "--synth-unseen", "3",
                 "--synth-per-class", "5", "--synth-noise", "0.05",
                 "--out", str(data)]) == 0
    assert main(["train", "--features", str(data / "features.zsm"),
                 "--labels", str(data / "labels.txt"),
                 "--prototypes", str(data / "prototypes.zsm"),
                 "--partition", str(data / "partition.txt"),
                 "--k", "3", "--out", str(data)]) == 0
    save_matrix(data / "features.csv", load_matrix(data / "features.zsm"),
                fmt="csv")
    (data / "train.cfg").write_bytes(TRAIN_CONFIG)
    (data / "eval.cfg").write_bytes(EVAL_CONFIG)
    (root / "mutated").mkdir()
    return root, {path.name: path.read_bytes() for path in data.iterdir()}


def _entries(draw, body, csv):
    """``body``, a matrix file, with one to three entries set to a
    non-finite or huge value, or a column set to zero."""
    if csv:
        x = [line.split(b",") for line in body.splitlines()]
        shape = len(x), len(x[0])
    else:
        x = np.frombuffer(body, "<f8", offset=12).reshape(
            np.frombuffer(body, "<u4", 2, offset=4)).copy()
        shape = x.shape
    for _ in range(draw(st.sampled_from([1, 2, 3, 3]))):
        row = draw(st.integers(0, shape[0] - 1))
        col = draw(st.integers(0, shape[1] - 1))
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e300, 0.0]))
        for r in range(shape[0]) if value == 0.0 else [row]:
            if csv:
                x[r][col] = repr(value).encode()
            else:
                x[r, col] = value
    if csv:
        return b"".join(b",".join(row) + b"\n" for row in x)
    return body[:12] + x.astype("<f8").tobytes()


@st.composite
def _cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    files = dict(COMMANDS[command])
    if draw(st.booleans()):
        files["--features"] = "features.csv"
    # the features as often as every other file, and their entries as
    # often as their bytes: a held block's faults are met out of order
    flag = draw(st.sampled_from(sorted(files) + ["--features"] * 3))
    kinds = ["truncate", "flip", "insert", "delete", "splice"]
    if files[flag].endswith((".zsm", ".csv")):
        kinds += ["entries"] * (5 if flag == "--features" else 1)
    return dict(command=command, files=files, flag=flag,
                kind=draw(st.sampled_from(kinds)),
                normalize=draw(st.sampled_from([None, "none", "both"])),
                block_bytes=draw(st.sampled_from(
                    [zsadjust.data.BLOCK_BYTES, 8 * 16 * 10, 8 * 16 * 40])))


def _mutate(draw, case, body):
    kind = case["kind"]
    if kind == "entries":
        return _entries(draw, body, case["files"][case["flag"]].endswith(
            ".csv"))
    at = draw(st.integers(0, len(body) - (kind == "flip")))
    if kind == "truncate":
        return body[:at]
    if kind == "flip":
        return (body[:at] + bytes([body[at] ^ draw(st.integers(1, 255))])
                + body[at + 1:])
    if kind == "insert":
        return body[:at] + draw(st.binary(min_size=1, max_size=4)) + body[at:]
    cut = draw(st.integers(1, 8))
    if kind == "delete":
        return body[:at] + body[at + cut:]
    return body[:at] + draw(st.sampled_from(TOKENS)) + body[at + cut - 1:]


def _library(paths, flag):
    """What the library loader makes of the file of ``flag``: ``(None,
    shape)`` if it loads, else ``(message, None)``."""
    try:
        if flag == "--labels":
            return None, load_labels(paths[flag]).shape
        if flag in ("--prototypes", "--partition"):
            table = load_prototypes(paths["--prototypes"],
                                    paths["--partition"])
            return None, table.vectors.shape
        return None, load_matrix(paths[flag]).shape
    except DataError as exc:
        return str(exc), None


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(data=st.data())
def test_mutated_input_is_a_message(base, data):
    # the exit code is 0-3; a failure's first stderr line has its
    # documented prefix and nothing prints a traceback; the CLI and the
    # loaders agree on the mutated file: both reject it with the same
    # message (a features file whose entries the loader rejects may meet
    # a shape fault first in the CLI), or neither names it in an error
    # and a trained model has the shapes the loaders read
    root, files = base
    case = data.draw(_cases())
    command, flag = case["command"], case["flag"]
    paths = {f: str(root / "data" / name) for f, name in case["files"].items()}
    paths[flag] = str(root / "mutated" / case["files"][flag])
    with open(paths[flag], "wb") as fh:
        fh.write(_mutate(data.draw, case, files[case["files"][flag]]))
    argv = [command, *[a for f, p in paths.items() for a in (f, p)],
            *EXTRA[command], "--out", str(root / "out")]
    if case["normalize"]:
        argv += ["--normalize", case["normalize"]]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(zsadjust.data, "BLOCK_BYTES",
                           case["block_bytes"]), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    line = err.splitlines()[0] if err else ""
    if code:
        assert line.startswith(PREFIX[code]), line
    if flag == "--config":
        return
    message, shape = _library(paths, flag)
    if message is not None:
        assert code == 2, (message, line)
        assert line == PREFIX[2] + message or (
            flag == "--features" and "non-finite entry" in message
            and paths[flag] not in line), (message, line)
    else:
        assert paths[flag] not in line, line
        if code == 0 and command == "train":
            model = load_matrix(os.path.join(root, "out", "model.zsm"))
            _, protos = _library(paths, "--prototypes")
            _, feats = _library(paths, "--features")
            assert model.shape == (protos[0], feats[0])
