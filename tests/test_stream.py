"""Feature files streamed in column blocks: the CLI against the library,
the loader's errors, and the memory that the commands hold."""

import builtins
import errno
import json
import os
import pathlib
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zsadjust.data
from zsadjust.cli import main
from zsadjust.data import (
    LabeledDataset,
    PrototypeTable,
    SynthSpec,
    _column_norms,
    _matrix_columns,
    _raise_norm_fault,
    _stream_columns,
    block_width,
    load_matrix,
    save_labels,
    save_matrix,
    save_prototypes,
    split,
    synthesize,
)
from zsadjust.errors import DataError
from zsadjust.inference import evaluate
from zsadjust.mapping import (
    HyperParams,
    _class_sums,
    class_mean_map,
)
from zsadjust.trainer import train

from oracles import per_instance_train

D_V = 8
WIDTH = 10      # columns per block in these tests
HP = ["--k", "2", "--iters", "3", "--tol", "0"]


@pytest.fixture
def blocks(monkeypatch):
    """Blocks of WIDTH columns of D_V rows, for the library and the CLI."""
    monkeypatch.setattr(zsadjust.data, "BLOCK_BYTES", 8 * D_V * WIDTH)
    assert block_width(D_V) == WIDTH


def _dataset(order):
    """5 seen and 3 unseen classes of 11 columns each (88 columns, 8.8
    blocks; 55 seen columns, 5.5 blocks), laid out as ``order`` says."""
    dataset, table, _ = synthesize(SynthSpec(
        d_v=D_V, d_s=4, seen_count=5, unseen_count=3, per_class=11,
        noise_sigma=0.1, shift_sigma=0.1, seed=4))
    labels = dataset.labels
    if order == "grouped":          # classes straddle block boundaries
        perm = np.arange(labels.size)
    elif order == "interleaved":
        perm = np.random.default_rng(0).permutation(labels.size)
    elif order == "unseen-between-seen":    # S U S U S U S S
        classes = [0, 5, 1, 6, 2, 7, 3, 4]
        perm = np.concatenate([np.flatnonzero(labels == c) for c in classes])
    else:                           # every unseen column first
        perm = np.argsort(labels < 5, kind="stable")
    return (LabeledDataset(dataset.features[:, perm], labels[perm],
                           dataset.class_count), table)


def _write(directory, features, labels, table):
    directory.mkdir()
    paths = {name: str(directory / name) for name in
             ("features.zsm", "labels.txt", "prototypes.zsm",
              "partition.txt")}
    if isinstance(features, np.ndarray):
        save_matrix(paths["features.zsm"], features)
    else:   # raw bytes, such as a payload that save_matrix refuses
        (directory / "features.zsm").write_bytes(features)
    save_labels(paths["labels.txt"], labels)
    save_prototypes(table, paths["prototypes.zsm"], paths["partition.txt"])
    return paths


def _file_args(paths):
    return ["--features", paths["features.zsm"],
            "--labels", paths["labels.txt"],
            "--prototypes", paths["prototypes.zsm"],
            "--partition", paths["partition.txt"]]


def _raw(features):
    """A binary matrix file's bytes, NaN and inf allowed."""
    return (b"ZSRM" + np.array(features.shape, "<u4").tobytes()
            + features.astype("<f8").tobytes())


@pytest.mark.parametrize("order", ["grouped", "interleaved",
                                   "unseen-between-seen", "unseen-first"])
def test_cli_train_matches_library_bit_for_bit(tmp_path, blocks, order):
    dataset, table = _dataset(order)
    paths = _write(tmp_path / "data", dataset.features, dataset.labels,
                   table)
    out = tmp_path / "run"
    assert main(["train", *_file_args(paths), *HP, "--out", str(out)]) == 0

    seen, unseen = split(dataset, table)
    assert seen.instance_count > 3 * WIDTH
    model, adjusted, _ = train(seen, table,
                               HyperParams(k=2, iterations=3, tol=0.0))
    assert np.array_equal(load_matrix(out / "model.zsm"), model.weights)
    assert np.array_equal(load_matrix(out / "prototypes_adjusted.zsm"),
                          adjusted.vectors)
    report = evaluate(model, unseen, adjusted, ks=(1, 5))
    written = json.loads((out / "report.json").read_text())
    assert written["hit_at"] == {str(k): v for k, v in report.hit_at.items()}
    assert written["per_class_accuracy"] == {
        str(c): v for c, v in report.per_class_accuracy.items()}


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(sizes=st.lists(st.integers(1, 7), min_size=3, max_size=6).filter(
           lambda sizes: sum(sizes) >= 10),
       unseen_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       shuffle=st.booleans(), seed=st.integers(0, 2**16),
       n_blocks=st.integers(1, 5))
def test_multi_block_train_matches_oracle_and_cli(sizes, unseen_sizes,
                                                  shuffle, seed, n_blocks):
    # seen classes of any sizes (one instance included), in class order
    # or shuffled, among unseen columns, the seen ones spanning 1 to 5
    # blocks: library train matches the per-instance oracle within the
    # tolerances of test_train_matches_per_instance_oracle, and the CLI,
    # streaming the file, gives the library's bits
    rng = np.random.default_rng(seed)
    d_v, d_s, n_seen = 6, 4, len(sizes)
    n = n_seen + len(unseen_sizes)
    labels = np.repeat(np.arange(n), sizes + unseen_sizes)
    if shuffle:
        labels = rng.permutation(labels)
    protos = rng.standard_normal((d_s, n))
    features = (rng.standard_normal((d_v, d_s)) / np.sqrt(d_v)
                @ protos[:, labels]
                + 0.1 * rng.standard_normal((d_v, labels.size)))
    table = PrototypeTable(np.arange(n), protos, np.arange(n) < n_seen)
    dataset = LabeledDataset(features, labels, n)
    seen, _ = split(dataset, table)
    width = -(-seen.instance_count // n_blocks)
    hp = HyperParams(k=2, iterations=3, tol=0.0)
    with mock.patch.object(zsadjust.data, "BLOCK_BYTES", 8 * d_v * width), \
            tempfile.TemporaryDirectory() as tmp:
        assert -(-seen.instance_count // block_width(d_v)) <= 5
        paths = _write(pathlib.Path(tmp) / "data", features, labels, table)
        out = pathlib.Path(tmp) / "run"
        assert main(["train", *_file_args(paths), *HP,
                     "--out", str(out)]) == 0
        model, adjusted, trace = train(seen, table, hp)
        assert np.array_equal(load_matrix(out / "model.zsm"), model.weights)
        assert np.array_equal(load_matrix(out / "prototypes_adjusted.zsm"),
                              adjusted.vectors)
    w, vectors, objectives = per_instance_train(seen, table, hp)
    assert np.abs(model.weights - w).max() <= 1e-10 * np.abs(w).max()
    assert np.abs(adjusted.vectors - vectors).max() <= 1e-12
    for rec, want in zip(trace.records, objectives, strict=True):
        assert abs(rec.objective - want) <= 1e-12 * want


@pytest.mark.parametrize("seed", [0, 1])
def test_one_block_class_means_keep_their_bits(seed):
    # in one block the accumulated sums are those of _class_sums over
    # the whole dataset, layout included, so the class means map to the
    # same bits (at these sizes BLAS rounds W S by layout)
    dataset, table, _ = synthesize(SynthSpec(
        d_v=100, d_s=85, seen_count=20, unseen_count=20, per_class=20,
        noise_sigma=0.05, shift_sigma=0.1, seed=seed))
    seen, _ = split(dataset, table)
    model, _, _ = train(seen, table, HyperParams(iterations=1))
    ids, counts, sums = _class_sums(seen.features, seen.labels)
    means = model.weights @ (sums / counts)
    stats_ids, stats_means = class_mean_map(model, seen)
    assert np.array_equal(stats_ids, ids)
    assert np.array_equal(stats_means, means)


def test_normalized_features_match_numpy_norms(tmp_path, blocks):
    # each column is scaled by the norm np.linalg.norm gives it over the
    # whole matrix, whichever block and whichever width of read it is in
    dataset, table = _dataset("interleaved")
    paths = _write(tmp_path / "data", dataset.features, dataset.labels,
                   table)
    out = tmp_path / "run"
    assert main(["train", *_file_args(paths), *HP, "--normalize", "features",
                 "--out", str(out)]) == 0
    x = dataset.features
    unit = LabeledDataset(x / np.linalg.norm(x, axis=0, keepdims=True),
                          dataset.labels, dataset.class_count)
    model, _, _ = train(split(unit, table)[0], table,
                        HyperParams(k=2, iterations=3, tol=0.0))
    assert np.array_equal(load_matrix(out / "model.zsm"), model.weights)


def test_unit_columns_bits_do_not_depend_on_the_block():
    # a block of one column gets the bits of the whole matrix's norms
    rng = np.random.default_rng(3)
    x = rng.standard_normal((300, 6)) * rng.uniform(0.1, 10.0, (300, 1))
    whole = x / np.linalg.norm(x, axis=0, keepdims=True)
    for j in range(x.shape[1]):
        column = x[:, j:j + 1]
        norms, faults = _column_norms(column, first=j)
        assert faults == (None, None)
        assert np.array_equal((column / norms)[:, 0], whole[:, j])


def _mask(draw, cols):
    """A column mask: no column, every column, one run, or scattered."""
    kind = draw(st.sampled_from(["none", "all", "run", "scattered"]))
    mask = np.zeros(cols, dtype=bool)
    if kind == "all":
        mask[:] = True
    elif kind == "run":
        first = draw(st.integers(0, cols - 1))
        mask[first:draw(st.integers(first + 1, cols))] = True
    elif kind == "scattered":
        mask[:] = draw(st.lists(st.booleans(), min_size=cols,
                                max_size=cols))
    return mask


@st.composite
def _streams(draw):
    """A small matrix with at most one fault, keep and take masks, and a
    BLOCK_BYTES that makes blocks narrower than the matrix, or of every
    column in bands of several rows or of the whole block. Bands are
    about a sixteenth of BLOCK_BYTES, so a narrow block of up to 64 rows
    is read in bands of one to three rows."""
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(1, 30))
    x = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(
        (rows, cols))
    fault = draw(st.sampled_from([None, "nan", "inf", "zero", "overflow"]))
    row, col = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    if fault == "zero":
        x[:, col] = 0.0
    elif fault is not None:
        x[row, col] = {"nan": np.nan, "inf": -np.inf, "overflow": 1e300}[fault]
    return dict(x=x, keep=_mask(draw, cols), take=_mask(draw, cols),
                block_bytes=8 * rows * draw(st.one_of(
                    st.integers(1, cols), st.integers(cols, 16 * cols),
                    st.integers(16 * cols, 20 * cols))),
                unit=draw(st.booleans()),
                array=draw(st.booleans()), fault_col=col if fault else cols)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=_streams())
def test_banded_stream_matches_whole_file_reads(case):
    # the stream keeps and yields the columns of a whole-file read, scaled
    # as _column_norms scales them, or fails with the error that the
    # whole-file read and _column_norms give; no block is yielded from
    # the faulty one on
    x, keep, take, unit = case["x"], case["keep"], case["take"], case["unit"]
    rows = x.shape[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.zsm")
        pathlib.Path(path).write_bytes(_raw(x))
        want_error = None
        try:
            _, faults = _column_norms(load_matrix(path))
            if unit:
                _raise_norm_fault("feature", *faults)
        except DataError as exc:
            want_error = str(exc)
        with mock.patch.object(zsadjust.data, "BLOCK_BYTES",
                               case["block_bytes"]):
            width = block_width(rows)
            kept = np.empty((rows, np.count_nonzero(keep)))
            blocks, error = [], None
            try:
                for block in _stream_columns(
                        _matrix_columns(x if case["array"] else path), path,
                        take, keep, kept, unit):
                    blocks.append(block.copy())
            except DataError as exc:
                error = str(exc)
    assert error == want_error
    assert all(b.shape[1] == width for b in blocks[:-1])
    assert all(0 < b.shape[1] <= width for b in blocks)
    with np.errstate(all="ignore"):
        want = x / _column_norms(x)[0] if unit else x
    taken = np.hstack([np.empty((rows, 0)), *blocks])
    if error is None:
        assert np.array_equal(kept, want[:, keep])
        assert np.array_equal(taken, want[:, take])
    else:
        assert taken.shape[1] <= np.count_nonzero(take[:case["fault_col"]])
        assert np.array_equal(taken, want[:, take][:, :taken.shape[1]])


def _eval_args(tmp_path, paths):
    """Train on ``paths`` first; the eval arguments for its artifacts."""
    run = tmp_path / "run"
    assert main(["train", *_file_args(paths), *HP, "--out", str(run)]) == 0
    return ["eval", "--model", str(run / "model.zsm"),
            "--features", paths["features.zsm"],
            "--labels", paths["labels.txt"],
            "--prototypes", str(run / "prototypes_adjusted.zsm"),
            "--partition", str(run / "partition_adjusted.txt"),
            "--out", str(tmp_path / "eval")]


def test_first_non_finite_entry_in_row_major_order(tmp_path, blocks, capsys):
    # NaN in block 0 at row 5, inf in block 2 at row 2: the inf comes first
    dataset, table = _dataset("grouped")
    x = dataset.features.copy()
    x[5, 3] = np.nan
    x[2, 25] = np.inf
    paths = _write(tmp_path / "bad", _raw(x), dataset.labels, table)
    with pytest.raises(zsadjust.data.DataError) as exc:
        load_matrix(paths["features.zsm"])
    assert "row 2, col 25" in str(exc.value)
    good = _write(tmp_path / "good", dataset.features, dataset.labels, table)
    eval_args = _eval_args(tmp_path, good)
    capsys.readouterr()
    for argv in (["train", *_file_args(paths), *HP,
                  "--out", str(tmp_path / "out")],
                 [*eval_args, "--features", paths["features.zsm"]]):
        assert main(argv) == 2
        assert f"data error: {exc.value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_nan_in_last_partial_block(tmp_path, blocks, capsys, command):
    dataset, table = _dataset("grouped")
    x = dataset.features.copy()
    x[D_V - 1, x.shape[1] - 1] = np.nan      # the last column of 88
    good = _write(tmp_path / "good", dataset.features, dataset.labels, table)
    bad = _write(tmp_path / "bad", _raw(x), dataset.labels, table)
    argv = ["train", *_file_args(bad), *HP, "--out", str(tmp_path / "out")]
    if command == "eval":
        argv = [*_eval_args(tmp_path, good), "--features", bad["features.zsm"]]
    capsys.readouterr()
    assert main(argv) == 2
    assert (f"non-finite entry at row {D_V - 1}, col {x.shape[1] - 1}"
            in capsys.readouterr().err)


def test_loader_errors_keep_their_messages(tmp_path, blocks, capsys):
    dataset, table = _dataset("interleaved")
    paths = _write(tmp_path / "data", dataset.features, dataset.labels,
                   table)
    eval_args = _eval_args(tmp_path, paths)
    raw = _raw(dataset.features)
    short = tmp_path / "short.zsm"
    short.write_bytes(raw[:-8])
    save_labels(tmp_path / "short.txt", dataset.labels[:-1])
    save_matrix(tmp_path / "narrow.zsm", dataset.features[:-1])
    cases = [
        ([*eval_args, "--features", str(short)],
         f"{short}: payload is {len(raw) - 20} bytes but header declares "
         f"{D_V}x88 ({len(raw) - 12} bytes)"),
        (["train", *_file_args(paths), *HP, "--features", str(short),
          "--out", str(tmp_path / "out")], "payload is"),
        ([*eval_args, "--labels", str(tmp_path / "short.txt")],
         "expected one label per instance column: 87 labels for 88 columns"),
        ([*eval_args, "--features", str(tmp_path / "narrow.zsm")],
         f"model expects {D_V}-dimensional features, data has {D_V - 1}"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("scale, message", [
    (0.0, "cannot normalize a zero feature column (column 25)"),
    (1e300, "cannot normalize feature column 25: its norm overflows"),
])
def test_normalize_error_names_the_global_column(tmp_path, blocks, capsys,
                                                 scale, message):
    dataset, table = _dataset("grouped")
    x = dataset.features.copy()
    x[:, 25] *= scale       # column 5 of block 2
    paths = _write(tmp_path / "data", x, dataset.labels, table)
    assert main(["train", *_file_args(paths), *HP, "--normalize", "features",
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fault, message", [
    ("nan", "non-finite entry at row 0, col 80"),
    ("overflow", "cannot normalize feature column 65: its norm overflows"),
    ("prototype", "cannot normalize a zero feature column (column 25)"),
])
def test_normalize_error_comes_after_non_finite_entries(tmp_path, blocks,
                                                        capsys, fault,
                                                        message):
    # as when the whole matrix was read, checked and then normalized: a
    # later block's NaN or overflowing column wins over an earlier zero
    # column, and a feature fault over a prototype fault
    dataset, table = _dataset("grouped")
    x = dataset.features.copy()
    x[:, 25] = 0.0          # block 2
    if fault == "nan":
        x[0, 80] = np.nan   # block 8, the last
    elif fault == "overflow":
        x[:, 65] *= 1e300   # block 6
    else:
        table = table.with_vectors(table.vectors * 1e300)
    paths = _write(tmp_path / "data", _raw(x), dataset.labels, table)
    assert main(["train", *_file_args(paths), *HP, "--normalize", "both",
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# unreadable files


def _refuse(monkeypatch, target, error=PermissionError(
        errno.EACCES, "Permission denied")):
    """Make ``open`` raise ``error`` for the file ``target``."""
    real_open = builtins.open

    def fake_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and \
                os.fspath(file) == os.fspath(target):
            raise error
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", fake_open)


@pytest.mark.parametrize("flag", ["--features", "--labels", "--prototypes",
                                  "--partition", "--model"])
def test_unreadable_input_is_data_error(tmp_path, monkeypatch, capsys, flag):
    dataset, table = _dataset("grouped")
    paths = _write(tmp_path / "data", dataset.features, dataset.labels,
                   table)
    argv = _eval_args(tmp_path, paths)
    target = argv[argv.index(flag) + 1]
    capsys.readouterr()
    _refuse(monkeypatch, target)
    assert main(argv) == 2
    assert (f"data error: cannot read {target}: Permission denied"
            in capsys.readouterr().err)


def test_unreadable_config_is_config_error(tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("k = 3\n")
    _refuse(monkeypatch, config)
    assert main(["train", "--synth", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 1
    assert (f"configuration error: cannot read {config}: Permission denied"
            in capsys.readouterr().err)


def test_read_error_mid_payload_is_data_error(tmp_path, blocks, monkeypatch,
                                              capsys):
    dataset, table = _dataset("grouped")
    paths = _write(tmp_path / "data", dataset.features, dataset.labels,
                   table)
    target = paths["features.zsm"]
    real_open = builtins.open
    reads = []

    class Failing:
        """A file whose reads into a buffer fail after the first few."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def readinto(self, buffer):
            reads.append(1)
            if len(reads) > 20:
                raise OSError(errno.EIO, "Input/output error")
            return self.fh.readinto(buffer)

    def fake_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        is_target = isinstance(file, (str, os.PathLike)) and \
            os.fspath(file) == target
        return Failing(fh) if is_target else fh

    monkeypatch.setattr(builtins, "open", fake_open)
    assert main(["train", *_file_args(paths), *HP,
                 "--out", str(tmp_path / "out")]) == 2
    assert len(reads) > 20
    assert (f"data error: cannot read {target}: Input/output error"
            in capsys.readouterr().err)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize("fault", ["width", "semantic", None])
def test_eval_checks_the_model_before_the_features_payload(
        tmp_path, capsys, fmt, nan, fault):
    # the model's shape against the feature rows and the prototype rows
    # comes first; then, for a model that fits, the non-finite entry
    dataset, table, _ = synthesize(SynthSpec(d_v=8, d_s=4, seen_count=3,
                                             unseen_count=2, per_class=4))
    x = dataset.features.copy()
    if nan:
        x[2, 5] = np.nan
    paths = _write(tmp_path / "data", _raw(x), dataset.labels, table)
    if fmt == "csv":
        pathlib.Path(paths["features.zsm"]).write_text("".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in x))
    model = tmp_path / "model.zsm"
    save_matrix(model, np.ones({"width": (4, 5), "semantic": (3, 8),
                                None: (4, 8)}[fault]))
    real_read = zsadjust.data._read_block

    def read(path, *args):
        assert fault is None or path != paths["features.zsm"], \
            "features payload read before the shape check"
        return real_read(path, *args)

    with mock.patch("zsadjust.data._read_block", read):
        code = main(["eval", "--model", str(model), *_file_args(paths),
                     "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    if fault == "width":
        assert err == ("data error: model expects 5-dimensional features, "
                       "data has 8\n")
    elif fault == "semantic":
        assert err == ("data error: model maps into 3 semantic dimensions, "
                       "prototypes have 4\n")
    elif nan:
        assert err == (f"data error: {paths['features.zsm']} contains a "
                       f"non-finite entry at row 2, col 5\n")
    assert code == (0 if fault is None and not nan else 2)


# ---------------------------------------------------------------------------
# memory


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_and_eval_hold_no_copy_of_the_features(tmp_path, monkeypatch,
                                                     capsys):
    # 16 blocks of 512 columns; one class of 16 is unseen
    monkeypatch.setattr(zsadjust.data, "BLOCK_BYTES", 8 * 128 * 512)
    dataset, table, _ = synthesize(SynthSpec(
        d_v=128, d_s=16, seen_count=15, unseen_count=1, per_class=512,
        noise_sigma=0.1, seed=1))
    paths = _write(tmp_path / "data", dataset.features, dataset.labels,
                   table)
    payload = dataset.features.nbytes
    del dataset
    run = tmp_path / "run"
    train_args = ["train", *_file_args(paths), "--k", "3", "--iters", "2",
                  "--out", str(run)]
    eval_args = ["eval", "--model", str(run / "model.zsm"),
                 *_file_args(paths), "--out", str(tmp_path / "eval")]
    bench_args = ["bench", *_file_args(paths), "--k", "3", "--iters", "2",
                  "--out", str(tmp_path / "bench")]
    for argv in (train_args, eval_args, bench_args):
        peak = _traced_peak(lambda: main(argv))
        assert (run / "model.zsm").exists()
        assert peak < payload / 4, (argv[0], peak / payload)
    capsys.readouterr()


def test_eval_holds_one_band_not_one_block(tmp_path, monkeypatch, capsys):
    # at the sizes above, eval reads every column in row bands of about
    # a sixteenth of a block: past the unseen columns it keeps, it holds
    # far less than one block (payload / 16)
    monkeypatch.setattr(zsadjust.data, "BLOCK_BYTES", 8 * 128 * 512)
    dataset, table, _ = synthesize(SynthSpec(
        d_v=128, d_s=16, seen_count=15, unseen_count=1, per_class=512,
        noise_sigma=0.1, seed=1))
    paths = _write(tmp_path / "data", dataset.features, dataset.labels,
                   table)
    payload = dataset.features.nbytes
    kept = 8 * 128 * np.count_nonzero(~table.seen[dataset.labels])
    del dataset
    run = tmp_path / "run"
    assert main(["train", *_file_args(paths), "--k", "3", "--iters", "2",
                 "--out", str(run)]) == 0
    peak = _traced_peak(lambda: main([
        "eval", "--model", str(run / "model.zsm"), *_file_args(paths),
        "--out", str(tmp_path / "eval")]))
    assert (tmp_path / "eval" / "report.json").exists()
    assert peak - kept < payload / 16, (peak - kept) / payload
    capsys.readouterr()


def test_bench_keeps_no_unseen_columns(tmp_path, monkeypatch, capsys):
    # 2 seen and 14 unseen classes: the unseen columns are 7/8 of the
    # payload, and bench, which never reads them, holds about one block
    monkeypatch.setattr(zsadjust.data, "BLOCK_BYTES", 8 * 128 * 512)
    dataset, table, _ = synthesize(SynthSpec(
        d_v=128, d_s=16, seen_count=2, unseen_count=14, per_class=512,
        noise_sigma=0.1, seed=1))
    paths = _write(tmp_path / "data", dataset.features, dataset.labels,
                   table)
    payload = dataset.features.nbytes
    del dataset
    peak = _traced_peak(lambda: main([
        "bench", *_file_args(paths), "--k", "2", "--iters", "2",
        "--out", str(tmp_path / "bench")]))
    assert json.loads((tmp_path / "bench" / "bench.json").read_text())[
        "repeats"] == 1
    assert peak < payload / 6, peak / payload
    capsys.readouterr()


def test_save_matrix_writes_from_the_array(tmp_path):
    a = np.random.default_rng(0).standard_normal((2048, 1024))
    path = tmp_path / "a.zsm"
    peak = _traced_peak(lambda: save_matrix(path, a))
    assert peak < a.nbytes / 10
    assert np.array_equal(load_matrix(path), a)
