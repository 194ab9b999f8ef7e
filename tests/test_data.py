import os
import struct
import tracemalloc
import types

import numpy as np
import pytest

from zsadjust.data import (
    LabeledDataset,
    PrototypeTable,
    SynthSpec,
    load_labels,
    load_matrix,
    load_prototypes,
    save_labels,
    save_matrix,
    save_prototypes,
    split,
    synthesize,
)
from zsadjust.errors import DataError


def test_binary_header_roundtrip(tmp_path):
    path = tmp_path / "m.zsm"
    payload = struct.pack("<4sII", b"ZSRM", 2, 3)
    payload += struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    path.write_bytes(payload)
    a = load_matrix(path)
    assert np.array_equal(a, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))


def test_csv_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(load_matrix(path),
                          np.array([[1.0, 2.0], [3.0, 4.0]]))


# signed zeros, subnormals, the float range and values whose shortest
# repr is not their %.17g text
EDGE_VALUES = np.array([
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3],
    [np.finfo(float).max, -np.finfo(float).max, 1e16, 1e17],
    [1 / 3, -1 / 3, 0.1, 123456789.125],
])


@pytest.mark.parametrize("fmt, shape", [
    pytest.param("binary", (10, 7), id="binary"),
    pytest.param("csv", (10, 7), id="csv"),
    pytest.param("binary", (0, 3), id="binary-0x3"),
    pytest.param("binary", (3, 0), id="binary-3x0"),
    pytest.param("csv", (3, 0), id="csv-3x0"),
    pytest.param("csv", (0, 4), id="csv-0x4"),
    pytest.param("csv", (1, 1), id="csv-1x1"),
    pytest.param("csv", None, id="csv-edge-values"),
])
def test_write_then_read_bit_identical(tmp_path, fmt, shape):
    rng = np.random.default_rng(0)
    a = EDGE_VALUES if shape is None else rng.standard_normal(shape)
    path = tmp_path / "m.dat"
    save_matrix(path, a, fmt=fmt)
    if fmt == "csv":    # the bytes of one %.17g f-string per value
        assert path.read_bytes() == "".join(
            ",".join(f"{x:.17g}" for x in row) + "\n" for row in a).encode()
    if fmt == "binary" or a.size:   # a CSV file of no values has no shape
        b = load_matrix(path)
        assert b.shape == a.shape
        assert np.array_equal(b, a)


def test_format_sniffing(tmp_path):
    a = np.array([[1.5, -2.5]])
    bin_path = tmp_path / "b"
    csv_path = tmp_path / "c"
    save_matrix(bin_path, a, fmt="binary")
    save_matrix(csv_path, a, fmt="csv")
    assert np.array_equal(load_matrix(bin_path), a)
    assert np.array_equal(load_matrix(csv_path), a)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.zsm"
    path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + struct.pack("<d", 0.0))
    # without the magic the file is treated as CSV and fails to parse;
    # an explicit binary read reports the magic itself
    with pytest.raises(DataError, match="magic"):
        load_matrix(path, fmt="binary")


def test_payload_size_mismatch(tmp_path):
    path = tmp_path / "m.zsm"
    # a short payload, then one with trailing bytes
    for count in (3, 5):
        path.write_bytes(struct.pack("<4sII", b"ZSRM", 2, 2)
                         + struct.pack(f"<{count}d", *range(count)))
        with pytest.raises(DataError, match=f"payload is {8 * count} bytes "
                                            f"but header declares"):
            load_matrix(path)


def test_payload_shrinking_after_size_check(tmp_path, monkeypatch):
    # a file cut short between the size check and the read is refused,
    # not returned with uninitialized entries
    path = tmp_path / "m.zsm"
    path.write_bytes(struct.pack("<4sII3d", b"ZSRM", 2, 2, 1.0, 2.0, 3.0))
    real_fstat = os.fstat

    def stale_fstat(fd):
        st = real_fstat(fd)
        return types.SimpleNamespace(st_size=st.st_size + 8)

    monkeypatch.setattr(os, "fstat", stale_fstat)
    with pytest.raises(DataError, match="payload is 24 bytes"):
        load_matrix(path)


def test_nonfinite_entry_reported_with_location(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("1.0,2.0\n3.0,nan\n")
    bin_path = tmp_path / "m.zsm"
    bin_path.write_bytes(struct.pack("<4sII4d", b"ZSRM", 2, 2,
                                     1.0, 2.0, 3.0, float("nan")))
    for path in (csv_path, bin_path):
        with pytest.raises(DataError, match="row 1, col 1"):
            load_matrix(path)


def test_ragged_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="expected 2 columns"):
        load_matrix(path)


@pytest.mark.parametrize("fault", [b"x,2", b"3"])
def test_csv_reports_a_later_non_utf8_line_first(tmp_path, fault):
    # as when the whole text was decoded before any line was parsed
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\n" + fault + b"\n\n5,6\r7,\xff8\n")
    with pytest.raises(DataError, match=r"m\.csv:5: not valid UTF-8$"):
        load_matrix(path)


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.txt"
    save_labels(path, [3, 0, 2, 2])
    assert np.array_equal(load_labels(path), [3, 0, 2, 2])


def test_labels_reject_garbage(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1\ntwo\n")
    with pytest.raises(DataError, match="integer"):
        load_labels(path)


@pytest.mark.parametrize("text, want", [
    ("\n\n", []), ("007\n\n0\n", [7, 0]),
    (f"{2**63 - 1}\n1\n", [2**63 - 1, 1]), ("1_000\n", [1000]),
    ("+5\n", [5]), (" 4\n", [4]), ("\u0663\n", [3])])
def test_labels_parse_as_int_parses_each_line(tmp_path, text, want):
    # digit-only files take a whole-text numpy parse; the others, and a
    # value numpy saturates at the int64 maximum, the per-line parse
    path = tmp_path / "labels.txt"
    path.write_text(text, encoding="utf-8")
    assert load_labels(path).tolist() == want


@pytest.mark.parametrize("value", [2**63, 2**64 + 5, -2**63 - 1])
def test_labels_reject_int64_overflow(tmp_path, value):
    path = tmp_path / "labels.txt"
    path.write_text(f"1\n\n{value}\n")
    with pytest.raises(DataError, match=f"labels.txt:3: {value} does not fit"):
        load_labels(path)


def _small_table():
    vecs = np.array([[1.0, 0.0, 0.5],
                     [0.0, 1.0, 0.5]])
    return PrototypeTable(np.array([0, 1, 2]), vecs,
                          np.array([True, True, False]))


def test_prototypes_roundtrip(tmp_path):
    table = _small_table()
    mp, pp = tmp_path / "p.zsm", tmp_path / "p.txt"
    save_prototypes(table, mp, pp)
    loaded = load_prototypes(mp, pp)
    assert np.array_equal(loaded.vectors, table.vectors)
    assert np.array_equal(loaded.class_ids, table.class_ids)
    assert np.array_equal(loaded.seen, table.seen)


def test_partition_bad_tag(tmp_path):
    table = _small_table()
    mp, pp = tmp_path / "p.zsm", tmp_path / "p.txt"
    save_prototypes(table, mp, pp)
    pp.write_text("0 S\n1 X\n2 U\n")
    with pytest.raises(DataError, match="S|U"):
        load_prototypes(mp, pp)


@pytest.mark.parametrize("value", [2**63, 10**30])
def test_partition_rejects_int64_overflow(tmp_path, value):
    table = _small_table()
    mp, pp = tmp_path / "p.zsm", tmp_path / "p.txt"
    save_prototypes(table, mp, pp)
    pp.write_text(f"0 S\n{value} S\n2 U\n")
    with pytest.raises(DataError, match=f"p.txt:2: {value} does not fit"):
        load_prototypes(mp, pp)


def test_partition_count_mismatch(tmp_path):
    table = _small_table()
    mp, pp = tmp_path / "p.zsm", tmp_path / "p.txt"
    save_prototypes(table, mp, pp)
    pp.write_text("0 S\n1 S\n")
    with pytest.raises(DataError, match="partition lines"):
        load_prototypes(mp, pp)


def test_table_rejects_zero_prototype():
    vecs = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DataError, match="zero vector"):
        PrototypeTable(np.array([0, 1]), vecs, np.array([True, False]))


def test_table_rejects_duplicate_ids():
    vecs = np.eye(2)
    with pytest.raises(DataError, match="duplicate"):
        PrototypeTable(np.array([1, 1]), vecs, np.array([True, False]))


@pytest.mark.parametrize("source", ["constructed", "split", "synthesize"])
def test_dataset_arrays_are_read_only(source):
    x = np.arange(12.0).reshape(3, 4)
    labels = np.array([0, 0, 1, 1])
    if source == "constructed":
        dataset = LabeledDataset(x, labels, 2)
    else:
        full, table, _ = synthesize(SynthSpec(d_v=4, d_s=2, seen_count=2,
                                              unseen_count=1, per_class=2))
        dataset = full if source == "synthesize" else split(full, table)[0]
    for a in (dataset.features, dataset.labels):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    if source == "constructed":
        # the caller's arrays are viewed, not copied, and stay writable
        x[0, 0] = 5.0
        labels[0] = 1
        assert dataset.features[0, 0] == 5.0 and dataset.labels[0] == 1


def test_dataset_rejects_label_out_of_range():
    with pytest.raises(DataError, match="out of range"):
        LabeledDataset(np.ones((2, 2)), np.array([0, 5]), 2)


def test_split_all_seen():
    ds = LabeledDataset(np.arange(6.0).reshape(2, 3), np.array([0, 1, 0]), 2)
    table = PrototypeTable(np.array([0, 1]), np.eye(2),
                           np.array([True, True]))
    seen, unseen = split(ds, table)
    assert seen.instance_count == 3
    assert unseen.instance_count == 0


def test_split_counts_match_per_class_totals():
    spec = SynthSpec(d_v=12, d_s=6, seen_count=40, unseen_count=10,
                     per_class=4, seed=1)
    ds, table, _ = synthesize(spec)
    seen, unseen = split(ds, table)
    assert seen.instance_count == 40 * 4
    assert unseen.instance_count == 10 * 4
    assert seen.instance_count + unseen.instance_count == ds.instance_count
    # every instance lands exactly once, with its own feature column
    recombined = np.concatenate([seen.features, unseen.features], axis=1)
    assert sorted(map(tuple, recombined.T)) == sorted(map(tuple, ds.features.T))


def test_split_empty_seen_is_an_error():
    ds = LabeledDataset(np.ones((2, 2)), np.array([1, 1]), 2)
    table = PrototypeTable(np.array([0, 1]), np.eye(2),
                           np.array([True, False]))
    with pytest.raises(DataError, match="nothing to train on"):
        split(ds, table)


def test_split_label_without_prototype():
    ds = LabeledDataset(np.ones((2, 2)), np.array([0, 1]), 2)
    table = PrototypeTable(np.array([0]), np.eye(2, 1),
                           np.array([True]))
    with pytest.raises(DataError, match="without a prototype"):
        split(ds, table)


def test_synthesize_noiseless_is_exact():
    spec = SynthSpec(d_v=10, d_s=4, seen_count=3, unseen_count=2,
                     per_class=5, noise_sigma=0.0, shift_sigma=0.0, seed=9)
    ds, table, gmap = synthesize(spec)
    for i in range(ds.instance_count):
        c = ds.labels[i]
        assert np.array_equal(ds.features[:, i], gmap @ table.vectors[:, c])


def test_synthesize_deterministic():
    spec = SynthSpec(d_v=8, d_s=3, seen_count=4, unseen_count=2,
                     per_class=3, noise_sigma=0.1, shift_sigma=0.2, seed=21)
    a = synthesize(spec)
    b = synthesize(spec)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[0].labels, b[0].labels)
    assert np.array_equal(a[1].vectors, b[1].vectors)
    assert np.array_equal(a[2], b[2])


def test_synthesize_counting():
    spec = SynthSpec(d_v=6, d_s=3, seen_count=4, unseen_count=1,
                     per_class=5, seed=2)
    ds, table, _ = synthesize(spec)
    seen, _ = split(ds, table)
    assert seen.instance_count == 20


def test_synthesize_prototypes_on_unit_sphere():
    spec = SynthSpec(d_v=6, d_s=3, seen_count=4, unseen_count=2,
                     per_class=2, seed=3)
    _, table, _ = synthesize(spec)
    assert np.allclose(np.linalg.norm(table.vectors, axis=0), 1.0)


@pytest.mark.parametrize("spec, need", [
    (SynthSpec(per_class=10**13), 204000000000016000),  # 178 PiB
    # more columns than numpy can index
    (SynthSpec(per_class=10**20), 2040000000000000000016000),
    (SynthSpec(d_v=10**17, d_s=3), 1002400000000000011200),
])
def test_synthesize_unallocatable_size_is_data_error(spec, need):
    # each first allocation that fails asks for more than 2**57 bytes,
    # beyond any address space: it fails before any memory is touched
    with pytest.raises(DataError) as exc:
        synthesize(spec)
    assert str(exc.value) == (f"{spec} asks for {need} bytes, more memory "
                              f"than can be allocated")


def test_synth_spec_validation():
    with pytest.raises(DataError, match="positive"):
        SynthSpec(per_class=0)
    with pytest.raises(DataError, match=">= 0"):
        SynthSpec(noise_sigma=-0.1)


def test_synth_spec_rejects_negative_seed():
    with pytest.raises(DataError, match="seed must be >= 0"):
        SynthSpec(seed=-1)


def test_synth_spec_warns_when_semantic_exceeds_visual():
    with pytest.warns(UserWarning, match="semantic dimension"):
        SynthSpec(d_v=4, d_s=8)


@pytest.mark.parametrize("labels", [5, [[0, 0]]])
def test_labels_must_be_one_dimensional(labels):
    # a scalar label used to end in an IndexError
    with pytest.raises(DataError, match=r"labels must be 1-D, got shape"):
        LabeledDataset(np.ones((2, 2)), labels, 1)


def test_synthesize_checks_features_without_a_full_mask():
    # each class block is checked as it is made: the peak beyond the
    # features holds no boolean mask of all of them (d_v x m bytes)
    spec = SynthSpec(d_v=512, d_s=16, seen_count=60, unseen_count=20,
                     per_class=50, noise_sigma=0.1, shift_sigma=0.1, seed=0)
    synthesize(SynthSpec(d_v=4, d_s=2, seen_count=2, unseen_count=1,
                         per_class=2))      # first-call allocations
    tracemalloc.start()
    try:
        dataset, _, _ = synthesize(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    features = dataset.features
    assert peak - features.nbytes < features.size / 2


@pytest.mark.parametrize("shape", [(64, 2000), (2000, 64), (20000, 8)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_csv_load_peaks_at_about_two_arrays(tmp_path, shape):
    # the parsed chunks and the array they are joined into, for long rows
    # and short ones; lists of Python floats peaked at about 6.6 times the
    # array, and one ndarray per row at 4.0 times for 20000 x 8
    a = np.random.default_rng(0).standard_normal(shape)
    path = tmp_path / "m.csv"
    save_matrix(path, a, fmt="csv")
    tracemalloc.start()
    try:
        b = load_matrix(path, fmt="csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(b, a)
    assert peak <= 2.1 * a.nbytes


# ---------------------------------------------------------------------------
# one matrix reader


def _zsrm(shape, payload):
    return struct.pack("<4sII", b"ZSRM", *shape) + payload


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """The files of a small run for ``zsadjust eval``, without features:
    the features are the (6, 18) matrix each test writes."""
    directory = tmp_path_factory.mktemp("run")
    dataset, table, _ = synthesize(SynthSpec(d_v=6, d_s=4, seen_count=4,
                                             unseen_count=2, per_class=3))
    paths = {name: str(directory / name) for name in
             ("model.zsm", "labels.txt", "prototypes.zsm", "partition.txt")}
    save_matrix(paths["model.zsm"], np.ones((4, 6)))
    save_labels(paths["labels.txt"], dataset.labels)
    save_prototypes(table, paths["prototypes.zsm"], paths["partition.txt"])
    return paths, dataset.features


def _malformed(features, case):
    """The bytes of a features file with the fault ``case``."""
    x = features.copy()
    payload = x.astype("<f8").tobytes()
    if case == "bad magic":
        return b"NOPE" + struct.pack("<II", *x.shape) + bytes(len(payload))
    if case == "truncated header":
        return b"ZSRM" + struct.pack("<I", x.shape[0])
    if case == "short payload":
        return _zsrm(x.shape, payload[:-8])
    if case == "trailing bytes":
        return _zsrm(x.shape, payload + bytes(8))
    if case == "nan":
        x[2, 5] = np.nan
        return _zsrm(x.shape, x.astype("<f8").tobytes())
    if case == "inf before nan":
        x[4, 3] = np.nan
        x[1, 10] = np.inf   # earlier in row-major order, later column
        return _zsrm(x.shape, x.astype("<f8").tobytes())
    rows = [",".join(f"{v:.17g}" for v in row) for row in x]
    if case == "csv ragged":
        rows[3] += ",1.0"
    elif case == "csv unparsable":
        rows[2] = rows[2].replace(",", ",x", 1)
    elif case == "csv nan":
        rows[1] = "nan," + rows[1].split(",", 1)[1]
    return ("\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("case", [
    "bad magic", "truncated header", "short payload", "trailing bytes",
    "nan", "inf before nan", "csv ragged", "csv unparsable", "csv nan"])
def test_library_and_cli_report_a_bad_matrix_alike(tmp_path, eval_files,
                                                   capsys, case):
    from zsadjust.cli import main

    paths, features = eval_files
    path = tmp_path / "features"
    path.write_bytes(_malformed(features, case))
    with pytest.raises(DataError) as exc:
        load_matrix(path)
    capsys.readouterr()
    code = main(["eval", "--model", paths["model.zsm"],
                 "--features", str(path), "--labels", paths["labels.txt"],
                 "--prototypes", paths["prototypes.zsm"],
                 "--partition", paths["partition.txt"],
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"data error: {exc.value}\n"


@pytest.mark.parametrize("shape", [(85, 1024), (1, 3000), (3000, 1)])
def test_whole_file_reads_match_the_bytes(tmp_path, monkeypatch, shape):
    import zsadjust.data
    from zsadjust.data import _matrix_columns, _stream_columns, block_width

    a = np.random.default_rng(shape[0]).standard_normal(shape)
    path = tmp_path / "a.zsm"
    save_matrix(path, a)
    want = np.frombuffer(path.read_bytes()[12:], dtype="<f8").reshape(shape)
    assert np.array_equal(load_matrix(path), want)
    rows, cols = shape
    # the stream's buffer: exactly every column, every column with the
    # spare eighth, and narrower blocks read one row segment at a time
    for width in (cols, max(1, cols - cols // 9), max(1, cols // 3)):
        monkeypatch.setattr(zsadjust.data, "BLOCK_BYTES", 8 * rows * width)
        assert block_width(rows) == width
        kept = np.empty(shape)
        every = np.ones(cols, dtype=bool)
        for _ in _stream_columns(_matrix_columns(str(path)), str(path),
                                 ~every, every, kept):
            pass
        assert np.array_equal(kept, want)
