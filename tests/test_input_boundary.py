"""The input boundary: one UTF-8 line reader for every text file and one
number check for every scalar parameter.

The property tests write label, sidecar, CSV and config files with
random blank lines and padding, corrupt at most one line, and require
the loader to equal a plain reference parse or to name exactly that
line. The CLI property test gives arbitrary strings to the numeric
options; valid values are kept small so that no example asks for a
large allocation or iteration count.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zsadjust.adjustment import _knn
from zsadjust.cli import COMMAND_OPTS, _read_config, main
from zsadjust.data import (
    LabeledDataset,
    PrototypeTable,
    SynthSpec,
    load_labels,
    load_matrix,
    load_prototypes,
    save_matrix,
    split,
    synthesize,
)
from zsadjust.errors import ConfigError, DataError
from zsadjust.inference import evaluate, sweep_k
from zsadjust.mapping import HyperParams
from zsadjust.trainer import benchmark_training, train

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=50,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# a small synthetic run, as (option, value) pairs
SMALL = [("synth-dv", "16"), ("synth-ds", "6"), ("synth-seen", "8"),
         ("synth-unseen", "3"), ("synth-per-class", "5"), ("k", "3"),
         ("iters", "2")]


def _config_text(pairs):
    return "synth = true\n" + "".join(f"{key} = {value}\n"
                                      for key, value in pairs)


# ---------------------------------------------------------------------------
# one number check


@pytest.fixture(scope="module")
def trained():
    dataset, table, _ = synthesize(SynthSpec(d_v=16, d_s=6, seen_count=8,
                                             unseen_count=3, per_class=5))
    seen, unseen = split(dataset, table)
    hp = HyperParams(k=3, iterations=1)
    model, adjusted, _ = train(seen, table, hp)
    return dict(seen=seen, unseen=unseen, table=table, hp=hp, model=model,
                adjusted=adjusted)


@pytest.mark.parametrize("name, call", [
    ("k", lambda t: HyperParams(k=2.5)),
    ("iterations", lambda t: HyperParams(iterations=2.5)),
    ("k", lambda t: evaluate(t["model"], t["unseen"], t["adjusted"],
                             ks=(2.5,))),
    ("k", lambda t: sweep_k(t["seen"], t["unseen"], t["table"], t["hp"],
                            [2, 2.5])),
    ("repeats", lambda t: benchmark_training((t["seen"], t["table"]), t["hp"],
                                             repeats=1.5)),
    ("k", lambda t: HyperParams(k=True)),
])
def test_library_rejects_a_non_integer_count(trained, name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        call(trained)


@pytest.mark.parametrize("name, call", [
    ("ks", lambda t: evaluate(t["model"], t["unseen"], t["adjusted"], ks=())),
    ("k_values", lambda t: sweep_k(t["seen"], t["unseen"], t["table"],
                                   t["hp"], [])),
    ("k_values", lambda t: sweep_k(t["seen"], t["unseen"], t["table"],
                                   t["hp"], iter(()))),
])
def test_library_rejects_an_empty_k_list(trained, name, call):
    # as the CLI refuses --ks "" and --k-list ""
    with pytest.raises(ValueError, match=f"^{name} must name at least one k$"):
        call(trained)


@pytest.mark.parametrize("field", ["d_v", "seed"])
def test_synth_spec_rejects_a_non_integer_field(field):
    with pytest.raises(DataError, match=f"^{field} must be an integer, got"):
        SynthSpec(**{field: float(SynthSpec.__dataclass_fields__[field]
                                  .default) + 0.5})


@pytest.mark.parametrize("kwargs, message", [
    (dict(alpha="0.5"), "alpha must be a real number, got '0.5'"),
    (dict(alpha=True), "alpha must be a real number, got True"),
    (dict(tol=float("inf")), "tol must be finite"),
    (dict(lambda2=-1), "lambda2 must be >= 0"),
    (dict(beta=-1.0), "beta must be > 0"),
    (dict(k=0), "k must be a positive integer"),
])
def test_hyperparams_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        HyperParams(**kwargs)


def test_numbers_of_numpy_types_pass(trained):
    hp = HyperParams(alpha=np.float32(0.5), k=np.int64(3), iterations=1)
    assert hp.k == 3
    report = evaluate(trained["model"], trained["unseen"], trained["adjusted"],
                      ks=(np.int64(1), 2))
    assert sorted(report.hit_at) == [1, 2]
    assert all(type(k) is int for k in report.hit_at)


def test_dataset_rejects_non_integer_labels():
    with pytest.raises(DataError, match="labels must be integers"):
        LabeledDataset(np.ones((2, 3)), [0.5, 1.7, 2.2], 3)
    # integer-valued arrays of any numeric dtype keep working
    for labels in ([0.0, 1.0, 2.0], np.array([0, 1, 2], dtype=np.uint8)):
        dataset = LabeledDataset(np.ones((2, 3)), labels, 3)
        assert dataset.labels.dtype == np.int64
        assert dataset.labels.tolist() == [0, 1, 2]


def test_table_rejects_non_integer_class_ids():
    with pytest.raises(DataError, match="class ids must be integers"):
        PrototypeTable([0.5, 1.5], np.eye(2), [True, False])
    for ids in ([0, float("nan")], [0, 2**63]):
        with pytest.raises(DataError, match="class ids must be integers"):
            PrototypeTable(ids, np.eye(2), [True, False])
    table = PrototypeTable([3.0, 7.0], np.eye(2), [True, False])
    assert table.class_ids.tolist() == [3, 7]


# ---------------------------------------------------------------------------
# one text reader


BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]


def _written(tmp_path, name, text, line, bad=b"\xff"):
    """``text`` as a file with ``bad`` put in front of line ``line``."""
    lines = text.encode("utf-8").split(b"\n")
    lines[line - 1] = bad + lines[line - 1]
    path = tmp_path / name
    path.write_bytes(b"\n".join(lines))
    return path


def test_bad_byte_in_a_data_file_names_its_line(tmp_path):
    labels = _written(tmp_path, "labels.txt", "1\n\n2\n", 3)
    with pytest.raises(DataError, match=r"labels.txt:3: not valid UTF-8"):
        load_labels(labels)
    csv = _written(tmp_path, "m.csv", "1,2\n3,4\n", 2, b"\xc3")
    with pytest.raises(DataError, match=r"m.csv:2: not valid UTF-8"):
        load_matrix(csv)
    save_matrix(tmp_path / "p.zsm", np.eye(2))
    sidecar = _written(tmp_path, "p.txt", "0 S\r\n1 U\r\n", 2)
    with pytest.raises(DataError, match=r"p.txt:2: not valid UTF-8"):
        load_prototypes(tmp_path / "p.zsm", sidecar)
    config = _written(tmp_path, "run.cfg", "k = 3\n# note\n", 2)
    with pytest.raises(ConfigError, match=r"run.cfg:2: not valid UTF-8"):
        _read_config(str(config))


def _data_files(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--synth-dv", "6", "--synth-ds", "3",
                 "--synth-seen", "4", "--synth-unseen", "2",
                 "--synth-per-class", "2", "--out", str(data)]) == 0
    # the features as CSV, so that every input file is text
    save_matrix(data / "features.csv", load_matrix(data / "features.zsm"),
                fmt="csv")
    return data, ["--features", str(data / "features.csv"),
                  "--labels", str(data / "labels.txt"),
                  "--prototypes", str(data / "prototypes.zsm"),
                  "--partition", str(data / "partition.txt"),
                  "--k", "2", "--iters", "1", "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("name", ["features.csv", "labels.txt",
                                  "partition.txt"])
def test_cli_bad_byte_in_a_data_file_exits_2(tmp_path, capsys, name):
    data, argv = _data_files(tmp_path)
    _written(data, name, (data / name).read_text(), 2)
    assert main(["train", *argv]) == 2
    assert f"{name}:2: not valid UTF-8" in capsys.readouterr().err


def test_cli_bad_byte_in_a_config_file_exits_1(tmp_path, capsys):
    config = _written(tmp_path, "run.cfg", "synth = true\nk = 3\n", 2,
                      b"\xe9")
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path)]) == 1
    assert "run.cfg:2: not valid UTF-8" in capsys.readouterr().err


def test_config_is_read_as_utf8_whatever_the_locale(tmp_path, capsys):
    out = tmp_path / "résultats"
    config = tmp_path / "run.cfg"
    config.write_bytes(("# sortie : résultats\n" + _config_text(SMALL)
                        + f"out = {out}\n").encode("utf-8"))
    assert _read_config(str(config))["out"] == str(out)
    code = main(["train", "--config", str(config)])
    try:
        os.fsencode(str(out))
    except UnicodeEncodeError:
        # a file system encoding without "é" (LC_ALL=C with PYTHONUTF8=0)
        # cannot name the directory: a configuration error, no traceback
        assert code == 1
        assert "output directory not writable" in capsys.readouterr().err
    else:
        assert code == 0
        assert (out / "model.zsm").is_file()


def test_unusable_output_path_is_config_error(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "a\0b")]) == 1
    assert "output directory not writable" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# property tests: the readers


PAD = st.sampled_from(["", " ", "\t", "  \t"])


@st.composite
def _layout(draw, contents):
    """Each of ``contents`` padded and after 0-2 blank lines; returns the
    lines and the index of each content line."""
    lines, where = [], []
    for text in contents:
        lines += [draw(PAD) for _ in range(draw(st.integers(0, 2)))]
        where.append(len(lines))
        lines.append(draw(PAD) + text + draw(PAD))
    lines += [draw(PAD) for _ in range(draw(st.integers(0, 2)))]
    return lines, where


@st.composite
def _text_file(draw, contents, faults):
    """A file of ``contents`` with at most one line corrupted, by a byte
    that is not UTF-8 or by one of ``faults``: a map from fault name to a
    strategy for (index of the content line, text that replaces it).
    Returns the file bytes and the 1-based line of the fault, or None."""
    lines, where = draw(_layout(contents))
    raw = [line.encode("utf-8") for line in lines]
    fault = draw(st.sampled_from([None, "utf8", *faults]))
    line = None
    if fault == "utf8":
        line = draw(st.integers(0, len(raw) - 1))
        cut = draw(st.integers(0, len(raw[line])))
        raw[line] = (raw[line][:cut] + draw(st.sampled_from(BAD_BYTES))
                     + raw[line][cut:])
    elif fault is not None:
        index, text = draw(faults[fault])
        line = where[index]
        raw[line] = draw(PAD).encode() + text.encode("utf-8")
    return b"\n".join(raw) + b"\n", None if line is None else line + 1


def _expect(load, path, fault_line, reference, error=DataError):
    if fault_line is None:
        assert load() == reference
        return
    with pytest.raises(error) as info:
        load()
    assert str(info.value).startswith(f"{path}:{fault_line}: ")


INT64 = st.integers(-2**63, 2**63 - 1)
OUTSIDE_INT64 = st.one_of(st.integers(2**63, 2**70),
                          st.integers(-2**70, -2**63 - 1)).map(str)
NOT_AN_INTEGER = st.sampled_from(["x", "1.5", "1e3", "--1", "0x1f", "3 4"])


@PROPERTY
@given(st.data(), st.lists(INT64, min_size=1, max_size=12))
def test_labels_reader_matches_reference(tmp_path, data, values):
    pick = st.integers(0, len(values) - 1)
    body, line = data.draw(_text_file(
        [str(v) for v in values],
        {"integer": st.tuples(pick, NOT_AN_INTEGER),
         "int64": st.tuples(pick, OUTSIDE_INT64)}))
    path = tmp_path / "labels.txt"
    path.write_bytes(body)
    _expect(lambda: load_labels(path).tolist(), path, line, values)


@PROPERTY
@given(st.data(), st.lists(INT64, min_size=1, max_size=8, unique=True))
def test_sidecar_reader_matches_reference(tmp_path, data, ids):
    seen = data.draw(st.lists(st.booleans(), min_size=len(ids),
                              max_size=len(ids)))
    pick = st.integers(0, len(ids) - 1)
    tag = st.sampled_from(["S", "U"])
    body, line = data.draw(_text_file(
        [f"{i} {'S' if s else 'U'}" for i, s in zip(ids, seen)],
        {"integer": st.tuples(pick, st.tuples(NOT_AN_INTEGER, tag).map(
            " ".join)),
         "int64": st.tuples(pick, st.tuples(OUTSIDE_INT64, tag).map(
             " ".join)),
         "tag": st.tuples(pick, st.sampled_from(["7 X", "7 s", "7", "7 S U"]))
         }))
    save_matrix(tmp_path / "p.zsm", np.ones((2, len(ids))))
    path = tmp_path / "p.txt"
    path.write_bytes(body)

    def load():
        table = load_prototypes(tmp_path / "p.zsm", path)
        return table.class_ids.tolist(), table.seen.tolist()

    _expect(load, path, line, (ids, seen))


@settings(PROPERTY, max_examples=80)
@given(st.data(), st.integers(1, 4), st.integers(1, 6))
def test_csv_reader_matches_reference(tmp_path, data, width, height):
    rows = data.draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=width, max_size=width),
        min_size=height, max_size=height))
    text = [",".join(repr(x) for x in row) for row in rows]
    faults = {"unparsable": st.tuples(
        st.integers(0, height - 1),
        st.sampled_from(["x", "1e", "1;2", "nan nan", "0x1f"]).map(
            lambda bad: ",".join(["1"] * (width - 1) + [bad])))}
    if height > 1:
        # a first row of another width would move the fault to line 2
        faults["ragged"] = st.tuples(
            st.integers(1, height - 1),
            st.integers(1, width + 2).filter(lambda w: w != width).map(
                lambda w: ",".join(["1"] * w)))
    body, line = data.draw(_text_file(text, faults))
    path = tmp_path / "m.csv"
    path.write_bytes(body)
    _expect(lambda: load_matrix(path, fmt="csv").tolist(), path, line, rows)


KEY = st.tuples(st.sampled_from("akz"), st.text("ab-", max_size=4)).map(
    "".join)
VALUE = st.text(st.characters(blacklist_categories=["Cs"],
                              blacklist_characters="#\r\n"), max_size=8)


@PROPERTY
@given(st.data(), st.lists(st.tuples(KEY, VALUE), min_size=1, max_size=8))
def test_config_reader_matches_reference(tmp_path, data, pairs):
    comment = st.sampled_from(["", " # note", "#", " # é # ü"])
    body, line = data.draw(_text_file(
        [f"{key} = {value}{data.draw(comment)}" for key, value in pairs],
        {"no_equals": st.tuples(st.integers(0, len(pairs) - 1),
                                st.sampled_from(["key", "k: v", "x # =y"]))}))
    path = tmp_path / "run.cfg"
    path.write_bytes(body)
    reference = {key.replace("-", "_"): value.strip() for key, value in pairs}
    _expect(lambda: _read_config(str(path)), path, line, reference,
            ConfigError)


# ---------------------------------------------------------------------------
# property tests: numeric options never end in a traceback


BASE = {"train": SMALL, "bench": SMALL,
        "sweep-k": [*SMALL, ("k-list", "1,2")]}
# each numeric option once, with the first of these commands that has it
NUMERIC = sorted({flag: command for command in reversed(BASE)
                  for table in COMMAND_OPTS[command]
                  for flag, conv, default, *_ in table
                  if isinstance(default, (int, float, tuple))
                  and not isinstance(default, bool)}.items())

# any text without decimal digits, which cannot name a large number, and
# small numbers
NUMBER_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=["Nd", "Cs"],
                          blacklist_characters="\r\n"), max_size=6),
    st.integers(-3, 9).map(str),
    st.floats(-1.0, 3.0).map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "2.5", "1,2", " 4 ", "+3", "1_0",
                     "0x1f", "True", "٣"]),
)


@pytest.mark.parametrize("flag, command", NUMERIC)
def test_numeric_option_at_its_edges_exits_cleanly(tmp_path, flag, command):
    argv = [f"--{key}={value}" for key, value in BASE[command]]
    for text in ("0", "-1", "2.5", "nan"):
        assert main([command, "--synth", *argv, f"{flag}={text}",
                     "--out", str(tmp_path)]) in (0, 1, 2, 3)


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from(NUMERIC), NUMBER_TEXT, st.booleans())
def test_any_numeric_string_exits_cleanly(tmp_path, option, text, in_config):
    flag, command = option
    if in_config:
        # flags win over the config, so the base options go there too
        config = tmp_path / "run.cfg"
        config.write_text(_config_text([*BASE[command], (flag[2:], text)]),
                          encoding="utf-8")
        argv = ["--config", str(config)]
    else:
        argv = ["--synth", *(f"--{key}={value}" for key, value in
                             BASE[command]), f"{flag}={text}"]
    assert main([command, *argv, "--out", str(tmp_path)]) in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# property test: _knn against a full stable sort


@st.composite
def _tie_heavy_table(draw, ids, seen, d_s):
    """A table over ``ids`` whose columns repeat a few small integer
    vectors; one column may be scaled near the float64 limit, so that
    its similarities are NaN."""
    vector = st.lists(st.integers(-2, 2), min_size=d_s, max_size=d_s).filter(
        any)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    vectors = np.array([draw(st.sampled_from(pool)) for _ in ids],
                       dtype=np.float64).T
    if draw(st.booleans()):
        vectors[:, draw(st.integers(0, len(ids) - 1))] *= 8e307
    with np.errstate(over="ignore"):    # the norm of that column
        return PrototypeTable(ids, vectors, seen)


@settings(PROPERTY, max_examples=60)
@given(st.data(), st.integers(1, 6), st.integers(1, 3), st.integers(1, 3))
def test_knn_matches_full_stable_argsort(data, n_seen, n_unseen, d_s):
    ids = data.draw(st.permutations(range(n_seen + n_unseen)))
    seen = np.isin(ids, data.draw(st.permutations(ids))[:n_seen])
    table = data.draw(_tie_heavy_table(ids, seen, d_s))
    # the neighbours come from the table itself or from another one
    source = data.draw(st.one_of(st.just(table),
                                 _tie_heavy_table(ids, seen, d_s)))
    queries = table.vectors[:, ~table.seen]
    k = data.draw(st.integers(1, n_seen))

    with np.errstate(all="ignore"):
        got_ids, _, top, sims = _knn(source, queries, k)
        order = np.argsort(source.seen_ids)
        vecs = source.vectors[:, np.flatnonzero(source.seen)[order]]
        cos = (vecs.T @ queries) / np.outer(np.linalg.norm(vecs, axis=0),
                                            np.linalg.norm(queries, axis=0))
    # a stable sort on -cos, NaN last
    key = np.where(np.isnan(cos), np.inf, -cos)
    expected = np.argsort(key, axis=0, kind="stable")[:k]
    assert got_ids.tolist() == sorted(source.seen_ids.tolist())
    assert np.array_equal(top, expected)
    np.testing.assert_array_equal(
        sims, np.take_along_axis(cos, expected, axis=0))
