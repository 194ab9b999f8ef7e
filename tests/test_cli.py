import io
import json

import numpy as np
import pytest

from zsadjust.cli import COMMAND_OPTS, HYPER_OPTS, _build, _resolve, \
    build_parser, main
from zsadjust.data import (
    SynthSpec,
    load_labels,
    load_matrix,
    load_prototypes,
    save_labels,
    save_matrix,
    save_prototypes,
)
from zsadjust.mapping import HyperParams

SYNTH_DATA = ["--synth", "--synth-dv", "16", "--synth-ds", "6",
              "--synth-seen", "8", "--synth-unseen", "3",
              "--synth-per-class", "5", "--synth-noise", "0.05",
              "--synth-shift", "0.1"]
SYNTH = [*SYNTH_DATA, "--k", "3", "--iters", "2"]


def test_synth_writes_loadable_dataset(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--synth-dv", "8", "--synth-ds", "4",
                 "--synth-seen", "5", "--synth-unseen", "2",
                 "--synth-per-class", "3", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    feats = load_matrix(out / "features.zsm")
    labels = load_labels(out / "labels.txt")
    table = load_prototypes(out / "prototypes.zsm", out / "partition.txt")
    gmap = load_matrix(out / "ground_truth_map.zsm")
    assert feats.shape == (8, 21)
    assert labels.shape == (21,)
    assert table.vectors.shape == (4, 7)
    assert gmap.shape == (8, 4)


def test_train_synth_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    code = main(["train", *SYNTH, "--seed", "3", "--out", str(out)])
    assert code == 0
    for name in ("model.zsm", "prototypes_adjusted.zsm",
                 "partition_adjusted.txt", "trace.jsonl",
                 "report.txt", "report.json"):
        assert (out / name).exists(), name
    # artifacts round-trip through the loaders
    weights = load_matrix(out / "model.zsm")
    assert weights.shape == (6, 16)
    adjusted = load_prototypes(out / "prototypes_adjusted.zsm",
                               out / "partition_adjusted.txt")
    assert adjusted.vectors.shape == (6, 11)
    records = [json.loads(line)
               for line in (out / "trace.jsonl").read_text().splitlines()]
    assert 1 <= len(records) <= 2
    assert all(np.isfinite(r["objective"]) for r in records)
    report = json.loads((out / "report.json").read_text())
    assert "1" in report["hit_at"] and "5" in report["hit_at"]


def test_train_report_text_matches_json(tmp_path):
    out = tmp_path / "run"
    assert main(["train", *SYNTH, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    text = dict(
        line.split(" ", 1)
        for line in (out / "report.txt").read_text().splitlines()
    )
    assert float(text["hit_at_1"]) == pytest.approx(report["hit_at"]["1"])
    assert int(text["instance_count"]) == report["instance_count"]
    assert float(text["hubness_skewness"]) == \
        pytest.approx(report["hubness_skewness"])


def test_train_same_seed_byte_identical_model(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", *SYNTH, "--seed", "11", "--out", str(out_a)]) == 0
    assert main(["train", *SYNTH, "--seed", "11", "--out", str(out_b)]) == 0
    assert (out_a / "model.zsm").read_bytes() == \
        (out_b / "model.zsm").read_bytes()
    assert (out_a / "prototypes_adjusted.zsm").read_bytes() == \
        (out_b / "prototypes_adjusted.zsm").read_bytes()


def test_missing_features_file_is_data_error(tmp_path, capsys):
    code = main(["train", "--features", str(tmp_path / "nope.zsm"),
                 "--labels", "x", "--prototypes", "y", "--partition", "z",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "nope.zsm" in err


def test_bad_flag_value_is_config_error(tmp_path, capsys):
    code = main(["train", "--alpha", "frog", "--out", str(tmp_path)])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_invalid_hyperparams_config_error(tmp_path, capsys):
    code = main(["train", *SYNTH, "--beta", "0", "--out", str(tmp_path)])
    assert code == 1
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "nan"), ("--beta", "inf"), ("--tol", "nan"),
    ("--synth-noise", "nan"),
])
def test_non_finite_flag_is_config_error(tmp_path, capsys, flag, value):
    code = main(["train", *SYNTH, flag, value, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "must be finite" in err


def test_unknown_flag_is_config_error(tmp_path):
    assert main(["train", "--frobnicate", "1"]) == 1


def test_config_file_supplies_values_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "synth = true\n"
        "synth-dv = 16\nsynth-ds = 6\nsynth-seen = 8\nsynth-unseen = 3\n"
        "synth-per-class = 5\nk = 3\niters = 2\n"
        "seed = 5\n"
    )
    out_cfg = tmp_path / "from_config"
    assert main(["train", "--config", str(cfg), "--out", str(out_cfg)]) == 0
    assert (out_cfg / "model.zsm").exists()

    # a flag overrides the config seed: results differ
    out_flag = tmp_path / "flag_wins"
    assert main(["train", "--config", str(cfg), "--seed", "6",
                 "--out", str(out_flag)]) == 0
    assert (out_cfg / "model.zsm").read_bytes() != \
        (out_flag / "model.zsm").read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "wibble" in capsys.readouterr().err


def test_train_from_files_roundtrip(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--synth-dv", "16", "--synth-ds", "6",
                 "--synth-seen", "8", "--synth-unseen", "3",
                 "--synth-per-class", "5", "--synth-noise", "0.05",
                 "--seed", "2", "--out", str(data_dir)]) == 0
    out = tmp_path / "run"
    code = main(["train",
                 "--features", str(data_dir / "features.zsm"),
                 "--labels", str(data_dir / "labels.txt"),
                 "--prototypes", str(data_dir / "prototypes.zsm"),
                 "--partition", str(data_dir / "partition.txt"),
                 "--k", "3", "--iters", "2", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()


def test_eval_on_trained_model(tmp_path):
    run = tmp_path / "run"
    assert main(["train", *SYNTH, "--seed", "4", "--out", str(run)]) == 0
    out = tmp_path / "eval"
    code = main(["eval", "--model", str(run / "model.zsm"), *SYNTH_DATA,
                 "--seed", "4", "--ks", "1,2", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["hit_at"]) == {"1", "2"}


def test_sweep_writes_plot_table(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep-k", *SYNTH, "--k-list", "1,3,5",
                 "--out", str(out)])
    assert code == 0
    table = load_matrix(out / "sweep.csv", fmt="csv")
    assert table.shape == (3, 2)
    assert np.array_equal(table[:, 0], [1.0, 3.0, 5.0])
    assert np.all((table[:, 1] >= 0) & (table[:, 1] <= 1))


def test_sweep_rows_match_library(tmp_path):
    from zsadjust.data import SynthSpec, split, synthesize
    from zsadjust.inference import sweep_k
    from zsadjust.mapping import HyperParams

    out = tmp_path / "sweep"
    assert main(["sweep-k", *SYNTH, "--seed", "9", "--k-list", "2,4",
                 "--out", str(out)]) == 0
    table = load_matrix(out / "sweep.csv", fmt="csv")

    spec = SynthSpec(d_v=16, d_s=6, seen_count=8, unseen_count=3,
                     per_class=5, noise_sigma=0.05, shift_sigma=0.1, seed=9)
    ds, protos, _ = synthesize(spec)
    seen, unseen = split(ds, protos)
    curve = sweep_k(seen, unseen, protos,
                    HyperParams(iterations=2, k=3), [2, 4])
    assert table[0, 1] == curve[2]
    assert table[1, 1] == curve[4]


def test_sweep_flat_when_gamma2_zero(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep-k", *SYNTH, "--gamma2", "0", "--k-list", "1,3,5",
                 "--out", str(out)])
    assert code == 0
    table = load_matrix(out / "sweep.csv", fmt="csv")
    assert len(set(table[:, 1])) == 1


def test_bench_single_repeat(tmp_path):
    out = tmp_path / "bench"
    code = main(["bench", *SYNTH, "--repeats", "1", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "bench.json").read_text())
    assert result["repeats"] == 1
    assert result["median_ms"] == result["max_ms"]
    text = (out / "bench.txt").read_text()
    assert "median_ms" in text and "max_ms" in text


def _degenerate_files(tmp_path):
    """File arguments of one seen class with one instance: the normal
    equation is singular."""
    data_dir = tmp_path / "degenerate"
    data_dir.mkdir()
    save_matrix(data_dir / "features.zsm", np.array([[1.0], [0.0]]))
    save_labels(data_dir / "labels.txt", [0])
    from zsadjust.data import PrototypeTable
    table = PrototypeTable(np.array([0, 1]), np.eye(2),
                           np.array([True, False]))
    save_prototypes(table, data_dir / "prototypes.zsm",
                    data_dir / "partition.txt")
    return ["--features", str(data_dir / "features.zsm"),
            "--labels", str(data_dir / "labels.txt"),
            "--prototypes", str(data_dir / "prototypes.zsm"),
            "--partition", str(data_dir / "partition.txt")]


def test_solver_failure_exit_code(tmp_path, capsys):
    code = main(["train", *_degenerate_files(tmp_path),
                 "--k", "1", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "singular" in capsys.readouterr().err


def test_help_shows_default_blend_weights(capsys):
    assert main(["train", "--help"]) == 0
    text = capsys.readouterr().out
    for value in ("0.75", "0.25", "0.8", "0.2"):
        assert f"(default: {value})" in text


def test_normalize_modes(tmp_path):
    out = tmp_path / "norm"
    code = main(["train", *SYNTH, "--normalize", "both", "--out", str(out)])
    assert code == 0
    code = main(["train", *SYNTH, "--normalize", "sideways",
                 "--out", str(out)])
    assert code == 1


def test_unseen_neighbor_source_flag(tmp_path):
    out_adj = tmp_path / "adj"
    out_orig = tmp_path / "orig"
    assert main(["train", *SYNTH, "--out", str(out_adj)]) == 0
    assert main(["train", *SYNTH, "--unseen-neighbors", "original",
                 "--out", str(out_orig)]) == 0
    a = load_prototypes(out_adj / "prototypes_adjusted.zsm",
                        out_adj / "partition_adjusted.txt")
    b = load_prototypes(out_orig / "prototypes_adjusted.zsm",
                        out_orig / "partition_adjusted.txt")
    unseen = ~a.seen
    assert not np.array_equal(a.vectors[:, unseen], b.vectors[:, unseen])


def test_eval_visual_direction(tmp_path):
    run = tmp_path / "run"
    assert main(["train", *SYNTH, "--seed", "4", "--out", str(run)]) == 0
    out = tmp_path / "eval"
    code = main(["eval", "--model", str(run / "model.zsm"), *SYNTH_DATA,
                 "--seed", "4", "--direction", "visual", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["hit_at"]["1"] <= 1.0


def test_eval_without_unseen_instances(tmp_path, capsys):
    # all classes seen: nothing to zero-shot evaluate
    data_dir = tmp_path / "data"
    assert main(["synth", "--synth-dv", "8", "--synth-ds", "4",
                 "--synth-seen", "3", "--synth-unseen", "1",
                 "--synth-per-class", "2", "--out", str(data_dir)]) == 0
    (data_dir / "partition.txt").write_text("0 S\n1 S\n2 S\n3 S\n")
    run = tmp_path / "run"
    assert main(["train",
                 "--features", str(data_dir / "features.zsm"),
                 "--labels", str(data_dir / "labels.txt"),
                 "--prototypes", str(data_dir / "prototypes.zsm"),
                 "--partition", str(data_dir / "partition.txt"),
                 "--k", "2", "--iters", "1", "--out", str(run)]) == 0
    assert "evaluation skipped" in capsys.readouterr().out
    assert not (run / "report.json").exists()
    code = main(["eval", "--model", str(run / "model.zsm"),
                 "--features", str(data_dir / "features.zsm"),
                 "--labels", str(data_dir / "labels.txt"),
                 "--prototypes", str(data_dir / "prototypes.zsm"),
                 "--partition", str(data_dir / "partition.txt"),
                 "--out", str(tmp_path / "eval")])
    assert code == 2


def _train_on_files(tmp_path):
    """Synthetic data written to files and a model trained on them:
    (data dir, run dir, the file arguments of eval minus the features
    and labels, which each test picks)."""
    data_dir = tmp_path / "data"
    assert main(["synth", "--synth-dv", "16", "--synth-ds", "6",
                 "--synth-seen", "8", "--synth-unseen", "3",
                 "--synth-per-class", "5", "--synth-noise", "0.05",
                 "--seed", "2", "--out", str(data_dir)]) == 0
    run = tmp_path / "run"
    assert main(["train",
                 "--features", str(data_dir / "features.zsm"),
                 "--labels", str(data_dir / "labels.txt"),
                 "--prototypes", str(data_dir / "prototypes.zsm"),
                 "--partition", str(data_dir / "partition.txt"),
                 "--k", "3", "--iters", "2", "--out", str(run)]) == 0
    eval_args = ["eval", "--model", str(run / "model.zsm"),
                 "--prototypes", str(run / "prototypes_adjusted.zsm"),
                 "--partition", str(run / "partition_adjusted.txt")]
    return data_dir, run, eval_args


def test_eval_on_unseen_only_test_file(tmp_path):
    # the natural zero-shot test set: no seen-class instance at all
    data_dir, run, eval_args = _train_on_files(tmp_path)
    feats = load_matrix(data_dir / "features.zsm")
    labels = load_labels(data_dir / "labels.txt")
    unseen = labels >= 8
    save_matrix(tmp_path / "test.zsm", feats[:, unseen])
    save_labels(tmp_path / "test.txt", labels[unseen])
    out = tmp_path / "eval"
    assert main([*eval_args, "--features", str(tmp_path / "test.zsm"),
                 "--labels", str(tmp_path / "test.txt"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    trained = json.loads((run / "report.json").read_text())
    assert report["instance_count"] == 15
    for key in ("hit_at", "per_class_accuracy", "hubness_skewness"):
        assert report[key] == trained[key]


def test_eval_rejects_nan_in_seen_column(tmp_path, capsys):
    # eval scores only the unseen columns but still checks the whole file
    data_dir, _, eval_args = _train_on_files(tmp_path)
    feats = load_matrix(data_dir / "features.zsm").copy()
    assert load_labels(data_dir / "labels.txt")[7] < 8
    feats[2, 7] = np.nan
    # save_matrix refuses NaN: write the file by hand
    (tmp_path / "nan.zsm").write_bytes(
        b"ZSRM" + np.array(feats.shape, "<u4").tobytes()
        + feats.astype("<f8").tobytes())
    code = main([*eval_args, "--features", str(tmp_path / "nan.zsm"),
                 "--labels", str(data_dir / "labels.txt"),
                 "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "non-finite entry at row 2, col 7" in capsys.readouterr().err


def test_label_count_mismatch_is_data_error(tmp_path, capsys):
    data_dir, _, eval_args = _train_on_files(tmp_path)
    save_labels(tmp_path / "short.txt",
                load_labels(data_dir / "labels.txt")[:-1])
    code = main([*eval_args, "--features", str(data_dir / "features.zsm"),
                 "--labels", str(tmp_path / "short.txt"),
                 "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "54 labels for 55 columns" in capsys.readouterr().err


def test_zero_seen_blend_is_data_error(tmp_path, capsys):
    # --lambda1 0 and class 0's features average to the zero vector
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    save_matrix(data_dir / "features.zsm",
                np.array([[1.0, -1.0, 0.0, 0.0, 1.0],
                          [0.0, 0.0, 1.0, 0.0, 1.0],
                          [0.0, 0.0, 0.0, 1.0, 1.0]]))
    save_labels(data_dir / "labels.txt", [0, 0, 1, 1, 2])
    from zsadjust.data import PrototypeTable
    table = PrototypeTable(np.array([0, 1, 2]),
                           np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
                           np.array([True, True, False]))
    save_prototypes(table, data_dir / "prototypes.zsm",
                    data_dir / "partition.txt")
    code = main(["train",
                 "--features", str(data_dir / "features.zsm"),
                 "--labels", str(data_dir / "labels.txt"),
                 "--prototypes", str(data_dir / "prototypes.zsm"),
                 "--partition", str(data_dir / "partition.txt"),
                 "--k", "1", "--lambda1", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "seen adjustment" in err and "[0]" in err and "zero vector" in err


def test_bench_honours_normalize(tmp_path, monkeypatch):
    import zsadjust.trainer

    real_train = zsadjust.trainer.train
    norms = []

    def spy(seen, *args, **kwargs):
        norms.append(np.linalg.norm(seen.features, axis=0))
        return real_train(seen, *args, **kwargs)

    monkeypatch.setattr(zsadjust.trainer, "train", spy)
    assert main(["bench", *SYNTH, "--synth-noise", "1", "--normalize",
                 "features", "--out", str(tmp_path / "bench")]) == 0
    assert len(norms) == 1
    assert np.allclose(norms[0], 1.0, rtol=1e-12)


@pytest.mark.parametrize("normalize, message", [
    ("none", "rescale the features"), ("features", "feature column 5"),
])
def test_overflowing_features_are_data_error(tmp_path, capsys, normalize,
                                             message):
    # feature column 5 scaled by 1e300: every entry is finite, but its
    # square is not
    data_dir = tmp_path / "data"
    assert main(["synth", "--synth-dv", "16", "--synth-ds", "6",
                 "--synth-seen", "8", "--synth-unseen", "3",
                 "--synth-per-class", "5", "--out", str(data_dir)]) == 0
    feats = load_matrix(data_dir / "features.zsm").copy()
    feats[:, 5] *= 1e300
    save_matrix(data_dir / "features.zsm", feats)
    assert main(["train", "--features", str(data_dir / "features.zsm"),
                 "--labels", str(data_dir / "labels.txt"),
                 "--prototypes", str(data_dir / "prototypes.zsm"),
                 "--partition", str(data_dir / "partition.txt"),
                 "--k", "3", "--iters", "1", "--normalize", normalize,
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_bare_boolean_flag_means_true(tmp_path):
    # the singular problem of test_solver_failure_exit_code trains once
    # the ridge retry is on
    assert main(["train", "--ridge-retry", *_degenerate_files(tmp_path),
                 "--k", "1", "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    code = main([command, *(SYNTH if command == "train" else []),
                 "--seed", "-1", "--out", str(tmp_path)])
    assert code == 1
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["labels.txt", "partition.txt"])
def test_int64_overflow_in_file_is_data_error(tmp_path, capsys, name):
    data_dir, _, _ = _train_on_files(tmp_path)
    path = data_dir / name
    lines = path.read_text().splitlines()
    lines[1] = " ".join([str(2**63), *lines[1].split()[1:]])
    path.write_text("\n".join(lines) + "\n")
    code = main(["train", "--features", str(data_dir / "features.zsm"),
                 "--labels", str(data_dir / "labels.txt"),
                 "--prototypes", str(data_dir / "prototypes.zsm"),
                 "--partition", str(data_dir / "partition.txt"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{name}:2: {2**63} does not fit in 64 bits" in err


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, artifacts", [
    (["synth"], ["features.zsm", "labels.txt", "prototypes.zsm",
                 "partition.txt", "ground_truth_map.zsm"]),
    (["train", *SYNTH], ["model.zsm", "prototypes_adjusted.zsm",
                         "partition_adjusted.txt", "trace.jsonl",
                         "report.txt", "report.json"]),
    (["sweep-k", *SYNTH, "--k-list", "1,2"], ["sweep.csv"]),
    (["bench", *SYNTH], ["bench.txt", "bench.json"]),
])
def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys, argv,
                                    artifacts):
    monkeypatch.setattr("sys.stdout", _ClosedStdout())
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name in artifacts:
        assert (tmp_path / name).is_file(), name
    assert capsys.readouterr().err == ""


def test_default_options_build_default_dataclasses():
    # every option default comes from the dataclass field it sets
    parser = build_parser()
    for command, tables in COMMAND_OPTS.items():
        opts = _resolve(parser.parse_args([command]))
        assert _build(SynthSpec, opts) == SynthSpec(), command
        if HYPER_OPTS in tables:
            assert _build(HyperParams, opts) == HyperParams(), command


@pytest.mark.parametrize("option, message", [
    ("--lambda1=1e308", "seen adjustment blends the prototypes of classes "
                        "[0, 1, 2, 3, 4, 5, 6, 7] beyond the float range; "
                        "lower lambda1 and gamma1"),
    ("--gamma1=1e300", "seen adjustment blends the prototypes of classes "
                       "[0, 1, 2, 3, 4, 5, 6, 7] beyond the float range"),
    ("--lambda2=1e308", "unseen adjustment blends the prototypes of classes "
                        "[8, 9, 10] beyond the float range; lower lambda2 "
                        "and gamma2"),
    # every blended prototype has a finite norm, but L = P diag(n) P^T
    # overflows
    ("--lambda1=1e154", "the normal equation overflows"),
    ("--synth-noise=1e308", "SynthSpec(d_v=16, d_s=6, seen_count=8, "
                            "unseen_count=3, per_class=5, noise_sigma=1e+308,"
                            " shift_sigma=0.1, seed=0) generates features "
                            "beyond the float range"),
], ids=["lambda1", "gamma1", "lambda2", "normal-equation", "synth-noise"])
# and no numpy overflow warning on the way
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_finite_option_is_data_error(tmp_path, capsys, option, message):
    code = main(["train", *SYNTH, option, "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("train", "--ks"), ("eval", "--ks"),
                                           ("sweep-k", "--k-list")])
@pytest.mark.parametrize("text", ["", " , ", ","])
@pytest.mark.parametrize("in_config", [False, True])
def test_empty_k_list_is_config_error(tmp_path, capsys, command, flag, text,
                                      in_config):
    out = tmp_path / "run"
    if in_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {text}\n")
        argv = ["--config", str(cfg)]
    else:
        argv = [f"{flag}={text}"]
    code = main([command, *SYNTH_DATA, *argv, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (f"configuration error: bad value for "
                                       f"{flag}: must name at least one k\n")
    assert not out.exists()
