"""Command-line entry point: the ``zsadjust`` subcommands of
``COMMAND_OPTS``, parsed by one parser per process. :func:`main`
resolves a run's options and dispatches to its ``cmd_<name>``, looked up
at call time. README.md gives their options, config files, exit codes
and messages."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .data import (
    LabeledDataset,
    SynthSpec,
    _check_labels,
    _column_norms,
    _matrix_columns,
    _raise_norm_fault,
    _read_lines,
    _stream_columns,
    load_labels,
    load_matrix,
    load_prototypes,
    save_labels,
    save_matrix,
    save_prototypes,
    synthesize,
)
from .errors import ConfigError, DataError, SolverError
from .inference import evaluate, sweep_k
from .linalg import as_number
from .mapping import HyperParams, MappingModel, _check_fits, _stats_of_blocks
from .trainer import benchmark_training, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

# Canonical artifact names inside the output directory.
F_FEATURES = "features.zsm"
F_LABELS = "labels.txt"
F_PROTOTYPES = "prototypes.zsm"
F_PARTITION = "partition.txt"
F_GMAP = "ground_truth_map.zsm"
F_MODEL = "model.zsm"
F_ADJ_PROTOTYPES = "prototypes_adjusted.zsm"
F_ADJ_PARTITION = "partition_adjusted.txt"
F_TRACE = "trace.jsonl"
F_SWEEP = "sweep.csv"


def _bool(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_list(text):
    values = tuple(as_number(int(tok), "k", 1, int)
                   for tok in str(text).split(",") if tok.strip())
    if not values:
        raise ValueError("must name at least one k")
    return values


def _choice(*allowed):
    def convert(text):
        if text not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}")
        return text

    return convert


def _fields(cls, *rows):
    """Option rows that set fields of the dataclass ``cls``, from
    ``(flag, field name, help)``: the default is the field's and the
    converter is the type of that default."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return [(flag, type(defaults[name]), defaults[name], help_text, name)
            for flag, name, help_text in rows]


# Option rows: (flag, converter, default, help), plus the field name in
# rows made by _fields. Values are converted after config merging, so a
# bad value from either source is a configuration error.
HYPER_OPTS = _fields(
    HyperParams,
    ("--lambda1", "lambda1", "seen-prototype anchor weight"),
    ("--gamma1", "gamma1", "seen-prototype mapped-mean weight"),
    ("--lambda2", "lambda2", "unseen-prototype anchor weight"),
    ("--gamma2", "gamma2", "unseen-neighbor blend weight"),
    ("--alpha", "alpha", "centroid regularizer weight"),
    ("--beta", "beta", "mapping-constraint relaxation weight"),
    ("--k", "k", "seen neighbors per unseen prototype"),
    ("--iters", "iterations", "alternating iteration budget"),
    ("--tol", "tol", "relative weight-change stop threshold"),
)

TRAIN_OPTS = [
    ("--unseen-neighbors", _choice("adjusted", "original"), "adjusted",
     "seen prototypes used for the unseen-neighbor blend"),
    ("--ridge-retry", _bool, False,
     "retry a singular solve once with a ridge added to the prototype Gram"),
]

FILE_OPTS = [
    ("--features", str, None, "feature matrix file (binary or CSV)"),
    ("--labels", str, None, "labels file, one class id per line"),
    ("--prototypes", str, None, "prototype matrix file"),
    ("--partition", str, None, "seen/unseen sidecar, '<id> <S|U>' lines"),
]

SYNTH_OPTS = _fields(
    SynthSpec,
    ("--synth-dv", "d_v", "synthetic visual dimension"),
    ("--synth-ds", "d_s", "synthetic semantic dimension"),
    ("--synth-seen", "seen_count", "synthetic seen-class count"),
    ("--synth-unseen", "unseen_count", "synthetic unseen-class count"),
    ("--synth-per-class", "per_class", "synthetic instances per class"),
    ("--synth-noise", "noise_sigma", "instance noise sigma"),
    ("--synth-shift", "shift_sigma",
     "unseen-class generator perturbation sigma"),
)

COMMON_OPTS = [
    *_fields(SynthSpec, ("--seed", "seed", "random seed for synthetic data")),
    ("--normalize", _choice("none", "features", "prototypes", "both"), "none",
     "L2-normalize feature columns and/or prototypes before use"),
    ("--out", str, ".", "output directory"),
    ("--config", str, None, "key = value config file; flags win on conflict"),
]

EVAL_OPTS = [
    ("--ks", _int_list, (1, 5), "comma-separated k values for Hit@k"),
    ("--direction", _choice("semantic", "visual"), "semantic",
     "ranking space: semantic (W x vs p) or visual (x vs W^T p)"),
]

MODEL_OPTS = [("--model", str, None, "model weights file")]

SWEEP_OPTS = [
    ("--k-list", _int_list, (1, 5, 10), "comma-separated k values to sweep"),
]

BENCH_OPTS = [("--repeats", lambda t: as_number(int(t), "repeats", 1, int),
               1, "number of timed runs")]

DATA_OPTS = [
    ("--synth", _bool, False,
     "generate data in-memory instead of loading files"),
    *FILE_OPTS,
    *SYNTH_OPTS,
]

# each subcommand's help and option tables; main runs "a-b" as cmd_a_b
COMMAND_OPTS = {
    "synth": ("generate a synthetic dataset on disk",
              [SYNTH_OPTS, COMMON_OPTS]),
    "train": ("train and evaluate, writing artifacts",
              [DATA_OPTS, HYPER_OPTS, TRAIN_OPTS, COMMON_OPTS, EVAL_OPTS]),
    "eval": ("score an existing model",
             [MODEL_OPTS, DATA_OPTS, COMMON_OPTS, EVAL_OPTS]),
    "sweep-k": ("Hit@1 over a range of k values",
                [SWEEP_OPTS, DATA_OPTS, HYPER_OPTS, TRAIN_OPTS, COMMON_OPTS]),
    "bench": ("time the training loop",
              [BENCH_OPTS, DATA_OPTS, HYPER_OPTS, TRAIN_OPTS, COMMON_OPTS]),
}


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


def _add_opts(parser, opts):
    for flag, conv, default, help_text, *_ in opts:
        # a bare boolean flag means true
        bare = {"nargs": "?", "const": "true"} if conv is _bool else {}
        parser.add_argument(flag, default=None, metavar="V", **bare,
                            help=f"{help_text} (default: {default})")


def _read_config(path):
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(_read_lines(path, ConfigError), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        values[_dest(key.strip())] = val.strip()
    return values


def _resolve(args):
    """Merge flag values over config-file values over defaults for the
    options of ``args.command``. A row made by :func:`_fields` stores
    its value under the field name, any other row under its flag."""
    config = {}
    if getattr(args, "config", None):
        config = _read_config(args.config)

    tables = [opt for table in COMMAND_OPTS[args.command][1] for opt in table]
    known = {_dest(flag) for flag, *_ in tables} - {"config"}
    for key in config:
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")

    out = argparse.Namespace()
    for flag, conv, default, _help, *field in tables:
        dest = _dest(flag)
        raw = getattr(args, dest, None)
        if raw is None:
            raw = config.get(dest)
        if raw is None:
            value = default
        else:
            try:
                value = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {flag}: {exc}") from exc
        setattr(out, field[0] if field else dest, value)
    return out


def _build(cls, opts):
    """``cls`` (HyperParams or SynthSpec) from the resolved options of its
    fields; the dataclass's own validation error is a ConfigError."""
    try:
        return cls(**{f.name: getattr(opts, f.name)
                      for f in dataclasses.fields(cls)})
    except (ValueError, DataError) as exc:
        raise ConfigError(str(exc)) from exc


def _require_file(path, flag):
    if path is None:
        raise ConfigError(f"{flag} is required (or use --synth)")
    if not os.path.isfile(path):
        raise DataError(f"file not found: {path}")
    return path


def _load_run_data(opts, unseen=True, model=None):
    """``(table, seen_stats, unseen)`` of a run, synthetic or from files,
    normalized as ``--normalize`` asks and streamed as the Streaming
    section of :mod:`zsadjust.data` sets out. ``seen_stats`` is None given
    a ``model``, and ``unseen`` is None unless ``unseen`` is set."""
    if opts.synth:
        dataset, table, _ = synthesize(_build(SynthSpec, opts))
        name, labels = "features", dataset.labels
        columns = _matrix_columns(dataset.features)
    else:
        name = _require_file(opts.features, "--features")
        columns = _matrix_columns(name)
        labels = load_labels(_require_file(opts.labels, "--labels"))
        table = load_prototypes(
            _require_file(opts.prototypes, "--prototypes"),
            _require_file(opts.partition, "--partition"),
        )
    class_count = int(max(labels.max(initial=0), table.class_ids.max())) + 1
    (rows, cols), _ = columns
    if rows == 0:
        raise DataError(f"{name}: the features have no rows")
    labels = _check_labels(labels, cols, class_count)
    seen = table.seen[table._columns_of(labels)]
    if model is not None:
        _check_fits(model, rows, table.semantic_dim)
    elif not seen.any():
        raise DataError("seen partition is empty: nothing to train on")
    keep = ~seen if unseen else np.zeros_like(seen)
    kept = np.empty((rows, np.count_nonzero(keep)))
    take = seen if model is None else np.zeros_like(seen)
    blocks = _stream_columns(columns, name, take, keep, kept,
                             unit=opts.normalize in ("features", "both"))
    seen_stats = None
    if model is None:
        seen_stats = _stats_of_blocks(labels[seen], blocks, rows)
    else:
        for _ in blocks:    # nothing is taken: this reads every column
            pass
    if opts.normalize in ("prototypes", "both"):
        norms, faults = _column_norms(table.vectors)
        _raise_norm_fault("prototype", *faults)
        table = table.with_vectors(table.vectors / norms)
    return (table, seen_stats, LabeledDataset._of_checked(
        kept, labels[keep], class_count) if unseen else None)


def _out_dir(opts):
    path = opts.out
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except (OSError, ValueError) as exc:   # ValueError: NUL or unencodable
        raise ConfigError(f"output directory not writable: {path}") from exc
    return path


def _fmt(value):
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _write_result(out_dir, name, pairs, payload):
    """Write ``name.txt`` with one ``key value`` line per pair and
    ``name.json`` with ``payload``; return the text lines for stdout."""
    lines = [f"{key} {_fmt(value)}" for key, value in pairs]
    with open(os.path.join(out_dir, name + ".txt"), "w") as fh:
        fh.writelines(line + "\n" for line in lines)
    with open(os.path.join(out_dir, name + ".json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return lines


def _write_report(report, out_dir):
    pairs = [
        ("instance_count", report.instance_count),
        ("zero_mapped", report.zero_mapped),
    ]
    for k in sorted(report.hit_at):
        pairs.append((f"hit_at_{k}", report.hit_at[k]))
    for cid in sorted(report.per_class_accuracy):
        pairs.append((f"per_class_accuracy_{cid}",
                      report.per_class_accuracy[cid]))
    pairs.append(("hubness_skewness", report.hubness_skewness))
    pairs.append(("timing_ms", report.timing_ms))
    return _write_result(out_dir, "report", pairs, dataclasses.asdict(report))


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(opts):
    out_dir = _out_dir(opts)
    dataset, table, gmap = synthesize(_build(SynthSpec, opts))
    save_matrix(os.path.join(out_dir, F_FEATURES), dataset.features)
    save_labels(os.path.join(out_dir, F_LABELS), dataset.labels)
    save_prototypes(table, os.path.join(out_dir, F_PROTOTYPES),
                    os.path.join(out_dir, F_PARTITION))
    save_matrix(os.path.join(out_dir, F_GMAP), gmap)
    print(f"wrote synthetic dataset ({dataset.instance_count} instances, "
          f"{table.class_ids.size} classes) to {out_dir}")
    return EXIT_OK


def cmd_train(opts):
    hp = _build(HyperParams, opts)
    out_dir = _out_dir(opts)
    table, seen, unseen = _load_run_data(opts)

    model, adjusted, trace = train(
        seen, table, hp,
        unseen_neighbors=opts.unseen_neighbors,
        ridge_on_failure=opts.ridge_retry,
    )

    save_matrix(os.path.join(out_dir, F_MODEL), model.weights)
    save_prototypes(adjusted,
                    os.path.join(out_dir, F_ADJ_PROTOTYPES),
                    os.path.join(out_dir, F_ADJ_PARTITION))
    with open(os.path.join(out_dir, F_TRACE), "w") as fh:
        for record in trace.records:
            fh.write(json.dumps(dataclasses.asdict(record)))
            fh.write("\n")

    lines = [f"trained in {len(trace)} iteration(s); artifacts in {out_dir}"]
    if unseen.instance_count > 0:
        report = evaluate(model, unseen, adjusted, ks=opts.ks,
                          direction=opts.direction)
        lines += _write_report(report, out_dir)
    else:
        lines.append("evaluation skipped: no unseen-class instances in the "
                     "data")
    print("\n".join(lines))
    return EXIT_OK


def cmd_eval(opts):
    out_dir = _out_dir(opts)
    weights = load_matrix(_require_file(opts.model, "--model"))
    model = MappingModel(weights)
    table, _, unseen = _load_run_data(opts, model=model)
    if unseen.instance_count == 0:
        raise DataError("no unseen-class instances to evaluate")
    report = evaluate(model, unseen, table, ks=opts.ks,
                      direction=opts.direction)
    print("\n".join(_write_report(report, out_dir)))
    return EXIT_OK


def cmd_sweep_k(opts):
    hp = _build(HyperParams, opts)
    out_dir = _out_dir(opts)
    table, seen, unseen = _load_run_data(opts)
    if unseen.instance_count == 0:
        raise DataError("no unseen-class instances to evaluate")

    curve = sweep_k(seen, unseen, table, hp, opts.k_list,
                    unseen_neighbors=opts.unseen_neighbors,
                    ridge_on_failure=opts.ridge_retry)
    # bare (k, Hit@1) columns, which the CSV matrix loader reads back
    save_matrix(os.path.join(out_dir, F_SWEEP),
                [[k, curve[k]] for k in opts.k_list], fmt="csv")
    for k in opts.k_list:
        print(f"k={k} hit_at_1={_fmt(curve[k])}")
    return EXIT_OK


def cmd_bench(opts):
    hp = _build(HyperParams, opts)
    out_dir = _out_dir(opts)
    # streamed once and untimed, as train streams them: each repeat
    # times what train then runs, eigh(d_v) and the loop
    table, seen, _ = _load_run_data(opts, unseen=False)

    result = benchmark_training((seen, table), hp, repeats=opts.repeats,
                                unseen_neighbors=opts.unseen_neighbors,
                                ridge_on_failure=opts.ridge_retry)
    pairs = [("repeats", result.repeats), ("median_ms", result.median_ms),
             ("max_ms", result.max_ms)]
    print("\n".join(_write_result(out_dir, "bench", pairs,
                                  dataclasses.asdict(result))))
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="zsadjust",
        description="Zero-shot recognition with adaptive semantic "
                    "feature-space adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, tables) in COMMAND_OPTS.items():
        p = sub.add_parser(name, help=help_text)
        for table in tables:
            _add_opts(p, table)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        # looked up now: a cmd_* replaced in this module (by a tracer) runs
        code = globals()["cmd_" + args.command.replace("-", "_")](
            _resolve(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early (say, piped into head) after every artifact
        # was written: devnull takes it, so the final flush cannot raise
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:     # a stdout without a descriptor
            pass
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        # the hint names the flag, not the library's parameter
        hint = str(exc).replace("ridge_on_failure=True", "--ridge-retry")
        print(f"solver error: {hint}", file=sys.stderr)
        return EXIT_SOLVER


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
