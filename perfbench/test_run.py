"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json

import numpy as np
import pytest

import run

TINY = {
    "awa-cli": run.AwaCli(dict(d_v=30, d_s=10, seen_count=14, unseen_count=4,
                               per_class=10, noise_sigma=0.05,
                               shift_sigma=0.1)),
    "many-classes": run.ManyClasses(dict(d_v=40, d_s=20, seen_count=30,
                                         unseen_count=10, per_class=3,
                                         noise_sigma=0.15, shift_sigma=0.2)),
    "sweep-small": run.SweepSmall(dict(d_v=30, d_s=25, seen_count=16,
                                       unseen_count=6, per_class=5,
                                       noise_sigma=0.05, shift_sigma=0.1)),
}


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")

    def invoke(workload, trace):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0.2", "--trace", str(trace)],
                        workloads=TINY)
        lines = capsys.readouterr().out.strip().splitlines()
        return code, lines[:-1], json.loads(lines[-1])

    return invoke


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_is_printed_with_its_unit(bench, workload,
                                                        trace):
    code, lines, result = bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_metrics(trace)
    assert {name: e["unit"] for name, e in result["metrics"].items()} \
        == dict(declared)
    printed = {line.split()[0]: line.split()[2] for line in lines
               if len(line.split()) >= 3}
    for name, unit in declared:
        assert printed.get(name) == unit, name
        assert isinstance(result["metrics"][name]["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0
                   for name, _ in declared)


def test_wrong_result_counts_as_failed_operation(bench, monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import zsadjust.trainer

    real_train = zsadjust.trainer.train

    def broken_train(*args, **kwargs):
        model, adjusted, trace = real_train(*args, **kwargs)
        weights = model.weights.copy()
        weights[0, 0] = np.nan
        return type("Model", (), {"weights": weights})(), adjusted, trace

    monkeypatch.setattr(zsadjust.trainer, "train", broken_train)
    code, _lines, result = bench("many-classes", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_trace_accounting_catches_lost_time():
    from tracer import check_accounting, self_times
    spans = [(0, "op", 0.0, 1.0, None, 1), (1, "a", 0.1, 0.4, 0, 1),
             (2, "b", 0.2, 0.3, 1, 1)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 0.7, 1: 0.2, 2: 0.1})
    assert check_accounting(spans, selfs) == []
    selfs[2] = 0.0
    assert check_accounting(spans, selfs)


def test_missing_package_exits_without_result(monkeypatch, tmp_path,
                                              capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    code = run.main(["--workload", "sweep-small", "--seconds", "0.1"],
                    workloads=TINY)
    assert code == 2
    assert capsys.readouterr().out == ""


def test_absent_target_and_failed_counter_read_missing(bench, monkeypatch,
                                                       capsys):
    monkeypatch.syspath_prepend(run.SRC)
    import zsadjust.linalg

    def broken_counter(args, kwargs, result):
        raise TypeError("signature changed")

    # As if renamed: mapping keeps the reference it imported.
    monkeypatch.delattr(zsadjust.linalg, "solve_sylvester")
    monkeypatch.setitem(run.TRACED, "mapping.objective", broken_counter)
    code = run.main(["--workload", "many-classes", "--seed", "3",
                     "--seconds", "0.2", "--trace", "1"], workloads=TINY)
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 0
    missing = {"linalg.solve_sylvester.calls", "linalg.solve_sylvester.s",
               "linalg.solve_sylvester.self_s", "mapping.objective.gflop"}
    assert missing.isdisjoint(result["metrics"])
    for name in missing:
        assert f"missing {name}:" in captured.err
        assert f"{name} 'missing'" in captured.out
    assert result["metrics"]["mapping.objective.calls"]["value"] > 0
