"""The tracer changes no result and leaves every dispo name as it found it.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import importlib.util
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _dispo_namespaces() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every dispo module and traced class."""
    import dispo.sequences
    import dispo.tasks

    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "dispo" or name.startswith("dispo.")):
            for key, value in vars(module).items():
                snapshot[(name, key)] = id(value)
    for cls in (dispo.sequences.MaskedSequence, dispo.tasks.RewardFn):
        for key, value in vars(cls).items():
            snapshot[(cls.__qualname__, key)] = id(value)
    return snapshot


def test_tracing_changes_no_result_and_restores_every_name(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    workload = workloads.TrainWorkload(0, "sudoku", alpha_step=0.1, n_updates=6)
    plain = workload.run()
    before = _dispo_namespaces()

    tracer = Tracer()
    with tracer:
        traced = workload.run(on_step=lambda i: setattr(tracer, "key", i))

    assert _dispo_namespaces() == before
    # metric rows, counters included, are identical: no draw or result moved
    assert traced.fingerprint == plain.fingerprint
    assert traced.info["counters"] == plain.info["counters"] == workload.predicted
    # the wrappers were live: every forward went through the traced rows_context
    assert tracer.calls["trainer.update"] == 6
    assert tracer.calls["policy.rows_context"] == plain.info["forwards"]
    assert tracer.extra["branch_forwards"] == 0
    assert tracer.calls["rollout.branch"] > 0
    spans = tracer.spans_table()["rows"]
    assert len(spans) == sum(tracer.calls.values())
    # keyed by the update in progress; the final checkpoint comes after update 6
    assert {row[4] for row in spans} == set(range(7))


def test_self_time_excludes_wrapped_children(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    tracer = Tracer()
    with tracer:
        workloads.TrainWorkload(1, "stringmatch", alpha_step=0.0, n_updates=2).run()
    for target in TARGETS:
        assert 0.0 <= tracer.self_s[target.name] <= tracer.total_s[target.name]
    # train() is the one root span, so self times partition its duration
    assert abs(sum(tracer.self_s.values()) - tracer.total_s["trainer.train"]) < 1e-9
    assert tracer.calls["rollout.branch"] == 0  # the terminal arm never branches


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(x) for x in workloads.per_layer_names()
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_train_workloads_run_the_acceptance_configs():
    path = HERE.parent / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("perfbench_acceptance_configs", path)
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    assert workloads._acceptance_configs() == {
        "sudoku": acceptance.SUDOKU_CONFIG,
        "stringmatch": acceptance.STRINGMATCH_CONFIG,
    }
