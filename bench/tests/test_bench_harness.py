"""Tests of the benchmark itself: self time, wrapper removal, smoke runs.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "sweep_accept": dict(trials=2, grid_n=(300, 600), grid_tau=(0.1,)),
    "sweep_large_n": dict(trials=1, grid_n=(20_000,), grid_tau=(0.1,)),
    "adversary": dict(trials=200),
    "selftest": dict(trials=20),
    "filter_diagnose": dict(trials=2),
}


def _span(span_id, parent, start, end, thread=1):
    return tracing.Span(span_id, parent, "x", thread, 0, start, end)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0, thread=2),  # two work items overlapping on
        _span(3, 1, 3.0, 6.0, thread=3),  # different threads
        _span(4, 2, 2.0, 3.0, thread=2),  # grandchild: charged to span 2 only
        _span(5, 1, 9.0, 12.0, thread=2),  # ends after its parent
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_install_wraps_every_reference_and_uninstall_restores_them():
    def inner(x):
        return x + 1

    def outer(x, step=inner):
        return step(x) * 2

    home = types.ModuleType("fake_home")
    home.inner, home.outer, home.REGISTRY = inner, outer, {"inner": inner}
    other = types.ModuleType("fake_other")
    other.inner = inner

    tracer = tracing.Tracer()
    hook = lambda arguments, result: {"seen": arguments["x"]}  # noqa: E731
    # outer is wrapped first: its default argument must still be found.
    tracer.install(
        [tracing.Target("fake.outer", home, "outer"), tracing.Target("fake.inner", home, "inner", hook)],
        [home, other],
    )
    assert sorted(tracing.find_wrappers([home, other])) == [
        "fake_home.REGISTRY['inner']", "fake_home.inner", "fake_home.outer", "fake_other.inner",
    ]
    assert outer.__defaults__[0] is not inner
    assert home.outer(1) == 4
    with tracer.trial():
        assert home.REGISTRY["inner"](5) == 6
    tracer.uninstall()

    assert home.inner is inner and other.inner is inner and home.outer is outer
    assert home.REGISTRY["inner"] is inner and outer.__defaults__ == (inner,)
    assert tracing.find_wrappers([home, other]) == []
    spans = {s.name: s for s in tracer.spans if s.name != tracing.HOOK_SPAN and s.trial == 0}
    assert spans["fake.inner"].parent == spans["fake.outer"].id
    assert [s.trial for s in tracer.spans if s.name == "fake.inner"][1] > 0
    assert tracer.counts["fake.inner.seen"] == 6
    assert tracer.layer_totals()["fake.inner"]["calls"] == 2


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.CATALOG
    ]
    reasons = [m.name.rsplit(".", 1)[1] for m in layers.CATALOG if ".break." in m.name]
    assert sorted(reasons) == sorted(workloads.experts.BREAK_REASONS)


def _small(name, tmp_path):
    return workloads.WORKLOADS[name](str(tmp_path), **SMALL[name])


def _result_line(capsys, lines, tally, metrics) -> dict:
    run._emit(lines, tally, metrics)
    printed = capsys.readouterr().out.splitlines()
    assert printed[:len(lines)] == lines
    result = json.loads(printed[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_end_to_end(name, tmp_path, capsys):
    before = os.environ.get("PACLAB_THREADS")
    workload = _small(name, tmp_path)
    lines, tally, metrics = run.run_end_to_end(workload, workload.default_seed, 0.001, probes=1)
    assert os.environ.get("PACLAB_THREADS") == before
    result = _result_line(capsys, lines, tally, metrics)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"]) for line in lines)
    assert len(result["metrics"]) == len(SPEC["end_to_end"])
    assert any(line.startswith("failed_frac 0.0 ratio") for line in lines)
    assert any(line.startswith("env python=") and "threads=2" in line for line in lines)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_traced_pass_removes_every_wrapper(name, tmp_path, capsys):
    slots = [(t.owner, t.attr) for t in layers.targets()] + list(layers.POOL_MAPS)
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in slots}
    workload = _small(name, tmp_path)
    lines, tally, metrics = run.run_traced(workload, workload.default_seed, 0.001)

    assert tracing.find_wrappers(layers.traced_modules()) == []
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())

    result = _result_line(capsys, lines, tally, metrics)
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"]) for line in lines)
    assert len(result["metrics"]) == len(SPEC["per_layer"])
    values = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert values["bench.trace_overhead"] > 0
    if name == "filter_diagnose":
        assert values["experts.core_train.pairs"] >= 1
        assert values["experts.diagnose_failure_events.calls"] == 2
    else:
        assert values["experts.diagnose_failure_events.calls"] == 0
        assert values["runner.thread_speedup"] > 0


def test_a_crashing_call_counts_as_failed(tmp_path, capsys):
    workload = _small("adversary", tmp_path)
    workload.setup(workload.default_seed)
    tally = run.Tally()
    inputs = workload.prepare(0)
    workload.call = lambda inputs, serial=False: 1 / 0
    outcome = run.checked_call(workload, inputs, tally, "call 0")
    assert outcome.failed_units == outcome.units == 200
    result = _result_line(capsys, [], tally, {})
    assert result == {"correct": False, "attempted": 200, "failed": 200, "metrics": {}}


def test_filter_diagnose_checks_paclabs_own_output(tmp_path, monkeypatch):
    workload = _small("filter_diagnose", tmp_path)
    workload.setup(workload.default_seed)
    inputs = workload.prepare(0)
    raw = workload.call(inputs)
    assert workload.check(inputs, raw, 1.0).failed_units == 0

    def flipped(result):
        return workloads.core.Hypothesis(-workloads.output_labels(result))

    monkeypatch.setattr(workloads.experts.TrainResult, "output_hypothesis", flipped)
    outcome = workload.check(inputs, raw, 1.0)
    assert outcome.failed_units == len(inputs)
    assert all("output_hypothesis() differs" in failure for failure in outcome.failures)


def test_without_paclab_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = [sys.executable, "bench/run.py", "--workload", "sweep_accept", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={"PATH": "/usr/bin:/bin"})
    assert done.returncode == 2
    assert done.stdout == ""
    assert "paclab sources not found" in done.stderr
