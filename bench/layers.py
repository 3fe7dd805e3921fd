"""Which paclab calls the traced pass times, and the per-layer metrics.

Layers are paclab's modules. CATALOG lists every per-layer metric with its
unit, which way is better, the end-to-end metric it is expected to move,
and the workloads where it does most work and where it is near zero.
BENCHMARK.json's per_layer list is this catalog's name, unit and better
columns; a test keeps the two equal.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple

import numpy as np

import source  # noqa: F401  (puts the checkout's src/ on sys.path)
from paclab import adversary, config, core, engine, experts, fixtures, identities, measures, runner

from tracing import Target, Tracer
import workloads
from workloads import output_labels

__all__ = ["CATALOG", "Metric", "targets", "layer_metrics", "traced_modules", "POOL_MAPS"]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    busiest: str
    idle: str


_SWEEPS = "sweep_accept, sweep_large_n"
_ALL_BUT_FILTER = "sweep_accept, sweep_large_n, adversary, selftest"


def _calls_self(prefix, moves, busiest, idle):
    return [
        Metric(f"{prefix}.calls", "count", "lower", moves, busiest, idle),
        Metric(f"{prefix}.self_s", "s", "lower", moves, busiest, idle),
    ]


CATALOG: tuple[Metric, ...] = tuple(
    _calls_self("core.sample_dataset", "trials_per_s, peak_rss_mb", "sweep_large_n, sweep_accept", "selftest")
    + [Metric("core.sample_dataset.points", "count", "lower", "trials_per_s, peak_rss_mb",
              "sweep_large_n, sweep_accept", "selftest")]
    + _calls_self("core.validate", "trials_per_s", "selftest, sweep_accept", "filter_diagnose")
    + _calls_self("core.Dataset.take", "trials_per_s", "selftest, sweep_accept", "filter_diagnose")
    + [
        Metric("core.Dataset.take.rows", "count", "lower", "trials_per_s",
               "selftest, sweep_accept", "filter_diagnose"),
        # The sweeps build and enumerate one fixture per grid cell inside
        # runner.run, so there these two count toward trials_per_s.
        Metric("core.enumerate_class.self_s", "s", "lower", "setup_s, trials_per_s",
               f"{_SWEEPS}, filter_diagnose", "adversary"),
        Metric("fixtures.build.self_s", "s", "lower", "setup_s, trials_per_s",
               f"{_SWEEPS}, filter_diagnose", "adversary, selftest"),
        Metric("config.parse.self_s", "s", "lower", "setup_s", f"{_SWEEPS}, adversary", "filter_diagnose"),
    ]
    + _calls_self("engine.erm", "trials_per_s", "sweep_accept", "adversary, selftest")
    + [Metric("engine.erm.rows_scored", "count", "lower", "trials_per_s", "sweep_accept", "adversary, selftest")]
    + _calls_self("engine.near_optimal_set", "trials_per_s", "filter_diagnose", "sweep_accept")
    + [Metric("engine.near_optimal_set.candidates", "count", "lower", "trials_per_s",
              "filter_diagnose", "sweep_accept")]
    + _calls_self("engine.find_disagreeing_pair", "trials_per_s", "filter_diagnose", "sweep_accept")
    + [
        Metric("engine.find_disagreeing_pair.candidates", "count", "lower", "trials_per_s",
               "filter_diagnose", "sweep_accept"),
        Metric("engine.find_disagreeing_pair.found", "count", "higher", "trials_per_s",
               "filter_diagnose", "sweep_accept"),
        Metric("engine.find_disagreeing_pair.found_ratio", "ratio", "higher", "trials_per_s",
               "filter_diagnose", "sweep_accept"),
    ]
    + _calls_self("experts.core_train", "trials_per_s", "filter_diagnose", "adversary")
    + [
        Metric("experts.core_train.rounds_run", "count", "lower", "trials_per_s", "filter_diagnose", "adversary"),
        Metric("experts.core_train.rounds_ratio", "ratio", "lower", "trials_per_s", "filter_diagnose", "adversary"),
        Metric("experts.core_train.pairs", "count", "higher", "trials_per_s", "filter_diagnose", "adversary"),
    ]
    + [
        Metric(f"experts.core_train.break.{reason}", "count", better, "trials_per_s",
               "filter_diagnose", "adversary")
        for reason, better in (
            ("completed", "higher"),
            ("gamma_below_Zt", "lower"),
            ("no_disagreeing_pair", "lower"),
            ("empty_Ti", "lower"),
        )
    ]
    + _calls_self("experts.train", "trials_per_s", f"{_SWEEPS}, filter_diagnose", "selftest")
    + [
        Metric("experts.train.chose_core", "count", "higher", "trials_per_s",
               f"{_SWEEPS}, filter_diagnose", "selftest"),
        Metric("experts.train.improper", "count", "higher", "trials_per_s",
               f"{_SWEEPS}, filter_diagnose", "selftest"),
    ]
    + _calls_self("experts.diagnose_failure_events", "trials_per_s", "filter_diagnose", _ALL_BUT_FILTER)
    + [Metric("experts.diagnose_failure_events.pairs_checked", "count", "lower", "trials_per_s",
              "filter_diagnose", _ALL_BUT_FILTER)]
    + _calls_self("experts.exact_progress_report", "trials_per_s", "filter_diagnose", _ALL_BUT_FILTER)
    + [
        metric
        for name in ("true_error", "empirical_error", "agreement_points", "condition_on_agreement")
        for metric in _calls_self(f"measures.{name}", "trials_per_s", "selftest, filter_diagnose", "sweep_large_n")
    ]
    + [
        metric
        for name in ("run_adversary_trials", "least_frequent_learner", "is_failure", "build_distribution")
        for metric in _calls_self(f"adversary.{name}", "trials_per_s", "adversary",
                                  "sweep_accept, sweep_large_n, selftest, filter_diagnose")
    ]
    + _calls_self("identities.run_identity_chunk", "trials_per_s", "selftest",
                  "sweep_accept, sweep_large_n, adversary, filter_diagnose")
    + [
        Metric("identities.run_identity_chunk.instances", "count", "lower", "trials_per_s", "selftest",
               "sweep_accept, sweep_large_n, adversary, filter_diagnose"),
        Metric("runner.run.self_s", "s", "lower", "trials_per_s", _ALL_BUT_FILTER, "filter_diagnose"),
        Metric("runner.csv_bytes", "bytes", "lower", "trials_per_s", _ALL_BUT_FILTER, "filter_diagnose"),
        Metric("runner.thread_speedup", "ratio", "higher", "trials_per_s", _ALL_BUT_FILTER, "filter_diagnose"),
        Metric("bench.trace_overhead", "ratio", "lower", "none", "all", "none"),
    ]
)


def traced_modules() -> list:
    """Where the tracer looks for references to its targets: every loaded
    paclab module, and the benchmark's own trial loop."""
    paclab = [module for name, module in sorted(sys.modules.items())
              if module is not None and (name == "paclab" or name.startswith("paclab."))]
    return paclab + [workloads]


def _points(arguments, result):
    return {"points": len(result)}


def _rows(arguments, result):
    return {"rows": len(result)}


def _rows_scored(arguments, result):
    return {"rows_scored": arguments["klass"].size}


def _near_optimal(arguments, result):
    return {"candidates": int(np.size(result))}


def _pair_search(arguments, result):
    return {"candidates": int(np.size(arguments["index_set"])), "found": int(result is not None)}


def _core_train(arguments, result):
    _, trace = result
    return {
        "rounds_run": len(trace.records),
        "rounds_scheduled": trace.schedule.rounds,
        "pairs": trace.pair_count,
        f"break.{trace.break_reason}": 1,
    }


def _train(arguments, result):
    labels = output_labels(result)
    in_class = bool((arguments["klass"].matrix == labels).all(axis=1).any())
    return {"chose_core": int(result.chose_core), "improper": int(not in_class)}


def _pairs_checked(arguments, result):
    sizes = [r.candidates.size for r in arguments["trace"].records if r.candidates is not None]
    return {"pairs_checked": sum(k * (k - 1) // 2 for k in sizes)}


def _instances(arguments, result):
    return {"instances": arguments["instances"]}


def _csv_bytes(arguments, result):
    paths = [result.output_path] + ([result.trace_path] if result.trace_path else [])
    return {"csv_bytes": sum(os.path.getsize(path) for path in paths)}


POOL_MAPS = ((runner, "_ordered_map"), (workloads, "map_trials"))
"""Maps over work items (the runner's, and the benchmark's own trial loop);
each item becomes one traced trial."""


def targets() -> list[Target]:
    """Every traced callable, named by its layer metric prefix."""
    out = [
        Target("core.sample_dataset", core, "sample_dataset", _points),
        Target("core.validate", core.Dataset, "__post_init__"),
        Target("core.validate", core.Hypothesis, "__post_init__"),
        Target("core.validate", core.DiscreteDistribution, "__post_init__"),
        Target("core.Dataset.take", core.Dataset, "take", _rows),
        Target("core.enumerate_class", core, "enumerate_class"),
        Target("config.parse", config, "parse_config_text"),
        Target("engine.erm", engine, "erm", _rows_scored),
        Target("engine.near_optimal_set", engine, "near_optimal_set", _near_optimal),
        Target("engine.find_disagreeing_pair", engine, "find_disagreeing_pair", _pair_search),
        Target("experts.core_train", experts, "core_train", _core_train),
        Target("experts.train", experts, "train", _train),
        Target("experts.diagnose_failure_events", experts, "diagnose_failure_events", _pairs_checked),
        Target("experts.exact_progress_report", experts, "exact_progress_report"),
        Target("identities.run_identity_chunk", identities, "run_identity_chunk", _instances),
        Target("runner.run", runner, "run", _csv_bytes),
    ]
    out += [Target("fixtures.build", fixtures, name) for name in sorted(fixtures.FAMILIES)]
    out += [
        Target(f"measures.{name}", measures, name)
        for name in ("true_error", "empirical_error", "agreement_points", "condition_on_agreement")
    ]
    out += [
        Target(f"adversary.{name}", adversary, name)
        for name in ("run_adversary_trials", "least_frequent_learner", "is_failure", "build_distribution")
    ]
    return out


def layer_metrics(tracer: Tracer, thread_speedup: float, trace_overhead: float) -> dict[str, float]:
    """Every CATALOG metric from one traced pass; 0 for layers not called."""
    values: dict[str, float] = {}
    for prefix, entry in tracer.layer_totals().items():
        values[f"{prefix}.calls"] = entry["calls"]
        values[f"{prefix}.self_s"] = entry["self_s"]
    values.update(tracer.counts)
    pair_calls = values.get("engine.find_disagreeing_pair.calls", 0)
    values["engine.find_disagreeing_pair.found_ratio"] = (
        values.get("engine.find_disagreeing_pair.found", 0) / pair_calls if pair_calls else 0.0
    )
    scheduled = values.get("experts.core_train.rounds_scheduled", 0)
    values["experts.core_train.rounds_ratio"] = (
        values.get("experts.core_train.rounds_run", 0) / scheduled if scheduled else 0.0
    )
    values["runner.csv_bytes"] = values.get("runner.run.csv_bytes", 0)
    values["runner.thread_speedup"] = thread_speedup
    values["bench.trace_overhead"] = trace_overhead
    return {metric.name: values.get(metric.name, 0) for metric in CATALOG}
