"""paclab's benchmark: one workload per process, end to end or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_accept --seed 823 --seconds 20 --trace 0

--trace 0 measures end to end with tracing off: trials_per_s (the median,
over the calls of the run, of work units per second of a call's wall time),
setup_s (the median, over fresh processes started between the calls, of the
time from process start to the first timed call) and peak_rss_mb (peak
resident memory of this process). It
also prints failed_frac, the share of attempted work units that failed a
check or raised, which the result line carries as `failed`/`attempted`.

--trace 1 makes one traced pass (setup, then one call) with every layer
wrapped, plus untraced threaded calls and, for the runner workloads, one
serial call, and prints the per-layer metrics of bench/layers.py. Data
rows must not depend on tracing or on the thread count; a mismatch counts
as a failed operation.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 when every check passed, 1 when some failed, 2 when paclab's
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 15
READY = "ready"

WORKLOAD_NAMES = ("sweep_accept", "sweep_large_n", "adversary", "selftest", "filter_diagnose")
END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own, e.g. 823 for the sweeps)")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Work units attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, outcome, label: str) -> None:
        self.attempted += outcome.units
        self.failed += outcome.failed_units
        self.failures += [f"{label}: {failure}" for failure in outcome.failures]

    def mismatch(self, units: int, what: str) -> None:
        self.attempted += units
        self.failed += units
        self.failures.append(what)


def checked_call(workload, inputs, tally: Tally, label: str, serial: bool = False, tracer=None, targets=()):
    """Time one call (traced when a tracer is given), then check it."""
    from workloads import Outcome

    if tracer is not None:
        from layers import POOL_MAPS, traced_modules

        tracer.install(targets, traced_modules(), POOL_MAPS)
    error = None
    start = time.perf_counter()
    try:
        raw = workload.call(inputs, serial)
    except Exception as exc:  # a crash is a failed operation, not a dead run
        error = exc
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            outcome = workload.check(inputs, raw, wall)
        except Exception as exc:
            error = exc
    if error is not None:
        units = workload.units(inputs)
        outcome = Outcome(units, wall, b"", [f"{type(error).__name__}: {error}"], units)
    tally.record(outcome, label)
    return outcome


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its being ready to make
    the first timed call."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if probe.returncode != 0 or line != READY:
        raise RuntimeError(f"setup probe failed with exit code {probe.returncode}")
    return elapsed


def _environment(threads: int) -> str:
    import numpy

    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} threads={threads}")


def _emit(lines, tally: Tally, metrics: dict) -> None:
    for line in lines:
        print(line)
    for failure in tally.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def _rows_digest(rows: bytes) -> str:
    return hashlib.sha256(rows).hexdigest()


def run_end_to_end(workload, seed: int, seconds: float, probes: int = SETUP_PROBES):
    """Timed calls with tracing off, and set-up probes spread between them
    so that both sample the host over the whole run; returns (lines, tally,
    metrics)."""
    from workloads import THREADS

    workload.setup(seed)
    tally = Tally()
    outcomes = []
    setup_times = []
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        inputs = workload.prepare(index)
        outcomes.append(checked_call(workload, inputs, tally, f"call {index}"))
        index += 1
        elapsed = time.perf_counter() - started
        due = min(probes, 1 + int(probes * elapsed / seconds))
        while len(setup_times) < due:
            setup_times.append(probe_setup(workload.name, seed))
    while len(setup_times) < probes:
        setup_times.append(probe_setup(workload.name, seed))

    units = sum(o.units for o in outcomes)
    walls = [o.wall_s for o in outcomes]
    rates = [o.units / o.wall_s for o in outcomes]
    metrics = {
        "trials_per_s": (statistics.median(rates), "trials/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed_frac = tally.failed / tally.attempted
    lines = [
        f"workload {workload.name} seed {seed} trace 0",
        f"env {_environment(THREADS)}",
        f"calls {len(outcomes)} units {units} wall_s median {statistics.median(walls):.4f} "
        f"min {min(walls):.4f} max {max(walls):.4f}; "
        f"per-call trials/s min {min(rates):.2f} max {max(rates):.2f} overall {units / sum(walls):.2f}",
        f"setup_s samples {' '.join(f'{t:.4f}' for t in setup_times)}",
        f"rows_sha256 {_rows_digest(outcomes[0].rows)} (call 0; information only)",
    ]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"failed_frac {failed_frac!r} ratio ({tally.failed} of {tally.attempted} units)")
    return lines, tally, metrics


def run_traced(workload, seed: int, seconds: float):
    """One traced pass plus untraced and serial comparisons; returns
    (lines, tally, metrics) with the per-layer metrics."""
    from layers import CATALOG, POOL_MAPS, layer_metrics, targets, traced_modules
    from tracing import Tracer
    from workloads import THREADS

    tracer = Tracer()
    traced_targets = targets()
    tracer.install(traced_targets, traced_modules(), POOL_MAPS)
    try:
        workload.setup(seed)
        inputs = workload.prepare(0)
    finally:
        tracer.uninstall()

    tally = Tally()
    started = time.perf_counter()
    baseline = checked_call(workload, inputs, tally, "untraced call")
    traced = checked_call(workload, inputs, tally, "traced call", tracer=tracer, targets=traced_targets)
    if traced.rows != baseline.rows:
        tally.mismatch(traced.units, "traced call: data rows differ from the untraced call")

    serial = None
    if workload.threaded:
        serial = checked_call(workload, inputs, tally, "serial call", serial=True)
        if serial.rows != baseline.rows:
            tally.mismatch(serial.units, "serial call: data rows differ from the threaded call")

    walls = [baseline.wall_s]
    while time.perf_counter() - started < seconds:
        walls.append(checked_call(workload, inputs, tally, "untraced call").wall_s)
    threaded_wall = statistics.median(walls)

    speedup = serial.wall_s / threaded_wall if serial is not None else 0.0
    overhead = traced.wall_s / threaded_wall
    values = layer_metrics(tracer, speedup, overhead)
    units = {metric.name: metric.unit for metric in CATALOG}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    lines = [
        f"workload {workload.name} seed {seed} trace 1",
        f"env {_environment(THREADS)}",
        f"spans {len(tracer.spans)} traced wall_s {traced.wall_s:.4f} "
        f"untraced wall_s median {threaded_wall:.4f} over {len(walls)} calls"
        + (f" serial wall_s {serial.wall_s:.4f}" if serial is not None else ""),
        f"rows_sha256 {_rows_digest(baseline.rows)} (information only)",
    ]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    return lines, tally, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot load paclab: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else workloads.WORKLOADS[args.workload].default_seed
    if not 0 <= seed <= workloads.MAX_SEED:
        print(f"error: --seed must lie in [0, {workloads.MAX_SEED}]", file=sys.stderr)
        return 2

    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        if args.setup_probe:
            workload.setup(seed)
            print(READY, flush=True)
            return 0
        if args.trace:
            lines, tally, metrics = run_traced(workload, seed, args.seconds)
        else:
            lines, tally, metrics = run_end_to_end(workload, seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _emit(lines, tally, metrics)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
