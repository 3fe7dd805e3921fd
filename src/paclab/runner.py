"""Config-driven experiment execution and CSV emission.

Three experiment kinds share one entry point: error sweeps comparing the
trained routing classifier against plain minimization over a (tau, n) grid,
failure-rate runs against the hard-instance adversary, and batches of exact
identity checks. Work is spread over a thread pool that gives each worker one
task, a strided range of the work units, but every trial derives its
randomness from (seed, global index), so results are identical at any
thread count and rows are emitted in canonical order. A sweep's work unit
is a batch of at most _SWEEP_BATCH trials of one fixture, at any of its
grid n, trained as one batch (experts.train_many): a fixture's trials,
cell by cell, split into the fewest contiguous batches of that size. An
adversary unit is a chunk of games, an identity unit a chunk of
instances. Most of a unit is numpy work that holds the GIL, so on two
cores two threads gain little over one.

Output is RFC-4180 CSV with LF endings: `#` metadata comments (version,
kind, config hash, seed, one timestamp line that also carries the wall
time, and the numpy version, which fixes the realized random draws), then
a header row, then data. The timestamp line is the only part that varies
between identical runs.

A sweep trial never materializes its sample: the pieces the learner reads
are drawn as count tables, two multinomial draws per trial (the estimate
third, then every other piece as one run), so sampling costs the same at
any n. A batch's samples share one generator, re-keyed to each trial's
stream (core.SamplePieces.drawn_batch), so a trial draws what it would
from a fresh generator of its own. Each minimization step of a batch scores
all its trials with one product per row chunk of the class's label matrix
(the mistake kernel, core._mistake_products), so a class of any size costs
the batch one chunk of working memory. The validation errors of every
trial in a batch are one call of the same kernel. Both sides of every
excess, the class minimum tau_true and the true errors of the trained
outputs, come from one function, measures._true_errors, so an output
equal to the optimum has an excess of exactly 0. The summary takes every
cell's mean and 95th percentile with one call each over the cells'
stacked excesses.

A grid n too small for the fixture's d, that is below 6(d + 1), where a
trial's filter half would not exceed d, is a ConfigError, and so is a
rounds_scale that would give some trial more filtering rounds than its
filter half has samples, and so is an adversary tau that chooses a domain
of more than adversary._MAX_DOMAIN points, refused before any game.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .adversary import (
    _MAX_DOMAIN,
    _chunk_games,
    _opt_error,
    choose_parameters,
    run_adversary_trials,
    skew_for_domain,
)
from .config import ConfigError, ExperimentConfig, fnv1a64
from .core import RngStream, SamplePieces, enumerate_class
from .engine import _round_level
from .experts import BREAK_REASONS, train_many
from .fixtures import FAMILIES, Fixture
from .identities import run_identity_chunk
from .measures import _true_errors

__all__ = [
    "RESULT_COLUMNS",
    "TRACE_COLUMNS",
    "ADVERSARY_COLUMNS",
    "IDENTITY_COLUMNS",
    "ResultRow",
    "RunResult",
    "resolve_threads",
    "run",
]

RESULT_COLUMNS = (
    "config_hash",
    "cell",
    "trial_id",
    "algorithm",
    "n",
    "d",
    "tau_true",
    "excess_error",
    "break_reason",
    "r",
)
TRACE_COLUMNS = (
    "trial_id",
    "i",
    "T_size",
    "gamma_i",
    "H_size",
    "pair_i",
    "pair_j",
    "break_reason",
)
ADVERSARY_COLUMNS = (
    "trial_id",
    "truth_index_hash",
    "failed",
    "learner_error",
    "tau",
    "alpha",
)
IDENTITY_COLUMNS = ("check", "chunk", "instances", "max_abs_deviation", "failures")

_SWEEP_BATCH = 16
"""Most trials of one fixture, from any of its cells, that a sweep trains
as one batch, so a batch's tables and traces do not grow with the trial
count. A batch holds about 20 KB per trial of u = 50 while it trains; on
sweep_accept's 50-trial cells (2 cores) batches of 16 and of 64 ran within
noise of each other, and 64 held 1.3 MB more at peak."""


@dataclass(frozen=True)
class ResultRow:
    """One algorithm's outcome on one trial.

    excess_error is measured against the class minimum tau_true, so an
    improper output that beats every hypothesis in the class reports a
    negative excess (bounded below by the Bayes error)."""

    config_hash: str
    cell: int
    trial_id: int
    algorithm: str
    n: int
    d: int
    tau_true: float
    excess_error: float
    break_reason: str
    r: int | None

    def csv_values(self) -> tuple:
        return (
            self.config_hash,
            self.cell,
            self.trial_id,
            self.algorithm,
            self.n,
            self.d,
            self.tau_true,
            self.excess_error,
            self.break_reason,
            "" if self.r is None else self.r,
        )


@dataclass(frozen=True)
class RunResult:
    kind: str
    output_path: str
    trace_path: str | None
    rows: tuple
    trace_rows: tuple
    summary: tuple
    summary_lines: tuple
    ok: bool
    runtime_ms: float


def resolve_threads(config: ExperimentConfig) -> int:
    """Worker count: environment cap, else config, else hardware."""
    from_env = os.environ.get("PACLAB_THREADS")
    if from_env is not None:
        try:
            value = int(from_env)
        except ValueError:
            raise ValueError(
                f"PACLAB_THREADS must be a positive integer, got {from_env!r}"
            ) from None
        if value < 1:
            raise ValueError(f"PACLAB_THREADS must be a positive integer, got {value}")
        return value
    if config.threads is not None:
        return config.threads
    return os.cpu_count() or 1


def _ordered_map(worker, items, threads: int) -> list:
    """worker(item) for every item of a sequence, results in item order.

    Each of up to `threads` pool workers gets one task, the strided range
    items[w::workers], so the pool costs one future per worker rather than
    one per item, and cells of unequal cost spread evenly over the workers.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [worker(item) for item in items]

    def stride(start: int) -> list:
        return [worker(item) for item in items[start::workers]]

    out = [None] * len(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start, results in enumerate(pool.map(stride, range(workers))):
            out[start::workers] = results
    return out


def _write_csv(path: str, config: ExperimentConfig, columns, rows, runtime_ms: float):
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# paclab {__version__}\n")
        handle.write(f"# kind: {config.kind}\n")
        handle.write(f"# config_hash: {config.config_hash}\n")
        handle.write(f"# seed: {config.seed}\n")
        handle.write(f"# generated_at: {stamp} runtime_ms: {runtime_ms:.0f}\n")
        handle.write(f"# numpy: {np.__version__}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _build_fixture(config: ExperimentConfig, tau: float | None) -> Fixture:
    family = FAMILIES[config.fixture_family]
    params = dict(config.fixture_params)
    if tau is not None:
        params["tau"] = tau
    try:
        fixture = family(**params)
        enumerate_class(fixture.klass)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"fixture {config.fixture_family!r}: {exc}") from exc
    return fixture


def _error_floors(fixture: Fixture) -> tuple[float, float]:
    """The class minimum error (tau_true) and the Bayes error of a fixture.
    tau_true is the least of the members' errors as measures._true_errors
    gives them, the same floats as the trials' errors, so an output equal
    to the optimum has an excess of exactly 0."""
    mass = fixture.distribution.mass
    errors = _true_errors(fixture.klass.matrix, fixture.distribution)
    return float(errors.min()), float(np.minimum(mass[:, 0], mass[:, 1]).sum())


@dataclass(frozen=True)
class _TrialOutcome:
    """What a sweep keeps of one trial: its CSV rows, whose learner row
    holds its break reason and pair count and whose trace has one row per
    round, and whether validation chose the routing classifier."""

    rows: tuple
    trace_rows: tuple
    chose_core: bool


def _sweep_batch(
    config: ExperimentConfig,
    fixture: Fixture,
    floors: tuple[float, float],
    trials: list,
) -> list[_TrialOutcome]:
    """Train trials of one fixture, given as (cell, n, trial) in cell order,
    as one batch. Trial t of cell c draws its sample from
    RngStream(seed, 1 + c * trials + t), as it would alone, and every
    sample of the batch from one re-keyed generator
    (core.SamplePieces.drawn_batch).

    Both true errors of every trial come from one measures._true_errors
    call on the stacked labels of the outputs and the ERM picks, the
    function that gives tau_true."""
    trial_ids = [cell * config.trials + trial for cell, _, trial in trials]
    samples = SamplePieces.drawn_batch(
        fixture.distribution,
        [n for _, n, _ in trials],
        [RngStream(config.seed, 1 + trial_id) for trial_id in trial_ids],
    )
    d = fixture.vc_dim
    tau_true, bayes_error = floors
    results = train_many(samples, fixture.klass, d, config.delta, config.constants)
    labels = np.stack(
        [
            h.labels
            for result in results
            for h in (result.output_hypothesis(), result.erm_hypothesis)
        ]
    )
    errors = _true_errors(labels, fixture.distribution).tolist()

    outcomes = []
    for (cell, n, _), trial_id, result, trained_error, erm_error in zip(
        trials, trial_ids, results, errors[0::2], errors[1::2]
    ):
        rows = []
        for algorithm, error, reason, r in (
            ("disagreeing_experts", trained_error, result.trace.break_reason,
             result.trace.pair_count),
            ("erm", erm_error, "", None),
        ):
            if error < bayes_error - 1e-12:
                raise RuntimeError(
                    f"true error {error!r} below the Bayes error {bayes_error!r} on trial {trial_id}"
                )
            rows.append(
                ResultRow(
                    config.config_hash, cell, trial_id, algorithm, n, d, tau_true,
                    error - tau_true, reason, r,
                )
            )

        trace_rows = []
        records = result.trace.records
        for index, record in enumerate(records):
            terminal = index == len(records) - 1
            pair = record.pair_indices
            trace_rows.append(
                (
                    trial_id,
                    record.step,
                    len(record.kept),
                    "" if record.min_error is None else record.min_error,
                    "" if record.candidates is None else int(record.candidates.size),
                    "" if pair is None else pair[0],
                    "" if pair is None else pair[1],
                    result.trace.break_reason if terminal else "",
                )
            )
        outcomes.append(_TrialOutcome(tuple(rows), tuple(trace_rows), result.chose_core))
    return outcomes


def _run_upper_sweep(config: ExperimentConfig, threads: int):
    taus = config.grid_tau if config.grid_tau is not None else (None,)
    cells = [(tau, n) for tau in taus for n in config.grid_n]
    # A fixture depends on tau alone, so each is built once for all its cells.
    fixtures = {tau: _build_fixture(config, tau) for tau in dict.fromkeys(taus)}
    # A trial splits n into thirds and its filter third in half, and the
    # schedule needs that half to exceed d: (n // 3) // 2 > d.
    d = max(fixture.vc_dim for fixture in fixtures.values())
    if min(config.grid_n) < 6 * (d + 1):
        raise ConfigError(
            f"grid n = {min(config.grid_n)} is too small for fixture "
            f"{config.fixture_family!r} with d = {d}: need n >= 6(d + 1) = {6 * (d + 1)}"
        )
    # Every round reads a block of the filter half, so no trial may get more
    # rounds than that half has samples. The most rounds come from the
    # smallest clamped estimate, 1 / (2 * third).
    for n in config.grid_n:
        third = n // 3
        if _round_level(1.0 / (2 * third), config.constants) > third // 2:
            raise ConfigError(
                f"[constants] 'rounds_scale' = {config.constants.rounds_scale:g} gives a trial "
                f"at grid n = {n} more filtering rounds than the {third // 2} samples of its "
                "filter half"
            )
    floors = {tau: _error_floors(fixture) for tau, fixture in fixtures.items()}

    # Each fixture's trials, cell by cell, split into the fewest contiguous
    # batches of at most _SWEEP_BATCH trials, of sizes that differ by at
    # most one.
    batches = []
    for fixture_tau in fixtures:
        trials = [
            (cell, n, trial)
            for cell, (tau, n) in enumerate(cells)
            if tau == fixture_tau
            for trial in range(config.trials)
        ]
        count = -(-len(trials) // _SWEEP_BATCH)
        bounds = [len(trials) * i // count for i in range(count + 1)]
        batches += [(fixture_tau, trials[start:stop]) for start, stop in zip(bounds, bounds[1:])]

    def worker(batch):
        tau, trials = batch
        return _sweep_batch(config, fixtures[tau], floors[tau], trials)

    per_cell = [[] for _ in cells]
    for (_, trials), outcomes in zip(batches, _ordered_map(worker, batches, threads)):
        for (cell, _, _), outcome in zip(trials, outcomes):
            per_cell[cell].append(outcome)

    # Rows 2c and 2c + 1 are cell c's excesses of each algorithm; the mean
    # and percentile of each row are those of that cell's excesses alone.
    excesses = np.array(
        [
            [outcome.rows[position].excess_error for outcome in outcomes]
            for outcomes in per_cell
            for position in (0, 1)
        ]
    )
    means = excesses.mean(axis=1).tolist()
    p95s = np.percentile(excesses, 95, axis=1).tolist()
    rows = []
    trace_rows = []
    summary = []
    lines = []
    for cell, ((tau, n), outcomes) in enumerate(zip(cells, per_cell)):
        for outcome in outcomes:
            rows += outcome.rows
            trace_rows += outcome.trace_rows
        label = "tau=default" if tau is None else f"tau={tau:g}"
        for position, algorithm in enumerate(("disagreeing_experts", "erm")):
            mean = means[2 * cell + position]
            p95 = p95s[2 * cell + position]
            entry = {
                "cell": cell,
                "algorithm": algorithm,
                "tau": tau,
                "n": n,
                "mean_excess": mean,
                "p95_excess": p95,
            }
            line = (
                f"cell {cell} ({label}, n={n}) {algorithm}: "
                f"mean_excess={mean:.6g} p95_excess={p95:.6g}"
            )
            if algorithm == "disagreeing_experts":
                reasons = {reason: 0 for reason in BREAK_REASONS}
                for outcome in outcomes:
                    reasons[outcome.rows[0].break_reason] += 1
                reasons = {reason: count for reason, count in reasons.items() if count}
                pairs = sum(outcome.rows[0].r for outcome in outcomes)
                chose_core = sum(outcome.chose_core for outcome in outcomes)
                rounds = sum(len(outcome.trace_rows) for outcome in outcomes) / len(outcomes)
                improper = int((excesses[2 * cell] < 0).sum())
                entry.update(
                    rounds=rounds, improper=improper,
                    break_reasons=reasons, pairs=pairs, chose_core=chose_core,
                )
                line += (
                    f" rounds={rounds:.6g} improper={improper}/{len(outcomes)}"
                    " breaks="
                    + ",".join(f"{reason}:{count}" for reason, count in reasons.items())
                    + f" pairs={pairs} chose_core={chose_core}/{len(outcomes)}"
                )
            summary.append(entry)
            lines.append(line)
    return rows, trace_rows, tuple(summary), tuple(lines), True


def _run_lower_bound(config: ExperimentConfig, threads: int):
    spec = config.adversary
    try:
        if spec.tau is not None:
            u, skew = choose_parameters(spec.tau, spec.d, spec.n, spec.cap)
        else:
            u = spec.u
            skew = (
                spec.skew
                if spec.skew is not None
                else skew_for_domain(u, spec.d, spec.n, spec.cap)
            )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"adversary parameters: {exc}") from exc
    if u < 2 * spec.d:
        raise ConfigError(f"adversary domain {u} too small for {spec.d} negatives")
    if u > _MAX_DOMAIN:
        raise ConfigError(f"adversary domain {u:.4g} exceeds {_MAX_DOMAIN} points")

    step = _chunk_games(u)
    starts = list(range(0, config.trials, step))

    def worker(start):
        count = min(step, config.trials - start)
        trials = run_adversary_trials(
            u, spec.d, spec.n, skew, count, RngStream(config.seed, start)
        )
        return [
            (
                start + t.trial_index,
                format(fnv1a64(str(t.truth_rank).encode("utf-8")), "016x"),
                int(t.failed),
                t.learner_error,
                t.opt_error,
                t.skew,
            )
            for t in trials
        ]

    chunks = _ordered_map(worker, starts, threads)
    rows = [row for chunk in chunks for row in chunk]
    failures = sum(row[2] for row in rows)
    rate = failures / config.trials
    stderr = math.sqrt(rate * (1.0 - rate) / config.trials)
    opt = _opt_error(u, spec.d, skew)
    summary = (
        {
            "failure_rate": rate,
            "stderr": stderr,
            "u": u,
            "d": spec.d,
            "n": spec.n,
            "skew": skew,
            "tau": opt,
        },
    )
    lines = (
        f"failure_rate={rate:.6g} stderr={stderr:.6g} "
        f"(u={u} d={spec.d} n={spec.n} skew={skew:.6g} tau={opt:.6g})",
    )
    return rows, [], summary, lines, True


def _run_identities(config: ExperimentConfig, threads: int):
    chunk_count = math.ceil(config.trials / config.chunk_size)

    def worker(chunk):
        count = min(config.chunk_size, config.trials - chunk * config.chunk_size)
        return run_identity_chunk(config.seed, chunk, count)

    batches = _ordered_map(worker, list(range(chunk_count)), threads)
    rows = [
        (agg.check, agg.chunk, agg.instances, agg.max_abs_deviation, agg.failures)
        for batch in batches
        for agg in batch
    ]
    summary = []
    lines = []
    total_failures = 0
    for check in {agg.check: None for batch in batches for agg in batch}:
        per_check = [agg for batch in batches for agg in batch if agg.check == check]
        instances = sum(agg.instances for agg in per_check)
        failures = sum(agg.failures for agg in per_check)
        worst = max(agg.max_abs_deviation for agg in per_check)
        total_failures += failures
        summary.append(
            {
                "check": check,
                "instances": instances,
                "failures": failures,
                "max_abs_deviation": worst,
            }
        )
        lines.append(
            f"{check}: {instances} instances, {failures} failures, "
            f"max deviation {worst:.3g}"
        )
    ok = total_failures == 0
    lines.append("all identity checks passed" if ok else "IDENTITY CHECK FAILURES")
    return rows, [], tuple(summary), tuple(lines), ok


def run(config: ExperimentConfig) -> RunResult:
    """Execute a parsed config and write its CSV outputs.

    Returns the in-memory rows alongside what was written, plus a summary
    that matches the CSV contents exactly.
    """
    threads = resolve_threads(config)
    started = time.perf_counter()
    if config.kind == "upper_sweep":
        rows, trace_rows, summary, lines, ok = _run_upper_sweep(config, threads)
        csv_rows = [row.csv_values() for row in rows]
        columns = RESULT_COLUMNS
    elif config.kind == "lower_bound":
        rows, trace_rows, summary, lines, ok = _run_lower_bound(config, threads)
        csv_rows = rows
        columns = ADVERSARY_COLUMNS
    else:
        rows, trace_rows, summary, lines, ok = _run_identities(config, threads)
        csv_rows = rows
        columns = IDENTITY_COLUMNS
    runtime_ms = (time.perf_counter() - started) * 1000.0

    _write_csv(config.output, config, columns, csv_rows, runtime_ms)
    if config.trace_output is not None and config.kind == "upper_sweep":
        _write_csv(config.trace_output, config, TRACE_COLUMNS, trace_rows, runtime_ms)
    return RunResult(
        kind=config.kind,
        output_path=config.output,
        trace_path=config.trace_output if config.kind == "upper_sweep" else None,
        rows=tuple(rows),
        trace_rows=tuple(trace_rows),
        summary=summary,
        summary_lines=tuple(lines),
        ok=ok,
        runtime_ms=runtime_ms,
    )
