"""The benchmark's workloads, driven through paclab's public entry points.

A workload runs in three steps:

- setup(seed): what a user pays before the first result. Parse the config,
  or for filter_diagnose build the fixture and enumerate its class.
- prepare(index): the inputs of the index-th timed call, made outside the
  timed region. Call 0 uses the seed itself, call i > 0 uses
  seed + i * 2**32, so runs started with different seeds share no inputs.
- call(inputs, serial) makes one call, which bench/run.py times, and
  returns its raw result; check(inputs, raw, wall_s) reads the outputs,
  checks them, and returns an Outcome. Checks are never timed or traced.

A work unit is one sweep trial (train plus the ERM reference), one
adversary game, one identity instance (all five checks), or one
filter_diagnose trial (sample, train, diagnose, progress report).
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

import source  # noqa: F401  (puts the checkout's src/ on sys.path)
from paclab import cli, config, core, engine, experts, fixtures, identities, runner

__all__ = ["Outcome", "WORKLOADS", "THREADS", "call_seed", "map_trials", "output_labels"]

THREADS = 2
"""Worker threads for the runner workloads: nproc of the 2-core machine the
bounds were measured on, and the runner's default there."""

CALL_SEED_STRIDE = 2**32
MAX_SEED = CALL_SEED_STRIDE - 1


def call_seed(seed: int, index: int) -> int:
    return seed + index * CALL_SEED_STRIDE


@dataclass
class Outcome:
    """What one checked call did: work units, time, rows, failed checks."""

    units: int
    wall_s: float
    rows: bytes
    failures: list[str] = field(default_factory=list)
    failed_units: int = 0


def map_trials(worker, items) -> list:
    """Run worker on each item in order: the benchmark's own trial loop,
    which the traced pass wraps so that each trial gets its own id."""
    return [worker(item) for item in items]


def _data_rows(path: str) -> bytes:
    """File contents minus the `#` metadata lines, which carry a timestamp."""
    with open(path, "rb") as handle:
        return b"".join(line for line in handle if not line.startswith(b"#"))


def output_labels(result) -> np.ndarray:
    """A TrainResult's chosen classifier as a label vector, computed from its
    parts with numpy so that checks and counts do not call back into paclab."""
    if not result.chose_core:
        return result.erm_hypothesis.labels
    composite = result.core_classifier
    agree = np.ones(composite.on_agreement.labels.size, dtype=bool)
    for h1, h2 in composite.pairs:
        agree &= h1.labels == h2.labels
    return np.where(agree, composite.on_agreement.labels, composite.on_disagreement.labels)


@contextlib.contextmanager
def _threads(count: int):
    """Run with PACLAB_THREADS = count, then put back the caller's value.

    PACLAB_THREADS wins over the config's `threads`, so setting it makes
    the thread count independent of the caller's environment."""
    before = os.environ.get("PACLAB_THREADS")
    os.environ["PACLAB_THREADS"] = str(count)
    try:
        yield
    finally:
        if before is None:
            del os.environ["PACLAB_THREADS"]
        else:
            os.environ["PACLAB_THREADS"] = before


class _RunnerWorkload:
    """A config run through paclab.runner.run."""

    name = ""
    default_seed = 0
    threaded = True

    def __init__(self, workdir: str, trials: int):
        self.workdir = workdir
        self.trials = trials
        self.seed = self.default_seed
        self._first = None

    def config_text(self, seed: int) -> str:
        raise NotImplementedError

    def units(self, inputs) -> int:
        return inputs.trials

    def setup(self, seed: int) -> None:
        self.seed = seed
        self._first = config.parse_config_text(self.config_text(seed))

    def prepare(self, index: int):
        if index == 0:
            return self._first
        return config.parse_config_text(self.config_text(call_seed(self.seed, index)))

    def call(self, inputs, serial: bool = False):
        with _threads(1 if serial else THREADS):
            return runner.run(inputs)

    def check(self, inputs, raw, wall_s: float) -> Outcome:
        rows = _data_rows(raw.output_path)
        if raw.trace_path is not None:
            rows += _data_rows(raw.trace_path)
        failures = [] if raw.ok else ["runner reported ok=False"]
        failures += self.check_result(inputs, raw)
        units = self.units(inputs)
        return Outcome(units, wall_s, rows, failures, units if failures else 0)

    def check_result(self, inputs, result) -> list[str]:
        raise NotImplementedError


def _rows_in_file(path: str) -> int:
    """Data rows in a CSV written by the runner (header excluded)."""
    return _data_rows(path).count(b"\n") - 1


class _Sweep(_RunnerWorkload):
    default_seed = 823
    grid_n: tuple = ()
    grid_tau: tuple = ()

    def __init__(self, workdir: str, trials: int, grid_n=None, grid_tau=None):
        super().__init__(workdir, trials)
        self.grid_n = tuple(grid_n or self.grid_n)
        self.grid_tau = tuple(grid_tau or self.grid_tau)

    def config_text(self, seed: int) -> str:
        return "\n".join(
            [
                "[experiment]",
                "kind = upper_sweep",
                f"seed = {seed}",
                f"trials = {self.trials}",
                f"threads = {THREADS}",
                f"output = {os.path.join(self.workdir, self.name + '.csv')}",
                f"trace_output = {os.path.join(self.workdir, self.name + '_trace.csv')}",
                "",
                "[grid]",
                "n = " + ", ".join(str(n) for n in self.grid_n),
                "tau = " + ", ".join(repr(tau) for tau in self.grid_tau),
                "",
                "[fixture]",
                "family = dsubset_adversary",
                "d = 2",
                "alpha = 0.5",
            ]
        )

    def units(self, inputs) -> int:
        return len(inputs.grid_n) * len(inputs.grid_tau) * inputs.trials

    def check_result(self, inputs, result) -> list[str]:
        expected = 2 * self.units(inputs)
        failures = []
        if len(result.rows) != expected:
            failures.append(f"{len(result.rows)} result rows, expected cells x trials x 2 = {expected}")
        written = _rows_in_file(result.output_path)
        if written != expected:
            failures.append(f"{written} rows in {result.output_path}, expected {expected}")
        return failures


class SweepAccept(_Sweep):
    """The acceptance sweep: many small trials, per-trial overhead dominates."""

    name = "sweep_accept"
    grid_n = (3000, 10000, 30000)
    grid_tau = (0.02, 0.05, 0.1)

    def __init__(self, workdir: str, trials: int = 50, grid_n=None, grid_tau=None):
        super().__init__(workdir, trials, grid_n, grid_tau)


class SweepLargeN(_Sweep):
    """Few trials of O(n) array work; peak memory tracks n."""

    name = "sweep_large_n"
    grid_n = (1_000_000, 3_000_000)
    grid_tau = (0.02, 0.1)

    def __init__(self, workdir: str, trials: int = 4, grid_n=None, grid_tau=None):
        super().__init__(workdir, trials, grid_n, grid_tau)


class Adversary(_RunnerWorkload):
    """The lower-bound game: tau = 575/14400, d=2, n=10000, cap=576 (u=50)."""

    name = "adversary"
    default_seed = 606

    def __init__(self, workdir: str, trials: int = 2000):
        super().__init__(workdir, trials)

    def config_text(self, seed: int) -> str:
        return "\n".join(
            [
                "[experiment]",
                "kind = lower_bound",
                f"seed = {seed}",
                f"trials = {self.trials}",
                f"threads = {THREADS}",
                f"output = {os.path.join(self.workdir, self.name + '.csv')}",
                "",
                "[adversary]",
                f"tau = {575.0 / 14400.0!r}",
                "d = 2",
                "n = 10000",
                "cap = 576",
            ]
        )

    def check_result(self, inputs, result) -> list[str]:
        failures = []
        if len(result.rows) != inputs.trials:
            failures.append(f"{len(result.rows)} games recorded, expected {inputs.trials}")
        written = _rows_in_file(result.output_path)
        if written != inputs.trials:
            failures.append(f"{written} rows in {result.output_path}, expected {inputs.trials}")
        summary = result.summary[0]
        floor = 1.0 / 16.0 - 3.0 * summary["stderr"]
        if not summary["failure_rate"] >= floor:
            failures.append(f"failure rate {summary['failure_rate']!r} below 1/16 - 3 stderr = {floor!r}")
        return failures


class Selftest:
    """`paclab selftest` through cli.main: thousands of tiny objects."""

    name = "selftest"
    default_seed = 7
    threaded = True

    def __init__(self, workdir: str, trials: int = 1000):
        self.workdir = workdir
        self.trials = trials
        self.seed = self.default_seed
        self.output = os.path.join(workdir, "selftest.csv")

    def units(self, inputs) -> int:
        return self.trials

    def setup(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, index: int):
        if os.path.exists(self.output):
            os.remove(self.output)  # so check() never reads an earlier call's rows
        return ["selftest", "--seed", str(call_seed(self.seed, index)),
                "--trials", str(self.trials), "--output", self.output]

    def call(self, inputs, serial: bool = False):
        with _threads(1 if serial else THREADS), contextlib.redirect_stdout(io.StringIO()):
            return cli.main(inputs)

    def check(self, inputs, raw, wall_s: float) -> Outcome:
        rows = _data_rows(self.output)
        failures = [] if raw == 0 else [f"selftest exited with {raw} (ok is false)"]
        lines = rows.decode("utf-8").splitlines()
        per_check: dict[str, list[int]] = {}
        for line in lines[1:]:
            check, _chunk, instances, _deviation, failed = line.split(",")
            totals = per_check.setdefault(check, [0, 0])
            totals[0] += int(instances)
            totals[1] += int(failed)
        if sorted(per_check) != sorted(identities.CHECKS):
            failures.append(f"checks reported {sorted(per_check)}, expected {sorted(identities.CHECKS)}")
        for check, (instances, failed) in sorted(per_check.items()):
            if failed:
                failures.append(f"{check}: {failed} failures")
            if instances != self.trials:
                failures.append(f"{check}: {instances} instances, expected {self.trials}")
        return Outcome(self.trials, wall_s, rows, failures, self.trials if failures else 0)


class FilterDiagnose:
    """The regime where the filtering loop records pairs, driven directly
    through core and experts (the runner cannot run it; see check())."""

    name = "filter_diagnose"
    default_seed = 823
    threaded = False
    n = 30_000
    delta = 0.1

    def __init__(self, workdir: str, trials: int = 20):
        self.workdir = workdir
        self.trials = trials
        self.seed = self.default_seed

    def units(self, inputs) -> int:
        return len(inputs)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.fixture = fixtures.dsubset_adversary(u=30, d=3, alpha=0.5)
        core.enumerate_class(self.fixture.klass)
        self.consts = engine.TheoryConstants(exit_scale=1e-3)
        mass = self.fixture.distribution.mass
        self.bayes_error = float(np.minimum(mass[:, 0], mass[:, 1]).sum())

    def prepare(self, index: int):
        seed = call_seed(self.seed, index)
        return [core.RngStream(seed, 1 + trial) for trial in range(self.trials)]

    def call(self, inputs, serial: bool = True):
        return map_trials(self._trial, inputs)

    def _trial(self, stream):
        fixture = self.fixture
        try:
            data = core.sample_dataset(fixture.distribution, self.n, stream)
            result = experts.train(data, fixture.klass, fixture.vc_dim, self.delta, self.consts)
            report = experts.diagnose_failure_events(result.trace, fixture.klass, fixture.distribution)
            experts.exact_progress_report(result.trace, fixture.klass, fixture.distribution)
        except (ValueError, RuntimeError) as exc:
            return exc
        return result, report

    def check(self, inputs, raw, wall_s: float) -> Outcome:
        # The runner's own invariant compares against the class minimum and
        # raises on this regime's improper outputs; the right floor is the
        # Bayes error, which is what is checked here.
        mass = self.fixture.distribution.mass
        failures = []
        lines = []
        failed_trials = 0
        any_pair = False
        for trial, output in enumerate(raw):
            if isinstance(output, Exception):
                failures.append(f"trial {trial}: {type(output).__name__}: {output}")
                failed_trials += 1
                lines.append(f"{trial},error\n")
                continue
            result, report = output
            labels = output_labels(result)
            error = float(np.where(labels == 1, mass[:, 0], mass[:, 1]).sum())
            trial_failures = []
            if error < self.bayes_error - 1e-12:
                trial_failures.append(f"true error {error!r} below Bayes error {self.bayes_error!r}")
            # paclab's own output path must route every point as the
            # benchmark's independent copy of the composite rule does.
            wrong = int(np.count_nonzero(result.output_hypothesis().labels != labels))
            if wrong:
                trial_failures.append(f"output_hypothesis() differs from the routed labels at {wrong} points")
            failures += [f"trial {trial}: {failure}" for failure in trial_failures]
            failed_trials += bool(trial_failures)
            pairs = result.trace.pair_count
            any_pair = any_pair or pairs > 0
            events = sum(e.hypothesis_event or e.pair_event for e in report.iterations)
            lines.append(
                f"{trial},{int(result.chose_core)},{pairs},{result.trace.break_reason},{error!r},{events}\n"
            )
        if raw and not any_pair:
            failures.append("no trial recorded a pair: the filtering loop was not exercised")
            failed_trials = len(raw)
        return Outcome(len(raw), wall_s, "".join(lines).encode("utf-8"), failures, failed_trials)


WORKLOADS = {
    cls.name: cls for cls in (SweepAccept, SweepLargeN, Adversary, Selftest, FilterDiagnose)
}
"""Workload name -> class; each takes a work directory for its output files."""

