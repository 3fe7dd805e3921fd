"""Acceptance suite: the package-level guarantees, one test per criterion.

Each test prints a single PASS or FAIL line straight to the terminal before
asserting, so a full run leaves a nine-line scoreboard regardless of capture
settings. Tolerances are pinned here and nowhere else; statistical checks
use three standard errors of headroom and fixed seeds throughout.
"""

import math
import time

import numpy as np
import pytest

from paclab import (
    Dataset,
    DiscreteDistribution,
    Hypothesis,
    HypothesisClass,
    RngStream,
    deviation_bound,
    erm,
    find_disagreeing_pair,
    near_optimal_set,
    sample_dataset,
    true_error,
    vc_dimension_bruteforce,
)
from paclab.adversary import (
    AdversaryInstance,
    balls_low_count_rate,
    build_distribution,
    choose_parameters,
    run_adversary_trials,
)
from paclab.cli import main
from paclab.config import parse_config_text
from paclab.fixtures import dsubset_adversary, realizable_uniform, two_experts
from paclab.identities import CHECKS, run_identity_chunk
from paclab.runner import run


def announce(capsys, number, label, ok):
    """Emit the scoreboard line for one criterion, bypassing capture."""
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def hard_instance_run():
    """One shared 4000-trial adversary run at the planned parameters.

    choose_parameters is asked for an instance whose attainable error is
    (575/576) * (2/50), which lands exactly on a 50-point domain with skew
    1/576. Two criteria read from the same run, so it is built once and
    timed once.
    """
    u, skew = choose_parameters(575.0 / 14400.0, d=2, n=10_000, cap=576)
    start = time.perf_counter()
    trials = run_adversary_trials(u, 2, 10_000, skew, 4000, RngStream(606, 0))
    elapsed = time.perf_counter() - start
    return u, skew, trials, elapsed


class TestCriterion1Identities:
    def test_identity_checks_are_exact(self, capsys):
        """All five probability identities hold to 1e-9 on 1000 instances."""
        start = time.perf_counter()
        aggregates = []
        for chunk in range(4):
            aggregates.extend(run_identity_chunk(2026, chunk, 250))
        elapsed = time.perf_counter() - start

        failures = sum(a.failures for a in aggregates)
        covered = {a.check for a in aggregates}
        ok = failures == 0 and covered == set(CHECKS) and elapsed < 10.0
        announce(capsys, 1, "identity checks exact at 1e-9 over 1000 instances", ok)
        assert covered == set(CHECKS), "some identity check never ran"
        assert failures == 0, f"{failures} identity check failures"
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


class TestCriterion2OracleEquivalence:
    @staticmethod
    def _oracle_erm(matrix, data):
        mistakes = [
            int(np.sum(matrix[i, data.points] != data.labels))
            for i in range(matrix.shape[0])
        ]
        best = min(range(len(mistakes)), key=lambda i: (mistakes[i], i))
        return best, mistakes[best] / len(data)

    @staticmethod
    def _oracle_near_optimal(matrix, data, gamma, allowance):
        out = []
        for i in range(matrix.shape[0]):
            err = np.sum(matrix[i, data.points] != data.labels) / len(data)
            if err <= gamma + allowance:
                out.append(i)
        return out

    @staticmethod
    def _oracle_pair(matrix, index_set, data, threshold):
        idx = sorted(set(int(i) for i in index_set))
        for a_pos, a in enumerate(idx):
            for b in idx[a_pos + 1 :]:
                frac = np.sum(matrix[a, data.points] != matrix[b, data.points]) / len(
                    data
                )
                if frac >= threshold:
                    return a, b
        return None

    def test_search_routines_match_brute_force(self, capsys):
        """erm, the filtered set, and the pair scan agree with naive scans."""
        gen = RngStream(2027, 1).generator()
        mismatches = 0
        for _ in range(500):
            u = int(gen.integers(2, 13))
            k = int(gen.integers(2, 65))
            n = int(gen.integers(1, 257))
            matrix = np.unique(
                gen.choice(np.array([-1, 1], dtype=np.int8), size=(k, u)), axis=0
            )
            klass = HypothesisClass(matrix)
            data = Dataset(
                gen.integers(0, u, size=n),
                gen.choice(np.array([-1, 1], dtype=np.int8), size=n),
                u,
            )

            want_idx, want_err = self._oracle_erm(matrix, data)
            if erm(klass, data) != (want_idx, pytest.approx(want_err, abs=0)):
                mismatches += 1

            allowance = float(gen.uniform(0.0, 0.4))
            want_set = self._oracle_near_optimal(matrix, data, want_err, allowance)
            got_set = near_optimal_set(klass, data, want_err, allowance)
            if list(got_set) != want_set:
                mismatches += 1

            size = int(gen.integers(1, matrix.shape[0] + 1))
            index_set = gen.choice(matrix.shape[0], size=size, replace=False)
            threshold = float(gen.uniform(0.0, 1.0))
            want_pair = self._oracle_pair(matrix, index_set, data, threshold)
            if find_disagreeing_pair(klass, index_set, data, threshold) != want_pair:
                mismatches += 1

        ok = mismatches == 0
        announce(capsys, 2, "search routines match oracles on 500 instances", ok)
        assert mismatches == 0, f"{mismatches} oracle disagreements"


class TestCriterion3PlantedOptimum:
    def test_attainable_error_matches_closed_form(self, capsys):
        """The truth labeling's error is exactly (1 - skew) * d / u."""
        worst = 0.0
        checked = 0
        for u in (4, 10, 26, 50, 120, 200):
            for d in (1, 2, 5, 7, 11):
                if u < 2 * d:
                    continue
                total = math.comb(u, d)
                for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9):
                    for rank in (0, total // 2, total - 1):
                        instance = AdversaryInstance(u, d, alpha, rank)
                        dist = build_distribution(instance)
                        measured = true_error(instance.truth_hypothesis(), dist)
                        worst = max(worst, abs(measured - (1.0 - alpha) * d / u))
                        checked += 1

        ok = worst <= 1e-12 and checked >= 400
        announce(capsys, 3, "planted optimum exact to 1e-12 across the grid", ok)
        assert checked >= 400
        assert worst <= 1e-12, f"worst deviation {worst}"


class TestCriterion4FailurePremium:
    def test_every_failing_trial_pays_the_premium(self, capsys, hard_instance_run):
        """A failed trial's learner error sits above opt plus the premium."""
        u, skew, trials, _ = hard_instance_run
        premium = skew * 2 / (2 * u)
        violations = sum(
            1
            for t in trials
            if t.failed and t.learner_error < t.opt_error + premium - 1e-12
        )
        failed = sum(t.failed for t in trials)

        ok = violations == 0 and failed > 0
        announce(capsys, 4, "failing trials always pay the error premium", ok)
        assert failed > 0, "no failures observed, premium check is vacuous"
        assert violations == 0, f"{violations} trials failed without the premium"


class TestCriterion5FailureRateFloor:
    def test_least_frequent_learner_fails_often(self, capsys, hard_instance_run):
        """Measured failure rate clears 1/16 minus three standard errors."""
        u, skew, trials, elapsed = hard_instance_run
        assert (u, skew) == (50, 1.0 / 576.0)
        rate = sum(t.failed for t in trials) / len(trials)
        stderr = math.sqrt(rate * (1.0 - rate) / len(trials))
        floor = 1.0 / 16.0 - 3.0 * stderr

        ok = rate >= floor and elapsed < 60.0
        announce(capsys, 5, "failure rate clears the 1/16 floor", ok)
        assert elapsed < 60.0, f"adversary run took {elapsed:.1f}s"
        assert rate >= floor, f"rate {rate:.4f} below floor {floor:.4f}"


class TestCriterion6StarvationRateFloor:
    def test_starved_cells_appear_often(self, capsys):
        """Five of a hundred designated cells run low often enough."""
        start = time.perf_counter()
        rate, stderr = balls_low_count_rate(
            100_000, 200, 100, 1.0 / 200.0, 5, 2000, RngStream(77, 0)
        )
        elapsed = time.perf_counter() - start
        floor = 1.0 / 8.0 - 3.0 * stderr

        ok = rate >= floor and elapsed < 120.0
        announce(capsys, 6, "starved-cell rate clears the 1/8 floor", ok)
        assert elapsed < 120.0, f"occupancy simulation took {elapsed:.1f}s"
        assert rate >= floor, f"rate {rate:.4f} below floor {floor:.4f}"


class TestCriterion7DeviationCoverage:
    def test_uniform_deviation_bound_covers_fixtures(self, capsys):
        """The whole class stays inside its bound in most trials.

        Coverage must reach (1 - delta) shrunk by three standard errors of
        a Bernoulli(1 - delta) estimate over the trial count.
        """
        n, delta, trial_count = 10_000, 0.1, 1000
        stderr = math.sqrt(delta * (1.0 - delta) / trial_count)
        floor = (1.0 - delta) * (1.0 - 3.0 * stderr)
        results = {}
        for fixture in (
            two_experts(0.2),
            realizable_uniform(),
            dsubset_adversary(u=6, d=2, alpha=0.5),
        ):
            matrix = fixture.klass.matrix
            d = vc_dimension_bruteforce(fixture.klass)
            truth = np.array(
                [true_error(h, fixture.distribution) for h in fixture.klass]
            )
            bounds = deviation_bound(n, d, delta, truth)
            covered = 0
            gen = RngStream(909, 1).generator()
            for _ in range(trial_count):
                data = sample_dataset(fixture.distribution, n, gen)
                empirical = (matrix[:, data.points] != data.labels).mean(axis=1)
                if np.all(np.abs(empirical - truth) <= bounds):
                    covered += 1
            results[fixture.name] = covered / trial_count

        ok = all(rate >= floor for rate in results.values())
        announce(capsys, 7, "deviation bound covers every fixture class", ok)
        for name, rate in results.items():
            assert rate >= floor, f"{name}: coverage {rate:.3f} below {floor:.3f}"


class TestCriterion8SanitySweep:
    def _run_family(self, tmp_path, family, extra):
        text = f"""\
[experiment]
kind = upper_sweep
seed = 823
trials = 200
output = {tmp_path / f"{family}.csv"}

[grid]
n = 3000, 10000, 30000
tau = 0.02, 0.05, 0.1

[fixture]
family = {family}
{extra}
"""
        return run(parse_config_text(text))

    def test_selected_classifier_tracks_erm(self, capsys, tmp_path):
        """Mean excess of the trained pick never exceeds ERM plus noise."""
        bad_cells = []
        for family, extra in (
            ("two_experts", ""),
            ("dsubset_adversary", "d = 2\nalpha = 0.5"),
        ):
            result = self._run_family(tmp_path, family, extra)
            for cell in range(9):
                picked = np.array(
                    [
                        r.excess_error
                        for r in result.rows
                        if r.cell == cell and r.algorithm == "disagreeing_experts"
                    ]
                )
                reference = np.array(
                    [
                        r.excess_error
                        for r in result.rows
                        if r.cell == cell and r.algorithm == "erm"
                    ]
                )
                assert picked.size == 200 and reference.size == 200
                slack = 3.0 * math.sqrt(
                    np.var(picked, ddof=1) / picked.size
                    + np.var(reference, ddof=1) / reference.size
                )
                if picked.mean() > reference.mean() + slack:
                    bad_cells.append((family, cell))

        ok = not bad_cells
        announce(capsys, 8, "trained pick tracks the reference within noise", ok)
        assert not bad_cells, f"cells exceeding the noise budget: {bad_cells}"


class TestCriterion9Determinism:
    @staticmethod
    def _body(path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        return [line for line in lines if not line.startswith("# generated_at:")]

    def test_selftest_runs_are_identical(self, capsys, tmp_path, monkeypatch):
        """Same seed twice gives the same bytes; threads change nothing."""
        monkeypatch.delenv("PACLAB_THREADS", raising=False)
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        threaded = tmp_path / "eight.csv"
        assert main(["selftest", "--seed", "7", "--output", str(first)]) == 0
        assert main(["selftest", "--seed", "7", "--output", str(second)]) == 0
        monkeypatch.setenv("PACLAB_THREADS", "8")
        assert main(["selftest", "--seed", "7", "--output", str(threaded)]) == 0

        repeat_ok = self._body(first) == self._body(second)
        rows = lambda path: [
            line for line in self._body(path) if not line.startswith("#")
        ]
        thread_ok = rows(first) == rows(threaded)

        ok = repeat_ok and thread_ok
        announce(capsys, 9, "selftest output is byte-stable and thread-safe", ok)
        assert repeat_ok, "two identically seeded runs produced different bodies"
        assert thread_ok, "threaded rows differ from the serial rows"
