"""Empirical risk minimization and the bound calculators around it.

Minimization is exact: mistakes are counted as integers and ties always
resolve to the lowest class index. The bound formulas floor their inner
logarithms at 1 so degenerate inputs stay positive and finite; the
confidence term ln(1/delta) is never floored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import CountTable, HypothesisClass, enumerate_class

__all__ = [
    "TheoryConstants",
    "DEFAULT_CONSTANTS",
    "Schedule",
    "deviation_bound",
    "erm",
    "near_optimal_set",
    "find_disagreeing_pair",
    "make_schedule",
    "erm_reference_rate",
]


@dataclass(frozen=True)
class TheoryConstants:
    """Positive multipliers for the bound and schedule formulas.

    The first three scale computed quantities: the deviation allowance, the
    round count, and the early-exit threshold. The last three exist purely as
    validated configuration describing the regime a run claims to be in; no
    operation consumes them.
    """

    dev_scale: float = 1.0
    rounds_scale: float = 1.0
    exit_scale: float = 1.0
    noise_scale: float = 1.0
    sample_scale: float = 1.0
    prob_scale: float = 1.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not value > 0:
                raise ValueError(f"{field.name} must be strictly positive, got {value!r}")

    @classmethod
    def analysis_preset(cls) -> "TheoryConstants":
        """Illustrative large multipliers, with the exit threshold dominating
        the deviation and round scales by a wide margin. At desk scale these
        force the loop to exit immediately; they exist to exercise the
        large-constant regime, not to certify anything."""
        return cls(
            dev_scale=32.0,
            rounds_scale=2.0,
            exit_scale=4096.0,
            noise_scale=64.0,
            sample_scale=64.0,
            prob_scale=64.0,
        )


DEFAULT_CONSTANTS = TheoryConstants()


@dataclass(frozen=True)
class Schedule:
    """Round count and early-exit threshold for the filtering loop."""

    rounds: int
    exit_threshold: float

    def __post_init__(self) -> None:
        if not (isinstance(self.rounds, int) and self.rounds >= 1):
            raise ValueError("rounds must be an integer >= 1")
        if not self.exit_threshold > 0:
            raise ValueError("exit_threshold must be positive")


def _floored_log(x: float) -> float:
    return max(math.log(x), 1.0)


def _validate_bound_inputs(n: float, d: int, delta: float) -> None:
    if not n >= 1:
        raise ValueError("n must be at least 1")
    if not d >= 1:
        raise ValueError("d must be at least 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")


def deviation_bound(n, d, delta, beta, consts: TheoryConstants = DEFAULT_CONSTANTS):
    """Uniform deviation allowance at noise level beta.

    The allowance is a root term proportional to sqrt(beta) plus an additive
    term independent of beta, both shrinking with n. beta may be a scalar or
    an array; beta = 0 contributes no root term at all.
    """
    _validate_bound_inputs(n, d, delta)
    beta_arr = np.asarray(beta, dtype=np.float64)
    if (beta_arr < 0).any() or (beta_arr > 1).any():
        raise ValueError("beta must lie in [0, 1]")
    log_delta = math.log(1.0 / delta)
    additive = (d * _floored_log(n / d) + log_delta) / n
    with np.errstate(divide="ignore"):
        level_log = np.maximum(np.log(np.where(beta_arr > 0, 1.0 / beta_arr, 1.0)), 1.0)
    root = np.sqrt(beta_arr * (d * level_log + log_delta) / n)
    out = consts.dev_scale * (root + additive)
    return float(out) if out.ndim == 0 else out


def _mistake_counts(klass: HypothesisClass, data) -> tuple[np.ndarray, int]:
    """Integer mistake totals per hypothesis row, and the sample size."""
    table = CountTable.of(data)
    if len(table) == 0:
        raise ValueError("empty sample set")
    return table.mistakes(enumerate_class(klass).matrix), len(table)


def erm(klass: HypothesisClass, data) -> tuple[int, float]:
    """Index and empirical error of the best hypothesis, lowest index on ties.

    data is a CountTable or a Dataset, as are the samples of the two
    functions below.
    """
    mistakes, n = _mistake_counts(klass, data)
    best = int(np.argmin(mistakes))
    return best, int(mistakes[best]) / n


def near_optimal_set(klass: HypothesisClass, data, gamma: float, allowance: float) -> np.ndarray:
    """Sorted indices of hypotheses with empirical error at most gamma plus
    the allowance. Always contains the minimizer when gamma is attained."""
    mistakes, n = _mistake_counts(klass, data)
    return np.flatnonzero(mistakes / n <= gamma + allowance)


def find_disagreeing_pair(klass: HypothesisClass, index_set, data, threshold: float):
    """First index pair disagreeing on at least a threshold fraction of samples.

    The scan is lexicographic over the sorted index set; returns None when no
    pair qualifies or fewer than two indices were given.
    """
    idx = np.unique(np.asarray(index_set, dtype=np.int64))
    if idx.size < 2:
        return None
    table = CountTable.of(data)
    if len(table) == 0:
        raise ValueError("empty sample set")
    rows = enumerate_class(klass).matrix[idx]
    point_counts = table.point_counts()
    n = len(table)
    for a in range(idx.size - 1):
        fractions = ((rows[a + 1 :] != rows[a]) @ point_counts) / n
        hits = np.flatnonzero(fractions >= threshold)
        if hits.size:
            return int(idx[a]), int(idx[a + 1 + hits[0]])
    return None


def make_schedule(err_estimate: float, n: int, d: int, delta: float, consts: TheoryConstants = DEFAULT_CONSTANTS) -> Schedule:
    """Round count and exit threshold for a filtering run of n samples.

    The round count grows with the estimated noise level's log, with the
    iterated log floored at 1 and the whole count clamped to at least one
    round. The exit threshold scales linearly with the round count.
    """
    if not 0 < err_estimate < 1:
        raise ValueError("err_estimate must lie strictly between 0 and 1")
    if not (d >= 1 and n > d):
        raise ValueError("need n > d >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    level = math.log(1.0 / err_estimate)
    rounds = max(1, math.ceil(consts.rounds_scale * level * _floored_log(level)))
    log_ratio = _floored_log(n / d)
    exit_threshold = (
        consts.exit_scale * rounds * log_ratio**2 * (d * log_ratio + math.log(1.0 / delta)) / n
    )
    return Schedule(rounds, exit_threshold)


def erm_reference_rate(n, d, delta, tau) -> float:
    """Reference curve for the error level plain minimization attains.

    Evaluates the noise level plus a root term plus an additive term, all
    with leading constant 1. Used for plotted reference curves, not as a
    guarantee of anything.
    """
    _validate_bound_inputs(n, d, delta)
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    log_delta = math.log(1.0 / delta)
    additive = (d * _floored_log(n / d) + log_delta) / n
    root = 0.0 if tau == 0 else math.sqrt(tau * (d * _floored_log(1.0 / tau) + log_delta) / n)
    return tau + root + additive
