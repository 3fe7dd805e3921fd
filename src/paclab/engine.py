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

from .core import CountTable, HypothesisClass, _least_mistakes, enumerate_class

__all__ = [
    "TheoryConstants",
    "DEFAULT_CONSTANTS",
    "Schedule",
    "deviation_bound",
    "erm",
    "erm_many",
    "near_optimal_set",
    "pair_disagreements",
    "find_disagreeing_pair",
    "make_schedule",
    "erm_reference_rate",
]


@dataclass(frozen=True)
class TheoryConstants:
    """Positive multipliers for the bound and schedule formulas: the
    deviation allowance, the round count, and the early-exit threshold."""

    dev_scale: float = 1.0
    rounds_scale: float = 1.0
    exit_scale: float = 1.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not value > 0:
                raise ValueError(f"{field.name} must be strictly positive, got {value!r}")


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


def erm(klass: HypothesisClass, data) -> tuple[int, float]:
    """Index and empirical error of the best hypothesis, lowest index on ties.

    data is a CountTable or a Dataset, as are the samples of
    near_optimal_set and find_disagreeing_pair.
    """
    return erm_many(klass, [CountTable.of(data)])[0]


def erm_many(klass: HypothesisClass, tables) -> list[tuple[int, float]]:
    """erm on each of a sequence of count tables, with one product of the
    class and the stacked tables per row chunk."""
    if not tables:
        return []
    if any(len(table) == 0 for table in tables):
        raise ValueError("empty sample set")
    best, least = _least_mistakes(klass, tables)
    return [(int(b), int(m) / len(t)) for b, m, t in zip(best, least, tables)]


def near_optimal_set(klass: HypothesisClass, data, gamma: float, allowance: float) -> np.ndarray:
    """Sorted indices of hypotheses with empirical error at most gamma plus
    the allowance. Always contains the minimizer when gamma is attained."""
    table = CountTable.of(data)
    if len(table) == 0:
        raise ValueError("empty sample set")
    return np.flatnonzero(table.mistakes(klass) / len(table) <= gamma + allowance)


_PAIR_CHUNK_CELLS = 8_192
"""Pairs per chunk of the pair kernel: bounds its working memory by cells,
whatever the number of rows."""


def pair_disagreements(rows: np.ndarray, weights):
    """Weighted disagreement of every row of a label matrix with every later row.

    rows is a (k, u) label matrix and weights a (u,) vector of per-point
    weights (sample counts, point masses), or a (w, u) stack of them.
    Yields (a0, block, later) for consecutive row chunks [a0, a1):
    block[..., i, j] is the total weight of the points where rows a0 + i and
    a0 + 1 + j differ, and later[i, j] (j >= i) marks the cells that hold a
    pair a < b. Reading the later cells chunk by chunk, row by row, visits
    the pairs in lexicographic order.

    block = P[a0:a1]·diag(w)·Q[a0+1:]ᵀ + Q[a0:a1]·diag(w)·P[a0+1:]ᵀ with
    P = (rows == 1) and Q = 1 - P, taken as one product whose inner index
    interleaves the two terms point by point. Every term is a weight or
    zero, so integer weights give exact integers. A chunk holds about
    _PAIR_CHUNK_CELLS pairs, so memory is O(k·u) plus one chunk per weight
    vector, never k x k.
    """
    positive = rows == 1
    k, u = positive.shape
    right = np.empty((k, 2 * u))
    right[:, 0::2] = ~positive
    right[:, 1::2] = positive
    # left = (1 - right)·diag(w) holds P·w and Q·w interleaved; it is built
    # per chunk, so only right spans all k rows.
    w = np.repeat(np.asarray(weights, dtype=np.float64), 2, axis=-1)[..., None, :]
    a0 = 0
    while a0 < k - 1:
        width = k - a0 - 1
        a1 = min(k - 1, a0 + max(1, _PAIR_CHUNK_CELLS // width))
        block = ((1.0 - right[a0:a1]) * w) @ right[a0 + 1 :].T
        later = np.arange(width) >= np.arange(a1 - a0)[:, None]
        yield a0, block, later
        a0 = a1


def find_disagreeing_pair(klass: HypothesisClass, index_set, data, threshold: float):
    """First index pair disagreeing on at least a threshold fraction of samples.

    The scan is lexicographic over the sorted index set: the first row by
    one row product, since it often holds the answer, then the rest chunk
    by chunk through pair_disagreements. Returns None when no pair
    qualifies or fewer than two indices were given.
    """
    idx = np.unique(np.asarray(index_set, dtype=np.int64))
    if idx.size < 2:
        return None
    table = CountTable.of(data)
    if len(table) == 0:
        raise ValueError("empty sample set")
    rows = enumerate_class(klass).matrix[idx]
    n = len(table)
    point_counts = table.point_counts()
    hits = np.flatnonzero(((rows[1:] != rows[0]) @ point_counts) / n >= threshold)
    if hits.size:
        return int(idx[0]), int(idx[1 + hits[0]])
    for a0, counts, later in pair_disagreements(rows[1:], point_counts):
        hits = np.flatnonzero(later & (counts / n >= threshold))
        if hits.size:
            i, j = divmod(int(hits[0]), counts.shape[1])
            return int(idx[1 + a0 + i]), int(idx[2 + a0 + j])
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
