"""Empirical risk minimization and the bound calculators around it.

Minimization is exact: mistakes are counted as integers and ties always
resolve to the lowest class index. The bound formulas floor their inner
logarithms at 1 (_floored_log, which the training loop's pair threshold
and the progress report's decay factor also use) so degenerate inputs stay
positive and finite; the confidence term ln(1/delta) is never floored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    _FLOAT_EXACT, CountTable, HypothesisClass, _checked_index, _least_mistakes, _member_rows,
)

__all__ = [
    "TheoryConstants",
    "DEFAULT_CONSTANTS",
    "Schedule",
    "deviation_bound",
    "erm",
    "erm_many",
    "near_optimal_set",
    "pair_disagreements",
    "worst_deviating_pair",
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


def _additive_term(n, d, delta) -> float:
    """The term of the deviation allowance and of the reference rate that
    does not depend on the noise level."""
    return (d * _floored_log(n / d) + math.log(1.0 / delta)) / n


def deviation_bound(n, d, delta, beta, consts: TheoryConstants = DEFAULT_CONSTANTS):
    """Uniform deviation allowance at noise level beta.

    The allowance is a root term proportional to sqrt(beta) plus an additive
    term independent of beta, both shrinking with n. beta may be a scalar or
    an array; beta = 0 contributes no root term at all, so the bound at
    beta = 0 is the least at any beta (rounding keeps root + additive >=
    additive): the floor the worst-pair scan prunes against.
    """
    curve = _deviation_curve(n, d, delta, consts)
    beta_arr = np.asarray(beta, dtype=np.float64)
    if (beta_arr < 0).any() or (beta_arr > 1).any():
        raise ValueError("beta must lie in [0, 1]")
    return curve(beta_arr)


def _deviation_curve(n, d, delta, consts: TheoryConstants):
    """deviation_bound(n, d, delta, ·, consts) as a function of beta alone:
    n, d and delta are checked and the beta-free terms taken once, here, and
    each call applies the same float operations in the same order, to a
    beta it does not check."""
    _validate_bound_inputs(n, d, delta)
    log_delta = math.log(1.0 / delta)
    additive = _additive_term(n, d, delta)

    def curve(beta):
        beta_arr = np.asarray(beta, dtype=np.float64)
        with np.errstate(divide="ignore"):
            level_log = np.maximum(np.log(np.where(beta_arr > 0, 1.0 / beta_arr, 1.0)), 1.0)
        root = np.sqrt(beta_arr * (d * level_log + log_delta) / n)
        out = consts.dev_scale * (root + additive)
        return float(out) if out.ndim == 0 else out

    return curve


def erm(klass: HypothesisClass, data) -> tuple[int, float]:
    """Index and empirical error of the best hypothesis, lowest index on ties.

    data is a CountTable or a Dataset, as are the samples of
    near_optimal_set and find_disagreeing_pair.
    """
    return erm_many(klass, [CountTable.of(data)])[0]


def erm_many(klass: HypothesisClass, tables) -> list[tuple[int, float]]:
    """erm on each of a sequence of count tables: one product of the class
    and the stacked tables per row chunk, or the closed form of an
    exact-negatives class (core._least_mistakes)."""
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
"""Pairs per chunk of the pair search: bounds its working memory by cells,
whatever the number of rows."""

_SCAN_CHUNK_CELLS = 16_384
"""Pairs per chunk of the worst-pair scan. A chunk's bounds span its first
row's partners, so larger chunks form more bounds the row bound would have
dropped for their later rows, and smaller ones pay more per chunk. On the
filter-regime rounds of 40 trials at seed 4242 (dsubset u = 30, d = 3,
n = 30000; 2-core Xeon, numpy 2.4.6, best and median of 7) 2^14 cells
ran faster than 2^12, 2^13, 2^15 and 2^16."""

_SCAN_SLACK = 1e-9
"""How far a pair's bound may fall short of its exact deviation before the
scan could prune it wrongly; the bound's rounding error is about 1e-14."""


def _pair_chunks(cells: int, stop):
    """Consecutive row chunks of a label matrix, as (a0, a1, end): rows
    [a0, a1) each paired with the later rows before end = stop(a0), about
    cells pairs per chunk. stop is called as each chunk is reached, and the
    chunks end at the first row with no later row before its end."""
    a0 = 0
    while (end := stop(a0)) > a0 + 1:
        a1 = min(end - 1, a0 + max(1, cells // (end - a0 - 1)))
        yield a0, a1, end
        a0 = a1


def pair_disagreements(rows: np.ndarray, weights, cells: int):
    """Weighted disagreement of every row of a label matrix with every later row.

    rows is a (k, u) label matrix and weights a (u,) vector of per-point
    weights: sample counts, or signed floats. Yields (a0, block) for
    consecutive row chunks [a0, a1) of about cells pairs each: block[i, j]
    is |Σ w| over the points where rows a0 + i and a0 + 1 + j differ, and
    the cells j < i, which pair a row with itself or an earlier one, hold
    the lowest value of the block's dtype. Reading the other cells chunk by
    chunk, row by row, visits the pairs a < b in lexicographic order.

    With P = (rows == 1) and g = P·w, a pair's sum is g_a + g_b -
    2·(P_a∘w)·P_b: one (u + 2)-wide product of [-2·P∘w, g, 1] for the
    chunk's rows with [P, 1, g] for the later rows. Integer weights give
    integer terms and partial sums within 4·Σ|w|: the product is float64
    while that is below 2**53 and int64 above, so the sums are exact.
    Memory is O(k·u) plus one chunk, never k x k.
    """
    k = len(rows)
    return _disagreement_blocks(rows, weights, _pair_chunks(cells, lambda a0: k))


def _disagreement_blocks(rows: np.ndarray, weights, chunks):
    """pair_disagreements over the given (a0, a1, end) chunks of
    _pair_chunks: a chunk's block pairs its rows with the later rows before
    end only."""
    positive = rows == 1
    k, u = positive.shape
    w = np.asarray(weights)
    floating = w.dtype.kind == "f" or 4 * int(np.abs(w).sum()) < _FLOAT_EXACT
    dtype = np.float64 if floating else np.int64
    lowest = -np.inf if floating else np.iinfo(np.int64).min
    right = np.empty((k, u + 2), dtype)
    right[:, :u] = positive
    right[:, u] = 1
    right[:, u + 1] = g = right[:, :u] @ w.astype(dtype)
    for a0, a1, end in chunks:
        left = np.empty((a1 - a0, u + 2), dtype)
        np.multiply(positive[a0:a1], -2 * w, out=left[:, :u])
        left[:, u] = g[a0:a1]
        left[:, u + 1] = 1
        block = left @ right[a0 + 1 : end].T
        np.abs(block, out=block)
        block[:, : a1 - a0][np.tri(a1 - a0, k=-1, dtype=bool)] = lowest
        yield a0, block


def worst_deviating_pair(rows: np.ndarray, counts, marginal, allowance, floor: float):
    """The pair of rows whose empirical disagreement rate deviates most from
    its true one in excess of its allowance.

    rows is a (k, u) label matrix with k >= 2, counts the (u,) integer point
    counts of a sample of m >= 1 points and marginal the (u,) point masses.
    A pair (a, b) that differs on the points D has rate c/m, with c the
    count on D, and mass the sum of the marginal over D, taken point by
    point in order. Its deviation is |c/m - mass| and its excess that minus
    allowance(min(c/m, mass)); allowance maps an array of levels to an
    array of allowances, each at least floor. Returns (a, b, deviation,
    allowance, excess) for the pair of largest excess, the lexicographically
    first (a < b) among equals.

    Bound, then verify. With w = counts/m - marginal, a pair's deviation is
    |Σ w| over D up to rounding. A pair can beat the best excess e found so
    far only if its deviation exceeds e + floor; the bar is that, less
    _SCAN_SLACK. Two bounds prune against it:

    - Row bound. Let L mark the points where a row leaves its column's
      majority label, and r = L·|w|. Rows a and b differ exactly where one
      of them leaves it, so their deviation is at most r_a + r_b. The scan
      visits rows in descending r, ties by index; a row's partners whose
      row bound clears the bar are a prefix of the later rows, and the scan
      stops at the first row whose next row's bound does not clear it.
    - Pair bound. pair_disagreements' product with the weights w, formed
      only on that prefix, a chunk of about _SCAN_CHUNK_CELLS pairs at a
      time, gives each pair's |Σ w|.

    Pairs whose pair bound clears the bar are scored exactly; each chunk
    first scores its largest-bound pair, to raise the bar. Every pair that
    can tie or beat the winner is scored, so the order of the visit does
    not change the result. Memory is O(k·u) plus one chunk, never k x k.
    """
    positive = rows == 1
    k = len(rows)
    counts = np.asarray(counts)
    m = int(counts.sum())
    weights = counts / m - marginal
    leaves = positive != (2 * np.count_nonzero(positive, axis=0) > k)
    reach = leaves @ np.abs(weights)
    order = np.argsort(-reach, kind="stable")
    reach = reach[order]

    best = None
    bar = -math.inf

    def consider(p, q):
        """Score the pairs at scan positions p and q exactly, keeping the
        largest excess, the lexicographically first pair among equals."""
        nonlocal best, bar
        a, b = order[p], order[q]
        a, b = np.minimum(a, b), np.maximum(a, b)
        differ = positive[a] != positive[b]
        rates = (differ @ counts) / m
        masses = np.cumsum(np.where(differ, marginal, 0.0), axis=1)[:, -1]
        deviations = np.abs(rates - masses)
        allowances = allowance(np.minimum(rates, masses))
        excess = deviations - allowances
        top = np.lexsort((b, a, -excess))[0]
        if best is None or (-excess[top], a[top], b[top]) < (-best[4], best[0], best[1]):
            best = (int(a[top]), int(b[top]), float(deviations[top]), float(allowances[top]),
                    float(excess[top]))
            bar = best[4] + floor - _SCAN_SLACK

    def stop(a0):
        # reach is descending, so the positions q whose reach[a0] + reach[q]
        # clears the bar are a prefix: its length ends a0's partners.
        return int(np.count_nonzero(reach[a0] + reach > bar))

    chunks = _pair_chunks(_SCAN_CHUNK_CELLS, stop)
    for a0, bound in _disagreement_blocks(rows[order], weights, chunks):
        # bound[i, j] bounds the pair at scan positions (a0 + i, a0 + 1 + j).
        seed = int(np.argmax(bound))
        if bound.flat[seed] <= bar:
            continue
        i, j = np.divmod([seed], bound.shape[1])
        consider(a0 + i, a0 + 1 + j)
        # The seed survives: its bound is within rounding of its deviation,
        # which is at least its excess plus floor.
        i, j = np.divmod(np.flatnonzero(bound > bar), bound.shape[1])
        consider(a0 + i, a0 + 1 + j)
    return best


def find_disagreeing_pair(klass: HypothesisClass, index_set, data, threshold: float):
    """First index pair disagreeing on at least a threshold fraction of samples.

    The scan is lexicographic over the sorted, deduplicated index set,
    chunk by chunk through pair_disagreements; a one-dimensional strictly
    increasing set, as near_optimal_set returns, is scanned as it is.
    Returns None when no pair qualifies or fewer than two indices were
    given; an index that is not an integer inside the class is a
    ValueError.
    """
    idx = _checked_index(index_set, klass.size)
    if idx.ndim != 1 or not (idx[1:] > idx[:-1]).all():
        idx = np.unique(idx)
    if idx.size < 2:
        return None
    table = CountTable.of(data)
    if len(table) == 0:
        raise ValueError("empty sample set")
    rows = _member_rows(klass, idx)
    n = len(table)
    for a0, counts in pair_disagreements(rows, table.point_counts(), _PAIR_CHUNK_CELLS):
        # Masked cells are below every count, so cell (0, 0) hits before any.
        hits = np.flatnonzero(counts / n >= threshold)
        if hits.size:
            i, j = divmod(int(hits[0]), counts.shape[1])
            return int(idx[a0 + i]), int(idx[a0 + 1 + j])
    return None


def _round_level(err_estimate: float, consts: TheoryConstants) -> float:
    """make_schedule's round count before it is rounded up: it only grows as
    the estimate falls, and may be inf."""
    level = math.log(1.0 / err_estimate)
    return consts.rounds_scale * level * _floored_log(level)


def make_schedule(err_estimate: float, n: int, d: int, delta: float, consts: TheoryConstants = DEFAULT_CONSTANTS) -> Schedule:
    """Round count and exit threshold for a filtering run of n samples.

    The round count grows with the estimated noise level's log, with the
    iterated log floored at 1 and the whole count clamped to at least one
    round. The exit threshold scales linearly with the round count. A
    round count that overflows to inf is a ValueError naming rounds_scale.
    """
    if not 0 < err_estimate < 1:
        raise ValueError("err_estimate must lie strictly between 0 and 1")
    if not (d >= 1 and n > d):
        raise ValueError("need n > d >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    level = _round_level(err_estimate, consts)
    if not math.isfinite(level):
        raise ValueError(
            f"rounds_scale = {consts.rounds_scale:g} gives an infinite round count "
            f"at err_estimate = {err_estimate:g}"
        )
    rounds = max(1, math.ceil(level))
    log_ratio = _floored_log(n / d)
    exit_threshold = (
        consts.exit_scale * rounds * log_ratio**2 * (d * log_ratio + math.log(1.0 / delta)) / n
    )
    return Schedule(rounds, exit_threshold)


def erm_reference_rate(n, d, delta, tau) -> float:
    """Reference curve for the error level plain minimization attains.

    Evaluates the noise level plus the deviation allowance at that level
    (deviation_bound's root and additive terms, leading constant 1). Used
    for plotted reference curves, not as a guarantee of anything.
    """
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    return tau + deviation_bound(n, d, delta, tau)
