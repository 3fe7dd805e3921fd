"""Randomized exact-identity checks over small generated instances.

Five algebraic properties of the probability machinery are evaluated on
random classes and distributions: the pair error decomposition across an
agreement split, total-probability reconstruction of an error from its two
conditionals, the averaging bound on the conditional optimum, the sample
error decomposition through the difference-indicator split, and routing
completeness of the composite classifier. All are exact up to floating
point, so a deviation above 1e-9 fails and any failure is a real defect.

Each instance splits its pair once (measures._pair_split: both region
masses, both conditionals, the pair's errors) for the three checks that
read the split. Splitting draws nothing, so every check draws what it drew
when each conditioned on its own. The decomposition and averaging checks
return measures._decomposition_gap and measures._averaging_gap, the
identities experts.exact_progress_report asserts on a training trace. A
chunk's aggregates are selftest CSV rows.

Chunks are independently seeded, which lets the runner spread them over
threads without changing any result.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import measures
from .core import (
    DiscreteDistribution,
    Hypothesis,
    HypothesisClass,
    RngStream,
    SamplePieces,
    _trusted_class,
)
from .experts import CompositeClassifier

__all__ = ["CHECKS", "CheckAggregate", "run_identity_chunk"]


class CheckAggregate(NamedTuple):
    """Worst deviation and failure count for one check over one chunk: a
    selftest CSV row, its fields in column order."""

    check: str
    chunk: int
    instances: int
    max_abs_deviation: float
    failures: int


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """np.unique(rows, axis=0) of a -1/+1 int8 matrix of at most 62
    columns, through one integer code per row: +1 is a set bit and the
    first column the most significant, so the codes sort as the rows do."""
    shifts = np.arange(rows.shape[1] - 1, -1, -1)
    codes = np.unique((rows == 1) @ (1 << shifts))
    return (((codes[:, None] >> shifts) & 1) * 2 - 1).astype(np.int8)


def _random_instance(gen: np.random.Generator):
    u = int(gen.integers(2, 7))
    want = int(gen.integers(2, 11))
    rows = _distinct_rows(gen.choice(np.array([-1, 1], dtype=np.int8), size=(want, u)))
    if rows.shape[0] < 2:
        rows = np.vstack([rows, -rows[0]])
    # The rows are distinct, so the class needs no validation.
    klass = _trusted_class(rows, None)

    mass = gen.gamma(1.0, size=(u, 2))
    mass[gen.random(size=(u, 2)) < 0.3] = 0.0
    if mass.sum() == 0.0:
        mass[0, 1] = 1.0
    dist = DiscreteDistribution(mass / mass.sum())
    return klass, dist


def _check_pair_decomposition(klass: HypothesisClass, split: measures._PairSplit, gen) -> float:
    return measures._decomposition_gap(split)


def _check_total_probability(klass: HypothesisClass, split: measures._PairSplit, gen) -> float:
    h = klass.hypothesis(int(gen.integers(len(klass))))
    er = measures.true_error(h, split.dist)
    agree_part = 0.0
    if split.agree is not None:
        agree_part = split.agree_mass * measures.true_error(h, split.agree)
    disagree_part = 0.0
    if split.disagree is not None:
        disagree_part = split.disagree_mass * measures.true_error(h, split.disagree)
    return abs(er - (agree_part + disagree_part))


def _check_average_bound(klass: HypothesisClass, split: measures._PairSplit, gen) -> float:
    if split.agree is None:
        return 0.0
    return measures._averaging_gap(split, klass)[0]


def _check_determinize_split(klass: HypothesisClass, split: measures._PairSplit, gen) -> float:
    det_dist, det_klass, concept = measures.determinize(split.dist, klass)
    sample = SamplePieces.drawn(det_dist, 32, gen).take(32)
    i = int(gen.integers(len(det_klass)))
    i0 = int(gen.integers(len(det_klass)))
    h = det_klass.hypothesis(i)
    h0 = det_klass.hypothesis(i0)
    eq_list, neq_list = measures.split_class(det_klass, h0, concept)
    h_eq, h_neq = eq_list[i], neq_list[i]
    lhs = measures.empirical_error(h, sample) - measures.true_error(h, det_dist)
    rhs = (
        measures.empirical_error(h0, sample)
        - measures.true_error(h0, det_dist)
        + measures.fraction_predicting_positive(h_neq, sample)
        - measures.mass_predicting_positive(h_neq, det_dist)
        - measures.fraction_predicting_positive(h_eq, sample)
        + measures.mass_predicting_positive(h_eq, det_dist)
    )
    return abs(lhs - rhs)


def _check_composite_routing(klass: HypothesisClass, split: measures._PairSplit, gen) -> float:
    pair_count = int(gen.integers(1, 3))
    pairs = [split.pair]
    for _ in range(pair_count - 1):
        pairs.append(_draw_pair(klass, gen))
    on_agree = klass.hypothesis(int(gen.integers(len(klass))))
    on_disagree = klass.hypothesis(int(gen.integers(len(klass))))
    composite = CompositeClassifier(tuple(pairs), on_agree, on_disagree)
    # Every point routed at once, through each hypothesis's own labels.
    points = np.arange(klass.domain_size)
    routed_to_agreement = np.ones(klass.domain_size, dtype=bool)
    for h1, h2 in pairs:
        routed_to_agreement &= h1(points) == h2(points)
    expected = np.where(routed_to_agreement, on_agree(points), on_disagree(points))
    flat = composite.tabulate()
    if (flat(points) != expected).any() or (composite(points) != expected).any():
        return 1.0
    return 0.0


def _draw_pair(klass: HypothesisClass, gen) -> tuple[Hypothesis, Hypothesis]:
    i, j = gen.choice(len(klass), size=2, replace=False)
    return klass.hypothesis(int(i)), klass.hypothesis(int(j))


_CHECK_FUNCTIONS = {
    "pair_decomposition": _check_pair_decomposition,
    "total_probability": _check_total_probability,
    "average_bound": _check_average_bound,
    "determinize_split": _check_determinize_split,
    "composite_routing": _check_composite_routing,
}

CHECKS = tuple(_CHECK_FUNCTIONS)

_TOLERANCE = 1e-9
"""Largest deviation a check may show and still pass."""


def run_identity_chunk(seed: int, chunk: int, instances: int) -> list[CheckAggregate]:
    """Run every check on `instances` fresh random instances.

    Returns one aggregate per check; a deviation above _TOLERANCE counts as
    a failure. The stream is derived from (seed,
    chunk), so chunks can run in any order or in parallel.
    """
    if instances < 1:
        raise ValueError("need at least one instance per chunk")
    gen = RngStream(seed, 1 + chunk).generator()
    worst = dict.fromkeys(CHECKS, 0.0)
    failures = dict.fromkeys(CHECKS, 0)
    for _ in range(instances):
        klass, dist = _random_instance(gen)
        split = measures._pair_split(dist, _draw_pair(klass, gen))
        for name, check in _CHECK_FUNCTIONS.items():
            deviation = check(klass, split, gen)
            if deviation > worst[name]:
                worst[name] = deviation
            if deviation > _TOLERANCE:
                failures[name] += 1
    return [
        CheckAggregate(name, chunk, instances, worst[name], failures[name])
        for name in CHECKS
    ]
