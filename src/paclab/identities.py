"""Randomized exact-identity checks over small generated instances.

Five algebraic properties of the probability machinery are evaluated on
random classes and distributions: the pair error decomposition across an
agreement split, total-probability reconstruction of an error from its two
conditionals, the averaging bound on the conditional optimum, the sample
error decomposition through the difference-indicator split, and routing
completeness of the composite classifier. All are exact up to floating
point, so a deviation above 1e-9 fails and any failure is a real defect.

Chunks are independently seeded, which lets the runner spread them over
threads without changing any result.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class CheckAggregate:
    """Worst deviation and failure count for one check over one chunk."""

    check: str
    chunk: int
    instances: int
    max_abs_deviation: float
    failures: int


def _random_instance(gen: np.random.Generator):
    u = int(gen.integers(2, 7))
    want = int(gen.integers(2, 11))
    rows = gen.choice(np.array([-1, 1], dtype=np.int8), size=(want, u))
    rows = np.unique(rows, axis=0)
    if rows.shape[0] < 2:
        rows = np.vstack([rows, -rows[0]])
    # np.unique has made the rows distinct, so the class needs no validation.
    klass = _trusted_class(rows, None)

    mass = gen.gamma(1.0, size=(u, 2))
    mass[gen.random(size=(u, 2)) < 0.3] = 0.0
    if mass.sum() == 0.0:
        mass[0, 1] = 1.0
    dist = DiscreteDistribution(mass / mass.sum())
    return klass, dist


def _region_masses(dist, pair) -> tuple[float, float, np.ndarray]:
    mask = measures.agreement_points([pair], dist.domain_size)
    return float(dist.mass[mask].sum()), float(dist.mass[~mask].sum()), mask


def _check_pair_decomposition(klass, dist, pair, gen) -> float:
    h1, h2 = pair
    total = measures.true_error(h1, dist) + measures.true_error(h2, dist)
    q, _, _ = _region_masses(dist, pair)
    if q <= 0.0:
        return abs(total - 1.0)
    inner = measures.condition_on_agreement(dist, [pair]).conditional
    rebuilt = q * (
        measures.true_error(h1, inner) + measures.true_error(h2, inner)
    ) + (1.0 - q)
    return abs(total - rebuilt)


def _check_total_probability(klass, dist, pair, gen) -> float:
    h = klass.hypothesis(int(gen.integers(len(klass))))
    agree_mass, disagree_mass, _ = _region_masses(dist, pair)
    er = measures.true_error(h, dist)
    agree_part = 0.0
    if agree_mass > 0.0:
        agree_part = agree_mass * measures.true_error(
            h, measures.condition_on_agreement(dist, [pair]).conditional
        )
    disagree_part = 0.0
    if disagree_mass > 0.0:
        disagree_part = disagree_mass * measures.true_error(
            h, measures.condition_on_disagreement(dist, [pair]).conditional
        )
    return abs(er - (agree_part + disagree_part))


def _check_average_bound(klass, dist, pair, gen) -> float:
    h1, h2 = pair
    q, _, _ = _region_masses(dist, pair)
    if q <= 0.0:
        return 0.0
    inner = measures.condition_on_agreement(dist, [pair]).conditional
    e1 = measures.true_error(h1, inner)
    e2 = measures.true_error(h2, inner)
    best = float(np.min(measures.row_errors(klass, inner)))
    return max(abs(e1 - e2), best - 0.5 * (e1 + e2))


def _check_determinize_split(klass, dist, pair, gen) -> float:
    det_dist, det_klass, concept = measures.determinize(dist, klass)
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


def _check_composite_routing(klass, dist, pair, gen) -> float:
    pair_count = int(gen.integers(1, 3))
    pairs = [pair]
    for _ in range(pair_count - 1):
        a, b = _draw_pair(klass, gen)
        pairs.append((a, b))
    on_agree = klass.hypothesis(int(gen.integers(len(klass))))
    on_disagree = klass.hypothesis(int(gen.integers(len(klass))))
    composite = CompositeClassifier(tuple(pairs), on_agree, on_disagree)
    flat = composite.tabulate()
    worst = 0.0
    for x in range(klass.domain_size):
        routed_to_agreement = all(h1(x) == h2(x) for h1, h2 in pairs)
        expected = on_agree(x) if routed_to_agreement else on_disagree(x)
        if flat(x) != expected or composite(x) != expected:
            worst = 1.0
    return worst


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
        pair = _draw_pair(klass, gen)
        for name, check in _CHECK_FUNCTIONS.items():
            deviation = check(klass, dist, pair, gen)
            if deviation > worst[name]:
                worst[name] = deviation
            if deviation > _TOLERANCE:
                failures[name] += 1
    return [
        CheckAggregate(name, chunk, instances, worst[name], failures[name])
        for name in CHECKS
    ]
