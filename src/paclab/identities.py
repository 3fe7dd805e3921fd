"""Randomized exact-identity checks over small generated instances.

Five algebraic properties of the probability machinery are evaluated on
random classes and distributions: the pair error decomposition across an
agreement split, total-probability reconstruction of an error from its two
conditionals, the averaging bound on the conditional optimum, the sample
error decomposition through the difference-indicator split, and routing
completeness of the composite classifier. All are exact up to floating
point, so a deviation above 1e-9 fails and any failure is a real defect.

Each instance conditions once: one agreement mask of its pair gives both
region masses and both conditionals (measures._condition), shared by the
three checks that read them. Conditioning draws nothing, so every check
draws what it drew when each conditioned on its own. The decomposition
and averaging checks return measures._decomposition_gap and
measures._averaging_gap, the identities experts.exact_progress_report
asserts on a training trace. A chunk's aggregates are selftest CSV rows.

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


class _Instance(NamedTuple):
    """A random class and distribution, a pair of distinct members, and the
    pair's agreement split of the distribution: the mass of each side and,
    where that mass is positive, the distribution conditioned on the side
    (None where it is not)."""

    klass: HypothesisClass
    dist: DiscreteDistribution
    pair: tuple[Hypothesis, Hypothesis]
    agree_mass: float
    disagree_mass: float
    agree: DiscreteDistribution | None
    disagree: DiscreteDistribution | None


def _split(klass: HypothesisClass, dist: DiscreteDistribution, pair) -> _Instance:
    """The instance with its pair's agreement split, conditioned once for
    every check that reads it. Conditioning draws nothing."""
    mask = measures.agreement_points([pair], dist.domain_size)
    sides = [measures._condition(dist, region) for region in (mask, ~mask)]
    masses = [0.0 if side is None else side.region_mass for side in sides]
    conditionals = [None if side is None else side.conditional for side in sides]
    return _Instance(klass, dist, pair, *masses, *conditionals)


def _check_pair_decomposition(inst: _Instance, gen) -> float:
    return measures._decomposition_gap(inst.pair, inst.dist, inst.agree_mass, inst.agree)


def _check_total_probability(inst: _Instance, gen) -> float:
    h = inst.klass.hypothesis(int(gen.integers(len(inst.klass))))
    er = measures.true_error(h, inst.dist)
    agree_part = 0.0
    if inst.agree is not None:
        agree_part = inst.agree_mass * measures.true_error(h, inst.agree)
    disagree_part = 0.0
    if inst.disagree is not None:
        disagree_part = inst.disagree_mass * measures.true_error(h, inst.disagree)
    return abs(er - (agree_part + disagree_part))


def _check_average_bound(inst: _Instance, gen) -> float:
    if inst.agree is None:
        return 0.0
    return measures._averaging_gap(inst.pair, inst.klass, inst.agree)[0]


def _check_determinize_split(inst: _Instance, gen) -> float:
    det_dist, det_klass, concept = measures.determinize(inst.dist, inst.klass)
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


def _check_composite_routing(inst: _Instance, gen) -> float:
    klass = inst.klass
    pair_count = int(gen.integers(1, 3))
    pairs = [inst.pair]
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
        instance = _split(klass, dist, _draw_pair(klass, gen))
        for name, check in _CHECK_FUNCTIONS.items():
            deviation = check(instance, gen)
            if deviation > worst[name]:
                worst[name] = deviation
            if deviation > _TOLERANCE:
                failures[name] += 1
    return [
        CheckAggregate(name, chunk, instances, worst[name], failures[name])
        for name in CHECKS
    ]
