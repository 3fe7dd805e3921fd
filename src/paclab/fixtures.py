"""Named experiment setups: a class, a distribution, and known constants.

Each family is a function from a few numeric knobs to a Fixture, and the
registry maps the names used in config files and on the command line to
those functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import AdversaryInstance, _domain_size, build_distribution
from .core import DiscreteDistribution, HypothesisClass, _require_enumerable

__all__ = [
    "Fixture",
    "two_experts",
    "realizable_uniform",
    "dsubset_adversary",
    "FAMILIES",
    "available_fixtures",
]


@dataclass(frozen=True)
class Fixture:
    """A hypothesis class with its generating distribution and constants."""

    name: str
    klass: HypothesisClass
    distribution: DiscreteDistribution
    vc_dim: int
    opt_error: float


def two_experts(tau: float = 0.5) -> Fixture:
    """Two hypotheses erring on disjoint mass-tau points, agreeing elsewhere.

    Four points; the experts disagree exactly on the first two, which carry
    tau mass each, and the leftover mass sits where they agree and are both
    right. Each expert errs precisely on its own disagreement point, so the
    attainable error is tau and a holdout cannot separate them faster than
    the disagreement mass allows.
    """
    if not 0.0 < tau <= 0.5:
        raise ValueError(f"tau must lie in (0, 0.5], got {tau}")
    h1 = np.array([-1, 1, 1, 1], dtype=np.int8)
    h2 = np.array([1, -1, 1, 1], dtype=np.int8)
    klass = HypothesisClass(np.stack([h1, h2]), declared_vc=1)
    rest = (1.0 - 2.0 * tau) / 2.0
    marginal = np.array([tau, tau, rest, rest])
    dist = DiscreteDistribution.deterministic(marginal, np.ones(4, dtype=np.int8))
    return Fixture("two_experts", klass, dist, 1, tau)


def realizable_uniform(u: int = 6, tau: float = 0.0) -> Fixture:
    """All-positive truth inside a class of single-point flips, no noise.

    The class holds the all-positive labeling plus one hypothesis per point
    flipping just that point, over a uniform marginal. The truth is in the
    class, so the attainable error is zero; tau is accepted only at zero to
    keep the family signature uniform.
    """
    if u < 2:
        raise ValueError(f"need at least 2 points, got {u}")
    if tau != 0.0:
        raise ValueError(f"this family is noise-free, got tau={tau}")
    _require_enumerable(u + 1, u)
    matrix = np.ones((u + 1, u), dtype=np.int8)
    for i in range(u):
        matrix[i + 1, i] = -1
    klass = HypothesisClass(matrix, declared_vc=1)
    dist = DiscreteDistribution.uniform_deterministic(np.ones(u, dtype=np.int8))
    return Fixture("realizable_uniform", klass, dist, 1, 0.0)


def dsubset_adversary(
    u: int | None = None, d: int = 2, alpha: float = 0.5, tau: float | None = None
) -> Fixture:
    """The hard-instance world with a fixed truth labeling.

    Exactly one of u and tau must be given; tau is converted to the domain
    size via u = round((1 - alpha) d / tau). The truth is the labeling
    whose negative points are the d lowest indices, and the attainable
    error is its exact true error.
    """
    if (u is None) == (tau is None):
        raise ValueError("give exactly one of u and tau")
    if u is None:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")
        u = _domain_size(tau, d, alpha)
    instance = AdversaryInstance(u, d, alpha, 0)
    klass = HypothesisClass.with_exact_negatives(u, d)
    # Refused before the u-row mass table is allocated.
    _require_enumerable(klass.size, u)
    dist = build_distribution(instance)
    return Fixture("dsubset_adversary", klass, dist, d, instance.opt_error)


FAMILIES = {
    "two_experts": two_experts,
    "realizable_uniform": realizable_uniform,
    "dsubset_adversary": dsubset_adversary,
}


def available_fixtures() -> tuple[str, ...]:
    return tuple(sorted(FAMILIES))
