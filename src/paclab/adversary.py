"""Hard instances built from classes labeling exactly d points negative.

Every hypothesis over a u-point domain flips exactly d points to -1; the
true labels are all +1, so the best hypothesis is the one whose negative
points carry the least mass. The generating distribution concentrates mass
on the d truth points, leaving every other point slightly heavier. Any
learner whose output misses at least half of the truth points pays a fixed
error premium, and the exact premium is checked against a closed form on
every trial. A learner is called as learner(table, instance) with the
CountTable of the game's sample; a proper learner of the game reads only
the table and instance.negatives.

Also includes the occupancy simulation used to bound how often sparse cells
fall below their expected counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CountTable,
    DiscreteDistribution,
    Hypothesis,
    RngStream,
    SamplePieces,
    _trusted_hypothesis,
    subset_rank,
    subset_unrank,
)

__all__ = [
    "AdversaryInstance",
    "AdversaryTrial",
    "build_distribution",
    "skew_for_domain",
    "choose_parameters",
    "least_frequent_learner",
    "is_failure",
    "run_adversary_trials",
    "estimate_failure_probability",
    "low_count_threshold",
    "balls_low_count_rate",
]


@dataclass(frozen=True)
class AdversaryInstance:
    """One hard instance: domain size, skew, and which labeling is true."""

    domain_size: int
    negatives: int
    skew: float
    truth_rank: int

    def __post_init__(self):
        if self.negatives < 1:
            raise ValueError("need at least one negative point")
        if self.domain_size < 2 * self.negatives:
            raise ValueError(
                f"domain of size {self.domain_size} too small for {self.negatives} negatives"
            )
        if not 0.0 <= self.skew < 1.0:
            raise ValueError(f"skew must lie in [0, 1), got {self.skew}")
        total = math.comb(self.domain_size, self.negatives)
        if not 0 <= self.truth_rank < total:
            raise ValueError(f"truth_rank {self.truth_rank} out of range for {total} labelings")

    def truth_negative_points(self) -> np.ndarray:
        return subset_unrank(self.domain_size, self.negatives, self.truth_rank)

    def truth_hypothesis(self) -> Hypothesis:
        labels = np.ones(self.domain_size, dtype=np.int8)
        labels[self.truth_negative_points()] = -1
        return _trusted_hypothesis(labels)

    @property
    def opt_error(self) -> float:
        """Best attainable error: the mass the truth labeling still misses."""
        return (1.0 - self.skew) * self.negatives / self.domain_size


def build_distribution(instance: AdversaryInstance) -> DiscreteDistribution:
    """All-positive labels, truth points lightened by the skew.

    Each truth point carries (1 - skew)/u, every other point picks up the
    shaved mass evenly, so missing a truth point always costs strictly more
    than hitting one.
    """
    u = instance.domain_size
    d = instance.negatives
    light = (1.0 - instance.skew) / u
    heavy = (1.0 - light * d) / (u - d)
    marginal = np.full(u, heavy)
    marginal[instance.truth_negative_points()] = light
    return DiscreteDistribution.deterministic(marginal, np.ones(u, dtype=np.int8))


def skew_for_domain(u: int, d: int, n: int, cap: int) -> float:
    """Skew just large enough to defeat n samples, capped at 1/cap."""
    if u <= d:
        raise ValueError("domain must exceed the negative count")
    return min(math.sqrt(u * math.log(u / d) / (n * cap)), 1.0 / cap)


def choose_parameters(tau: float, d: int, n: int, cap: int) -> tuple[int, float]:
    """Find a domain size and skew consistent with a target optimal error.

    The skew depends on the domain size and the domain size on the skew, so
    the pair is resolved by alternating the two maps from the unskewed
    starting point until the integer rounding fixes itself. Raises
    ValueError when the iteration does not settle or the settled domain is
    too small to leave room for a wrong labeling.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"target error must lie in (0, 1), got {tau}")
    u = round(d / tau)
    for _ in range(100):
        if u <= d:
            raise ValueError("parameters out of range")
        alpha = skew_for_domain(u, d, n, cap)
        nxt = round((1.0 - alpha) * d / tau)
        if nxt == u:
            if u < 2 * d:
                raise ValueError("parameters out of range")
            return u, alpha
        u = nxt
    raise ValueError("parameters out of range")


def least_frequent_learner(table: CountTable, instance: AdversaryInstance) -> Hypothesis:
    """Label the instance's d least-sampled points negative, breaking ties low.

    Reads only the sample's point counts and the negative count d, never
    the truth.
    """
    order = np.argsort(table.point_counts(), kind="stable")
    labels = np.ones(table.domain_size, dtype=np.int8)
    labels[order[: instance.negatives]] = -1
    return _trusted_hypothesis(labels)


def is_failure(
    h: Hypothesis, instance: AdversaryInstance, dist: DiscreteDistribution | None = None
) -> bool:
    """Whether h misses at least half the truth points.

    Requires h to label exactly the instance's negative count of points
    negative. Cross-checks the closed form for h's error and the failure
    premium against dist, the instance's distribution (built here when not
    given), raising RuntimeError if either is violated.
    """
    negatives = np.flatnonzero(h.labels == -1)
    if negatives.size != instance.negatives:
        raise ValueError(
            f"hypothesis labels {negatives.size} points negative, "
            f"expected exactly {instance.negatives}"
        )
    u = instance.domain_size
    d = instance.negatives
    truth = instance.truth_negative_points()
    overlap = np.intersect1d(negatives, truth, assume_unique=True).size
    failed = 2 * overlap <= d

    heavy_minus_light = instance.skew / (u - d)
    expected = instance.opt_error + (d - overlap) * heavy_minus_light
    if dist is None:
        dist = build_distribution(instance)
    wrong = float(dist.mass[negatives, 1].sum())
    if abs(wrong - expected) > 1e-12:
        raise RuntimeError(
            f"error closed form violated: measured {wrong!r}, expected {expected!r}"
        )
    if failed and wrong < instance.opt_error + instance.skew * d / (2 * u) - 1e-12:
        raise RuntimeError(
            f"failure premium violated: error {wrong!r} below "
            f"{instance.opt_error + instance.skew * d / (2 * u)!r}"
        )
    return failed


@dataclass(frozen=True)
class AdversaryTrial:
    trial_index: int
    truth_rank: int
    failed: bool
    learner_error: float
    opt_error: float
    skew: float


def _draw_subset(u: int, d: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform d-subset of range(u) via a partial shuffle over a sparse view."""
    swapped: dict[int, int] = {}
    picked = np.empty(d, dtype=np.int64)
    for i in range(d):
        j = int(gen.integers(i, u))
        picked[i] = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
    picked.sort()
    return picked


def run_adversary_trials(
    u: int,
    d: int,
    n: int,
    skew: float,
    trials: int,
    rng: RngStream,
    learner=least_frequent_learner,
) -> list[AdversaryTrial]:
    """Repeated games against a random truth labeling.

    Each trial draws the truth uniformly, then the count table of n samples
    from the matched distribution, calls learner(table, instance), and
    records whether it failed. A learner of the game reads only the table
    and instance.negatives; test oracles may peek at the truth. Trial j
    gets its own child stream, so results do not depend on execution order.
    """
    out = []
    for j in range(trials):
        gen = RngStream(rng.seed, rng.stream + 1 + j).generator()
        truth = _draw_subset(u, d, gen)
        instance = AdversaryInstance(u, d, skew, subset_rank(u, d, truth))
        dist = build_distribution(instance)
        table = SamplePieces.drawn(dist, n, gen).take(n)
        h = learner(table, instance)
        failed = is_failure(h, instance, dist)
        learner_error = float(dist.mass[np.flatnonzero(h.labels == -1), 1].sum())
        out.append(
            AdversaryTrial(j, instance.truth_rank, failed, learner_error, instance.opt_error, skew)
        )
    return out


def estimate_failure_probability(
    u: int,
    d: int,
    n: int,
    skew: float,
    trials: int,
    rng: RngStream,
    learner=least_frequent_learner,
) -> tuple[float, float]:
    """Failure rate of a learner against random truths, with standard error."""
    if trials < 1:
        raise ValueError("need at least one trial")
    results = run_adversary_trials(u, d, n, skew, trials, rng, learner)
    rate = sum(t.failed for t in results) / trials
    return rate, math.sqrt(rate * (1.0 - rate) / trials)


def low_count_threshold(n: int, p: float, m: int, k: int) -> float:
    """Count below which a cell of probability p is considered starved.

    At k = 0 the slack term diverges, so the max settles at half the
    expected count.
    """
    if k == 0:
        return p * n / 2.0
    slack = math.sqrt(p * n * math.log(m / k)) / 6.0
    return max(p * n - slack, p * n / 2.0)


def balls_low_count_rate(
    n: int,
    u: int,
    m: int,
    p: float,
    k: int,
    trials: int,
    rng: RngStream,
) -> tuple[float, float]:
    """How often at least k of m equal-probability cells come up starved.

    Throws n balls into u bins, where m designated bins each have
    probability p and the rest share the remainder as one pooled bin.
    Returns the rate at which k or more designated bins land strictly below
    the starvation threshold, with its standard error. Requires
    12/n <= p <= 1/2 so the threshold regime is meaningful.
    """
    if not 12.0 / n <= p <= 0.5:
        raise ValueError(f"cell probability {p} outside [{12.0 / n}, 0.5]")
    if m < 1 or m > u:
        raise ValueError("need 1 <= m <= u designated cells")
    if m * p > 1.0 + 1e-12:
        raise ValueError("designated cells carry more than unit mass")
    if k == 0:
        return 1.0, 0.0
    threshold = low_count_threshold(n, p, m, k)
    probs = np.full(m + 1, p)
    probs[m] = max(1.0 - m * p, 0.0)
    gen = rng.generator()
    hits = 0
    for _ in range(trials):
        counts = gen.multinomial(n, probs / probs.sum())
        if np.count_nonzero(counts[:m] < threshold) >= k:
            hits += 1
    rate = hits / trials
    return rate, math.sqrt(rate * (1.0 - rate) / trials)
