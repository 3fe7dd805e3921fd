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

Games are played a chunk at a time. Per game run only its random draws
(the truth subset, then one multinomial over the game's mass table) and
the learner call. A chunk makes one generator and re-keys it to each game's
stream (core._restart), so a game pays for its draws, not for a fresh
generator, and its truth rank is read off the drawn subset unchecked. The
chunk's truths, point masses, counts and learner outputs are stacked, and
every check (the learner's negative count, the overlap with the truth, the
closed-form error and the failure premium) runs once per chunk as array
operations (_check_games). is_failure is the batch of one of those same
checks.

The instance's tau, (1 - skew) d / u, is _opt_error, and its inverse in u
is _domain_size; a game samples core._cell_probabilities, as every draw
from a mass table does.

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
    _cell_probabilities,
    _restart,
    _subset_rank,
    _trusted_hypothesis,
    _trusted_table,
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
    "low_count_threshold",
    "balls_low_count_rate",
]

_ADVERSARY_CHUNK = 100
"""Most games checked as one batch. A chunk stacks its games' truths, point
masses, sample counts and learner outputs, about 26 bytes per game and
point, so _chunk_games also holds it to _ADVERSARY_CHUNK_CELLS games x
points. The runner hands its pool one chunk per task."""

_ADVERSARY_CHUNK_CELLS = 2**19
"""Games x points per chunk: about 14 MB of stacked arrays, whatever the
domain size. Domains of up to 5242 points keep chunks of
_ADVERSARY_CHUNK games; a domain wider than the budget plays one game per
chunk."""


_MAX_DOMAIN = 2**24
"""Largest domain a lower-bound run plays on: one game at u = 2 * 10^6 held
138 MB, so a game at 2^24 points stays near 1.2 GB."""


def _chunk_games(u: int) -> int:
    """Games per chunk on a u-point domain."""
    return min(_ADVERSARY_CHUNK, max(1, _ADVERSARY_CHUNK_CELLS // u))


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
        return _opt_error(self.domain_size, self.negatives, self.skew)


def _opt_error(u: int, d: int, skew: float) -> float:
    """The hard instance's tau: the mass of the d truth points, which the
    truth labeling still misses."""
    return (1.0 - skew) * d / u


def _domain_size(tau: float, d: int, skew: float) -> int:
    """The domain size whose tau at this skew is nearest the target."""
    return round((1.0 - skew) * d / tau)


def _point_masses(u: int, d: int, skew: float) -> tuple[float, float]:
    """The mass of a truth point, (1 - skew)/u, and of every other point,
    which picks up the shaved mass evenly."""
    light = (1.0 - skew) / u
    return light, (1.0 - light * d) / (u - d)


def build_distribution(instance: AdversaryInstance) -> DiscreteDistribution:
    """All-positive labels, truth points lightened by the skew.

    Each truth point carries (1 - skew)/u, every other point picks up the
    shaved mass evenly, so missing a truth point always costs strictly more
    than hitting one.
    """
    u = instance.domain_size
    light, heavy = _point_masses(u, instance.negatives, instance.skew)
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
    u = _domain_size(tau, d, 0.0)
    for _ in range(100):
        if u <= d:
            raise ValueError("parameters out of range")
        alpha = skew_for_domain(u, d, n, cap)
        nxt = _domain_size(tau, d, alpha)
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


def _check_games(
    labels: np.ndarray, truths: np.ndarray, marginals: np.ndarray, u: int, d: int, skew: float
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each game's learner failed, and its error, checking every game.

    labels holds the games' learner outputs as (games, u) -1/+1 rows, truths
    their sorted truth points as (games, d) rows, and marginals the (games,
    u) point masses each error is read from. Raises ValueError for the first
    output that does not label exactly d points negative, and RuntimeError
    for the first game whose error breaks the closed form or whose failure
    does not pay the premium.
    """
    negative = labels == -1
    counts = np.count_nonzero(negative, axis=1)
    bad = np.flatnonzero(counts != d)
    if bad.size:
        raise ValueError(
            f"hypothesis labels {counts[bad[0]]} points negative, expected exactly {d}"
        )
    negatives = np.nonzero(negative)[1].reshape(len(labels), d)
    overlap = np.count_nonzero(np.take_along_axis(negative, truths, axis=1), axis=1)
    failed = 2 * overlap <= d

    opt_error = _opt_error(u, d, skew)
    expected = opt_error + (d - overlap) * (skew / (u - d))
    wrong = np.take_along_axis(marginals, negatives, axis=1).sum(axis=1)
    broken = np.flatnonzero(np.abs(wrong - expected) > 1e-12)
    if broken.size:
        j = broken[0]
        raise RuntimeError(
            f"error closed form violated: measured {float(wrong[j])!r}, "
            f"expected {float(expected[j])!r}"
        )
    floor = opt_error + skew * d / (2 * u)
    cheap = np.flatnonzero(failed & (wrong < floor - 1e-12))
    if cheap.size:
        raise RuntimeError(
            f"failure premium violated: error {float(wrong[cheap[0]])!r} below {floor!r}"
        )
    return failed, wrong


def is_failure(h: Hypothesis, instance: AdversaryInstance) -> bool:
    """Whether h misses at least half the truth points.

    Requires h to label exactly the instance's negative count of points
    negative. Cross-checks the closed form for h's error and the failure
    premium against the instance's distribution, raising RuntimeError if
    either is violated. The batch of one of the checks every game gets.
    """
    dist = build_distribution(instance)
    failed, _ = _check_games(
        h.labels[None],
        instance.truth_negative_points()[None],
        dist.mass[None, :, 1],
        instance.domain_size,
        instance.negatives,
        instance.skew,
    )
    return bool(failed[0])


@dataclass(frozen=True)
class AdversaryTrial:
    trial_index: int
    truth_rank: int
    failed: bool
    learner_error: float
    opt_error: float
    skew: float


def _draw_subset(u: int, d: int, gen: np.random.Generator) -> list[int]:
    """Uniform d-subset of range(u), sorted, via a partial shuffle over a
    sparse view."""
    swapped: dict[int, int] = {}
    picked = []
    for i in range(d):
        j = int(gen.integers(i, u))
        picked.append(swapped.get(j, j))
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
    Games are checked a chunk of _chunk_games(u) at a time, after every
    learner of the chunk has been called.
    """
    out = []
    step = _chunk_games(u)
    for start in range(0, trials, step):
        stop = min(start + step, trials)
        out.extend(_play_chunk(u, d, n, skew, range(start, stop), rng, learner))
    return out


def _play_chunk(
    u: int, d: int, n: int, skew: float, indices: range, rng: RngStream, learner
) -> list[AdversaryTrial]:
    games = len(indices)
    light, heavy = _point_masses(u, d, skew)
    truths = np.empty((games, d), dtype=np.int64)
    marginals = np.full((games, u), heavy)
    counts = np.empty((games, u, 2), dtype=np.int64)
    ranks = []
    # Per game only its draws, in their order, from one generator re-keyed
    # to the game's stream (the RngStream checks the stream's range): the
    # truth, then the sample from the mass table build_distribution makes,
    # normalized by core._cell_probabilities as every draw normalizes it.
    mass = np.zeros((u, 2))
    gen = rng.generator()
    for k, j in enumerate(indices):
        _restart(gen, RngStream(rng.seed, rng.stream + 1 + j))
        truth = _draw_subset(u, d, gen)
        truths[k] = truth
        ranks.append(_subset_rank(u, d, truth))
        marginals[k, truth] = light
        mass[:, 1] = marginals[k]
        counts[k] = gen.multinomial(n, _cell_probabilities(mass)).reshape(u, 2)
    counts.setflags(write=False)

    labels = np.empty((games, u), dtype=np.int8)
    for k, rank in enumerate(ranks):
        instance = AdversaryInstance(u, d, skew, rank)
        labels[k] = learner(_trusted_table(counts[k], n), instance).labels

    failed, errors = _check_games(labels, truths, marginals, u, d, skew)
    opt_error = _opt_error(u, d, skew)
    return [
        AdversaryTrial(j, rank, bool(fail), float(error), opt_error, skew)
        for j, rank, fail, error in zip(indices, ranks, failed, errors)
    ]


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
