"""Error rates, disagreement rates, and exact conditioning.

Everything here is a closed-form computation over mass tables or an integer
count over samples; every empirical measure reads a sample through its
CountTable and accepts a CountTable or a Dataset. Nothing is randomized.
Pair lists are plain sequences of (Hypothesis, Hypothesis) tuples sharing
one domain.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    _KERNEL_CHUNK_CELLS,
    CountTable,
    DiscreteDistribution,
    Hypothesis,
    HypothesisClass,
    _trusted_class,
    _trusted_distribution,
    _trusted_hypothesis,
    enumerate_class,
)

__all__ = [
    "ConditioningResult",
    "empirical_error",
    "true_error",
    "row_errors",
    "empirical_disagreement",
    "true_disagreement",
    "fraction_predicting_positive",
    "mass_predicting_positive",
    "agreement_points",
    "condition_on_agreement",
    "condition_on_disagreement",
    "determinize",
    "split_class",
]


def _require_samples(data) -> None:
    if len(data) == 0:
        raise ValueError("empty sample set")


def empirical_error(h: Hypothesis, data) -> float:
    """Fraction of samples where h disagrees with the observed label.

    data is a CountTable or a Dataset.
    """
    table = CountTable.of(data)
    _require_samples(table)
    return int(table.mistakes(h.labels)) / len(table)


def _mislabeled_mass(labels: np.ndarray, mass: np.ndarray):
    """Mass of the cells a label vector, or each row of a label matrix,
    mislabels: one where-sum along the points, taken in point order."""
    return np.where(labels == 1, mass[:, 0], mass[:, 1]).sum(axis=-1)


def true_error(h: Hypothesis, dist: DiscreteDistribution) -> float:
    """Exact mass of the (point, label) cells that h mislabels."""
    return float(_mislabeled_mass(h.labels, dist.mass))


def _true_errors(rows: np.ndarray, dist: DiscreteDistribution) -> np.ndarray:
    """true_error of each row of a nonempty (k, u) label matrix, bit for
    bit, a row chunk of about _KERNEL_CHUNK_CELLS cells at a time, so its
    working memory is one chunk whatever k. A row's sum does not depend on
    the chunking. The sweep takes both sides of every excess from here:
    the class minimum tau_true and the errors of the trained outputs."""
    step = max(1, _KERNEL_CHUNK_CELLS // dist.domain_size)
    return np.concatenate(
        [_mislabeled_mass(rows[a0 : a0 + step], dist.mass) for a0 in range(0, len(rows), step)]
    )


def row_errors(rows, dist: DiscreteDistribution) -> np.ndarray:
    """Exact error of each row of a label matrix, or of each member of a
    HypothesisClass: one mass product per row. Its last bit may differ
    from true_error's, which sums in another order."""
    if isinstance(rows, HypothesisClass):
        rows = rows.matrix
    positive = rows == 1
    return positive @ dist.mass[:, 0] + (~positive) @ dist.mass[:, 1]


def empirical_disagreement(h1: Hypothesis, h2: Hypothesis, data) -> float:
    """Fraction of sample points where the two hypotheses differ."""
    table = CountTable.of(data)
    _require_samples(table)
    return int(table.point_counts()[h1.labels != h2.labels].sum()) / len(table)


def true_disagreement(h1: Hypothesis, h2: Hypothesis, dist: DiscreteDistribution) -> float:
    """Exact point mass of the region where the two hypotheses differ."""
    return float(dist.point_marginal()[h1.labels != h2.labels].sum())


def fraction_predicting_positive(h: Hypothesis, data) -> float:
    """Fraction of sample points that h labels +1."""
    table = CountTable.of(data)
    _require_samples(table)
    return int(table.point_counts()[h.labels == 1].sum()) / len(table)


def mass_predicting_positive(h: Hypothesis, dist: DiscreteDistribution) -> float:
    """Point mass of the region that h labels +1."""
    return float(dist.point_marginal()[h.labels == 1].sum())


def agreement_points(pairs, domain_size: int) -> np.ndarray:
    """Boolean mask of points where every pair agrees (all true if no pairs)."""
    mask = np.ones(domain_size, dtype=bool)
    for h1, h2 in pairs:
        mask &= h1.labels == h2.labels
    return mask


@dataclass(frozen=True)
class ConditioningResult:
    """A renormalized conditional distribution plus the region's mass."""

    conditional: DiscreteDistribution
    region_mass: float


def _condition(dist: DiscreteDistribution, region: np.ndarray) -> ConditioningResult | None:
    """dist restricted to a point mask and renormalized, or None where the
    region has no mass. Every entry is a validated mass over the region's
    positive total, so the conditional needs no validation."""
    mass = float(dist.mass[region].sum())
    if mass <= 0.0:
        return None
    scaled = np.where(region[:, None], dist.mass / mass, 0.0)
    return ConditioningResult(_trusted_distribution(scaled), mass)


def _nonempty(result: ConditioningResult | None) -> ConditioningResult:
    if result is None:
        raise ValueError("empty conditioning region")
    return result


def condition_on_agreement(dist: DiscreteDistribution, pairs) -> ConditioningResult:
    """Restrict to the points where every pair agrees and renormalize.

    An empty pair list conditions on everything: the original distribution
    comes back with region mass exactly 1.
    """
    pairs = list(pairs)
    if not pairs:
        return ConditioningResult(dist, 1.0)
    return _nonempty(_condition(dist, agreement_points(pairs, dist.domain_size)))


def condition_on_disagreement(dist: DiscreteDistribution, pairs) -> ConditioningResult:
    """Restrict to the points where some pair disagrees and renormalize.
    With no pairs nothing disagrees, so the region is empty."""
    return _nonempty(_condition(dist, ~agreement_points(pairs, dist.domain_size)))


class _PairSplit(NamedTuple):
    """A pair's agreement split of dist: the mask, each side's mass and
    conditional (None without mass), and the pair's two true errors under
    dist and under the agreement conditional (None without it)."""

    dist: DiscreteDistribution
    pair: tuple[Hypothesis, Hypothesis]
    agreement: np.ndarray
    agree_mass: float
    disagree_mass: float
    agree: DiscreteDistribution | None
    disagree: DiscreteDistribution | None
    errors: tuple[float, float]
    agree_errors: tuple[float, float] | None


def _pair_split(dist: DiscreteDistribution, pair) -> _PairSplit:
    """The pair's split of dist, conditioned once for every identity."""
    mask = agreement_points([pair], dist.domain_size)
    sides = [_condition(dist, region) for region in (mask, ~mask)]
    masses = [0.0 if side is None else side.region_mass for side in sides]
    agree, disagree = [None if side is None else side.conditional for side in sides]
    errors = tuple(true_error(h, dist) for h in pair)
    agree_errors = None if agree is None else tuple(true_error(h, agree) for h in pair)
    return _PairSplit(dist, pair, mask, *masses, agree, disagree, errors, agree_errors)


def _decomposition_gap(split: _PairSplit) -> float:
    """|e1 + e2 - (q(e1_A + e2_A) + 1 - q)|: how far a pair's error sum is
    from its decomposition across its agreement split, of mass q. Without
    an agreement conditional (q = 0) the sum must be exactly 1."""
    e1, e2 = split.errors
    total = e1 + e2
    if split.agree is None:
        return abs(total - 1.0)
    a1, a2 = split.agree_errors
    return abs(total - (split.agree_mass * (a1 + a2) + (1.0 - split.agree_mass)))


def _averaging_gap(split: _PairSplit, klass: HypothesisClass) -> tuple[float, float]:
    """max(|e1 - e2|, optimum - (e1 + e2)/2) under a split's agreement
    conditional, with the class optimum there: the pair's errors there are
    equal and the optimum is at most their average."""
    e1, e2 = split.agree_errors
    best = float(np.min(row_errors(klass, split.agree)))
    return max(abs(e1 - e2), best - 0.5 * (e1 + e2)), best


def determinize(dist: DiscreteDistribution, klass: HypothesisClass):
    """Split every point into one twin per label.

    Point i becomes points 2i (carrying the mass of label -1) and 2i+1 (the
    mass of label +1), so the output distribution has deterministic labels while
    every hypothesis keeps its exact error. Returns the transformed
    distribution, the transformed class, and the concept labeling the twins.
    Doubling every column keeps distinct rows distinct, and moving each mass
    to a twin keeps every mass and the total, so neither the doubled class
    nor the doubled distribution needs validation.
    """
    if klass.domain_size != dist.domain_size:
        raise ValueError("class and distribution must share a domain")
    u = dist.domain_size
    mass = np.zeros((2 * u, 2))
    mass[0::2, 0] = dist.mass[:, 0]
    mass[1::2, 1] = dist.mass[:, 1]
    doubled = np.repeat(enumerate_class(klass).matrix, 2, axis=1)
    concept = _trusted_hypothesis(np.tile(np.array([-1, 1], dtype=np.int8), u))
    return (
        _trusted_distribution(mass),
        _trusted_class(doubled, klass.declared_vc),
        concept,
    )


class _LabelRows(Sequence):
    """The rows of a -1/+1 int8 label matrix, made read-only, as a sequence
    of hypotheses: a row is wrapped when it is read, so a caller pays for
    the rows it reads. Rows may repeat, so it is no HypothesisClass."""

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        rows.setflags(write=False)
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index) -> Hypothesis:
        return _trusted_hypothesis(self._rows[operator.index(index)])


def split_class(klass: HypothesisClass, base: Hypothesis, concept: Hypothesis):
    """Difference indicators of each member against a base hypothesis.

    For each h the first output is +1 exactly where h moves away from the
    base onto the concept's label, the second where it moves away onto the
    wrong label. Returned as two sequences of hypotheses aligned with the
    class index, because distinct members can map to identical indicators;
    a member's indicator is wrapped when it is read.
    """
    mat = enumerate_class(klass).matrix
    moves = mat != base.labels[None, :]
    onto_concept = mat == concept.labels[None, :]
    eq_rows = np.where(moves & onto_concept, 1, -1).astype(np.int8)
    neq_rows = np.where(moves & ~onto_concept, 1, -1).astype(np.int8)
    return _LabelRows(eq_rows), _LabelRows(neq_rows)
