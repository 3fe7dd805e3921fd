"""Training built around pairs of accurate hypotheses that disagree.

The core loop filters its sample through the agreement region of the pairs
recorded so far, keeps every near-optimal hypothesis on the filtered block,
and records one strongly-disagreeing pair per round. The composite routes a
point through a holdout-fitted hypothesis chosen by whether all recorded
pairs agree there. The wrapper estimates the noise level on one third of the
data, fits on the second, and validates against a plain minimizer on the
rest.

A sample reaches training as SamplePieces: contiguous pieces read as count
tables, either sliced from an ordered Dataset or drawn on demand at
O(domain) cost per piece whatever the sample size. Nothing here draws
randomness of its own; drawn pieces are drawn in the order they are taken.

Every iteration keeps its filtered block's table on the trace, so the
diagnostic functions can recompute conditional quantities exactly afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .core import (
    CountTable,
    DiscreteDistribution,
    Hypothesis,
    HypothesisClass,
    SamplePieces,
    _trusted_hypothesis,
    enumerate_class,
)
from .engine import (
    DEFAULT_CONSTANTS,
    Schedule,
    TheoryConstants,
    deviation_bound,
    erm,
    find_disagreeing_pair,
    make_schedule,
    near_optimal_set,
    pair_disagreements,
)

__all__ = [
    "REASON_COMPLETED",
    "REASON_EARLY_EXIT",
    "REASON_NO_PAIR",
    "REASON_EMPTY_BLOCK",
    "BREAK_REASONS",
    "CompositeClassifier",
    "IterationRecord",
    "CoreTrace",
    "TrainResult",
    "core_train",
    "train",
    "IterationEvents",
    "FailureEventReport",
    "diagnose_failure_events",
    "ProgressRecord",
    "ProgressReport",
    "exact_progress_report",
]

REASON_COMPLETED = "completed"
REASON_EARLY_EXIT = "gamma_below_Zt"
REASON_NO_PAIR = "no_disagreeing_pair"
REASON_EMPTY_BLOCK = "empty_Ti"

BREAK_REASONS = (REASON_COMPLETED, REASON_EARLY_EXIT, REASON_NO_PAIR, REASON_EMPTY_BLOCK)


@dataclass(frozen=True)
class CompositeClassifier:
    """Routes each point by whether every recorded pair agrees there."""

    pairs: tuple
    on_agreement: Hypothesis
    on_disagreement: Hypothesis

    def routing_mask(self) -> np.ndarray:
        """True at points routed to the agreement-side hypothesis."""
        return measures.agreement_points(self.pairs, self.on_agreement.domain_size)

    def tabulate(self) -> Hypothesis:
        """Collapse the routing rule to one label vector over the domain."""
        mask = self.routing_mask()
        return _trusted_hypothesis(
            np.where(mask, self.on_agreement.labels, self.on_disagreement.labels)
        )

    def __call__(self, x):
        return self.tabulate()(x)


@dataclass(frozen=True)
class IterationRecord:
    """One filtering round: the block, what survived, and what was chosen.

    kept is the table of the block's samples that passed the filter.
    min_error and candidates are None when the round broke before computing
    them; pair_indices is None on any terminal round.
    """

    step: int
    block_size: int
    kept: CountTable
    min_error: float | None
    candidates: np.ndarray | None
    pair_indices: tuple[int, int] | None


@dataclass(frozen=True)
class CoreTrace:
    """Complete instrumentation of one core training run."""

    records: tuple
    selected: tuple
    selected_indices: tuple
    break_reason: str
    schedule: Schedule
    err_estimate: float
    filter_half: int
    holdout_half: int
    agree_side_size: int
    disagree_side_size: int
    agree_defaulted: bool
    disagree_defaulted: bool
    d: int
    delta: float
    consts: TheoryConstants

    @property
    def pair_count(self) -> int:
        """Number of rounds that recorded a pair."""
        return len(self.selected)


def _erm_or_default(klass: HypothesisClass, side: CountTable) -> tuple[Hypothesis, bool]:
    if len(side) == 0:
        return klass.hypothesis(0), True
    index, _ = erm(klass, side)
    return klass.hypothesis(index), False


def core_train(
    data,
    klass: HypothesisClass,
    d: int,
    delta: float,
    err_estimate: float,
    consts: TheoryConstants = DEFAULT_CONSTANTS,
) -> tuple[CompositeClassifier, CoreTrace]:
    """Fit the routing classifier on an ordered sample.

    data is a Dataset or SamplePieces, which this call consumes. The first
    half feeds the filtering rounds, the second half fits the two routing
    hypotheses. Blocks are contiguous; the last block absorbs the
    remainder. Every block is taken, in order, before the holdout, whether
    or not the loop reaches it. An empty filtered block ends the loop with
    its own reason rather than aborting.

    Returns the classifier and a trace recording every round.
    """
    pieces = SamplePieces.of(data)
    m = len(pieces)
    if m < 2:
        raise ValueError("need at least 2 samples to split in half")
    half = m // 2
    schedule = make_schedule(err_estimate, half, d, delta, consts)
    rounds = schedule.rounds
    base_block = half // rounds
    blocks = [pieces.take(base_block) for _ in range(rounds - 1)]
    blocks.append(pieces.take(half - (rounds - 1) * base_block))
    holdout_part = pieces.take(m - half)

    records: list[IterationRecord] = []
    selected: list[tuple[Hypothesis, Hypothesis]] = []
    selected_indices: list[tuple[int, int]] = []
    reason = REASON_COMPLETED
    for step, block in enumerate(blocks, start=1):
        passing = measures.agreement_points(selected, klass.domain_size)
        kept = block.restrict(passing)
        if len(kept) == 0:
            records.append(IterationRecord(step, len(block), kept, None, None, None))
            reason = REASON_EMPTY_BLOCK
            break
        _, min_error = erm(klass, kept)
        if min_error <= schedule.exit_threshold:
            records.append(IterationRecord(step, len(block), kept, min_error, None, None))
            reason = REASON_EARLY_EXIT
            break
        allowance = deviation_bound(half / rounds, d, delta, min_error, consts)
        candidates = near_optimal_set(klass, kept, min_error, allowance)
        threshold = min_error / max(math.log(1.0 / min_error), 1.0)
        pair = find_disagreeing_pair(klass, candidates, kept, threshold)
        records.append(IterationRecord(step, len(block), kept, min_error, candidates, pair))
        if pair is None:
            reason = REASON_NO_PAIR
            break
        selected.append((klass.hypothesis(pair[0]), klass.hypothesis(pair[1])))
        selected_indices.append(pair)

    final_mask = measures.agreement_points(selected, klass.domain_size)
    agree_side = holdout_part.restrict(final_mask)
    disagree_side = holdout_part.restrict(~final_mask)
    h_eq, eq_defaulted = _erm_or_default(klass, agree_side)
    h_neq, neq_defaulted = _erm_or_default(klass, disagree_side)

    classifier = CompositeClassifier(tuple(selected), h_eq, h_neq)
    trace = CoreTrace(
        records=tuple(records),
        selected=tuple(selected),
        selected_indices=tuple(selected_indices),
        break_reason=reason,
        schedule=schedule,
        err_estimate=err_estimate,
        filter_half=half,
        holdout_half=len(holdout_part),
        agree_side_size=len(agree_side),
        disagree_side_size=len(disagree_side),
        agree_defaulted=eq_defaulted,
        disagree_defaulted=neq_defaulted,
        d=d,
        delta=delta,
        consts=consts,
    )
    return classifier, trace


@dataclass(frozen=True)
class TrainResult:
    """Validated pick between the routing classifier and plain minimization."""

    classifier: object
    trace: CoreTrace
    err_estimate: float
    core_classifier: CompositeClassifier
    erm_index: int
    erm_hypothesis: Hypothesis
    chose_core: bool
    validation_core: float
    validation_erm: float

    def output_hypothesis(self) -> Hypothesis:
        """The selected classifier collapsed to a label vector."""
        if isinstance(self.classifier, CompositeClassifier):
            return self.classifier.tabulate()
        return self.classifier


def train(
    data,
    klass: HypothesisClass,
    d: int,
    delta: float,
    consts: TheoryConstants = DEFAULT_CONSTANTS,
) -> TrainResult:
    """Estimate, fit, validate: the full training pipeline on one sample.

    data is a Dataset or SamplePieces, which this call consumes. The first
    third estimates the attainable error level (clamped away from 0 and 1
    so the schedule is well defined), the middle third trains both
    candidates, and the remainder picks whichever validates better, with
    ties going to the routing classifier. Pieces are taken in sample order:
    the estimate third, core_train's blocks and holdout, then the rest.
    """
    pieces = SamplePieces.of(data)
    n = len(pieces)
    if n < 3:
        raise ValueError("need at least 3 samples to split in thirds")
    third = n // 3
    part_estimate = pieces.take(third)

    _, estimate = erm(klass, part_estimate)
    if estimate == 0.0:
        estimate = 1.0 / (2 * len(part_estimate))
    elif estimate == 1.0:
        estimate = 1.0 - 1.0 / (2 * len(part_estimate))

    part_fit = pieces.split(third)
    core_classifier, trace = core_train(part_fit, klass, d, delta, estimate, consts)
    erm_index, _ = erm(klass, part_fit.taken())
    erm_hypothesis = klass.hypothesis(erm_index)
    part_validate = pieces.take(len(pieces))

    validation_core = measures.empirical_error(core_classifier.tabulate(), part_validate)
    validation_erm = measures.empirical_error(erm_hypothesis, part_validate)
    chose_core = validation_core <= validation_erm
    chosen = core_classifier if chose_core else erm_hypothesis
    return TrainResult(
        classifier=chosen,
        trace=trace,
        err_estimate=estimate,
        core_classifier=core_classifier,
        erm_index=erm_index,
        erm_hypothesis=erm_hypothesis,
        chose_core=chose_core,
        validation_core=validation_core,
        validation_erm=validation_erm,
    )


@dataclass(frozen=True)
class IterationEvents:
    """Deviation events for one filtering round, with worst witnesses."""

    step: int
    sample_size: int
    tiny_sample: bool
    hypothesis_event: bool
    worst_hypothesis: int | None
    worst_hypothesis_deviation: float
    worst_hypothesis_allowance: float
    pair_event: bool
    worst_pair: tuple[int, int] | None
    worst_pair_deviation: float
    worst_pair_allowance: float


@dataclass(frozen=True)
class FailureEventReport:
    iterations: tuple


def diagnose_failure_events(
    trace: CoreTrace,
    klass: HypothesisClass,
    dist: DiscreteDistribution,
    consts: TheoryConstants | None = None,
) -> FailureEventReport:
    """Compare each round's empirical quantities against the conditional truth.

    For every round that produced a candidate set, the generating
    distribution is conditioned on the previously recorded pairs agreeing,
    and two events are evaluated. The hypothesis event fires when some
    candidate's empirical error on the kept block deviates from its
    conditional error by more than 1/32 of the deviation allowance; the pair
    event does the same for the disagreement rate of every candidate pair. A
    single-member candidate set has no pairs, so its pair event is vacuously
    false. The allowance for each witness is taken at the smaller of its
    true and empirical levels. Blocks of at most one sample are flagged.

    The worst witness is the one with the largest deviation in excess of its
    allowance; among equal excesses the lowest candidate position wins, and
    for pairs the lexicographically first (a, b) in candidate order. Pairs
    are scored in chunks by engine.pair_disagreements, so no candidates x
    candidates array is formed.
    """
    consts = consts if consts is not None else trace.consts
    matrix = enumerate_class(klass).matrix
    effective_n = trace.filter_half / trace.schedule.rounds
    out = []
    for position, record in enumerate(trace.records):
        if record.candidates is None:
            continue
        if record.kept is None:
            raise ValueError("trace does not retain the filtered blocks")
        conditioned = measures.condition_on_agreement(dist, trace.selected[:position])
        cond = conditioned.conditional
        kept = CountTable.of(record.kept)
        m = len(kept)
        cand = record.candidates
        cand_matrix = matrix[cand]

        empirical = kept.mistakes(klass, cand) / m
        truth = measures.row_errors(klass, cond, cand)
        deviations = np.abs(empirical - truth)
        allowances = deviation_bound(
            effective_n, trace.d, trace.delta, np.minimum(empirical, truth), consts
        ) / 32.0
        excess = deviations - allowances
        worst_h = int(np.argmax(excess))
        hypothesis_event = bool(excess[worst_h] > 0)

        pair_event = False
        worst_pair = None
        worst_pair_deviation = 0.0
        worst_pair_allowance = 0.0
        if cand.size >= 2:
            weights = np.stack([kept.point_counts(), cond.point_marginal()])
            best_excess = -math.inf
            for a0, (counts, true_rates), later in pair_disagreements(cand_matrix, weights):
                empirical_rates = counts / m
                pair_devs = np.abs(empirical_rates - true_rates)
                pair_allow = deviation_bound(
                    effective_n,
                    trace.d,
                    trace.delta,
                    np.minimum(empirical_rates, true_rates),
                    consts,
                ) / 32.0
                pair_excess = np.where(later, pair_devs - pair_allow, -math.inf)
                i, j = np.unravel_index(np.argmax(pair_excess), pair_excess.shape)
                if pair_excess[i, j] > best_excess:
                    best_excess = float(pair_excess[i, j])
                    worst_pair = (int(cand[a0 + i]), int(cand[a0 + 1 + j]))
                    worst_pair_deviation = float(pair_devs[i, j])
                    worst_pair_allowance = float(pair_allow[i, j])
            pair_event = best_excess > 0

        out.append(
            IterationEvents(
                step=record.step,
                sample_size=m,
                tiny_sample=m <= 1,
                hypothesis_event=hypothesis_event,
                worst_hypothesis=int(cand[worst_h]),
                worst_hypothesis_deviation=float(deviations[worst_h]),
                worst_hypothesis_allowance=float(allowances[worst_h]),
                pair_event=pair_event,
                worst_pair=worst_pair,
                worst_pair_deviation=worst_pair_deviation,
                worst_pair_allowance=worst_pair_allowance,
            )
        )
    return FailureEventReport(tuple(out))


@dataclass(frozen=True)
class ProgressRecord:
    """Exact conditional optimum and disagreement mass after i-1 pairs."""

    step: int
    best_conditional_error: float
    disagreement_mass: float
    decay_bound: float
    within_decay: bool
    mass_bound: float
    within_mass: bool


@dataclass(frozen=True)
class ProgressReport:
    base_error: float
    records: tuple


def exact_progress_report(
    trace: CoreTrace, klass: HypothesisClass, dist: DiscreteDistribution
) -> ProgressReport:
    """Exact accounting of how conditioning on the recorded pairs progresses.

    Record i holds the class's best error under the distribution conditioned
    on the first i-1 pairs agreeing, together with the original-distribution
    mass where any recorded pair among the first min(i, r) disagrees. Two
    algebraic identities are asserted at each conditioning step (tolerance
    1e-9, RuntimeError on violation): the pair's error sum decomposes across
    the agreement split, and the conditional optimum is at most the pair's
    average (the pair has equal errors there, also asserted). The geometric
    decay bound and the mass bound are evaluated and reported per record,
    never asserted. If a pair's agreement region carries zero true mass the
    q = 0 form of the decomposition (error sum equals one) is checked and
    the report truncates, since later conditionals are undefined.
    """
    pair_total = trace.pair_count
    base_error = float(np.min(measures.row_errors(klass, dist)))
    if base_error > 0:
        decay_factor = 1.0 - 1.0 / (32.0 * max(math.log(1.0 / base_error), 1.0))
    else:
        decay_factor = 0.0
    marginal = dist.point_marginal()

    records = []
    current = dist
    for step in range(1, pair_total + 2):
        best = float(np.min(measures.row_errors(klass, current)))
        active = min(step, pair_total)
        if active == 0:
            disagreement_mass = 0.0
        else:
            mask = measures.agreement_points(trace.selected[:active], dist.domain_size)
            disagreement_mass = float(marginal[~mask].sum())
        decay_bound = base_error * decay_factor ** (step - 1)
        mass_bound = 8.0 * (base_error - best)
        records.append(
            ProgressRecord(
                step=step,
                best_conditional_error=best,
                disagreement_mass=disagreement_mass,
                decay_bound=decay_bound,
                within_decay=best <= decay_bound + 1e-9,
                mass_bound=mass_bound,
                within_mass=disagreement_mass <= mass_bound + 1e-9,
            )
        )
        if step > pair_total:
            break
        h1, h2 = trace.selected[step - 1]
        error_sum = measures.true_error(h1, current) + measures.true_error(h2, current)
        pair_mask = measures.agreement_points([(h1, h2)], current.domain_size)
        agree_mass = float(current.mass[pair_mask].sum())
        if agree_mass <= 0.0:
            if abs(error_sum - 1.0) > 1e-9:
                raise RuntimeError(
                    f"step {step}: fully-disagreeing pair has error sum {error_sum!r}, expected 1"
                )
            break
        conditioned = measures.condition_on_agreement(current, [(h1, h2)])
        nxt = conditioned.conditional
        q = conditioned.region_mass
        next_e1 = measures.true_error(h1, nxt)
        next_e2 = measures.true_error(h2, nxt)
        reconstructed = q * (next_e1 + next_e2) + (1.0 - q)
        if abs(error_sum - reconstructed) > 1e-9:
            raise RuntimeError(
                f"step {step}: decomposition identity violated, "
                f"{error_sum!r} vs {reconstructed!r}"
            )
        if abs(next_e1 - next_e2) > 1e-9:
            raise RuntimeError(
                f"step {step}: pair errors differ on their agreement region, "
                f"{next_e1!r} vs {next_e2!r}"
            )
        next_best = float(np.min(measures.row_errors(klass, nxt)))
        if next_best > 0.5 * (next_e1 + next_e2) + 1e-9:
            raise RuntimeError(
                f"step {step}: conditional optimum {next_best!r} exceeds the pair average"
            )
        current = nxt
    return ProgressReport(base_error, tuple(records))
