"""Training built around pairs of accurate hypotheses that disagree.

The core loop filters its sample through the agreement region of the pairs
recorded so far, keeps every near-optimal hypothesis on the filtered block,
and records one strongly-disagreeing pair per round. The composite routes a
point through a holdout-fitted hypothesis chosen by whether all recorded
pairs agree there. The wrapper estimates the noise level on one third of the
data, fits on the second, and validates against a plain minimizer on the
rest.

A sample reaches training as SamplePieces: contiguous pieces of counts,
either sliced from an ordered Dataset or drawn at O(domain) cost per piece
whatever the sample size. Nothing here draws randomness of its own; drawn
pieces are drawn in the order they are taken. A sample is taken in two
runs of pieces: the estimate third, then, once the estimate fixes the
schedule, every filter block, the holdout and the validation third, as one
stacked count array. A drawn sample thus costs two multinomial draws,
however many rounds the loop runs. A piece of the second run becomes a
count table only when a step reads it as one: the fit third is one sum
over the stack, the validation thirds are its last rows, and a block the
loop never reaches is drawn but never wrapped.

Training runs on a batch of samples (train_many); train and core_train are
its batch of one. Every minimization step of the batch scores every
sample's table with one engine.erm_many call, one product of the class
against the stacked tables or, for an exact-negatives class, its closed
form: the estimate third; the first filtering round, which
also scores every holdout and, in a batch of more than one, every fit
third, all drawn before the loop starts; each later round over the
samples still in the loop; and, for the samples that recorded a pair, the
nonempty holdout sides. A sample without a pair fits its agreement side on
the whole holdout, whose minimizer the first round found. The validation
errors of the whole batch are one call of the mistake kernel
(core._mistake_products): both candidates of every sample against the
stacked validation tables. A round that neither exits nor empties its
block runs the near-optimal filter and the pair search one sample at a
time. Until a sample records a pair, its loop filters nothing: each block
is its own kept table and the holdout is all agreement side.

Every iteration keeps its filtered block's table on the trace, so the
diagnostic functions can recompute conditional quantities exactly afterwards.
The diagnostics take their allowances from engine.deviation_bound, and
their floor is its value at level 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures
from .core import (
    CountTable,
    DiscreteDistribution,
    Hypothesis,
    HypothesisClass,
    SamplePieces,
    _member_rows,
    _mistake_products,
    _trusted_hypothesis,
    _trusted_table,
)
from .engine import (
    DEFAULT_CONSTANTS,
    Schedule,
    TheoryConstants,
    _deviation_curve,
    _floored_log,
    deviation_bound,
    erm_many,
    find_disagreeing_pair,
    make_schedule,
    near_optimal_set,
    worst_deviating_pair,
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
    "train_many",
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
        """Collapse the routing rule to one label vector over the domain;
        without pairs, every point is routed to the agreement side."""
        if not self.pairs:
            return self.on_agreement
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
    or not the loop reaches it: the blocks and the holdout are one run of
    pieces, and a block becomes a table only when its round reads it. An
    empty filtered block ends the loop with its own reason rather than
    aborting.

    Returns the classifier and a trace recording every round.
    """
    pieces = SamplePieces.of(data)
    schedule, sizes = _filter_plan(len(pieces), d, delta, err_estimate, consts)
    run = _FilterRun(schedule, pieces.take_many(sizes), sizes, err_estimate)
    return _run_filters([run], klass, d, delta, consts)[0][0]


def _filter_plan(m: int, d, delta, err_estimate, consts) -> tuple[Schedule, list[int]]:
    """The schedule of a filtering run on m samples, and the sizes of its
    pieces: each block, then the holdout half.

    With more rounds than the filter half has samples every block but the
    last is empty, and the loop stops at the first with REASON_EMPTY_BLOCK,
    so such a plan lays out just one empty block and the whole half: the
    same draws and the same trace, at any round count."""
    if m < 2:
        raise ValueError("need at least 2 samples to split in half")
    half = m // 2
    schedule = make_schedule(err_estimate, half, d, delta, consts)
    rounds = schedule.rounds
    if rounds > half:
        blocks = [0, half]
    else:
        base_block = half // rounds
        blocks = [base_block] * (rounds - 1) + [half - (rounds - 1) * base_block]
    return schedule, blocks + [m - half]


class _FilterRun:
    """One sample's filtering loop while its batch runs: the run of pieces
    it was dealt and what its rounds have recorded so far. reason stays None
    while the loop goes on."""

    __slots__ = ("err_estimate", "half", "schedule", "counts", "sizes", "holdout", "records",
                 "selected", "selected_indices", "reason")

    def __init__(self, schedule: Schedule, counts: np.ndarray, sizes: list, err_estimate):
        """counts are the stacked run of pieces _filter_plan sized (sizes):
        the blocks, then the holdout."""
        self.err_estimate = err_estimate
        self.schedule = schedule
        self.counts, self.sizes = counts, sizes
        self.holdout = _trusted_table(counts[-1], sizes[-1])
        self.half = sum(sizes[:-1])
        self.records: list[IterationRecord] = []
        self.selected: list[tuple[Hypothesis, Hypothesis]] = []
        self.selected_indices: list[tuple[int, int]] = []
        self.reason = None

    def kept(self, table: CountTable, u: int) -> CountTable:
        """The samples of a table where every recorded pair agrees; with no
        pair recorded, the table itself."""
        if not self.selected:
            return table
        return table.restrict(measures.agreement_points(self.selected, u))

    def finish_round(self, klass, step, kept, min_error, d, delta, consts) -> None:
        """Exit, or record the round's near-optimal set and pair search."""
        block_size = self.sizes[step - 1]
        if min_error <= self.schedule.exit_threshold:
            self.records.append(IterationRecord(step, block_size, kept, min_error, None, None))
            self.reason = REASON_EARLY_EXIT
            return
        allowance = deviation_bound(self.half / self.schedule.rounds, d, delta, min_error, consts)
        candidates = near_optimal_set(klass, kept, min_error, allowance)
        threshold = min_error / _floored_log(1.0 / min_error)
        pair = find_disagreeing_pair(klass, candidates, kept, threshold)
        self.records.append(IterationRecord(step, block_size, kept, min_error, candidates, pair))
        if pair is None:
            self.reason = REASON_NO_PAIR
            return
        self.selected.append((klass.hypothesis(pair[0]), klass.hypothesis(pair[1])))
        self.selected_indices.append(pair)


def _run_filters(runs, klass, d, delta, consts, extra=()):
    """The filtering loops and holdout fits of a batch of _FilterRuns.

    Each step of the loop filters every sample still running and scores the
    nonempty filtered blocks with one erm_many call. The first step's call
    also scores every sample's holdout, whose minimizer is the
    agreement-side fit of each sample that records no pair, and the extra
    tables; one more call after the loop scores the nonempty sides of the
    samples that recorded a pair. A sample without a recorded pair filters
    nothing: its block is its own kept table, and its holdout is all on the
    agreement side.

    Returns the (classifier, trace) of every run and the erm_many results
    of the extra tables.
    """
    u = klass.domain_size
    active = runs
    step = 1
    # Scored with the first step's blocks.
    unscored = [run.holdout for run in runs] + list(extra)
    first_fits = []
    while active:
        scored = []
        for run in active:
            # A block becomes a table only when its round reads it.
            block = _trusted_table(run.counts[step - 1], run.sizes[step - 1])
            kept = run.kept(block, u)
            if len(kept) == 0:
                run.records.append(IterationRecord(step, len(block), kept, None, None, None))
                run.reason = REASON_EMPTY_BLOCK
            else:
                scored.append((run, kept))
        minima = erm_many(klass, [kept for _, kept in scored] + unscored)
        first_fits += minima[len(scored) :]
        unscored = []
        for (run, kept), (_, min_error) in zip(scored, minima):
            run.finish_round(klass, step, kept, min_error, d, delta, consts)
        step += 1
        active = [run for run in active if run.reason is None and step < len(run.sizes)]

    holdout_fits, extra_fits = first_fits[: len(runs)], first_fits[len(runs) :]
    sides = []
    for run in runs:
        if run.selected:
            final_mask = measures.agreement_points(run.selected, u)
            sides.append((run.holdout.restrict(final_mask), run.holdout.restrict(~final_mask)))
        else:
            # No pair, no disagreement side: an empty sequence of samples.
            sides.append((run.holdout, ()))
    pair_sides = [side for run, pair in zip(runs, sides) if run.selected for side in pair]
    fitted = iter(erm_many(klass, [side for side in pair_sides if len(side)]))

    def fit_or_default(side):
        if len(side) == 0:
            return klass.hypothesis(0), True
        return klass.hypothesis(next(fitted)[0]), False

    out = []
    for run, (agree_side, disagree_side), (holdout_index, _) in zip(runs, sides, holdout_fits):
        if run.selected:
            h_eq, eq_defaulted = fit_or_default(agree_side)
        else:
            h_eq, eq_defaulted = klass.hypothesis(holdout_index), False
        h_neq, neq_defaulted = fit_or_default(disagree_side)
        trace = CoreTrace(
            records=tuple(run.records),
            selected=tuple(run.selected),
            selected_indices=tuple(run.selected_indices),
            break_reason=run.reason or REASON_COMPLETED,
            schedule=run.schedule,
            err_estimate=run.err_estimate,
            filter_half=run.half,
            holdout_half=len(run.holdout),
            agree_side_size=len(agree_side),
            disagree_side_size=len(disagree_side),
            agree_defaulted=eq_defaulted,
            disagree_defaulted=neq_defaulted,
            d=d,
            delta=delta,
            consts=consts,
        )
        out.append((CompositeClassifier(tuple(run.selected), h_eq, h_neq), trace))
    return out, extra_fits


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
    ties going to the routing classifier. Pieces are taken in sample order
    and in two runs: the estimate third, then core_train's blocks and
    holdout together with the rest.
    """
    return train_many([data], klass, d, delta, consts)[0]


def train_many(
    samples,
    klass: HypothesisClass,
    d: int,
    delta: float,
    consts: TheoryConstants = DEFAULT_CONSTANTS,
) -> list[TrainResult]:
    """train on each sample of a sequence, as one batch.

    The result equals [train(data) for data in samples] field by field, and
    each sample's pieces are taken in the same order as train takes them:
    the estimate third, then, once its schedule is known, every block, the
    holdout and the validation third as one run. So a drawn sample costs
    two draws. Each sample's fit third is the sum of its second run's
    blocks and holdout, and its validation third is the run's last row.
    A batch of more than one scores its fit thirds in the first filtering
    round's erm_many call. The validation errors of the whole batch are one
    call of the mistake kernel on the 2T stacked candidates and the T
    stacked validation counts, of which each sample reads its own two
    cells. A batch of one runs its filtering step through core_train, on
    the counts its run drew, and scores its fit third on its own, so a call
    of train is also a call of core_train, as tools that time core_train
    expect.
    """
    pieces = [SamplePieces.of(data) for data in samples]
    if not pieces:
        return []
    if any(len(p) < 3 for p in pieces):
        raise ValueError("need at least 3 samples to split in thirds")
    thirds = [len(p) // 3 for p in pieces]
    validation_sizes = [len(p) - 2 * third for p, third in zip(pieces, thirds)]
    estimate_parts = [p.take(third) for p, third in zip(pieces, thirds)]
    estimates = [
        _clamped_estimate(error, third)
        for (_, error), third in zip(erm_many(klass, estimate_parts), thirds)
    ]

    # Each sample's second run, one stacked count array: the blocks, the
    # holdout, then the validation third.
    plans = [_filter_plan(third, d, delta, e, consts) for third, e in zip(thirds, estimates)]
    runs = [p.take_many(plan[1] + [size]) for p, plan, size in zip(pieces, plans, validation_sizes)]
    fit_tables = [_trusted_table(run[:-1].sum(axis=0), third) for run, third in zip(runs, thirds)]
    if len(runs) == 1:
        replayed = _replayed(runs[0][:-1], plans[0][1])
        cores = [core_train(replayed, klass, d, delta, estimates[0], consts)]
        fit_minima = erm_many(klass, fit_tables)
    else:
        filters = [_FilterRun(schedule, run[:-1], sizes, e)
                   for (schedule, sizes), run, e in zip(plans, runs, estimates)]
        cores, fit_minima = _run_filters(filters, klass, d, delta, consts, fit_tables)
    erm_indices = [index for index, _ in fit_minima]

    # Rows 2t and 2t + 1 are sample t's two candidates; each reads its own
    # sample's validation counts, column t.
    core_labels = np.stack([classifier.tabulate().labels for classifier, _ in cores])
    erm_labels = _member_rows(klass, erm_indices)
    rows = np.stack([core_labels, erm_labels], axis=1).reshape(2 * len(cores), -1)
    products = _mistake_products(rows, np.stack([run[-1] for run in runs]))
    scored = np.concatenate([block for _, block in products]).reshape(len(cores), 2, len(cores))
    paid = scored[np.arange(len(cores)), :, np.arange(len(cores))].tolist()
    results = []
    for (core_classifier, trace), estimate, erm_index, size, (core_paid, erm_paid) in zip(
        cores, estimates, erm_indices, validation_sizes, paid
    ):
        erm_hypothesis = klass.hypothesis(erm_index)
        validation_core = core_paid / size
        validation_erm = erm_paid / size
        chose_core = validation_core <= validation_erm
        results.append(
            TrainResult(
                classifier=core_classifier if chose_core else erm_hypothesis,
                trace=trace,
                err_estimate=estimate,
                core_classifier=core_classifier,
                erm_index=erm_index,
                erm_hypothesis=erm_hypothesis,
                chose_core=chose_core,
                validation_core=validation_core,
                validation_erm=validation_erm,
            )
        )
    return results


def _replayed(counts: np.ndarray, sizes: list) -> SamplePieces:
    """Pieces that hand back the given stacked counts of consecutive pieces
    of the given sizes, taken as one run of exactly those sizes: the run a
    batch of one already drew, for core_train to take."""

    def draw(start: int, run_sizes: list) -> np.ndarray:
        if start != 0 or run_sizes != sizes:
            raise ValueError("replayed pieces must be taken as one run of their sizes")
        return counts

    return SamplePieces(sum(sizes), counts.shape[1], draw)


def _clamped_estimate(error: float, size: int) -> float:
    """An estimate of exactly 0 or 1 moved half a sample's worth inside."""
    if error == 0.0:
        return 1.0 / (2 * size)
    if error == 1.0:
        return 1.0 - 1.0 / (2 * size)
    return error


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


def _diagnostic_allowance(trace: CoreTrace):
    """The diagnostics' allowance at an array of levels in [0, 1]:
    deviation_bound at the trace's effective block size, d, delta and
    constants, over 32, bit for bit, with the bound's inputs checked once
    per trace rather than once per call."""
    curve = _deviation_curve(
        trace.filter_half / trace.schedule.rounds, trace.d, trace.delta, trace.consts
    )

    def allowance(levels):
        return curve(levels) / 32.0

    return allowance


def diagnose_failure_events(
    trace: CoreTrace,
    klass: HypothesisClass,
    dist: DiscreteDistribution,
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
    true and empirical levels, under the trace's constants. The candidates'
    errors are read off their label rows, with the mistake kernel and
    measures.row_errors. Blocks of at most one sample are flagged.

    The worst witness is the one with the largest deviation in excess of its
    allowance; among equal excesses the lowest candidate position wins, and
    for pairs the lexicographically first (a, b) in candidate order. The
    worst pair comes from engine.worst_deviating_pair, which scores exactly
    only the pairs whose deviation bound could still beat the best excess
    found, given that no allowance falls below the allowance at level 0. It
    bounds a pair by its rows' own bounds first, visiting rows from the
    largest row bound down and stopping where no later pair can clear the
    bar, and forms the pair bound of one product per chunk only where the
    row bounds do not rule a pair out. No candidates x candidates array is
    formed.
    """
    allowance = _diagnostic_allowance(trace)
    floor = allowance(0.0)
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
        cand_matrix = _member_rows(klass, cand)

        empirical = kept.mistakes(cand_matrix) / m
        truth = measures.row_errors(cand_matrix, cond)
        deviations = np.abs(empirical - truth)
        allowances = allowance(np.minimum(empirical, truth))
        excess = deviations - allowances
        worst_h = int(np.argmax(excess))
        hypothesis_event = bool(excess[worst_h] > 0)

        pair_event = False
        worst_pair = None
        worst_pair_deviation = 0.0
        worst_pair_allowance = 0.0
        if cand.size >= 2:
            a, b, worst_pair_deviation, worst_pair_allowance, pair_excess = worst_deviating_pair(
                cand_matrix, kept.point_counts(), cond.point_marginal(), allowance, floor
            )
            worst_pair = (int(cand[a]), int(cand[b]))
            pair_event = pair_excess > 0

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
    algebraic identities are asserted at each conditioning step, to within
    1e-9 (RuntimeError naming the step): the pair's error sum decomposes
    across the agreement split (measures._decomposition_gap), and the
    conditional optimum is at most the pair's average, the pair's two
    conditional errors being equal (measures._averaging_gap). The geometric
    decay bound and the mass bound are evaluated and reported per record,
    never asserted. If a pair's agreement region carries zero true mass the
    q = 0 form of the decomposition (error sum equals one) is checked and
    the report truncates, since later conditionals are undefined. Each
    pair splits once (measures._pair_split) for both identities and the
    running agreement mask; each optimum is computed once, as the next record's.
    Each optimum is the least of measures.row_errors over the class, which
    reads an exact-negatives class's negatives index in closed form, so
    the report builds no label matrix for it, even at the row cap.
    """
    pair_total = trace.pair_count
    best = base_error = float(np.min(measures.row_errors(klass, dist)))
    if base_error > 0:
        decay_factor = 1.0 - 1.0 / (32.0 * _floored_log(1.0 / base_error))
    else:
        decay_factor = 0.0
    marginal = dist.point_marginal()
    agreement = np.ones(dist.domain_size, dtype=bool)

    records = []
    current = dist
    for step in range(1, pair_total + 2):
        split = None
        if step <= pair_total:
            split = measures._pair_split(current, trace.selected[step - 1])
            agreement &= split.agreement
        disagreement_mass = float(marginal[~agreement].sum())
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
        if split is None:
            break
        gap = measures._decomposition_gap(split)
        if gap > 1e-9:
            raise RuntimeError(
                f"step {step}: the pair's error sum misses its decomposition by {gap!r}"
            )
        if split.agree is None:
            break
        gap, next_best = measures._averaging_gap(split, klass)
        if gap > 1e-9:
            raise RuntimeError(
                f"step {step}: the averaging bound fails by {gap!r}: the pair's "
                "conditional errors differ or the conditional optimum exceeds their average"
            )
        current, best = split.agree, next_best
    return ProgressReport(base_error, tuple(records))
