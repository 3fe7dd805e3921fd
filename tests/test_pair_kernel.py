"""The chunked pair kernel and the diagnostics' worst-pair scan against the
per-row loops they replaced.

The two reference functions below are the loops the pair search and the
deviation diagnostics ran before the kernel, kept verbatim as oracles.
"""

import math
import tracemalloc

import numpy as np
import pytest

from paclab import (
    DEFAULT_CONSTANTS,
    REASON_COMPLETED,
    CountTable,
    CoreTrace,
    DiscreteDistribution,
    FailureEventReport,
    HypothesisClass,
    IterationEvents,
    IterationRecord,
    RngStream,
    Schedule,
    TheoryConstants,
    deviation_bound,
    diagnose_failure_events,
    dsubset_adversary,
    enumerate_class,
    find_disagreeing_pair,
    measures,
    sample_dataset,
    train,
)
from paclab import engine


def reference_find_disagreeing_pair(klass, index_set, data, threshold):
    idx = np.unique(np.asarray(index_set, dtype=np.int64))
    if idx.size < 2:
        return None
    table = CountTable.of(data)
    if len(table) == 0:
        raise ValueError("empty sample set")
    rows = enumerate_class(klass).matrix[idx]
    point_counts = table.point_counts()
    n = len(table)
    for a in range(idx.size - 1):
        fractions = ((rows[a + 1 :] != rows[a]) @ point_counts) / n
        hits = np.flatnonzero(fractions >= threshold)
        if hits.size:
            return int(idx[a]), int(idx[a + 1 + hits[0]])
    return None


def _true_errors(matrix, dist):
    positive = matrix == 1
    return positive @ dist.mass[:, 0] + (~positive) @ dist.mass[:, 1]


def reference_diagnose_failure_events(trace, klass, dist, consts=None):
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

        empirical = kept.mistakes(cand_matrix) / m
        truth = _true_errors(cand_matrix, cond)
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
            marginal = cond.point_marginal()
            point_counts = kept.point_counts()
            best_excess = -math.inf
            for a in range(cand.size - 1):
                differs = cand_matrix[a + 1 :] != cand_matrix[a]
                true_rates = differs @ marginal
                empirical_rates = (differs @ point_counts) / m
                pair_devs = np.abs(empirical_rates - true_rates)
                pair_allow = deviation_bound(
                    effective_n,
                    trace.d,
                    trace.delta,
                    np.minimum(empirical_rates, true_rates),
                    consts,
                ) / 32.0
                pair_excess = pair_devs - pair_allow
                b = int(np.argmax(pair_excess))
                if pair_excess[b] > best_excess:
                    best_excess = float(pair_excess[b])
                    worst_pair = (int(cand[a]), int(cand[a + 1 + b]))
                    worst_pair_deviation = float(pair_devs[b])
                    worst_pair_allowance = float(pair_allow[b])
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


def assert_same_events(got, expected):
    """Identical flags, witnesses and hypothesis values; pair values to 1e-12."""
    assert len(got.iterations) == len(expected.iterations)
    for mine, ref in zip(got.iterations, expected.iterations):
        assert mine.worst_pair == ref.worst_pair
        assert mine.pair_event == ref.pair_event
        assert abs(mine.worst_pair_deviation - ref.worst_pair_deviation) <= 1e-12
        assert abs(mine.worst_pair_allowance - ref.worst_pair_allowance) <= 1e-12
        hypothesis_side = ("step", "sample_size", "tiny_sample", "hypothesis_event",
                           "worst_hypothesis", "worst_hypothesis_deviation",
                           "worst_hypothesis_allowance")
        for name in hypothesis_side:
            assert getattr(mine, name) == getattr(ref, name), name


def one_round_trace(kept, candidates, filter_half, d, selected=()):
    """A trace whose single round scored the given candidates on kept."""
    record = IterationRecord(1, len(kept), kept, 0.1, np.asarray(candidates), None)
    return CoreTrace(
        records=(record,),
        selected=tuple(selected),
        selected_indices=(),
        break_reason=REASON_COMPLETED,
        schedule=Schedule(1, 0.5),
        err_estimate=0.5,
        filter_half=filter_half,
        holdout_half=0,
        agree_side_size=0,
        disagree_side_size=0,
        agree_defaulted=False,
        disagree_defaulted=False,
        d=d,
        delta=0.1,
        consts=DEFAULT_CONSTANTS,
    )


def tied_instance(gen, max_rows=16, duplicates=True):
    """A random class, a kept table, and a dyadic distribution.

    Candidate indices are drawn with replacement, so unless duplicates is
    false the scored matrix has duplicate rows; every mass is a multiple of 1/64, so every
    disagreement mass is exact in any summation order and equal pairs tie
    exactly.
    """
    u = int(gen.integers(2, 7))
    rows = np.unique(gen.choice(np.array([-1, 1], dtype=np.int8), size=(max_rows, u)), axis=0)
    if rows.shape[0] < 2:
        rows = np.vstack([rows, -rows[0]])
    klass = HypothesisClass(rows)
    candidates = np.sort(gen.integers(0, len(klass), size=int(gen.integers(2, 25))))
    if not duplicates:
        candidates = np.unique(np.append(candidates, [0, len(klass) - 1]))
    mass = gen.multinomial(64, np.full(2 * u, 1.0 / (2 * u))).reshape(u, 2) / 64.0
    counts = gen.integers(0, 5, size=(u, 2))
    counts[0, 1] += 1
    filter_half = int(gen.integers(20, 5000))
    trace = one_round_trace(CountTable(counts), candidates, filter_half, int(gen.integers(1, 3)))
    return klass, DiscreteDistribution(mass), trace


def chunk_starts(k, cells):
    return [a0 for a0, _, _ in engine._pair_chunks(cells, lambda a0: k)]


class ScanSpy:
    """Records each worst-pair scan's rows, in the scan's order, and the
    (a0, a1, end) chunks whose bounds it forms."""

    def __init__(self, monkeypatch):
        self.scans = []
        blocks = engine._disagreement_blocks

        def recording(rows, weights, chunks):
            formed = []
            self.scans.append((rows, formed))

            def tee():
                for chunk in chunks:
                    formed.append(chunk)
                    yield chunk

            return blocks(rows, weights, tee())

        monkeypatch.setattr(engine, "_disagreement_blocks", recording)

    def cells(self):
        """Pair bounds formed over all scans, masked cells included."""
        return sum((a1 - a0) * (end - a0 - 1)
                   for _, formed in self.scans for a0, a1, end in formed)


def diagnostics_allowance(trace):
    """The allowance the diagnostics give a pair of a trace's rounds, and
    its floor."""
    n = trace.filter_half / trace.schedule.rounds

    def allowance(levels):
        return deviation_bound(n, trace.d, trace.delta, levels, trace.consts) / 32.0

    return allowance, deviation_bound(n, trace.d, trace.delta, 0.0, trace.consts) / 32.0


def ordered_worst_pair(rows, counts, marginal, allowance):
    """Every pair's exact excess, row by row in lexicographic order, with
    masses summed point by point: the largest excess, the first pair
    attaining it, and how many pairs attain it."""
    m = counts.sum()
    best, first, ties = -math.inf, None, 0
    for a in range(len(rows) - 1):
        differ = rows[a + 1 :] != rows[a]
        rates = (differ @ counts) / m
        masses = np.cumsum(np.where(differ, marginal, 0.0), axis=1)[:, -1]
        excess = np.abs(rates - masses) - allowance(np.minimum(rates, masses))
        top = float(excess.max())
        if top > best:
            best, ties = top, 0
            first = (a, a + 1 + int(np.argmax(excess)))
        ties += int(np.count_nonzero(excess == best))
    return best, first, ties


class TestKernel:
    def test_every_later_cell_is_the_exact_integer_disagreement(self):
        """Counts in the float64 product, and weights summing above 2**51,
        which take the int64 product."""
        gen = RngStream(31, 1).generator()
        for budget in (1, 5, 17, engine._PAIR_CHUNK_CELLS):
            for _ in range(20):
                k, u = int(gen.integers(2, 30)), int(gen.integers(1, 8))
                rows = gen.choice(np.array([-1, 1], dtype=np.int8), size=(k, u))
                rows[-1] = rows[0]
                for weights, dtype in ((gen.integers(0, 10**9, size=u), np.float64),
                                       (gen.integers(2**51, 2**52, size=u), np.int64)):
                    seen = []
                    for a0, block in engine.pair_disagreements(rows, weights, budget):
                        assert block.dtype == dtype
                        assert block.shape[1] == k - a0 - 1
                        assert block.shape[0] == 1 or block.size <= budget
                        later = np.arange(block.shape[1]) >= np.arange(block.shape[0])[:, None]
                        assert (block[~later] < 0).all()
                        for i, j in zip(*np.nonzero(later)):
                            a, b = a0 + i, a0 + 1 + j
                            assert block[i, j] == int((rows[a] != rows[b]) @ weights)
                            seen.append((a, b))
                    assert seen == [(a, b) for a in range(k) for b in range(a + 1, k)]


class TestDiagnosticsMatchTheLoop:
    @pytest.mark.parametrize("seed", [823, 4242])
    def test_filter_diagnose_regime_traces(self, seed):
        """Seed 4242's trials 0 and 7 have exactly tied worst pairs."""
        fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
        consts = TheoryConstants(exit_scale=1e-3)
        pairs_scored = 0
        for trial in range(20):
            data = sample_dataset(fixture.distribution, 30_000, RngStream(seed, 1 + trial))
            result = train(data, fixture.klass, fixture.vc_dim, 0.1, consts)
            got = diagnose_failure_events(result.trace, fixture.klass, fixture.distribution)
            expected = reference_diagnose_failure_events(
                result.trace, fixture.klass, fixture.distribution
            )
            assert_same_events(got, expected)
            pairs_scored += sum(
                r.candidates.size * (r.candidates.size - 1) // 2
                for r in result.trace.records
                if r.candidates is not None
            )
        assert pairs_scored > 100_000

    def test_random_tables_with_duplicate_rows(self):
        gen = RngStream(32, 1).generator()
        for _ in range(200):
            klass, dist, trace = tied_instance(gen)
            got = diagnose_failure_events(trace, klass, dist)
            assert_same_events(got, reference_diagnose_failure_events(trace, klass, dist))

    def test_a_round_of_one_sample(self):
        gen = RngStream(37, 1).generator()
        fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
        cases = [tied_instance(gen) for _ in range(50)]
        cases.append((fixture.klass, fixture.distribution, None))
        for klass, dist, trace in cases:
            counts = np.zeros((klass.domain_size, 2), dtype=np.int64)
            counts[int(gen.integers(klass.domain_size)), int(gen.integers(2))] = 1
            if trace is None:
                candidates = np.sort(gen.choice(len(klass), size=300, replace=False))
            else:
                candidates = trace.records[0].candidates
            trace = one_round_trace(CountTable(counts), candidates, 900, 3)
            got = diagnose_failure_events(trace, klass, dist)
            assert got.iterations[0].sample_size == 1 and got.iterations[0].tiny_sample
            assert_same_events(got, reference_diagnose_failure_events(trace, klass, dist))


class TestScanSoundness:
    """No pair the scan prunes has a larger exact excess than its winner."""

    @staticmethod
    def _check(rows, counts, marginal, allowance, floor):
        scored = []

        def counted(levels):
            scored.append(levels.size)
            return allowance(levels)

        a, b, deviation, allowed, excess = engine.worst_deviating_pair(
            rows, counts, marginal, counted, floor
        )
        best, first, ties = ordered_worst_pair(rows, counts, marginal, allowance)
        assert (a, b) == first
        assert excess == best
        differ = rows[a] != rows[b]
        assert deviation - allowed == excess
        assert deviation == abs(
            int(differ @ counts) / counts.sum() - np.cumsum(np.where(differ, marginal, 0.0))[-1]
        )
        return sum(scored), ties

    def test_tied_instances(self):
        gen = RngStream(38, 1).generator()
        tied = 0
        for flat in (False, True):
            for _ in range(150):
                klass, dist, trace = tied_instance(gen, max_rows=40)
                allowance, floor = diagnostics_allowance(trace)
                if flat:
                    # Every allowance at the floor: the bar is as tight as it gets.
                    allowance = lambda levels, floor=floor: np.full(levels.shape, floor)
                rows = enumerate_class(klass).matrix[trace.records[0].candidates]
                kept = trace.records[0].kept
                _, ties = self._check(rows, kept.point_counts(), dist.point_marginal(),
                                      allowance, floor)
                tied += ties > 1
        assert tied > 0

    @pytest.mark.parametrize("trial", [0, 7])
    def test_tied_filter_rounds(self, trial):
        """Seed 4242's first rounds of trials 0 and 7 tie exactly between
        several worst pairs."""
        fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
        data = sample_dataset(fixture.distribution, 30_000, RngStream(4242, 1 + trial))
        consts = TheoryConstants(exit_scale=1e-3)
        trace = train(data, fixture.klass, fixture.vc_dim, 0.1, consts).trace
        record = trace.records[0]
        allowance, floor = diagnostics_allowance(trace)
        rows = enumerate_class(fixture.klass).matrix[record.candidates]
        _, ties = self._check(rows, record.kept.point_counts(),
                              fixture.distribution.point_marginal(), allowance, floor)
        assert ties > 1

    @pytest.mark.parametrize("n, conditioned", [(1_250, False), (30_000, True)])
    def test_full_class_rounds(self, n, conditioned, monkeypatch):
        """Few pairs are scored exactly, and the row bound leaves few pair
        bounds to form."""
        fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
        klass = fixture.klass
        rows = enumerate_class(klass).matrix
        assert len(rows) == 4060
        dist = fixture.distribution
        selected = ()
        if conditioned:
            selected = ((klass.hypothesis(0), klass.hypothesis(4059)),)
            dist = measures.condition_on_agreement(dist, selected).conditional
        kept = CountTable.of(sample_dataset(dist, n, RngStream(39, n)))
        trace = one_round_trace(kept, np.arange(len(rows)), 30_000, 3, selected)
        allowance, floor = diagnostics_allowance(trace)
        spy = ScanSpy(monkeypatch)
        scored, _ = self._check(rows, kept.point_counts(), dist.point_marginal(),
                                allowance, floor)
        assert scored < 4060 * 4059 // 2 // 100
        assert spy.cells() < 4060 * 4059 // 2 * 5 // 100


class TestChunkBoundaries:
    """Tiny chunk budgets put the answers on both sides of chunk boundaries."""

    @staticmethod
    def _boundary_sides(starts, row):
        """Whether row is the first row of a later chunk, whether it is the
        last row of a chunk that has a successor, and whether it lies in a
        later chunk than the first, given the chunks' first rows."""
        later_starts = starts[1:]
        return row in later_starts, row + 1 in later_starts, row >= min(later_starts, default=row + 1)

    def test_pair_search(self, monkeypatch):
        gen = RngStream(33, 1).generator()
        sides = [0, 0]
        for budget in (1, 7, 20, 45):
            monkeypatch.setattr(engine, "_PAIR_CHUNK_CELLS", budget)
            for _ in range(150):
                klass, _, trace = tied_instance(gen, max_rows=40, duplicates=False)
                index_set = trace.records[0].candidates
                kept = trace.records[0].kept
                threshold = float(gen.uniform(0.05, 0.9))
                got = find_disagreeing_pair(klass, index_set, kept, threshold)
                assert got == reference_find_disagreeing_pair(klass, index_set, kept, threshold)
                if got is not None:
                    row = int(np.searchsorted(index_set, got[0]))
                    starts = chunk_starts(index_set.size, budget)
                    first, last, _ = self._boundary_sides(starts, row)
                    sides[0] += first
                    sides[1] += last
        assert min(sides) > 0, sides

    def test_diagnostics(self, monkeypatch):
        """The scan's own chunks, in the scan's row order: the worst pair's
        first row in that order on both sides of a boundary, and in a later
        chunk than the first."""
        gen = RngStream(34, 1).generator()
        spy = ScanSpy(monkeypatch)
        sides = [0, 0, 0]
        for budget in (1, 7, 20, 45):
            monkeypatch.setattr(engine, "_SCAN_CHUNK_CELLS", budget)
            for _ in range(150):
                klass, dist, trace = tied_instance(gen, max_rows=40, duplicates=False)
                spy.scans.clear()
                got = diagnose_failure_events(trace, klass, dist)
                expected = reference_diagnose_failure_events(trace, klass, dist)
                assert_same_events(got, expected)
                (scanned, formed), = spy.scans
                # The candidates are distinct rows: find each of the pair's.
                worst = enumerate_class(klass).matrix[list(got.iterations[0].worst_pair)]
                row = min(int(np.flatnonzero((scanned == labels).all(axis=1))[0]) for labels in worst)
                starts = [a0 for a0, _, _ in formed]
                for n, side in enumerate(self._boundary_sides(starts, row)):
                    sides[n] += side
        assert min(sides) > 0, sides


def double_loop_pair(klass, index_set, table, threshold):
    """The pair search as a plain lexicographic double loop over points."""
    idx = sorted({int(i) for i in index_set})
    matrix = enumerate_class(klass).matrix
    counts = table.point_counts()
    for p, a in enumerate(idx):
        for b in idx[p + 1 :]:
            differing = sum(
                int(counts[x]) for x in range(klass.domain_size) if matrix[a, x] != matrix[b, x]
            )
            if differing / len(table) >= threshold:
                return a, b
    return None


def test_pair_search_matches_the_double_loop(monkeypatch):
    """Thresholds set exactly at, just above and just below a pair's
    fraction put the answer in the first row, in a later row, or nowhere."""
    gen = RngStream(36, 1).generator()
    outcomes = {"first_row": 0, "later_row": 0, "none": 0, "tie": 0}
    for budget in (1, 7, engine._PAIR_CHUNK_CELLS):
        monkeypatch.setattr(engine, "_PAIR_CHUNK_CELLS", budget)
        for _ in range(200):
            u = int(gen.integers(1, 8))
            rows = np.unique(
                gen.choice(np.array([-1, 1], dtype=np.int8), size=(int(gen.integers(2, 25)), u)),
                axis=0,
            )
            klass = HypothesisClass(rows)
            index_set = gen.choice(len(klass), size=int(gen.integers(1, len(klass) + 1)))
            table = CountTable(gen.integers(0, 5, size=(u, 2)))
            if len(table) == 0 or np.unique(index_set).size < 2:
                continue
            pair = gen.choice(np.unique(index_set), size=2, replace=False)
            if gen.random() < 0.3:
                pair[0] = index_set.min()
            fraction = int((rows[pair[0]] != rows[pair[1]]) @ table.point_counts()) / len(table)
            threshold = [
                fraction,
                np.nextafter(fraction, np.inf),
                np.nextafter(fraction, -np.inf),
                float(gen.uniform(0.0, 1.2)),
            ][int(gen.integers(4))]
            got = find_disagreeing_pair(klass, index_set, table, threshold)
            assert got == double_loop_pair(klass, index_set, table, threshold)
            if got is None:
                outcomes["none"] += 1
                continue
            outcomes["first_row" if got[0] == index_set.min() else "later_row"] += 1
            got_fraction = int((rows[got[0]] != rows[got[1]]) @ table.point_counts()) / len(table)
            outcomes["tie"] += int(got_fraction == threshold)
    assert min(outcomes.values()) > 0, outcomes


def test_diagnostics_on_the_full_class_allocate_no_square_array():
    """Scoring all 4060 rows of dsubset(u=30, d=3) stays far below the
    132 MB of one k x k float64 array (or the 16.5 MB of a boolean one)."""
    fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
    k = len(enumerate_class(fixture.klass))
    assert k == 4060
    kept = CountTable.of(sample_dataset(fixture.distribution, 30_000, RngStream(35, 1)))
    trace = one_round_trace(kept, np.arange(k), 30_000, 3)
    tracemalloc.start()
    try:
        report = diagnose_failure_events(trace, fixture.klass, fixture.distribution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations[0].worst_pair is not None
    assert peak < 16 * 2**20, peak


def test_pair_search_on_the_full_class_allocates_no_square_array():
    """Searching all 4060 rows of dsubset(u=30, d=3) with a threshold no
    pair meets reads every pair, and stays far below the 132 MB of one
    k x k float64 array (or the 16.5 MB of a boolean one)."""
    fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
    k = len(enumerate_class(fixture.klass))
    assert k == 4060
    kept = CountTable.of(sample_dataset(fixture.distribution, 30_000, RngStream(35, 1)))
    tracemalloc.start()
    try:
        pair = find_disagreeing_pair(fixture.klass, np.arange(k), kept, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair is None
    assert peak < 16 * 2**20, peak
