"""The class mistake kernel against the integer product it replaced.

CountTable.mistakes scores a HypothesisClass in float64 through the class's
cached +1 indicator, or through the integer product over its label matrix
when the shared indicator budget cannot hold the class. Both must give the
exact integers of (matrix == 1) @ (neg - pos) + pos.sum().
"""

import gc
import threading

import numpy as np
import pytest

from paclab import (
    DEFAULT_CONSTANTS,
    REASON_COMPLETED,
    CountTable,
    CoreTrace,
    DiscreteDistribution,
    HypothesisClass,
    IterationRecord,
    RngStream,
    Schedule,
    deviation_bound,
    diagnose_failure_events,
    enumerate_class,
    erm,
    measures,
    near_optimal_set,
)
from paclab import core

BUDGETS = ("cached", "chunked", "matrix")


@pytest.fixture(params=BUDGETS)
def budget(request, monkeypatch):
    """Run a test with the indicator cached, cached and multiplied in chunks
    of a few cells, and with the budget full so every class reads its
    label matrix."""
    if request.param == "chunked":
        monkeypatch.setattr(core, "_KERNEL_CHUNK_CELLS", 7)
    if request.param == "matrix":
        monkeypatch.setattr(core, "_INDICATOR_BUDGET_CELLS", 0)
    return request.param


def room_for(monkeypatch, cells):
    """Leave exactly `cells` free in the shared indicator budget."""
    monkeypatch.setattr(core, "_INDICATOR_BUDGET_CELLS", core._indicator_cells + cells)


def reference_mistakes(matrix, counts):
    neg, pos = counts[:, 0], counts[:, 1]
    return (matrix == 1) @ (neg - pos) + pos.sum()


def random_class(gen, max_rows=40, max_u=9):
    u = int(gen.integers(1, max_u))
    rows = gen.choice(np.array([-1, 1], dtype=np.int8), size=(int(gen.integers(1, max_rows)), u))
    return HypothesisClass(np.unique(rows, axis=0))


def random_counts(gen, u, high):
    counts = gen.integers(0, high, size=(u, 2))
    counts[0, 1] += 1
    return counts


class TestExactCounts:
    @pytest.mark.parametrize("high", [5, 10**9])
    def test_random_classes_and_tables(self, budget, high):
        gen = RngStream(71, high).generator()
        for _ in range(200):
            klass = random_class(gen)
            counts = random_counts(gen, klass.domain_size, high)
            expected = reference_mistakes(klass.matrix, counts)
            got = CountTable(counts).mistakes(klass)
            assert got.dtype == np.int64
            assert got.tolist() == expected.tolist()

    def test_erm_and_near_optimal_set(self, budget):
        gen = RngStream(72, 1).generator()
        for _ in range(200):
            klass = random_class(gen)
            counts = random_counts(gen, klass.domain_size, int(gen.choice([3, 10**9])))
            table = CountTable(counts)
            expected = reference_mistakes(klass.matrix, counts)
            n = len(table)
            best = int(np.argmin(expected))
            assert erm(klass, table) == (best, int(expected[best]) / n)
            gamma = int(expected[best]) / n
            allowance = float(gen.random()) * 0.2
            assert near_optimal_set(klass, table, gamma, allowance).tolist() == (
                np.flatnonzero(expected / n <= gamma + allowance).tolist()
            )

    def test_exact_negatives_family(self, budget):
        klass = HypothesisClass.with_exact_negatives(12, 3)
        counts = random_counts(RngStream(73, 1).generator(), 12, 10**9)
        expected = reference_mistakes(enumerate_class(klass).matrix, counts)
        assert CountTable(counts).mistakes(klass).tolist() == expected.tolist()

    def test_a_table_beyond_float_precision_takes_the_integer_product(self):
        klass = HypothesisClass(np.array([[1, -1, 1], [-1, -1, 1], [1, 1, -1]], dtype=np.int8))
        counts = np.array([[2**53 + 1, 3], [5, 2**53 + 7], [1, 1]])
        expected = reference_mistakes(klass.matrix, counts)
        assert CountTable(counts).mistakes(klass).tolist() == expected.tolist()


def one_round_trace(kept, candidates, filter_half):
    record = IterationRecord(1, len(kept), kept, 0.1, np.asarray(candidates), None)
    return CoreTrace(
        records=(record,),
        selected=(),
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
        d=2,
        delta=0.1,
        consts=DEFAULT_CONSTANTS,
    )


class TestDiagnostics:
    def test_empirical_errors_match_the_integer_reference(self, budget):
        gen = RngStream(74, 1).generator()
        for _ in range(100):
            klass = random_class(gen)
            u = klass.domain_size
            counts = random_counts(gen, u, int(gen.choice([4, 10**9])))
            kept = CountTable(counts)
            candidates = np.unique(gen.integers(0, len(klass), size=int(gen.integers(1, 12))))
            mass = gen.random((u, 2))
            dist = DiscreteDistribution(mass / mass.sum())
            filter_half = int(gen.integers(20, 10**6))
            report = diagnose_failure_events(
                one_round_trace(kept, candidates, filter_half), klass, dist
            )

            cand_matrix = klass.matrix[candidates]
            empirical = reference_mistakes(cand_matrix, counts) / len(kept)
            positive = cand_matrix == 1
            truth = positive @ dist.mass[:, 0] + (~positive) @ dist.mass[:, 1]
            deviations = np.abs(empirical - truth)
            allowances = deviation_bound(
                filter_half, 2, 0.1, np.minimum(empirical, truth), DEFAULT_CONSTANTS
            ) / 32.0
            worst = int(np.argmax(deviations - allowances))
            (events,) = report.iterations
            assert events.worst_hypothesis == int(candidates[worst])
            assert events.worst_hypothesis_deviation == float(deviations[worst])
            assert events.worst_hypothesis_allowance == float(allowances[worst])
            assert events.hypothesis_event == bool(deviations[worst] - allowances[worst] > 0)


class TestRowErrors:
    def test_class_rows_equal_matrix_rows_bit_for_bit(self, budget):
        gen = RngStream(75, 1).generator()
        for _ in range(100):
            klass = random_class(gen)
            mass = gen.random((klass.domain_size, 2))
            dist = DiscreteDistribution(mass / mass.sum())
            index = gen.integers(0, len(klass), size=int(gen.integers(1, 9)))
            matrix = klass.matrix
            assert np.array_equal(
                measures.row_errors(klass, dist), measures.row_errors(matrix, dist)
            )
            assert np.array_equal(
                measures.row_errors(klass, dist, index), measures.row_errors(matrix[index], dist)
            )


class TestIndicatorCache:
    def test_built_once_read_only_and_kept(self, monkeypatch):
        klass = HypothesisClass.with_exact_negatives(8, 2)
        room_for(monkeypatch, len(klass) * 8)
        assert klass._positive is None
        table = CountTable(np.ones((8, 2), dtype=np.int64))
        erm(klass, table)
        indicator = klass._positive
        assert indicator is not None and indicator.dtype == np.float64
        assert not indicator.flags.writeable
        with pytest.raises(ValueError):
            indicator[0, 0] = 0.0
        assert np.array_equal(indicator, klass.matrix == 1)
        near_optimal_set(klass, table, 0.5, 0.1)
        measures.row_errors(klass, DiscreteDistribution(np.full((8, 2), 1 / 16)))
        assert klass._positive is indicator
        assert klass.positive_rows() is indicator

    def test_absent_above_the_budget(self, monkeypatch):
        klass = HypothesisClass.with_exact_negatives(8, 2)
        room_for(monkeypatch, len(klass) * 8 - 1)
        table = CountTable(np.arange(16, dtype=np.int64).reshape(8, 2))
        index, _ = erm(klass, table)
        measures.row_errors(klass, DiscreteDistribution(np.full((8, 2), 1 / 16)))
        assert klass._positive is None
        assert klass.positive_rows() is None
        expected = reference_mistakes(klass.matrix, table.counts)
        assert index == int(np.argmin(expected))

    def test_the_budget_is_shared_and_returned_on_collection(self, monkeypatch):
        first = HypothesisClass.with_exact_negatives(8, 2)
        second = HypothesisClass.with_exact_negatives(8, 2)
        cells = len(first) * 8
        room_for(monkeypatch, cells)
        held = core._indicator_cells
        assert first.positive_rows() is not None
        assert core._indicator_cells == held + cells
        assert second.positive_rows() is None
        del first
        gc.collect()
        assert core._indicator_cells == held
        assert second.positive_rows() is not None
        assert core._indicator_cells == held + cells

    def test_racing_threads_build_one_copy(self, monkeypatch):
        klass = HypothesisClass.with_exact_negatives(12, 3)
        klass.matrix
        room_for(monkeypatch, 2 * len(klass) * 12)
        held = core._indicator_cells
        barrier = threading.Barrier(4)
        seen = []

        def claim():
            barrier.wait()
            seen.append(klass.positive_rows())

        threads = [threading.Thread(target=claim) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(indicator is seen[0] for indicator in seen)
        assert core._indicator_cells == held + len(klass) * 12
