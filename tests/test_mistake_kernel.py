"""The class mistake kernel against a plain integer reference.

CountTable.mistakes scores a HypothesisClass one row chunk of its label
matrix at a time, casting the chunk's +1 entries to float64, or to int64
for a table of 2**53 samples or more. Either way it must give the exact
integers of (matrix == 1) @ (neg - pos) + pos.sum(), and its working memory
must stay about one chunk.
"""

import tracemalloc

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
    erm_many,
    find_disagreeing_pair,
    measures,
    near_optimal_set,
)
from paclab import core

CHUNKINGS = ("whole", "chunked")


@pytest.fixture(params=CHUNKINGS)
def chunking(request, monkeypatch):
    """Run a test with the default chunks, and with chunks of a few cells."""
    if request.param == "chunked":
        monkeypatch.setattr(core, "_KERNEL_CHUNK_CELLS", 7)
    return request.param


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
    def test_random_classes_and_tables(self, chunking, high):
        gen = RngStream(71, high).generator()
        for _ in range(200):
            klass = random_class(gen)
            counts = random_counts(gen, klass.domain_size, high)
            expected = reference_mistakes(klass.matrix, counts)
            got = CountTable(counts).mistakes(klass)
            assert got.dtype == np.int64
            assert got.tolist() == expected.tolist()

    def test_erm_and_near_optimal_set(self, chunking):
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

    def test_exact_negatives_family(self, chunking):
        klass = HypothesisClass.with_exact_negatives(12, 3)
        counts = random_counts(RngStream(73, 1).generator(), 12, 10**9)
        expected = reference_mistakes(enumerate_class(klass).matrix, counts)
        assert CountTable(counts).mistakes(klass).tolist() == expected.tolist()

    def test_selected_rows_score_as_the_class_members_they_select(self, chunking):
        """The diagnostics score their candidates as the rows they select
        from the class's label matrix; each row pays what its member pays."""
        gen = RngStream(74, 1).generator()
        for _ in range(100):
            klass = random_class(gen)
            table = CountTable(random_counts(gen, klass.domain_size, 10**9))
            index = gen.integers(0, len(klass), size=int(gen.integers(1, 9)))
            got = table.mistakes(klass.matrix[index])
            assert got.shape == index.shape
            assert got.tolist() == table.mistakes(klass)[index].tolist()

    def test_a_table_beyond_float_precision_takes_the_integer_product(self):
        klass = HypothesisClass(np.array([[1, -1, 1], [-1, -1, 1], [1, 1, -1]], dtype=np.int8))
        counts = np.array([[2**53 + 1, 3], [5, 2**53 + 7], [1, 1]])
        expected = reference_mistakes(klass.matrix, counts)
        assert CountTable(counts).mistakes(klass).tolist() == expected.tolist()

    @pytest.mark.parametrize("high", [5, 10**9, 2**55])
    def test_label_vectors_and_indexed_matrices(self, chunking, high):
        """Vectors and label matrices of selected class rows go through the
        same row chunks as a class, on both the float64 and the int64
        product."""
        gen = RngStream(77, high).generator()
        for _ in range(100):
            klass = random_class(gen)
            counts = random_counts(gen, klass.domain_size, high)
            table = CountTable(counts)
            index = gen.integers(0, len(klass), size=int(gen.integers(0, 60)))
            expected = reference_mistakes(klass.matrix[index], counts)
            got = table.mistakes(klass.matrix[index])
            assert got.dtype == np.int64
            assert got.tolist() == expected.tolist()
            for row, want in zip(klass.matrix[index], expected.tolist()):
                assert table.mistakes(row) == want


def index_boundary_case():
    klass = HypothesisClass(np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8))
    table = CountTable(np.ones((2, 2), dtype=np.int64))
    return klass, table


class TestIndexBoundary:
    """The pair search takes member indices that are integers inside the
    class and nothing else: a negative index would wrap to a member, a
    float would be truncated to one, and one past the end would raise a
    bare IndexError."""

    @pytest.mark.parametrize("index", [[-1], [4], [0, 4], [0.9, 2.7]])
    def test_bad_indices_are_rejected(self, index):
        klass, table = index_boundary_case()
        with pytest.raises(ValueError, match="indices"):
            find_disagreeing_pair(klass, index, table, 0.0)

    def test_an_empty_index_is_valid(self):
        klass, table = index_boundary_case()
        assert find_disagreeing_pair(klass, [], table, 0.0) is None

    def test_valid_indices_still_score(self):
        klass, table = index_boundary_case()
        assert find_disagreeing_pair(klass, [0, 2], table, 0.0) == (0, 2)


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
    def test_empirical_errors_match_the_integer_reference(self, chunking):
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
    def test_class_rows_equal_matrix_rows_bit_for_bit(self, chunking):
        gen = RngStream(75, 1).generator()
        for _ in range(100):
            klass = random_class(gen)
            mass = gen.random((klass.domain_size, 2))
            dist = DiscreteDistribution(mass / mass.sum())
            assert np.array_equal(
                measures.row_errors(klass, dist), measures.row_errors(klass.matrix, dist)
            )

    def test_selected_rows_equal_the_class_members_they_select(self):
        """The diagnostics read their candidates' true errors off the rows
        they select; each row's error is its member's. The mass product may
        sum in another order for fewer rows, so only to rounding."""
        gen = RngStream(78, 1).generator()
        for _ in range(100):
            klass = random_class(gen)
            mass = gen.random((klass.domain_size, 2))
            dist = DiscreteDistribution(mass / mass.sum())
            index = gen.integers(0, len(klass), size=int(gen.integers(1, 9)))
            np.testing.assert_allclose(
                measures.row_errors(klass.matrix[index], dist),
                measures.row_errors(klass, dist)[index],
                rtol=0.0,
                atol=1e-12,
            )


def test_a_large_class_is_scored_in_about_one_chunk_of_memory():
    """Scoring all 67,525 rows of u = 75, d = 3 holds the output and about
    one chunk, far below the 40 MB of a float64 copy of the class's labels."""
    klass = enumerate_class(HypothesisClass.with_exact_negatives(75, 3))
    gen = RngStream(76, 1).generator()
    tables = [CountTable(gen.integers(0, 50, size=(75, 2))) for _ in range(16)]
    tracemalloc.start()
    try:
        paid = tables[0].mistakes(klass)
        best = erm_many(klass, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = reference_mistakes(klass.matrix, tables[0].counts)
    assert paid.tolist() == expected.tolist()
    assert best[0] == (int(np.argmin(expected)), int(expected.min()) / len(tables[0]))
    assert peak < 4 * 2**20, peak
