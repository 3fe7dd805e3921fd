"""The exact-negatives class scored by its negatives index.

A member of HypothesisClass.with_exact_negatives(u, d) with negative points
S pays Σc₋ + Σ_{x∈S}(c₊ − c₋)(x) on a table, so ERM takes the d lowest
scores, tied scores lowest point first, and a whole class's mistakes are d
column takes of the scores. Every count and index must equal the mistake
kernel's (core._mistake_products) on the class's label matrix, member
rows must equal the matrix's rows, and none of the class's training path
may build the matrix. Its errors against a mass table take the same closed
form in masses and must equal the mass product to rounding, without the
matrix.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from paclab import (
    AdversaryInstance,
    CountTable,
    DiscreteDistribution,
    HypothesisClass,
    RngStream,
    SamplePieces,
    Schedule,
    TheoryConstants,
    build_distribution,
    deviation_bound,
    enumerate_class,
    erm,
    erm_many,
    exact_progress_report,
    least_frequent_learner,
    near_optimal_set,
    train,
)
from paclab import measures, runner
from paclab.config import parse_config_text
from paclab.core import _member_rows
from paclab.experts import _diagnostic_allowance
from paclab.fixtures import Fixture, dsubset_adversary

from test_mistake_kernel import one_round_trace

SHAPES = [(u, d) for u in range(2, 13) for d in range(1, min(u, 4))]


def as_matrix_class(klass):
    """The same members as a plain label matrix, which takes the mistake
    kernel's product path."""
    return HypothesisClass(enumerate_class(HypothesisClass.with_exact_negatives(
        klass.domain_size, klass.declared_vc)).matrix)


def random_tables(gen, u, count):
    """count tables: small counts, so scores tie often, with zero-count
    points, and some tables whose counts cancel to all-equal scores."""
    tables = []
    for _ in range(count):
        counts = gen.integers(0, int(gen.choice([2, 4, 1000])), size=(u, 2))
        counts[gen.random(u) < 0.3] = 0
        if gen.random() < 0.2:
            counts[:, 1] = counts[:, 0]
        counts[0, 0] += 1
        tables.append(CountTable(counts))
    return tables


class TestClosedForms:
    @pytest.mark.parametrize("enumerated", [False, True])
    @pytest.mark.parametrize("u, d", SHAPES)
    def test_erm_and_mistakes_equal_the_matrix_kernel(self, u, d, enumerated):
        gen = RngStream(2801, u * 10 + d).generator()
        klass = HypothesisClass.with_exact_negatives(u, d)
        if enumerated:
            enumerate_class(klass)
        plain = as_matrix_class(klass)
        for _ in range(20):
            tables = random_tables(gen, u, int(gen.integers(1, 17)))
            assert erm_many(klass, tables) == erm_many(plain, tables)
            for table in tables:
                got = table.mistakes(klass)
                assert got.dtype == np.int64
                assert got.tolist() == table.mistakes(plain).tolist()
        assert klass.is_enumerated == enumerated

    def test_all_scores_tied_takes_the_first_member(self):
        klass = HypothesisClass.with_exact_negatives(9, 3)
        counts = np.full((9, 2), 5)
        assert erm_many(klass, [CountTable(counts)]) == [(0, 45 / 90)]

    def test_ties_break_toward_the_lowest_rank(self):
        """Points 2, 4 and 6 share the lowest score; point 1 the next. The
        two lowest are 2 and 4, member {2, 4} of the lexicographic order."""
        counts = np.full((8, 2), 3)
        counts[[2, 4, 6], 0] = 9
        counts[1, 0] = 6
        klass = HypothesisClass.with_exact_negatives(8, 2)
        (index, error), = erm_many(klass, [CountTable(counts)])
        assert klass.hypothesis(index).labels.tolist() == [1, 1, -1, 1, -1, 1, 1, 1]
        assert erm_many(as_matrix_class(klass), [CountTable(counts)]) == [(index, error)]

    @pytest.mark.parametrize("u, d", [(5, 2), (7, 3)])
    def test_tables_of_2_to_the_53_samples_or_more(self, u, d):
        gen = RngStream(2802, u).generator()
        klass = HypothesisClass.with_exact_negatives(u, d)
        plain = as_matrix_class(klass)
        counts = gen.integers(0, 9, size=(u, 2))
        counts[1, 0] = 2**53 + 3
        counts[3, 1] = 2**53 + 1
        table = CountTable(counts)
        assert len(table) >= 2**53
        assert table.mistakes(klass).tolist() == table.mistakes(plain).tolist()
        tables = [table] + random_tables(gen, u, 3)
        assert erm_many(klass, tables) == erm_many(plain, tables)
        assert erm_many(klass, tables)[0][0] == int(np.argmin(table.mistakes(plain)))

    def test_near_optimal_set_equals_the_matrix_kernel(self):
        gen = RngStream(2803, 1).generator()
        klass = HypothesisClass.with_exact_negatives(12, 3)
        plain = as_matrix_class(klass)
        for table in random_tables(gen, 12, 50):
            gamma = erm_many(klass, [table])[0][1]
            allowance = float(gen.random()) * 0.1
            assert (near_optimal_set(klass, table, gamma, allowance).tolist()
                    == near_optimal_set(plain, table, gamma, allowance).tolist())
        assert not klass.is_enumerated

    @pytest.mark.parametrize("u, d", [(5, 2), (8, 3), (13, 1), (20, 2), (40, 3)])
    def test_the_least_frequent_learner_is_erm_on_all_positive_tables(self, u, d):
        """With only +1 labels each score is a point's count, so ERM labels
        the d least-sampled points negative, ties lowest point first: the
        adversary's learner."""
        gen = RngStream(2901, u).generator()
        klass = HypothesisClass.with_exact_negatives(u, d)
        instance = AdversaryInstance(u, d, 0.0, 0)
        for _ in range(60):
            counts = np.zeros((u, 2), dtype=np.int64)
            counts[:, 1] = gen.integers(0, int(gen.choice([2, 3, 6])), size=u)
            counts[0, 1] += 1
            table = CountTable(counts)
            expected = klass.hypothesis(erm(klass, table)[0]).labels
            assert least_frequent_learner(table, instance).labels.tolist() == expected.tolist()
        assert not klass.is_enumerated


class TestMassTableErrors:
    @staticmethod
    def random_dist(gen, u):
        """A unit-mass table with zero cells, some of them whole points."""
        mass = gen.random((u, 2))
        mass[gen.random((u, 2)) < 0.3] = 0.0
        mass[0, 1] += 0.5
        return DiscreteDistribution(mass / mass.sum())

    @pytest.mark.parametrize("enumerated", [False, True])
    def test_errors_equal_the_mass_product_to_rounding(self, enumerated):
        gen = RngStream(2902, int(enumerated)).generator()
        for _ in range(300):
            u = int(gen.integers(2, 40))
            d = int(gen.integers(1, min(u, 4)))
            klass = HypothesisClass.with_exact_negatives(u, d)
            if enumerated:
                enumerate_class(klass)
            dist = self.random_dist(gen, u)
            got = measures.row_errors(klass, dist)
            product = measures.row_errors(as_matrix_class(klass), dist)
            assert got.shape == product.shape and got.dtype == np.float64
            np.testing.assert_allclose(got, product, rtol=0.0, atol=1e-15)
            assert abs(got.min() - product.min()) <= 1e-15
            assert klass.is_enumerated == enumerated

    def test_a_class_past_the_row_cap_is_refused(self):
        klass = HypothesisClass.with_exact_negatives(1415, 2)
        dist = DiscreteDistribution(np.full((1415, 2), 1 / 2830))
        with pytest.raises(ValueError, match="enumeration cap"):
            measures.row_errors(klass, dist)

    def test_the_progress_report_at_the_row_cap_builds_no_matrix(self):
        """u = 1414, d = 2 has 998,991 members, the most under the row cap.
        Its label matrix would take 1.4 GB and the mass product's float
        casts about 14 GB; the report, the members and the 16 MB negatives
        index they are read from stay within 64 MB together. Any
        two members differ on at least two points, which the first pair's
        conditional leaves without mass, so the optimum there is zero."""
        u = 1414
        instance = AdversaryInstance(u, 2, 0.5, 123_456)
        dist = build_distribution(instance)
        tracemalloc.start()
        try:
            klass = HypothesisClass.with_exact_negatives(u, 2)
            pairs = [(klass.hypothesis(i), klass.hypothesis(j)) for i, j in [(0, 1), (5_000, 777_777)]]
            trace = dataclasses.replace(
                one_round_trace(CountTable(np.ones((3, 2), dtype=np.int64)), [0], 1),
                selected=tuple(pairs), selected_indices=((0, 1), (5_000, 777_777)),
            )
            report = exact_progress_report(trace, klass, dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak
        assert not klass.is_enumerated
        assert abs(report.base_error - instance.opt_error) <= 1e-15
        assert [r.best_conditional_error for r in report.records] == [report.base_error, 0.0, 0.0]


class TestMemberRows:
    @pytest.mark.parametrize("u, d", [(6, 2), (9, 3), (12, 1)])
    def test_rows_equal_the_matrix_rows(self, u, d):
        gen = RngStream(2804, u).generator()
        lazy = HypothesisClass.with_exact_negatives(u, d)
        matrix = enumerate_class(HypothesisClass.with_exact_negatives(u, d)).matrix
        indices = [
            np.arange(len(lazy)),
            gen.permutation(len(lazy)),
            gen.integers(0, len(lazy), size=40),
            np.array([3, 3, 0, 3], dtype=np.intp),
            [len(lazy) - 1, 0],
            slice(2, 9),
            slice(None),
        ]
        for index in indices:
            got = _member_rows(lazy, index)
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, matrix[index])
        for i in range(len(lazy)):
            np.testing.assert_array_equal(_member_rows(lazy, i), matrix[i])
        assert not lazy.is_enumerated

    def test_hypotheses_keep_their_labels(self):
        for u, d in [(7, 1), (8, 3), (10, 2)]:
            lazy = HypothesisClass.with_exact_negatives(u, d)
            enumerated = enumerate_class(HypothesisClass.with_exact_negatives(u, d))
            for i, negatives in enumerate(itertools.combinations(range(u), d)):
                expected = np.ones(u, dtype=np.int8)
                expected[list(negatives)] = -1
                for klass in (lazy, enumerated):
                    labels = klass.hypothesis(i).labels
                    assert labels.tolist() == expected.tolist()
                    assert not labels.flags.writeable
            assert not lazy.is_enumerated

    def test_the_negatives_index_is_read_only_and_builds_the_matrix(self):
        klass = HypothesisClass.with_exact_negatives(7, 3)
        negatives = klass._negative_points()
        assert negatives.shape == (math.comb(7, 3), 3) and negatives.dtype == np.intp
        assert not negatives.flags.writeable
        assert negatives.tolist() == [list(s) for s in itertools.combinations(range(7), 3)]
        assert klass._negative_points() is negatives
        matrix = klass.matrix
        np.testing.assert_array_equal(np.argsort(matrix, axis=1, kind="stable")[:, :3], negatives)
        assert HypothesisClass(matrix)._negative_points() is None


class TestTrainingPathBuildsNoMatrix:
    def test_error_floors_equal_with_and_without_a_matrix(self):
        for u, d, alpha in [(30, 3, 0.5), (50, 2, 0.3), (200, 1, 0.5)]:
            lazy = dsubset_adversary(u=u, d=d, alpha=alpha)
            floors = runner._error_floors(lazy)
            assert not lazy.klass.is_enumerated
            enumerated = Fixture(lazy.name, enumerate_class(HypothesisClass.with_exact_negatives(
                u, d)), lazy.distribution, lazy.vc_dim, lazy.opt_error)
            assert runner._error_floors(enumerated) == floors
            # The chunked where-sum equals one where-sum over the whole matrix.
            mass = lazy.distribution.mass
            whole = np.where(enumerated.klass.matrix == 1, mass[:, 0], mass[:, 1]).sum(axis=-1)
            assert floors[0] == float(whole.min())

    def test_a_sweep_leaves_its_class_unenumerated(self, tmp_path, monkeypatch):
        built = []

        def recording_build(config, tau):
            fixture = build(config, tau)
            built.append(fixture)
            return fixture

        build = runner._build_fixture
        monkeypatch.setattr(runner, "_build_fixture", recording_build)
        config = parse_config_text(
            "[experiment]\nkind = upper_sweep\nseed = 5\ntrials = 4\n"
            f"output = {tmp_path / 'rows.csv'}\n\n[grid]\nn = 300, 3000\ntau = 0.1, 0.05\n\n"
            "[fixture]\nfamily = dsubset_adversary\nd = 2\n"
        )
        result = runner.run(config)
        assert len(result.rows) == 2 * 4 * 4
        assert len(built) == 2
        assert not any(fixture.klass.is_enumerated for fixture in built)

    def test_train_leaves_a_fresh_class_unenumerated(self):
        fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
        klass = HypothesisClass.with_exact_negatives(30, 3)
        pieces = SamplePieces.drawn(fixture.distribution, 3000, RngStream(2805, 1))
        result = train(pieces, klass, 3, 0.1)
        assert not klass.is_enumerated
        reference = train(
            SamplePieces.drawn(fixture.distribution, 3000, RngStream(2805, 1)),
            as_matrix_class(klass), 3, 0.1,
        )
        assert result.erm_index == reference.erm_index
        assert result.validation_core == reference.validation_core
        assert result.validation_erm == reference.validation_erm
        assert (result.output_hypothesis().labels.tolist()
                == reference.output_hypothesis().labels.tolist())


def test_a_wide_class_is_scored_in_bounded_memory_without_its_matrix():
    """u = 600, d = 2 has 179,700 members: its label matrix would take
    108 MB and a float64 cast of it 863 MB. The negatives index takes
    2.9 MB, and ERM, the near-optimal filter and the error floors stay far
    below the matrix."""
    u = 600
    klass = HypothesisClass.with_exact_negatives(u, 2)
    gen = RngStream(2806, 1).generator()
    tables = [CountTable(gen.integers(0, 50, size=(u, 2))) for _ in range(16)]
    mass = gen.random((u, 2))
    fixture = Fixture("wide", klass, DiscreteDistribution(mass / mass.sum()), 2, 0.0)
    tracemalloc.start()
    try:
        best = erm_many(klass, tables)
        near = near_optimal_set(klass, tables[0], best[0][1], 0.001)
        floors = runner._error_floors(fixture)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert not klass.is_enumerated
    assert best[0][0] in near.tolist()
    scores = tables[0].counts[:, 1] - tables[0].counts[:, 0]
    low = sorted(np.argsort(scores, kind="stable")[:2].tolist())
    assert klass.hypothesis(best[0][0]).labels[low].tolist() == [-1, -1]
    assert 0.0 < floors[0] < 1.0


class TestDiagnosticAllowance:
    """The diagnostics check the bound's inputs once per trace; each
    allowance keeps the bits of deviation_bound over 32."""

    @pytest.mark.parametrize("filter_half, rounds, d, delta, dev_scale", [
        (20, 1, 2, 0.1, 1.0), (15_000, 7, 3, 0.05, 0.3), (10**6, 3, 1, 0.9, 2.5),
    ])
    def test_equals_deviation_bound_over_32(self, filter_half, rounds, d, delta, dev_scale):
        trace = dataclasses.replace(
            one_round_trace(CountTable(np.ones((3, 2), dtype=np.int64)), [0], filter_half),
            schedule=Schedule(rounds, 0.5), d=d, delta=delta,
            consts=TheoryConstants(dev_scale=dev_scale),
        )
        allowance = _diagnostic_allowance(trace)
        n = trace.filter_half / trace.schedule.rounds

        def expected(levels):
            return deviation_bound(n, d, delta, levels, trace.consts) / 32.0

        gen = RngStream(2807, filter_half).generator()
        for beta in [0.0, 1.0, 1e-300, 0.5, float(gen.random())]:
            got = allowance(beta)
            assert type(got) is float and got == expected(beta)
        levels = np.concatenate([[0.0, 1.0], gen.random(50), gen.random(5) * 1e-9])
        np.testing.assert_array_equal(allowance(levels), expected(levels))
        assert allowance(np.zeros(3)).tolist() == [expected(0.0)] * 3
