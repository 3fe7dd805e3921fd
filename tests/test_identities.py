"""Tests for the randomized identity-check harness."""

import itertools

import numpy as np
import pytest

from paclab import (
    CHECKS,
    CompositeClassifier,
    Hypothesis,
    RngStream,
    agreement_points,
    condition_on_agreement,
    condition_on_disagreement,
    identities,
    measures,
    run_identity_chunk,
)


class TestRunIdentityChunk:
    def test_five_checks_in_declared_order(self):
        aggregates = run_identity_chunk(seed=0, chunk=0, instances=20)
        assert tuple(a.check for a in aggregates) == CHECKS
        assert len(CHECKS) == 5

    def test_zero_failures_at_working_tolerance(self):
        for aggregate in run_identity_chunk(seed=1, chunk=0, instances=100):
            assert aggregate.failures == 0, aggregate
            assert aggregate.instances == 100
            assert aggregate.max_abs_deviation < 1e-9

    def test_deviations_sit_at_machine_precision(self):
        """The checks are algebraic identities, not approximations."""
        for aggregate in run_identity_chunk(seed=2, chunk=3, instances=200):
            assert aggregate.max_abs_deviation < 1e-12, aggregate

    def test_deterministic_per_chunk(self):
        first = run_identity_chunk(seed=5, chunk=7, instances=50)
        second = run_identity_chunk(seed=5, chunk=7, instances=50)
        assert first == second

    def test_chunks_differ(self):
        a = run_identity_chunk(seed=5, chunk=1, instances=50)
        b = run_identity_chunk(seed=5, chunk=2, instances=50)
        assert [x.max_abs_deviation for x in a] != [x.max_abs_deviation for x in b]
        assert all(x.chunk == 1 for x in a)
        assert all(x.chunk == 2 for x in b)

    def test_impossible_tolerance_counts_failures(self, monkeypatch):
        """A zero-width tolerance exercises the failure-counting path."""
        monkeypatch.setattr(identities, "_TOLERANCE", 0.0)
        aggregates = run_identity_chunk(seed=3, chunk=0, instances=50)
        assert sum(a.failures for a in aggregates) > 0
        for aggregate in aggregates:
            assert 0 <= aggregate.failures <= aggregate.instances

    def test_pinned_aggregates(self):
        """Selftest rows are made of these aggregates, so any change to a
        draw or to a check's arithmetic shows here. Recorded with numpy 2.4
        on x86-64."""
        aggregates = run_identity_chunk(seed=2026, chunk=0, instances=50)
        assert [(a.check, a.chunk, a.instances, a.failures) for a in aggregates] == [
            (name, 0, 50, 0) for name in CHECKS
        ]
        assert [a.max_abs_deviation for a in aggregates] == [
            3.3306690738754696e-16,
            2.220446049250313e-16,
            0.0,
            1.6653345369377348e-16,
            0.0,
        ]

    def test_instance_count_validated(self):
        with pytest.raises(ValueError):
            run_identity_chunk(seed=0, chunk=0, instances=0)


class TestDistinctRows:
    """The row codes give np.unique(rows, axis=0): the same rows, in the
    same order, as int8."""

    def assert_unique(self, rows):
        got = identities._distinct_rows(rows)
        expected = np.unique(rows, axis=0)
        assert got.dtype == np.int8 and got.shape == expected.shape, rows
        assert got.tobytes() == expected.tobytes(), rows

    @pytest.mark.parametrize("shape", list(itertools.product(range(1, 5), repeat=2)))
    def test_every_sign_matrix_up_to_4x4(self, shape):
        """Every matrix of the shape at once: the rows of matrix k tagged
        with a first column k, so np.unique(axis=0) of the tagged stack is,
        tag by tag, np.unique(axis=0) of each matrix."""
        rows, columns = shape
        every = np.array(list(itertools.product((-1, 1), repeat=rows * columns)), dtype=np.int8)
        every = every.reshape(-1, rows, columns)
        tags = np.repeat(np.arange(len(every)), rows)[:, None]
        expected = np.unique(np.hstack([tags, every.reshape(-1, columns)]), axis=0)
        got = [identities._distinct_rows(matrix) for matrix in every]
        got_tags = np.repeat(np.arange(len(every)), [len(g) for g in got])
        got = np.concatenate(got)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(expected[:, 0], got_tags)
        np.testing.assert_array_equal(expected[:, 1:], got)

    def test_random_sign_matrices_up_to_10x6(self):
        gen = RngStream(71, 1).generator()
        signs = np.array([-1, 1], dtype=np.int8)
        for _ in range(3000):
            shape = (int(gen.integers(1, 11)), int(gen.integers(1, 7)))
            self.assert_unique(gen.choice(signs, size=shape))


def random_instances(seed, count):
    gen = RngStream(seed, 1).generator()
    for _ in range(count):
        klass, dist = identities._random_instance(gen)
        yield klass, measures._pair_split(dist, identities._draw_pair(klass, gen)), gen


class TestSplit:
    def test_each_side_is_the_public_conditional(self):
        """The shared split holds what the public conditioning returns, bit
        for bit, and None exactly where a side has no mass."""
        sides = {True: 0, False: 0}
        for _, inst, _ in random_instances(72, 300):
            mask = agreement_points([inst.pair], inst.dist.domain_size)
            assert inst.agree_mass == float(inst.dist.mass[mask].sum())
            assert inst.disagree_mass == float(inst.dist.mass[~mask].sum())
            for side, mass, condition in (
                (inst.agree, inst.agree_mass, condition_on_agreement),
                (inst.disagree, inst.disagree_mass, condition_on_disagreement),
            ):
                sides[side is None] += 1
                if side is None:
                    assert mass == 0.0
                    continue
                public = condition(inst.dist, [inst.pair])
                assert public.region_mass == mass
                assert side.mass.tobytes() == public.conditional.mass.tobytes()
        assert sides[True] > 0 and sides[False] > 0

    def test_the_split_holds_its_mask_and_the_pairs_errors(self):
        """The mask and each error are what agreement_points and
        true_error give, bit for bit; without agreement mass there are no
        conditional errors."""
        for _, inst, _ in random_instances(76, 300):
            mask = agreement_points([inst.pair], inst.dist.domain_size)
            assert inst.agreement.tobytes() == mask.tobytes()
            assert inst.errors == tuple(measures.true_error(h, inst.dist) for h in inst.pair)
            if inst.agree is None:
                assert inst.agree_errors is None
            else:
                expected = tuple(measures.true_error(h, inst.agree) for h in inst.pair)
                assert inst.agree_errors == expected


class TestSharedIdentities:
    """The pair_decomposition and average_bound checks are the gaps that
    measures computes, so a gap that reads 1 fails every instance that
    takes it, and no other check."""

    def test_a_broken_decomposition_fails_every_instance(self, monkeypatch):
        monkeypatch.setattr(measures, "_decomposition_gap", lambda split: 1.0)
        aggregates = {a.check: a for a in run_identity_chunk(seed=6, chunk=0, instances=40)}
        assert aggregates["pair_decomposition"].failures == 40
        assert aggregates["pair_decomposition"].max_abs_deviation == 1.0
        assert [name for name, a in aggregates.items() if a.failures] == ["pair_decomposition"]

    def test_a_broken_averaging_bound_fails_every_instance_it_reads(self, monkeypatch):
        """The bound is taken on every instance whose pair agrees on some
        mass; the others pass without it."""
        taken = []

        def broken(split, klass):
            taken.append(split.pair)
            return 1.0, 0.0

        monkeypatch.setattr(measures, "_averaging_gap", broken)
        aggregates = {a.check: a for a in run_identity_chunk(seed=6, chunk=0, instances=200)}
        assert 0 < len(taken) < 200
        assert aggregates["average_bound"].failures == len(taken)
        assert aggregates["average_bound"].max_abs_deviation == 1.0
        assert [name for name, a in aggregates.items() if a.failures] == ["average_bound"]

    def test_the_checks_return_the_gaps(self):
        for klass, split, gen in random_instances(75, 200):
            assert identities._check_pair_decomposition(
                klass, split, gen
            ) == measures._decomposition_gap(split)
            expected = 0.0
            if split.agree is not None:
                expected = measures._averaging_gap(split, klass)[0]
            assert identities._check_average_bound(klass, split, gen) == expected


class TestCompositeRouting:
    def test_a_correct_composite_passes(self):
        for klass, split, gen in random_instances(73, 100):
            assert identities._check_composite_routing(klass, split, gen) == 0.0

    @pytest.mark.parametrize("method", ["tabulate", "__call__"])
    def test_a_wrong_route_fails(self, monkeypatch, method):
        """A composite that routes one point wrong, in its table or in its
        own call, fails the check."""
        real = getattr(CompositeClassifier, method)

        def tabulate_wrong(self):
            labels = real(self).labels.copy()
            labels[0] = -labels[0]
            return Hypothesis(labels)

        def call_wrong(self, x):
            return -real(self, x)

        monkeypatch.setattr(
            CompositeClassifier, method, tabulate_wrong if method == "tabulate" else call_wrong
        )
        for klass, split, gen in random_instances(74, 20):
            assert identities._check_composite_routing(klass, split, gen) == 1.0
        aggregates = {a.check: a for a in run_identity_chunk(seed=4, chunk=0, instances=20)}
        assert aggregates["composite_routing"].failures == 20
        assert aggregates["composite_routing"].max_abs_deviation == 1.0
