"""Tests for error measures, conditioning, and the label-splitting helpers."""

import numpy as np
import pytest

from paclab import (
    CountTable,
    Dataset,
    DiscreteDistribution,
    Hypothesis,
    HypothesisClass,
    RngStream,
    condition_on_agreement,
    condition_on_disagreement,
    determinize,
    empirical_disagreement,
    empirical_error,
    fraction_predicting_positive,
    mass_predicting_positive,
    sample_dataset,
    split_class,
    true_disagreement,
    true_error,
    vc_dimension_bruteforce,
)
from paclab import measures
from paclab.measures import agreement_points

from conftest import hyp


class TestEmpiricalError:
    def test_counts_mismatches(self):
        data = Dataset(np.array([0, 1, 0, 1]), np.array([1, 1, -1, 1], dtype=np.int8), 2)
        assert empirical_error(hyp(1, 1), data) == 0.25
        assert empirical_error(hyp(-1, -1), data) == 0.75

    def test_empty_sample_rejected(self):
        data = Dataset(np.array([0]), np.array([1], dtype=np.int8), 2)
        with pytest.raises(ValueError, match="empty"):
            empirical_error(hyp(1, 1), data.take(slice(0, 0)))


class TestTrueError:
    def test_deterministic_hand_value(self):
        dist = DiscreteDistribution.deterministic(
            np.array([0.3, 0.7]), np.array([1, -1], dtype=np.int8)
        )
        assert true_error(hyp(1, 1), dist) == pytest.approx(0.7, abs=1e-15)
        assert true_error(hyp(1, -1), dist) == 0.0

    def test_stochastic_labels(self):
        """A point with split label mass charges the minority side."""
        mass = np.array([[0.2, 0.8]])
        dist = DiscreteDistribution(mass)
        assert true_error(hyp(1), dist) == pytest.approx(0.2, abs=1e-15)
        assert true_error(hyp(-1), dist) == pytest.approx(0.8, abs=1e-15)

    def test_matches_empirical_at_large_n(self):
        """Sampled error approaches true error at the root-n rate.

        Ten independent seeds at n = 10^6; each deviation must stay within
        three standard deviations plus a small absolute slack.
        """
        mass = np.array([[0.1, 0.3], [0.05, 0.25], [0.2, 0.1]])
        dist = DiscreteDistribution(mass)
        h = hyp(1, -1, 1)
        er = true_error(h, dist)
        n = 10**6
        for seed in range(10):
            data = sample_dataset(dist, n, RngStream(seed, 1))
            gap = abs(empirical_error(h, data) - er)
            bound = 3 * np.sqrt(er / n) + 1e-3
            assert gap <= bound, f"seed {seed}: gap {gap} above {bound}"


class TestDisagreement:
    def test_true_disagreement_is_marginal_mass(self):
        dist = DiscreteDistribution.uniform_deterministic(np.ones(4, dtype=np.int8))
        a, b = hyp(1, 1, -1, -1), hyp(1, -1, -1, 1)
        assert true_disagreement(a, b, dist) == pytest.approx(0.5)

    def test_empirical_disagreement(self):
        data = Dataset(np.array([0, 1, 2, 3]), np.ones(4, dtype=np.int8), 4)
        a, b = hyp(1, 1, -1, -1), hyp(1, -1, -1, 1)
        assert empirical_disagreement(a, b, data) == 0.5
        assert empirical_disagreement(a, b, CountTable.of(data)) == 0.5


class TestPositivePredictions:
    def test_fraction_and_mass(self):
        data = Dataset(np.array([0, 0, 1]), np.ones(3, dtype=np.int8), 2)
        fraction = fraction_predicting_positive(hyp(1, -1), data)
        assert fraction == pytest.approx(2 / 3)
        assert fraction_predicting_positive(hyp(1, -1), CountTable.of(data)) == fraction
        dist = DiscreteDistribution.uniform_deterministic(np.ones(2, dtype=np.int8))
        assert mass_predicting_positive(hyp(1, -1), dist) == pytest.approx(0.5)


class TestConditioning:
    def test_agreement_split_on_single_point_disagreement(self, uniform_positive_4):
        """A pair disagreeing only on the last point splits 0.75 / 0.25."""
        pair = (hyp(1, 1, 1, 1), hyp(1, 1, 1, -1))
        agree = condition_on_agreement(uniform_positive_4, [pair])
        assert agree.region_mass == pytest.approx(0.75)
        np.testing.assert_allclose(agree.conditional.point_marginal()[:3], 1 / 3)
        assert agree.conditional.point_marginal()[3] == 0.0

        disagree = condition_on_disagreement(uniform_positive_4, [pair])
        assert disagree.region_mass == pytest.approx(0.25)
        assert disagree.conditional.point_marginal()[3] == pytest.approx(1.0)

    def test_empty_pair_list_is_identity(self, uniform_positive_4):
        result = condition_on_agreement(uniform_positive_4, [])
        assert result.region_mass == 1.0
        np.testing.assert_array_equal(
            result.conditional.mass, uniform_positive_4.mass
        )
        with pytest.raises(ValueError):
            condition_on_disagreement(uniform_positive_4, [])

    def test_everywhere_disagreeing_pair(self, uniform_positive_4):
        pair = (hyp(1, 1, 1, 1), hyp(-1, -1, -1, -1))
        result = condition_on_disagreement(uniform_positive_4, [pair])
        assert result.region_mass == pytest.approx(1.0)
        with pytest.raises(ValueError, match="empty conditioning region"):
            condition_on_agreement(uniform_positive_4, [pair])

    def test_conditional_renormalizes(self, uniform_positive_4):
        pair = (hyp(1, 1, -1, -1), hyp(1, 1, 1, 1))
        result = condition_on_agreement(uniform_positive_4, [pair])
        assert result.conditional.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_multiple_pairs_intersect_regions(self, uniform_positive_4):
        pairs = [
            (hyp(1, 1, 1, 1), hyp(-1, 1, 1, 1)),
            (hyp(1, 1, 1, 1), hyp(1, -1, 1, 1)),
        ]
        mask = agreement_points(pairs, 4)
        assert mask.tolist() == [False, False, True, True]


class TestConditionRegion:
    """measures._condition is the one split: None where a region has no
    mass, and the public wrappers refuse exactly that."""

    def test_a_region_without_mass_is_none(self, uniform_positive_4):
        assert measures._condition(uniform_positive_4, np.zeros(4, dtype=bool)) is None
        # A region whose points all carry zero mass is empty too.
        dist = DiscreteDistribution.deterministic(
            np.array([0.5, 0.5, 0.0, 0.0]), np.ones(4, dtype=np.int8)
        )
        assert measures._condition(dist, np.array([False, False, True, True])) is None
        pair = (hyp(1, 1, 1, 1), hyp(1, 1, -1, -1))
        with pytest.raises(ValueError, match="^empty conditioning region$"):
            condition_on_disagreement(dist, [pair])
        assert condition_on_agreement(dist, [pair]).region_mass == 1.0

    def test_both_wrappers_still_refuse(self, uniform_positive_4):
        same = (hyp(1, 1, 1, 1), hyp(1, 1, 1, 1))
        opposite = (hyp(1, 1, 1, 1), hyp(-1, -1, -1, -1))
        with pytest.raises(ValueError, match="^empty conditioning region$"):
            condition_on_agreement(uniform_positive_4, [opposite])
        for pairs in ([same], []):
            with pytest.raises(ValueError, match="^empty conditioning region$"):
                condition_on_disagreement(uniform_positive_4, pairs)

    def test_a_region_with_mass_is_the_public_conditional(self, uniform_positive_4):
        pair = (hyp(1, 1, 1, 1), hyp(1, 1, 1, -1))
        region = agreement_points([pair], 4)
        split = measures._condition(uniform_positive_4, region)
        public = condition_on_agreement(uniform_positive_4, [pair])
        assert split.region_mass == public.region_mass == 0.75
        assert split.conditional.mass.tobytes() == public.conditional.mass.tobytes()


class TestDeterminize:
    def test_preserves_errors_exactly(self):
        mass = np.array([[0.25, 0.25], [0.1, 0.4]])
        dist = DiscreteDistribution(mass)
        klass = HypothesisClass(np.array([[1, -1], [-1, 1], [1, 1]], dtype=np.int8))
        det_dist, det_klass, concept = determinize(dist, klass)
        assert det_dist.has_deterministic_labels
        assert det_dist.domain_size == 4
        for i in range(len(klass)):
            original = true_error(klass.hypothesis(i), dist)
            doubled = true_error(det_klass.hypothesis(i), det_dist)
            assert doubled == pytest.approx(original, abs=1e-12)

    def test_twin_layout_and_concept(self):
        """Twin 2i carries the -1 mass and the concept labels it -1."""
        mass = np.array([[0.4, 0.6]])
        det_dist, _, concept = determinize(
            DiscreteDistribution(mass), HypothesisClass(np.array([[1]], dtype=np.int8))
        )
        assert det_dist.mass[0, 0] == 0.4 and det_dist.mass[1, 1] == 0.6
        assert concept.labels.tolist() == [-1, 1]

    def test_preserves_vc_dimension(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            u = int(rng.integers(2, 9))
            rows = np.unique(
                rng.choice(np.array([-1, 1], dtype=np.int8), size=(6, u)), axis=0
            )
            klass = HypothesisClass(rows)
            dist = DiscreteDistribution.uniform_deterministic(
                np.ones(u, dtype=np.int8)
            )
            _, det_klass, _ = determinize(dist, klass)
            assert vc_dimension_bruteforce(det_klass) == vc_dimension_bruteforce(klass)


class TestSplitClass:
    def test_base_hypothesis_maps_to_all_negative(self):
        klass = HypothesisClass(np.array([[1, -1], [-1, 1]], dtype=np.int8))
        base = klass.hypothesis(0)
        concept = hyp(1, 1)
        eq_list, neq_list = split_class(klass, base, concept)
        assert eq_list[0].labels.tolist() == [-1, -1]
        assert neq_list[0].labels.tolist() == [-1, -1]

    def test_concept_against_its_negation(self):
        concept = hyp(1, -1, 1)
        klass = HypothesisClass(np.stack([concept.labels, hyp(-1, 1, -1).labels]))
        eq_list, neq_list = split_class(klass, klass.hypothesis(1), concept)
        assert eq_list[0].labels.tolist() == [1, 1, 1]
        assert neq_list[0].labels.tolist() == [-1, -1, -1]

    def test_sample_identity_on_determinized_instances(self):
        """Error gaps decompose through the two difference indicators.

        For any sample S and the determinized distribution, the gap
        er_S(h) - er_D(h) equals the base hypothesis's gap plus the gap of
        the wrong-move indicator minus the gap of the right-move indicator,
        exactly.
        """
        rng = np.random.default_rng(42)
        for trial in range(50):
            u = int(rng.integers(2, 6))
            rows = np.unique(
                rng.choice(np.array([-1, 1], dtype=np.int8), size=(5, u)), axis=0
            )
            if rows.shape[0] < 2:
                continue
            klass = HypothesisClass(rows)
            raw = rng.random((u, 2))
            dist = DiscreteDistribution(raw / raw.sum())
            det_dist, det_klass, concept = determinize(dist, klass)
            sample = sample_dataset(det_dist, 64, RngStream(trial, 1))
            i = int(rng.integers(len(det_klass)))
            j = int(rng.integers(len(det_klass)))
            h, h0 = det_klass.hypothesis(i), det_klass.hypothesis(j)
            eq_list, neq_list = split_class(det_klass, h0, concept)
            lhs = empirical_error(h, sample) - true_error(h, det_dist)
            rhs = (
                empirical_error(h0, sample)
                - true_error(h0, det_dist)
                + fraction_predicting_positive(neq_list[i], sample)
                - mass_predicting_positive(neq_list[i], det_dist)
                - fraction_predicting_positive(eq_list[i], sample)
                + mass_predicting_positive(eq_list[i], det_dist)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9), f"trial {trial}"


class TestSplitClassSequences:
    """split_class wraps a member's indicators when they are read: each
    sequence behaves as the list of all of them."""

    def test_reads_match_the_rows_in_every_access(self):
        klass = HypothesisClass(np.array([[1, -1, 1], [-1, -1, 1], [1, 1, -1]], dtype=np.int8))
        eq_rows, neq_rows = split_class(klass, klass.hypothesis(0), hyp(1, 1, 1))
        for rows in (eq_rows, neq_rows):
            listed = list(rows)
            assert len(rows) == len(listed) == len(klass)
            for i in range(len(klass)):
                assert rows[i].labels.tolist() == listed[i].labels.tolist()
                assert rows[i - len(klass)].labels.tolist() == listed[i].labels.tolist()
                assert rows[np.int64(i)].labels.tolist() == listed[i].labels.tolist()
                assert not rows[i].labels.flags.writeable
        assert [h.labels.tolist() for h in eq_rows] == [[-1, -1, -1], [-1, -1, -1], [-1, 1, -1]]
        assert [h.labels.tolist() for h in neq_rows] == [[-1, -1, -1], [1, -1, -1], [-1, -1, 1]]

    def test_bad_indices_are_refused(self):
        klass = HypothesisClass(np.array([[1, -1], [-1, 1]], dtype=np.int8))
        eq_rows, _ = split_class(klass, klass.hypothesis(0), hyp(1, 1))
        with pytest.raises(IndexError):
            eq_rows[2]
        with pytest.raises(TypeError):
            eq_rows[0:1]
        with pytest.raises(TypeError):
            eq_rows[0.0]
