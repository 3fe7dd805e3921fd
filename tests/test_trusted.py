"""Package-built hypotheses, classes and distributions against the public
constructors.

Hypotheses, classes and distributions the package derives from validated
objects skip validation. Each such producer must still return what the
public constructor would: read-only int8 labels with the same values, class
rows the public constructor accepts, and read-only masses it accepts bit
for bit. The public constructors keep their checks.
"""

import math

import numpy as np
import pytest

from paclab import (
    AdversaryInstance,
    CompositeClassifier,
    CountTable,
    Dataset,
    DiscreteDistribution,
    Hypothesis,
    HypothesisClass,
    RngStream,
    agreement_points,
    condition_on_agreement,
    condition_on_disagreement,
    determinize,
    least_frequent_learner,
    split_class,
    subset_unrank,
)


def assert_matches_public(h, expected):
    """h is a read-only int8 hypothesis equal to Hypothesis(expected)."""
    assert type(h) is Hypothesis
    assert h.labels.dtype == np.int8 and h.labels.ndim == 1
    assert not h.labels.flags.writeable
    with pytest.raises(ValueError):
        h.labels[0] = 1
    np.testing.assert_array_equal(h.labels, Hypothesis(expected).labels)


def random_class(gen, max_rows=12, max_u=7):
    u = int(gen.integers(1, max_u + 1))
    rows = np.unique(
        gen.choice(np.array([-1, 1], dtype=np.int8), size=(int(gen.integers(1, max_rows)), u)),
        axis=0,
    )
    return HypothesisClass(rows)


def random_dist(gen, u):
    mass = gen.gamma(1.0, size=(u, 2))
    return DiscreteDistribution(mass / mass.sum())


class TestProducers:
    def test_members_of_an_explicit_class(self):
        gen = RngStream(61, 1).generator()
        for _ in range(30):
            klass = random_class(gen)
            for i in range(len(klass)):
                assert_matches_public(klass.hypothesis(i), klass.matrix[i].tolist())

    def test_members_of_the_exact_negatives_family(self):
        klass = HypothesisClass.with_exact_negatives(7, 3)
        for i in range(len(klass)):
            expected = np.ones(7)
            expected[subset_unrank(7, 3, i)] = -1
            assert_matches_public(klass.hypothesis(i), expected)
        assert not klass.is_enumerated

    def test_tabulated_composites(self):
        gen = RngStream(62, 1).generator()
        for _ in range(30):
            klass = random_class(gen)
            members = list(klass)
            picks = gen.integers(len(klass), size=6)
            pairs = ((members[picks[0]], members[picks[1]]), (members[picks[2]], members[picks[3]]))
            agree, disagree = members[picks[4]], members[picks[5]]
            expected = [
                agree(x) if all(a(x) == b(x) for a, b in pairs) else disagree(x)
                for x in range(klass.domain_size)
            ]
            assert_matches_public(CompositeClassifier(pairs, agree, disagree).tabulate(), expected)

    def test_split_classes(self):
        gen = RngStream(63, 1).generator()
        for _ in range(30):
            klass = random_class(gen)
            base = klass.hypothesis(int(gen.integers(len(klass))))
            concept = Hypothesis(gen.choice([-1, 1], size=klass.domain_size))
            eq_list, neq_list = split_class(klass, base, concept)
            assert len(eq_list) == len(neq_list) == len(klass)
            for h, h_eq, h_neq in zip(klass, eq_list, neq_list):
                moves = [h(x) != base(x) for x in range(klass.domain_size)]
                onto = [h(x) == concept(x) for x in range(klass.domain_size)]
                assert_matches_public(h_eq, [1 if m and o else -1 for m, o in zip(moves, onto)])
                assert_matches_public(h_neq, [1 if m and not o else -1 for m, o in zip(moves, onto)])

    @pytest.mark.parametrize("lazy", [False, True])
    def test_determinized_class_and_concept(self, lazy):
        gen = RngStream(64, 1).generator()
        for _ in range(20):
            klass = HypothesisClass.with_exact_negatives(6, 2) if lazy else random_class(gen)
            u = klass.domain_size
            det_dist, det_klass, concept = determinize(random_dist(gen, u), klass)
            assert_matches_public(concept, [-1, 1] * u)
            doubled = [[label for label in h.labels for _ in range(2)] for h in klass]
            public = HypothesisClass(doubled, declared_vc=klass.declared_vc)
            assert det_klass.matrix.dtype == np.int8
            assert not det_klass.matrix.flags.writeable
            np.testing.assert_array_equal(det_klass.matrix, public.matrix)
            assert (det_klass.domain_size, det_klass.declared_vc, len(det_klass)) == (
                2 * u,
                klass.declared_vc,
                len(klass),
            )
            assert det_dist.domain_size == 2 * u
            for i in range(len(det_klass)):
                assert_matches_public(det_klass.hypothesis(i), doubled[i])

    def test_least_frequent_learner_and_the_truth(self):
        gen = RngStream(65, 1).generator()
        for _ in range(30):
            u = int(gen.integers(2, 12))
            d = int(gen.integers(1, u // 2 + 1))
            instance = AdversaryInstance(u, d, 0.1, int(gen.integers(math.comb(u, d))))
            point_counts = gen.integers(0, 4, size=u)
            table = CountTable(np.stack([np.zeros(u, dtype=np.int64), point_counts], axis=1))
            least = sorted(range(u), key=lambda x: (point_counts[x], x))[:d]
            expected = [-1 if x in least else 1 for x in range(u)]
            assert_matches_public(least_frequent_learner(table, instance), expected)
            truth = set(instance.truth_negative_points().tolist())
            assert_matches_public(
                instance.truth_hypothesis(), [-1 if x in truth else 1 for x in range(u)]
            )


def assert_distribution_matches_public(dist, expected):
    """dist holds a read-only float64 mass table that DiscreteDistribution
    accepts from the same array and keeps bit for bit, equal to expected."""
    assert type(dist) is DiscreteDistribution
    assert dist.mass.dtype == np.float64 and dist.mass.shape == expected.shape
    assert not dist.mass.flags.writeable
    with pytest.raises(ValueError):
        dist.mass[0, 0] = 0.5
    assert dist.mass.tobytes() == DiscreteDistribution(dist.mass).mass.tobytes()
    assert dist.mass.tobytes() == expected.tobytes()


class TestDerivedDistributions:
    def test_conditionals(self):
        gen = RngStream(66, 1).generator()
        checked = 0
        for _ in range(40):
            klass = random_class(gen)
            dist = random_dist(gen, klass.domain_size)
            picks = gen.integers(len(klass), size=4)
            pairs = [
                (klass.hypothesis(int(picks[0])), klass.hypothesis(int(picks[1]))),
                (klass.hypothesis(int(picks[2])), klass.hypothesis(int(picks[3]))),
            ]
            for count in (1, 2):
                mask = agreement_points(pairs[:count], klass.domain_size)
                sides = ((mask, condition_on_agreement), (~mask, condition_on_disagreement))
                for region, condition in sides:
                    if not region.any():
                        continue
                    region_mass = dist.mass[region].sum()
                    expected = np.where(region[:, None], dist.mass / region_mass, 0.0)
                    assert_distribution_matches_public(
                        condition(dist, pairs[:count]).conditional, expected
                    )
                    checked += 1
        assert checked > 80

    @pytest.mark.parametrize("lazy", [False, True])
    def test_determinized_distribution(self, lazy):
        gen = RngStream(67, 1).generator()
        for _ in range(20):
            klass = HypothesisClass.with_exact_negatives(6, 2) if lazy else random_class(gen)
            dist = random_dist(gen, klass.domain_size)
            # Point i becomes twin 2i with its -1 mass and twin 2i + 1 with its +1 mass.
            expected = np.array(
                [[m, 0.0] if label == 0 else [0.0, m] for row in dist.mass for label, m in enumerate(row)]
            )
            assert_distribution_matches_public(determinize(dist, klass)[0], expected)


class TestPublicConstructorsKeepTheirChecks:
    @pytest.mark.parametrize("bad", [0, 2])
    def test_labels_outside_the_signs(self, bad):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Hypothesis(np.array([1, bad], dtype=np.int8))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            HypothesisClass(np.array([[1, -1], [1, bad]], dtype=np.int8))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Dataset(np.array([0, 1]), np.array([1, bad], dtype=np.int8), 2)

    def test_duplicate_rows(self):
        with pytest.raises(ValueError, match="duplicate"):
            HypothesisClass([[1, -1, 1], [-1, -1, 1], [1, -1, 1]])
