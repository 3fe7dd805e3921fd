"""Tests for the basic value types, subset ranking, and sampling."""

import itertools
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from paclab import (
    Dataset,
    DiscreteDistribution,
    Hypothesis,
    HypothesisClass,
    RngStream,
    enumerate_class,
    sample_dataset,
    subset_rank,
    subset_unrank,
    vc_dimension_bruteforce,
)
import paclab
from paclab import adversary, core, engine, experts, fixtures, identities, measures

from conftest import hyp

LIBRARY_MODULES = (adversary, core, engine, experts, fixtures, identities, measures)


class TestPackage:
    def test_all_is_the_library_modules_public_names(self):
        names = [name for module in LIBRARY_MODULES for name in module.__all__]
        assert len(set(names)) == len(names), "two modules export one name"
        assert sorted(paclab.__all__) == sorted(["__version__"] + names)
        for module in LIBRARY_MODULES:
            for name in module.__all__:
                assert getattr(paclab, name) is getattr(module, name)

    def test_import_leaves_the_runner_config_and_cli_unloaded(self):
        code = (
            "import sys, paclab; "
            "print(sorted(m for m in ('paclab.runner', 'paclab.config', 'paclab.cli') if m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestRngStream:
    def test_same_stream_reproduces(self):
        """Two generators from one stream draw identical values."""
        a = RngStream(42, 3).generator().random(100)
        b = RngStream(42, 3).generator().random(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngStream(42, 1).generator().random(100)
        b = RngStream(42, 2).generator().random(100)
        assert not np.array_equal(a, b), "different streams must not collide"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)

    def test_rejects_non_integer_keys(self):
        """A whole float is not truncated into a key; numpy integers pass."""
        for seed, stream in [(1.5, 0), (1.0, 0), (1, 2.0), (np.float64(1), 0)]:
            with pytest.raises(ValueError, match="must be an integer"):
                RngStream(seed, stream)
        np.testing.assert_array_equal(
            RngStream(np.int64(1), np.uint64(2)).generator().random(4),
            RngStream(1, 2).generator().random(4),
        )

    @pytest.mark.parametrize(
        "a, b",
        [((2**63, 0), (2**63 + 1, 0)), ((2**64 - 1, 0), (0, 0)),
         ((0, 2**63), (0, 2**63 + 1)), ((5, 2**64 - 1), (5, 0))],
    )
    def test_keys_of_2_to_the_63_and_above_do_not_alias(self, a, b):
        """Each half of the key is an exact 64-bit word, so neighbouring
        seeds or streams from 2^63 up draw their own values, silently."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws_a = RngStream(*a).generator().random(8)
            draws_b = RngStream(*b).generator().random(8)
        assert not np.array_equal(draws_a, draws_b)

    @pytest.mark.parametrize("seed, stream", [(0, 0), (42, 3), (2**63 - 1, 2**63 - 1)])
    def test_keys_below_2_to_the_63_are_unchanged(self, seed, stream):
        """Below 2^63 the uint64 key is the key numpy builds from a list of
        ints, so every row drawn before keys became uint64 draws again."""
        listed = np.random.Generator(np.random.Philox(key=[seed, stream])).random(8)
        np.testing.assert_array_equal(RngStream(seed, stream).generator().random(8), listed)


class TestRestart:
    def test_a_used_generator_restarts_as_a_fresh_one(self):
        """Mid-buffer, with a cached 32-bit half-word, a re-keyed generator
        holds a fresh generator's state field for field and draws as it
        does."""
        gen = RngStream(3, 4).generator()
        for _ in range(3):
            gen.integers(0, 7)
        gen.random(3)
        used = gen.bit_generator.state
        assert used["buffer_pos"] != 4 and used["has_uint32"] == 1
        for seed, stream in [(9, 2), (2**64 - 1, 2**63 + 5)]:
            target = RngStream(seed, stream)
            core._restart(gen, target)
            got, want = gen.bit_generator.state, target.generator().bit_generator.state
            assert got.keys() == want.keys()
            for field in want:
                if field == "state":
                    for word in ("counter", "key"):
                        assert got["state"][word].dtype == want["state"][word].dtype
                        np.testing.assert_array_equal(got["state"][word], want["state"][word])
                elif field == "buffer":
                    np.testing.assert_array_equal(got[field], want[field])
                else:
                    assert got[field] == want[field]
            fresh = target.generator()
            assert gen.integers(0, 7, size=5).tolist() == fresh.integers(0, 7, size=5).tolist()
            np.testing.assert_array_equal(gen.random(5), fresh.random(5))
            np.testing.assert_array_equal(
                gen.multinomial(1000, [0.2, 0.3, 0.5]), fresh.multinomial(1000, [0.2, 0.3, 0.5])
            )
            assert gen.bit_generator.state["state"]["counter"].tolist() == (
                fresh.bit_generator.state["state"]["counter"].tolist()
            )


class TestHypothesis:
    def test_basic_properties(self):
        h = hyp(-1, 1, 1)
        assert h.domain_size == 3
        assert h(0) == -1 and h(1) == 1

    def test_labels_are_validated(self):
        with pytest.raises(ValueError):
            Hypothesis(np.array([0, 1], dtype=np.int8))
        with pytest.raises(ValueError):
            Hypothesis(np.array([], dtype=np.int8))
        with pytest.raises(ValueError):
            Hypothesis(np.ones((2, 2), dtype=np.int8))

    @pytest.mark.parametrize("raw", [np.array([255, 1]), [1.5, -1], [np.nan, 1]])
    def test_raw_labels_are_checked_before_the_cast(self, raw):
        """255 would wrap to -1 and 1.5 truncate to 1 in int8."""
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Hypothesis(raw)

    def test_integral_floats_are_labels(self):
        assert Hypothesis([1.0, -1.0]).labels.tolist() == [1, -1]

    def test_labels_read_only(self):
        h = hyp(1, -1)
        with pytest.raises(ValueError):
            h.labels[0] = -1


class TestHypothesisClass:
    def test_rejects_duplicates_and_bad_entries(self):
        with pytest.raises(ValueError):
            HypothesisClass(np.array([[1, -1], [1, -1]], dtype=np.int8))
        with pytest.raises(ValueError):
            HypothesisClass(np.array([[1, 0]], dtype=np.int8))

    @pytest.mark.parametrize("raw", [[[255, 1], [1, 1]], [[1.5, 1], [1, -1]]])
    def test_raw_entries_are_checked_before_the_cast(self, raw):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            HypothesisClass(raw)

    def test_indexing_matches_matrix(self):
        klass = HypothesisClass(np.array([[1, -1], [-1, 1], [1, 1]], dtype=np.int8))
        assert len(klass) == 3
        for i in range(3):
            np.testing.assert_array_equal(klass.hypothesis(i).labels, klass.matrix[i])
        with pytest.raises(ValueError):
            klass.hypothesis(3)

    def test_non_integer_indices_are_refused_lazy_or_enumerated(self):
        """A lazy class unranks, an enumerated one indexes its matrix: both
        refuse a float index alike, and both take a numpy integer."""
        lazy = HypothesisClass.with_exact_negatives(6, 2)
        enumerated = enumerate_class(HypothesisClass.with_exact_negatives(6, 2))
        for klass in (lazy, enumerated):
            for bad in (1.5, 1.0, np.float64(1)):
                with pytest.raises(ValueError, match="index must be an integer"):
                    klass.hypothesis(bad)
            np.testing.assert_array_equal(klass.hypothesis(np.int64(1)).labels,
                                          klass.hypothesis(1).labels)
        assert not lazy.is_enumerated


class TestExactNegativesFamily:
    def test_size_without_enumeration(self):
        klass = HypothesisClass.with_exact_negatives(50, 2)
        assert not klass.is_enumerated
        assert klass.size == math.comb(50, 2)
        assert klass.declared_vc == 2

    def test_members_in_lexicographic_order_of_negative_sets(self):
        klass = HypothesisClass.with_exact_negatives(4, 2)
        negatives = [np.flatnonzero(h.labels == -1).tolist() for h in klass]
        assert negatives == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_lazy_member_access_matches_enumeration(self):
        lazy = HypothesisClass.with_exact_negatives(8, 3)
        rows = [lazy.hypothesis(i).labels.copy() for i in range(lazy.size)]
        assert not lazy.is_enumerated, "single-member access must not enumerate"
        enumerate_class(lazy)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(row, lazy.matrix[i])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_enumeration_equals_the_row_by_row_loop(self, d):
        for u in sorted({d + 1, d + 2, 7, 13, 25, 40}):
            expected = np.ones((math.comb(u, d), u), dtype=np.int8)
            for row, negatives in enumerate(itertools.combinations(range(u), d)):
                expected[row, negatives] = -1
            matrix = enumerate_class(HypothesisClass.with_exact_negatives(u, d)).matrix
            assert matrix.dtype == np.int8 and not matrix.flags.writeable
            np.testing.assert_array_equal(matrix, expected)

    def test_enumeration_cap_is_enforced(self):
        huge = HypothesisClass.with_exact_negatives(100, 8)
        with pytest.raises(ValueError, match="enumeration cap"):
            _ = huge.matrix
        # iterating single members still works
        assert huge.hypothesis(0).labels[:8].tolist() == [-1] * 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HypothesisClass.with_exact_negatives(3, 3)
        with pytest.raises(ValueError):
            HypothesisClass.with_exact_negatives(3, 0)
        for u, d in [(6.5, 2), (6, 2.9), (6.0, 2)]:
            with pytest.raises(ValueError, match="must be an integer"):
                HypothesisClass.with_exact_negatives(u, d)


class TestSubsetRanking:
    def test_round_trip_exhaustive(self):
        total = math.comb(6, 3)
        seen = []
        for rank in range(total):
            subset = subset_unrank(6, 3, rank)
            assert subset_rank(6, 3, subset) == rank
            seen.append(tuple(subset.tolist()))
        assert len(set(seen)) == total, "every rank maps to a distinct subset"
        assert seen == sorted(seen), "ranks follow lexicographic order"

    @pytest.mark.parametrize("u, d", [(1, 1), (6, 1), (7, 2), (9, 3), (10, 4), (11, 5), (12, 5)])
    def test_rank_is_the_combinations_index(self, u, d):
        for index, subset in enumerate(itertools.combinations(range(u), d)):
            assert subset_rank(u, d, subset) == index
        assert index == math.comb(u, d) - 1

    def test_extremes(self):
        np.testing.assert_array_equal(subset_unrank(10, 4, 0), [0, 1, 2, 3])
        last = math.comb(10, 4) - 1
        np.testing.assert_array_equal(subset_unrank(10, 4, last), [6, 7, 8, 9])

    def test_validation(self):
        with pytest.raises(ValueError):
            subset_unrank(6, 3, math.comb(6, 3))
        for bad in ([2, 1, 0], [0, 1, 1], [0, 1], [0, 1, 2, 3], [-1, 1, 2], [0, 1, 6]):
            with pytest.raises(ValueError, match="strictly increasing"):
                subset_rank(6, 3, np.array(bad))

    def test_rank_refuses_non_integer_elements(self):
        for bad in ([1.5, 3], [1.0, 3], np.array([1, 3], dtype=np.float64)):
            with pytest.raises(ValueError, match="strictly increasing integers"):
                subset_rank(5, 2, bad)
        for good in ([1, 3], np.array([1, 3], dtype=np.uint8), (np.int64(1), np.int64(3))):
            assert subset_rank(5, 2, good) == 5

    def test_the_empty_subset_ranks_0(self):
        assert subset_unrank(5, 0, 0).tolist() == []
        assert subset_rank(5, 0, []) == 0
        assert subset_rank(5, 0, np.array([], dtype=np.int64)) == 0
        with pytest.raises(ValueError):
            subset_rank(5, 0, [0])

    def test_unrank_refuses_a_non_integer_rank(self):
        for bad in (1.5, 1.0, np.float64(1)):
            with pytest.raises(ValueError, match="rank must be an integer"):
                subset_unrank(6, 2, bad)
        assert subset_unrank(6, 2, np.int64(1)).tolist() == subset_unrank(6, 2, 1).tolist()


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([[0.5, 0.5]]) * -1)
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            DiscreteDistribution(np.ones(4))

    def test_marginal_and_determinism_flag(self):
        mass = np.array([[0.25, 0.25], [0.0, 0.5]])
        dist = DiscreteDistribution(mass)
        np.testing.assert_allclose(dist.point_marginal(), [0.5, 0.5])
        assert not dist.has_deterministic_labels
        flat = DiscreteDistribution.deterministic(
            np.array([0.5, 0.5]), np.array([1, -1], dtype=np.int8)
        )
        assert flat.has_deterministic_labels
        assert flat.mass[0, 1] == 0.5 and flat.mass[1, 0] == 0.5

    def test_uniform_deterministic(self):
        dist = DiscreteDistribution.uniform_deterministic(np.ones(5, dtype=np.int8))
        np.testing.assert_allclose(dist.point_marginal(), 0.2)
        assert dist.mass[:, 0].sum() == 0.0


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([0, 5]), np.array([1, 1], dtype=np.int8), 4)
        with pytest.raises(ValueError):
            Dataset(np.array([0]), np.array([1, 1], dtype=np.int8), 4)
        with pytest.raises(ValueError):
            Dataset(np.array([0]), np.array([2], dtype=np.int8), 4)

    def test_raw_values_are_checked_before_the_cast(self):
        """Fractional points would truncate into the domain and 255 would
        wrap to the label -1."""
        with pytest.raises(ValueError, match="integers"):
            Dataset([0.7, 1.2], [1, -1], 2)
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Dataset([0, 1], np.array([255, 1]), 2)

    def test_take_slices_and_masks(self):
        data = Dataset(np.arange(6), np.array([1, -1] * 3, dtype=np.int8), 6)
        head = data.take(slice(0, 2))
        assert head.points.tolist() == [0, 1] and len(head) == 2
        masked = data.take(data.labels == 1)
        assert masked.points.tolist() == [0, 2, 4]
        picked = data.take(np.array([5, 0]))
        assert picked.points.tolist() == [5, 0]


class TestSampleDataset:
    def test_frequencies_match_uniform_marginal(self):
        """Relative frequency of each of 2 points stays near 1/2 at n = 10^6."""
        dist = DiscreteDistribution.uniform_deterministic(np.ones(2, dtype=np.int8))
        data = sample_dataset(dist, 10**6, RngStream(42, 1))
        freq = np.bincount(data.points, minlength=2) / len(data)
        assert 0.497 <= freq[0] <= 0.503, f"frequency {freq[0]} drifted"

    def test_labels_follow_deterministic_distribution(self):
        dist = DiscreteDistribution.deterministic(
            np.array([0.5, 0.5]), np.array([-1, 1], dtype=np.int8)
        )
        data = sample_dataset(dist, 5000, RngStream(7, 1))
        assert np.all(data.labels[data.points == 0] == -1)
        assert np.all(data.labels[data.points == 1] == 1)

    def test_deterministic_per_stream(self):
        dist = DiscreteDistribution.uniform_deterministic(np.ones(3, dtype=np.int8))
        a = sample_dataset(dist, 100, RngStream(1, 9))
        b = sample_dataset(dist, 100, RngStream(1, 9))
        np.testing.assert_array_equal(a.points, b.points)

    def test_accepts_generator_directly(self):
        dist = DiscreteDistribution.uniform_deterministic(np.ones(3, dtype=np.int8))
        data = sample_dataset(dist, 10, RngStream(1, 2).generator())
        assert len(data) == 10


class TestVcDimensionBruteforce:
    def test_exact_negatives_class(self):
        klass = HypothesisClass.with_exact_negatives(6, 2)
        assert vc_dimension_bruteforce(klass) == 2

    def test_singleton_class_has_dimension_zero(self):
        klass = HypothesisClass(np.array([[1, 1, 1]], dtype=np.int8))
        assert vc_dimension_bruteforce(klass) == 0

    def test_full_class_shatters_everything(self):
        rows = np.array(
            [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)],
            dtype=np.int8,
        )
        assert vc_dimension_bruteforce(HypothesisClass(rows)) == 3

    def test_domain_guard_mentions_declared_dimension(self):
        klass = HypothesisClass.with_exact_negatives(30, 1)
        with pytest.raises(ValueError, match="declared_vc"):
            vc_dimension_bruteforce(klass)
