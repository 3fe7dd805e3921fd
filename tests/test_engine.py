"""Tests for the minimization engine, the bound calculators, and pair search."""

import itertools
import math

import numpy as np
import pytest

from paclab import (
    DEFAULT_CONSTANTS,
    Dataset,
    HypothesisClass,
    RngStream,
    Schedule,
    TheoryConstants,
    deviation_bound,
    empirical_disagreement,
    empirical_error,
    erm,
    erm_reference_rate,
    find_disagreeing_pair,
    make_schedule,
    near_optimal_set,
)

from conftest import hyp


def brute_force_erm(klass, data):
    """Independent exhaustive scan, deliberately naive."""
    best_index, best_error = None, None
    for i in range(len(klass)):
        wrong = 0
        h = klass.hypothesis(i)
        for x, y in zip(data.points, data.labels):
            if h.labels[x] != y:
                wrong += 1
        error = wrong / len(data)
        if best_error is None or error < best_error:
            best_index, best_error = i, error
    return best_index, best_error


def brute_force_pair(klass, index_set, data, threshold):
    """Quadratic scan over all index pairs in sorted order."""
    idx = sorted(set(int(i) for i in index_set))
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            frac = empirical_disagreement(
                klass.hypothesis(idx[a]), klass.hypothesis(idx[b]), data
            )
            if frac >= threshold:
                return idx[a], idx[b]
    return None


def random_instance(gen, max_hypotheses=16, max_samples=64):
    u = int(gen.integers(2, 7))
    rows = gen.choice(np.array([-1, 1], dtype=np.int8), size=(max_hypotheses, u))
    rows = np.unique(rows, axis=0)
    if rows.shape[0] < 2:
        rows = np.vstack([rows, -rows[0]])
    klass = HypothesisClass(rows)
    n = int(gen.integers(1, max_samples + 1))
    points = gen.integers(0, u, size=n)
    labels = gen.choice(np.array([-1, 1], dtype=np.int8), size=n)
    return klass, Dataset(points, labels, u)


class TestDeviationBound:
    def test_desk_value(self):
        expected = math.sqrt(0.1 * (5 * math.log(10) + math.log(10)) / 1000) + (
            5 * math.log(200) + math.log(10)
        ) / 1000
        assert deviation_bound(1000, 5, 0.1, 0.1) == pytest.approx(expected, rel=1e-14)
        assert deviation_bound(1000, 5, 0.1, 0.1) == 0.06596339381423262

    def test_zero_beta_drops_root_term(self):
        expected = (5 * math.log(200) + math.log(10)) / 1000
        assert deviation_bound(1000, 5, 0.1, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_noise_log_floored_at_one(self):
        """At beta = 0.5 the level log would be ln 2 < 1; it is clamped."""
        value = deviation_bound(1000, 5, 0.1, 0.5)
        expected = math.sqrt(0.5 * (5 * 1.0 + math.log(10)) / 1000) + (
            5 * math.log(200) + math.log(10)
        ) / 1000
        assert value == pytest.approx(expected, rel=1e-14)

    def test_ratio_log_floored_at_one(self):
        """When n barely exceeds d the additive log clamps to 1."""
        value = deviation_bound(10, 8, 0.5, 0.0)
        assert value == pytest.approx((8 * 1.0 + math.log(2)) / 10, rel=1e-14)

    def test_confidence_log_never_floored(self):
        """Unlike the other logs, ln(1/delta) keeps its raw small value."""
        value = deviation_bound(100, 1, 0.9, 0.0)
        assert value == pytest.approx(
            (math.log(100) + math.log(1 / 0.9)) / 100, rel=1e-12
        )

    def test_vectorized_over_beta(self):
        betas = np.array([0.0, 0.01, 0.1, 0.5, 1.0])
        vec = deviation_bound(1000, 5, 0.1, betas)
        assert isinstance(vec, np.ndarray) and vec.shape == betas.shape
        for b, v in zip(betas, vec):
            assert v == deviation_bound(1000, 5, 0.1, float(b))

    def test_monotone_in_beta_below_knee(self):
        betas = np.linspace(0.001, 1 / math.e, 40)
        values = deviation_bound(10**4, 3, 0.05, betas)
        assert (np.diff(values) >= 0).all()

    def test_scale_multiplies(self):
        base = deviation_bound(1000, 5, 0.1, 0.1)
        doubled = deviation_bound(
            1000, 5, 0.1, 0.1, consts=TheoryConstants(dev_scale=2.0)
        )
        assert doubled == pytest.approx(2 * base, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            deviation_bound(0, 5, 0.1, 0.1)
        with pytest.raises(ValueError):
            deviation_bound(1000, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            deviation_bound(1000, 5, 0.0, 0.1)
        with pytest.raises(ValueError):
            deviation_bound(1000, 5, 1.0, 0.1)
        with pytest.raises(ValueError, match="beta"):
            deviation_bound(1000, 5, 0.1, -0.01)
        with pytest.raises(ValueError, match="beta"):
            deviation_bound(1000, 5, 0.1, 1.01)


class TestErm:
    def test_matches_exhaustive_scan(self):
        gen = RngStream(7, 1).generator()
        for trial in range(200):
            klass, data = random_instance(gen)
            index, gamma = erm(klass, data)
            oracle_index, oracle_gamma = brute_force_erm(klass, data)
            assert (index, gamma) == (oracle_index, oracle_gamma), f"trial {trial}"

    def test_ties_break_to_lowest_index(self):
        klass = HypothesisClass(np.array([[1, 1], [1, -1]], dtype=np.int8))
        data = Dataset(np.array([0, 0]), np.array([1, 1], dtype=np.int8), 2)
        index, gamma = erm(klass, data)
        assert index == 0 and gamma == 0.0

    def test_later_strict_winner_is_found(self):
        klass = HypothesisClass(np.array([[-1, -1], [1, 1]], dtype=np.int8))
        data = Dataset(np.array([0, 1]), np.array([1, 1], dtype=np.int8), 2)
        assert erm(klass, data) == (1, 0.0)

    def test_minimum_is_attained(self):
        gen = RngStream(8, 1).generator()
        for _ in range(50):
            klass, data = random_instance(gen)
            _, gamma = erm(klass, data)
            for i in range(len(klass)):
                assert empirical_error(klass.hypothesis(i), data) >= gamma

    def test_empty_dataset_rejected(self):
        klass = HypothesisClass(np.array([[1, 1]], dtype=np.int8))
        data = Dataset(np.array([0]), np.array([1], dtype=np.int8), 2)
        with pytest.raises(ValueError, match="empty"):
            erm(klass, data.take(slice(0, 0)))


class TestNearOptimalSet:
    @staticmethod
    def _graded_instance():
        """Twenty uniform samples labeled +1; error = flipped points / 20."""
        u = 20
        rows = np.ones((4, u), dtype=np.int8)
        rows[0, :2] = -1
        rows[1, 2:4] = -1
        rows[2, 4:7] = -1
        rows[3, 7:13] = -1
        klass = HypothesisClass(rows)
        data = Dataset(np.arange(u), np.ones(u, dtype=np.int8), u)
        return klass, data

    def test_hand_fixture(self):
        """Errors are {0.1, 0.1, 0.15, 0.3}; the cut at 0.17 keeps three."""
        klass, data = self._graded_instance()
        kept = near_optimal_set(klass, data, gamma=0.1, allowance=0.07)
        assert kept.tolist() == [0, 1, 2]

    def test_zero_allowance_keeps_argmin_set(self):
        klass, data = self._graded_instance()
        assert near_optimal_set(klass, data, 0.1, 0.0).tolist() == [0, 1]

    def test_unit_allowance_keeps_everything(self):
        klass, data = self._graded_instance()
        assert near_optimal_set(klass, data, 0.1, 1.0).tolist() == [0, 1, 2, 3]

    def test_monotone_in_allowance(self):
        gen = RngStream(9, 1).generator()
        for _ in range(50):
            klass, data = random_instance(gen)
            _, gamma = erm(klass, data)
            smaller = set(near_optimal_set(klass, data, gamma, 0.05).tolist())
            larger = set(near_optimal_set(klass, data, gamma, 0.2).tolist())
            assert smaller <= larger
            assert erm(klass, data)[0] in smaller


class TestFindDisagreeingPair:
    @staticmethod
    def _five_hypothesis_fixture():
        """Ten uniform samples; pairwise disagreement is a hand-checked table.

        Rows disagree with row 0 on 0, 2, 3, 4, and 10 points respectively,
        so at threshold 0.3 the first qualifying pair in scan order is (0, 2).
        """
        u = 10
        rows = np.ones((5, u), dtype=np.int8)
        rows[1, :2] = -1
        rows[2, :3] = -1
        rows[3, 3:7] = -1
        rows[4, :] = -1
        klass = HypothesisClass(rows)
        data = Dataset(np.arange(u), np.ones(u, dtype=np.int8), u)
        return klass, data

    def test_hand_table_scan_order(self):
        klass, data = self._five_hypothesis_fixture()
        assert find_disagreeing_pair(klass, range(5), data, 0.3) == (0, 2)

    def test_index_set_order_is_irrelevant(self):
        klass, data = self._five_hypothesis_fixture()
        assert find_disagreeing_pair(klass, [4, 2, 0, 3, 1], data, 0.3) == (0, 2)

    def test_singleton_index_set(self):
        klass, data = self._five_hypothesis_fixture()
        assert find_disagreeing_pair(klass, [3], data, 0.5) is None

    @pytest.mark.parametrize("index_set", [[-1, 0], [0, 5], [2, 9], [-3], [5]])
    def test_indices_outside_the_class_are_rejected(self, index_set):
        """A negative index would wrap to a member and a large one would
        raise a bare IndexError."""
        klass, data = self._five_hypothesis_fixture()
        with pytest.raises(ValueError, match="indices"):
            find_disagreeing_pair(klass, index_set, data, 0.0)

    def test_complementary_pair_at_full_threshold(self):
        klass, data = self._five_hypothesis_fixture()
        assert find_disagreeing_pair(klass, [0, 4], data, 1.0) == (0, 4)

    def test_absent_iff_oracle_finds_nothing(self):
        gen = RngStream(10, 1).generator()
        for trial in range(100):
            klass, data = random_instance(gen, max_hypotheses=24)
            threshold = float(gen.uniform(0.05, 0.9))
            index_set = range(len(klass))
            got = find_disagreeing_pair(klass, index_set, data, threshold)
            expected = brute_force_pair(klass, index_set, data, threshold)
            assert got == expected, f"trial {trial}: {got} vs {expected}"

    def test_sorted_shuffled_and_repeated_sets_give_one_pair(self):
        gen = RngStream(29, 1).generator()
        for trial in range(100):
            klass, data = random_instance(gen, max_hypotheses=24)
            threshold = float(gen.uniform(0.05, 0.9))
            size = int(gen.integers(0, len(klass) + 1))
            ordered = np.sort(gen.choice(len(klass), size=size, replace=False))
            repeated = np.concatenate([ordered, gen.choice(ordered, size=size)]) if size else ordered
            expected = brute_force_pair(klass, ordered, data, threshold)
            for index_set in (ordered, gen.permutation(ordered), repeated, np.sort(repeated)):
                got = find_disagreeing_pair(klass, index_set, data, threshold)
                assert got == expected, f"trial {trial}: {index_set} gave {got}, expected {expected}"

    def test_a_sorted_unique_set_is_scanned_without_np_unique(self, monkeypatch):
        """near_optimal_set already returns its indices sorted and unique;
        only a set that is not is sorted again."""
        klass, data = self._five_hypothesis_fixture()
        calls = []
        unique = np.unique

        def recording_unique(*args, **kwargs):
            calls.append(args[0])
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", recording_unique)
        assert find_disagreeing_pair(klass, np.arange(5), data, 0.3) == (0, 2)
        assert find_disagreeing_pair(klass, [0, 2, 4], data, 0.3) == (0, 2)
        assert calls == []
        assert find_disagreeing_pair(klass, [2, 0, 4], data, 0.3) == (0, 2)
        assert find_disagreeing_pair(klass, [0, 0, 2], data, 0.3) == (0, 2)
        assert find_disagreeing_pair(klass, [[0, 2], [3, 4]], data, 0.3) == (0, 2)
        assert len(calls) == 3

    def test_returned_pair_meets_threshold(self):
        klass, data = self._five_hypothesis_fixture()
        pair = find_disagreeing_pair(klass, range(5), data, 0.3)
        i, j = pair
        assert (
            empirical_disagreement(klass.hypothesis(i), klass.hypothesis(j), data)
            >= 0.3
        )


class TestMakeSchedule:
    def test_desk_round_count(self):
        """An estimate of 0.01 gives ceil(ln(100) * ln ln(100)) = 8 rounds."""
        schedule = make_schedule(0.01, 10**4, 5, 0.1)
        assert schedule.rounds == 8

    def test_round_count_clamps_to_one(self):
        assert make_schedule(0.5, 1000, 5, 0.1).rounds == 1

    def test_exit_threshold_formula(self):
        schedule = make_schedule(0.01, 10**4, 5, 0.1)
        log_ratio = math.log(10**4 / 5)
        expected = 8 * log_ratio**2 * (5 * log_ratio + math.log(10)) / 10**4
        assert schedule.exit_threshold == pytest.approx(expected, rel=1e-14)

    def test_rounds_scale(self):
        schedule = make_schedule(0.01, 10**4, 5, 0.1, TheoryConstants(rounds_scale=2.0))
        assert schedule.rounds == math.ceil(2 * math.log(100) * math.log(math.log(100)))

    def test_exit_scale_is_linear(self):
        base = make_schedule(0.01, 10**4, 5, 0.1)
        doubled = make_schedule(0.01, 10**4, 5, 0.1, TheoryConstants(exit_scale=2.0))
        assert doubled.exit_threshold == pytest.approx(2 * base.exit_threshold)

    def test_validation(self):
        with pytest.raises(ValueError, match="err_estimate"):
            make_schedule(0.0, 1000, 5, 0.1)
        with pytest.raises(ValueError, match="err_estimate"):
            make_schedule(1.0, 1000, 5, 0.1)
        with pytest.raises(ValueError, match="n > d"):
            make_schedule(0.1, 5, 5, 0.1)
        with pytest.raises(ValueError, match="delta"):
            make_schedule(0.1, 1000, 5, 1.5)

    def test_an_infinite_round_count_names_rounds_scale(self):
        """rounds_scale = 1e308 times ln(100) * ln ln(100) overflows to inf,
        which math.ceil cannot turn into a round count."""
        with pytest.raises(ValueError, match="rounds_scale = 1e\\+308 gives an infinite round count"):
            make_schedule(0.01, 10**4, 5, 0.1, TheoryConstants(rounds_scale=1e308))


class TestScheduleAndConstants:
    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            Schedule(0, 0.5)
        with pytest.raises(ValueError, match="rounds"):
            Schedule(1.5, 0.5)
        with pytest.raises(ValueError, match="exit_threshold"):
            Schedule(1, 0.0)

    def test_constants_must_be_positive(self):
        with pytest.raises(ValueError, match="dev_scale"):
            TheoryConstants(dev_scale=0.0)
        with pytest.raises(ValueError, match="exit_scale"):
            TheoryConstants(exit_scale=-1.0)

    def test_defaults_are_all_one(self):
        assert DEFAULT_CONSTANTS == TheoryConstants()
        assert DEFAULT_CONSTANTS.dev_scale == 1.0


class TestErmReferenceRate:
    def test_zero_noise_leaves_additive_term(self):
        expected = (2 * math.log(500) + math.log(10)) / 1000
        assert erm_reference_rate(1000, 2, 0.1, 0.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_desk_value(self):
        n, d, delta, tau = 10**4, 10, 0.05, 0.05
        expected = (
            tau
            + math.sqrt(tau * (d * math.log(1 / tau) + math.log(1 / delta)) / n)
            + (d * math.log(n / d) + math.log(1 / delta)) / n
        )
        assert erm_reference_rate(n, d, delta, tau) == pytest.approx(
            expected, rel=1e-14
        )

    def test_is_tau_plus_the_deviation_bound(self):
        """The root and additive terms are deviation_bound's at beta = tau,
        bit for bit."""
        grid = itertools.product(
            (20, 1000, 10**4, 10**9), (1, 3, 10), (0.01, 0.1, 0.5), (0.0, 1e-6, 0.05, 1 / math.e, 0.5, 1.0)
        )
        for n, d, delta, tau in grid:
            assert erm_reference_rate(n, d, delta, tau) == tau + deviation_bound(n, d, delta, tau)

    def test_monotone_below_knee(self):
        taus = np.linspace(1e-4, 1 / math.e, 60)
        values = [erm_reference_rate(10**4, 3, 0.1, float(t)) for t in taus]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            erm_reference_rate(1000, 2, 0.1, -0.1)
        with pytest.raises(ValueError, match="tau"):
            erm_reference_rate(1000, 2, 0.1, 1.1)
