"""Tests for the hard-instance generator, its learners, and the bin simulation."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from paclab import (
    AdversaryInstance,
    CountTable,
    Hypothesis,
    RngStream,
    SamplePieces,
    balls_low_count_rate,
    build_distribution,
    choose_parameters,
    is_failure,
    least_frequent_learner,
    low_count_threshold,
    run_adversary_trials,
    skew_for_domain,
    subset_rank,
    subset_unrank,
    true_error,
)
from paclab import adversary
from paclab.adversary import AdversaryTrial


def truth_oracle_learner(table, instance):
    """Cheats by reading the instance; never fails by construction."""
    return instance.truth_hypothesis()


def fixed_prefix_learner(table, instance):
    """Ignores the sample and always distrusts the first d points."""
    labels = np.ones(instance.domain_size, dtype=np.int8)
    labels[: instance.negatives] = -1
    return Hypothesis(labels)


def positive_table(counts):
    """The count table of a sample labeled all +1 with these point counts."""
    return CountTable(np.stack([np.zeros(len(counts), dtype=np.int64), counts], axis=1))


class TestAdversaryInstance:
    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            AdversaryInstance(10, 0, 0.1, 0)
        with pytest.raises(ValueError, match="too small"):
            AdversaryInstance(3, 2, 0.1, 0)
        with pytest.raises(ValueError, match="skew"):
            AdversaryInstance(10, 2, 1.0, 0)
        with pytest.raises(ValueError, match="skew"):
            AdversaryInstance(10, 2, -0.1, 0)
        with pytest.raises(ValueError, match="truth_rank"):
            AdversaryInstance(4, 2, 0.1, 6)

    def test_a_non_integer_truth_rank_is_refused(self):
        for bad in (1.5, 1.0, np.float64(1)):
            with pytest.raises(ValueError, match="truth_rank must be an integer"):
                AdversaryInstance(6, 2, 0.1, bad)
        ranked = AdversaryInstance(6, 2, 0.1, np.int64(1))
        assert ranked.truth_negative_points().tolist() == [0, 2]

    def test_truth_points_follow_the_rank(self):
        instance = AdversaryInstance(5, 2, 0.1, 0)
        assert instance.truth_negative_points().tolist() == [0, 1]
        last = AdversaryInstance(5, 2, 0.1, math.comb(5, 2) - 1)
        assert last.truth_negative_points().tolist() == [3, 4]

    def test_truth_hypothesis_labels(self):
        instance = AdversaryInstance(4, 2, 0.25, 0)
        assert instance.truth_hypothesis().labels.tolist() == [-1, -1, 1, 1]

    def test_opt_error_closed_form(self):
        for u, d, skew in [(4, 1, 0.5), (10, 2, 0.1), (50, 5, 0.0), (200, 7, 0.02)]:
            instance = AdversaryInstance(u, d, skew, 0)
            assert instance.opt_error == pytest.approx((1 - skew) * d / u, abs=1e-15)
            dist = build_distribution(instance)
            measured = true_error(instance.truth_hypothesis(), dist)
            assert measured == pytest.approx(instance.opt_error, abs=1e-12)


class TestBuildDistribution:
    def test_desk_masses(self):
        instance = AdversaryInstance(4, 1, 0.5, 0)
        marginal = build_distribution(instance).point_marginal()
        assert marginal[0] == pytest.approx(0.125, abs=1e-15)
        np.testing.assert_allclose(marginal[1:], 0.875 / 3)

    def test_zero_skew_is_uniform(self):
        instance = AdversaryInstance(6, 2, 0.0, 3)
        np.testing.assert_allclose(
            build_distribution(instance).point_marginal(), 1 / 6
        )

    def test_normalized_and_all_positive_labels(self):
        instance = AdversaryInstance(30, 4, 0.01, 1000)
        dist = build_distribution(instance)
        assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.mass[:, 0].sum() == 0.0

    def test_truth_is_uniquely_optimal(self):
        """With positive skew, every wrong labeling pays strictly more."""
        u, d = 8, 2
        instance = AdversaryInstance(u, d, 0.3, 11)
        marginal = build_distribution(instance).point_marginal()
        truth_cost = marginal[instance.truth_negative_points()].sum()
        for rank in range(math.comb(u, d)):
            if rank == instance.truth_rank:
                continue
            cost = marginal[subset_unrank(u, d, rank)].sum()
            assert cost > truth_cost + 1e-12, f"rank {rank} not strictly worse"


class TestSkewForDomain:
    def test_uncapped_value(self):
        value = skew_for_domain(4, 2, 10**6, 3)
        assert value == pytest.approx(
            math.sqrt(4 * math.log(2) / (10**6 * 3)), rel=1e-14
        )

    def test_cap_binds(self):
        assert skew_for_domain(50, 2, 10**4, 576) == 1.0 / 576

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            skew_for_domain(2, 2, 1000, 3)


class TestChooseParameters:
    def test_desk_fixed_point(self):
        assert choose_parameters(0.05, 2, 10**4, 576) == (40, 1.0 / 576)

    def test_desk_fixed_point_with_adjustment(self):
        """A target chosen so the first rounding moves the domain size."""
        u, alpha = choose_parameters(575 / 14400, 2, 10**4, 576)
        assert (u, alpha) == (50, 1.0 / 576)

    def test_capped_branch_consistency(self):
        """Whenever the cap binds, the domain matches the shaved target."""
        for tau in [0.02, 0.05, 0.08, 0.1]:
            u, alpha = choose_parameters(tau, 2, 10**4, 576)
            if alpha == 1.0 / 576:
                assert u == round((1 - alpha) * 2 / tau)

    def test_resulting_instance_hits_the_target(self):
        tau = 0.05
        u, alpha = choose_parameters(tau, 2, 10**4, 576)
        instance = AdversaryInstance(u, 2, alpha, 0)
        assert instance.opt_error == pytest.approx(tau, rel=0.02)

    def test_out_of_range_targets(self):
        with pytest.raises(ValueError, match="parameters out of range"):
            choose_parameters(0.6, 2, 10**4, 576)
        with pytest.raises(ValueError, match="parameters out of range"):
            choose_parameters(0.9, 2, 10**4, 576)
        with pytest.raises(ValueError, match="target error"):
            choose_parameters(0.0, 2, 10**4, 576)


class TestLeastFrequentLearner:
    def test_picks_rarest_points_with_low_ties(self):
        table = positive_table([5, 1, 4, 1, 9, 2])
        h = least_frequent_learner(table, AdversaryInstance(6, 2, 0.1, 0))
        assert np.flatnonzero(h.labels == -1).tolist() == [1, 3]

    def test_all_equal_counts_take_the_prefix(self):
        table = positive_table([1, 1, 1, 1])
        h = least_frequent_learner(table, AdversaryInstance(4, 2, 0.1, 0))
        assert np.flatnonzero(h.labels == -1).tolist() == [0, 1]

    def test_unseen_points_count_as_zero(self):
        table = positive_table([2, 1, 0, 0, 0])
        h = least_frequent_learner(table, AdversaryInstance(5, 2, 0.1, 0))
        assert np.flatnonzero(h.labels == -1).tolist() == [2, 3]


class TestIsFailure:
    def test_truth_never_fails(self):
        instance = AdversaryInstance(10, 2, 0.2, 17)
        assert is_failure(instance.truth_hypothesis(), instance) is False

    def test_disjoint_guess_fails_with_the_premium(self):
        instance = AdversaryInstance(10, 2, 0.2, 0)
        labels = np.ones(10, dtype=np.int8)
        labels[[5, 6]] = -1
        h = Hypothesis(labels)
        assert is_failure(h, instance) is True
        dist = build_distribution(instance)
        premium = instance.skew * 2 / (2 * 10)
        assert true_error(h, dist) >= instance.opt_error + premium - 1e-12

    def test_half_overlap_counts_as_failure(self):
        instance = AdversaryInstance(10, 2, 0.2, 0)
        labels = np.ones(10, dtype=np.int8)
        labels[[0, 5]] = -1
        assert is_failure(Hypothesis(labels), instance) is True

    def test_every_labeling_fails_as_its_overlap_with_the_truth_says(self):
        """Over every truth and every guess of (u, d) = (6, 2): a guess fails
        exactly when it shares at most half the truth points, and its error
        under the instance's distribution pays the premium when it does."""
        for rank in range(math.comb(6, 2)):
            instance = AdversaryInstance(6, 2, 0.2, rank)
            dist = build_distribution(instance)
            truth = set(instance.truth_negative_points().tolist())
            for negatives in range(math.comb(6, 2)):
                labels = np.ones(6, dtype=np.int8)
                guess = subset_unrank(6, 2, negatives)
                labels[guess] = -1
                h = Hypothesis(labels)
                overlap = len(truth.intersection(guess.tolist()))
                assert is_failure(h, instance) is (2 * overlap <= 2)
                if 2 * overlap <= 2:
                    premium = instance.skew * 2 / (2 * 6)
                    assert true_error(h, dist) >= instance.opt_error + premium - 1e-12

    def test_wrong_negative_count_rejected(self):
        instance = AdversaryInstance(10, 2, 0.2, 0)
        labels = np.ones(10, dtype=np.int8)
        labels[:3] = -1
        with pytest.raises(ValueError, match="exactly"):
            is_failure(Hypothesis(labels), instance)


def play_one_game(u, d, n, skew, rng, j, learner):
    """Game j written out the per-game way: the instance's distribution and
    its drawn pieces, the learner, then is_failure and the error read off
    the distribution's mass table."""
    gen = RngStream(rng.seed, rng.stream + 1 + j).generator()
    truth = adversary._draw_subset(u, d, gen)
    instance = AdversaryInstance(u, d, skew, subset_rank(u, d, truth))
    dist = build_distribution(instance)
    table = SamplePieces.drawn(dist, n, gen).take(n)
    h = learner(table, instance)
    failed = is_failure(h, instance)
    error = float(dist.mass[np.flatnonzero(h.labels == -1), 1].sum())
    return AdversaryTrial(j, instance.truth_rank, failed, error, instance.opt_error, skew), table


def recording(learner):
    """The learner, keeping every table it is handed."""
    tables = []

    def wrapped(table, instance):
        tables.append(table)
        return learner(table, instance)

    return wrapped, tables


def off_by_one_learner(delta, game):
    """least_frequent_learner, except that on its game-th call it labels
    d + delta points negative."""
    calls = []

    def learner(table, instance):
        calls.append(None)
        if len(calls) - 1 != game:
            return least_frequent_learner(table, instance)
        labels = np.ones(instance.domain_size, dtype=np.int8)
        labels[: instance.negatives + delta] = -1
        return Hypothesis(labels)

    return learner


class TestRunAdversaryTrials:
    @pytest.mark.parametrize(
        "u, d, n, skew",
        [(20, 2, 200, 0.05), (23, 3, 2000, 0.0123), (40, 4, 10**6, 0.01), (60, 5, 5000, 0.002),
         (11, 5, 10**6, 0.3), (7, 1, 300, 0.1)],
    )
    @pytest.mark.parametrize(
        "learner", [least_frequent_learner, truth_oracle_learner, fixed_prefix_learner],
        ids=["least_frequent", "truth_oracle", "fixed_prefix"],
    )
    def test_chunks_equal_games_played_one_by_one(self, u, d, n, skew, learner):
        """105 games span a full chunk and part of the next."""
        rng = RngStream(21, 3)
        batched_learner, batched_tables = recording(learner)
        batched = run_adversary_trials(u, d, n, skew, 105, rng, batched_learner)
        assert len(batched) == 105
        for j, trial in enumerate(batched):
            want, table = play_one_game(u, d, n, skew, rng, j, learner)
            assert trial == want
            assert type(trial.failed) is bool and type(trial.learner_error) is float
            assert len(batched_tables[j]) == n
            assert np.array_equal(batched_tables[j].counts, table.counts)

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("game", [0, 57, 104])
    def test_a_wrong_negative_count_anywhere_in_a_chunk_is_rejected(self, delta, game):
        learner = off_by_one_learner(delta, game)
        with pytest.raises(ValueError, match=f"labels {3 + delta} points negative, expected exactly 3"):
            run_adversary_trials(23, 3, 2000, 0.0123, 105, RngStream(21, 3), learner)

    def test_every_game_of_a_batch_is_cross_checked(self):
        """Every game of a batch gets is_failure's answer, and the closed
        form catches one game in the middle whose error is read from the
        wrong masses."""
        u, d, skew = 10, 2, 0.2
        instances = [AdversaryInstance(u, d, skew, rank) for rank in range(math.comb(u, d))]
        dists = [build_distribution(instance) for instance in instances]
        truths = np.array([instance.truth_negative_points() for instance in instances])
        marginals = np.array([dist.mass[:, 1] for dist in dists])
        labels = np.ones((len(instances), u), dtype=np.int8)
        labels[:, :d] = -1
        failed, errors = adversary._check_games(labels, truths, marginals, u, d, skew)
        h = Hypothesis(labels[0])
        for k, (instance, dist) in enumerate(zip(instances, dists)):
            assert failed[k] == is_failure(h, instance)
            assert errors[k] == float(dist.mass[:d, 1].sum())
        marginals[30] = marginals[0]
        with pytest.raises(RuntimeError, match="closed form"):
            adversary._check_games(labels, truths, marginals, u, d, skew)

    def test_a_stream_past_64_bits_is_rejected(self):
        """Game 0 takes the last stream; game 1 would need stream 2^64."""
        with pytest.raises(ValueError, match="stream must fit"):
            run_adversary_trials(20, 2, 200, 0.05, 3, RngStream(1, 2**64 - 2))

    def test_chunks_are_bounded_by_cells(self):
        assert adversary._chunk_games(50) == 100
        assert adversary._chunk_games(5242) == 100
        assert adversary._chunk_games(20000) == 26
        assert adversary._chunk_games(1_996_528) == 1

    def test_a_wide_domain_holds_a_bounded_chunk(self):
        """At u = 20000 a chunk stacks 26 games (about 14 MB traced), not
        all 60 (30 MB), and its rows still equal the games played one by
        one."""
        u, d, n, skew, rng = 20000, 2, 10**5, 1e-3, RngStream(8, 1)
        tracemalloc.start()
        try:
            trials = run_adversary_trials(u, d, n, skew, 60, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert trials == [play_one_game(u, d, n, skew, rng, j, least_frequent_learner)[0]
                          for j in range(60)]

    def test_deterministic_per_stream(self):
        a = run_adversary_trials(20, 2, 200, 0.05, 8, RngStream(3, 10))
        b = run_adversary_trials(20, 2, 200, 0.05, 8, RngStream(3, 10))
        assert a == b

    def test_truth_ranks_are_drawn_before_the_sample(self):
        """The truth comes first off each trial's stream, so the truth
        sequence does not depend on how the sample is drawn."""
        trials = run_adversary_trials(20, 2, 200, 0.05, 8, RngStream(3, 10))
        assert [t.truth_rank for t in trials] == [189, 81, 105, 161, 56, 32, 101, 60]

    def test_a_billion_samples_cost_a_table(self):
        """A game reads an O(u) table, so n = 10^9 takes no n-sized memory."""
        start = time.perf_counter()
        trials = run_adversary_trials(50, 2, 10**9, 1 / 576, 2, RngStream(606, 0))
        assert time.perf_counter() - start < 1.0
        assert len(trials) == 2
        for trial in trials:
            assert trial.learner_error >= trial.opt_error

    def test_prefix_property(self):
        """Trial j only depends on its own child stream, not the total."""
        short = run_adversary_trials(20, 2, 200, 0.05, 5, RngStream(3, 10))
        long = run_adversary_trials(20, 2, 200, 0.05, 10, RngStream(3, 10))
        assert long[:5] == short

    def test_trial_bookkeeping(self):
        trials = run_adversary_trials(20, 2, 200, 0.05, 20, RngStream(4, 1))
        expected_opt = (1 - 0.05) * 2 / 20
        ranks = set()
        for j, trial in enumerate(trials):
            assert trial.trial_index == j
            assert trial.skew == 0.05
            assert trial.opt_error == pytest.approx(expected_opt, abs=1e-15)
            assert trial.learner_error >= trial.opt_error - 1e-12
            ranks.add(trial.truth_rank)
        assert len(ranks) > 1, "truth labelings never varied"


class TestFailureRate:
    def test_truth_oracle_never_fails(self):
        trials = run_adversary_trials(
            20, 2, 100, 0.05, 50, RngStream(6, 1), learner=truth_oracle_learner
        )
        assert len(trials) == 50
        assert not any(trial.failed for trial in trials)

    def test_fixed_learner_matches_hypergeometric_rate(self):
        """A data-blind learner fails per a closed-form overlap count.

        With 4 truth points drawn uniformly from 10 and a frozen guess, the
        chance of overlap at least 3 is 25/210, so the failure rate must
        concentrate near 185/210.
        """
        trials = 2000
        games = run_adversary_trials(
            10, 4, 50, 0.1, trials, RngStream(7, 1), learner=fixed_prefix_learner
        )
        rate = sum(game.failed for game in games) / trials
        stderr = math.sqrt(rate * (1.0 - rate) / trials)
        expected = 185 / 210
        assert stderr > 0
        assert abs(rate - expected) <= 3 * stderr + 1e-9


class TestLowCountThreshold:
    def test_desk_value(self):
        expected = 100 - math.sqrt(100 * math.log(5)) / 6
        assert low_count_threshold(1000, 0.1, 5, 1) == pytest.approx(
            expected, rel=1e-14
        )

    def test_zero_k_limit(self):
        assert low_count_threshold(1000, 0.1, 5, 0) == 50.0

    def test_floor_at_half_the_mean(self):
        assert low_count_threshold(100, 0.12, 10**60, 1) == 6.0


class TestBallsLowCountRate:
    def test_guards(self):
        rng = RngStream(1, 1)
        with pytest.raises(ValueError, match="probability"):
            balls_low_count_rate(1000, 10, 5, 0.001, 1, 10, rng)
        with pytest.raises(ValueError, match="probability"):
            balls_low_count_rate(1000, 10, 5, 0.6, 1, 10, rng)
        with pytest.raises(ValueError, match="designated"):
            balls_low_count_rate(1000, 4, 5, 0.1, 1, 10, rng)
        with pytest.raises(ValueError, match="unit mass"):
            balls_low_count_rate(1000, 20, 11, 0.1, 1, 10, rng)

    def test_zero_k_is_certain(self):
        assert balls_low_count_rate(1000, 10, 5, 0.1, 0, 10, RngStream(1, 1)) == (
            1.0,
            0.0,
        )

    def test_single_cell_matches_binomial_oracle(self):
        """One designated cell reduces to a binomial tail computed exactly."""
        n, p, trials = 500, 0.1, 3000
        assert low_count_threshold(n, p, 1, 1) == 50.0
        log_q = math.log(1 - p)
        log_p = math.log(p)
        tail = 0.0
        for i in range(50):
            log_pmf = (
                math.lgamma(n + 1)
                - math.lgamma(i + 1)
                - math.lgamma(n - i + 1)
                + i * log_p
                + (n - i) * log_q
            )
            tail += math.exp(log_pmf)
        rate, stderr = balls_low_count_rate(n, 10, 1, p, 1, trials, RngStream(9, 1))
        assert abs(rate - tail) <= 3 * stderr + 1e-9

    def test_deterministic_per_stream(self):
        a = balls_low_count_rate(500, 10, 4, 0.1, 1, 200, RngStream(2, 5))
        b = balls_low_count_rate(500, 10, 4, 0.1, 1, 200, RngStream(2, 5))
        assert a == b
