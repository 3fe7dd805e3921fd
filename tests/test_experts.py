"""Tests for the pair-routing trainer, its trace, and the diagnostic reports."""

import math

import numpy as np
import pytest

from paclab import (
    DEFAULT_CONSTANTS,
    BREAK_REASONS,
    CompositeClassifier,
    CoreTrace,
    Dataset,
    DiscreteDistribution,
    HypothesisClass,
    IterationRecord,
    REASON_COMPLETED,
    REASON_EARLY_EXIT,
    REASON_EMPTY_BLOCK,
    REASON_NO_PAIR,
    RngStream,
    Schedule,
    TheoryConstants,
    core_train,
    deviation_bound,
    diagnose_failure_events,
    dsubset_adversary,
    exact_progress_report,
    measures,
    sample_dataset,
    train,
    two_experts,
)

from conftest import hyp


def alternating_dataset(n, labels=None, domain_size=2):
    """Points 0,1,0,1,... with all-positive labels unless given."""
    points = np.tile(np.array([0, 1]), (n + 1) // 2)[:n]
    if labels is None:
        labels = np.ones(n, dtype=np.int8)
    return Dataset(points, np.asarray(labels, dtype=np.int8), domain_size)


def make_trace(selected=(), records=(), filter_half=1, d=1, delta=0.1,
               schedule=None, consts=DEFAULT_CONSTANTS):
    """Hand-assembled trace for exercising the diagnostic functions."""
    return CoreTrace(
        records=tuple(records),
        selected=tuple(selected),
        selected_indices=tuple((0, 1) for _ in selected),
        break_reason=REASON_COMPLETED,
        schedule=schedule if schedule is not None else Schedule(1, 0.5),
        err_estimate=0.5,
        filter_half=filter_half,
        holdout_half=0,
        agree_side_size=0,
        disagree_side_size=0,
        agree_defaulted=False,
        disagree_defaulted=False,
        d=d,
        delta=delta,
        consts=consts,
    )


class TestCompositeClassifier:
    def _composite(self):
        pair = (hyp(1, 1, -1, -1), hyp(1, -1, -1, 1))
        return CompositeClassifier((pair,), hyp(1, 1, 1, 1), hyp(-1, -1, -1, -1))

    def test_routing_mask(self):
        assert self._composite().routing_mask().tolist() == [True, False, True, False]

    def test_tabulate_merges_both_sides(self):
        assert self._composite().tabulate().labels.tolist() == [1, -1, 1, -1]

    def test_predict_routes_per_point(self):
        model = self._composite()
        assert model(0) == 1
        assert model(1) == -1
        assert hyp(-1, 1)(0) == -1

    def test_no_pairs_routes_everything_to_agreement(self):
        model = CompositeClassifier((), hyp(1, -1), hyp(-1, 1))
        assert model.tabulate().labels.tolist() == [1, -1]


class TestCoreTrain:
    def test_complement_pair_hand_trace(self, complement_pair_class):
        """One round on 10^4 filtered samples picks the complementary pair.

        Every quantity here is small enough to check by hand: the minimum
        empirical error is exactly 0.5, the threshold for the pair scan is
        0.5, and the two hypotheses disagree on every sample.
        """
        data = alternating_dataset(20_000)
        classifier, trace = core_train(
            data, complement_pair_class, d=1, delta=0.1, err_estimate=0.5
        )
        assert trace.schedule.rounds == 1
        log_ratio = math.log(10_000)
        expected_z = log_ratio**2 * (log_ratio + math.log(10)) / 10_000
        assert trace.schedule.exit_threshold == pytest.approx(expected_z, rel=1e-12)

        assert trace.break_reason == REASON_COMPLETED
        assert trace.pair_count == 1
        assert trace.selected_indices == ((0, 1),)
        assert len(trace.records) == 1
        record = trace.records[0]
        assert record.step == 1
        assert record.block_size == 10_000
        assert len(record.kept) == 10_000
        assert record.min_error == 0.5
        assert record.candidates.tolist() == [0, 1]
        assert record.pair_indices == (0, 1)

        assert trace.filter_half == 10_000 and trace.holdout_half == 10_000
        assert trace.agree_side_size == 0
        assert trace.disagree_side_size == 10_000
        assert trace.agree_defaulted is True
        assert trace.disagree_defaulted is False
        assert classifier.on_agreement.labels.tolist() == [1, -1]
        assert classifier.on_disagreement.labels.tolist() == [1, -1]

    def test_zero_error_exits_early(self, complement_pair_class):
        """A realizable block stops the loop before any pair search."""
        data = alternating_dataset(100)
        data = Dataset(np.zeros(100, dtype=np.int64), np.ones(100, dtype=np.int8), 2)
        _, trace = core_train(
            data, complement_pair_class, d=1, delta=0.1, err_estimate=0.25
        )
        assert trace.break_reason == REASON_EARLY_EXIT
        assert trace.pair_count == 0
        record = trace.records[-1]
        assert record.min_error == 0.0
        assert record.candidates is None and record.pair_indices is None
        assert trace.disagree_side_size == 0
        assert trace.disagree_defaulted is True

    def test_no_qualifying_pair(self):
        """Hypotheses that only differ on an unsampled point never pair up."""
        klass = HypothesisClass(np.array([[1, 1, 1], [1, 1, -1]], dtype=np.int8))
        half_labels = np.concatenate(
            [-np.ones(800, dtype=np.int8), np.ones(1200, dtype=np.int8)]
        )
        data = alternating_dataset(
            4000, labels=np.concatenate([half_labels, half_labels]), domain_size=3
        )
        _, trace = core_train(data, klass, d=1, delta=0.1, err_estimate=0.4)
        assert trace.schedule.rounds == 1
        assert trace.break_reason == REASON_NO_PAIR
        assert trace.pair_count == 0
        record = trace.records[0]
        assert record.min_error == pytest.approx(0.4)
        assert record.candidates.tolist() == [0, 1]
        assert record.pair_indices is None

    def test_empty_block_breaks_with_its_own_reason(self, complement_pair_class):
        """More rounds than filter samples gives a zero-length first block."""
        data = alternating_dataset(8)
        _, trace = core_train(
            data, complement_pair_class, d=1, delta=0.1, err_estimate=0.01
        )
        assert trace.schedule.rounds == 8
        assert trace.break_reason == REASON_EMPTY_BLOCK
        record = trace.records[0]
        assert record.block_size == 0 and len(record.kept) == 0
        assert record.min_error is None and record.candidates is None

    def test_more_rounds_than_a_filter_half_can_hold_break_on_an_empty_block(self):
        """A direct train call at rounds_scale = 1e300 schedules about 1e300
        rounds for a filter half of 500 samples: its plan lays out one empty
        block and the whole half, and the loop stops at the empty block."""
        fixture = two_experts(0.2)
        data = sample_dataset(fixture.distribution, 3000, RngStream(5))
        result = train(data, fixture.klass, 1, 0.1, TheoryConstants(rounds_scale=1e300))
        trace = result.trace
        assert trace.schedule.rounds > 10**299
        assert trace.break_reason == REASON_EMPTY_BLOCK
        (record,) = trace.records
        assert (record.step, record.block_size, len(record.kept)) == (1, 0, 0)
        assert record.min_error is None and record.candidates is None
        assert trace.filter_half == 500 and trace.holdout_half == 500

    def test_break_reason_vocabulary(self):
        assert BREAK_REASONS == (
            "completed",
            "gamma_below_Zt",
            "no_disagreeing_pair",
            "empty_Ti",
        )

    def test_validation(self, complement_pair_class):
        tiny = alternating_dataset(2).take(slice(0, 1))
        with pytest.raises(ValueError, match="at least 2"):
            core_train(tiny, complement_pair_class, 1, 0.1, 0.5)


class TestTrain:
    def test_realizable_estimate_clamps_up(self):
        """A zero estimate is nudged to half a sample's worth of error."""
        klass = HypothesisClass(np.array([[1, 1], [1, -1]], dtype=np.int8))
        result = train(alternating_dataset(300), klass, d=1, delta=0.1)
        assert result.err_estimate == 1.0 / 200
        assert result.trace.break_reason == REASON_EARLY_EXIT
        assert result.trace.records[0].min_error == 0.0
        assert result.chose_core is True
        assert result.output_hypothesis().labels.tolist() == [1, 1]

    def test_hopeless_estimate_clamps_down(self):
        """An estimate of exactly 1 is pulled just below it."""
        klass = HypothesisClass(np.array([[-1, -1]], dtype=np.int8))
        result = train(alternating_dataset(30), klass, d=1, delta=0.1)
        assert result.err_estimate == 0.95
        assert result.validation_erm == 1.0
        assert result.output_hypothesis().labels.tolist() == [-1, -1]

    def test_validation_tie_prefers_routing_classifier(self, complement_pair_class):
        result = train(alternating_dataset(30_000), complement_pair_class, 1, 0.1)
        assert result.validation_core == result.validation_erm == 0.5
        assert result.chose_core is True
        assert isinstance(result.classifier, CompositeClassifier)
        assert result.trace.pair_count == 1
        assert result.erm_hypothesis.labels.tolist() == [1, -1]

    def test_thirds_are_contiguous(self, complement_pair_class):
        """The trace's halves come from the middle third alone."""
        result = train(alternating_dataset(31), complement_pair_class, 1, 0.1)
        assert result.trace.filter_half == 5
        assert result.trace.holdout_half == 5

    def test_too_small_rejected(self, complement_pair_class):
        with pytest.raises(ValueError, match="at least 3"):
            train(alternating_dataset(2), complement_pair_class, 1, 0.1)


def off_support_instance():
    """Four hypotheses that only differ where the distribution has no mass."""
    rows = np.array(
        [[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, 1], [1, 1, -1, -1]], dtype=np.int8
    )
    mass = np.zeros((4, 2))
    mass[0, 1] = 0.5
    mass[1, 1] = 0.5
    return HypothesisClass(rows), DiscreteDistribution(mass)


class TestDiagnoseFailureEvents:
    def _report(self, consts=DEFAULT_CONSTANTS, n=100_000):
        klass, dist = off_support_instance()
        sample = sample_dataset(dist, n, RngStream(5, 1))
        record = IterationRecord(1, n, sample, 0.0, np.arange(4), None)
        trace = make_trace(
            records=[record], filter_half=n, d=2, delta=0.1, consts=consts
        )
        return diagnose_failure_events(trace, klass, dist)

    def test_degenerate_instance_has_no_events(self):
        """Zero deviation on every candidate and every candidate pair."""
        report = self._report()
        assert len(report.iterations) == 1
        events = report.iterations[0]
        assert events.hypothesis_event is False
        assert events.pair_event is False
        assert events.worst_hypothesis_deviation == 0.0
        assert events.worst_pair_deviation == 0.0
        assert events.worst_hypothesis_allowance > 0.0
        assert events.worst_pair_allowance > 0.0
        assert events.tiny_sample is False

    def test_allowance_is_one_thirtysecond_of_the_bound(self):
        """Default allowance equals the unit-scale bound divided by 32."""
        report = self._report()
        raw = deviation_bound(100_000, 2, 0.1, 0.0)
        assert report.iterations[0].worst_hypothesis_allowance == pytest.approx(
            raw / 32.0, rel=1e-12
        )

    def test_scale_thirtytwo_recovers_the_raw_bound(self):
        report = self._report(consts=TheoryConstants(dev_scale=32.0))
        raw = deviation_bound(100_000, 2, 0.1, 0.0)
        assert report.iterations[0].worst_hypothesis_allowance == pytest.approx(
            raw, rel=1e-12
        )

    def test_single_sample_block_is_flagged(self):
        klass, dist = off_support_instance()
        kept = Dataset(np.array([0]), np.array([1], dtype=np.int8), 4)
        record = IterationRecord(1, 1, kept, 0.0, np.arange(4), None)
        trace = make_trace(records=[record], filter_half=1, d=2, delta=0.1)
        report = diagnose_failure_events(trace, klass, dist)
        assert report.iterations[0].tiny_sample is True

    def test_rounds_without_candidates_are_skipped(self):
        klass, dist = off_support_instance()
        kept = Dataset(np.array([0]), np.array([1], dtype=np.int8), 4)
        record = IterationRecord(1, 1, kept, None, None, None)
        trace = make_trace(records=[record], filter_half=1, d=2, delta=0.1)
        assert diagnose_failure_events(trace, klass, dist).iterations == ()


class TestExactProgressReport:
    def test_two_expert_progression(self):
        """Conditioning on the expert pair removes all error at once."""
        fx = two_experts(0.3)
        klass = fx.klass
        pair = (klass.hypothesis(0), klass.hypothesis(1))
        trace = make_trace(selected=[pair])
        report = exact_progress_report(trace, klass, fx.distribution)
        assert report.base_error == pytest.approx(0.3, abs=1e-12)
        assert len(report.records) == 2

        first, second = report.records
        assert first.best_conditional_error == pytest.approx(0.3, abs=1e-12)
        assert first.disagreement_mass == pytest.approx(0.6, abs=1e-12)
        assert first.within_decay is True
        assert first.within_mass is False
        assert second.best_conditional_error == pytest.approx(0.0, abs=1e-12)
        assert second.disagreement_mass == pytest.approx(0.6, abs=1e-12)
        assert second.within_mass is True
        factor = 1.0 - 1.0 / (32.0 * math.log(1 / 0.3))
        assert second.decay_bound == pytest.approx(0.3 * factor, rel=1e-12)

    def test_two_pair_progression_on_uniform_domain(self):
        """Six uniform positive points, conditioned twice, tracked exactly."""
        a = hyp(-1, -1, 1, 1, 1, -1)
        b = hyp(1, 1, 1, 1, 1, -1)
        c = hyp(1, 1, -1, 1, -1, 1)
        e = hyp(1, 1, 1, 1, -1, 1)
        klass = HypothesisClass(np.stack([h.labels for h in (a, b, c, e)]))
        dist = DiscreteDistribution.uniform_deterministic(np.ones(6, dtype=np.int8))
        trace = make_trace(selected=[(a, b), (c, e)])
        report = exact_progress_report(trace, klass, dist)
        expected = [(1 / 6, 1 / 3), (1 / 4, 1 / 2), (1 / 3, 1 / 2)]
        assert len(report.records) == 3
        for record, (best, mass) in zip(report.records, expected):
            assert record.best_conditional_error == pytest.approx(best, abs=1e-12)
            assert record.disagreement_mass == pytest.approx(mass, abs=1e-12)

    def test_everywhere_disagreeing_pair_truncates(self, complement_pair_class):
        """A pair with an empty agreement region ends the report early."""
        pair = (
            complement_pair_class.hypothesis(0),
            complement_pair_class.hypothesis(1),
        )
        dist = DiscreteDistribution.uniform_deterministic(np.ones(2, dtype=np.int8))
        trace = make_trace(selected=[pair])
        report = exact_progress_report(trace, complement_pair_class, dist)
        assert len(report.records) == 1
        assert report.records[0].best_conditional_error == pytest.approx(0.5)
        assert report.records[0].disagreement_mass == pytest.approx(1.0)

    def test_no_pairs_reports_single_record(self, complement_pair_class):
        dist = DiscreteDistribution.uniform_deterministic(np.ones(2, dtype=np.int8))
        report = exact_progress_report(
            make_trace(), complement_pair_class, dist
        )
        assert len(report.records) == 1
        assert report.records[0].disagreement_mass == 0.0
        assert report.records[0].best_conditional_error == pytest.approx(0.5)


class TestSharedIdentities:
    """exact_progress_report asserts the gaps that measures computes: a gap
    that reads 1 stops the report at the step that took it."""

    def pair_trace(self):
        fx = two_experts(0.3)
        pair = (fx.klass.hypothesis(0), fx.klass.hypothesis(1))
        return make_trace(selected=[pair]), fx.klass, fx.distribution

    def test_a_broken_decomposition_names_step_1(self, monkeypatch):
        monkeypatch.setattr(measures, "_decomposition_gap", lambda split: 1.0)
        with pytest.raises(RuntimeError, match=r"^step 1: .*decomposition by 1\.0"):
            exact_progress_report(*self.pair_trace())

    def test_a_broken_decomposition_names_a_pair_without_agreement_mass(
        self, monkeypatch, complement_pair_class
    ):
        pair = (complement_pair_class.hypothesis(0), complement_pair_class.hypothesis(1))
        dist = DiscreteDistribution.uniform_deterministic(np.ones(2, dtype=np.int8))
        monkeypatch.setattr(measures, "_decomposition_gap", lambda split: 1.0)
        with pytest.raises(RuntimeError, match="^step 1: "):
            exact_progress_report(make_trace(selected=[pair]), complement_pair_class, dist)

    def test_a_broken_averaging_bound_names_step_1(self, monkeypatch):
        monkeypatch.setattr(measures, "_averaging_gap", lambda split, klass: (1.0, 0.0))
        with pytest.raises(RuntimeError, match=r"^step 1: the averaging bound fails by 1\.0"):
            exact_progress_report(*self.pair_trace())

    def test_the_report_passes_each_step_the_split_it_records(self, monkeypatch):
        """The optimum each step's averaging gap returns is the next
        record's, so row_errors runs once per step."""
        seen = []
        real = measures._averaging_gap

        def recording(split, klass):
            gap, best = real(split, klass)
            seen.append(best)
            return gap, best

        monkeypatch.setattr(measures, "_averaging_gap", recording)
        a = hyp(-1, -1, 1, 1, 1, -1)
        b = hyp(1, 1, 1, 1, 1, -1)
        c = hyp(1, 1, -1, 1, -1, 1)
        e = hyp(1, 1, 1, 1, -1, 1)
        klass = HypothesisClass(np.stack([h.labels for h in (a, b, c, e)]))
        dist = DiscreteDistribution.uniform_deterministic(np.ones(6, dtype=np.int8))
        report = exact_progress_report(make_trace(selected=[(a, b), (c, e)]), klass, dist)
        assert [r.best_conditional_error for r in report.records[1:]] == seen
        assert len(seen) == 2


class TestTrainedProgressEndToEnd:
    def test_report_from_a_real_training_trace(self):
        """Diagnostics accept traces produced by the actual trainer."""
        fx = two_experts(0.3)
        data = sample_dataset(fx.distribution, 30_000, RngStream(21, 1))
        result = train(data, fx.klass, d=fx.vc_dim, delta=0.1)
        report = exact_progress_report(result.trace, fx.klass, fx.distribution)
        assert len(report.records) == result.trace.pair_count + 1
        events = diagnose_failure_events(result.trace, fx.klass, fx.distribution)
        assert len(events.iterations) <= len(result.trace.records)


def reference_progress(trace, klass, dist):
    """exact_progress_report walked step by step from the public measures:
    each conditional is the previous one conditioned on its pair's
    agreement region, each disagreement mass the original marginal off the
    first pairs' agreement region."""
    u = dist.domain_size
    base = float(np.min(measures.row_errors(klass, dist)))
    factor = 1.0 - 1.0 / (32.0 * max(math.log(1.0 / base), 1.0)) if base > 0 else 0.0
    records = []
    current = dist
    for step in range(1, trace.pair_count + 2):
        best = float(np.min(measures.row_errors(klass, current)))
        mask = measures.agreement_points(trace.selected[:step], u)
        off = float(dist.point_marginal()[~mask].sum())
        decay = base * factor ** (step - 1)
        mass_bound = 8.0 * (base - best)
        records.append((step, best, off, decay, best <= decay + 1e-9,
                        mass_bound, off <= mass_bound + 1e-9))
        if step > trace.pair_count:
            break
        h1, h2 = trace.selected[step - 1]
        split = measures._condition(current, measures.agreement_points([(h1, h2)], u))
        assert split is not None
        current = split.conditional
        assert measures.true_error(h1, current) == pytest.approx(
            measures.true_error(h2, current), abs=1e-9
        )
    return base, records


class TestTrainedProgressMatchesReference:
    def test_filter_regime_trace(self):
        """On traces from the regime whose filtering loop records pairs,
        the report equals the reference walk field for field, bit for bit."""
        fx = dsubset_adversary(u=30, d=3, alpha=0.5)
        consts = TheoryConstants(exit_scale=1e-3)
        for seed in (1, 2, 3):
            data = sample_dataset(fx.distribution, 30_000, RngStream(seed, 1))
            trace = train(data, fx.klass, fx.vc_dim, 0.1, consts).trace
            assert trace.pair_count >= 2
            report = exact_progress_report(trace, fx.klass, fx.distribution)
            base, records = reference_progress(trace, fx.klass, fx.distribution)
            assert report.base_error == base
            assert [
                (r.step, r.best_conditional_error, r.disagreement_mass, r.decay_bound,
                 r.within_decay, r.mass_bound, r.within_mass)
                for r in report.records
            ] == records
