"""Batched training against one-sample training and a plain reference.

train_many scores every minimization step of a batch with one product of
the class against the stacked tables. Its results must equal train's on
each sample, and both must equal a reference that minimizes each table on
its own with the integer product and np.argmin.
"""

import math

import numpy as np
import pytest

from paclab import (
    DEFAULT_CONSTANTS,
    CountTable,
    Dataset,
    HypothesisClass,
    RngStream,
    SamplePieces,
    TheoryConstants,
    core_train,
    deviation_bound,
    erm_many,
    find_disagreeing_pair,
    make_schedule,
    measures,
    near_optimal_set,
    train,
    train_many,
)
from paclab import core, experts, runner
from paclab.config import parse_config_text
from paclab.fixtures import dsubset_adversary

FILTER_CONSTANTS = TheoryConstants(exit_scale=1e-3)


def reference_mistakes(matrix, counts):
    neg, pos = counts[:, 0], counts[:, 1]
    return (matrix == 1) @ (neg - pos) + pos.sum()


def reference_erm(klass, table):
    mistakes = reference_mistakes(klass.matrix, table.counts)
    best = int(np.argmin(mistakes))
    return best, int(mistakes[best]) / len(table)


def reference_train(data, klass, d, delta, consts=DEFAULT_CONSTANTS):
    """The one-sample pipeline written out step by step, every minimization
    its own integer product: (estimate, records, reason, selected indices,
    side sizes and fits, erm index, chose_core, validation errors)."""
    pieces = SamplePieces.of(data)
    n = len(pieces)
    third = n // 3
    part_estimate = pieces.take(third)
    _, estimate = reference_erm(klass, part_estimate)
    if estimate == 0.0:
        estimate = 1.0 / (2 * third)
    elif estimate == 1.0:
        estimate = 1.0 - 1.0 / (2 * third)
    m = third
    half = m // 2
    schedule = make_schedule(estimate, half, d, delta, consts)
    rounds = schedule.rounds
    base = half // rounds
    sizes = [base] * (rounds - 1) + [half - (rounds - 1) * base, m - half]
    *blocks, holdout = fit_pieces = [CountTable(counts) for counts in pieces.take_many(sizes)]
    part_fit = CountTable(sum(table.counts for table in fit_pieces))

    records, selected, reason = [], [], "completed"
    for step, block in enumerate(blocks, start=1):
        pairs = [(klass.hypothesis(a), klass.hypothesis(b)) for a, b in selected]
        kept = block.restrict(measures.agreement_points(pairs, klass.domain_size))
        if len(kept) == 0:
            records.append((step, len(block), kept.counts, None, None, None))
            reason = "empty_Ti"
            break
        _, min_error = reference_erm(klass, kept)
        if min_error <= schedule.exit_threshold:
            records.append((step, len(block), kept.counts, min_error, None, None))
            reason = "gamma_below_Zt"
            break
        allowance = deviation_bound(half / rounds, d, delta, min_error, consts)
        candidates = near_optimal_set(klass, kept, min_error, allowance)
        threshold = min_error / max(math.log(1.0 / min_error), 1.0)
        pair = find_disagreeing_pair(klass, candidates, kept, threshold)
        records.append((step, len(block), kept.counts, min_error, candidates, pair))
        if pair is None:
            reason = "no_disagreeing_pair"
            break
        selected.append(pair)

    pairs = [(klass.hypothesis(a), klass.hypothesis(b)) for a, b in selected]
    mask = measures.agreement_points(pairs, klass.domain_size)
    sides = [holdout.restrict(mask), holdout.restrict(~mask)]
    fits = [reference_erm(klass, side)[0] if len(side) else None for side in sides]
    erm_index, _ = reference_erm(klass, part_fit)
    part_validate = pieces.take(len(pieces))
    labels = [0 if fit is None else fit for fit in fits]
    routed = np.where(mask, klass.matrix[labels[0]], klass.matrix[labels[1]])
    validation_core = int(reference_mistakes(routed[None, :], part_validate.counts)[0]) / len(part_validate)
    validation_erm = int(
        reference_mistakes(klass.matrix[erm_index][None, :], part_validate.counts)[0]
    ) / len(part_validate)
    return {
        "estimate": estimate,
        "records": records,
        "reason": reason,
        "selected": tuple(selected),
        "sides": tuple(len(side) for side in sides),
        "fits": tuple(fits),
        "erm_index": erm_index,
        "chose_core": validation_core <= validation_erm,
        "validation": (validation_core, validation_erm),
    }


def assert_same_result(got, want):
    """Two TrainResults equal field by field."""
    assert got.err_estimate == want.err_estimate
    assert got.erm_index == want.erm_index
    assert np.array_equal(got.erm_hypothesis.labels, want.erm_hypothesis.labels)
    assert got.chose_core == want.chose_core
    assert (got.validation_core, got.validation_erm) == (want.validation_core, want.validation_erm)
    assert np.array_equal(got.output_hypothesis().labels, want.output_hypothesis().labels)
    for side in ("on_agreement", "on_disagreement"):
        assert np.array_equal(
            getattr(got.core_classifier, side).labels, getattr(want.core_classifier, side).labels
        )
    a, b = got.trace, want.trace
    for name in ("break_reason", "selected_indices", "schedule", "err_estimate", "filter_half",
                 "holdout_half", "agree_side_size", "disagree_side_size", "agree_defaulted",
                 "disagree_defaulted", "d", "delta", "consts"):
        assert getattr(a, name) == getattr(b, name), name
    assert len(a.records) == len(b.records)
    for x, y in zip(a.records, b.records):
        assert (x.step, x.block_size, x.min_error, x.pair_indices) == (
            y.step, y.block_size, y.min_error, y.pair_indices
        )
        assert np.array_equal(x.kept.counts, y.kept.counts)
        assert (x.candidates is None) == (y.candidates is None)
        if x.candidates is not None:
            assert np.array_equal(x.candidates, y.candidates)


def assert_matches_reference(got, want):
    trace = got.trace
    assert got.err_estimate == want["estimate"]
    assert trace.break_reason == want["reason"]
    assert trace.selected_indices == want["selected"]
    assert (trace.agree_side_size, trace.disagree_side_size) == want["sides"]
    assert (trace.agree_defaulted, trace.disagree_defaulted) == tuple(
        fit is None for fit in want["fits"]
    )
    assert got.erm_index == want["erm_index"]
    assert got.chose_core == want["chose_core"]
    assert (got.validation_core, got.validation_erm) == want["validation"]
    assert len(trace.records) == len(want["records"])
    for record, (step, size, kept, min_error, candidates, pair) in zip(trace.records, want["records"]):
        assert (record.step, record.block_size, record.min_error, record.pair_indices) == (
            step, size, min_error, pair
        )
        assert np.array_equal(record.kept.counts, kept)
        assert (record.candidates is None) == (candidates is None)
        if candidates is not None:
            assert np.array_equal(record.candidates, candidates)


def drawn(fixture, n, seed, count):
    return lambda: [
        SamplePieces.drawn(fixture.distribution, n, RngStream(seed, 1 + t)) for t in range(count)
    ]


def check_batch(make_samples, klass, d, delta=0.1, consts=DEFAULT_CONSTANTS):
    """train_many on fresh samples against train and the reference, sample
    by sample; returns the batch's results."""
    batch = train_many(make_samples(), klass, d, delta, consts)
    singles = [train(data, klass, d, delta, consts) for data in make_samples()]
    references = [reference_train(data, klass, d, delta, consts) for data in make_samples()]
    assert len(batch) == len(singles) == len(references)
    for got, single, want in zip(batch, singles, references):
        assert_same_result(got, single)
        assert_matches_reference(got, want)
    return batch


def alternating(n, labels, domain_size=2):
    points = np.tile(np.array([0, 1]), (n + 1) // 2)[:n]
    return Dataset(points, np.resize(np.asarray(labels, dtype=np.int8), n), domain_size)


class TestTrainMany:
    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_round_one_exits(self, size):
        fixture = dsubset_adversary(tau=0.05, d=2)
        results = check_batch(drawn(fixture, 3000, 41, size), fixture.klass, fixture.vc_dim)
        assert {r.trace.break_reason for r in results} == {"gamma_below_Zt"}

    def test_a_loop_that_records_pairs(self):
        fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
        results = check_batch(
            drawn(fixture, 30_000, 823, 3), fixture.klass, fixture.vc_dim, consts=FILTER_CONSTANTS
        )
        assert all(r.trace.pair_count >= 1 for r in results)

    def test_clamped_estimates_empty_sides_and_unequal_sizes(self):
        """One batch in which estimates clamp up and down, holdout sides are
        empty, and samples of different sizes run different schedules."""
        klass = HypothesisClass(np.array([[-1, -1]], dtype=np.int8))

        def samples():
            return [
                alternating(30, [1]),
                alternating(31, [-1]),
                alternating(300, [1, -1, -1]),
                alternating(12, [-1, 1]),
            ]

        results = check_batch(samples, klass, 1)
        assert results[0].err_estimate == 1.0 - 1.0 / 20
        assert results[1].err_estimate == 1.0 / 20
        assert any(r.trace.agree_side_size == 0 or r.trace.disagree_side_size == 0 for r in results)
        assert len({r.trace.schedule for r in results}) > 1

    def test_routing_with_pairs_and_empty_sides(self, complement_pair_class):
        def samples():
            return [alternating(30_000, [1]), alternating(30_000, [1, -1]), alternating(31, [1])]

        results = check_batch(samples, complement_pair_class, 1)
        assert results[0].trace.pair_count == 1
        assert results[0].trace.agree_side_size == 0

    def test_ties_straddle_the_chunk_boundary(self, monkeypatch):
        """Chunks of one or two rows, on a class where many members tie."""
        monkeypatch.setattr(core, "_KERNEL_OUTPUT_CELLS", 3)
        monkeypatch.setattr(core, "_KERNEL_CHUNK_CELLS", 5)
        fixture = dsubset_adversary(tau=0.1, d=2)
        check_batch(drawn(fixture, 600, 43, 3), fixture.klass, fixture.vc_dim)

    def test_samples_beyond_float_precision(self):
        """The estimate third, the holdout and the fit third hold 2**53
        samples or more, so their steps take the integer product."""
        fixture = dsubset_adversary(tau=0.1, d=2)
        results = check_batch(drawn(fixture, 6 * 2**53 + 5, 48, 2), fixture.klass, fixture.vc_dim)
        assert all(r.trace.filter_half >= 2**53 for r in results)

    def test_validation_beyond_float_precision(self):
        """Validation tables of 2**53 samples or more take the mistake
        kernel's int64 product; each sample still reads its own two cells."""
        fixture = dsubset_adversary(u=12, d=2)
        check_batch(drawn(fixture, 3 * 2**53 + 7, 49, 3), fixture.klass, fixture.vc_dim)

    def test_pieces_are_taken_in_the_one_sample_order(self):
        fixture = dsubset_adversary(u=30, d=3, alpha=0.5)
        flat = fixture.distribution.mass.reshape(-1)

        def logged(seed):
            gen = RngStream(seed, 1).generator()
            log = []

            def draw(start, sizes):
                counts = gen.multinomial(sizes, flat / flat.sum()).reshape(len(sizes), -1, 2)
                for size, piece in zip(sizes, counts):
                    log.append((start, size, piece))
                    start += size
                return counts

            return SamplePieces(30_000, fixture.distribution.domain_size, draw), log

        batch = [logged(seed) for seed in (5, 6, 7)]
        train_many([p for p, _ in batch], fixture.klass, 3, 0.1, FILTER_CONSTANTS)
        for seed, (_, batch_log) in zip((5, 6, 7), batch):
            pieces, single_log = logged(seed)
            train(pieces, fixture.klass, 3, 0.1, FILTER_CONSTANTS)
            assert [(s, z) for s, z, _ in batch_log] == [(s, z) for s, z, _ in single_log]
            assert all(np.array_equal(x, y) for (_, _, x), (_, _, y) in zip(batch_log, single_log))

    def test_an_empty_batch(self):
        fixture = dsubset_adversary(tau=0.05, d=2)
        assert train_many([], fixture.klass, 2, 0.1) == []

    def test_too_small_rejected(self, complement_pair_class):
        with pytest.raises(ValueError, match="at least 3"):
            train_many([alternating(30, [1]), alternating(2, [1])], complement_pair_class, 1, 0.1)


class TestTablesPerSample:
    def test_a_round_one_batch_wraps_four_tables_per_sample(self, monkeypatch):
        """The estimate third, the first block, the holdout and the fit
        third. The later blocks, which a loop that exits at round 1 never
        reads, and the validation third are drawn but not wrapped."""
        wrapped = []
        trusted = core._trusted_table

        def counted(counts, size=None):
            wrapped.append(size)
            return trusted(counts, size)

        monkeypatch.setattr(core, "_trusted_table", counted)
        monkeypatch.setattr(experts, "_trusted_table", counted)
        fixture = dsubset_adversary(tau=0.05, d=2)
        results = train_many(drawn(fixture, 30_000, 41, 16)(), fixture.klass, fixture.vc_dim, 0.1)
        assert {r.trace.break_reason for r in results} == {"gamma_below_Zt"}
        assert all(r.trace.schedule.rounds > 1 for r in results)
        assert len(wrapped) <= 4 * 16


class TestCoreTrainMany:
    def test_empty_blocks_exits_and_pairs_in_one_batch(self, complement_pair_class):
        """More rounds than filter samples, an early exit and a recorded pair."""
        cases = [
            (alternating(8, [1]), 0.01),
            (Dataset(np.zeros(100, dtype=np.int64), np.ones(100, dtype=np.int8), 2), 0.25),
            (alternating(20_000, [1]), 0.5),
        ]
        runs = []
        for data, estimate in cases:
            pieces = SamplePieces.of(data)
            schedule, sizes = experts._filter_plan(len(pieces), 1, 0.1, estimate, DEFAULT_CONSTANTS)
            runs.append(experts._FilterRun(schedule, pieces.take_many(sizes), sizes, estimate))
        batch, _ = experts._run_filters(runs, complement_pair_class, 1, 0.1, DEFAULT_CONSTANTS)
        assert [trace.break_reason for _, trace in batch] == [
            "empty_Ti", "gamma_below_Zt", "completed"
        ]
        for (classifier, trace), (data, estimate) in zip(batch, cases):
            single_classifier, single = core_train(data, complement_pair_class, 1, 0.1, estimate)
            assert trace.selected_indices == single.selected_indices
            assert (trace.agree_side_size, trace.disagree_side_size) == (
                single.agree_side_size, single.disagree_side_size
            )
            assert [(r.step, r.block_size, r.min_error) for r in trace.records] == [
                (r.step, r.block_size, r.min_error) for r in single.records
            ]
            assert np.array_equal(
                classifier.tabulate().labels, single_classifier.tabulate().labels
            )


def random_class(gen, rows, u):
    matrix = gen.choice(np.array([-1, 1], dtype=np.int8), size=(rows, u))
    return HypothesisClass(np.unique(matrix, axis=0))


class TestLeastMistakes:
    @pytest.mark.parametrize("output_cells", [1, 2, 5, 2**13])
    def test_lowest_index_minimum_per_table(self, monkeypatch, output_cells):
        """Small counts make many members tie, in every chunking."""
        monkeypatch.setattr(core, "_KERNEL_OUTPUT_CELLS", output_cells)
        gen = RngStream(45, 1).generator()
        for _ in range(60):
            u = int(gen.integers(1, 7))
            klass = random_class(gen, int(gen.integers(1, 40)), u)
            tables = [CountTable(gen.integers(0, 3, size=(u, 2)) + (i == 0)) for i in range(int(gen.integers(1, 9)))]
            tables = [t for t in tables if len(t)]
            expected = [reference_erm(klass, t) for t in tables]
            assert erm_many(klass, tables) == expected

    def test_no_chunk_spans_rows_times_tables(self):
        klass = dsubset_adversary(tau=0.05, d=2).klass
        counts = np.ones((50, klass.domain_size, 2), dtype=np.int64)
        chunks = list(core._mistake_products(klass.matrix, counts))
        assert len(chunks) > 1
        assert all(block.size <= core._KERNEL_OUTPUT_CELLS for _, block in chunks)
        assert sum(len(block) for _, block in chunks) == klass.size

    def test_a_table_beyond_float_precision(self):
        klass = HypothesisClass(np.array([[1, -1, 1], [-1, -1, 1], [1, 1, -1]], dtype=np.int8))
        tables = [
            CountTable(np.array([[2**53 + 1, 3], [5, 2**53 + 7], [1, 1]])),
            CountTable(np.array([[4, 1], [0, 2], [3, 3]])),
        ]
        assert erm_many(klass, tables) == [reference_erm(klass, t) for t in tables]

    def test_an_empty_table_is_rejected(self, complement_pair_class):
        empty = CountTable(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            erm_many(complement_pair_class, [CountTable(np.ones((2, 2), dtype=np.int64)), empty])


def sweep_text(tmp_path, trials):
    return f"""\
[experiment]
kind = upper_sweep
seed = 46
trials = {trials}
output = {tmp_path / "rows.csv"}
trace_output = {tmp_path / "trace.csv"}

[grid]
n = 3000, 10000
tau = 0.1

[fixture]
family = dsubset_adversary
d = 2
alpha = 0.5
"""


def data_bytes(path):
    with open(path, "rb") as handle:
        return b"".join(line for line in handle if not line.startswith(b"#"))


class TestSweepBatches:
    def test_more_trials_than_the_batch_size(self, tmp_path, monkeypatch):
        config = parse_config_text(sweep_text(tmp_path, 7))
        outputs = []
        for batch, threads in ((64, "1"), (3, "1"), (3, "2"), (1, "3")):
            monkeypatch.setattr(runner, "_SWEEP_BATCH", batch)
            monkeypatch.setenv("PACLAB_THREADS", threads)
            result = runner.run(config)
            outputs.append(
                (data_bytes(result.output_path), data_bytes(result.trace_path), result.summary_lines)
            )
        assert all(output == outputs[0] for output in outputs)

    def test_rows_equal_one_sample_training(self, tmp_path):
        """Each trial's rows are those of train on the trial's own stream."""
        config = parse_config_text(sweep_text(tmp_path, 5))
        result = runner.run(config)
        fixture = dsubset_adversary(tau=0.1, d=2)
        for row in result.rows[::2]:
            pieces = SamplePieces.drawn(
                fixture.distribution, row.n, RngStream(config.seed, 1 + row.trial_id)
            )
            single = train(pieces, fixture.klass, 2, config.delta)
            assert row.break_reason == single.trace.break_reason
            assert row.r == single.trace.pair_count
            error = measures.true_error(single.output_hypothesis(), fixture.distribution)
            assert row.excess_error == error - row.tau_true


class TestSweepBatchesAcrossCells:
    """A batch holds trials of one fixture from any of its cells, so the
    rows must not depend on how the cells' trials are grouped."""

    TEXT = """\
[experiment]
kind = upper_sweep
seed = 58
trials = 5
output = {rows}
trace_output = {trace}

[grid]
n = 600, 3000
tau = 0.1, 0.05, 0.1

[fixture]
family = dsubset_adversary
d = 2
alpha = 0.5
"""

    def test_rows_do_not_depend_on_grouping(self, tmp_path, monkeypatch):
        """tau = 0.1 twice shares one fixture: 20 of its trials from four
        cells, batched as 20 of 1, 7 of at most 3, or 2 of 10."""
        config = parse_config_text(
            self.TEXT.format(rows=tmp_path / "rows.csv", trace=tmp_path / "trace.csv")
        )
        outputs = []
        for batch in (1, 3, 16):
            for threads in ("1", "2"):
                monkeypatch.setattr(runner, "_SWEEP_BATCH", batch)
                monkeypatch.setenv("PACLAB_THREADS", threads)
                result = runner.run(config)
                outputs.append(
                    (
                        data_bytes(result.output_path),
                        data_bytes(result.trace_path),
                        result.summary,
                        result.summary_lines,
                    )
                )
        assert all(output == outputs[0] for output in outputs)

        assert len(result.summary) == 2 * 6
        for entry in result.summary:
            excesses = [
                row.excess_error
                for row in result.rows
                if row.cell == entry["cell"] and row.algorithm == entry["algorithm"]
            ]
            assert len(excesses) == 5
            assert entry["p95_excess"] == float(np.percentile(excesses, 95))
            assert entry["mean_excess"] == float(np.mean(excesses))
        assert any(entry["p95_excess"] != 0 for entry in result.summary)
