"""Tests for count tables, sample pieces, and the sweep path built on them."""

import hashlib

import numpy as np
import pytest

from paclab import (
    CountTable,
    Dataset,
    RngStream,
    SamplePieces,
    TheoryConstants,
    empirical_error,
    sample_dataset,
    train,
)
from paclab.config import parse_config_text
from paclab.fixtures import dsubset_adversary
from paclab.runner import run

from conftest import hyp

FILTER_CONSTANTS = TheoryConstants(exit_scale=1e-3)
"""A small exit threshold, so the filtering loop runs several rounds at n = 30000."""


def filter_fixture():
    return dsubset_adversary(u=30, d=3, alpha=0.5)


def recording_pieces(dist, n, rng):
    """Drawn pieces that log (start, size, counts) for every piece taken,
    also when a run takes several."""
    gen = rng.generator()
    flat = dist.mass.reshape(-1)
    log = []

    def draw(start, sizes):
        counts = gen.multinomial(sizes, flat / flat.sum()).reshape(len(sizes), -1, 2)
        for size, piece in zip(sizes, counts):
            log.append((start, size, piece))
            start += size
        return counts

    return SamplePieces(n, dist.domain_size, draw), log


def sweep_text(tmp_path, n, trials, extra="", seed=823):
    return f"""\
[experiment]
kind = upper_sweep
seed = {seed}
trials = {trials}
output = {tmp_path / "rows.csv"}
trace_output = {tmp_path / "trace.csv"}

[grid]
n = {n}

[fixture]
family = dsubset_adversary
u = 30
d = 3
alpha = 0.5

{extra}
"""


def data_bytes(path):
    with open(path, "rb") as handle:
        return b"".join(line for line in handle if not line.startswith(b"#"))


class TestCountTable:
    def test_counts_a_dataset(self):
        data = Dataset([0, 1, 1, 2, 0], [1, -1, -1, 1, -1], 4)
        table = CountTable.of(data)
        assert table.counts.tolist() == [[1, 1], [2, 0], [0, 1], [0, 0]]
        assert len(table) == 5 and table.domain_size == 4
        assert table.point_counts().tolist() == [2, 2, 1, 0]
        assert CountTable.of(table) is table

    def test_mistakes_match_the_ordered_error(self):
        data = Dataset([0, 1, 1, 2, 0], [1, -1, -1, 1, -1], 3)
        table = CountTable.of(data)
        for h in (hyp(1, 1, 1), hyp(-1, -1, 1), hyp(1, -1, -1)):
            assert empirical_error(h, table) == empirical_error(h, data)
        matrix = np.array([[1, 1, 1], [-1, -1, 1]], dtype=np.int8)
        assert table.mistakes(matrix).tolist() == [3, 1]

    def test_restrict_keeps_only_masked_points(self):
        table = CountTable([[1, 2], [3, 4], [5, 6]])
        kept = table.restrict(np.array([True, False, True]))
        assert kept.counts.tolist() == [[1, 2], [0, 0], [5, 6]]
        assert len(kept) == 14

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            CountTable([1, 2])
        with pytest.raises(ValueError, match="integers"):
            CountTable([[0.5, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            CountTable([[1, -1]])
        table = CountTable([[1, 2]])
        with pytest.raises(ValueError):
            table.counts[0, 0] = 5


class TestSamplePieces:
    def test_dataset_pieces_slice_exactly(self):
        data = sample_dataset(filter_fixture().distribution, 1000, RngStream(3, 1))
        pieces = SamplePieces.of(data)
        first = pieces.take(300)
        assert len(pieces) == 700
        a, b = pieces.take(150), pieces.take(250)
        last = pieces.take(300)
        expect = lambda low, high: CountTable.of(data.take(slice(low, high))).counts
        assert np.array_equal(first.counts, expect(0, 300))
        assert np.array_equal(a.counts, expect(300, 450))
        assert np.array_equal(b.counts, expect(450, 700))
        assert np.array_equal(last.counts, expect(700, 1000))
        assert len(pieces) == 0

    def test_taking_past_the_end_is_rejected(self):
        pieces = SamplePieces.drawn(filter_fixture().distribution, 10, RngStream(1, 1))
        pieces.take(4)
        with pytest.raises(ValueError, match="remaining"):
            pieces.take(7)
        with pytest.raises(ValueError, match="at least one"):
            SamplePieces.drawn(filter_fixture().distribution, 0, RngStream(1, 1))

    def test_train_takes_every_piece_at_its_scheduled_size(self):
        fx = filter_fixture()
        n = 30_001
        pieces, log = recording_pieces(fx.distribution, n, RngStream(823, 1))
        result = train(pieces, fx.klass, fx.vc_dim, 0.1, FILTER_CONSTANTS)
        third = n // 3
        half = third // 2
        rounds = result.trace.schedule.rounds
        assert rounds > 1
        base = half // rounds
        blocks = [base] * (rounds - 1) + [half - (rounds - 1) * base]
        expected = [third] + blocks + [third - half, n - 2 * third]
        assert [size for _, size, _ in log] == expected
        assert [start for start, _, _ in log] == list(np.cumsum([0] + expected[:-1]))
        for _, size, counts in log:
            assert counts.shape == (fx.distribution.domain_size, 2)
            assert int(counts.sum()) == size
        assert sum(int(counts.sum()) for _, _, counts in log) == n
        records = result.trace.records
        assert [r.block_size for r in records] == blocks[: len(records)]

    def test_same_seed_and_trial_give_the_same_tables(self):
        dist = filter_fixture().distribution
        sizes = (10_000, 1_250, 1_250, 7_500, 10_000)

        def tables(trial):
            pieces = SamplePieces.drawn(dist, sum(sizes), RngStream(823, 1 + trial))
            return [pieces.take(size).counts for size in sizes]

        first, again, other = tables(0), tables(0), tables(1)
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        assert not all(np.array_equal(x, y) for x, y in zip(first, other))

    def test_ordered_train_matches_the_pinned_trace(self):
        """Training on an ordered Dataset is fixed bit for bit; these values
        were recorded when train still sliced the Dataset itself."""
        fx = filter_fixture()
        data = sample_dataset(fx.distribution, 30_000, RngStream(823, 1))
        result = train(data, fx.klass, fx.vc_dim, 0.1, FILTER_CONSTANTS)
        trace = result.trace
        assert trace.break_reason == "gamma_below_Zt"
        assert trace.schedule.rounds == 4
        assert [r.block_size for r in trace.records] == [1250, 1250, 1250]
        assert [len(r.kept) for r in trace.records] == [1250, 1184, 1166]
        assert [r.min_error for r in trace.records] == [0.0608, 0.019425675675675675, 0.0]
        candidates = [
            None
            if r.candidates is None
            else (
                r.candidates.size,
                hashlib.sha256(np.asarray(r.candidates, np.int64).tobytes()).hexdigest()[:16],
            )
            for r in trace.records
        ]
        assert candidates == [(1992, "6cf4420cde574c7b"), (39, "c5e6fd0ab9c38eb7"), None]
        assert [r.pair_indices for r in trace.records] == [(0, 1), (0, 28), None]
        assert trace.selected_indices == ((0, 1), (0, 28))
        assert (trace.agree_side_size, trace.disagree_side_size) == (4655, 345)
        assert result.err_estimate == 0.0489
        assert (result.erm_index, result.chose_core) == (0, True)
        assert (result.validation_core, result.validation_erm) == (0.0, 0.0525)


class TestSweepPath:
    def test_rows_are_byte_identical_across_reruns_and_threads(self, tmp_path, monkeypatch):
        config = parse_config_text(sweep_text(tmp_path, "3000, 30000", 4))
        outputs = []
        for threads in ("1", "1", "2", "3"):
            monkeypatch.setenv("PACLAB_THREADS", threads)
            result = run(config)
            outputs.append((data_bytes(result.output_path), data_bytes(result.trace_path)))
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    def test_improper_gain_is_reported_not_raised(self, tmp_path):
        """An improper output may beat the class minimum, down to the Bayes
        error. This config used to stop the run with an error."""
        text = sweep_text(tmp_path, 30000, 20, "[constants]\nexit_scale = 1e-3")
        result = run(parse_config_text(text))
        mass = filter_fixture().distribution.mass
        bayes = float(np.minimum(mass[:, 0], mass[:, 1]).sum())
        learned = [r for r in result.rows if r.algorithm == "disagreeing_experts"]
        assert len(learned) == 20
        for row in learned:
            assert row.excess_error >= bayes - row.tau_true - 1e-12
        assert any(row.excess_error < 0 for row in learned)
        for row in result.rows:
            if row.algorithm == "erm":
                assert row.excess_error >= -1e-12

    def test_a_billion_samples_complete(self, tmp_path):
        result = run(parse_config_text(sweep_text(tmp_path, 10**9, 1)))
        assert len(result.rows) == 2
        assert all(row.n == 10**9 for row in result.rows)
