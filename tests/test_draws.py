"""How samples are drawn: sample_dataset against Generator.choice, runs of
pieces against one piece at a time, the number of multinomial draws a
trained sample costs, and that no sample outlives its training."""

import gc
import weakref

import numpy as np
import pytest

from paclab import (
    DiscreteDistribution,
    RngStream,
    SamplePieces,
    TheoryConstants,
    sample_dataset,
    train,
    train_many,
)
from paclab import core
from paclab.config import parse_config_text
from paclab.fixtures import dsubset_adversary
from paclab.runner import run

SIZES = (
    (0,),
    (1,),
    (10**6,),
    (0, 0, 1),
    (3, 0, 1, 10**6, 0, 2),
    (10**6 + 3, 1, 0, 17, 4_000_000),
)


class CountingGenerator:
    """A numpy Generator that counts its multinomial calls; its bit
    generator is the wrapped one's, so it can be re-keyed and restored."""

    def __init__(self, gen):
        self.gen = gen
        self.bit_generator = gen.bit_generator
        self.calls = 0

    def multinomial(self, n, pvals):
        self.calls += 1
        return self.gen.multinomial(n, pvals)


def fixture():
    return dsubset_adversary(u=30, d=3, alpha=0.5)


def cell_mass(weights):
    """A (u, 2) mass table from nonnegative cell weights, point-major."""
    weights = np.asarray(weights, dtype=np.float64)
    return weights.reshape(-1, 2) / weights.sum()


class TestSampleDatasetIsChoice:
    """sample_dataset draws the cells Generator.choice draws over the cell
    probabilities, one for one, and leaves the generator where choice does."""

    CASES = {
        "leading_zero_cells": ([0, 0, 0, 0, 0, 3, 1, 2, 5, 1], 20_000),
        "interior_zero_cells": ([2, 1, 0, 0, 0, 3, 0, 4, 1, 1], 20_000),
        "trailing_zero_cells": ([1, 4, 2, 3, 0, 0, 0, 0, 0, 0], 20_000),
        # Every cumulative probability on a bucket edge of the guide table.
        "dyadic_edges": ([1, 1, 0, 2, 4, 0, 0, 8], 20_000),
        "one_cell_holds_all": ([0, 0, 0, 0, 0, 0, 7, 0, 0, 0], 5_000),
        "one_draw": ([3, 1, 0, 2, 5, 1], 1),
        "a_million_draws": (None, 10**6),
    }

    @pytest.mark.parametrize("weights, n", list(CASES.values()), ids=list(CASES))
    def test_draw_for_draw(self, weights, n):
        mass = fixture().distribution.mass if weights is None else cell_mass(weights)
        dist = DiscreteDistribution(mass)
        probabilities = core._cell_probabilities(dist.mass)

        def expect(gen):
            cells = gen.choice(probabilities.size, n, p=probabilities)
            return cells >> 1, np.where(cells & 1, 1, -1)

        def check(data, points, labels):
            assert data.points.dtype == np.int64 and data.labels.dtype == np.int8
            assert not data.points.flags.writeable and not data.labels.flags.writeable
            np.testing.assert_array_equal(data.points, points)
            np.testing.assert_array_equal(data.labels, labels)
            assert data.domain_size == dist.domain_size

        stream = RngStream(61, n)
        check(sample_dataset(dist, n, stream), *expect(stream.generator()))

        gen, ref = RngStream(62, n).generator(), RngStream(62, n).generator()
        gen.random(7)
        ref.random(7)
        check(sample_dataset(dist, n, gen), *expect(ref))
        np.testing.assert_array_equal(gen.random(50), ref.random(50))


class TestRunsOfPieces:
    @pytest.mark.parametrize("sizes", SIZES, ids=str)
    def test_a_drawn_run_equals_one_take_per_piece(self, sizes):
        dist = fixture().distribution
        n = sum(sizes) + 5
        for seed in range(40):
            one, many = RngStream(seed, 3).generator(), RngStream(seed, 3).generator()
            single = SamplePieces.drawn(dist, n, one)
            batched = SamplePieces.drawn(dist, n, many)
            expected = [single.take(size) for size in sizes]
            got = batched.take_many(sizes)
            assert got.shape == (len(sizes), dist.domain_size, 2)
            assert got.dtype == np.int64 and not got.flags.writeable
            for row, table, size in zip(got, expected, sizes):
                assert np.array_equal(row, table.counts)
                assert len(table) == size == int(row.sum())
            assert len(single) == len(batched) == 5
            # The generators end in the same state.
            assert np.array_equal(one.integers(0, 2**62, 4), many.integers(0, 2**62, 4))

    def test_a_run_continues_the_sample(self):
        dist = fixture().distribution
        sizes = (10_000, 1_250, 1_250, 7_500, 10_000)
        single = SamplePieces.drawn(dist, sum(sizes), RngStream(823, 1))
        batched = SamplePieces.drawn(dist, sum(sizes), RngStream(823, 1))
        expected = [single.take(size).counts for size in sizes]
        got = [batched.take(sizes[0]).counts] + list(batched.take_many(sizes[1:]))
        assert all(np.array_equal(x, y) for x, y in zip(got, expected))
        assert len(batched) == 0

    @pytest.mark.parametrize("sizes", [(0,), (1,), (300, 0, 1, 250), (1000,)], ids=str)
    def test_dataset_runs_slice_exactly(self, sizes):
        data = sample_dataset(fixture().distribution, 1000, RngStream(3, 1))
        pieces = SamplePieces.of(data)
        start = 0
        run = pieces.take_many(sizes)
        assert run.shape == (len(sizes), data.domain_size, 2) and not run.flags.writeable
        for counts, size in zip(run, sizes):
            window = slice(start, start + size)
            expected = core.CountTable.of(data.take(window))
            assert np.array_equal(counts, expected.counts)
            assert int(counts.sum()) == size
            start += size
        assert len(pieces) == 1000 - sum(sizes)

    def test_a_source_is_called_once_per_run(self):
        log = []

        def draw(start, sizes):
            log.append((start, sizes))
            return np.array([[[size, 0]] for size in sizes], dtype=np.int64)

        pieces = SamplePieces(10, 1, draw)
        run = pieces.take_many([2, 0, 5])
        assert run[:, 0, 0].tolist() == [2, 0, 5] and not run.flags.writeable
        assert len(pieces.take(3)) == 3
        empty = pieces.take_many([])
        assert empty.shape == (0, 1, 2) and empty.dtype == np.int64
        assert not empty.flags.writeable
        assert log == [(0, [2, 0, 5]), (7, [3])]

    def test_taking_past_the_end_is_rejected(self):
        dist = fixture().distribution
        gen = CountingGenerator(RngStream(1, 1).generator())
        pieces = SamplePieces.drawn(dist, 10, gen)
        with pytest.raises(ValueError, match="cannot take 11 of 10 remaining"):
            pieces.take_many([4, 7])
        with pytest.raises(ValueError, match="negative"):
            pieces.take_many([5, -1])
        with pytest.raises(ValueError, match="negative"):
            pieces.take(-1)
        assert gen.calls == 0 and len(pieces) == 10
        pieces.take_many([4, 6])
        with pytest.raises(ValueError, match="cannot take 1 of 0 remaining"):
            pieces.take(1)
        data = sample_dataset(dist, 10, RngStream(1, 1))
        with pytest.raises(ValueError, match="remaining"):
            SamplePieces.of(data).take_many([6, 5])


class TestDrawnBatch:
    """Samples sharing one re-keyed generator draw what fresh ones draw."""

    STREAMS = ((823, 1), (823, 2), (2**64 - 1, 2**63), (5, 0))
    SIZES = (10**6, 3 * 10**6 + 2, 10**9, 7)

    def test_every_take_equals_a_fresh_generator_take(self):
        """All estimate pieces first, then all runs, as train_many takes
        them: a one-piece run (numpy's scalar-n path), then runs with a
        zero-size piece, the last of which takes each sample's rest."""
        dist = fixture().distribution
        streams = [RngStream(*stream) for stream in self.STREAMS]
        batch = SamplePieces.drawn_batch(dist, self.SIZES, streams)
        fresh = [SamplePieces.drawn(dist, n, stream) for n, stream in zip(self.SIZES, streams)]
        runs = [[n // 3] for n in self.SIZES]
        runs += [[0, n // 6, n // 6] for n in self.SIZES]
        runs += [[n - n // 3 - 2 * (n // 6), 0] for n in self.SIZES]
        samples = list(range(len(self.SIZES))) * 3
        for sample, sizes in zip(samples, runs):
            got = batch[sample].take_many(sizes)
            want = fresh[sample].take_many(sizes)
            assert got.sum(axis=(1, 2)).tolist() == sizes
            assert np.array_equal(got, want)
        assert all(len(pieces) == 0 for pieces in batch)

    def test_runs_of_one_sample_in_a_row_and_out_of_order(self):
        """Runs of one sample in a row, and runs that come back to a sample
        after other samples' runs, zero-size runs among them."""
        dist = fixture().distribution
        streams = [RngStream(9, 1 + t) for t in range(3)]
        batch = SamplePieces.drawn_batch(dist, [900] * 3, streams)
        fresh = [SamplePieces.drawn(dist, 900, stream) for stream in streams]
        for sample, size in ((2, 100), (2, 50), (0, 300), (1, 1), (2, 0), (0, 600), (2, 750), (1, 899)):
            assert np.array_equal(batch[sample].take(size).counts, fresh[sample].take(size).counts)

    def test_sizes_and_streams_are_checked(self):
        dist = fixture().distribution
        assert SamplePieces.drawn_batch(dist, [], []) == []
        with pytest.raises(ValueError, match="at least one"):
            SamplePieces.drawn_batch(dist, [10, 0], [RngStream(1, 1), RngStream(1, 2)])
        with pytest.raises(ValueError, match="2 sample sizes for 1 streams"):
            SamplePieces.drawn_batch(dist, [10, 10], [RngStream(1, 1)])


class TestDrawsPerTrial:
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_a_trained_sample_costs_two_draws(self, batch):
        fx = dsubset_adversary(tau=0.05, d=2)
        counters = [CountingGenerator(RngStream(9, 1 + t).generator()) for t in range(batch)]
        samples = [SamplePieces.drawn(fx.distribution, 30_000, c) for c in counters]
        results = train_many(samples, fx.klass, fx.vc_dim, 0.1)
        assert [c.calls for c in counters] == [2] * batch
        assert all(len(s) == 0 for s in samples)
        assert all(len(r.trace.records) == 1 for r in results)

    def test_a_sample_whose_loop_runs_costs_two_draws(self):
        fx = fixture()
        counters = [CountingGenerator(RngStream(823, 1 + t).generator()) for t in range(3)]
        samples = [SamplePieces.drawn(fx.distribution, 30_000, c) for c in counters]
        results = train_many(samples, fx.klass, 3, 0.1, TheoryConstants(exit_scale=1e-3))
        assert all(r.trace.pair_count >= 1 for r in results)
        assert [c.calls for c in counters] == [2, 2, 2]

    @pytest.mark.parametrize("trials", [1, 3, 17])
    def test_a_sweep_trial_makes_two_multinomial_draws(self, tmp_path, monkeypatch, trials):
        """One generator per batch of at most 16 trials of the fixture's two
        cells, and two draws per trial: each trial needs at least two."""
        counters = []
        make = core.RngStream.generator

        def counted(stream):
            counters.append(CountingGenerator(make(stream)))
            return counters[-1]

        monkeypatch.setattr(core.RngStream, "generator", counted)
        config = parse_config_text(
            f"[experiment]\nkind = upper_sweep\nseed = 5\ntrials = {trials}\n"
            f"output = {tmp_path / 'rows.csv'}\n\n[grid]\nn = 3000, 30000\ntau = 0.05\n\n"
            "[fixture]\nfamily = dsubset_adversary\nd = 2\nalpha = 0.5\n"
        )
        result = run(config)
        assert {row.break_reason for row in result.rows[::2]} == {"gamma_below_Zt"}
        assert len(counters) == -(-2 * trials // 16)
        assert sum(c.calls for c in counters) == 2 * (2 * trials)


class TestNoCycleHoldsASample:
    def test_a_trained_dataset_is_freed_without_the_cyclic_collector(self):
        fx = fixture()
        gc.collect()
        gc.disable()
        try:
            data = sample_dataset(fx.distribution, 30_000, RngStream(823, 1))
            alive = weakref.ref(data)
            result = train(data, fx.klass, 3, 0.1, TheoryConstants(exit_scale=1e-3))
            assert result.trace.pair_count >= 1
            del data, result
            assert alive() is None
        finally:
            gc.enable()

    def test_a_drawn_sample_is_freed_without_the_cyclic_collector(self):
        fx = fixture()
        gc.collect()
        gc.disable()
        try:
            gen = CountingGenerator(RngStream(823, 2).generator())
            alive = weakref.ref(gen)
            results = train_many(
                [SamplePieces.drawn(fx.distribution, 30_000, gen)], fx.klass, 3, 0.1
            )
            del gen, results
            assert alive() is None
        finally:
            gc.enable()
