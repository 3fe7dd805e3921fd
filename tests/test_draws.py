"""How a sample's pieces are drawn: runs of pieces against one piece at a
time, the number of multinomial draws a trained sample costs, and that no
sample outlives its training."""

import gc
import weakref

import numpy as np
import pytest

from paclab import (
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
    """A numpy Generator that counts its multinomial calls."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = 0

    def multinomial(self, n, pvals):
        self.calls += 1
        return self.gen.multinomial(n, pvals)


def fixture():
    return dsubset_adversary(u=30, d=3, alpha=0.5)


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
            assert len(got) == len(expected)
            for x, y, size in zip(got, expected, sizes):
                assert np.array_equal(x.counts, y.counts)
                assert len(x) == len(y) == size == int(x.counts.sum())
            assert len(single) == len(batched) == 5
            # The generators end in the same state.
            assert np.array_equal(one.integers(0, 2**62, 4), many.integers(0, 2**62, 4))

    def test_a_run_continues_the_sample(self):
        dist = fixture().distribution
        sizes = (10_000, 1_250, 1_250, 7_500, 10_000)
        single = SamplePieces.drawn(dist, sum(sizes), RngStream(823, 1))
        batched = SamplePieces.drawn(dist, sum(sizes), RngStream(823, 1))
        expected = [single.take(size).counts for size in sizes]
        got = [batched.take(sizes[0]).counts] + [t.counts for t in batched.take_many(sizes[1:])]
        assert all(np.array_equal(x, y) for x, y in zip(got, expected))
        assert len(batched) == 0

    @pytest.mark.parametrize("sizes", [(0,), (1,), (300, 0, 1, 250), (1000,)], ids=str)
    def test_dataset_runs_slice_exactly(self, sizes):
        data = sample_dataset(fixture().distribution, 1000, RngStream(3, 1))
        pieces = SamplePieces.of(data)
        start = 0
        for table, size in zip(pieces.take_many(sizes), sizes):
            window = slice(start, start + size)
            expected = core.CountTable.of(data.take(window))
            assert np.array_equal(table.counts, expected.counts)
            assert len(table) == size
            start += size
        assert len(pieces) == 1000 - sum(sizes)

    def test_a_source_is_called_once_per_run(self):
        log = []

        def draw(start, sizes):
            log.append((start, sizes))
            return np.array([[[size, 0]] for size in sizes], dtype=np.int64)

        pieces = SamplePieces(10, 1, draw)
        assert [len(t) for t in pieces.take_many([2, 0, 5])] == [2, 0, 5]
        assert len(pieces.take(3)) == 3
        assert pieces.take_many([]) == []
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
        assert len(counters) == 2 * trials
        assert [c.calls for c in counters] == [2] * (2 * trials)


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
