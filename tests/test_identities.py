"""Tests for the randomized identity-check harness."""

import pytest

from paclab import CHECKS, identities, run_identity_chunk


class TestRunIdentityChunk:
    def test_five_checks_in_declared_order(self):
        aggregates = run_identity_chunk(seed=0, chunk=0, instances=20)
        assert tuple(a.check for a in aggregates) == CHECKS
        assert len(CHECKS) == 5

    def test_zero_failures_at_working_tolerance(self):
        for aggregate in run_identity_chunk(seed=1, chunk=0, instances=100):
            assert aggregate.failures == 0, aggregate
            assert aggregate.instances == 100
            assert aggregate.max_abs_deviation < 1e-9

    def test_deviations_sit_at_machine_precision(self):
        """The checks are algebraic identities, not approximations."""
        for aggregate in run_identity_chunk(seed=2, chunk=3, instances=200):
            assert aggregate.max_abs_deviation < 1e-12, aggregate

    def test_deterministic_per_chunk(self):
        first = run_identity_chunk(seed=5, chunk=7, instances=50)
        second = run_identity_chunk(seed=5, chunk=7, instances=50)
        assert first == second

    def test_chunks_differ(self):
        a = run_identity_chunk(seed=5, chunk=1, instances=50)
        b = run_identity_chunk(seed=5, chunk=2, instances=50)
        assert [x.max_abs_deviation for x in a] != [x.max_abs_deviation for x in b]
        assert all(x.chunk == 1 for x in a)
        assert all(x.chunk == 2 for x in b)

    def test_impossible_tolerance_counts_failures(self, monkeypatch):
        """A zero-width tolerance exercises the failure-counting path."""
        monkeypatch.setattr(identities, "_TOLERANCE", 0.0)
        aggregates = run_identity_chunk(seed=3, chunk=0, instances=50)
        assert sum(a.failures for a in aggregates) > 0
        for aggregate in aggregates:
            assert 0 <= aggregate.failures <= aggregate.instances

    def test_pinned_aggregates(self):
        """Selftest rows are made of these aggregates, so any change to a
        draw or to a check's arithmetic shows here. Recorded with numpy 2.4
        on x86-64."""
        aggregates = run_identity_chunk(seed=2026, chunk=0, instances=50)
        assert [(a.check, a.chunk, a.instances, a.failures) for a in aggregates] == [
            (name, 0, 50, 0) for name in CHECKS
        ]
        assert [a.max_abs_deviation for a in aggregates] == [
            3.3306690738754696e-16,
            2.220446049250313e-16,
            0.0,
            1.6653345369377348e-16,
            0.0,
        ]

    def test_instance_count_validated(self):
        with pytest.raises(ValueError):
            run_identity_chunk(seed=0, chunk=0, instances=0)
