"""Tests for the named experiment families and their registry."""

import math

import numpy as np
import pytest

from paclab import (
    available_fixtures,
    dsubset_adversary,
    realizable_uniform,
    true_error,
    two_experts,
    vc_dimension_bruteforce,
)


class TestTwoExperts:
    def test_structure(self):
        fx = two_experts(0.3)
        assert fx.name == "two_experts"
        assert len(fx.klass) == 2
        np.testing.assert_allclose(
            fx.distribution.point_marginal(), [0.3, 0.3, 0.2, 0.2]
        )
        assert fx.opt_error == 0.3
        assert fx.vc_dim == 1

    def test_each_expert_attains_the_optimum(self):
        fx = two_experts(0.25)
        for i in range(2):
            err = true_error(fx.klass.hypothesis(i), fx.distribution)
            assert err == pytest.approx(fx.opt_error, abs=1e-15)

    def test_declared_dimension_matches_bruteforce(self):
        fx = two_experts(0.1)
        assert vc_dimension_bruteforce(fx.klass) == fx.vc_dim

    def test_tau_range(self):
        with pytest.raises(ValueError, match="tau"):
            two_experts(0.0)
        with pytest.raises(ValueError, match="tau"):
            two_experts(0.51)
        assert two_experts(0.5).distribution.point_marginal()[2] == 0.0


class TestRealizableUniform:
    def test_structure(self):
        fx = realizable_uniform(u=6)
        assert len(fx.klass) == 7
        assert fx.opt_error == 0.0
        np.testing.assert_allclose(fx.distribution.point_marginal(), 1 / 6)

    def test_truth_is_in_the_class(self):
        fx = realizable_uniform(u=5)
        errors = [
            true_error(fx.klass.hypothesis(i), fx.distribution)
            for i in range(len(fx.klass))
        ]
        assert errors[0] == 0.0
        assert all(e == pytest.approx(1 / 5, abs=1e-15) for e in errors[1:])

    def test_rejects_noise(self):
        with pytest.raises(ValueError, match="noise-free"):
            realizable_uniform(u=6, tau=0.1)
        with pytest.raises(ValueError, match="points"):
            realizable_uniform(u=1)


class TestDsubsetAdversary:
    def test_explicit_domain(self):
        fx = dsubset_adversary(u=6, d=2, alpha=0.5)
        assert fx.name == "dsubset_adversary"
        assert len(fx.klass) == 15
        assert fx.vc_dim == 2
        assert fx.opt_error == pytest.approx(0.5 * 2 / 6, abs=1e-15)

    def test_tau_converts_to_domain_size(self):
        for tau, expected_u in [(0.02, 50), (0.05, 20), (0.1, 10)]:
            fx = dsubset_adversary(tau=tau, d=2, alpha=0.5)
            assert fx.klass.domain_size == expected_u

    def test_optimum_is_attained_in_class(self):
        fx = dsubset_adversary(u=8, d=2, alpha=0.25)
        errors = [
            true_error(fx.klass.hypothesis(i), fx.distribution)
            for i in range(len(fx.klass))
        ]
        assert min(errors) == pytest.approx(fx.opt_error, abs=1e-12)
        assert int(np.argmin(errors)) == 0

    def test_exactly_one_size_argument(self):
        with pytest.raises(ValueError, match="exactly one"):
            dsubset_adversary(u=6, tau=0.1)
        with pytest.raises(ValueError, match="exactly one"):
            dsubset_adversary()

    def test_a_huge_class_is_refused_before_any_binomial(self, monkeypatch):
        """With both d and u - d at least 12 the class has at least
        C(24, 12) rows, past the cap, and is refused before math.comb, whose
        cost at u = 2 * 10^6, d = 10^6 is minutes."""
        real_comb = math.comb

        def small_comb(n, k):
            assert min(k, n - k) < 1000, f"math.comb({n}, {k}) takes the slow path"
            return real_comb(n, k)

        monkeypatch.setattr(math, "comb", small_comb)
        for u, d in ((2_000_000, 1_000_000), (24, 12), (10**6, 12)):
            message = rf"class of C\({u}, {d}\) rows exceeds the enumeration cap"
            with pytest.raises(ValueError, match=message):
                dsubset_adversary(u=u, d=d, alpha=0.5)
        with pytest.raises(ValueError, match=r"class of C\(2000000, 1000\) rows"):
            dsubset_adversary(tau=0.00025, d=1000, alpha=0.5)
        # Below the refusal the enumeration cap still decides.
        with pytest.raises(ValueError, match="class of size 1352078 exceeds the enumeration cap"):
            dsubset_adversary(u=23, d=11, alpha=0.5)
        assert len(dsubset_adversary(u=22, d=11, alpha=0.5).klass) == 705432


class TestAvailableFixtures:
    def test_registry_is_sorted(self):
        names = available_fixtures()
        assert names == tuple(sorted(names))
        assert "two_experts" in names
