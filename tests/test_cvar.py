import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from msmbounds import (
    DataError,
    DiscreteDist,
    ParameterError,
    empirical_quantile,
    sensitivity_params,
    weighting_kernel,
)
from helpers import random_dist
from oracles import cvar, cvar_dual_oracle, transformed_mean, transformed_outcome

P2 = sensitivity_params(2.0)
P1 = sensitivity_params(1.0)


class TestDiscreteDist:
    def test_canonicalization_merges_ties(self):
        d = DiscreteDist([3.0, 1.0, 3.0], [0.2, 0.5, 0.3])
        np.testing.assert_array_equal(d.atoms, [1.0, 3.0])
        np.testing.assert_allclose(d.weights, [0.5, 0.5])

    def test_invalid_weights(self):
        with pytest.raises(DataError):
            DiscreteDist([1.0, 2.0], [0.6, 0.6])
        with pytest.raises(DataError):
            DiscreteDist([1.0, 2.0], [-0.1, 1.1])
        with pytest.raises(DataError):
            DiscreteDist([1.0], [0.5, 0.5])


    @pytest.mark.parametrize("atoms", [[0.0, np.nan], [np.inf, 1.0]], ids=["nan", "inf"])
    def test_non_finite_atoms(self, atoms):
        with pytest.raises(DataError, match="^atoms and weights must be finite"):
            DiscreteDist(atoms, [0.5, 0.5])


class TestEmpiricalQuantile:
    def test_cdf_walk(self):
        d = DiscreteDist([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])
        assert empirical_quantile(d, 0.5) == 2.0

    def test_maximum(self):
        d = DiscreteDist([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])
        assert empirical_quantile(d, 1.0) == 3.0

    def test_heavy_atom(self):
        d = DiscreteDist([0.0, 10.0], [0.9, 0.1])
        assert empirical_quantile(d, 2 / 3) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.2])
    def test_domain(self, bad):
        d = DiscreteDist([1.0], [1.0])
        with pytest.raises(ParameterError):
            empirical_quantile(d, bad)


class TestCvar:
    def test_upper_two_point(self):
        d = DiscreteDist([0.0, 10.0], [0.9, 0.1])
        assert cvar(d, P2, "+") == pytest.approx(3.0, abs=1e-12)

    def test_lower_two_point(self):
        d = DiscreteDist([0.0, 10.0], [0.9, 0.1])
        assert cvar(d, P2, "-") == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["", "up", 1])
    def test_side_is_plus_or_minus(self, side):
        with pytest.raises(ParameterError, match="^" + re.escape(f"side must be '+' or '-', got {side!r}")):
            cvar(DiscreteDist([0.0, 1.0], [0.5, 0.5]), P2, side)

    def test_lam_one_top_half(self):
        d = DiscreteDist([0.0, 10.0], [0.5, 0.5])
        assert cvar(d, P1, "+") == pytest.approx(10.0, abs=1e-12)

    def test_dual_oracle_examples(self):
        d = DiscreteDist([0.0, 10.0], [0.9, 0.1])
        assert cvar_dual_oracle(d, P2, "+") == pytest.approx(3.0, abs=1e-12)
        single = DiscreteDist([5.0], [1.0])
        for lam in (1.0, 2.0, 50.0):
            assert cvar_dual_oracle(single, sensitivity_params(lam), "+") == 5.0
        # tau -> 1 limit reaches the supremum of the support
        wide = DiscreteDist([-1.0, 1.0], [0.5, 0.5])
        assert cvar_dual_oracle(wide, sensitivity_params(1e12), "+") == pytest.approx(1.0, abs=1e-9)

    def test_dual_equivalence_random(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            d = random_dist(rng, max_atoms=12)
            for lam in (1.0, 1.5, 2.0, 5.0):
                params = sensitivity_params(lam)
                for side in ("+", "-"):
                    assert cvar(d, params, side) == pytest.approx(
                        cvar_dual_oracle(d, params, side), abs=1e-9
                    )

    def test_ordering_and_monotone_gaps(self):
        rng = np.random.default_rng(4)
        lams = (1.0, 1.5, 2.0, 5.0, 50.0)
        for _ in range(50):
            d = random_dist(rng)
            mean = d.mean()
            prev_up, prev_lo = mean, mean
            for lam in lams:
                params = sensitivity_params(lam)
                up = cvar(d, params, "+")
                lo = cvar(d, params, "-")
                assert lo <= mean + 1e-12 <= up + 2e-12
                assert up >= prev_up - 1e-12 and lo <= prev_lo + 1e-12
                prev_up, prev_lo = up, lo

    def test_quantile_minimizes_transformed_expectation(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = random_dist(rng)
            for lam in (1.5, 2.0, 5.0):
                params = sensitivity_params(lam)
                q_plus = empirical_quantile(d, params.tau)
                q_minus = empirical_quantile(d, 1.0 - params.tau)
                at_q_plus = transformed_mean(d, q_plus, params, "+")
                at_q_minus = transformed_mean(d, q_minus, params, "-")
                for cand in np.linspace(d.atoms.min() - 1, d.atoms.max() + 1, 23):
                    assert at_q_plus <= transformed_mean(d, cand, params, "+") + 1e-12
                    assert at_q_minus >= transformed_mean(d, cand, params, "-") - 1e-12

    def test_second_order_quantile_robustness(self):
        # Smooth reference law: a finely discretized standard normal.  The
        # transformed-outcome expectation at a perturbed quantile must sit
        # within O(delta^2) of the minimum, with constant at most
        # lam * max-density (up to the mixture factor).
        grid = np.linspace(-8.0, 8.0, 2001)
        pdf = norm.pdf(grid)
        d = DiscreteDist(grid, pdf / pdf.sum())
        max_density = float(norm.pdf(0.0))
        for lam in (1.5, 2.0, 5.0):
            params = sensitivity_params(lam)
            q = empirical_quantile(d, params.tau)
            base = transformed_mean(d, q, params, "+")
            mixture = 1.0 - 1.0 / lam
            for delta in (0.1, 0.05, 0.025):
                for sign in (1.0, -1.0):
                    err = transformed_mean(d, q + sign * delta, params, "+") - base
                    assert err >= -1e-12
                    assert err <= 1.1 * mixture * lam * max_density * delta**2


class TestTransformAndKernel:
    def test_examples(self):
        assert transformed_outcome(2.0, 1.0, P2, "+") == pytest.approx(3.0, abs=1e-14)
        assert transformed_outcome(0.0, 1.0, P2, "+") == pytest.approx(0.5, abs=1e-14)
        assert weighting_kernel(2.0, 1.0, P2, "+") == pytest.approx(3.0, abs=1e-14)
        assert weighting_kernel(0.0, 1.0, P2, "+") == pytest.approx(0.5, abs=1e-14)

    def test_lam_one_is_identity(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=100)
        q = rng.normal(size=100)
        for side in ("+", "-"):
            np.testing.assert_allclose(transformed_outcome(y, q, P1, side), y, atol=1e-14)
            np.testing.assert_allclose(weighting_kernel(y, q, P1, side), y, atol=1e-14)

    def test_zero_increment_at_match(self):
        for lam in (1.0, 3.0, 17.0):
            params = sensitivity_params(lam)
            assert weighting_kernel(4.2, 4.2, params, "+") == 4.2
            assert weighting_kernel(4.2, 4.2, params, "-") == 4.2

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=1.0, max_value=100.0),
        st.sampled_from(["+", "-"]),
    )
    @settings(max_examples=500, deadline=None)
    def test_identity_property(self, y, q, lam, side):
        params = sensitivity_params(lam)
        kernel = weighting_kernel(y, q, params, side)
        transformed = transformed_outcome(y, q, params, side)
        scale = 1.0 + lam * (abs(y) + abs(q))
        assert abs(kernel - transformed) <= 1e-12 * scale
