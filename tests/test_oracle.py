import dataclasses
import re

import numpy as np
import pytest

from msmbounds import (
    DataError,
    DiscreteDGP,
    DiscreteDist,
    Estimand,
    ParameterError,
    greedy_extreme_mean,
    sample_dataset,
    sensitivity_params,
    sharp_bound_oracle,
)
from helpers import FIXTURE_SINGLE, FIXTURE_SINGLE_SHARP_MEAN1, FIXTURE_THREE, random_dgp
from oracles import (
    adversarial_propensity,
    cvar,
    injection_bundle,
    population_bound,
    transformed_mean_nuisances,
    true_nuisances,
)

P1 = sensitivity_params(1.0)
P2 = sensitivity_params(2.0)
LAMS = (1.0, 1.3, 2.0, 5.0)


def mixture_route(dgp, params, arm, side):
    """Sharp mean bound through the quantile/tail-average mixture."""
    nus = true_nuisances(dgp, params)
    rho = nus.rho_plus if side == "+" else nus.rho_minus
    obs = dgp.propensity if arm == 1 else 1.0 - dgp.propensity
    return float(np.sum(dgp.level_probs * (obs * nus.mu[:, arm] + (1.0 - obs) * rho[:, arm])))


def weighting_route(dgp, params, side):
    """Sharp arm-1 mean bound through the worst-case propensity expectation."""
    total = 0.0
    for lvl in range(dgp.n_levels):
        dist = dgp.outcomes[lvl][1]
        for y, w in zip(dist.atoms, dist.weights):
            e_adv = adversarial_propensity(dgp, params, lvl, float(y), side)
            total += dgp.level_probs[lvl] * dgp.propensity[lvl] * w * y / e_adv
    return total


def swap_arms(dgp):
    return DiscreteDGP(
        level_probs=dgp.level_probs,
        propensity=1.0 - dgp.propensity,
        outcomes=tuple((pair[1], pair[0]) for pair in dgp.outcomes),
    )


class TestTrueNuisances:
    def test_single_level_values(self):
        nus = true_nuisances(FIXTURE_SINGLE, P2)
        assert nus.mu[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert nus.q_plus[0, 1] == 0.0
        assert cvar(FIXTURE_SINGLE.outcomes[0][1], P2, "+") == pytest.approx(3.0, abs=1e-12)
        assert nus.rho_plus[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_lam_one_regressions_are_means(self):
        nus = true_nuisances(FIXTURE_THREE, P1)
        np.testing.assert_allclose(nus.rho_plus, nus.mu, atol=1e-14)
        np.testing.assert_allclose(nus.rho_minus, nus.mu, atol=1e-14)

    def test_bernoulli_matches_closed_form(self):
        from msmbounds import binary_nuisances

        dgp = DiscreteDGP(
            level_probs=[1.0],
            propensity=[0.5],
            outcomes=((DiscreteDist([0.0, 1.0], [0.5, 0.5]), DiscreteDist([0.0, 1.0], [0.5, 0.5])),),
        )
        nus = true_nuisances(dgp, P2)
        _, _, rp, rm = binary_nuisances(0.5, P2)
        assert nus.rho_plus[0, 1] == pytest.approx(rp, abs=1e-12)
        assert nus.rho_minus[0, 1] == pytest.approx(rm, abs=1e-12)


class TestSharpBoundOracle:
    def test_fixture_values(self):
        lo, hi = sharp_bound_oracle(FIXTURE_SINGLE, P2, Estimand.MEAN1)
        assert hi == pytest.approx(FIXTURE_SINGLE_SHARP_MEAN1[1], abs=1e-12)
        assert lo == pytest.approx(FIXTURE_SINGLE_SHARP_MEAN1[0], abs=1e-12)

    def test_lam_one_point_identifies(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dgp = random_dgp(rng)
            for estimand in Estimand:
                lo, hi = sharp_bound_oracle(dgp, P1, estimand)
                assert lo == pytest.approx(hi, abs=1e-12)

    def test_triple_identification_cross_check(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            dgp = random_dgp(rng)
            swapped = swap_arms(dgp)
            for lam in LAMS:
                params = sensitivity_params(lam)
                lo, hi = sharp_bound_oracle(dgp, params, Estimand.MEAN1)
                assert hi == pytest.approx(mixture_route(dgp, params, 1, "+"), abs=1e-9)
                assert lo == pytest.approx(mixture_route(dgp, params, 1, "-"), abs=1e-9)
                assert hi == pytest.approx(weighting_route(dgp, params, "+"), abs=1e-9)
                assert lo == pytest.approx(weighting_route(dgp, params, "-"), abs=1e-9)
                # arm-0 bounds equal arm-1 bounds of the arm-swapped process
                lo0, hi0 = sharp_bound_oracle(dgp, params, Estimand.MEAN0)
                lo0s, hi0s = sharp_bound_oracle(swapped, params, Estimand.MEAN1)
                assert lo0 == pytest.approx(lo0s, abs=1e-9)
                assert hi0 == pytest.approx(hi0s, abs=1e-9)

    def test_monotone_in_lam(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            dgp = random_dgp(rng)
            prev = sharp_bound_oracle(dgp, P1, Estimand.ATE)
            for lam in (1.2, 1.7, 2.5, 6.0, 30.0):
                cur = sharp_bound_oracle(dgp, sensitivity_params(lam), Estimand.ATE)
                assert cur[0] <= prev[0] + 1e-12
                assert cur[1] >= prev[1] - 1e-12
                prev = cur

    def test_att_ratio_identity_vs_direct(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            dgp = random_dgp(rng)
            for lam in LAMS:
                params = sensitivity_params(lam)
                lo, hi = sharp_bound_oracle(dgp, params, Estimand.ATT)
                # direct: adversary moves only the untreated-arm regression
                # of the treated subpopulation
                p, e = dgp.level_probs, dgp.propensity
                ez = float(p @ e)
                direct_hi = sum(
                    p[l] * e[l] * (dgp.outcomes[l][1].mean() - greedy_extreme_mean(dgp.outcomes[l][0], params, "-"))
                    for l in range(dgp.n_levels)
                ) / ez
                direct_lo = sum(
                    p[l] * e[l] * (dgp.outcomes[l][1].mean() - greedy_extreme_mean(dgp.outcomes[l][0], params, "+"))
                    for l in range(dgp.n_levels)
                ) / ez
                assert hi == pytest.approx(direct_hi, abs=1e-9)
                assert lo == pytest.approx(direct_lo, abs=1e-9)


class TestAdversarialPropensity:
    def test_off_boundary_odds(self):
        # fixture arm-1 law has its tail cutoff at 0; y = 10 sits above it
        e_adv = adversarial_propensity(FIXTURE_SINGLE, P2, 0, 10.0, "+")
        assert e_adv == pytest.approx(1.0 / 3.0, abs=1e-12)
        # cutoff at the top atom: anything below it gets doubled odds
        dgp = DiscreteDGP(
            level_probs=[1.0],
            propensity=[0.5],
            outcomes=((DiscreteDist([0.0], [1.0]), DiscreteDist([0.0, 10.0], [0.5, 0.5])),),
        )
        below = adversarial_propensity(dgp, P2, 0, 0.0, "+")
        assert below == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_lam_one_unchanged(self):
        for y in (0.0, 10.0):
            e_adv = adversarial_propensity(FIXTURE_SINGLE, P1, 0, y, "+")
            assert e_adv == pytest.approx(0.5, abs=1e-12)

    def test_conditional_moment_is_one(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            dgp = random_dgp(rng)
            for lam in LAMS:
                params = sensitivity_params(lam)
                for side in ("+", "-"):
                    for lvl in range(dgp.n_levels):
                        dist = dgp.outcomes[lvl][1]
                        e = dgp.propensity[lvl]
                        moment = sum(
                            w * e / adversarial_propensity(dgp, params, lvl, float(y), side)
                            for y, w in zip(dist.atoms, dist.weights)
                        )
                        assert moment == pytest.approx(1.0, abs=1e-12)


class TestPopulationBound:
    def test_true_nuisances_hit_sharp_bounds(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            dgp = random_dgp(rng)
            for lam in LAMS:
                params = sensitivity_params(lam)
                for estimand in (Estimand.MEAN1, Estimand.MEAN0, Estimand.ATE):
                    lo, hi = sharp_bound_oracle(dgp, params, estimand)
                    assert population_bound(dgp, params, estimand, "+") == pytest.approx(hi, abs=1e-10)
                    assert population_bound(dgp, params, estimand, "-") == pytest.approx(lo, abs=1e-10)

    def test_misspecified_quantile_example(self):
        nus = true_nuisances(FIXTURE_SINGLE, P2)
        bad_q = dataclasses.replace(
            nus, q_plus=np.full((1, 2), 10.0), q_minus=np.full((1, 2), 10.0)
        )
        val = population_bound(FIXTURE_SINGLE, P2, Estimand.MEAN1, "+", eta_override=bad_q)
        assert val == pytest.approx(3.25, abs=1e-12)
        assert val >= FIXTURE_SINGLE_SHARP_MEAN1[1] - 1e-10

    def test_single_validity_dominance_random(self):
        # Wrong quantiles, but either the true propensity (weighting route)
        # or the exact transformed-outcome means (regression route) keep
        # the population bound valid on both sides.
        rng = np.random.default_rng(97)
        for _ in range(100):
            dgp = random_dgp(rng)
            lam = float(rng.choice([1.3, 2.0, 5.0]))
            params = sensitivity_params(lam)
            lo, hi = sharp_bound_oracle(dgp, params, Estimand.MEAN1)
            wrong_q = rng.uniform(-6, 6, size=(dgp.n_levels, 2))

            nus = true_nuisances(dgp, params)
            bad_q = dataclasses.replace(nus, q_plus=wrong_q, q_minus=wrong_q)
            up = population_bound(dgp, params, Estimand.MEAN1, "+", eta_override=bad_q)
            dn = population_bound(dgp, params, Estimand.MEAN1, "-", eta_override=bad_q)
            assert up >= hi - 1e-10 and dn <= lo + 1e-10

            exact_for_bad_q = transformed_mean_nuisances(dgp, params, wrong_q)
            clipped_e = np.clip(dgp.propensity * rng.uniform(0.5, 1.5, dgp.n_levels), 0.05, 0.95)
            bad_e_good_rho = dataclasses.replace(exact_for_bad_q, e_hat=clipped_e)
            up2 = population_bound(dgp, params, Estimand.MEAN1, "+", eta_override=bad_e_good_rho)
            dn2 = population_bound(dgp, params, Estimand.MEAN1, "-", eta_override=bad_e_good_rho)
            assert up2 >= hi - 1e-10 and dn2 <= lo + 1e-10

    def test_regression_route_equality_at_true_quantile(self):
        # With the exact transformed-outcome means built from the true
        # quantile, the population bound attains the sharp value even under
        # a wrong propensity.
        rng = np.random.default_rng(101)
        for _ in range(30):
            dgp = random_dgp(rng)
            params = sensitivity_params(2.0)
            nus = true_nuisances(dgp, params)
            exact = transformed_mean_nuisances(dgp, params, nus.q_plus)
            wrong_e = np.full(dgp.n_levels, 0.35)
            eta = dataclasses.replace(exact, e_hat=wrong_e)
            lo, hi = sharp_bound_oracle(dgp, params, Estimand.MEAN1)
            up = population_bound(dgp, params, Estimand.MEAN1, "+", eta_override=eta)
            assert up == pytest.approx(hi, abs=1e-10)


    @pytest.mark.parametrize(
        "dgp, table",
        [(FIXTURE_SINGLE, FIXTURE_THREE), (FIXTURE_THREE, FIXTURE_SINGLE)],
        ids=["3-level-table-on-1-level", "1-level-table-on-3-level"],
    )
    def test_a_table_needs_one_row_per_level(self, dgp, table):
        # Once a 3-level table read as 2.1167 on the 1-level process (its
        # true upper bound is 1.5) and a 1-level one raised an IndexError.
        nus = true_nuisances(table, P2)
        message = f"nuisance table has {table.n_levels} rows but the DGP has {dgp.n_levels} levels"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            population_bound(dgp, P2, Estimand.MEAN1, "+", eta_override=nus)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            injection_bundle(dgp, nus)

    def test_the_table_is_a_checked_nuisance_set(self):
        nus = true_nuisances(FIXTURE_THREE, P2)
        assert nus.n == FIXTURE_THREE.n_levels and nus.mu.shape == (3, 2)
        np.testing.assert_array_equal(nus.e_hat, FIXTURE_THREE.propensity)
        with pytest.raises(DataError, match="^propensities must lie strictly inside"):
            dataclasses.replace(nus, e_hat=np.array([0.3, 1.0, 0.7]))
        with pytest.raises(DataError, match=re.escape("q_plus must have shape (3, 2), got (2, 2)")):
            dataclasses.replace(nus, q_plus=np.zeros((2, 2)))
        # The population bound does not read mu.
        up = population_bound(FIXTURE_THREE, P2, Estimand.ATE, "+", eta_override=dataclasses.replace(nus, mu=None))
        assert up == population_bound(FIXTURE_THREE, P2, Estimand.ATE, "+")

    def test_att_is_rejected(self):
        with pytest.raises(ParameterError, match="^population evaluation supports the mean and effect estimands"):
            population_bound(FIXTURE_THREE, P2, Estimand.ATT, "+")


class TestOracleInputs:
    LAW = DiscreteDist([0.0], [1.0])

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"level_probs": [0.5, 0.5]}, "level probabilities, propensities, and outcome laws must align"),
            ({"level_probs": [1.5, -0.5], "propensity": [0.5, 0.5], "outcomes": ((LAW, LAW),) * 2},
             "level probabilities must be nonnegative and sum to 1 within 1e-12"),
            ({"propensity": [1.0]}, "propensities must lie strictly inside (0, 1)"),
            ({"outcomes": ((LAW,),)}, "each level needs one outcome law per arm"),
            ({"level_values": np.zeros((2, 1))}, "level_values must have 1 rows, got (2, 1)"),
        ],
        ids=["misaligned", "negative-probability", "propensity-one", "one-arm", "level-values-rows"],
    )
    def test_dgp_checks(self, fields, message):
        law = {"level_probs": [1.0], "propensity": [0.5], "outcomes": ((self.LAW, self.LAW),)}
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            DiscreteDGP(**{**law, **fields})

    @pytest.mark.parametrize(
        "fields, field",
        [({"level_probs": ["x"]}, "level_probs"), ({"propensity": ["x"]}, "propensity"),
         ({"level_values": [["x"]]}, "level_values")],
        ids=["level-probs", "propensity", "level-values"],
    )
    def test_non_numeric_input_is_a_data_error(self, fields, field):
        # Before, numpy's bare ValueError.
        law = {"level_probs": [1.0], "propensity": [0.5], "outcomes": ((self.LAW, self.LAW),)}
        with pytest.raises(DataError, match=f"^{field} is not numeric: "):
            DiscreteDGP(**{**law, **fields})

    def test_adversarial_propensity_level(self):
        with pytest.raises(ParameterError, match="^level must index one of 3 levels, got 3"):
            adversarial_propensity(FIXTURE_THREE, P2, 3, 0.0, "+")

    def test_sample_size(self):
        with pytest.raises(ParameterError, match="^sample size must be >= 1, got 0"):
            sample_dataset(FIXTURE_THREE, 0, seed=1)

    def test_injection_on_covariates_of_no_level(self):
        bundle = injection_bundle(FIXTURE_THREE, true_nuisances(FIXTURE_THREE, P2))
        with pytest.raises(ParameterError, match="^covariates do not index this DGP's levels"):
            bundle.propensity.inject(np.array([[0.0], [3.0]]))

    def test_binary_injection_needs_mu(self):
        dgp = DiscreteDGP(
            level_probs=[1.0], propensity=[0.5], outcomes=((DiscreteDist([0.0, 1.0], [0.5, 0.5]),) * 2,)
        )
        nus = dataclasses.replace(true_nuisances(dgp, P2), mu=None)
        with pytest.raises(ParameterError, match="^injection needs the outcome mean, but the nuisance table has no mu"):
            injection_bundle(dgp, nus)

    def test_continuous_injection_needs_mu(self):
        # Every cross-fit fits the outcome mean, so every process injects it.
        nus = dataclasses.replace(true_nuisances(FIXTURE_THREE, P2), mu=None)
        with pytest.raises(ParameterError, match="^injection needs the outcome mean"):
            injection_bundle(FIXTURE_THREE, nus)

    @pytest.mark.parametrize(
        "level_values", [[[2.0], [1.0], [0.0]], [[0.5, -1.0], [0.5, 1.0], [7.0, 0.0]]], ids=["reversed", "two-columns"]
    )
    def test_injection_follows_level_values(self, level_values):
        # Each covariate row is the level_values row of its level; before,
        # the lookup rounded column 0, so reversed levels got level 0's
        # nuisances at level 2's rows.
        f = FIXTURE_THREE
        dgp = DiscreteDGP(f.level_probs, f.propensity, f.outcomes, level_values=level_values)
        nus = true_nuisances(dgp, P2)
        bundle = injection_bundle(dgp, nus)
        data = sample_dataset(dgp, 60, seed=1)
        levels = np.array([level_values.index(row) for row in data.covariates.tolist()])
        assert set(levels) == {0, 1, 2}
        np.testing.assert_array_equal(bundle.propensity.inject(data.covariates), dgp.propensity[levels])
        np.testing.assert_array_equal(bundle.quantile.inject(data.covariates, 1, P2.tau), nus.q_plus[levels, 1])
        np.testing.assert_array_equal(bundle.regression.inject(data.covariates, 0), nus.mu[levels, 0])
        np.testing.assert_array_equal(bundle.regression.inject(data.covariates, 1, "-"), nus.rho_minus[levels, 1])
        with pytest.raises(ParameterError, match="^covariates do not index this DGP's levels"):
            bundle.propensity.inject(data.covariates[:, :1] if len(level_values[0]) > 1 else np.array([[0.5]]))

    @pytest.mark.parametrize("level_values", [[[0.0], [1.0], [0.0]], [[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]]])
    def test_level_values_rows_must_differ(self, level_values):
        f = FIXTURE_THREE
        with pytest.raises(DataError, match="^level_values rows must differ"):
            DiscreteDGP(f.level_probs, f.propensity, f.outcomes, level_values=level_values)

    def test_transformed_mean_table_shape(self):
        with pytest.raises(ParameterError, match=re.escape("q_values must have shape (3, 2), got (2, 2)")):
            transformed_mean_nuisances(FIXTURE_THREE, P2, np.zeros((2, 2)))


class TestSampling:
    def test_deterministic(self):
        a = sample_dataset(FIXTURE_THREE, 500, seed=5)
        b = sample_dataset(FIXTURE_THREE, 500, seed=5)
        np.testing.assert_array_equal(a.outcome, b.outcome)
        np.testing.assert_array_equal(a.treatment, b.treatment)

    def test_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            sample_dataset(FIXTURE_THREE, 10, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ParameterError, match=f"^seed must be an integer, got {seed!r}$"):
            sample_dataset(FIXTURE_THREE, 10, seed=seed)

    def test_moments_match(self):
        n = 200_000
        data = sample_dataset(FIXTURE_THREE, n, seed=6)
        ey, ez = 0.0, float(FIXTURE_THREE.level_probs @ FIXTURE_THREE.propensity)
        for lvl in range(FIXTURE_THREE.n_levels):
            p = FIXTURE_THREE.level_probs[lvl]
            e = FIXTURE_THREE.propensity[lvl]
            ey += p * (e * FIXTURE_THREE.outcomes[lvl][1].mean() + (1 - e) * FIXTURE_THREE.outcomes[lvl][0].mean())
        assert data.treatment.mean() == pytest.approx(ez, abs=4 * np.sqrt(ez * (1 - ez) / n))
        assert data.outcome.mean() == pytest.approx(ey, abs=4 * np.std(data.outcome) / np.sqrt(n))

    def test_injection_bundle_matches_levels(self):
        nus = true_nuisances(FIXTURE_THREE, P2)
        bundle = injection_bundle(FIXTURE_THREE, nus)
        data = sample_dataset(FIXTURE_THREE, 50, seed=7)
        levels = data.covariates[:, 0].astype(int)
        np.testing.assert_allclose(
            bundle.propensity.inject(data.covariates), FIXTURE_THREE.propensity[levels]
        )
        np.testing.assert_allclose(
            bundle.quantile.inject(data.covariates, 1, P2.tau), nus.q_plus[levels, 1]
        )
        np.testing.assert_allclose(
            bundle.regression.inject(data.covariates, 0, "-"), nus.rho_minus[levels, 0]
        )

    def test_injection_bundle_binary_process(self):
        # A 0/1-outcome process routes through the outcome-regression
        # injection and the closed forms, reproducing the exact nuisances.
        from msmbounds import binary_nuisances, crossfit_nuisances, split_folds

        dgp = DiscreteDGP(
            level_probs=[0.4, 0.6],
            propensity=[0.3, 0.6],
            outcomes=(
                (DiscreteDist([0.0, 1.0], [0.7, 0.3]), DiscreteDist([0.0, 1.0], [0.2, 0.8])),
                (DiscreteDist([0.0, 1.0], [0.5, 0.5]), DiscreteDist([0.0, 1.0], [0.9, 0.1])),
            ),
        )
        nus = true_nuisances(dgp, P2)
        data = sample_dataset(dgp, 400, seed=8)
        assert data.outcome_kind.value == "binary"
        eta = crossfit_nuisances(data, P2, injection_bundle(dgp, nus), split_folds(400, 2, seed=0))
        levels = data.covariates[:, 0].astype(int)
        for arm in (0, 1):
            qp, qm, rp, rm = binary_nuisances(nus.mu[levels, arm], P2)
            np.testing.assert_allclose(eta.rho_plus[:, arm], rp, atol=1e-14)
            np.testing.assert_allclose(eta.rho_minus[:, arm], rm, atol=1e-14)
            np.testing.assert_allclose(eta.rho_plus[:, arm], nus.rho_plus[levels, arm], atol=1e-14)
            np.testing.assert_allclose(eta.q_plus[:, arm], nus.q_plus[levels, arm], atol=1e-14)
