import re

import numpy as np
import pytest

from msmbounds import (
    DataError,
    Dataset,
    Estimand,
    FitError,
    FoldPlan,
    LearnerBundle,
    LearnerSpec,
    NuisanceSet,
    OutcomeKind,
    ParameterError,
    att_bounds,
    binary_nuisances,
    crossfit_nuisances,
    default_bundle,
    estimate_bounds,
    influence_scores,
    sample_dataset,
    sensitivity_curve,
    sensitivity_params,
    split_folds,
    wald_bounds,
)
from helpers import FIXTURE_THREE, random_dataset
from oracles import aipw, injection_bundle, manski_bounds_binary, true_nuisances

P1 = sensitivity_params(1.0)
P2 = sensitivity_params(2.0)


class TestSplitFolds:
    def test_approximately_even(self):
        plan = split_folds(10, 3, seed=7)
        assert sorted(np.bincount(plan.assignments).tolist()) == [3, 3, 4]

    def test_singletons(self):
        plan = split_folds(6, 6, seed=0)
        assert np.bincount(plan.assignments).tolist() == [1] * 6

    @pytest.mark.parametrize("n,k", [(5, 6), (10, 1), (3, 0)])
    def test_domain(self, n, k):
        with pytest.raises(ParameterError):
            split_folds(n, k, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            split_folds(10, 2, seed=-1)

    def test_negative_seed_entry(self):
        with pytest.raises(ParameterError, match=r"seed must be >= 0, got \[-1\]"):
            split_folds(10, 2, [-1])

    @pytest.mark.parametrize("seed", [1.5, True, "1", None, [1, 2.5]], ids=repr)
    def test_a_seed_that_is_not_an_integer(self, seed):
        # 1.5 used to raise numpy's bare TypeError, and True to split as seed 1.
        bad = seed[1] if isinstance(seed, list) else seed
        with pytest.raises(ParameterError, match=f"^seed must be an integer, got {re.escape(repr(bad))}$"):
            split_folds(10, 2, seed)

    @pytest.mark.parametrize(
        "seed",
        [[1, 2], (1, 2), np.array([1, 2]), np.random.SeedSequence(4)],
        ids=["list", "tuple", "array", "sequence"],
    )
    def test_seed_sequences(self, seed):
        # Any seed numpy's generator takes and check_seed accepts splits.
        plan = split_folds(10, 2, seed)
        perm = np.random.default_rng(seed).permutation(10)
        np.testing.assert_array_equal(plan.assignments[perm], [0] * 5 + [1] * 5)

    def test_deterministic(self):
        a = split_folds(100, 5, seed=42).assignments
        b = split_folds(100, 5, seed=42).assignments
        np.testing.assert_array_equal(a, b)
        c = split_folds(100, 5, seed=43).assignments
        assert not np.array_equal(a, c)


class TestFoldPlan:
    @pytest.mark.parametrize(
        "assignments, message",
        [
            (np.array([-1, 0, 1]), "fold assignment -1 is outside [0, 2)"),
            ([0, 1, 2], "fold assignment 2 is outside [0, 2)"),
            ([0.5, 1, 0], "fold assignments must be 1-D integers, got shape (3,) of float64"),
            (np.array([[0, 1], [1, 0]]), "fold assignments must be 1-D integers, got shape (2, 2) of int64"),
        ],
        ids=["negative", "fold-k", "non-integer", "2-d"],
    )
    def test_assignments_are_integers_in_range(self, assignments, message):
        # Before, these raised a bare ValueError from np.bincount, "object
        # too deep", nothing at all (0.5 was truncated to fold 0), and
        # "every fold must be nonempty".
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            FoldPlan(assignments, 2)

    @pytest.mark.parametrize(
        "assignments, k, message",
        [
            ([0, 0, 0], 1, "fold count must satisfy 2 <= k <= n, got k=1, n=3"),
            ([0, 1, 0], 2.0, "fold count must be an integer, got 2.0"),
            ([0, 1, 0], True, "fold count must be an integer, got True"),
            (np.array([], dtype=int), 0, "fold count must satisfy 2 <= k <= n, got k=0, n=0"),
        ],
        ids=["one-fold", "float", "bool", "empty"],
    )
    def test_the_fold_count_is_an_integer_of_at_least_two(self, assignments, k, message):
        # Before, these were accepted, a bare TypeError and a bare ValueError.
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            FoldPlan(assignments, k)

    def test_fold_sizes_differ_by_at_most_one(self):
        with pytest.raises(ParameterError, match="^fold sizes must differ by at most one$"):
            FoldPlan([0, 0, 0, 1], 2)

    def test_split_folds_takes_an_integer_fold_count(self):
        # Before, 2.5 silently built two folds.
        with pytest.raises(ParameterError, match="^fold count must be an integer, got 2.5$"):
            split_folds(10, 2.5, 1)
        assert split_folds(10, np.int64(2), 1).k == 2

    @pytest.mark.parametrize("n, message", [(2.5, "got 2.5"), (True, "got True")])
    def test_split_folds_takes_an_integer_row_count(self, n, message):
        # Before, 2.5 raised a bare numpy AxisError from the permutation.
        with pytest.raises(ParameterError, match=f"^row count must be an integer, {message}$"):
            split_folds(n, 2, 1)
        assert split_folds(np.int64(10), 2, 1).n == 10

    def test_a_valid_plan_is_frozen_int64(self):
        plan = FoldPlan(np.array([0, 1, 0], dtype=np.int32), 2)
        assert plan.assignments.dtype == np.int64 and plan.n == 3
        with pytest.raises(ValueError):
            plan.assignments[0] = 1

    def test_a_plan_of_another_size_is_rejected(self):
        data = random_dataset(np.random.default_rng(2), 20, binary=True)
        with pytest.raises(ParameterError, match="^fold plan covers 10 rows but the dataset has 20"):
            sensitivity_curve(data, [1.0], default_bundle("binary"), split_folds(10, 2, seed=0), Estimand.ATE)


def singleton_eta(n, e, q1, rho1, q0=0.0, rho0=0.0):
    return NuisanceSet(
        e_hat=np.full(n, e),
        q_plus=np.column_stack([np.full(n, q0), np.full(n, q1)]),
        q_minus=np.column_stack([np.full(n, q0), np.full(n, q1)]),
        rho_plus=np.column_stack([np.full(n, rho0), np.full(n, rho1)]),
        rho_minus=np.column_stack([np.full(n, rho0), np.full(n, rho1)]),
    )


class TestInfluence:
    def test_direct_substitution(self):
        data = Dataset(np.zeros((1, 1)), np.array([1]), np.array([0.0]), OutcomeKind.CONTINUOUS)
        eta = singleton_eta(1, e=0.5, q1=0.0, rho1=2.0)
        phi = influence_scores(data, eta, P2, Estimand.MEAN1, "+")
        assert phi[0] == pytest.approx(-2.0, abs=1e-14)

    def test_control_row_is_regression_only(self):
        data = Dataset(np.zeros((1, 1)), np.array([0]), np.array([7.0]), OutcomeKind.CONTINUOUS)
        eta = singleton_eta(1, e=0.3, q1=1.0, rho1=2.5)
        for side in ("+", "-"):
            phi = influence_scores(data, eta, P2, Estimand.MEAN1, side)
            assert phi[0] == 2.5

    def test_lam_one_is_aipw_summand(self):
        rng = np.random.default_rng(0)
        n = 50
        data = random_dataset(rng, n, binary=False)
        e = rng.uniform(0.2, 0.8, n)
        mu = rng.normal(size=(n, 2))
        eta = NuisanceSet(
            e_hat=e,
            q_plus=rng.normal(size=(n, 2)),
            q_minus=rng.normal(size=(n, 2)),
            rho_plus=mu,
            rho_minus=mu,
            mu=mu,
        )
        z = data.treatment.astype(float)
        y = data.outcome
        expected = z * y + (1 - z) * mu[:, 1] + ((1 - e) / e) * z * (y - mu[:, 1])
        phi = influence_scores(data, eta, P1, Estimand.MEAN1, "+")
        np.testing.assert_allclose(phi, expected, atol=1e-14)


    def test_size_mismatch_and_att_are_rejected(self):
        data = Dataset(np.zeros((2, 1)), np.array([1, 0]), np.array([0.0, 1.0]), OutcomeKind.CONTINUOUS)
        with pytest.raises(ParameterError, match="^nuisance set covers 3 rows but the dataset has 2"):
            influence_scores(data, singleton_eta(3, e=0.5, q1=0.0, rho1=0.0), P2, Estimand.MEAN1, "+")
        with pytest.raises(ParameterError, match="^the treated-effect estimand uses att_bounds"):
            influence_scores(data, singleton_eta(2, e=0.5, q1=0.0, rho1=0.0), P2, Estimand.ATT, "+")


class TestEstimateBounds:
    def test_constant_influence(self):
        n = 10
        data = Dataset(np.zeros((n, 1)), np.r_[np.zeros(5, int), np.ones(5, int)],
                       np.full(n, 3.0), OutcomeKind.CONTINUOUS)
        eta = singleton_eta(n, e=0.5, q1=3.0, rho1=3.0, q0=3.0, rho0=3.0)
        est = estimate_bounds(data, eta, P2, Estimand.MEAN1)
        assert est.psi_lower == pytest.approx(3.0, abs=1e-14)
        assert est.se_lower == 0.0 and est.se_upper == 0.0

    def test_psi_is_mean_of_influence_and_se_formula(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 400, binary=True)
        bundle = default_bundle("binary")
        plan = split_folds(data.n, 4, seed=2)
        eta = crossfit_nuisances(data, P2, bundle, plan)
        est = estimate_bounds(data, eta, P2, Estimand.ATE)
        assert est.psi_lower == pytest.approx(float(est.influence_lower.mean()), abs=1e-12)
        assert est.psi_upper == pytest.approx(float(est.influence_upper.mean()), abs=1e-12)
        # independent two-pass variance
        for phi, se in ((est.influence_lower, est.se_lower), (est.influence_upper, est.se_upper)):
            indep = np.sqrt(np.var(phi, ddof=1) / phi.size)
            assert se == pytest.approx(float(indep), abs=1e-12)

    def test_ordering_on_random_data(self):
        rng = np.random.default_rng(11)
        for binary in (True, False):
            data = random_dataset(rng, 300, binary=binary)
            bundle = default_bundle("binary" if binary else "continuous")
            plan = split_folds(data.n, 3, seed=1)
            for lam in (1.0, 1.5, 3.0, 10.0):
                params = sensitivity_params(lam)
                eta = crossfit_nuisances(data, params, bundle, plan)
                est = estimate_bounds(data, eta, params, Estimand.ATE)
                assert est.psi_lower <= est.psi_upper + 1e-12

    def test_needs_two_rows(self):
        data = Dataset(np.zeros((1, 1)), np.array([1]), np.array([0.0]), OutcomeKind.CONTINUOUS)
        eta = singleton_eta(1, 0.5, 0.0, 0.0)
        with pytest.raises(ParameterError):
            estimate_bounds(data, eta, P2, Estimand.MEAN1)


class TestWald:
    def test_zero_se(self):
        est = estimate_like(psi=(0.2, 0.8), se=(0.0, 0.0))
        assert wald_bounds(est, 0.025) == (0.2, 0.8)

    def test_arithmetic(self):
        est = estimate_like(psi=(-1.0, 1.0), se=(0.1, 0.1))
        lo, hi = wald_bounds(est, 0.025)
        assert lo == pytest.approx(-1.196, abs=1e-3)
        assert hi == pytest.approx(1.196, abs=1e-3)

    def test_domain(self):
        est = estimate_like(psi=(0.0, 0.0), se=(0.0, 0.0))
        with pytest.raises(ParameterError):
            wald_bounds(est, 1.5)

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.05, 0.025, 0.01, 1e-6])
    def test_z_is_scipy_norm_ppf_bit_for_bit(self, alpha):
        from scipy.stats import norm

        z = float(norm.ppf(1.0 - alpha))
        lo, hi = wald_bounds(estimate_like(psi=(0.0, 0.0), se=(1.0, 1.0)), alpha)
        assert -lo == z and hi == z


def estimate_like(psi, se):
    from msmbounds import BoundEstimate

    return BoundEstimate(
        estimand=Estimand.ATE,
        lam=2.0,
        psi_lower=psi[0],
        psi_upper=psi[1],
        se_lower=se[0],
        se_upper=se[1],
        influence_lower=np.zeros(3),
        influence_upper=np.zeros(3),
    )


class TestCrossfit:
    def test_binary_constant_spec_matches_closed_forms(self):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 200, binary=True)
        bundle = LearnerBundle(
            propensity=LearnerSpec(kind="constant"),
            quantile=LearnerSpec(kind="constant"),
            regression=LearnerSpec(kind="constant"),
        )
        plan = split_folds(data.n, 2, seed=0)
        eta = crossfit_nuisances(data, P2, bundle, plan)
        for fold in range(2):
            test = np.where(plan.assignments == fold)[0]
            train = np.where(plan.assignments != fold)[0]
            for arm in (0, 1):
                arm_rows = train[data.treatment[train] == arm]
                mu = float(data.outcome[arm_rows].mean())
                qp, qm, rp, rm = binary_nuisances(mu, P2)
                np.testing.assert_allclose(eta.q_plus[test, arm], qp)
                np.testing.assert_allclose(eta.rho_plus[test, arm], rp, atol=1e-14)
                np.testing.assert_allclose(eta.rho_minus[test, arm], rm, atol=1e-14)
                np.testing.assert_allclose(eta.mu[test, arm], mu, atol=1e-14)

    def test_oracle_injection_bypasses_fitting(self):
        n = 4
        data = Dataset(
            np.arange(n, dtype=float)[:, None],
            np.array([0, 1, 0, 1]),
            np.array([0.0, 1.0, 2.0, 3.0]),
            OutcomeKind.CONTINUOUS,
        )
        bundle = LearnerBundle(
            propensity=LearnerSpec(kind="oracle_injection", inject=lambda x: np.full(len(x), 0.4)),
            quantile=LearnerSpec(
                kind="oracle_injection", inject=lambda x, arm, alpha: x[:, 0] + arm + alpha
            ),
            regression=LearnerSpec(
                kind="oracle_injection", inject=lambda x, arm, side=None: x[:, 0] * {None: 1, "+": 2, "-": -2}[side]
            ),
        )
        plan = split_folds(n, 2, seed=5)
        eta = crossfit_nuisances(data, P2, bundle, plan)
        np.testing.assert_allclose(eta.e_hat, 0.4)
        np.testing.assert_allclose(eta.q_plus[:, 1], data.covariates[:, 0] + 1 + P2.tau)
        np.testing.assert_allclose(eta.rho_minus[:, 0], -2 * data.covariates[:, 0])
        np.testing.assert_allclose(eta.mu, data.covariates[:, [0, 0]])

    def test_an_injected_continuous_regression_gives_the_mean_too(self):
        # The regression callable answers inject(X, arm) with the mean and
        # inject(X, arm, side) with the adversarial regression; the mean
        # does not enter the bounds, which equal those of the injected tables.
        nus = true_nuisances(FIXTURE_THREE, P2)
        data = sample_dataset(FIXTURE_THREE, 300, seed=3)
        levels = data.covariates[:, 0].astype(int)
        plan = split_folds(data.n, 3, seed=4)
        bundle = injection_bundle(FIXTURE_THREE, nus)
        for point in sensitivity_curve(data, [1.0, 2.0, 4.0], bundle, plan, "ate"):
            assert point.eta.mu.tobytes() == nus.mu[levels].tobytes()
            tables = NuisanceSet(
                e_hat=nus.e_hat[levels],
                q_plus=nus.q_plus[levels],
                q_minus=nus.q_minus[levels],
                rho_plus=nus.rho_plus[levels],
                rho_minus=nus.rho_minus[levels],
            )
            want = estimate_bounds(data, tables, point.params, "ate")
            got = point.estimate
            assert (got.psi_lower, got.psi_upper, got.se_lower, got.se_upper) == (
                want.psi_lower, want.psi_upper, want.se_lower, want.se_upper
            )

    @pytest.mark.parametrize("value", [np.nan, 1.5, -0.5], ids=["nan", "above-one", "below-zero"])
    def test_a_binary_injected_mean_outside_the_unit_interval(self, value):
        # The sweep clips a binary mean into [0, 1]; a NaN survives the clip
        # and is a fit error of its fold, while 1.5 and -0.5 are clipped.
        data = random_dataset(np.random.default_rng(5), 40, binary=True)
        regression = LearnerSpec(kind="oracle_injection", inject=lambda x, arm: np.full(x.shape[0], value))
        base = default_bundle("binary")
        bundle = LearnerBundle(base.propensity, base.quantile, regression)
        plan = split_folds(data.n, 2, seed=0)
        if np.isnan(value):
            with pytest.raises(FitError, match=r"^fold 0: binary outcome regression values must lie in \[0, 1\]$"):
                crossfit_nuisances(data, P2, bundle, plan)
        else:
            assert np.all(crossfit_nuisances(data, P2, bundle, plan).mu == np.clip(value, 0.0, 1.0))

    def test_fold_without_treated_rows_annotated(self):
        n = 8
        data = Dataset(
            np.zeros((n, 1)),
            np.array([1, 0, 0, 0, 0, 0, 0, 0]),
            np.zeros(n),
            OutcomeKind.CONTINUOUS,
        )
        bundle = default_bundle("continuous")
        # With the only treated row inside some fold, that fold's
        # complement is all-control.
        plan = split_folds(n, 2, seed=1)
        with pytest.raises(FitError, match=r"fold \d"):
            crossfit_nuisances(data, P2, bundle, plan)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 250, binary=False)
        bundle = default_bundle("continuous")
        plan = split_folds(data.n, 5, seed=9)
        eta1 = crossfit_nuisances(data, P2, bundle, plan)
        eta2 = crossfit_nuisances(data, P2, bundle, plan)
        est1 = estimate_bounds(data, eta1, P2, Estimand.ATE)
        est2 = estimate_bounds(data, eta2, P2, Estimand.ATE)
        assert est1.psi_lower == est2.psi_lower and est1.psi_upper == est2.psi_upper
        assert est1.se_lower == est2.se_lower and est1.se_upper == est2.se_upper
        np.testing.assert_array_equal(est1.influence_upper, est2.influence_upper)


class TestAipwCollapse:
    @pytest.mark.parametrize("binary", [True, False])
    def test_lam_one_equals_aipw(self, binary):
        rng = np.random.default_rng(13)
        data = random_dataset(rng, 350, binary=binary)
        bundle = default_bundle("binary" if binary else "continuous")
        plan = split_folds(data.n, 5, seed=4)
        eta = crossfit_nuisances(data, P1, bundle, plan)
        est = estimate_bounds(data, eta, P1, Estimand.ATE)
        reference = aipw(data, eta.e_hat, eta.mu)
        assert abs(est.psi_upper - est.psi_lower) <= 1e-10
        assert est.psi_upper == pytest.approx(reference, abs=1e-10)


class TestAtt:
    def test_ratio_form_and_ses_against_direct_implementation(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, 300, binary=False)
        bundle = default_bundle("continuous")
        plan = split_folds(data.n, 3, seed=6)
        eta = crossfit_nuisances(data, P2, bundle, plan)
        est = att_bounds(data, eta, P2)

        y = data.outcome
        z = data.treatment.astype(float)
        phi0_lower = influence_scores(data, eta, P2, Estimand.MEAN0, "-")
        phi0_upper = influence_scores(data, eta, P2, Estimand.MEAN0, "+")
        upper = (y.mean() - phi0_lower.mean()) / z.mean()
        lower = (y.mean() - phi0_upper.mean()) / z.mean()
        n1 = z.sum()
        se_upper = np.sqrt(np.sum((y - phi0_lower - z * upper) ** 2) / (n1 * (n1 - 1)))
        se_lower = np.sqrt(np.sum((y - phi0_upper - z * lower) ** 2) / (n1 * (n1 - 1)))
        assert est.psi_upper == pytest.approx(float(upper), abs=1e-12)
        assert est.psi_lower == pytest.approx(float(lower), abs=1e-12)
        assert est.se_upper == pytest.approx(float(se_upper), abs=1e-12)
        assert est.se_lower == pytest.approx(float(se_lower), abs=1e-12)
        # stored influence values are recentered to mean zero
        assert abs(est.influence_lower.mean()) <= 1e-12
        assert abs(est.influence_upper.mean()) <= 1e-12

    def test_lam_one_collapse(self):
        rng = np.random.default_rng(19)
        data = random_dataset(rng, 300, binary=True)
        bundle = default_bundle("binary")
        plan = split_folds(data.n, 3, seed=8)
        eta = crossfit_nuisances(data, P1, bundle, plan)
        est = att_bounds(data, eta, P1)
        assert est.psi_upper == pytest.approx(est.psi_lower, abs=1e-12)

    def test_needs_two_treated(self):
        data = Dataset(np.zeros((4, 1)), np.array([1, 0, 0, 0]), np.zeros(4), OutcomeKind.CONTINUOUS)
        eta = singleton_eta(4, 0.5, 0.0, 0.0)
        with pytest.raises(FitError):
            att_bounds(data, eta, P2)


class TestReferenceEstimators:
    def test_aipw_single_row(self):
        data = Dataset(np.zeros((1, 1)), np.array([1]), np.array([2.0]), OutcomeKind.CONTINUOUS)
        val = aipw(data, np.array([0.5]), np.array([[1.0, 3.0]]))
        # mu1 - mu0 + z(y - mu1)/e = 3 - 1 + (2 - 3)/0.5
        assert val == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "e_hat, mu_hat", [([0.5, 0.5], [[1.0, 3.0]]), ([0.5], [1.0, 3.0])], ids=["e-rows", "mu-1-d"]
    )
    def test_aipw_shapes(self, e_hat, mu_hat):
        data = Dataset(np.zeros((1, 1)), np.array([1]), np.array([2.0]), OutcomeKind.CONTINUOUS)
        with pytest.raises(ParameterError, match=re.escape("expected e_hat shape (1,) and mu_hat shape (1, 2), got")):
            aipw(data, np.array(e_hat), np.array(mu_hat))

    def test_manski_degenerate(self):
        data = Dataset(np.zeros((3, 1)), np.ones(3, int), np.ones(3), OutcomeKind.BINARY)
        lo, hi = manski_bounds_binary(data)
        assert (lo, hi) == (0.0, 1.0)

    def test_manski_balanced_zero_outcome(self):
        data = Dataset(np.zeros((4, 1)), np.array([0, 1, 0, 1]), np.zeros(4), OutcomeKind.BINARY)
        lo, hi = manski_bounds_binary(data)
        assert (lo, hi) == (-0.5, 0.5)

    def test_manski_width_is_one(self):
        rng = np.random.default_rng(23)
        data = random_dataset(rng, 100, binary=True)
        lo, hi = manski_bounds_binary(data)
        assert hi - lo == pytest.approx(1.0, abs=1e-12)

    def test_manski_requires_binary(self):
        rng = np.random.default_rng(23)
        data = random_dataset(rng, 50, binary=False)
        with pytest.raises(DataError):
            manski_bounds_binary(data)


class TestManskiLimit:
    def test_huge_lam_matches_assumption_free_bounds(self):
        rng = np.random.default_rng(29)
        data = random_dataset(rng, 400, binary=True)
        bundle = default_bundle("binary")
        plan = split_folds(data.n, 4, seed=3)
        params = sensitivity_params(1e6)
        eta = crossfit_nuisances(data, params, bundle, plan)
        est = estimate_bounds(data, eta, params, Estimand.ATE)
        lo, hi = manski_bounds_binary(data)
        assert est.psi_lower == pytest.approx(lo, abs=1e-3)
        assert est.psi_upper == pytest.approx(hi, abs=1e-3)
