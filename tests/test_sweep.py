"""The lambda sweep equals the one-point cross-fit, bit for bit."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msmbounds import (
    Dataset,
    DataError,
    Estimand,
    FitError,
    LearnerBundle,
    LearnerSpec,
    MsmBoundsError,
    ParameterError,
    crossfit_nuisances,
    default_bundle,
    estimate_bounds,
    sensitivity_curve,
    sensitivity_params,
    split_folds,
    wald_bounds,
)
from helpers import force_workers, random_dataset

_ETA_FIELDS = ("e_hat", "q_plus", "q_minus", "rho_plus", "rho_minus", "mu")
_ESTIMATE_SCALARS = ("estimand", "lam", "psi_lower", "psi_upper", "se_lower", "se_upper")


@st.composite
def lambda_grids(draw):
    """Unsorted grids with duplicates that always contain lambda = 1."""
    values = draw(st.lists(st.floats(min_value=1.0, max_value=5.0), min_size=1, max_size=3))
    grid = [1.0, *values, values[0]]
    return draw(st.permutations(grid))


def _assert_same_eta(got, want):
    for name in _ETA_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b), name


def _assert_same_estimate(got, want):
    for name in _ESTIMATE_SCALARS:
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.influence_lower, want.influence_lower)
    assert np.array_equal(got.influence_upper, want.influence_upper)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=60, max_value=160),
    binary=st.booleans(),
    k=st.integers(min_value=2, max_value=3),
    estimand=st.sampled_from(list(Estimand)),
    grid=lambda_grids(),
)
@settings(max_examples=25, deadline=None)
def test_sweep_equals_per_point_crossfit(seed, n, binary, k, estimand, grid):
    data = random_dataset(np.random.default_rng(seed), n, binary=binary)
    bundle = default_bundle(data.outcome_kind)
    plan = split_folds(n, k, seed=seed)
    alpha = 0.1
    try:
        points = list(sensitivity_curve(data, grid, bundle, plan, estimand, alpha, 0.02))
    except MsmBoundsError as exc:
        # A degenerate fold must fail the same way on the one-point path.
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            for lam in sorted(set(grid)):
                crossfit_nuisances(data, sensitivity_params(lam), bundle, plan, 0.02)
        return
    assert [p.params.lam for p in points] == sorted(set(grid))
    for point in points:
        eta = crossfit_nuisances(data, point.params, bundle, plan, 0.02)
        _assert_same_eta(point.eta, eta)
        est = estimate_bounds(data, eta, point.params, estimand)
        _assert_same_estimate(point.estimate, est)
        assert (point.ci_lower, point.ci_upper) == wald_bounds(est, alpha / 2.0)


def test_lambda_one_fits_the_median_once(monkeypatch):
    from msmbounds import estimator

    # With one worker the sweep's quantile fits run in this process, so
    # the spy sees every one of them.
    calls = []
    real = estimator.fit_quantile

    def counting(data, rows, arm, alpha, spec):
        calls.append((arm, list(alpha)))
        return real(data, rows, arm, alpha, spec)

    monkeypatch.setattr(estimator, "fit_quantile", counting)
    force_workers(monkeypatch, 1)
    data = random_dataset(np.random.default_rng(3), 120, binary=False)
    plan = split_folds(data.n, 2, seed=0)
    list(sensitivity_curve(data, [1.0, 2.0], default_bundle("continuous"), plan, Estimand.ATE))
    # Two folds x two arms, one batched call each: the median once for
    # lambda = 1, then the 1/3 and 2/3 quantiles for lambda = 2.
    levels = [1.0 - 2.0 / 3.0, 0.5, 2.0 / 3.0]
    assert calls == [(arm, levels) for _fold in range(2) for arm in (0, 1)]


def test_lambda_one_skips_the_tail_fit(monkeypatch):
    from msmbounds import estimator, learners

    # A tail regression is a learner fit made inside fit_rho.
    calls = []
    in_rho = []
    real_fit, real_rho = learners._fit, estimator.fit_rho

    def counting_fit(*args):
        if in_rho:
            calls.append(args[3].kind)
        return real_fit(*args)

    def tracking_rho(*args):
        in_rho.append(True)
        try:
            return real_rho(*args)
        finally:
            in_rho.pop()

    monkeypatch.setattr(learners, "_fit", counting_fit)
    monkeypatch.setattr(estimator, "fit_rho", tracking_rho)
    data = random_dataset(np.random.default_rng(5), 120, binary=False)
    plan = split_folds(data.n, 2, seed=0)
    bundle = default_bundle("continuous")
    list(sensitivity_curve(data, [1.0], bundle, plan, Estimand.ATE))
    assert calls == []
    # At lambda = 2: two folds x two arms x two sides.
    list(sensitivity_curve(data, [1.0, 2.0], bundle, plan, Estimand.ATE))
    assert len(calls) == 8


def test_lambda_free_fits_run_once_per_fold(monkeypatch):
    from msmbounds import estimator, learners

    calls = {"propensity": 0, "mean": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(estimator, "fit_propensity", counted("propensity", estimator.fit_propensity))
    # fit_rho would refit the mean through the learners binding.
    mean = counted("mean", learners.fit_mean)
    monkeypatch.setattr(estimator, "fit_mean", mean)
    monkeypatch.setattr(learners, "fit_mean", mean)
    for binary in (True, False):
        calls.update(propensity=0, mean=0)
        data = random_dataset(np.random.default_rng(4), 150, binary=binary)
        plan = split_folds(data.n, 3, seed=1)
        bundle = default_bundle(data.outcome_kind)
        list(sensitivity_curve(data, [1.0, 1.5, 2.0, 3.0], bundle, plan, Estimand.ATE))
        assert calls == {"propensity": 3, "mean": 6}


def _repr_estimate(est):
    return [repr(getattr(est, name)) for name in _ESTIMATE_SCALARS]


def _assert_same_points(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert repr(a.params) == repr(b.params)
        _assert_same_eta(a.eta, b.eta)
        assert _repr_estimate(a.estimate) == _repr_estimate(b.estimate)
        assert np.array_equal(a.estimate.influence_lower, b.estimate.influence_lower)
        assert np.array_equal(a.estimate.influence_upper, b.estimate.influence_upper)
        assert repr((a.ci_lower, a.ci_upper)) == repr((b.ci_lower, b.ci_upper))


class TestPooledSweep:
    """The quantile solves give the same curve on the pool as in a loop."""

    GRID = [1.0, 1.5, 2.0, 3.0]

    def curve(self, monkeypatch, workers, data, bundle, plan, estimand):
        from msmbounds import learners

        # Solves run here only on the serial path; pooled ones run in the
        # workers and leave this list empty.
        solved_here = []
        real = learners._pinball_weights

        def spy(*args):
            solved_here.append(args[2].size)
            return real(*args)

        monkeypatch.setattr(learners, "_pinball_weights", spy)
        force_workers(monkeypatch, workers)
        points = list(sensitivity_curve(data, self.GRID, bundle, plan, estimand, 0.1, 0.02))
        return points, solved_here

    @staticmethod
    def bundle(name):
        base = default_bundle("continuous")
        if name == "constant":
            return LearnerBundle(base.propensity, LearnerSpec(kind="constant"), base.regression)
        return base

    @pytest.mark.parametrize("name", ["separate", "constant"])
    @pytest.mark.parametrize("estimand", [Estimand.ATE, Estimand.ATT, Estimand.MEAN1])
    def test_pooled_equals_serial(self, monkeypatch, name, estimand):
        data = random_dataset(np.random.default_rng(21), 300, binary=False)
        plan = split_folds(data.n, 3, seed=4)
        bundle = self.bundle(name)
        serial, solved_serial = self.curve(monkeypatch, 1, data, bundle, plan, estimand)
        pooled, solved_pooled = self.curve(monkeypatch, 2, data, bundle, plan, estimand)
        _assert_same_points(pooled, serial)
        # Three folds x two arms, each solving the grid's 7 levels at once.
        assert solved_serial == ([] if name == "constant" else [7] * 6)
        assert solved_pooled == []

    def test_injected_quantiles_stay_in_this_process(self, monkeypatch):
        import os

        pids = []

        # A local closure: pickling it would fail.
        def inject(x, arm, a):
            pids.append(os.getpid())
            return x[:, 0] + (2.0 * a - 1.0) * (1.0 + arm)

        base = default_bundle("continuous")
        bundle = LearnerBundle(base.propensity, LearnerSpec(kind="oracle_injection", inject=inject), base.regression)
        data = random_dataset(np.random.default_rng(22), 240, binary=False)
        plan = split_folds(data.n, 3, seed=5)
        serial, _ = self.curve(monkeypatch, 1, data, bundle, plan, Estimand.ATE)
        pooled, _ = self.curve(monkeypatch, 2, data, bundle, plan, Estimand.ATE)
        _assert_same_points(pooled, serial)
        assert pids and set(pids) == {os.getpid()}

    @staticmethod
    def treated_only_in_last_fold():
        # Fold 2's training rows (folds 0 and 1) hold no treated unit.
        data = random_dataset(np.random.default_rng(23), 150, binary=False)
        plan = split_folds(data.n, 3, seed=6)
        z = (plan.assignments == 2) & (np.arange(data.n) % 2 == 0)
        data = Dataset(data.covariates, z.astype(int), data.outcome, data.outcome_kind)
        # The injected propensity skips the all-control check, and an
        # injected regression fits no outcome mean, so the pooled quantile
        # fit is the first fit to fail.
        base = default_bundle("continuous")
        propensity = LearnerSpec(kind="oracle_injection", inject=lambda x: np.full(x.shape[0], 0.3))
        regression = LearnerSpec(kind="oracle_injection", inject=lambda x, arm, *side: np.zeros(x.shape[0]))
        return data, plan, LearnerBundle(propensity, base.quantile, regression)

    def test_degenerate_fold_raises_the_same_error(self, monkeypatch):
        data, plan, bundle = self.treated_only_in_last_fold()
        message = "fold 2: degenerate fit: no training rows with treatment == 1"
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
                sensitivity_curve(data, self.GRID, bundle, plan, Estimand.ATE)

    def test_an_earlier_solve_error_comes_first(self, monkeypatch):
        from msmbounds import learners

        # Every solve fails, fold 0's first: a serial loop raises that
        # before it reaches fold 2's degenerate design.
        def failing(f, y, levels, spec):
            raise DataError(f"solve on {y.size} rows failed")

        monkeypatch.setattr(learners, "_pinball_weights", failing)
        data, plan, bundle = self.treated_only_in_last_fold()
        rows = int(np.sum((plan.assignments != 0) & (data.treatment == 0)))
        message = f"fold 0: solve on {rows} rows failed"
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
                sensitivity_curve(data, self.GRID, bundle, plan, Estimand.ATE)

    def test_queued_fits_run_before_a_later_fold_error(self, monkeypatch):
        from msmbounds import learners

        # Every solve fails, and fold 2's injected propensity fails in the
        # fold loop, after the fits of folds 0 and 1 were queued for the
        # pool: a serial loop would have raised fold 0's solve error first.
        def failing(f, y, levels, spec):
            raise DataError(f"solve on {y.size} rows failed")

        monkeypatch.setattr(learners, "_pinball_weights", failing)
        data = random_dataset(np.random.default_rng(24), 150, binary=False)
        plan = split_folds(data.n, 3, seed=7)
        x_fold2 = data.covariates[plan.assignments == 2]

        def inject(x):
            if x.shape == x_fold2.shape and np.array_equal(x, x_fold2):
                raise FitError("no propensity for these rows")
            return np.full(x.shape[0], 0.3)

        base = default_bundle("continuous")
        propensity = LearnerSpec(kind="oracle_injection", inject=inject)
        bundle = LearnerBundle(propensity, base.quantile, base.regression)
        rows = int(np.sum((plan.assignments != 0) & (data.treatment == 0)))
        message = f"fold 0: solve on {rows} rows failed"
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
                sensitivity_curve(data, self.GRID, bundle, plan, Estimand.ATE)


class TestGridValidation:
    def test_empty(self):
        data = random_dataset(np.random.default_rng(0), 50, binary=True)
        plan = split_folds(50, 2, seed=0)
        with pytest.raises(ParameterError, match="at least one lambda value is required"):
            sensitivity_curve(data, [], default_bundle("binary"), plan, Estimand.ATE)

    @pytest.mark.parametrize("bad", [0.5, float("nan"), float("inf")])
    def test_out_of_domain(self, bad):
        data = random_dataset(np.random.default_rng(0), 50, binary=True)
        plan = split_folds(50, 2, seed=0)
        with pytest.raises(ParameterError, match="lambda values must be finite and >= 1"):
            sensitivity_curve(data, [1.0, bad], default_bundle("binary"), plan, Estimand.ATE)

    def test_alpha(self):
        data = random_dataset(np.random.default_rng(0), 50, binary=True)
        plan = split_folds(50, 2, seed=0)
        with pytest.raises(ParameterError, match="alpha"):
            sensitivity_curve(data, [1.0], default_bundle("binary"), plan, Estimand.ATE, alpha=1.5)

    def test_logistic_regression_on_a_continuous_outcome(self, monkeypatch):
        # Rejected before any fold is fit, not as fold 0's fit error.
        from msmbounds import estimator

        monkeypatch.setattr(estimator, "fit_propensity", None)
        data = random_dataset(np.random.default_rng(0), 50, binary=False)
        plan = split_folds(50, 2, seed=0)
        bundle = LearnerBundle(LearnerSpec(kind="logistic"), LearnerSpec(kind="pinball_linear"), LearnerSpec(kind="logistic"))
        with pytest.raises(ParameterError, match="^logistic outcome regression needs a binary outcome, not a continuous one$"):
            sensitivity_curve(data, [1.0, 2.0], bundle, plan, Estimand.ATE)
