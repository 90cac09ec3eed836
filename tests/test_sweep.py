"""The lambda sweep equals the one-point cross-fit, bit for bit."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msmbounds import (
    Estimand,
    LearnerBundle,
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
from helpers import random_dataset

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
    strategy=st.sampled_from(["separate", "direct"]),
    estimand=st.sampled_from(list(Estimand)),
    grid=lambda_grids(),
)
@settings(max_examples=25, deadline=None)
def test_sweep_equals_per_point_crossfit(seed, n, binary, k, strategy, estimand, grid):
    data = random_dataset(np.random.default_rng(seed), n, binary=binary)
    base = default_bundle(data.outcome_kind)
    bundle = LearnerBundle(base.propensity, base.quantile, base.regression, strategy)
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

    calls = []
    real = estimator.fit_quantile

    def counting(data, rows, arm, alpha, spec):
        calls.append((arm, list(alpha)))
        return real(data, rows, arm, alpha, spec)

    monkeypatch.setattr(estimator, "fit_quantile", counting)
    data = random_dataset(np.random.default_rng(3), 120, binary=False)
    plan = split_folds(data.n, 2, seed=0)
    list(sensitivity_curve(data, [1.0, 2.0], default_bundle("continuous"), plan, Estimand.ATE))
    # Two folds x two arms, one batched call each: the median once for
    # lambda = 1, then the 1/3 and 2/3 quantiles for lambda = 2.
    levels = [1.0 - 2.0 / 3.0, 0.5, 2.0 / 3.0]
    assert calls == [(arm, levels) for _fold in range(2) for arm in (0, 1)]


def test_lambda_one_skips_the_tail_fit(monkeypatch):
    from msmbounds import learners

    calls = []
    real = learners._fit_regression_values

    def counting(*args):
        calls.append(args[3].kind)
        return real(*args)

    monkeypatch.setattr(learners, "_fit_regression_values", counting)
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
