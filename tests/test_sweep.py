"""The lambda sweep equals the one-point cross-fit, bit for bit."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msmbounds import (
    ConvergenceError,
    Dataset,
    DataError,
    Estimand,
    FitError,
    LearnerBundle,
    LearnerSpec,
    MsmBoundsError,
    NuisanceSet,
    OutcomeKind,
    ParameterError,
    binary_nuisances,
    clip_propensity,
    crossfit_nuisances,
    default_bundle,
    estimate_bounds,
    fit_mean,
    fit_propensity,
    fit_quantile,
    fit_rho,
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


def _log_call(log, name):
    """Append one call's line to the file ``log``.  A spy writes there, not
    to a list, so that a call made in a pool worker counts too."""
    with open(log, "a") as handle:
        handle.write(f"{name}\n")


def _logged_calls(log):
    return log.read_text().split() if log.exists() else []


def test_lambda_one_skips_the_tail_fit(monkeypatch, tmp_path):
    from msmbounds import estimator, learners

    # A tail regression is a learner fit made inside fit_rho.
    in_rho = []
    real_fit, real_rho = learners._fit, estimator.fit_rho

    def counting_fit(*args):
        if in_rho:
            _log_call(log, args[3].kind)
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
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        log = tmp_path / f"calls-{workers}"
        list(sensitivity_curve(data, [1.0], bundle, plan, Estimand.ATE))
        assert _logged_calls(log) == []
        # At lambda = 2: two folds x two arms x two sides.
        list(sensitivity_curve(data, [1.0, 2.0], bundle, plan, Estimand.ATE))
        assert len(_logged_calls(log)) == 8


def test_lambda_free_fits_run_once_per_fold(monkeypatch, tmp_path):
    from msmbounds import estimator, learners

    def counted(name, real):
        def wrapper(*args):
            _log_call(log, name)
            return real(*args)

        return wrapper

    monkeypatch.setattr(estimator, "fit_propensity", counted("propensity", estimator.fit_propensity))
    # fit_rho would refit the mean through the learners binding.
    mean = counted("mean", learners.fit_mean)
    monkeypatch.setattr(estimator, "fit_mean", mean)
    monkeypatch.setattr(learners, "fit_mean", mean)
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        for binary in (True, False):
            log = tmp_path / f"calls-{workers}-{binary}"
            data = random_dataset(np.random.default_rng(4), 150, binary=binary)
            plan = split_folds(data.n, 3, seed=1)
            bundle = default_bundle(data.outcome_kind)
            list(sensitivity_curve(data, [1.0, 1.5, 2.0, 3.0], bundle, plan, Estimand.ATE))
            assert sorted(_logged_calls(log)) == ["mean"] * 6 + ["propensity"] * 3


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

    def test_every_quantile_fit_comes_before_the_fold_loop(self, monkeypatch):
        from msmbounds import learners

        # Every solve fails, and fold 0's injected propensity fails on that
        # fold's test rows: the quantile fits of all folds and arms run
        # before the fold loop, so fold 0's first solve error comes first.
        def failing(f, y, levels, spec):
            raise DataError(f"solve on {y.size} rows failed")

        monkeypatch.setattr(learners, "_pinball_weights", failing)
        data = random_dataset(np.random.default_rng(24), 150, binary=False)
        plan = split_folds(150, 3, seed=7)
        x_fold0 = data.covariates[plan.assignments == 0]

        def inject(x):
            if x.shape == x_fold0.shape and np.array_equal(x, x_fold0):
                raise FitError("no propensity for these rows")
            return np.full(x.shape[0], 0.3)

        base = default_bundle("continuous")
        bundle = LearnerBundle(LearnerSpec(kind="oracle_injection", inject=inject), base.quantile, base.regression)
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with pytest.raises(FitError, match=r"^fold 0: solve on 54 rows failed$"):
                sensitivity_curve(data, self.GRID, bundle, plan, Estimand.ATE)

    @staticmethod
    def spy_fits(monkeypatch, fail=(), plan=None):
        """Each fit the sweep calls in this process, by name: pooled fits
        run in the workers and leave the list empty.  A fit named with its
        fold in ``fail`` (as ``(name, fold, lam)``, ``lam`` None but for
        ``fit_rho``) raises, wherever it runs."""
        from msmbounds import estimator

        called = []
        trains = [np.flatnonzero(plan.assignments != fold) for fold in range(plan.k)] if plan else []
        for name in ("fit_propensity", "fit_quantile", "fit_mean", "fit_rho"):
            real = getattr(estimator, name)

            def spy(*args, real=real, name=name):
                called.append(name)
                folds = [fold for fold, train in enumerate(trains) if np.array_equal(args[1], train)]
                lam = args[4].lam if name == "fit_rho" else None
                if any((name, fold, lam) in fail for fold in folds):
                    raise FitError(f"{name} failed")
                return real(*args)

            monkeypatch.setattr(estimator, name, spy)
        return called

    def test_pooled_fits_run_in_the_workers(self, monkeypatch):
        data = random_dataset(np.random.default_rng(25), 240, binary=False)
        plan = split_folds(data.n, 3, seed=8)
        bundle = default_bundle("continuous")
        called = self.spy_fits(monkeypatch)
        serial, _ = self.curve(monkeypatch, 1, data, bundle, plan, Estimand.ATE)
        # Per fold, one propensity; per fold and arm, one quantile and one
        # mean fit, and two tail fits at each of the grid's four points.
        counts = {"fit_propensity": 3, "fit_quantile": 6, "fit_mean": 6, "fit_rho": 48}
        assert {name: called.count(name) for name in counts} == counts
        called.clear()
        pooled, solved_pooled = self.curve(monkeypatch, 2, data, bundle, plan, Estimand.ATE)
        _assert_same_points(pooled, serial)
        assert called == [] and solved_pooled == []

    @pytest.mark.parametrize("role", ["propensity", "quantile", "regression"])
    def test_an_injected_role_keeps_every_fit_in_this_process(self, monkeypatch, role):
        pids = []

        # A local closure: pickling it would fail.
        def inject(x, *args):
            pids.append(os.getpid())
            if role == "propensity":
                return 0.3 + 0.4 * (x[:, 0] > 0)
            if role == "quantile":
                arm, a = args
                return x[:, 0] + (2.0 * a - 1.0) * (1.0 + arm)
            arm, *side = args
            return x[:, 0] + arm + 0.5 * (side == ["+"]) - 0.5 * (side == ["-"])

        data = random_dataset(np.random.default_rng(26), 240, binary=False)
        plan = split_folds(data.n, 3, seed=9)
        injected = LearnerSpec(kind="oracle_injection", inject=inject)
        bundle = dataclasses.replace(default_bundle("continuous"), **{role: injected})
        called = self.spy_fits(monkeypatch)
        serial, _ = self.curve(monkeypatch, 1, data, bundle, plan, Estimand.ATE)
        in_serial = sorted(called)
        called.clear()
        pooled, _ = self.curve(monkeypatch, 2, data, bundle, plan, Estimand.ATE)
        _assert_same_points(pooled, serial)
        assert sorted(called) == in_serial and len(in_serial) == 3 + 6 + 6 + 48
        assert pids and set(pids) == {os.getpid()}

    @pytest.mark.parametrize(
        "fail, first, yielded",
        [
            # Every quantile fit comes before the fold loop.
            ({("fit_mean", 0, None), ("fit_quantile", 2, None)}, ("fit_quantile", 2), []),
            # In the fold loop, fold by fold: the propensity, then each arm's mean.
            ({("fit_propensity", 1, None), ("fit_mean", 0, None)}, ("fit_mean", 0), []),
            ({("fit_mean", 1, None), ("fit_propensity", 1, None)}, ("fit_propensity", 1), []),
            # The tail fits raise at their grid point, after the points before it.
            ({("fit_rho", 0, 3.0), ("fit_propensity", 2, None)}, ("fit_propensity", 2), []),
            ({("fit_rho", 0, 3.0), ("fit_rho", 2, 1.5)}, ("fit_rho", 2), [1.0]),
        ],
        ids=[
            "quantile-first", "mean-of-an-earlier-fold", "propensity-before-mean", "fold-loop-before-tails", "tails-by-point",
        ],
    )
    def test_errors_come_in_the_serial_order(self, monkeypatch, fail, first, yielded):
        data = random_dataset(np.random.default_rng(27), 240, binary=False)
        plan = split_folds(data.n, 3, seed=10)
        self.spy_fits(monkeypatch, fail, plan)
        name, fold = first
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            points = []
            with pytest.raises(FitError, match=f"^fold {fold}: {name} failed$"):
                for point in sensitivity_curve(data, self.GRID, default_bundle("continuous"), plan, Estimand.ATE):
                    points.append(point.params.lam)
            assert points == yielded


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

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("12", "lambda values must be a sequence of real numbers, not the string '12'"),
            ([True, 2], "lambda values must be real numbers, got [True, 2]"),
        ],
        ids=["string", "bool"],
    )
    def test_a_string_or_a_bool_is_no_grid(self, monkeypatch, grid, message):
        # Before, each ran the curve at lambda 1 and 2; now no fold is fit.
        from msmbounds import estimator

        monkeypatch.setattr(estimator, "fit_propensity", None)
        data = random_dataset(np.random.default_rng(0), 50, binary=True)
        plan = split_folds(50, 2, seed=0)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            sensitivity_curve(data, grid, default_bundle("binary"), plan, Estimand.ATE)

    def test_an_unknown_estimand(self):
        # It used to raise a bare ValueError from the enum.
        data = random_dataset(np.random.default_rng(0), 50, binary=True)
        plan = split_folds(50, 2, seed=0)
        message = "unknown Estimand 'foo'; expected one of ['mean1', 'mean0', 'ate', 'att']"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            sensitivity_curve(data, [1.0], default_bundle("binary"), plan, "foo")

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


def _bundle(name, outcome_kind):
    base = default_bundle(outcome_kind)
    if name == "raw":
        specs = (base.propensity, base.quantile, base.regression)
        return LearnerBundle(*(LearnerSpec(kind=spec.kind, feature_expansion="raw") for spec in specs))
    if name == "constant-quantile":
        return LearnerBundle(base.propensity, LearnerSpec(kind="constant"), base.regression)
    return base


def _reference_curve(data, grid, bundle, plan, epsilon):
    """The cross-fit built from the public fits alone, each fold's test rows
    predicted by ``predict(data.covariates[test])``, one NuisanceSet per lambda."""
    binary = data.outcome_kind is OutcomeKind.BINARY
    out = []
    for lam in grid:
        params = sensitivity_params(lam)
        e_hat = np.full(data.n, np.nan)
        arrays = [np.full((data.n, 2), np.nan) for _ in range(5)]  # mu, q_plus, q_minus, rho_plus, rho_minus
        for fold in range(plan.k):
            test = np.flatnonzero(plan.assignments == fold)
            train = np.flatnonzero(plan.assignments != fold)
            x_test = data.covariates[test]
            e_hat[test] = clip_propensity(fit_propensity(data, train, bundle.propensity).predict(x_test), epsilon)
            for arm in (0, 1):
                mu_model = fit_mean(data, train, arm, bundle.regression)
                mu = mu_model.predict(x_test)
                if binary:
                    mu = np.clip(mu, 0.0, 1.0)
                    fitted = binary_nuisances(mu, params)
                else:
                    levels = (params.tau, 1.0 - params.tau)
                    q_models = [fit_quantile(data, train, arm, level, bundle.quantile) for level in levels]
                    rho_models = [
                        fit_rho(data, train, arm, q_model, params, side, bundle.regression, mu_model)
                        for q_model, side in zip(q_models, "+-")
                    ]
                    fitted = [model.predict(x_test) for model in (*q_models, *rho_models)]
                for array, values in zip(arrays, (mu, *fitted)):
                    array[test, arm] = values
        mu, q_plus, q_minus, rho_plus, rho_minus = arrays
        out.append(NuisanceSet(e_hat, q_plus, q_minus, rho_plus, rho_minus, mu))
    return out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bundle_name", ["default", "raw", "constant-quantile"])
@pytest.mark.parametrize("estimand", [Estimand.ATE, Estimand.ATT])
@pytest.mark.parametrize("binary", [True, False], ids=["binary", "continuous"])
def test_sweep_equals_the_public_fits_bit_for_bit(monkeypatch, binary, estimand, bundle_name, workers):
    # The sweep evaluates rows of the dataset's shared design; the
    # reference predicts from covariates, rebuilding each design.
    force_workers(monkeypatch, workers)
    data = random_dataset(np.random.default_rng(41), 500, binary=binary)
    plan = split_folds(data.n, 4, seed=9)
    bundle = _bundle(bundle_name, data.outcome_kind)
    grid = [1.0, 1.5, 3.0]
    points = list(sensitivity_curve(data, grid, bundle, plan, estimand, 0.1, 0.02))
    for point, eta in zip(points, _reference_curve(data, grid, bundle, plan, 0.02), strict=True):
        _assert_same_eta(point.eta, eta)
        _assert_same_estimate(point.estimate, estimate_bounds(data, eta, point.params, estimand))


@pytest.mark.parametrize(
    "binary, workers",
    [(True, 1), (False, 1), (True, 2), (False, 2)],
    ids=["binary", "continuous", "binary-pooled", "continuous-pooled"],
)
def test_the_design_is_built_once_per_dataset(monkeypatch, binary, workers):
    from msmbounds import learners

    # The spy sees every design this process builds; the default bundle
    # uses one expansion.  A forked pool worker must inherit the design.
    calls = []
    real = learners.expand_features
    parent = os.getpid()

    def counting(x, expansion):
        if os.getpid() != parent:
            raise AssertionError("a pool worker built the design")
        calls.append(expansion)
        return real(x, expansion)

    monkeypatch.setattr(learners, "expand_features", counting)
    force_workers(monkeypatch, workers)
    data = random_dataset(np.random.default_rng(42), 300, binary=binary)
    plan = split_folds(data.n, 3, seed=10)
    list(sensitivity_curve(data, [1.0, 1.5, 2.0, 2.5, 3.0], default_bundle(data.outcome_kind), plan, Estimand.ATE))
    assert calls == ["interactions"]


def _blas_threads():
    from msmbounds import core

    return [count.value for count in core._openblas_thread_counts()]


def test_every_fit_and_prediction_runs_blas_on_one_thread_and_restores_the_count(monkeypatch):
    import ctypes

    from msmbounds import core, learners

    # Two stand-in counts at 2, so a missing pin shows on one CPU too, where
    # the real counts already read 1.  The real counts are never written: an
    # OpenBLAS started on one thread is not safe at two.
    stand_ins = (ctypes.c_int(2), ctypes.c_int(2))
    monkeypatch.setattr(core, "_openblas_thread_counts", lambda: stand_ins)
    before = _blas_threads()
    assert before == [2, 2]
    # Spies inside the arithmetic: the solvers and the prediction maps,
    # which the fits bind when they run.
    spied = (
        "_fit_logistic", "_solve_ridge", "_ridge_gram", "_frisch_newton", "_logistic_map", "_linear_map", "_standardized_map",
    )
    seen = {}
    for name in spied:
        real = getattr(learners, name)

        def spy(*args, real=real, name=name):
            seen.setdefault(name, []).append(_blas_threads())
            return real(*args)

        monkeypatch.setattr(learners, name, spy)
    # One worker, so the quantile solves run where the spies are.
    force_workers(monkeypatch, 1)
    params = sensitivity_params(2.0)
    for binary in (True, False):
        data = random_dataset(np.random.default_rng(43), 200, binary=binary)
        bundle, rows = default_bundle(data.outcome_kind), np.arange(data.n)
        list(sensitivity_curve(data, [1.0, 2.0], bundle, split_folds(data.n, 2, 1), Estimand.ATE))
        assert _blas_threads() == before
        # The public fits and predictions, called bare.
        fit_propensity(data, rows, bundle.propensity).predict(data.covariates)
        mu = fit_mean(data, rows, 1, bundle.regression)
        mu.predict_rows(data, rows)
        if not binary:
            q = fit_quantile(data, rows, 1, params.tau, bundle.quantile)
            q.predict(data.covariates)
            fit_rho(data, rows, 1, q, params, "+", bundle.regression, mu).predict_rows(data, rows)
        assert _blas_threads() == before
    assert sorted(seen) == sorted(spied)
    assert all(reads == [1] * len(before) for calls in seen.values() for reads in calls)
    # A fold error and a public fit that does not converge restore the count as well.
    stuck = LearnerSpec(kind="logistic", max_iter=1)
    stuck_bundle = LearnerBundle(stuck, bundle.quantile, bundle.regression)
    with pytest.raises(FitError, match="^fold 0: logistic fit did not converge"):
        crossfit_nuisances(data, params, stuck_bundle, split_folds(data.n, 2, 1))
    assert _blas_threads() == before
    with pytest.raises(ConvergenceError):
        fit_propensity(data, rows, stuck)
    assert _blas_threads() == before
    with pytest.raises(ConvergenceError):
        fit_quantile(data, rows, 1, params.tau, LearnerSpec(kind="pinball_linear", max_iter=1))
    assert _blas_threads() == before


# The binary sweep, whose fits all run in this process, and the continuous
# one, whose per-lambda predictions run in this process (its fits run in
# pool workers, on one thread, where the host has two CPUs).
_CURVE_DIGEST = """
import hashlib
from msmbounds import GenerativeSpec, default_bundle, sensitivity_curve, simulate, split_folds

digest = hashlib.sha256()
for kind in ("binary", "continuous"):
    data = simulate(GenerativeSpec(kind=f"benchmark_{kind}"), 10_000, 1)
    for point in sensitivity_curve(data, [1.0, 2.0], default_bundle(kind), split_folds(data.n, 5, 1), "ate"):
        for field in ("e_hat", "q_plus", "q_minus", "rho_plus", "rho_minus", "mu"):
            digest.update(getattr(point.eta, field).tobytes())
        digest.update(repr((point.estimate.psi_lower, point.estimate.psi_upper, point.ci_lower, point.ci_upper)).encode())
print(digest.hexdigest())
"""

# A cross-fit built by hand from the public fits, as a library caller
# builds one: the binary propensity and logistic means of five folds, and
# the continuous ridge mean, pinball quantiles and adversarial regressions.
_FITS_DIGEST = """
import hashlib
import numpy as np
from msmbounds import (
    GenerativeSpec, default_bundle, fit_mean, fit_propensity, fit_quantile, fit_rho, sensitivity_params,
    simulate, split_folds,
)

digest = hashlib.sha256()
data = simulate(GenerativeSpec(kind="benchmark_binary"), 20_000, 5)
bundle, plan = default_bundle("binary"), split_folds(data.n, 5, 5)
for fold in range(plan.k):
    train = np.flatnonzero(plan.assignments != fold)
    models = [fit_propensity(data, train, bundle.propensity)]
    models += [fit_mean(data, train, arm, bundle.regression) for arm in (0, 1)]
    for model in models:
        digest.update(model.predict(data.covariates).tobytes())
data = simulate(GenerativeSpec(kind="benchmark_continuous"), 20_000, 5)
bundle, rows, params = default_bundle("continuous"), np.arange(data.n), sensitivity_params(2.0)
for arm in (0, 1):
    mu = fit_mean(data, rows, arm, bundle.regression)
    q_plus, q_minus = fit_quantile(data, rows, arm, [params.tau, 1.0 - params.tau], bundle.quantile)
    rho_plus = fit_rho(data, rows, arm, q_plus, params, "+", bundle.regression, mu)
    rho_minus = fit_rho(data, rows, arm, q_minus, params, "-", bundle.regression, mu)
    for model in (mu, q_plus, q_minus, rho_plus, rho_minus):
        digest.update(model.predict(data.covariates).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("script", [_CURVE_DIGEST, _FITS_DIGEST], ids=["sweep", "public-fits"])
def test_the_curve_does_not_depend_on_the_blas_thread_count(script):
    # At n = 10,000 a threaded BLAS splits the logistic fits' sums by the
    # thread count, which moved the last bit of mu in a third of the rows;
    # in the public fits it also moved the pinball quantiles.
    import msmbounds

    src = str(Path(msmbounds.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
