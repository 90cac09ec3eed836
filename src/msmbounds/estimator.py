"""Cross-fitted bound estimation.

Fold plans, cross-fitting of all nuisances (at one lambda, or over a
lambda grid that shares the lambda-free fits), the odds-weighting kernel
and the per-row influence values built on it, point estimates of the
lower/upper bounds with standard errors, Wald limits, and the ratio form
for the effect on the treated.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    Dataset,
    Estimand,
    FitError,
    MsmBoundsError,
    NuisanceSet,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    _check_integer,
    _check_side,
    _readonly,
    check_alpha,
    check_epsilon,
    check_lambda_grid,
    check_seed,
    fork_map,
    sensitivity_params,
)
from .learners import (
    FittedPredictor,
    LearnerBundle,
    _design_of,
    _SharedRows,
    binary_nuisances,
    check_binary_mean,
    check_regression_kind,
    clip_propensity,
    fit_mean,
    fit_propensity,
    fit_quantile,
    fit_rho,
)

__all__ = [
    "FoldPlan",
    "split_folds",
    "crossfit_nuisances",
    "CurvePoint",
    "sensitivity_curve",
    "weighting_kernel",
    "influence_scores",
    "BoundEstimate",
    "estimate_bounds",
    "wald_bounds",
    "att_bounds",
]


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of rows to cross-fitting folds.

    A deterministic function of ``(n, k, seed)``: a seeded uniform
    permutation chunked into ``k`` blocks whose sizes differ by at most 1.
    """

    assignments: np.ndarray  # (n,) fold index in {0..k-1}
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignments)
        if a.ndim != 1 or a.dtype.kind not in "iu":
            raise ParameterError(f"fold assignments must be 1-D integers, got shape {a.shape} of {a.dtype}")
        k = _check_fold_count(self.k, a.size)
        outside = a[(a < 0) | (a >= k)]
        if outside.size:
            raise ParameterError(f"fold assignment {int(outside[0])} is outside [0, {k})")
        counts = np.bincount(a, minlength=k)
        if np.any(counts == 0):
            raise ParameterError("every fold must be nonempty")
        if counts.max() - counts.min() > 1:
            raise ParameterError("fold sizes must differ by at most one")
        object.__setattr__(self, "assignments", _readonly(a.astype(np.int64, copy=False)))
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]


def split_folds(n: int, k: int, seed: int) -> FoldPlan:
    """Split ``n`` rows into ``k`` approximately even, seeded random folds.

    ``seed`` is anything :func:`numpy.random.default_rng` takes that
    :func:`~msmbounds.core.check_seed` accepts: an integer, a sequence of
    integers or a :class:`numpy.random.SeedSequence`."""
    k = _check_fold_count(k, _check_integer(n, "row count"))
    perm = np.random.default_rng(check_seed(seed)).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    for fold, block in enumerate(np.array_split(perm, k)):
        assignments[block] = fold
    return FoldPlan(assignments=assignments, k=k)


def _check_fold_count(k, n: int) -> int:
    """The one fold-count rule: ``k`` is an integer with ``2 <= k <= n``."""
    k = _check_integer(k, "fold count")
    if not 2 <= k <= n:
        raise ParameterError(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    return k


@dataclass(frozen=True)
class _Failure:
    """An error that a sweep job raised, kept to be raised again where a
    serial loop over the fits would have raised it."""

    error: Exception


def _attempt(fit, *args):
    """``fit(*args)``, or the error it raised as a :class:`_Failure`."""
    try:
        return fit(*args)
    except Exception as exc:
        return _Failure(exc)


def _result(value):
    """``value``, unless it holds an error: then that error is raised."""
    if isinstance(value, _Failure):
        raise value.error
    return value


@dataclass(frozen=True)
class _ArmFit:
    """The fits of one fold and arm that every grid point shares.

    Each field holds its stage's result, or the :class:`_Failure` it
    raised; a stage after a failed one is not run.  ``quantiles`` maps
    each of the grid's levels to its quantile model (empty if binary),
    ``mu_test`` holds the outcome mean on the fold's test rows, and
    ``rho`` maps each grid point to its adversarial regressions, ``(+,
    -)``, for continuous outcomes; a point's tail fits do not depend on
    another's, so each point holds its own result."""

    quantiles: dict | _Failure
    mu_test: np.ndarray | _Failure | None = None
    rho: dict | None = None


@contextmanager
def _in_fold(fold: int):
    # A degenerate fit in any fold aborts the whole cross-fit; the raised
    # error names the fold.
    try:
        yield
    except MsmBoundsError as exc:
        raise FitError(f"fold {fold}: {exc}") from exc


class _Sweep:
    """Cross-fitted nuisances over a lambda grid.

    Construction runs every fit, in one map of ``3K`` jobs.  First come
    ``2K`` fold-arm jobs.  Each fits, on one fold's training rows and one
    arm, the conditional quantiles at every level ``tau`` and ``1 - tau``
    of the grid's ``params`` in one batched call, then the outcome mean
    ``mu``, which it predicts on the fold's test rows, and for continuous
    outcomes both sides' adversarial regressions (:func:`fit_rho`) at every
    grid point.  These read the arm's training rows through one
    ``learners._SharedRows`` for the whole grid, which slices and
    standardises them and builds the ridge normal equations once.  Then
    come ``K`` fold jobs, each of which fits the clipped propensity and
    predicts ``e_hat`` on its fold's test rows.  A job sends back models,
    which are weight vectors, and the test-row predictions that do not
    depend on lambda, never a per-point array.

    The jobs run on forked worker processes
    (:func:`~msmbounds.core.fork_map`) for continuous outcomes with a
    ``pinball_linear`` quantile kind and no ``oracle_injection`` role:
    those predictors pickle, and the workers inherit the dataset's shared
    designs, built here first, and ``scipy.special``, the one scipy module
    a fit uses.  Otherwise they run in a loop here, since an injected
    function need not pickle, and a binary sweep, which fits no quantile,
    never starts the pool.  A job keeps the error a stage raises instead
    of raising it, and the errors are raised here in the order of a serial
    loop: the quantile fits of every fold and arm, then fold by fold the
    propensity and each arm's mean, then, at each grid point, fold by fold
    and arm by arm the tail fits.  So the results are
    a serial loop's, bit for bit, and the first error raised is the first
    in that order, with any number of workers.

    :meth:`nuisances` then adds the lambda-dependent part for one grid
    point by prediction alone: the closed forms in ``mu`` for binary
    outcomes, and for continuous ones the two quantile models and the two
    adversarial regressions on each fold's test rows, read through one
    ``_SharedRows`` that standardises them once for both quantile levels.
    Every prediction reads rows of the dataset's shared design, as
    :meth:`~msmbounds.learners.FittedPredictor.predict_rows` does, with
    the bits of ``predict`` on the same rows' covariates.
    """

    def __init__(
        self,
        data: Dataset,
        bundle: LearnerBundle,
        plan: FoldPlan,
        epsilon: float,
        grid: Sequence[SensitivityParams],
    ):
        if plan.n != data.n:
            raise ParameterError(f"fold plan covers {plan.n} rows but the dataset has {data.n}")
        epsilon = check_epsilon(epsilon)
        # Checked before any fold is fit, so it is no fold's error.
        check_regression_kind(bundle.regression, data.outcome_kind)
        self.data = data
        self.binary = binary = data.outcome_kind is OutcomeKind.BINARY
        # At lam == 1 both levels are exactly 0.5: the median is fit once.
        levels = None if binary else sorted({t for par in grid for t in (par.tau, 1.0 - par.tau)})
        all_rows = np.arange(data.n)
        self.tests = [all_rows[plan.assignments == fold] for fold in range(plan.k)]
        trains = [all_rows[plan.assignments != fold] for fold in range(plan.k)]

        def fit_arm(fold: int, arm: int) -> _ArmFit:
            test, train = self.tests[fold], trains[fold]
            try:
                quantiles = {} if binary else dict(zip(levels, fit_quantile(data, train, arm, levels, bundle.quantile)))
            except Exception as exc:
                return _ArmFit(_Failure(exc))
            try:
                mu_model = fit_mean(data, train, arm, bundle.regression)
                mu_test = mu_model.predict_rows(data, test)
                if binary:
                    mu_test = np.clip(mu_test, 0.0, 1.0)
                    check_binary_mean(mu_test)
            except Exception as exc:
                return _ArmFit(quantiles, _Failure(exc))
            if binary:
                return _ArmFit(quantiles, mu_test)
            # Unchecked: fit_mean has rejected an empty arm, and an injected regression reads none.
            shared = _SharedRows(data, train[data.treatment[train] == arm])

            def fit_pair(params: SensitivityParams) -> tuple[FittedPredictor, FittedPredictor]:
                q_models = (quantiles[params.tau], quantiles[1.0 - params.tau])
                return tuple(
                    fit_rho(data, train, arm, q_model, params, side, bundle.regression, mu_model, shared)
                    for q_model, side in zip(q_models, "+-")
                )

            return _ArmFit(quantiles, mu_test, {params: _attempt(fit_pair, params) for params in grid})

        def fit_fold(fold: int) -> np.ndarray:
            e_model = fit_propensity(data, trains[fold], bundle.propensity)
            return clip_propensity(e_model.predict_rows(data, self.tests[fold]), epsilon)

        def run(job: tuple[int, int | None]):
            fold, arm = job
            return _attempt(fit_fold, fold) if arm is None else fit_arm(fold, arm)

        jobs = [(fold, arm) for fold in range(plan.k) for arm in (0, 1)] + [(fold, None) for fold in range(plan.k)]
        specs = (bundle.propensity, bundle.quantile, bundle.regression)
        pooled = not binary and bundle.quantile.kind == "pinball_linear" and all(
            spec.kind != "oracle_injection" for spec in specs
        )
        if pooled:  # built before the pool forks, so every worker inherits them
            for spec in specs:
                if spec.feature_expansion is not None:
                    _design_of(data, spec.feature_expansion)
        results = fork_map(run, jobs) if pooled else [run(job) for job in jobs]
        self.arm_fits = [results[2 * fold : 2 * fold + 2] for fold in range(plan.k)]
        for fold, fits in enumerate(self.arm_fits):
            for fit in fits:
                with _in_fold(fold):
                    _result(fit.quantiles)
        self.e_hat = np.full(data.n, np.nan)
        self.mu = np.full((data.n, 2), np.nan)
        for fold, (test, fits) in enumerate(zip(self.tests, self.arm_fits)):
            with _in_fold(fold):
                self.e_hat[test] = _result(results[2 * plan.k + fold])
                for arm, fit in enumerate(fits):
                    self.mu[test, arm] = _result(fit.mu_test)

    def nuisances(self, params: SensitivityParams) -> NuisanceSet:
        if self.binary:
            q_plus, q_minus, rho_plus, rho_minus = binary_nuisances(self.mu, params)
        else:
            q_plus, q_minus, rho_plus, rho_minus = self._continuous(params)
        return NuisanceSet(
            e_hat=self.e_hat,
            q_plus=q_plus,
            q_minus=q_minus,
            rho_plus=rho_plus,
            rho_minus=rho_minus,
        )

    def _continuous(self, params: SensitivityParams):
        data = self.data
        out = tuple(np.full((data.n, 2), np.nan) for _ in range(4))
        for fold, (rows, fits) in enumerate(zip(self.tests, self.arm_fits)):
            with _in_fold(fold):
                test = _SharedRows(data, rows)
                for arm, fit in enumerate(fits):
                    rho_models = _result(fit.rho[params])
                    q_models = (fit.quantiles[params.tau], fit.quantiles[1.0 - params.tau])
                    for array, model in zip(out, (*q_models, *rho_models)):
                        array[rows, arm] = test.predict(model)
        return out


def crossfit_nuisances(
    data: Dataset,
    params: SensitivityParams,
    bundle: LearnerBundle,
    plan: FoldPlan,
    epsilon: float = 0.01,
) -> NuisanceSet:
    """Fit all nuisances out-of-fold and evaluate them in-fold.

    For each fold the propensity, quantile, and adversarial-regression
    models are fit on the complement and evaluated on the fold's rows at
    both arms.  Binary outcomes use the closed forms driven by a fitted
    outcome regression; continuous outcomes use quantile regression
    followed by transformed-outcome regression.  Propensities are clipped
    into ``[epsilon, 1 - epsilon]`` after prediction.

    This is the one-point case of :func:`sensitivity_curve` and runs the
    same code; to cover a lambda grid, use that function, which fits the
    lambda-free nuisances (propensity, outcome mean) and the quantiles at
    all of the grid's levels once per fold.

    A degenerate fit in any fold aborts the whole cross-fit (partial
    cross-fitting would silently change the estimator); the raised error
    is annotated with the fold index.
    """
    return _Sweep(data, bundle, plan, epsilon, [params]).nuisances(params)


@dataclass(frozen=True)
class CurvePoint:
    """One grid point of a sensitivity curve.

    ``ci_lower`` / ``ci_upper`` are the :func:`wald_bounds` limits at
    ``alpha / 2`` per side.
    """

    params: SensitivityParams
    eta: NuisanceSet
    estimate: BoundEstimate
    ci_lower: float
    ci_upper: float


def sensitivity_curve(
    data: Dataset,
    lambdas: Sequence[float],
    bundle: LearnerBundle,
    plan: FoldPlan,
    estimand: Estimand,
    alpha: float = 0.05,
    epsilon: float = 0.01,
) -> Iterator[CurvePoint]:
    """Bound estimates and Wald regions over a grid of odds-ratio bounds.

    The grid is sorted and deduplicated (:func:`check_lambda_grid`).  One
    fold plan serves the whole grid.  Before this returns, every fit is
    made, in one map of jobs: per fold and arm, the quantile models at all
    of the grid's levels ``tau`` and ``1 - tau`` in one batched
    :func:`~msmbounds.learners.fit_quantile` call, the outcome mean and,
    for continuous outcomes, the adversarial regressions of both sides at
    every grid point; then per fold the propensity.  For a continuous
    outcome with ``pinball_linear`` quantiles and no ``oracle_injection``
    role, the jobs run on forked worker processes, one per usable CPU,
    through :func:`~msmbounds.core.fork_map`, and serially where that pool
    runs serially (no ``fork``, one usable CPU, a daemonic caller, or a
    caller that is itself a pool worker, such as a coverage replication).
    Every other sweep runs them in this process.  Of scipy, a sweep loads
    ``scipy.special`` alone, before any worker forks.  The first error raised
    is the first in the order of a serial loop (the quantile fits of
    every fold and arm; then fold by fold the propensity and the means;
    then, at each grid point, the tail fits), with any number of workers,
    and names its fold.  The returned iterator then yields one
    :class:`CurvePoint` per grid value in ascending order, running only
    the lambda-dependent stage for each: the closed forms for binary
    outcomes, and for continuous ones the predictions of the quantile and
    adversarial-regression models on each fold's test rows, after raising
    any error a tail fit at that point raised.  Each point equals
    :func:`crossfit_nuisances` followed by :func:`estimate_bounds` at that
    lambda, bit for bit.  ``alpha`` is the two-sided miscoverage level of
    the region for the identified set.
    """
    lams = check_lambda_grid(lambdas)
    estimand = Estimand(estimand)
    alpha = check_alpha(alpha)
    grid = [sensitivity_params(lam) for lam in lams]
    sweep = _Sweep(data, bundle, plan, epsilon, grid)

    def points() -> Iterator[CurvePoint]:
        for params in grid:
            eta = sweep.nuisances(params)
            est = estimate_bounds(data, eta, params, estimand)
            ci_lower, ci_upper = wald_bounds(est, alpha / 2.0)
            yield CurvePoint(params=params, eta=eta, estimate=est, ci_lower=ci_lower, ci_upper=ci_upper)

    return points()


def weighting_kernel(y, q, params: SensitivityParams, side: str):
    """Odds-weighted increment form ``q + lam**(±sign(y - q)) * (y - q)``.

    ``sign(0) = +1``; the boundary case ``y == q`` is harmless because the
    multiplied increment is zero.  Algebraically identical to the
    transformed outcome ``lam**-1 * y + (1 - lam**-1) * (q + {y - q}_s /
    (1 - tau))``, with ``{t}_+ = max(t, 0)`` and ``{t}_- = min(t, 0)``,
    for every ``(y, q)``; its conditional mean is the adversarial
    regression.
    """
    _check_side(side)
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    resid = y - q
    sgn = np.where(resid >= 0.0, 1.0, -1.0)
    expo = sgn if side == "+" else -sgn
    out = q + params.lam**expo * resid
    return out if out.ndim else float(out)


def _flip(side: str) -> str:
    return "-" if side == "+" else "+"


def influence_scores(
    data: Dataset,
    eta: NuisanceSet,
    params: SensitivityParams,
    estimand: Estimand,
    side: str,
) -> np.ndarray:
    """Per-row recentered influence values for the requested bound.

    For the mean of arm ``a`` the ``side``-bound value is

        w*y + (1 - w)*rho(x, a)
            + ((1 - p)*w/p) * (kernel(y, q(x, a)) - rho(x, a))

    with ``w`` the arm's indicator and ``p`` its propensity: ``z`` and
    ``e`` for arm 1, ``1 - z`` and ``1 - e`` for arm 0.  The
    treatment-effect value combines the arm-1 ``side`` bound with the
    arm-0 bound on the opposite side.
    """
    _check_side(side)
    estimand = Estimand(estimand)
    if eta.n != data.n:
        raise ParameterError(f"nuisance set covers {eta.n} rows but the dataset has {data.n}")
    if estimand is Estimand.ATE:
        return influence_scores(data, eta, params, Estimand.MEAN1, side) - influence_scores(
            data, eta, params, Estimand.MEAN0, _flip(side)
        )
    if estimand is Estimand.ATT:
        raise ParameterError("the treated-effect estimand uses att_bounds, not influence_scores")

    y = data.outcome
    z = data.treatment.astype(float)
    e = eta.e_hat
    q_arr = eta.q_plus if side == "+" else eta.q_minus
    rho_arr = eta.rho_plus if side == "+" else eta.rho_minus
    arm = 1 if estimand is Estimand.MEAN1 else 0
    # 1 - p is taken as 1 - e or e itself: 1 - (1 - e) can differ from e
    # in the last bit.
    w, p, p_other = (z, e, 1.0 - e) if arm else (1.0 - z, 1.0 - e, e)
    rho = rho_arr[:, arm]
    kern = weighting_kernel(y, q_arr[:, arm], params, side)
    return w * y + (1.0 - w) * rho + (p_other * w / p) * (kern - rho)


@dataclass(frozen=True)
class BoundEstimate:
    """Point estimates of the lower/upper bounds with standard errors.

    For the mean and treatment-effect estimands, ``psi_lower`` /
    ``psi_upper`` are the means of the stored per-row influence values and
    each ``se`` is the ``1/(n*(n-1))`` sum-of-squared-deviations formula
    applied to them.  For the treated-effect ratio form the stored
    influence values are the recentered residuals
    ``y - phi0 - z * psi_att`` (mean zero) and the standard errors use the
    treated count; see :func:`att_bounds`.
    """

    estimand: Estimand
    lam: float
    psi_lower: float
    psi_upper: float
    se_lower: float
    se_upper: float
    influence_lower: np.ndarray
    influence_upper: np.ndarray

    @property
    def n(self) -> int:
        return self.influence_lower.shape[0]


def _se(dev: np.ndarray, count: float) -> float:
    """The standard error of a mean over ``count`` units whose deviations are ``dev``."""
    return float(np.sqrt(np.sum(dev * dev) / (count * (count - 1))))


def estimate_bounds(
    data: Dataset,
    eta: NuisanceSet,
    params: SensitivityParams,
    estimand: Estimand,
) -> BoundEstimate:
    """Average the influence values into bound estimates with standard errors."""
    estimand = Estimand(estimand)
    if estimand is Estimand.ATT:
        return att_bounds(data, eta, params)
    if data.n < 2:
        raise ParameterError("at least two rows are needed to compute a standard error")
    phi_lower = influence_scores(data, eta, params, estimand, "-")
    phi_upper = influence_scores(data, eta, params, estimand, "+")
    psi_lower = float(phi_lower.mean())
    psi_upper = float(phi_upper.mean())
    return BoundEstimate(
        estimand=estimand,
        lam=params.lam,
        psi_lower=psi_lower,
        psi_upper=psi_upper,
        se_lower=_se(phi_lower - psi_lower, data.n),
        se_upper=_se(phi_upper - psi_upper, data.n),
        influence_lower=phi_lower,
        influence_upper=phi_upper,
    )


def wald_bounds(est: BoundEstimate, alpha: float) -> tuple[float, float]:
    """One-sided Wald limits ``(psi_lower - z*se_lower, psi_upper + z*se_upper)``.

    ``z`` is the ``1 - alpha`` standard-normal quantile, ``ndtri(1 - alpha)``,
    the value scipy's ``norm.ppf`` returns.  For a two-sided
    level ``1 - alpha`` region for the whole identified set, pass
    ``alpha / 2`` (union bound over the two one-sided limits).
    """
    from scipy.special import ndtri

    z = float(ndtri(1.0 - check_alpha(alpha)))
    return est.psi_lower - z * est.se_lower, est.psi_upper + z * est.se_upper


def att_bounds(data: Dataset, eta: NuisanceSet, params: SensitivityParams) -> BoundEstimate:
    """Bounds on the average effect on the treated, in ratio form.

    The point estimates are ``(mean(y) - psi0_opposite) / mean(z)`` and the
    standard errors are

        se**2 = sum((y_i - phi0_i - z_i * psi_att)**2) / (n1 * (n1 - 1))

    with ``n1`` the treated count and ``phi0`` the arm-0 influence values
    on the side opposite the bound being estimated.
    """
    z = data.treatment.astype(float)
    n1 = float(z.sum())
    if n1 < 2:
        raise FitError(f"treated-effect bounds need at least 2 treated rows, got {int(n1)}")
    y = data.outcome
    phi0_lower = influence_scores(data, eta, params, Estimand.MEAN0, "-")
    phi0_upper = influence_scores(data, eta, params, Estimand.MEAN0, "+")
    y_bar = float(y.mean())
    z_bar = float(z.mean())
    att_upper = (y_bar - float(phi0_lower.mean())) / z_bar
    att_lower = (y_bar - float(phi0_upper.mean())) / z_bar
    resid_upper = y - phi0_lower - z * att_upper
    resid_lower = y - phi0_upper - z * att_lower
    return BoundEstimate(
        estimand=Estimand.ATT,
        lam=params.lam,
        psi_lower=att_lower,
        psi_upper=att_upper,
        se_lower=_se(resid_lower, n1),
        se_upper=_se(resid_upper, n1),
        influence_lower=resid_lower,
        influence_upper=resid_upper,
    )
