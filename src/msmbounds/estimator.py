"""Cross-fitted bound estimation.

Fold plans, cross-fitting of all nuisances (at one lambda, or over a
lambda grid that shares the lambda-free fits), per-row influence values,
point estimates of the lower/upper bounds with standard errors, Wald
limits, the ratio form for the effect on the treated, and the plain AIPW
and assumption-free reference estimators.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.special import ndtri

from .core import (
    DataError,
    Dataset,
    Estimand,
    FitError,
    MsmBoundsError,
    NuisanceSet,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    check_epsilon,
    check_lambda_grid,
    check_seed,
    fork_map,
    sensitivity_params,
)
from .cvar import weighting_kernel
from .learners import (
    FittedPredictor,
    LearnerBundle,
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
    "influence_scores",
    "BoundEstimate",
    "estimate_bounds",
    "wald_bounds",
    "att_bounds",
    "aipw",
    "manski_bounds_binary",
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
        a = np.asarray(self.assignments, dtype=np.int64)
        counts = np.bincount(a, minlength=self.k)
        if counts.size != self.k or np.any(counts == 0):
            raise ParameterError("every fold must be nonempty")
        if counts.max() - counts.min() > 1:
            raise ParameterError("fold sizes must differ by at most one")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]


def split_folds(n: int, k: int, seed: int) -> FoldPlan:
    """Split ``n`` rows into ``k`` approximately even, seeded random folds.

    ``seed`` is anything :func:`numpy.random.default_rng` takes that
    :func:`~msmbounds.core.check_seed` accepts: an integer, a sequence of
    integers or a :class:`numpy.random.SeedSequence`."""
    if not (2 <= k <= n):
        raise ParameterError(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(check_seed(seed)).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    for fold, block in enumerate(np.array_split(perm, k)):
        assignments[block] = fold
    return FoldPlan(assignments=assignments, k=int(k))


@dataclass(frozen=True)
class _FoldFit:
    """The fits of one fold that every grid point shares: its rows, its
    mean models and its quantile models at all of the grid's levels."""

    train: np.ndarray
    test: np.ndarray
    mu_models: list[FittedPredictor] | None  # indexed by arm
    q_models: list[dict[float, FittedPredictor]] | None  # indexed by arm, keyed by level


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

    Construction fits, once per fold, everything that does not depend on
    the grid point: the clipped propensity ``e_hat``, the outcome mean
    ``mu`` where the estimator uses it, and, for continuous outcomes, the
    conditional quantiles at every level ``tau`` and ``1 - tau`` of the
    grid's ``params``, one batched fit per fold and arm.  The fold loop
    runs in this process; the ``2K`` ``pinball_linear`` fits, which share
    no state, then run whole on forked worker processes
    (:func:`~msmbounds.core.fork_map`), and their predictors come back.
    Other quantile kinds fit in the loop: an injected function need not
    pickle.  The results and the first error raised are those of a
    serial loop, bit for bit.  :meth:`nuisances` then adds the
    lambda-dependent part for one grid point: the closed forms in ``mu``
    for binary outcomes, a lookup of the two quantile models and the tail
    fits for continuous ones.
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
        self.bundle = bundle
        self.binary = data.outcome_kind is OutcomeKind.BINARY
        fit_mu = self.binary or bundle.regression.kind != "oracle_injection"
        # At lam == 1 both levels are exactly 0.5: the median is fit once.
        levels = None if self.binary else sorted({t for par in grid for t in (par.tau, 1.0 - par.tau)})
        n = data.n
        self.e_hat = np.full(n, np.nan)
        self.mu = np.full((n, 2), np.nan) if fit_mu else None
        self.folds: list[_FoldFit] = []
        jobs: list[tuple[int, np.ndarray, int]] = []  # (fold, train, arm) of each pooled fit
        all_rows = np.arange(n)

        def fit(job: tuple[int, np.ndarray, int]) -> list[FittedPredictor]:
            fold, train, arm = job
            with _in_fold(fold):
                return fit_quantile(data, train, arm, levels, bundle.quantile)

        try:
            for fold in range(plan.k):
                test = all_rows[plan.assignments == fold]
                train = all_rows[plan.assignments != fold]
                x_test = data.covariates[test]
                mu_models = q_models = None
                with _in_fold(fold):
                    e_model = fit_propensity(data, train, bundle.propensity)
                    self.e_hat[test] = clip_propensity(e_model.predict(x_test), epsilon)
                    if fit_mu:
                        mu_models = []
                        for arm in (0, 1):
                            mu_models.append(fit_mean(data, train, arm, bundle.regression))
                            mu_te = mu_models[arm].predict(x_test)
                            if self.binary:
                                mu_te = np.clip(np.asarray(mu_te, dtype=float), 0.0, 1.0)
                                check_binary_mean(mu_te)
                            self.mu[test, arm] = mu_te
                    if levels is not None:
                        q_models = [{}, {}]
                        for arm in (0, 1):
                            if bundle.quantile.kind == "pinball_linear":
                                jobs.append((fold, train, arm))
                            else:
                                fits = fit_quantile(data, train, arm, levels, bundle.quantile)
                                q_models[arm].update(zip(levels, fits))
                self.folds.append(_FoldFit(train, test, mu_models, q_models))
        except FitError:
            # A serial loop would have run every fit queued before this
            # error, so the first of their errors comes first.
            fork_map(fit, jobs)
            raise
        for (fold, _train, arm), fits in zip(jobs, fork_map(fit, jobs)):
            self.folds[fold].q_models[arm].update(zip(levels, fits))

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
            mu=self.mu,
        )

    def _continuous(self, params: SensitivityParams):
        data, bundle = self.data, self.bundle
        out = tuple(np.full((data.n, 2), np.nan) for _ in range(4))
        q_plus, q_minus, rho_plus, rho_minus = out
        for fold, fit in enumerate(self.folds):
            x_test = data.covariates[fit.test]
            with _in_fold(fold):
                for arm in (0, 1):
                    qp_model = fit.q_models[arm][params.tau]
                    qm_model = fit.q_models[arm][1.0 - params.tau]
                    mu_model = fit.mu_models[arm] if fit.mu_models is not None else None
                    rp_model = fit_rho(data, fit.train, arm, qp_model, params, "+", bundle.regression, mu_model)
                    rm_model = fit_rho(data, fit.train, arm, qm_model, params, "-", bundle.regression, mu_model)
                    q_plus[fit.test, arm] = qp_model.predict(x_test)
                    q_minus[fit.test, arm] = qm_model.predict(x_test)
                    rho_plus[fit.test, arm] = rp_model.predict(x_test)
                    rho_minus[fit.test, arm] = rm_model.predict(x_test)
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
    fold plan serves the whole grid.  Before this returns, the propensity
    and outcome-mean models, which do not depend on lambda, are fit once
    per fold, and for continuous outcomes so are the quantile models at
    all of the grid's levels ``tau`` and ``1 - tau``, in one batched
    :func:`~msmbounds.learners.fit_quantile` call per fold and arm.  The
    folds are prepared in this process; the ``2K`` ``pinball_linear`` fits
    run whole on forked worker processes, one per usable CPU, through
    :func:`~msmbounds.core.fork_map`, and serially where that pool runs
    serially (no ``fork``, a daemonic caller, or a caller that is itself
    a pool worker, such as a coverage replication).  The returned
    iterator then yields one :class:`CurvePoint` per grid value in
    ascending order, running only the lambda-dependent stage for each:
    the closed forms for binary outcomes, the tail fits for continuous
    ones.  Each point equals :func:`crossfit_nuisances` followed by
    :func:`estimate_bounds` at that lambda, bit for bit.  ``alpha`` is the
    two-sided miscoverage level of the region for the identified set.
    """
    lams = check_lambda_grid(lambdas)
    estimand = Estimand(estimand)
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    grid = [sensitivity_params(lam) for lam in lams]
    sweep = _Sweep(data, bundle, plan, epsilon, grid)

    def points() -> Iterator[CurvePoint]:
        for params in grid:
            eta = sweep.nuisances(params)
            est = estimate_bounds(data, eta, params, estimand)
            ci_lower, ci_upper = wald_bounds(est, alpha / 2.0)
            yield CurvePoint(params=params, eta=eta, estimate=est, ci_lower=ci_lower, ci_upper=ci_upper)

    return points()


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

    For the arm-1 mean the ``side``-bound value is

        z*y + (1 - z)*rho(x, 1)
            + ((1 - e)*z/e) * (kernel(y, q(x, 1)) - rho(x, 1))

    with the arm-0 mean symmetric (``z`` and ``e`` complemented).  The
    treatment-effect value combines the arm-1 ``side`` bound with the
    arm-0 bound on the opposite side.
    """
    if side not in ("+", "-"):
        raise ParameterError(f"side must be '+' or '-', got {side!r}")
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
    if estimand is Estimand.MEAN1:
        q = q_arr[:, 1]
        rho = rho_arr[:, 1]
        kern = weighting_kernel(y, q, params, side)
        return z * y + (1.0 - z) * rho + ((1.0 - e) * z / e) * (kern - rho)
    q = q_arr[:, 0]
    rho = rho_arr[:, 0]
    kern = weighting_kernel(y, q, params, side)
    return (1.0 - z) * y + z * rho + (e * (1.0 - z) / (1.0 - e)) * (kern - rho)


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
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    z = float(ndtri(1.0 - alpha))
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


def aipw(data: Dataset, e_hat: np.ndarray, mu_hat: np.ndarray) -> float:
    """The augmented inverse-propensity estimate of the treatment effect.

    ``e_hat`` is per-row, ``mu_hat`` is per-row-per-arm with column ``z``
    holding the arm-``z`` regression.
    """
    e = np.asarray(e_hat, dtype=float)
    mu = np.asarray(mu_hat, dtype=float)
    if e.shape != (data.n,) or mu.shape != (data.n, 2):
        raise ParameterError(
            f"expected e_hat shape ({data.n},) and mu_hat shape ({data.n}, 2), got {e.shape} and {mu.shape}"
        )
    y = data.outcome
    z = data.treatment.astype(float)
    summand = (
        mu[:, 1]
        - mu[:, 0]
        + z * (y - mu[:, 1]) / e
        - (1.0 - z) * (y - mu[:, 0]) / (1.0 - e)
    )
    return float(summand.mean())


def manski_bounds_binary(data: Dataset) -> tuple[float, float]:
    """Assumption-free bounds on the treatment effect for 0/1 outcomes.

    The arm-1 mean lies in ``[E_n[zy], E_n[zy + (1 - z)]]`` and the arm-0
    mean in ``[E_n[(1 - z)y], E_n[(1 - z)y + z]]``; the effect bounds
    follow by interval subtraction.
    """
    if data.outcome_kind is not OutcomeKind.BINARY:
        raise DataError("assumption-free bounds require a binary outcome")
    y = data.outcome
    z = data.treatment.astype(float)
    mean1_lower = float((z * y).mean())
    mean1_upper = float((z * y + (1.0 - z)).mean())
    mean0_lower = float(((1.0 - z) * y).mean())
    mean0_upper = float(((1.0 - z) * y + z).mean())
    return mean1_lower - mean0_upper, mean1_upper - mean0_lower
