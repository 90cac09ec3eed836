"""Nuisance learners.

Contracts plus small built-in implementations for the three nuisance
problems: propensity (penalized logistic regression fit by damped Newton),
conditional quantile (linear pinball regression fit by averaged
subgradient descent, vectorised over quantile levels that share one ridge
warm start), and transformed-outcome regression (closed-form ridge).  A
``constant`` kind provides intercept-only baselines for
misspecification experiments, and ``oracle_injection`` wraps
caller-supplied evaluation functions so exact nuisances can be plugged in.
One private dispatch, ``_fit``, serves every propensity, mean, tail and
injection fit, and every linear fit slices one intercept-plus-expansion
design, built once per dataset and expansion.

All fits are deterministic functions of their inputs: closed forms or
fixed iteration schedules, no internal randomness.  Every fit runs in the
calling process except the pinball solves of the cross-fitting sweep,
which run on forked worker processes (:func:`~msmbounds.core.fork_map`)
and send back only weight arrays; the predictors are built in the caller.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import expit

from .core import (
    ConvergenceError,
    Dataset,
    FitError,
    ParameterError,
    SensitivityParams,
)
from .cvar import DiscreteDist, empirical_quantile, transformed_outcome

__all__ = [
    "LearnerSpec",
    "LearnerBundle",
    "FittedPredictor",
    "default_bundle",
    "expand_features",
    "fit_propensity",
    "clip_propensity",
    "fit_quantile",
    "fit_mean",
    "fit_rho",
    "check_binary_mean",
    "binary_nuisances",
]

_KINDS = ("logistic", "ridge", "pinball_linear", "constant", "oracle_injection")
_EXPANSIONS = ("raw", "interactions")


@dataclass(frozen=True)
class LearnerSpec:
    """Configuration for one nuisance learner.

    ``kind`` (str) names the learner.  Each role accepts: propensity
    ``logistic`` or ``constant``; quantile ``pinball_linear`` or
    ``constant``; regression ``ridge``, ``constant``, or ``logistic`` for
    binary outcomes only; every role also takes ``oracle_injection``.
    ``regularization`` (real, >= 0) is the penalty weight, ``max_iter``
    (int, >= 1) the iteration budget and ``tol`` (real, > 0) the
    convergence tolerance of the iterative fits.  ``feature_expansion``
    (str) controls the design matrix: ``raw`` uses the covariates as-is,
    ``interactions`` appends all pairwise products (including squares) so
    bilinear signal is within the linear span; the intercept-plus-expansion
    design is built once per dataset and shared by every linear fit.
    ``inject`` is only consulted for ``kind == "oracle_injection"``; its
    signature depends on the fitting problem (see the ``fit_*`` functions).
    """

    kind: str
    regularization: float = 1e-2
    max_iter: int = 500
    tol: float = 1e-8
    feature_expansion: str = "interactions"
    inject: Callable | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown learner kind {self.kind!r}; expected one of {_KINDS}")
        # Values may come from a JSON file: a bool or a string is no number.
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ParameterError(f"max_iter must be an integer, got {self.max_iter!r}")
        for name in ("regularization", "tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
        if not (np.isfinite(self.regularization) and self.regularization >= 0.0):
            raise ParameterError(f"regularization must be >= 0, got {self.regularization!r}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ParameterError(f"tol must be > 0, got {self.tol!r}")
        if self.feature_expansion not in _EXPANSIONS:
            raise ParameterError(
                f"unknown feature expansion {self.feature_expansion!r}; expected one of {_EXPANSIONS}"
            )
        if self.kind == "oracle_injection" and self.inject is None:
            raise ParameterError("oracle_injection requires an inject callable")


@dataclass(frozen=True)
class LearnerBundle:
    """The three learner specs used by cross-fitting, plus the rho strategy.

    ``rho_strategy == "separate"`` fits the outcome mean and the tail part
    as two regressions and mixes them, which makes the estimator collapse
    to plain AIPW at ``lam == 1``.  ``"direct"`` regresses the transformed
    outcome in one pass.
    """

    propensity: LearnerSpec
    quantile: LearnerSpec
    regression: LearnerSpec
    rho_strategy: str = "separate"

    def __post_init__(self):
        if self.rho_strategy not in ("separate", "direct"):
            raise ParameterError(f"rho_strategy must be 'separate' or 'direct', got {self.rho_strategy!r}")


def default_bundle(outcome_kind) -> LearnerBundle:
    """Built-in defaults: logistic propensity, pinball quantiles, ridge
    (continuous) or logistic (binary) outcome regression."""
    from .core import OutcomeKind

    kind = OutcomeKind(outcome_kind)
    regression = LearnerSpec(kind="logistic" if kind is OutcomeKind.BINARY else "ridge")
    return LearnerBundle(
        propensity=LearnerSpec(kind="logistic"),
        quantile=LearnerSpec(kind="pinball_linear"),
        regression=regression,
    )


@dataclass(frozen=True)
class FittedPredictor:
    """An immutable evaluation function from covariates to predictions."""

    kind: str
    predict: Callable[[np.ndarray], np.ndarray]
    n_train: int
    components: Mapping[str, "FittedPredictor"] | None = field(default=None, compare=False)


def expand_features(x: np.ndarray, expansion: str) -> np.ndarray:
    """Apply the configured feature expansion (no intercept column)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if expansion == "raw":
        return x
    if expansion == "interactions":
        i, j = np.triu_indices(x.shape[1])
        return np.hstack([x, x[:, i] * x[:, j]])
    raise ParameterError(f"unknown feature expansion {expansion!r}")


def _design(x: np.ndarray, expansion: str) -> np.ndarray:
    f = expand_features(x, expansion)
    return np.hstack([np.ones((f.shape[0], 1)), f])


def _design_of(data: Dataset, expansion: str) -> np.ndarray:
    """``_design(data.covariates, expansion)``, kept read-only on the dataset,
    which never changes.  The expansion is elementwise per row, so
    ``_design_of(data, e)[rows]`` equals ``_design(data.covariates[rows], e)``."""
    designs = vars(data).setdefault("_designs", {})
    if expansion not in designs:
        designs[expansion] = _design(data.covariates, expansion)
        designs[expansion].setflags(write=False)
    return designs[expansion]


def _penalty(p: int, reg: float) -> np.ndarray:
    pen = np.full(p, reg)
    pen[0] = 0.0  # intercept unpenalized
    return pen


def _solve_ridge(f: np.ndarray, t: np.ndarray, reg: float) -> np.ndarray:
    n, p = f.shape
    pen = _penalty(p, max(reg, 1e-10))
    a = f.T @ f / n + np.diag(pen)
    b = f.T @ t / n
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def _logistic_nll(eta: np.ndarray, w: np.ndarray, t: np.ndarray, pen: np.ndarray) -> float:
    """Penalised mean negative log-likelihood at ``w``, given ``eta = f @ w``."""
    return float(np.mean(np.logaddexp(0.0, eta) - t * eta) + 0.5 * (pen @ (w * w)))


def _fit_logistic(f: np.ndarray, t: np.ndarray, spec: LearnerSpec) -> np.ndarray:
    n, p = f.shape
    pen = _penalty(p, max(spec.regularization, 1e-10))
    pen_diag = np.diag(pen)
    w = np.zeros(p)
    eta = f @ w
    nll = _logistic_nll(eta, w, t, pen)
    for _ in range(spec.max_iter):
        prob = expit(eta)
        grad = f.T @ (prob - t) / n + pen * w
        if np.max(np.abs(grad)) <= spec.tol:
            return w
        weight = prob * (1.0 - prob) + 1e-12
        hess = (f * weight[:, None]).T @ f / n + pen_diag
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        step = 1.0
        while step >= 2.0**-40:
            cand = w - step * direction
            cand_eta = f @ cand
            cand_nll = _logistic_nll(cand_eta, cand, t, pen)
            if cand_nll <= nll + 1e-12:
                w, eta, nll = cand, cand_eta, cand_nll
                break
            step /= 2.0
        else:
            # No step was accepted, and step is now one halving below the
            # last candidate: take that step anyway.
            w = w - step * direction
            eta = f @ w
            nll = _logistic_nll(eta, w, t, pen)
        moved = step * np.max(np.abs(direction))
        if moved <= spec.tol:
            return w
    raise ConvergenceError(
        f"logistic fit did not converge in {spec.max_iter} Newton iterations", last_iterate=w
    )


def _fit(
    data: Dataset, rows: np.ndarray, target: np.ndarray | None, spec: LearnerSpec, inject_args: tuple
) -> FittedPredictor:
    """The one learner dispatch: regress ``target`` (one value per row of
    ``rows``) on those rows' covariates.  ``constant`` predicts its mean,
    ``ridge`` and ``logistic`` fit rows of the shared :func:`_design_of`, and
    ``oracle_injection`` wraps ``inject(X, *inject_args)``.  Callers check the kind."""
    expansion = spec.feature_expansion
    if spec.kind == "oracle_injection":
        predict = lambda xnew: np.asarray(spec.inject(np.atleast_2d(xnew), *inject_args), dtype=float)
    elif spec.kind == "constant":
        m = float(target.mean())
        predict = lambda xnew: np.full(np.atleast_2d(xnew).shape[0], m)
    elif spec.kind == "logistic":
        w = _fit_logistic(_design_of(data, expansion)[rows], target, spec)
        predict = lambda xnew: expit(_design(xnew, expansion) @ w)
    else:
        w = _solve_ridge(_design_of(data, expansion)[rows], target, spec.regularization)
        predict = lambda xnew: _design(xnew, expansion) @ w
    return FittedPredictor(kind=spec.kind, predict=predict, n_train=int(np.size(rows)))


def fit_propensity(data: Dataset, rows: np.ndarray, spec: LearnerSpec) -> FittedPredictor:
    """Fit a treatment-probability model on the given rows.

    The training rows must contain both treatment values; an all-treated
    or all-control subset raises :class:`FitError`.  Supported kinds:
    ``logistic``, ``constant`` (sample treated share), and
    ``oracle_injection`` with signature ``inject(X) -> probabilities``.
    """
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise FitError("propensity fit needs a nonempty training set")
    z = data.treatment[rows].astype(float)
    if spec.kind != "oracle_injection":
        if np.all(z == 1.0):
            raise FitError("degenerate propensity fit: all training rows are treated")
        if np.all(z == 0.0):
            raise FitError("degenerate propensity fit: all training rows are control")
    if spec.kind not in ("logistic", "constant", "oracle_injection"):
        raise ParameterError(f"learner kind {spec.kind!r} cannot fit a propensity model")
    return _fit(data, rows, z, spec, ())


def clip_propensity(value, epsilon: float):
    """Clamp propensities into ``[epsilon, 1 - epsilon]``."""
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 0.5):
        raise ParameterError(f"clip epsilon must lie in (0, 0.5), got {epsilon!r}")
    out = np.clip(np.asarray(value, dtype=float), epsilon, 1.0 - epsilon)
    return out if out.ndim else float(out)


def _arm_rows(data: Dataset, rows: np.ndarray, arm: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=int)
    sub = rows[data.treatment[rows] == arm]
    if sub.size == 0:
        raise FitError(f"degenerate fit: no training rows with treatment == {arm}")
    return sub


def _standardize(f: np.ndarray):
    # Column 0, the intercept, keeps centre 0 and (zero spread) scale 1.
    center = f.mean(axis=0)
    scale = f.std(axis=0)
    center[0] = 0.0
    scale[scale == 0.0] = 1.0
    return (f - center) / scale, center, scale


def _pinball_weights(f: np.ndarray, y: np.ndarray, levels: np.ndarray, spec: LearnerSpec) -> np.ndarray:
    """Averaged-subgradient pinball fits of ``y`` on ``f`` at every level.

    Returns one weight row per level.  The levels share the ridge warm
    start and one subgradient loop over a ``(k, p)`` iterate, and each
    stops by its own averaging check, so every row has the bits a loop
    over that level alone would give: the stacked ``np.matmul`` products
    run one matrix-vector product per level, never a GEMM whose rounding
    depends on how many levels are still running.
    """
    n, p = f.shape
    pen = _penalty(p, spec.regularization)
    w0 = _solve_ridge(f, y, spec.regularization)
    resid_dist = DiscreteDist(y - f @ w0, np.full(n, 1.0 / n))
    w = np.tile(w0, (levels.size, 1))
    w[:, 0] += [empirical_quantile(resid_dist, a) for a in levels]

    live = np.arange(levels.size)  # levels still iterating
    a = levels[:, None]
    avg = np.zeros_like(w)
    n_avg = 0
    prev_avg = None
    out = np.empty_like(w)
    burn = spec.max_iter // 2
    step0 = 0.5
    for t in range(1, spec.max_iter + 1):
        r = y - np.matmul(f, w[:, :, None])[:, :, 0]
        # dloss/dresidual: a where r > 0, a - 1 otherwise, so zero
        # residuals take the left limit.
        gr = a - ~(r > 0.0)
        grad = -np.matmul(gr[:, None, :], f)[:, 0, :] / n + pen * w
        w = w - (step0 / np.sqrt(t)) * grad
        if t > burn:
            avg += w
            n_avg += 1
            if n_avg % 50 == 0:
                current = avg / n_avg
                if prev_avg is not None:
                    done = np.max(np.abs(current - prev_avg), axis=1) <= spec.tol
                    out[live[done]] = current[done]
                    keep = ~done
                    live, a, w, avg, current = live[keep], a[keep], w[keep], avg[keep], current[keep]
                    if not live.size:
                        return out
                prev_avg = current
    out[live] = avg / n_avg
    return out


@dataclass(frozen=True)
class _QuantileFit:
    """One :func:`fit_quantile` call, split at its solver.

    Building it validates the call and does everything but the solve.
    ``solver_args`` are the :func:`_pinball_weights` arguments for
    ``pinball_linear`` and None for the kinds that solve nothing;
    ``wrap`` turns the solver's weight rows (None where nothing was
    solved) into one predictor per level.  Arguments and weights are
    plain arrays, so the solve may run in another process; the
    predictors hold closures and are made where they are used.
    """

    solver_args: tuple | None
    wrap: Callable[[np.ndarray | None], list[FittedPredictor]]

    def solve(self) -> np.ndarray | None:
        return None if self.solver_args is None else _pinball_weights(*self.solver_args)


def _quantile_fit(
    data: Dataset, rows: np.ndarray, arm: int, alpha: float | Sequence[float], spec: LearnerSpec
) -> _QuantileFit:
    levels = np.asarray(alpha, dtype=float)
    if levels.ndim > 1 or levels.size == 0:
        raise ParameterError(f"quantile levels must be one value or a nonempty 1-D sequence, got {alpha!r}")
    bad = levels[~((0.0 < levels) & (levels < 1.0))]
    if bad.size:
        raise ParameterError(f"quantile level must lie in (0, 1), got {float(bad[0])!r}")
    if arm not in (0, 1):
        raise ParameterError(f"arm must be 0 or 1, got {arm!r}")
    levels = levels.reshape(-1)
    if spec.kind == "oracle_injection":
        fits = [_fit(data, rows, None, spec, (arm, float(a))) for a in levels]
        return _QuantileFit(None, lambda _: fits)
    sub = _arm_rows(data, rows, arm)
    y = data.outcome[sub]
    if spec.kind == "constant":
        dist = DiscreteDist(y, np.full(y.size, 1.0 / y.size))
        fits = [
            FittedPredictor(
                kind=spec.kind,
                predict=lambda xnew, q=empirical_quantile(dist, a): np.full(np.atleast_2d(xnew).shape[0], q),
                n_train=sub.size,
            )
            for a in levels
        ]
        return _QuantileFit(None, lambda _: fits)
    if spec.kind == "pinball_linear":
        f, center, scale = _standardize(_design_of(data, spec.feature_expansion)[sub])
        expansion = spec.feature_expansion

        def wrap(weights: np.ndarray) -> list[FittedPredictor]:
            return [
                FittedPredictor(
                    kind=spec.kind,
                    predict=lambda xnew, w=w.copy(): ((_design(xnew, expansion) - center) / scale) @ w,
                    n_train=sub.size,
                )
                for w in weights
            ]

        return _QuantileFit((f, y, levels, spec), wrap)
    raise ParameterError(f"learner kind {spec.kind!r} cannot fit a quantile model")


def fit_quantile(
    data: Dataset, rows: np.ndarray, arm: int, alpha: float | Sequence[float], spec: LearnerSpec
) -> FittedPredictor | list[FittedPredictor]:
    """Fit conditional quantile models on the arm subset of ``rows``.

    ``alpha`` is one level in (0, 1), which returns one
    :class:`FittedPredictor`, or a 1-D sequence of levels, which returns a
    list with one predictor per level, in order.  Each predictor of a
    sequence equals the fit of its level alone, bit for bit.

    ``pinball_linear`` minimizes average pinball (check) loss by averaged
    subgradient descent over a linear model, warm-started at a ridge
    least-squares fit shifted to the empirical residual quantile.  The
    levels are vectorised: the standardised design and the ridge warm
    start are built once and shared, and all levels run through one
    subgradient loop, each stopping by its own convergence check.  The
    subgradient at an exactly-zero residual takes the left limit
    ``alpha - 1``, fixed for determinism.  ``constant`` returns the
    empirical quantile of the arm's outcomes.  ``oracle_injection`` wraps
    ``inject(X, arm, alpha) -> values``.

    The cross-fitting sweep runs the same code in two halves: it builds
    the design in the calling process and runs the subgradient solve on
    the package's worker pool (:func:`~msmbounds.core.fork_map`).
    """
    q_fit = _quantile_fit(data, rows, arm, alpha, spec)
    fits = q_fit.wrap(q_fit.solve())
    return fits[0] if np.ndim(alpha) == 0 else fits


def fit_mean(data: Dataset, rows: np.ndarray, arm: int, spec: LearnerSpec) -> FittedPredictor:
    """Fit a conditional-mean model for the outcome on the arm subset.

    ``ridge`` is the closed-form penalized least-squares fit; ``logistic``
    is valid for 0/1 outcomes and predicts in (0, 1); ``constant`` returns
    the arm's sample mean; ``oracle_injection`` wraps
    ``inject(X, arm) -> values``.
    """
    if arm not in (0, 1):
        raise ParameterError(f"arm must be 0 or 1, got {arm!r}")
    if spec.kind == "oracle_injection":
        return _fit(data, rows, None, spec, (arm,))
    sub = _arm_rows(data, rows, arm)
    y = data.outcome[sub]
    if spec.kind not in ("ridge", "logistic", "constant"):
        raise ParameterError(f"learner kind {spec.kind!r} cannot fit an outcome mean")
    if spec.kind == "logistic" and not np.all((y == 0.0) | (y == 1.0)):
        raise ParameterError("logistic outcome regression requires a 0/1 outcome")
    return _fit(data, sub, y, spec, ())


def fit_rho(
    data: Dataset,
    rows: np.ndarray,
    arm: int,
    q_hat: FittedPredictor,
    params: SensitivityParams,
    side: str,
    spec: LearnerSpec,
    strategy: str = "separate",
    mu_model: FittedPredictor | None = None,
) -> FittedPredictor:
    """Fit the adversarial-regression nuisance from an estimated quantile.

    ``direct`` regresses the transformed outcome built from ``q_hat`` on
    the covariates in one pass.  ``separate`` fits the outcome mean and the
    tail component as two regressions and returns their
    ``lam**-1 / (1 - lam**-1)`` mixture; at ``lam == 1`` the tail's weight
    is zero, so no tail regression is fit and the returned predictor is
    exactly the mean regression (``components`` holds only ``"mu"``).
    The mean regression does not depend on ``lam`` or ``side``, so a
    caller that already holds ``fit_mean(data, rows, arm, spec)`` passes
    it as ``mu_model`` instead of having it refit here.  The caller is
    responsible for ``q_hat`` (and ``mu_model``) respecting the
    cross-fitting plan.  ``oracle_injection`` wraps
    ``inject(X, arm, side) -> values``.
    """
    if side not in ("+", "-"):
        raise ParameterError(f"side must be '+' or '-', got {side!r}")
    if strategy not in ("separate", "direct"):
        raise ParameterError(f"strategy must be 'separate' or 'direct', got {strategy!r}")
    if spec.kind == "oracle_injection":
        return _fit(data, rows, None, spec, (arm, side))
    if spec.kind not in ("ridge", "constant"):
        raise ParameterError(f"learner kind {spec.kind!r} cannot fit a transformed-outcome regression")
    sub = _arm_rows(data, rows, arm)
    if strategy == "separate":
        if mu_model is None:
            mu_model = fit_mean(data, rows, arm, spec)
        if params.lam == 1.0:
            # The tail's mixture weight 1 - 1/lam is zero: nothing to fit.
            return FittedPredictor(
                kind=spec.kind, predict=mu_model.predict, n_train=sub.size, components={"mu": mu_model}
            )
    y = data.outcome[sub]
    q_vals = np.asarray(q_hat.predict(data.covariates[sub]), dtype=float)

    if strategy == "direct":
        target = transformed_outcome(y, q_vals, params, side)
        return _fit(data, sub, np.asarray(target), spec, ())

    resid = y - q_vals
    part = np.maximum(resid, 0.0) if side == "+" else np.minimum(resid, 0.0)
    tail_target = q_vals + part / (1.0 - params.tau)
    tail_model = _fit(data, sub, tail_target, spec, ())
    lam_inv = 1.0 / params.lam

    def predict(xnew: np.ndarray) -> np.ndarray:
        return lam_inv * mu_model.predict(xnew) + (1.0 - lam_inv) * tail_model.predict(xnew)

    return FittedPredictor(
        kind=spec.kind,
        predict=predict,
        n_train=sub.size,
        components={"mu": mu_model, "tail": tail_model},
    )


def check_binary_mean(mu: np.ndarray) -> None:
    """Raise :class:`ParameterError` unless every value lies in [0, 1]."""
    if not np.all(np.isfinite(mu)) or np.any(mu < 0.0) or np.any(mu > 1.0):
        raise ParameterError("binary outcome regression values must lie in [0, 1]")


def binary_nuisances(mu_hat, params: SensitivityParams):
    """Closed-form quantile and adversarial-regression nuisances for 0/1 outcomes.

    For a Bernoulli conditional law with mean ``mu_hat`` the tail quantiles
    are indicators and the adversarial regressions are piecewise-linear in
    ``mu_hat``:

        q_minus = 1{mu > tau}            q_plus = 1{mu > 1 - tau}
        rho_minus = max(1 - lam + mu*lam, mu/lam)
        rho_plus  = min(1 - 1/lam + mu/lam, mu*lam)

    Accepts scalars or arrays; returns ``(q_plus, q_minus, rho_plus,
    rho_minus)``.
    """
    mu = np.asarray(mu_hat, dtype=float)
    check_binary_mean(mu)
    lam = params.lam
    q_plus = (mu > 1.0 - params.tau).astype(float)
    q_minus = (mu > params.tau).astype(float)
    rho_plus = np.minimum(1.0 - 1.0 / lam + mu / lam, mu * lam)
    rho_minus = np.maximum(1.0 - lam + mu * lam, mu / lam)
    if mu.ndim == 0:
        return float(q_plus), float(q_minus), float(rho_plus), float(rho_minus)
    return q_plus, q_minus, rho_plus, rho_minus
