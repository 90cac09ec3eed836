"""Nuisance learners.

Contracts plus small built-in implementations for the three nuisance
problems: propensity (penalized logistic regression fit by damped Newton),
conditional quantile (unpenalized linear pinball regression solved exactly
as a linear program by a primal-dual interior-point method, one level at a
time), and transformed-outcome regression (closed-form ridge).  A
``constant`` kind provides intercept-only baselines for
misspecification experiments, and ``oracle_injection`` wraps
caller-supplied evaluation functions so exact nuisances can be plugged in.
One private dispatch, ``_fit``, serves every propensity, mean, tail and
injection fit, and every linear fit slices one intercept-plus-expansion
design, built once per dataset and expansion.

All fits are deterministic functions of their inputs: closed forms or
iterative solvers with no internal randomness.  Every fit runs in the
calling process except the cross-fitting sweep's ``pinball_linear``
quantile fits, which run whole on forked worker processes
(:func:`~msmbounds.core.fork_map`) and send back their predictors, which
pickle.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from scipy.special import expit

from .core import (
    ConvergenceError,
    Dataset,
    FitError,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    check_epsilon,
)
from .cvar import DiscreteDist, empirical_quantile

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
    "check_regression_kind",
    "binary_nuisances",
]

# The fields besides ``kind`` that each kind configurable from a learner
# config file reads.  The command line rejects a field its kind does not
# read, and the README's table of kinds and fields lists this table.
KIND_FIELDS = {
    "logistic": ("regularization", "max_iter", "tol", "feature_expansion"),
    "ridge": ("regularization", "feature_expansion"),
    "pinball_linear": ("max_iter", "tol", "feature_expansion"),
    "constant": (),
}
_KINDS = (*KIND_FIELDS, "oracle_injection")
# The kinds each role of a learner bundle accepts.  A bundle rejects any
# other, and each ``fit_*`` function checks its role's entry.  ``logistic``
# regresses a binary outcome only (:func:`check_regression_kind`).  The
# README's table of roles lists this table.
ROLE_KINDS = {
    "propensity": ("logistic", "constant", "oracle_injection"),
    "quantile": ("pinball_linear", "constant", "oracle_injection"),
    "regression": ("ridge", "logistic", "constant", "oracle_injection"),
}
_EXPANSIONS = ("raw", "interactions")


@dataclass(frozen=True)
class LearnerSpec:
    """Configuration for one nuisance learner.

    ``kind`` (str) names the learner; ``ROLE_KINDS`` lists the kinds each
    role accepts.
    ``regularization`` (real, >= 0) is the ridge penalty weight of the
    ``logistic`` and ``ridge`` fits; ``pinball_linear`` is an unpenalized
    linear program and does not use it.  ``max_iter`` (int, >= 1) is the
    Newton-step budget and ``tol`` (real, > 0) the convergence tolerance of
    the iterative fits: the step or gradient size of ``logistic``, the
    relative duality gap of ``pinball_linear``.  ``feature_expansion``
    (str) controls the design matrix: ``raw`` uses the covariates as-is,
    ``interactions`` appends all pairwise products (including squares) so
    bilinear signal is within the linear span; the intercept-plus-expansion
    design is built once per dataset and shared by every linear fit.
    ``inject`` is only consulted for ``kind == "oracle_injection"``; its
    signature depends on the fitting problem (see the ``fit_*`` functions).
    ``KIND_FIELDS`` lists the fields each kind reads.
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
    """The three learner specs used by cross-fitting: propensity, quantile
    and outcome regression.

    The ``regression`` spec fits both the outcome mean and, for continuous
    outcomes, the adversarial regression, which :func:`fit_rho` builds as
    the mean/tail mixture; the estimator therefore collapses to plain AIPW
    at ``lam == 1``.  A spec whose kind its role does not accept
    (``ROLE_KINDS``) raises :class:`ParameterError`.
    """

    propensity: LearnerSpec
    quantile: LearnerSpec
    regression: LearnerSpec

    def __post_init__(self):
        for role, kinds in ROLE_KINDS.items():
            kind = getattr(self, role).kind
            if kind not in kinds:
                raise ParameterError(f"the {role} learner cannot be of kind {kind!r}; that role accepts {kinds}")


def check_regression_kind(spec: LearnerSpec, outcome_kind) -> None:
    """Raise :class:`ParameterError` unless ``spec`` can fit an outcome
    regression for outcomes of ``outcome_kind``: a kind the regression role
    accepts, and ``logistic`` only for a binary outcome."""
    if spec.kind not in ROLE_KINDS["regression"]:
        raise ParameterError(f"learner kind {spec.kind!r} cannot fit an outcome regression")
    outcome_kind = OutcomeKind(outcome_kind)
    if spec.kind == "logistic" and outcome_kind is not OutcomeKind.BINARY:
        raise ParameterError(f"logistic outcome regression needs a binary outcome, not a {outcome_kind.value} one")


def default_bundle(outcome_kind) -> LearnerBundle:
    """Built-in defaults: logistic propensity, pinball quantiles, ridge
    (continuous) or logistic (binary) outcome regression."""
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


# Module-level and bound with functools.partial, not closures: a predictor
# built on them pickles, so a fit made in a pool worker comes back whole.
def _predict_constant(value: float, xnew: np.ndarray) -> np.ndarray:
    return np.full(np.atleast_2d(xnew).shape[0], value)


def _predict_standardized(
    expansion: str, center: np.ndarray, scale: np.ndarray, w: np.ndarray, xnew: np.ndarray
) -> np.ndarray:
    return ((_design(xnew, expansion) - center) / scale) @ w


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
        predict = partial(_predict_constant, float(target.mean()))
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
    if spec.kind not in ROLE_KINDS["propensity"]:
        raise ParameterError(f"learner kind {spec.kind!r} cannot fit a propensity model")
    return _fit(data, rows, z, spec, ())


def clip_propensity(value, epsilon: float):
    """Clamp propensities into ``[epsilon, 1 - epsilon]``."""
    epsilon = check_epsilon(epsilon)
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


# A step goes this share of the way to the boundary (quantreg's ``beta``).
_BOUNDARY_SHARE = 0.99995


def _step_length(pairs) -> float:
    """The largest ``t <= 1`` keeping every ``v + t * dv`` positive, times
    ``_BOUNDARY_SHARE``.  Entries with ``v == 0`` are skipped, not divided by:
    a zero ``z`` or ``w`` never has a negative step."""
    worst = 0.0
    for v, dv in pairs:
        live = v > 0.0
        worst = max(worst, float(np.max(-dv[live] / v[live], initial=0.0)))
    return 1.0 if worst <= _BOUNDARY_SHARE else _BOUNDARY_SHARE / worst


def _frisch_newton(
    f: np.ndarray, y: np.ndarray, alpha: float, start: np.ndarray, resid: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, float, int]:
    """One level of :func:`_pinball_weights`, started at the least-squares
    weights ``start`` with residuals ``resid``: the weights, the relative
    duality gap they reach and the Newton steps taken, at most ``max_iter``."""
    n = y.size
    # Primal x with slack s = 1 - x; dual weights beta with w - z = y - f @ beta.
    x = np.full(n, 1.0 - alpha)
    s = np.full(n, alpha)
    beta = start
    z = np.maximum(-resid, 0.0)
    w = np.maximum(resid, 0.0)
    # A zero residual starts both strictly inside, with w - z still equal to it.
    z[resid == 0.0] = w[resid == 0.0] = 1e-3
    gap = np.inf
    steps = 0
    try:
        while steps < max_iter and gap > tol:
            steps += 1
            q = 1.0 / (z / x + w / s)
            gram = (f.T * q) @ f

            def newton(v):
                d_beta = np.linalg.solve(gram, f.T @ (q * v))
                return d_beta, q * (v - f @ d_beta)

            # The affine-scaling step, or, when it cannot be taken whole,
            # Mehrotra's centred step with the second-order correction.
            d_beta, dx = newton(w - z)
            dz = -z * (1.0 + dx / x)
            dw = -w * (1.0 - dx / s)
            fp = _step_length(((x, dx), (s, -dx)))
            fd = _step_length(((z, dz), (w, dw)))
            if min(fp, fd) < 1.0:
                mu = x @ z + s @ w
                after = (z + fd * dz) @ (x + fp * dx) + (w + fd * dw) @ (s - fp * dx)
                mu *= (after / mu) ** 3 / (2 * n)
                dxdz = dx * dz / x
                dsdw = -dx * dw / s
                d_beta, dx = newton(w - z + mu * (1.0 / x - 1.0 / s) - dxdz + dsdw)
                dz = mu / x - z - dxdz - z * dx / x
                dw = mu / s - w - dsdw + w * dx / s
                fp = _step_length(((x, dx), (s, -dx)))
                fd = _step_length(((z, dz), (w, dw)))
            x = x + fp * dx
            s = s - fp * dx
            beta = beta + fd * d_beta
            z = z + fd * dz
            w = w + fd * dw
            # y'x - (1 - alpha) y'1, the dual objective: a lower bound on the pinball loss.
            gap = (x @ z + s @ w) / (1.0 + abs(y @ (x - (1.0 - alpha))))
    except np.linalg.LinAlgError:
        pass  # singular normal equations: report the gap reached
    return beta, gap, steps


def _pinball_weights(f: np.ndarray, y: np.ndarray, levels: np.ndarray, spec: LearnerSpec) -> np.ndarray:
    """Exact linear quantile regressions of ``y`` on ``f``, one weight row per level.

    Each level solves the dual of Koenker & Bassett's linear program,
    ``max y'x`` subject to ``f'x = (1 - alpha) f'1`` and ``0 <= x <= 1``, by
    the Frisch-Newton primal-dual interior-point method with Mehrotra's
    corrector (Portnoy & Koenker 1997; quantreg's ``rq.fit.fnb``).  The
    weights are the multipliers of the equality constraints, and each
    Newton step solves the ``p x p`` normal equations ``f' diag(q) f``.  A
    level stops once its duality gap ``x'z + s'w``, over ``1 + |dual
    objective|``, is at most ``spec.tol``, and raises
    :class:`ConvergenceError` when ``spec.max_iter`` steps do not get it
    there.  The excess pinball loss of the weights is at most that gap.

    Columns that are linear combinations of others (``x`` and ``x**2`` of a
    0/1 covariate) would make the normal equations singular, so every level
    fits the independent columns that one pivoted QR picks and gives the
    others weight 0.  The levels share only that choice and the
    least-squares start, neither of which depends on the level, so each
    row has the bits of a fit of its level alone.
    """
    n, p = f.shape
    r, pivots = scipy.linalg.qr(f, mode="r", pivoting=True)
    r = np.abs(np.diag(r))
    keep = np.sort(pivots[: np.count_nonzero(r > r[0] * max(n, p) * np.finfo(float).eps)])
    f = f[:, keep]
    start = np.linalg.lstsq(f, y, rcond=None)[0]
    resid = y - f @ start
    out = np.zeros((levels.size, p))
    for level, alpha in enumerate(levels):
        beta, gap, steps = _frisch_newton(f, y, alpha, start, resid, spec.max_iter, spec.tol)
        out[level, keep] = beta
        if not gap <= spec.tol:
            raise ConvergenceError(
                f"pinball fit at level {float(alpha)!r} stopped at relative duality gap {gap:.3g} "
                f"after {steps} of {spec.max_iter} Newton steps, above tol {spec.tol!r}",
                last_iterate=out[level],
            )
    return out


def fit_quantile(
    data: Dataset, rows: np.ndarray, arm: int, alpha: float | Sequence[float], spec: LearnerSpec
) -> FittedPredictor | list[FittedPredictor]:
    """Fit conditional quantile models on the arm subset of ``rows``.

    ``alpha`` is one level in (0, 1), which returns one
    :class:`FittedPredictor`, or a 1-D sequence of levels, which returns a
    list with one predictor per level, in order.  Each predictor of a
    sequence equals the fit of its level alone, bit for bit.

    ``pinball_linear`` minimizes the pinball (check) loss over linear
    models exactly: each level is a linear program, solved by the
    interior-point method of :func:`_pinball_weights` on the standardised
    design, which is built once and shared by the levels.  A level whose
    relative duality gap is still above ``spec.tol`` after
    ``spec.max_iter`` Newton steps raises :class:`ConvergenceError`;
    ``spec.regularization`` is not used.  ``constant`` returns the
    empirical quantile of the arm's outcomes.  ``oracle_injection`` wraps
    ``inject(X, arm, alpha) -> values``.

    The ``pinball_linear`` and ``constant`` predictors hold module-level
    functions over plain arrays, so they pickle: the cross-fitting sweep
    runs whole ``pinball_linear`` fits on the package's worker pool
    (:func:`~msmbounds.core.fork_map`) and gets these predictors back.
    """
    levels = np.asarray(alpha, dtype=float)
    if levels.ndim > 1 or levels.size == 0:
        raise ParameterError(f"quantile levels must be one value or a nonempty 1-D sequence, got {alpha!r}")
    bad = levels[~((0.0 < levels) & (levels < 1.0))]
    if bad.size:
        raise ParameterError(f"quantile level must lie in (0, 1), got {float(bad[0])!r}")
    if arm not in (0, 1):
        raise ParameterError(f"arm must be 0 or 1, got {arm!r}")
    if spec.kind not in ROLE_KINDS["quantile"]:
        raise ParameterError(f"learner kind {spec.kind!r} cannot fit a quantile model")
    levels = levels.reshape(-1)
    if spec.kind == "oracle_injection":
        fits = [_fit(data, rows, None, spec, (arm, float(a))) for a in levels]
        return fits[0] if np.ndim(alpha) == 0 else fits
    sub = _arm_rows(data, rows, arm)
    y = data.outcome[sub]
    if spec.kind == "constant":
        dist = DiscreteDist(y, np.full(y.size, 1.0 / y.size))
        predicts = [partial(_predict_constant, empirical_quantile(dist, a)) for a in levels]
    else:
        f, center, scale = _standardize(_design_of(data, spec.feature_expansion)[sub])
        predicts = [
            partial(_predict_standardized, spec.feature_expansion, center, scale, w)
            for w in _pinball_weights(f, y, levels, spec)
        ]
    fits = [FittedPredictor(kind=spec.kind, predict=predict, n_train=sub.size) for predict in predicts]
    return fits[0] if np.ndim(alpha) == 0 else fits


def fit_mean(data: Dataset, rows: np.ndarray, arm: int, spec: LearnerSpec) -> FittedPredictor:
    """Fit a conditional-mean model for the outcome on the arm subset.

    ``ridge`` is the closed-form penalized least-squares fit; ``logistic``
    fits a binary outcome only and predicts in (0, 1); ``constant`` returns
    the arm's sample mean; ``oracle_injection`` wraps
    ``inject(X, arm) -> values``.
    """
    if arm not in (0, 1):
        raise ParameterError(f"arm must be 0 or 1, got {arm!r}")
    check_regression_kind(spec, data.outcome_kind)
    if spec.kind == "oracle_injection":
        return _fit(data, rows, None, spec, (arm,))
    sub = _arm_rows(data, rows, arm)
    return _fit(data, sub, data.outcome[sub], spec, ())


def fit_rho(
    data: Dataset,
    rows: np.ndarray,
    arm: int,
    q_hat: FittedPredictor,
    params: SensitivityParams,
    side: str,
    spec: LearnerSpec,
    mu_model: FittedPredictor | None = None,
) -> FittedPredictor:
    """Fit the adversarial-regression nuisance from an estimated quantile.

    The adversarial regression is the conditional mean of the transformed
    outcome (:func:`~msmbounds.cvar.transformed_outcome`), which is
    ``mu / lam + (1 - 1/lam) * tail`` with ``tail`` the conditional mean of
    ``q + {y - q}_side / (1 - tau)``.  This fits the outcome mean and the
    tail as two regressions and returns their mixture.  Both kinds it
    accepts, ``ridge`` and ``constant``, are linear in their target, so the
    mixture is the regression of the transformed outcome itself up to
    rounding.  At ``lam == 1`` the tail's weight is zero, so no tail
    regression is fit and the mean regression is returned as is.  The mean
    regression does not depend on ``lam`` or ``side``, so a caller that
    already holds ``fit_mean(data, rows, arm, spec)`` passes it as
    ``mu_model`` instead of having it refit here.  The caller is
    responsible for ``q_hat`` (and ``mu_model``) respecting the
    cross-fitting plan.  ``oracle_injection`` wraps
    ``inject(X, arm, side) -> values``.
    """
    if side not in ("+", "-"):
        raise ParameterError(f"side must be '+' or '-', got {side!r}")
    # The tail target is continuous whatever the outcome, so logistic cannot fit it.
    check_regression_kind(spec, OutcomeKind.CONTINUOUS)
    if spec.kind == "oracle_injection":
        return _fit(data, rows, None, spec, (arm, side))
    sub = _arm_rows(data, rows, arm)
    if mu_model is None:
        mu_model = fit_mean(data, rows, arm, spec)
    if params.lam == 1.0:
        # The tail's mixture weight 1 - 1/lam is zero: nothing to fit.
        return mu_model
    y = data.outcome[sub]
    q_vals = np.asarray(q_hat.predict(data.covariates[sub]), dtype=float)
    resid = y - q_vals
    part = np.maximum(resid, 0.0) if side == "+" else np.minimum(resid, 0.0)
    tail_target = q_vals + part / (1.0 - params.tau)
    tail_model = _fit(data, sub, tail_target, spec, ())
    lam_inv = 1.0 / params.lam

    def predict(xnew: np.ndarray) -> np.ndarray:
        return lam_inv * mu_model.predict(xnew) + (1.0 - lam_inv) * tail_model.predict(xnew)

    return FittedPredictor(kind=spec.kind, predict=predict, n_train=sub.size)


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
