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
design, built once per dataset and expansion.  Each predictor is one map
(:class:`FittedPredictor`); a linear one reads rows of that design, so
the cross-fitting sweep (:meth:`FittedPredictor.predict_rows`) builds no
design after the first, and ``predict(x)`` builds the rows it is given.

All fits are deterministic functions of their inputs: closed forms or
iterative solvers with no internal randomness.  A fit runs in the
process that calls it.  For a continuous outcome with ``pinball_linear``
quantiles and no ``oracle_injection`` role, the cross-fitting sweep
calls every fit (propensity, quantile, mean and tail) on forked worker
processes (:func:`~msmbounds.core.fork_map`), which send back the
predictors, since those pickle; every other sweep calls them in the
calling process.  Every fit and prediction runs the bundled OpenBLAS on
one thread and restores the caller's count
(:func:`~msmbounds.core._one_blas_thread`), so its bits do not depend on
the number of usable CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import (
    ConvergenceError,
    Dataset,
    DiscreteDist,
    FitError,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    _check_count,
    _check_real,
    _check_side,
    _one_blas_thread,
    _scipy_linalg,
    check_epsilon,
    empirical_quantile,
)

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

# Every learner kind, and each field besides ``kind`` that it reads, with
# that field's default.  A spec rejects any other kind, and any field its
# kind does not read; the README's table of kinds lists this table.
KIND_DEFAULTS = {
    "logistic": {"regularization": 1e-2, "max_iter": 500, "tol": 1e-8, "feature_expansion": "interactions"},
    "ridge": {"regularization": 1e-2, "feature_expansion": "interactions"},
    "pinball_linear": {"max_iter": 500, "tol": 1e-8, "feature_expansion": "interactions"},
    "constant": {},
    "oracle_injection": {"inject": None},
}
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
# Marks a field not given.  None cannot: a field its kind reads rejects None as a value.
_NOT_GIVEN = object()


@dataclass(frozen=True)
class LearnerSpec:
    """Configuration for one nuisance learner.

    ``kind`` (str) names the learner; ``ROLE_KINDS`` lists the kinds each
    role accepts.  ``KIND_DEFAULTS`` lists the fields each kind reads and
    their defaults: a field the kind reads takes its default when not
    given, and one it does not read is ``None`` and raises
    :class:`ParameterError` if given any other value, so
    ``dataclasses.replace`` of a field the kind reads works for every kind.
    ``regularization`` (real, >= 0) is the ridge penalty weight of
    ``logistic`` and ``ridge``.  ``max_iter`` (int, >= 1) is the Newton-step
    budget and ``tol`` (real, > 0) the convergence tolerance of the
    iterative fits: the step or gradient size of ``logistic``, the relative
    duality gap of ``pinball_linear``.  The spec holds the two reals as
    floats and ``max_iter`` as an int.
    ``feature_expansion`` (str) controls the linear kinds' design matrix:
    ``raw`` uses the covariates as-is, ``interactions`` appends all
    pairwise products (including squares) so bilinear signal is within the
    linear span; the intercept-plus-expansion design is built once per
    dataset and shared by every linear fit.  ``inject`` is the callable
    ``oracle_injection`` wraps; its signature depends on the fitting
    problem (see the ``fit_*`` functions).
    """

    kind: str
    regularization: float | None = _NOT_GIVEN
    max_iter: int | None = _NOT_GIVEN
    tol: float | None = _NOT_GIVEN
    feature_expansion: str | None = _NOT_GIVEN
    inject: Callable | None = _NOT_GIVEN

    def __post_init__(self):
        # A kind that is not a string (a JSON list) may not hash, so it is never looked up.
        if not isinstance(self.kind, str) or self.kind not in KIND_DEFAULTS:
            raise ParameterError(f"unknown learner kind {self.kind!r}; expected one of {tuple(KIND_DEFAULTS)}")
        reads = KIND_DEFAULTS[self.kind]
        for name in (field.name for field in fields(self)[1:]):
            if getattr(self, name) is _NOT_GIVEN:
                object.__setattr__(self, name, reads.get(name))
            # None is what an unread field holds, so dataclasses.replace may pass it back.
            elif name not in reads and getattr(self, name) is not None:
                raise ParameterError(f"field {name!r} is not read by kind {self.kind!r}, which reads {list(reads)}")
        # Values may come from a JSON file: a bool or a string is no number.
        if "max_iter" in reads:
            object.__setattr__(self, "max_iter", _check_count(self.max_iter, "max_iter"))
        for name, rule, ok in (("regularization", ">= 0", lambda v: v >= 0.0), ("tol", "> 0", lambda v: v > 0.0)):
            if name in reads:
                value = _check_real(getattr(self, name), lambda v: np.isfinite(v) and ok(v), f"{name} must be {rule}")
                object.__setattr__(self, name, value)
        if "feature_expansion" in reads and self.feature_expansion not in _EXPANSIONS:
            raise ParameterError(f"unknown feature expansion {self.feature_expansion!r}; expected one of {_EXPANSIONS}")
        if "inject" in reads and not callable(self.inject):
            raise ParameterError("oracle_injection requires an inject callable")


@dataclass(frozen=True)
class LearnerBundle:
    """The three learner specs used by cross-fitting: propensity, quantile
    and outcome regression.

    The ``regression`` spec fits the outcome mean in every fold and, for
    continuous outcomes, the adversarial regression as the mean/tail
    mixture of :func:`fit_rho`, so the estimator collapses to plain AIPW
    at ``lam == 1``; an injected one answers ``inject(X, arm)`` and
    ``inject(X, arm, side)``.  A spec whose kind its role does not accept
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
    """An immutable evaluation function from covariates to predictions.

    ``fn`` is the predictor's one map.  A linear model (``logistic``,
    ``ridge``, ``pinball_linear`` and :func:`fit_rho`'s mixture of linear
    models of one expansion) carries its feature ``expansion``, and ``fn``
    reads rows of the intercept-plus-expansion design; other kinds leave
    ``expansion`` ``None``, and ``fn`` reads covariate rows.
    :meth:`predict` builds the rows ``fn`` reads and :meth:`predict_rows`
    slices them from a dataset's shared design (:func:`_design_of`).  A
    predictor pickles unless it wraps an injected function.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    n_train: int
    expansion: str | None = None

    @_one_blas_thread()
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions at the covariate rows ``x``."""
        return self.fn(x if self.expansion is None else _design(x, self.expansion))

    def predict_rows(self, data: Dataset, rows: np.ndarray) -> np.ndarray:
        """``predict(data.covariates[rows])``, bit for bit: a linear model
        reads ``_design_of(data, expansion)[rows]``, which holds the values
        and shape of the design ``predict`` would build."""
        return _SharedRows(data, rows).predict(self)


class _SharedRows:
    """Rows of a dataset, and what fits and predictions on them share.

    The lambda sweep reads the same rows many times.  A fold-arm job fits
    both sides' tail models at every grid point on the arm's training
    rows, and each fit reads their design rows, those rows standardised
    for its quantile model and the ridge normal-equation matrix over them.
    At each grid point the quantile models at both levels standardise a
    fold's test rows.  This object builds each once and holds it while it
    lives.  In the sweep that is one fold-arm job for the training rows,
    whose quantile models at all of the grid's levels share one
    standardisation, and one fold at one grid point for the test rows, so
    no test-row array outlives its point.  Every result has the bits of
    the unshared computation.
    """

    def __init__(self, data: Dataset, rows: np.ndarray):
        self.data = data
        self.rows = rows
        self._grams = {}
        self._designs = {}
        self._standardized = {}

    def design(self, expansion: str) -> np.ndarray:
        """``_design_of(data, expansion)[rows]``."""
        if expansion not in self._designs:
            self._designs[expansion] = _design_of(self.data, expansion)[self.rows]
        return self._designs[expansion]

    def gram(self, expansion: str, reg: float) -> np.ndarray:
        """``_ridge_gram(design(expansion), reg)``."""
        if (expansion, reg) not in self._grams:
            self._grams[expansion, reg] = _ridge_gram(self.design(expansion), reg)
        return self._grams[expansion, reg]

    @_one_blas_thread()
    def predict(self, model: FittedPredictor) -> np.ndarray:
        """``model.predict_rows(data, rows)``."""
        if model.expansion is None:
            return model.fn(self.data.covariates[self.rows])
        f = self.design(model.expansion)
        fn = model.fn
        if not (isinstance(fn, partial) and fn.func is _standardized_map):
            return fn(f)
        # The levels of one quantile fit share their centre and scale arrays.
        center, scale, w = fn.args
        key = (id(center), id(scale))
        if key not in self._standardized:
            # Held with the result, so the ids are not reused while it lives.
            self._standardized[key] = (center, scale, _standardized(f, center, scale))
        return _linear_map(w, self._standardized[key][2])


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
def _constant_map(value: float, xnew: np.ndarray) -> np.ndarray:
    return np.full(np.atleast_2d(xnew).shape[0], value)


def _linear_map(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    return f @ w


def _logistic_map(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    from scipy.special import expit

    return expit(f @ w)


def _standardized(f: np.ndarray, center: np.ndarray, scale: np.ndarray) -> np.ndarray:
    g = f - center
    g /= scale  # in place: the same bits as (f - center) / scale, one temporary fewer
    return g


def _standardized_map(center: np.ndarray, scale: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    return _standardized(f, center, scale) @ w


def _mixture(lam_inv: float, mu: Callable, tail: Callable, v: np.ndarray) -> np.ndarray:
    return lam_inv * mu(v) + (1.0 - lam_inv) * tail(v)


def _penalty(p: int, reg: float) -> np.ndarray:
    """Each design column's ridge penalty: ``reg``, floored at 1e-10."""
    pen = np.full(p, max(reg, 1e-10))
    pen[0] = 0.0  # intercept unpenalized
    return pen


def _ridge_gram(f: np.ndarray, reg: float) -> np.ndarray:
    """The normal-equation matrix of a ridge fit on the design rows ``f``."""
    n, p = f.shape
    return f.T @ f / n + np.diag(_penalty(p, reg))


def _solve_ridge(f: np.ndarray, t: np.ndarray, reg: float, gram: np.ndarray | None = None) -> np.ndarray:
    """The ridge weights of ``t`` on ``f``; ``gram``, if given, is ``_ridge_gram(f, reg)``."""
    a = _ridge_gram(f, reg) if gram is None else gram
    b = f.T @ t / f.shape[0]
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def _logistic_nll(eta: np.ndarray, w: np.ndarray, t: np.ndarray, pen: np.ndarray) -> float:
    """Penalised mean negative log-likelihood at ``w``, given ``eta = f @ w``."""
    # np.add.reduce(v) / v.size is np.mean(v), bit for bit, without its wrappers.
    return float(np.add.reduce(np.logaddexp(0.0, eta) - t * eta) / eta.size + 0.5 * (pen @ (w * w)))


def _fit_logistic(f: np.ndarray, t: np.ndarray, spec: LearnerSpec) -> np.ndarray:
    from scipy.special import expit

    n, p = f.shape
    pen = _penalty(p, spec.regularization)
    pen_diag = np.diag(pen)
    w = np.zeros(p)
    eta = f @ w
    nll = _logistic_nll(eta, w, t, pen)
    for _ in range(spec.max_iter):
        prob = expit(eta)
        grad = f.T @ (prob - t) / n + pen * w
        if np.abs(grad).max() <= spec.tol:
            return w
        weight = prob * (1.0 - prob) + 1e-12
        hess = (f.T * weight) @ f / n + pen_diag
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
        moved = step * np.abs(direction).max()
        if moved <= spec.tol:
            return w
    raise ConvergenceError(
        f"logistic fit did not converge in {spec.max_iter} Newton iterations", last_iterate=w
    )


@_one_blas_thread()
def _fit(
    data: Dataset,
    rows: np.ndarray,
    target: np.ndarray | None,
    spec: LearnerSpec,
    inject_args: tuple,
    shared: _SharedRows | None = None,
) -> FittedPredictor:
    """The one learner dispatch: regress ``target`` (one value per row of
    ``rows``) on those rows' covariates.  ``constant`` predicts its mean,
    ``ridge`` and ``logistic`` fit rows of the shared :func:`_design_of`, and
    ``oracle_injection`` wraps ``inject(X, *inject_args)``.  Callers check the
    kind.  ``shared``, if given, holds ``rows`` and the design rows and ridge
    normal-equation matrix built from them."""
    expansion = spec.feature_expansion
    n_train = int(np.size(rows))
    if spec.kind == "oracle_injection":
        fn = lambda xnew: np.asarray(spec.inject(np.atleast_2d(xnew), *inject_args), dtype=float)
        return FittedPredictor(spec.kind, fn, n_train)
    if spec.kind == "constant":
        return FittedPredictor(spec.kind, partial(_constant_map, float(target.mean())), n_train)
    if shared is None:
        shared = _SharedRows(data, rows)
    f = shared.design(expansion)
    if spec.kind == "logistic":
        fn = partial(_logistic_map, _fit_logistic(f, target, spec))
    else:
        gram = shared.gram(expansion, spec.regularization)
        fn = partial(_linear_map, _solve_ridge(f, target, spec.regularization, gram))
    return FittedPredictor(spec.kind, fn, n_train, expansion)


def fit_propensity(data: Dataset, rows: np.ndarray, spec: LearnerSpec) -> FittedPredictor:
    """Fit a treatment-probability model on the given rows.

    The training rows must contain both treatment values; an all-treated
    or all-control subset raises :class:`FitError`.  Supported kinds:
    ``logistic``, ``constant`` (sample treated share), and
    ``oracle_injection`` with signature ``inject(X) -> probabilities``.
    """
    rows = _train_rows(data, rows)
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


def _train_rows(data: Dataset, rows, arm: int | None = None) -> np.ndarray:
    """The one check of a fit's training ``rows``, 1-D integer row indices
    in ``[0, n)`` (a boolean mask is not), and of its ``arm``, 0 or 1."""
    if arm is not None and arm not in (0, 1):
        raise ParameterError(f"arm must be 0 or 1, got {arm!r}")
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ParameterError(f"training rows must be 1-D integer row indices, got shape {rows.shape} of {rows.dtype}")
    outside = rows[(rows < 0) | (rows >= data.n)]
    if outside.size:
        raise ParameterError(f"training row index {int(outside[0])} is outside [0, {data.n})")
    return rows


def _arm_rows(data: Dataset, rows: np.ndarray, arm: int) -> np.ndarray:
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
    return _standardized(f, center, scale), center, scale


# A step goes this share of the way to the boundary (quantreg's ``beta``).
_BOUNDARY_SHARE = 0.99995


def _step_length(pairs) -> float:
    """The largest ``t <= 1`` keeping every ``v + t * dv`` positive, times
    ``_BOUNDARY_SHARE``.  Entries with ``v == 0`` are skipped, not divided by:
    a zero ``z`` or ``w`` never has a negative step."""
    worst = 0.0
    for v, dv in pairs:
        # Masking copies both arrays, so it is kept for a ``v`` with an entry not above 0.
        if v.min() > 0.0:
            ratio = dv / v
        else:
            live = v > 0.0
            ratio = dv[live] / v[live]
        # -min(dv / v) is max(-dv / v) exactly; a NaN is skipped either way.
        worst = max(worst, -float(ratio.min(initial=0.0)))
    return _bounded_step(worst)


def _bounded_step(worst: float) -> float:
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
            # The left factor is f.T * q, with its layout and bits, built
            # without that form's short strided inner loop.
            gram = np.einsum("ij,i->ij", f, q).T @ f

            def newton(v):
                d_beta = np.linalg.solve(gram, f.T @ (q * v))
                return d_beta, q * (v - f @ d_beta)

            # The affine-scaling step, or, when it cannot be taken whole,
            # Mehrotra's centred step with the second-order correction.
            d_beta, dx = newton(w - z)
            dx_x = dx / x
            dx_s = dx / s
            dz = -z * (1.0 + dx_x)
            dw = -w * (1.0 - dx_s)
            if x.min() > 0.0 and s.min() > 0.0:
                # _step_length's ratios -dx / x and dx / s, bit for bit.
                fp = _bounded_step(max(max(0.0, float(-dx_x.min())), float(dx_s.max())))
            else:
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

    This is the one caller of ``scipy.linalg`` (:func:`_scipy_linalg`),
    loaded before OpenBLAS is pinned, so the pin covers what it maps.
    """
    qr = _scipy_linalg().qr
    with _one_blas_thread():
        n, p = f.shape
        r, pivots = qr(f, mode="r", pivoting=True)
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


def _load_quantile_solver(bundle: LearnerBundle, outcome_kind) -> None:
    """Load ``scipy.linalg`` here if a sweep of ``outcome_kind`` outcomes
    with ``bundle`` solves pinball programs: a continuous outcome and a
    ``pinball_linear`` quantile learner.  A caller calls this before it
    forks workers that run such a sweep, so that no worker imports it.  A
    binary sweep fits no quantile and never loads it."""
    if OutcomeKind(outcome_kind) is OutcomeKind.CONTINUOUS and bundle.quantile.kind == "pinball_linear":
        _scipy_linalg()


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
    ``spec.max_iter`` Newton steps raises :class:`ConvergenceError`.
    The program is unpenalized: a ``pinball_linear`` spec holds no
    ``regularization``, and giving it one raises :class:`ParameterError`.
    ``constant`` returns the empirical quantile of the arm's outcomes.
    ``oracle_injection`` wraps ``inject(X, arm, alpha) -> values``.

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
    rows = _train_rows(data, rows, arm)
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
        fits = [
            FittedPredictor(spec.kind, partial(_constant_map, empirical_quantile(dist, a)), sub.size)
            for a in levels
        ]
    else:
        expansion = spec.feature_expansion
        f, center, scale = _standardize(_design_of(data, expansion)[sub])
        fits = [
            FittedPredictor(spec.kind, partial(_standardized_map, center, scale, w), sub.size, expansion)
            for w in _pinball_weights(f, y, levels, spec)
        ]
    return fits[0] if np.ndim(alpha) == 0 else fits


def fit_mean(data: Dataset, rows: np.ndarray, arm: int, spec: LearnerSpec) -> FittedPredictor:
    """Fit a conditional-mean model for the outcome on the arm subset.

    ``ridge`` is the closed-form penalized least-squares fit; ``logistic``
    fits a binary outcome only and predicts in (0, 1); ``constant`` returns
    the arm's sample mean; ``oracle_injection`` wraps
    ``inject(X, arm) -> values``.
    """
    rows = _train_rows(data, rows, arm)
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
    shared: _SharedRows | None = None,
) -> FittedPredictor:
    """Fit the adversarial-regression nuisance from an estimated quantile.

    The adversarial regression is the conditional mean of the transformed
    outcome ``y / lam + (1 - 1/lam) * (q + {y - q}_side / (1 - tau))``
    (the odds-weighting kernel, :func:`~msmbounds.estimator.weighting_kernel`,
    in another form), which is ``mu / lam + (1 - 1/lam) * tail`` with
    ``tail`` the conditional mean of ``q + {y - q}_side / (1 - tau)``.
    This fits the outcome mean and the tail as two regressions and
    returns their mixture.  Both kinds it
    accepts, ``ridge`` and ``constant``, are linear in their target, so the
    mixture is the regression of the transformed outcome itself up to
    rounding.  At ``lam == 1`` the tail's weight is zero, so no tail
    regression is fit and the mean regression is returned as is.  The mean
    regression does not depend on ``lam`` or ``side``, so a caller that
    already holds ``fit_mean(data, rows, arm, spec)`` passes it as
    ``mu_model`` instead of having it refit here.  The caller is
    responsible for ``q_hat`` (and ``mu_model``) respecting the
    cross-fitting plan.  The mixture is one map over the rows both models
    read, so a ``mu_model`` of another feature expansion than the tail
    fit raises :class:`ParameterError`.  ``oracle_injection`` wraps
    ``inject(X, arm, side) -> values`` and fits no mean.

    ``shared`` follows ``mu_model``, and a direct caller leaves it
    ``None``.  The lambda sweep passes every call of one fold and arm, both
    sides at every grid point, one private ``_SharedRows`` of the arm's
    training rows.  So the rows are not found again, and their design
    rows, those rows standardised for the quantile models of one batched
    fit and the ridge normal-equation matrix are built once for the whole
    grid.  The result has the bits of a call without it.
    """
    _check_side(side)
    # The tail target is continuous whatever the outcome, so logistic cannot fit it.
    check_regression_kind(spec, OutcomeKind.CONTINUOUS)
    rows = _train_rows(data, rows, arm)
    if spec.kind == "oracle_injection":
        return _fit(data, rows, None, spec, (arm, side))
    if shared is None:
        shared = _SharedRows(data, _arm_rows(data, rows, arm))
    sub = shared.rows
    if mu_model is None:
        mu_model = fit_mean(data, rows, arm, spec)
    if params.lam == 1.0:
        # The tail's mixture weight 1 - 1/lam is zero: nothing to fit.
        return mu_model
    y = data.outcome[sub]
    q_vals = np.asarray(shared.predict(q_hat), dtype=float)
    resid = y - q_vals
    part = np.maximum(resid, 0.0) if side == "+" else np.minimum(resid, 0.0)
    tail_target = q_vals + part / (1.0 - params.tau)
    tail_model = _fit(data, sub, tail_target, spec, (), shared)
    if mu_model.expansion != tail_model.expansion:
        raise ParameterError(f"mu_model expansion {mu_model.expansion!r} differs from the tail fit's {tail_model.expansion!r}")
    fn = partial(_mixture, 1.0 / params.lam, mu_model.fn, tail_model.fn)
    return FittedPredictor(spec.kind, fn, sub.size, tail_model.expansion)


def check_binary_mean(mu: np.ndarray) -> None:
    """Raise :class:`ParameterError` unless every value lies in [0, 1]."""
    if not np.all(np.isfinite(mu)) or np.any(mu < 0.0) or np.any(mu > 1.0):
        raise ParameterError("binary outcome regression values must lie in [0, 1]")


def _binary_rho(mu: np.ndarray, lam: float, side: str, out: np.ndarray | None = None) -> np.ndarray:
    """The adversarial regression of a 0/1 outcome with conditional mean
    ``mu``, on ``side`` (see :func:`binary_nuisances`); ``out`` may be ``mu``.
    The estimator's nuisances and the benchmark truth both take it here."""
    if side == "+":
        return np.minimum(1.0 - 1.0 / lam + mu / lam, mu * lam, out=out)
    return np.maximum(1.0 - lam + mu * lam, mu / lam, out=out)


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
    q_plus = (mu > 1.0 - params.tau).astype(float)
    q_minus = (mu > params.tau).astype(float)
    rho_plus = _binary_rho(mu, params.lam, "+")
    rho_minus = _binary_rho(mu, params.lam, "-")
    if mu.ndim == 0:
        return float(q_plus), float(q_minus), float(rho_plus), float(rho_minus)
    return q_plus, q_minus, rho_plus, rho_minus
