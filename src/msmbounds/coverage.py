"""Benchmark simulators, ground truth, and the coverage harness.

Two built-in generative processes share a five-dimensional uniform
covariate and a logistic propensity with an interaction and a
threshold term; one draws a Bernoulli outcome, the other a heteroscedastic
normal outcome.  Neither outcome law depends on the treatment, so the true
effect is zero while the sharp bounds spread with the sensitivity level.
Their population sharp bounds are computed by piecewise Gauss-Legendre
quadrature (nodes split at every kink of the integrand), with closed-form
conditional tail moments for the normal case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import (
    Dataset,
    Estimand,
    HarnessError,
    MsmBoundsError,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    _check_count,
    _check_integer,
    check_alpha,
    check_epsilon,
    check_lambda_grid,
    check_seed,
    fork_map,
    sensitivity_params,
)
# crossfit_nuisances is not called here.  It stays bound in this module
# because bench/test_bench.py checks that the benchmark's tracer restores
# this binding.
from .estimator import _check_fold_count, crossfit_nuisances, sensitivity_curve, split_folds  # noqa: F401
from .learners import LearnerBundle, _binary_rho, check_regression_kind, default_bundle

__all__ = [
    "GenerativeSpec",
    "simulate",
    "true_sharp_bounds",
    "ReplicationRecord",
    "CoverageCell",
    "CoverageReport",
    "monte_carlo_coverage",
]

BENCHMARK_KINDS = ("benchmark_binary", "benchmark_continuous")


@dataclass(frozen=True)
class GenerativeSpec:
    """Names one of the two benchmark processes, which take no parameters,
    for simulation and ground truth."""

    kind: str

    def __post_init__(self):
        if self.kind not in BENCHMARK_KINDS:
            raise ParameterError(f"unknown generative spec {self.kind!r}; expected one of {BENCHMARK_KINDS}")

    def outcome_kind(self) -> OutcomeKind:
        """The outcome kind of every dataset :func:`simulate` draws from this process."""
        return OutcomeKind.BINARY if self.kind == "benchmark_binary" else OutcomeKind.CONTINUOUS


def _e_logit(x1, x2, x3):
    return -(x1 + 0.5 * (x2 > 0.0) + 0.5 * x2 * x3)


def _mu_logit(x1, x2, x3):
    return -(0.5 * x1 + x2 + 0.25 * x2 * x3)


def _e_of(x1, x2, x3):
    from scipy.special import expit

    return expit(_e_logit(x1, x2, x3))


def _mu_of(x1, x2, x3):
    from scipy.special import expit

    return expit(_mu_logit(x1, x2, x3))


def _below_expit(u: np.ndarray, logit: np.ndarray) -> np.ndarray:
    """``u < scipy.special.expit(logit)``, bit for bit, without scipy.

    scipy's ``expit(a)`` is ``1 / (1 + exp(-a))`` with libm's ``exp``;
    numpy's vectorised ``exp`` can differ from it by an ulp, which moves
    ``p`` by a few ulps.  So only a row whose ``u`` lies within 64 ulps of
    numpy's ``p`` is decided again with ``math.exp``, which is libm's.
    Where libm's ``exp(-a)`` overflows, ``expit`` is 0.
    """
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-logit))
    below = u < p
    for i in np.flatnonzero(np.abs(u - p) <= 64.0 * np.spacing(p)).tolist():
        try:
            exact = 1.0 / (1.0 + math.exp(-logit[i]))
        except OverflowError:
            exact = 0.0
        below[i] = u[i] < exact
    return below


def _outcome_location(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.where(x[:, 0] >= 0.0, 1.0, -1.0) + x[:, 1] + x[:, 1] * x[:, 2]


def _outcome_scale(x: np.ndarray) -> np.ndarray:
    return 1.0 + x[:, 3] ** 2


def simulate(spec: GenerativeSpec, n: int, seed) -> Dataset:
    """Seeded draw of ``n`` rows from the named process.

    Covariates uniform on [-1, 1]^5, treatment Bernoulli with success
    probability ``expit(-(x1 + 0.5*1{x2 > 0} + 0.5*x2*x3))``; the binary
    outcome is Bernoulli with mean ``expit(-(0.5*x1 + x2 + 0.25*x2*x3))``
    and the continuous outcome is normal with location
    ``2*sign(x1) + x2 + x2*x3`` and standard deviation ``1 + x4**2``, both
    independent of the treatment.  Each 0/1 column is ``u < expit(logit)``
    for a uniform draw ``u``, decided by :func:`_below_expit` exactly as
    scipy's ``expit`` would decide it, so a draw loads no scipy.
    """
    _check_count(n, "sample size")
    rng = np.random.default_rng(check_seed(seed))
    x = rng.uniform(-1.0, 1.0, size=(n, 5))
    z = _below_expit(rng.random(n), _e_logit(x[:, 0], x[:, 1], x[:, 2])).astype(int)
    if spec.kind == "benchmark_binary":
        y = _below_expit(rng.random(n), _mu_logit(x[:, 0], x[:, 1], x[:, 2])).astype(float)
    else:
        y = _outcome_location(x) + _outcome_scale(x) * rng.standard_normal(n)
    return Dataset(covariates=x, treatment=z, outcome=y, outcome_kind=spec.outcome_kind())


# ---------------------------------------------------------------------------
# Quadrature ground truth for the benchmark processes.


def _estimand_bounds(estimand: Estimand, mean1, mean0, ey, ez) -> tuple[float, float]:
    """Sharp (lower, upper) bounds on ``estimand`` from the sharp bounds on
    the arm means, ``mean1`` and ``mean0`` (each ``(lower, upper)``), and
    the observed ``E[Y]`` and ``E[Z]``.  Effect bounds subtract the
    arm-wise mean bounds; treated-effect bounds use the ratio identity
    ``(E[Y] - psi0_opposite) / E[Z]``."""
    if estimand is Estimand.MEAN1:
        return mean1
    if estimand is Estimand.MEAN0:
        return mean0
    if estimand is Estimand.ATE:
        return mean1[0] - mean0[1], mean1[1] - mean0[0]
    return (ey - mean0[1]) / ez, (ey - mean0[0]) / ez


@functools.cache
def _grid() -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes and weights on [-1, 1], and the ``(m, 1, 1)``
    (x2, x3) nodes of X uniform on [-1, 1]^3 with their ``(m,)`` weights;
    x2 is split at 0, where the propensity's threshold term jumps."""
    gx, gw = np.polynomial.legendre.leggauss(32)
    x2 = np.repeat(np.concatenate([0.5 * gx - 0.5, 0.5 * gx + 0.5]), gx.size)[:, None, None]
    x3 = np.tile(gx, 2 * gx.size)[:, None, None]
    return gx, gw, x2, x3, np.outer(np.concatenate([0.5 * gw, 0.5 * gw]), gw).ravel()


# (x2, x3) nodes integrated over x1 at once: 128 of the 2,048 keep each
# (block, pieces, x1 nodes) array near 0.1 MB.
_BLOCK = 128


def _means_over_covariates(fn, breaks: np.ndarray | None = None) -> tuple[float, ...]:
    """E[f(X1, X2, X3)], X uniform on [-1, 1]^3, for each f whose values
    ``fn`` returns, f smooth in x1 between the sorted ``(m, pieces - 1)``
    ``breaks`` in [-1, 1] (integrand kinks; none if not given).

    ``fn`` gets a block of the (x2, x3) nodes: x1 of shape ``(b, pieces,
    nodes)``, the nodes of the pieces the breaks cut [-1, 1] into, and x2,
    x3 of shape ``(b, 1, 1)``.  Each block's values are summed over x1 row
    by row, and one ``w23`` dot over all the rows takes each mean, so the
    means have the bits of one pass over every node at once."""
    gx, gw, x2, x3, w23 = _grid()
    m = x2.shape[0]
    if breaks is None:
        breaks = np.empty((m, 0))
    blocks = []
    for start in range(0, m, _BLOCK):
        block = slice(start, start + _BLOCK)
        cuts = breaks[block]
        ends = np.ones((cuts.shape[0], 1))
        edges = np.hstack([-ends, cuts, ends])
        a1 = edges[:, :-1, None]
        b1 = edges[:, 1:, None]
        w1 = 0.5 * (b1 - a1) * gw
        values = fn(0.5 * (b1 - a1) * gx + 0.5 * (a1 + b1), x2[block], x3[block])
        blocks.append([np.sum(w1 * value, axis=(1, 2)) for value in values])
    return tuple(float(w23 @ np.concatenate(row_sums)) / 8.0 for row_sums in zip(*blocks))


@functools.cache
def _lambda_free_means() -> tuple[float, float, float]:
    """E[e(X)], E[mu(X)] and E[e(X) mu(X)]: the truth terms free of lambda."""

    def values(x1, x2, x3):
        e, mu = _e_of(x1, x2, x3), _mu_of(x1, x2, x3)
        return e, mu, e * mu

    return _means_over_covariates(values)


def _rho_means(lam: float, side: str) -> tuple[float, float]:
    """E[(1 - e(X)) rho(X)] and E[e(X) rho(X)] for the exact adversarial
    regression rho of the lower (``side`` "-") or upper ("+") side."""
    _, _, x2, x3, _ = _grid()
    sign = 1.0 if side == "+" else -1.0
    # rho (binary_nuisances' rho_minus or rho_plus) is piecewise linear in
    # mu, with a kink where mu crosses tau (lower side) or 1 - tau (upper
    # side): in x1, where the outcome logit equals -sign * log(lam).
    kink = 2.0 * (sign * np.log(lam) - x2 - 0.25 * x2 * x3)

    def values(x1, x2, x3):
        treated = _e_of(x1, x2, x3)
        mu = _mu_of(x1, x2, x3)
        rho = _binary_rho(mu, lam, side, out=mu)
        return (1.0 - treated) * rho, treated * rho

    return _means_over_covariates(values, np.clip(kink, -1.0, 1.0).reshape(-1, 1))


def _binary_sharp_bounds(params: SensitivityParams, estimand: Estimand) -> tuple[float, float]:
    e, mu, e_mu = _lambda_free_means()
    (control_lo, treated_lo), (control_hi, treated_hi) = (_rho_means(params.lam, side) for side in "-+")
    mean1 = (e_mu + control_lo, e_mu + control_hi)
    mean0 = (mu - e_mu + treated_lo, mu - e_mu + treated_hi)
    # The outcome law does not depend on the treatment, so E[Y] = E[mu(X)].
    return _estimand_bounds(estimand, mean1, mean0, mu, e)


def _continuous_sharp_bounds(params: SensitivityParams, estimand: Estimand) -> tuple[float, float]:
    from scipy.special import ndtri

    # The outcome location integrates to zero and is independent of the
    # scale term, so each bound reduces to a tail coefficient times
    # E[scale] = 4/3 weighted by the relevant arm probability.
    # The standard normal density at the tau quantile, bit for bit as
    # scipy's norm.pdf(norm.ppf(tau)) computes it.  It is taken on a
    # one-element array, as norm.pdf does: numpy's exp of a scalar runs a
    # different loop, which can differ in the last bit.
    x = np.array([ndtri(params.tau)])
    density = float((np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi))[0])
    tail = (1.0 - 1.0 / params.lam) * density / (1.0 - params.tau)
    e_mean = _lambda_free_means()[0]
    scale_mean = 4.0 / 3.0
    spread1 = tail * (1.0 - e_mean) * scale_mean
    spread0 = tail * e_mean * scale_mean
    # E[Y] is zero.  It is passed as -0.0 so that at lam == 1 the ATT lower
    # truth, (E[Y] - spread0) / E[Z], is -0.0 like the other estimands' lower truths.
    return _estimand_bounds(estimand, (-spread1, spread1), (-spread0, spread0), -0.0, e_mean)


def true_sharp_bounds(
    spec: GenerativeSpec, params: SensitivityParams, estimand: Estimand
) -> tuple[float, float]:
    """Population sharp bounds for the named process, by deterministic
    quadrature of the identification formulas with the exact nuisances
    (error budget well under 1e-6).
    """
    estimand = Estimand(estimand)
    if spec.kind == "benchmark_binary":
        return _binary_sharp_bounds(params, estimand)
    return _continuous_sharp_bounds(params, estimand)


# ---------------------------------------------------------------------------
# Coverage harness.


@dataclass(frozen=True)
class ReplicationRecord:
    """One (replication, lambda) result row.  A failed replication's rows
    keep the defaults: NaN estimates, not covered, and the error text."""

    rep: int
    lam: float
    data_seed: int
    psi_lower: float = np.nan
    psi_upper: float = np.nan
    se_lower: float = np.nan
    se_upper: float = np.nan
    ci_lower: float = np.nan
    ci_upper: float = np.nan
    covered: bool = False
    error: str | None = None


@dataclass(frozen=True)
class CoverageCell:
    """Aggregates for one lambda value."""

    lam: float
    reps_ok: int
    reps_failed: int
    truth_lower: float
    truth_upper: float
    bias_lower: float
    bias_upper: float
    coverage: float
    avg_width: float


@dataclass(frozen=True)
class CoverageReport:
    spec_kind: str
    estimand: Estimand
    n: int
    k_folds: int
    alpha: float
    reps: int
    seed: int
    lambdas: tuple[float, ...]
    cells: tuple[CoverageCell, ...]
    records: tuple[ReplicationRecord, ...]

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec_kind,
            "estimand": self.estimand.value,
            "n": self.n,
            "folds": self.k_folds,
            "alpha": self.alpha,
            "reps": self.reps,
            "seed": self.seed,
            "lambdas": list(self.lambdas),
            "cells": [output_row(c) for c in self.cells],
        }


def output_row(record: ReplicationRecord | CoverageCell) -> dict:
    """A record's or a cell's fields, in order, as an output row, with
    ``lam`` written ``lambda``.  A failed replication's row holds NaN
    estimates, ``covered`` false and the error text."""
    return {("lambda" if key == "lam" else key): value for key, value in asdict(record).items()}


def monte_carlo_coverage(
    spec: GenerativeSpec,
    lambda_grid: Sequence[float],
    reps: int,
    n: int,
    bundle: LearnerBundle | None = None,
    k_folds: int = 5,
    alpha: float = 0.05,
    seed: int = 0,
    estimand: Estimand = Estimand.ATE,
    epsilon: float = 0.01,
) -> CoverageReport:
    """Estimate how often the two-sided Wald region covers the true sharp bounds.

    Each replication simulates a fresh dataset, fixes one fold plan, and
    runs :func:`~msmbounds.estimator.sensitivity_curve` over the whole
    lambda grid, so the propensity and outcome-mean models are fit once
    per fold and replication.  Coverage of a replication means
    ``ci_lower <= truth_lower`` and ``truth_upper <= ci_upper`` for the
    per-side ``alpha / 2`` Wald limits.  Replications run on forked worker
    processes through :func:`~msmbounds.core.fork_map`, one per usable
    CPU, or serially where only one CPU is usable, ``fork`` does not exist
    or the caller is a daemonic process or itself a pool worker.  Inside a
    worker every fit of the continuous sweep runs serially, so the study
    never starts a second pool.  The workers inherit ``scipy.special``, the
    one scipy module a study loads, from this process
    (:func:`~msmbounds.core.fork_map`), so none imports it.  Per-replication
    RNG streams are spawned from the master seed, so results are
    reproducible and the same bit for bit on either path.  A replication
    that raises :class:`MsmBoundsError` fails at every lambda: its records
    keep the :class:`ReplicationRecord` defaults (NaN estimates, not
    covered) and hold the error text.  If
    more than 1% of the replications fail the harness raises
    :class:`HarnessError`; otherwise each cell's statistics are taken over
    the replications that succeeded.  An argument out of its domain (the
    replication count, the sample size, ``alpha``, the fold count, the
    clip ``epsilon``, a seed that is not a non-negative integer, the
    estimand, the lambda grid, a ``logistic`` regression learner for a
    process whose outcome is not binary) raises
    :class:`ParameterError` before any truth is computed or any
    replication runs.
    """
    _check_count(reps, "replication count")
    alpha = check_alpha(alpha)
    k_folds = _check_fold_count(k_folds, _check_integer(n, "sample size"))
    epsilon = check_epsilon(epsilon)
    check_seed(_check_integer(seed, "seed"))  # an integer: the report records it
    estimand = Estimand(estimand)
    lams = check_lambda_grid(lambda_grid)
    if bundle is None:
        bundle = default_bundle(spec.outcome_kind())
    check_regression_kind(bundle.regression, spec.outcome_kind())

    truth = {lam: true_sharp_bounds(spec, sensitivity_params(lam), estimand) for lam in lams}
    children = np.random.SeedSequence(seed).spawn(reps)

    def run_rep(rep: int) -> list[ReplicationRecord]:
        state = children[rep].generate_state(2, dtype=np.uint64)
        data_seed = int(state[0])
        fold_seed = int(state[1])
        try:
            data = simulate(spec, n, data_seed)
            plan = split_folds(n, k_folds, fold_seed)
            rows = []
            for point in sensitivity_curve(data, lams, bundle, plan, estimand, alpha, epsilon):
                lam, est = point.params.lam, point.estimate
                t_lower, t_upper = truth[lam]
                rows.append(
                    ReplicationRecord(
                        rep=rep,
                        lam=lam,
                        data_seed=data_seed,
                        psi_lower=est.psi_lower,
                        psi_upper=est.psi_upper,
                        se_lower=est.se_lower,
                        se_upper=est.se_upper,
                        ci_lower=point.ci_lower,
                        ci_upper=point.ci_upper,
                        covered=bool(point.ci_lower <= t_lower and t_upper <= point.ci_upper),
                    )
                )
            return rows
        except MsmBoundsError as exc:
            return [ReplicationRecord(rep=rep, lam=lam, data_seed=data_seed, error=str(exc)) for lam in lams]

    # Forked workers inherit run_rep with its closure (truths, bundle,
    # injected callables), so nothing but rep indices and records is pickled.
    per_rep = fork_map(run_rep, range(reps))
    records = tuple(row for rows in per_rep for row in rows)

    failed_reps = {r.rep for r in records if r.error is not None}
    if len(failed_reps) > 0.01 * reps:
        raise HarnessError(
            f"{len(failed_reps)} of {reps} replications failed (more than 1%); "
            f"first error: {next(r.error for r in records if r.error is not None)}"
        )

    cells = []
    for lam in lams:
        ok = [r for r in records if r.lam == lam and r.error is None]
        t_lower, t_upper = truth[lam]
        # A replication fails at every lambda or none, and at most 1% failed: ``ok`` is never empty.
        cells.append(
            CoverageCell(
                lam=lam,
                reps_ok=len(ok),
                reps_failed=reps - len(ok),
                truth_lower=t_lower,
                truth_upper=t_upper,
                bias_lower=float(np.mean([r.psi_lower for r in ok])) - t_lower,
                bias_upper=float(np.mean([r.psi_upper for r in ok])) - t_upper,
                coverage=float(np.mean([r.covered for r in ok])),
                avg_width=float(np.mean([r.ci_upper - r.ci_lower for r in ok])),
            )
        )

    return CoverageReport(
        spec_kind=spec.kind,
        estimand=estimand,
        n=int(n),
        k_folds=k_folds,
        alpha=alpha,
        reps=int(reps),
        seed=int(seed),
        lambdas=tuple(lams),
        cells=tuple(cells),
        records=records,
    )
