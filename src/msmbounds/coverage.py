"""Benchmark simulators, ground truth, and the coverage harness.

Two built-in generative processes share a five-dimensional uniform
covariate and a logistic propensity with an interaction and a
threshold term; one draws a Bernoulli outcome, the other a heteroscedastic
normal outcome.  Neither outcome law depends on the treatment, so the true
effect is zero while the sharp bounds spread with the sensitivity level.
Their population sharp bounds are computed by piecewise Gauss-Legendre
quadrature (nodes split at every kink of the integrand), with closed-form
conditional tail moments for the normal case.

A finite discrete process (:class:`DiscreteDGP`, behind the
``custom_discrete`` spec) is sampled by :func:`sample_dataset`, and its
sharp bounds come from :func:`sharp_bound_oracle`: greedy reweighting of
each conditional outcome law in the likelihood-ratio box, with no
quantile formula, so it checks the quantile-based estimates independently.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DataError,
    Dataset,
    DiscreteDist,
    Estimand,
    HarnessError,
    MsmBoundsError,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    _check_count,
    _check_integer,
    _check_side,
    _float_array,
    _readonly,
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
from .learners import LearnerBundle, check_regression_kind, default_bundle

__all__ = [
    "GenerativeSpec",
    "simulate",
    "DiscreteDGP",
    "greedy_extreme_mean",
    "sharp_bound_oracle",
    "sample_dataset",
    "true_sharp_bounds",
    "ReplicationRecord",
    "CoverageCell",
    "CoverageReport",
    "monte_carlo_coverage",
]

BENCHMARK_KINDS = ("benchmark_binary", "benchmark_continuous")


@dataclass(frozen=True)
class GenerativeSpec:
    """Names a data-generating process for simulation and ground truth.

    The two benchmark kinds are parameter-free; ``custom_discrete``
    carries an explicit finite DGP.
    """

    kind: str
    dgp: DiscreteDGP | None = None

    def __post_init__(self):
        if self.kind not in (*BENCHMARK_KINDS, "custom_discrete"):
            raise ParameterError(
                f"unknown generative spec {self.kind!r}; expected one of "
                f"{(*BENCHMARK_KINDS, 'custom_discrete')}"
            )
        if self.kind == "custom_discrete" and self.dgp is None:
            raise ParameterError("custom_discrete requires a DiscreteDGP")
        if self.kind in BENCHMARK_KINDS and self.dgp is not None:
            raise ParameterError(f"{self.kind} is parameter-free; drop the dgp argument")

    def outcome_kind(self) -> OutcomeKind:
        """The outcome kind of every dataset :func:`simulate` draws from this process."""
        if self.kind == "custom_discrete":
            return self.dgp.outcome_kind()
        return OutcomeKind.BINARY if self.kind == "benchmark_binary" else OutcomeKind.CONTINUOUS


def _e_of(x1, x2, x3):
    from scipy.special import expit

    return expit(-(x1 + 0.5 * (x2 > 0.0) + 0.5 * x2 * x3))


def _mu_of(x1, x2, x3):
    from scipy.special import expit

    return expit(-(0.5 * x1 + x2 + 0.25 * x2 * x3))


def _outcome_location(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.where(x[:, 0] >= 0.0, 1.0, -1.0) + x[:, 1] + x[:, 1] * x[:, 2]


def _outcome_scale(x: np.ndarray) -> np.ndarray:
    return 1.0 + x[:, 3] ** 2


def simulate(spec: GenerativeSpec, n: int, seed) -> Dataset:
    """Seeded draw of ``n`` rows from the named process.

    Benchmark kinds: covariates uniform on [-1, 1]^5, treatment Bernoulli
    with success probability ``expit(-(x1 + 0.5*1{x2 > 0} + 0.5*x2*x3))``;
    the binary outcome is Bernoulli with mean
    ``expit(-(0.5*x1 + x2 + 0.25*x2*x3))`` and the continuous outcome is
    normal with location ``2*sign(x1) + x2 + x2*x3`` and standard deviation
    ``1 + x4**2``, both independent of the treatment.
    """
    _check_count(n, "sample size")
    if spec.kind == "custom_discrete":
        return sample_dataset(spec.dgp, n, seed)
    rng = np.random.default_rng(check_seed(seed))
    x = rng.uniform(-1.0, 1.0, size=(n, 5))
    z = (rng.random(n) < _e_of(x[:, 0], x[:, 1], x[:, 2])).astype(int)
    if spec.kind == "benchmark_binary":
        y = (rng.random(n) < _mu_of(x[:, 0], x[:, 1], x[:, 2])).astype(float)
    else:
        y = _outcome_location(x) + _outcome_scale(x) * rng.standard_normal(n)
    return Dataset(covariates=x, treatment=z, outcome=y, outcome_kind=spec.outcome_kind())


# ---------------------------------------------------------------------------
# Finite discrete processes: exact sharp bounds and sampling.


@dataclass(frozen=True)
class DiscreteDGP:
    """A finite-support joint law over (covariate level, treatment, outcome).

    ``outcomes[level][arm]`` is the conditional outcome law.  Levels embed
    into covariate space via ``level_values`` (default: a single column
    holding the level index), which is how sampled datasets and injected
    nuisance functions line up.
    """

    level_probs: np.ndarray  # (L,)
    propensity: np.ndarray  # (L,) values in (0, 1)
    outcomes: tuple[tuple[DiscreteDist, DiscreteDist], ...]  # [level][arm]
    level_values: np.ndarray | None = None  # (L, d)

    def __post_init__(self):
        probs = _float_array(self.level_probs, "level_probs").ravel()
        e = _float_array(self.propensity, "propensity").ravel()
        if probs.size < 1 or probs.size != e.size or len(self.outcomes) != probs.size:
            raise DataError("level probabilities, propensities, and outcome laws must align")
        if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > 1e-12:
            raise DataError("level probabilities must be nonnegative and sum to 1 within 1e-12")
        if np.any(e <= 0.0) or np.any(e >= 1.0):
            raise DataError("propensities must lie strictly inside (0, 1)")
        outcomes = tuple(tuple(pair) for pair in self.outcomes)
        for pair in outcomes:
            if len(pair) != 2 or not all(isinstance(d, DiscreteDist) for d in pair):
                raise DataError("each level needs one outcome law per arm")
        values = self.level_values
        if values is None:
            values = np.arange(probs.size, dtype=float)[:, None]
        values = np.atleast_2d(_float_array(values, "level_values"))
        if values.shape[0] != probs.size:
            raise DataError(f"level_values must have {probs.size} rows, got {values.shape}")
        if np.unique(values, axis=0).shape[0] != probs.size:
            raise DataError("level_values rows must differ, so that a covariate row names one level")
        for name, arr in (("level_probs", probs), ("propensity", e), ("level_values", values)):
            object.__setattr__(self, name, _readonly(arr))
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def n_levels(self) -> int:
        return self.level_probs.size

    def outcome_kind(self) -> OutcomeKind:
        atoms = np.concatenate([d.atoms for pair in self.outcomes for d in pair])
        binary = np.all((atoms == 0.0) | (atoms == 1.0))
        return OutcomeKind.BINARY if binary else OutcomeKind.CONTINUOUS


def _greedy_box_fill(dist: DiscreteDist, base: np.ndarray, room: np.ndarray, side: str) -> float:
    """The extremal mean of ``dist``'s atoms over weights in the box
    ``[base, base + room]`` with total mass one: each atom starts at
    ``base`` and the remaining mass is poured into ``room`` over the atoms
    from the largest up (``+``) or the smallest up (``-``).  A box with one
    budget constraint, so the greedy fill is exact; ties in atom values
    are merged by the constructor, making the order deterministic."""
    _check_side(side)
    order = np.arange(dist.atoms.size - 1, -1, -1) if side == "+" else np.arange(dist.atoms.size)
    room_sorted = room[order]
    upto = np.cumsum(room_sorted)
    budget = 1.0 - float(base.sum())
    extra = np.clip(budget - (upto - room_sorted), 0.0, room_sorted)
    return float((base[order] + extra) @ dist.atoms[order])


def greedy_extreme_mean(dist: DiscreteDist, params: SensitivityParams, side: str) -> float:
    """Extremal mean under a likelihood-ratio box, by direct greedy allocation.

    Maximizes (``+``) or minimizes (``-``) ``E_G[Y]`` over laws G with
    ``dG/dF`` in ``[1/lam, lam]`` and total mass one.  Every atom starts at
    ratio ``1/lam`` and the remaining budget is poured greedily into the
    sorted atoms up to ratio ``lam``.  No quantiles are involved, which is
    what makes this an oracle for the quantile-based computations.
    """
    base = dist.weights / params.lam
    return _greedy_box_fill(dist, base, dist.weights * params.lam - base, side)


def _mean_bounds(dgp: DiscreteDGP, params: SensitivityParams, arm: int) -> tuple[float, float]:
    # Sharp bounds on E[Y(arm)] by greedy reweighting of each level's
    # conditional law, aggregated through the observed-arm identity.
    p = dgp.level_probs
    e = dgp.propensity
    obs_w = e if arm == 1 else 1.0 - e
    cf_w = 1.0 - obs_w
    lower = 0.0
    upper = 0.0
    for lvl in range(dgp.n_levels):
        dist = dgp.outcomes[lvl][arm]
        mu = dist.mean()
        upper += p[lvl] * (obs_w[lvl] * mu + cf_w[lvl] * greedy_extreme_mean(dist, params, "+"))
        lower += p[lvl] * (obs_w[lvl] * mu + cf_w[lvl] * greedy_extreme_mean(dist, params, "-"))
    return lower, upper


def _observed_moments(dgp: DiscreteDGP) -> tuple[float, float]:
    # (E[Y], E[Z]) under the observed law.
    p = dgp.level_probs
    e = dgp.propensity
    ey = 0.0
    for lvl in range(dgp.n_levels):
        ey += p[lvl] * (
            e[lvl] * dgp.outcomes[lvl][1].mean() + (1.0 - e[lvl]) * dgp.outcomes[lvl][0].mean()
        )
    return ey, float(p @ e)


def sharp_bound_oracle(
    dgp: DiscreteDGP, params: SensitivityParams, estimand: Estimand
) -> tuple[float, float]:
    """Sharp lower/upper bounds for the estimand, via greedy reweighting."""
    estimand = Estimand(estimand)
    mean1, mean0 = _mean_bounds(dgp, params, 1), _mean_bounds(dgp, params, 0)
    return _estimand_bounds(estimand, mean1, mean0, *_observed_moments(dgp))


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


def sample_dataset(dgp: DiscreteDGP, n: int, seed) -> Dataset:
    """Draw a seeded i.i.d. sample of (covariates, treatment, outcome)."""
    _check_count(n, "sample size")
    rng = np.random.default_rng(check_seed(seed))
    levels = rng.choice(dgp.n_levels, size=n, p=dgp.level_probs)
    z = (rng.random(n) < dgp.propensity[levels]).astype(int)
    y = np.empty(n)
    for lvl in range(dgp.n_levels):
        for arm in (0, 1):
            mask = (levels == lvl) & (z == arm)
            count = int(mask.sum())
            if count:
                dist = dgp.outcomes[lvl][arm]
                y[mask] = rng.choice(dist.atoms, size=count, p=dist.weights)
    return Dataset(
        covariates=dgp.level_values[levels],
        treatment=z,
        outcome=y,
        outcome_kind=dgp.outcome_kind(),
    )


# ---------------------------------------------------------------------------
# Quadrature ground truth for the benchmark processes.


@functools.cache
def _grid() -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes and weights on [-1, 1], and the ``(m, 1, 1)``
    (x2, x3) nodes of X uniform on [-1, 1]^3 with their ``(m,)`` weights;
    x2 is split at 0, where the propensity's threshold term jumps."""
    gx, gw = np.polynomial.legendre.leggauss(32)
    x2 = np.repeat(np.concatenate([0.5 * gx - 0.5, 0.5 * gx + 0.5]), gx.size)[:, None, None]
    x3 = np.tile(gx, 2 * gx.size)[:, None, None]
    return gx, gw, x2, x3, np.outer(np.concatenate([0.5 * gw, 0.5 * gw]), gw).ravel()


def _x1_rule(breaks: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], float]]:
    """The ``(m, pieces, nodes)`` x1 nodes of the pieces that the sorted
    ``(m, pieces - 1)`` ``breaks`` in [-1, 1] (integrand kinks) cut [-1, 1] into,
    and the map from f's values there to E[f(X1, X2, X3)], X uniform on [-1, 1]^3."""
    gx, gw, _, _, w23 = _grid()
    ends = np.ones((breaks.shape[0], 1))
    edges = np.hstack([-ends, breaks, ends])
    a1 = edges[:, :-1, None]
    b1 = edges[:, 1:, None]
    w1 = 0.5 * (b1 - a1) * gw
    return 0.5 * (b1 - a1) * gx + 0.5 * (a1 + b1), lambda values: float(w23 @ np.sum(w1 * values, axis=(1, 2))) / 8.0


def _mean_over_covariates(fn) -> float:
    """E[fn(X1, X2, X3)] for X uniform on [-1, 1]^3 and ``fn`` smooth in x1;
    ``fn`` gets x1 of shape ``(m, 1, nodes)`` and x2, x3 of shape ``(m, 1, 1)``."""
    _, _, x2, x3, _ = _grid()
    x1, mean = _x1_rule(np.empty((x2.shape[0], 0)))
    return mean(fn(x1, x2, x3))


@functools.cache
def _lambda_free_means() -> tuple[float, float, float]:
    """E[e(X)], E[mu(X)] and E[e(X) mu(X)]: the truth terms free of lambda."""
    return (
        _mean_over_covariates(_e_of),
        _mean_over_covariates(_mu_of),
        _mean_over_covariates(lambda x1, x2, x3: _e_of(x1, x2, x3) * _mu_of(x1, x2, x3)),
    )


def _rho_means(lam: float, sign: float) -> tuple[float, float]:
    """E[(1 - e(X)) rho(X)] and E[e(X) rho(X)] for the exact adversarial
    regression rho of the lower (``sign`` -1) or upper (+1) side."""
    _, _, x2, x3, _ = _grid()
    # rho (binary_nuisances' rho_minus or rho_plus) is piecewise linear in
    # mu, with a kink where mu crosses tau (lower side) or 1 - tau (upper
    # side): in x1, where the outcome logit equals -sign * log(lam).
    kink = 2.0 * (sign * np.log(lam) - x2 - 0.25 * x2 * x3)
    x1, mean = _x1_rule(np.clip(kink, -1.0, 1.0).reshape(-1, 1))
    treated = _e_of(x1, x2, x3)
    rho = _mu_of(x1, x2, x3)
    del x1
    if sign < 0:
        np.maximum(1.0 - lam + rho * lam, rho / lam, out=rho)
    else:
        np.minimum(1.0 - 1.0 / lam + rho / lam, rho * lam, out=rho)
    return mean((1.0 - treated) * rho), mean(treated * rho)


def _binary_sharp_bounds(params: SensitivityParams, estimand: Estimand) -> tuple[float, float]:
    e, mu, e_mu = _lambda_free_means()
    (control_lo, treated_lo), (control_hi, treated_hi) = (_rho_means(params.lam, sign) for sign in (-1.0, 1.0))
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
    """Population sharp bounds for the named process.

    Benchmark kinds use deterministic quadrature of the identification
    formulas with the exact nuisances (error budget well under 1e-6);
    ``custom_discrete`` defers to the finite-support oracle.
    """
    estimand = Estimand(estimand)
    if spec.kind == "custom_discrete":
        return sharp_bound_oracle(spec.dgp, params, estimand)
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
    CPU, or serially where ``fork`` does not exist or the caller is a
    daemonic process or itself a pool worker.  Inside a worker the
    continuous sweep's quantile solves run serially, so the study never
    starts a second pool.  Per-replication RNG streams are spawned from
    the master seed, so results are reproducible and the same bit for bit
    on either path.  A replication that raises :class:`MsmBoundsError`
    fails at every lambda: its records keep the :class:`ReplicationRecord`
    defaults (NaN estimates, not covered) and hold the error text.  If
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
