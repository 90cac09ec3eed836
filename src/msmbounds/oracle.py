"""Ground-truth machinery for finite discrete data-generating processes.

A :class:`DiscreteDGP` fully describes the joint law of (covariate level,
treatment, outcome) on finite support, so sharp bounds and exact nuisances
can be computed without estimation error.  The sharp-bound oracle works by
direct greedy reweighting of the conditional outcome laws under the
likelihood-ratio box constraint, deliberately avoiding the quantile-based
formulas so it can serve as an independent check on them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DataError,
    Dataset,
    Estimand,
    NuisanceSet,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    _check_integer,
    _readonly,
    check_seed,
)
from .cvar import DiscreteDist, _check_side, _greedy_box_fill, cvar, empirical_quantile, transformed_mean
from .estimator import influence_scores
from .learners import LearnerBundle, LearnerSpec

__all__ = [
    "DiscreteDGP",
    "true_nuisances",
    "greedy_extreme_mean",
    "sharp_bound_oracle",
    "adversarial_propensity",
    "population_bound",
    "sample_dataset",
    "injection_bundle",
    "transformed_mean_nuisances",
]


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
        probs = np.asarray(self.level_probs, dtype=float).ravel()
        e = np.asarray(self.propensity, dtype=float).ravel()
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
        values = np.atleast_2d(np.asarray(values, dtype=float))
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


def true_nuisances(dgp: DiscreteDGP, params: SensitivityParams) -> NuisanceSet:
    """Exact nuisances, one row per level: the true propensity, quantiles
    from the conditional CDF and adversarial regressions as the
    mean/tail-CVaR mixture."""
    n_levels = dgp.n_levels
    mu = np.empty((n_levels, 2))
    q_plus = np.empty((n_levels, 2))
    q_minus = np.empty((n_levels, 2))
    rho_plus = np.empty((n_levels, 2))
    rho_minus = np.empty((n_levels, 2))
    lam_inv = 1.0 / params.lam
    for lvl in range(n_levels):
        for arm in (0, 1):
            dist = dgp.outcomes[lvl][arm]
            mu[lvl, arm] = dist.mean()
            q_plus[lvl, arm] = empirical_quantile(dist, params.tau)
            q_minus[lvl, arm] = empirical_quantile(dist, 1.0 - params.tau)
            rho_plus[lvl, arm] = lam_inv * mu[lvl, arm] + (1.0 - lam_inv) * cvar(dist, params, "+")
            rho_minus[lvl, arm] = lam_inv * mu[lvl, arm] + (1.0 - lam_inv) * cvar(dist, params, "-")
    return NuisanceSet(
        e_hat=dgp.propensity,
        q_plus=q_plus,
        q_minus=q_minus,
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        mu=mu,
    )


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


def adversarial_propensity(
    dgp: DiscreteDGP, params: SensitivityParams, level: int, y: float, side: str
) -> float:
    """Worst-case arm-1 propensity attaining the sharp bound on E[Y(1)].

    Away from the tail cutoff the treatment odds are multiplied by
    ``1/lam`` (outcomes past the cutoff) or ``lam`` (before it); the atom
    sitting exactly on the cutoff receives the unique multiplier in
    ``[1/lam, lam]`` that makes ``E[Z / e_adv(X, Y) | X] = 1`` hold
    exactly, solved in closed form from the conditional pmf.
    """
    _check_side(side)
    if not 0 <= level < dgp.n_levels:
        raise ParameterError(f"level must index one of {dgp.n_levels} levels, got {level!r}")
    lam = params.lam
    e = float(dgp.propensity[level])
    dist = dgp.outcomes[level][1]
    cut = empirical_quantile(dist, params.tau if side == "+" else 1.0 - params.tau)
    # Inverse odds multipliers (likelihood ratios of the counterfactual law).
    if side == "+":
        ratio_above, ratio_below = lam, 1.0 / lam
    else:
        ratio_above, ratio_below = 1.0 / lam, lam
    y = float(y)
    if y > cut:
        ratio = ratio_above
    elif y < cut:
        ratio = ratio_below
    else:
        mass_above = float(dist.weights[dist.atoms > cut].sum())
        mass_below = float(dist.weights[dist.atoms < cut].sum())
        mass_at = 1.0 - mass_above - mass_below
        if mass_at <= 0.0:
            raise RuntimeError("internal error: cutoff atom carries no mass")
        ratio = (1.0 - mass_above * ratio_above - mass_below * ratio_below) / mass_at
        if not (1.0 / lam - 1e-9 <= ratio <= lam + 1e-9):
            raise RuntimeError(
                f"internal error: boundary multiplier {ratio!r} escaped [1/lam, lam]"
            )
    odds = (e / (1.0 - e)) / ratio
    return odds / (1.0 + odds)


def _check_levels(dgp: DiscreteDGP, nus: NuisanceSet) -> None:
    if nus.n != dgp.n_levels:
        raise ParameterError(f"nuisance table has {nus.n} rows but the DGP has {dgp.n_levels} levels")


def population_bound(
    dgp: DiscreteDGP,
    params: SensitivityParams,
    estimand: Estimand,
    side: str,
    eta_override: NuisanceSet | None = None,
) -> float:
    """Exact expectation of the influence values over the DGP's joint pmf.

    Uses the true nuisances unless ``eta_override`` supplies (possibly
    misspecified) replacements, one row per level and ``mu`` unread, which
    is how the conservativeness of the bound under wrong nuisances is
    checked without sampling error.
    """
    estimand = Estimand(estimand)
    if estimand is Estimand.ATT:
        raise ParameterError("population evaluation supports the mean and effect estimands")
    nus = eta_override if eta_override is not None else true_nuisances(dgp, params)
    _check_levels(dgp, nus)
    levels = []
    zs = []
    ys = []
    ws = []
    for lvl in range(dgp.n_levels):
        p_lvl = dgp.level_probs[lvl]
        for arm in (0, 1):
            p_arm = dgp.propensity[lvl] if arm == 1 else 1.0 - dgp.propensity[lvl]
            dist = dgp.outcomes[lvl][arm]
            for atom, weight in zip(dist.atoms, dist.weights):
                levels.append(lvl)
                zs.append(arm)
                ys.append(atom)
                ws.append(p_lvl * p_arm * weight)
    levels = np.asarray(levels, dtype=int)
    data = Dataset(
        covariates=dgp.level_values[levels],
        treatment=np.asarray(zs, dtype=int),
        outcome=np.asarray(ys, dtype=float),
        outcome_kind=OutcomeKind.CONTINUOUS,
    )
    eta = NuisanceSet(
        e_hat=nus.e_hat[levels],
        q_plus=nus.q_plus[levels],
        q_minus=nus.q_minus[levels],
        rho_plus=nus.rho_plus[levels],
        rho_minus=nus.rho_minus[levels],
    )
    phi = influence_scores(data, eta, params, estimand, side)
    return float(np.asarray(ws) @ phi)


def sample_dataset(dgp: DiscreteDGP, n: int, seed) -> Dataset:
    """Draw a seeded i.i.d. sample of (covariates, treatment, outcome)."""
    if _check_integer(n, "sample size") < 1:
        raise ParameterError(f"sample size must be >= 1, got {n!r}")
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


def _levels_from_covariates(dgp: DiscreteDGP, x: np.ndarray) -> np.ndarray:
    # The level whose ``level_values`` row equals each covariate row exactly.
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] == dgp.level_values.shape[1]:
        match = np.all(x[:, None, :] == dgp.level_values, axis=2)
        if np.all(match.any(axis=1)):
            return match.argmax(axis=1)
    raise ParameterError("covariates do not index this DGP's levels")


def injection_bundle(dgp: DiscreteDGP, nus: NuisanceSet) -> LearnerBundle:
    """A learner bundle that injects per-level nuisance values by lookup.

    ``nus`` has one row per level, ``mu`` included, and each covariate
    row is looked up as the ``dgp.level_values`` row it equals exactly.
    Replace fields of ``nus`` via ``dataclasses.replace`` to inject
    deliberately misspecified components.  The regression slot answers
    ``inject(X, arm)`` with ``nus.mu``, from which a binary process's
    closed forms derive the rest, and ``inject(X, arm, side)`` with
    ``nus.rho_plus`` / ``nus.rho_minus``.
    """
    _check_levels(dgp, nus)
    if nus.mu is None:
        raise ParameterError("injection needs the outcome mean, but the nuisance table has no mu")

    def e_inject(x):
        return nus.e_hat[_levels_from_covariates(dgp, x)]

    def q_inject(x, arm, alpha):
        arr = nus.q_plus if alpha >= 0.5 else nus.q_minus
        return arr[_levels_from_covariates(dgp, x), arm]

    def regression_inject(x, arm, side=None):
        arr = nus.mu if side is None else nus.rho_plus if side == "+" else nus.rho_minus
        return arr[_levels_from_covariates(dgp, x), arm]

    return LearnerBundle(
        propensity=LearnerSpec(kind="oracle_injection", inject=e_inject),
        quantile=LearnerSpec(kind="oracle_injection", inject=q_inject),
        regression=LearnerSpec(kind="oracle_injection", inject=regression_inject),
    )


def transformed_mean_nuisances(
    dgp: DiscreteDGP, params: SensitivityParams, q_values: np.ndarray
) -> NuisanceSet:
    """Nuisances whose regressions are the exact transformed-outcome means
    for an arbitrary (possibly wrong) quantile table ``q_values``.

    ``q_values`` has shape (L, 2).  The returned quantile tables equal
    ``q_values`` on both sides and the regression tables are the exact
    conditional means of the transformation built from them, which is the
    configuration whose population bound stays valid even when the
    quantiles are wrong.
    """
    q = np.asarray(q_values, dtype=float)
    if q.shape != (dgp.n_levels, 2):
        raise ParameterError(f"q_values must have shape ({dgp.n_levels}, 2), got {q.shape}")
    base = true_nuisances(dgp, params)
    rho_plus = np.empty_like(q)
    rho_minus = np.empty_like(q)
    for lvl in range(dgp.n_levels):
        for arm in (0, 1):
            dist = dgp.outcomes[lvl][arm]
            rho_plus[lvl, arm] = transformed_mean(dist, q[lvl, arm], params, "+")
            rho_minus[lvl, arm] = transformed_mean(dist, q[lvl, arm], params, "-")
    return replace(base, q_plus=q, q_minus=q, rho_plus=rho_plus, rho_minus=rho_minus)
