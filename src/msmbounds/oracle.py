"""Ground-truth machinery for finite discrete data-generating processes.

A :class:`DiscreteDGP` fully describes the joint law of (covariate level,
treatment, outcome) on finite support, so its sharp bounds can be
computed without estimation error, and :func:`sample_dataset` draws from
it; a coverage study of ``GenerativeSpec("custom_discrete", dgp)`` uses
both.  The sharp-bound oracle works by direct greedy reweighting of the
conditional outcome laws under the likelihood-ratio box constraint,
deliberately avoiding the quantile-based formulas so it can serve as an
independent check on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DataError,
    Dataset,
    Estimand,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    _check_integer,
    _readonly,
    check_seed,
)
from .cvar import DiscreteDist, _greedy_box_fill

__all__ = [
    "DiscreteDGP",
    "greedy_extreme_mean",
    "sharp_bound_oracle",
    "sample_dataset",
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
