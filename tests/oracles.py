"""Exact reference computations that only the test suite runs.

A finite discrete process (:class:`DiscreteDGP`) is sampled by
:func:`sample_dataset`, and its sharp bounds come from
:func:`sharp_bound_oracle`: greedy reweighting of each conditional
outcome law in the likelihood-ratio box, with no quantile formula, so it
checks the quantile-based estimates independently.

The rest are independent routes to a quantity the package estimates: the
conditional value at risk and its greedy dual, the transformed outcome
and its exact mean, the exact nuisances of a :class:`DiscreteDGP`, the
worst-case propensity, the influence values in exact expectation, a
learner bundle that injects per-level nuisances, and the plain AIPW and
assumption-free estimates that the bounds reduce to at ``lam == 1`` and
as ``lam`` grows.  The pinball solver's earlier form is kept too, as the
reference its bits are checked against.  Import them as
``from oracles import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from msmbounds import (
    DataError,
    Dataset,
    DiscreteDist,
    Estimand,
    LearnerBundle,
    LearnerSpec,
    NuisanceSet,
    OutcomeKind,
    ParameterError,
    SensitivityParams,
    check_seed,
    empirical_quantile,
    influence_scores,
)
from msmbounds.core import _check_count, _check_side, _float_array, _readonly
from msmbounds.coverage import _estimand_bounds
from msmbounds.learners import _BOUNDARY_SHARE


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
# Distributional references.


def cvar(dist: DiscreteDist, params: SensitivityParams, side: str) -> float:
    """Conditional value at risk of the upper (``+``) or lower (``-``) tail.

    The upper tail is the quantile-based form
    ``Q + E[{Y - Q}_+] / (1 - tau)`` with ``Q`` the tau-level quantile; the
    lower tail mirrors it by negation, avoiding a second code path.
    """
    _check_side(side)
    if side == "-":
        return -cvar(DiscreteDist(-dist.atoms, dist.weights), params, "+")
    q = empirical_quantile(dist, params.tau)
    excess = float(dist.weights @ np.maximum(dist.atoms - q, 0.0))
    return q + excess / (1.0 - params.tau)


def cvar_dual_oracle(dist: DiscreteDist, params: SensitivityParams, side: str) -> float:
    """Solve the tail-reweighting problem directly by greedy allocation.

    Maximizes (``+``) or minimizes (``-``) the mean over distributions G
    with ``dG/dF <= 1/(1 - tau)``: a zero base, then the whole mass poured
    into the sorted atoms up to that cap.  An independent check of
    :func:`cvar`.
    """
    return _greedy_box_fill(dist, np.zeros(dist.atoms.size), dist.weights / (1.0 - params.tau), side)


def transformed_outcome(y, q, params: SensitivityParams, side: str):
    """The outcome transformation whose conditional mean is the adversarial regression.

    ``lam**-1 * y + (1 - lam**-1) * (q + {y - q}_s / (1 - tau))`` where
    ``{t}_+ = max(t, 0)`` and ``{t}_- = min(t, 0)``.  Accepts scalars or
    arrays (broadcasting).  Algebraically identical to
    :func:`msmbounds.weighting_kernel` for every ``(y, q)``.
    """
    _check_side(side)
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    resid = y - q
    part = np.maximum(resid, 0.0) if side == "+" else np.minimum(resid, 0.0)
    lam_inv = 1.0 / params.lam
    out = lam_inv * y + (1.0 - lam_inv) * (q + part / (1.0 - params.tau))
    return out if out.ndim else float(out)


def transformed_mean(dist: DiscreteDist, q: float, params: SensitivityParams, side: str) -> float:
    """Exact expectation of :func:`transformed_outcome` under ``dist``.

    This is the conditional mean of the transformed outcome built from a
    (possibly misspecified) quantile value ``q``.
    """
    vals = transformed_outcome(dist.atoms, q, params, side)
    return float(dist.weights @ vals)


# ---------------------------------------------------------------------------
# Exact nuisances and population values of a finite discrete process.


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


# ---------------------------------------------------------------------------
# Reference estimators.


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


# ---------------------------------------------------------------------------
# The interior-point solver as it was before its steps were made leaner,
# kept verbatim but for the names: the solver must return its bits.


def step_length(pairs) -> float:
    """The largest ``t <= 1`` keeping every ``v + t * dv`` positive, times
    ``_BOUNDARY_SHARE``.  Entries with ``v == 0`` are skipped, not divided by:
    a zero ``z`` or ``w`` never has a negative step."""
    worst = 0.0
    for v, dv in pairs:
        live = v > 0.0
        worst = max(worst, float(np.max(-dv[live] / v[live], initial=0.0)))
    return 1.0 if worst <= _BOUNDARY_SHARE else _BOUNDARY_SHARE / worst


def frisch_newton(
    f: np.ndarray, y: np.ndarray, alpha: float, start: np.ndarray, resid: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, float, int]:
    """One level of ``learners._pinball_weights``, started at the least-squares
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
            fp = step_length(((x, dx), (s, -dx)))
            fd = step_length(((z, dz), (w, dw)))
            if min(fp, fd) < 1.0:
                mu = x @ z + s @ w
                after = (z + fd * dz) @ (x + fp * dx) + (w + fd * dw) @ (s - fp * dx)
                mu *= (after / mu) ** 3 / (2 * n)
                dxdz = dx * dz / x
                dsdw = -dx * dw / s
                d_beta, dx = newton(w - z + mu * (1.0 / x - 1.0 / s) - dxdz + dsdw)
                dz = mu / x - z - dxdz - z * dx / x
                dw = mu / s - w - dsdw + w * dx / s
                fp = step_length(((x, dx), (s, -dx)))
                fd = step_length(((z, dz), (w, dw)))
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
