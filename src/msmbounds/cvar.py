"""Distributional primitives.

Discrete distributions, tail quantiles, conditional value at risk on
either tail, the outcome transformation whose conditional mean is the
adversarial regression, and the matching odds-weighting kernel.  A greedy
dual solver for the underlying likelihood-ratio reweighting problem is
included as an independent cross-check of the quantile-based computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, ParameterError, SensitivityParams, _readonly

__all__ = [
    "DiscreteDist",
    "empirical_quantile",
    "cvar",
    "cvar_dual_oracle",
    "transformed_outcome",
    "weighting_kernel",
    "transformed_mean",
]

# Slack for CDF comparisons: a level equal to a cumulative weight up to
# accumulated rounding must select the earlier atom, matching the
# infimum definition under exact arithmetic.
_CDF_SLACK = 1e-12


@dataclass(frozen=True)
class DiscreteDist:
    """A finitely supported distribution.

    Atoms are canonicalized on construction: sorted ascending with exact
    duplicates merged (weights summed).  Weights must be nonnegative and
    sum to one within 1e-12.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size < 1 or atoms.shape != weights.shape:
            raise DataError(
                f"atoms and weights must be equal-length and nonempty, got {atoms.shape} vs {weights.shape}"
            )
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise DataError("atoms and weights must be finite")
        if np.any(weights < 0.0):
            raise DataError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise DataError(f"weights must sum to 1 within 1e-12, got {total!r}")
        uniq, inverse = np.unique(atoms, return_inverse=True)
        merged = np.bincount(inverse, weights=weights, minlength=uniq.size)
        object.__setattr__(self, "atoms", _readonly(uniq))
        object.__setattr__(self, "weights", _readonly(merged))

    def negated(self) -> "DiscreteDist":
        """The distribution of -Y."""
        return DiscreteDist(-self.atoms, self.weights)

    def mean(self) -> float:
        return float(self.atoms @ self.weights)


def empirical_quantile(dist: DiscreteDist, alpha: float) -> float:
    """Smallest atom whose cumulative weight reaches ``alpha``.

    Implements the left-continuous generalized inverse of the CDF,
    ``inf {q : F(q) >= alpha}``, for ``alpha`` in (0, 1].
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"quantile level must lie in (0, 1], got {alpha!r}")
    cdf = np.cumsum(dist.weights)
    idx = int(np.searchsorted(cdf, alpha - _CDF_SLACK, side="left"))
    idx = min(idx, dist.atoms.size - 1)
    return float(dist.atoms[idx])


def _check_side(side: str) -> str:
    if side not in ("+", "-"):
        raise ParameterError(f"side must be '+' or '-', got {side!r}")
    return side


def cvar(dist: DiscreteDist, params: SensitivityParams, side: str) -> float:
    """Conditional value at risk of the upper (``+``) or lower (``-``) tail.

    The upper tail is the quantile-based form
    ``Q + E[{Y - Q}_+] / (1 - tau)`` with ``Q`` the tau-level quantile; the
    lower tail mirrors it by negation, avoiding a second code path.
    """
    _check_side(side)
    if side == "-":
        return -cvar(dist.negated(), params, "+")
    q = empirical_quantile(dist, params.tau)
    excess = float(dist.weights @ np.maximum(dist.atoms - q, 0.0))
    return q + excess / (1.0 - params.tau)


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


def cvar_dual_oracle(dist: DiscreteDist, params: SensitivityParams, side: str) -> float:
    """Solve the tail-reweighting problem directly by greedy allocation.

    Maximizes (``+``) or minimizes (``-``) the mean over distributions G
    with ``dG/dF <= 1/(1 - tau)``: a zero base, then the whole mass poured
    into the sorted atoms up to that cap.  Used as an independent test
    oracle for :func:`cvar`.
    """
    return _greedy_box_fill(dist, np.zeros(dist.atoms.size), dist.weights / (1.0 - params.tau), side)


def transformed_outcome(y, q, params: SensitivityParams, side: str):
    """The outcome transformation whose conditional mean is the adversarial regression.

    ``lam**-1 * y + (1 - lam**-1) * (q + {y - q}_s / (1 - tau))`` where
    ``{t}_+ = max(t, 0)`` and ``{t}_- = min(t, 0)``.  Accepts scalars or
    arrays (broadcasting).
    """
    _check_side(side)
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    resid = y - q
    part = np.maximum(resid, 0.0) if side == "+" else np.minimum(resid, 0.0)
    lam_inv = 1.0 / params.lam
    out = lam_inv * y + (1.0 - lam_inv) * (q + part / (1.0 - params.tau))
    return out if out.ndim else float(out)


def weighting_kernel(y, q, params: SensitivityParams, side: str):
    """Odds-weighted increment form ``q + lam**(±sign(y - q)) * (y - q)``.

    ``sign(0) = +1``; the boundary case ``y == q`` is harmless because the
    multiplied increment is zero.  Algebraically identical to
    :func:`transformed_outcome` for every ``(y, q)``.
    """
    _check_side(side)
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    resid = y - q
    sgn = np.where(resid >= 0.0, 1.0, -1.0)
    expo = sgn if side == "+" else -sgn
    out = q + params.lam**expo * resid
    return out if out.ndim else float(out)


def transformed_mean(dist: DiscreteDist, q: float, params: SensitivityParams, side: str) -> float:
    """Exact expectation of :func:`transformed_outcome` under ``dist``.

    This is the conditional mean of the transformed outcome built from a
    (possibly misspecified) quantile value ``q``.
    """
    vals = transformed_outcome(dist.atoms, q, params, side)
    return float(dist.weights @ vals)
