"""Distributional primitives.

Discrete distributions, tail quantiles, the odds-weighting kernel of the
influence values, and the greedy fill of a weight box that the
sharp-bound oracle solves the likelihood-ratio reweighting problem with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, ParameterError, SensitivityParams, _readonly

__all__ = [
    "DiscreteDist",
    "empirical_quantile",
    "weighting_kernel",
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


def weighting_kernel(y, q, params: SensitivityParams, side: str):
    """Odds-weighted increment form ``q + lam**(±sign(y - q)) * (y - q)``.

    ``sign(0) = +1``; the boundary case ``y == q`` is harmless because the
    multiplied increment is zero.  Algebraically identical to the
    transformed outcome ``lam**-1 * y + (1 - lam**-1) * (q + {y - q}_s /
    (1 - tau))``, with ``{t}_+ = max(t, 0)`` and ``{t}_- = min(t, 0)``,
    for every ``(y, q)``; its conditional mean is the adversarial
    regression.
    """
    _check_side(side)
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    resid = y - q
    sgn = np.where(resid >= 0.0, 1.0, -1.0)
    expo = sgn if side == "+" else -sgn
    out = q + params.lam**expo * resid
    return out if out.ndim else float(out)
