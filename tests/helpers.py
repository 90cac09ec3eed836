"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np

from msmbounds import DiscreteDGP, DiscreteDist

# Single-level process: even treatment odds, a two-point treated outcome
# with a rare large value, and a degenerate control outcome.  At lam = 2
# the sharp bounds on the treated mean are (0.75, 1.5): the adversarial
# upper regression reweights the {0: 0.9, 10: 0.1} law to {0: 0.8, 10: 0.2}
# (mean 2.0, mixed half-half with the factual arm), and the lower one to
# {0: 0.95, 10: 0.05} (mean 0.5).
FIXTURE_SINGLE = DiscreteDGP(
    level_probs=[1.0],
    propensity=[0.5],
    outcomes=((DiscreteDist([0.0], [1.0]), DiscreteDist([0.0, 10.0], [0.9, 0.1])),),
)
FIXTURE_SINGLE_SHARP_MEAN1 = (0.75, 1.5)  # at lam = 2

# Three-level process with nondegenerate outcome laws in both arms, used
# for effect-bound checks against the oracle.
FIXTURE_THREE = DiscreteDGP(
    level_probs=[0.5, 0.3, 0.2],
    propensity=[0.3, 0.5, 0.7],
    outcomes=(
        (DiscreteDist([0.0, 1.0], [0.6, 0.4]), DiscreteDist([0.0, 2.0, 4.0], [0.5, 0.3, 0.2])),
        (DiscreteDist([-1.0, 1.0], [0.5, 0.5]), DiscreteDist([0.0, 3.0], [0.7, 0.3])),
        (DiscreteDist([0.0, 2.0], [0.8, 0.2]), DiscreteDist([-2.0, 1.0, 5.0], [0.2, 0.5, 0.3])),
    ),
)


def random_dist(rng: np.random.Generator, max_atoms: int = 6) -> DiscreteDist:
    k = int(rng.integers(1, max_atoms + 1))
    atoms = np.round(rng.uniform(-5.0, 5.0, k), 3)
    weights = rng.dirichlet(np.ones(k))
    return DiscreteDist(atoms, weights / weights.sum())


def random_dgp(rng: np.random.Generator, max_levels: int = 5, max_atoms: int = 6) -> DiscreteDGP:
    n_levels = int(rng.integers(1, max_levels + 1))
    probs = rng.dirichlet(2.0 * np.ones(n_levels))
    return DiscreteDGP(
        level_probs=probs / probs.sum(),
        propensity=rng.uniform(0.08, 0.92, n_levels),
        outcomes=tuple((random_dist(rng, max_atoms), random_dist(rng, max_atoms)) for _ in range(n_levels)),
    )


def random_dataset(rng: np.random.Generator, n: int, binary: bool):
    from msmbounds import Dataset, OutcomeKind

    x = rng.normal(size=(n, 3))
    logit = 0.4 * x[:, 0] - 0.3 * x[:, 1] + 0.2 * x[:, 0] * x[:, 2]
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    if binary:
        p = 1.0 / (1.0 + np.exp(-(0.5 * x[:, 1] - 0.2 * x[:, 2])))
        y = (rng.random(n) < p).astype(float)
        return Dataset(x, z, y, OutcomeKind.BINARY)
    y = x[:, 0] + 0.5 * x[:, 1] + (0.5 + 0.3 * x[:, 2] ** 2) * rng.standard_normal(n)
    return Dataset(x, z, y, OutcomeKind.CONTINUOUS)


def force_workers(monkeypatch, workers: int) -> None:
    """Make the process pool see ``workers`` usable CPUs.

    Its other rules still hold, so a map inside a pool worker stays serial.
    """
    from msmbounds import core

    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(workers)))
