"""Core types shared across the package.

Sensitivity parameters, validated datasets, per-row nuisance containers,
estimand tags, and :func:`fork_map`, the one process pool of the package.
Every container is immutable after construction (the backing arrays are
marked read-only), so instances are safe to share between callers, and
forked worker processes inherit them unchanged.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "MsmBoundsError",
    "ParameterError",
    "DataError",
    "FitError",
    "ConvergenceError",
    "HarnessError",
    "OutcomeKind",
    "Estimand",
    "SensitivityParams",
    "sensitivity_params",
    "check_lambda_grid",
    "check_epsilon",
    "check_seed",
    "Dataset",
    "validate_dataset",
    "NuisanceSet",
]


class MsmBoundsError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(MsmBoundsError):
    """A scalar parameter is outside its documented domain."""


class DataError(MsmBoundsError):
    """Input data failed validation."""


class FitError(MsmBoundsError):
    """A nuisance fit could not be carried out (degenerate training set)."""


class ConvergenceError(FitError):
    """An iterative fit did not converge within its iteration budget.

    Carries the last iterate so callers can inspect how far the solver got.
    """

    def __init__(self, message: str, last_iterate: np.ndarray | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate


class HarnessError(MsmBoundsError):
    """The simulation harness hit too many replication failures."""


class OutcomeKind(str, Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class Estimand(str, Enum):
    """Which causal quantity the bounds target."""

    MEAN1 = "mean1"
    MEAN0 = "mean0"
    ATE = "ate"
    ATT = "att"


@dataclass(frozen=True)
class SensitivityParams:
    """Odds-ratio bound ``lam`` and the derived tail level ``tau``.

    ``tau`` is stored rather than recomputed at each use so that a single
    consistent value flows through an entire analysis.
    """

    lam: float
    tau: float


def sensitivity_params(lam: float) -> SensitivityParams:
    """Build sensitivity parameters from an odds-ratio bound.

    ``lam`` must be a finite real >= 1; ``lam == 1`` corresponds to no
    unmeasured confounding.  The tail level is ``lam / (lam + 1)``.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam < 1.0:
        raise ParameterError(f"odds-ratio bound must be a finite real >= 1, got {lam!r}")
    return SensitivityParams(lam=lam, tau=lam / (lam + 1.0))


def check_lambda_grid(lambdas: Sequence[float]) -> tuple[float, ...]:
    """Sort and deduplicate a grid of odds-ratio bounds.

    The grid must be nonempty and every value finite and >= 1.
    """
    lams = tuple(sorted({float(l) for l in lambdas}))
    if not lams:
        raise ParameterError("at least one lambda value is required")
    if lams[0] < 1.0 or not all(np.isfinite(l) for l in lams):
        raise ParameterError(f"lambda values must be finite and >= 1, got {list(lambdas)!r}")
    return lams


def check_epsilon(epsilon: float) -> float:
    """The propensity clip level as a float; it must lie in (0, 0.5)."""
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 0.5):
        raise ParameterError(f"clip epsilon must lie in (0, 0.5), got {epsilon!r}")
    return epsilon


def check_seed(seed):
    """Reject a negative integer seed, or a seed sequence with a negative
    entry, which numpy refuses with a bare ``ValueError``."""
    entries = np.asarray(seed, dtype=object).ravel() if isinstance(seed, (list, tuple, np.ndarray)) else (seed,)
    if any(isinstance(entry, (int, np.integer)) and entry < 0 for entry in entries):
        raise ParameterError(f"seed must be >= 0, got {seed!r}")
    return seed


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """A validated sample of (covariates, binary treatment, outcome) rows."""

    covariates: np.ndarray  # (n, d) float
    treatment: np.ndarray  # (n,) int in {0, 1}
    outcome: np.ndarray  # (n,) float
    outcome_kind: OutcomeKind

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov[:, None]
        if cov.ndim != 2 or cov.shape[0] < 1 or cov.shape[1] < 1:
            raise DataError(f"covariates must be a nonempty 2-d matrix, got shape {cov.shape}")
        z = np.asarray(self.treatment)
        y = np.asarray(self.outcome, dtype=float)
        n = cov.shape[0]
        if z.shape != (n,) or y.shape != (n,):
            raise DataError(
                f"row-count mismatch: covariates {n}, treatment {z.shape}, outcome {y.shape}"
            )
        if not np.all(np.isfinite(cov)):
            i, j = np.argwhere(~np.isfinite(cov))[0]
            raise DataError(f"non-finite covariate at row {i}, column {j}")
        zf = np.asarray(z, dtype=float)
        if not np.all(np.isfinite(zf)):
            raise DataError("non-finite treatment value")
        if not np.all((zf == 0.0) | (zf == 1.0)):
            bad = int(np.argwhere((zf != 0.0) & (zf != 1.0))[0][0])
            raise DataError(f"treatment must be 0 or 1; row {bad} has {zf[bad]!r}")
        if not np.all(np.isfinite(y)):
            bad = int(np.argwhere(~np.isfinite(y))[0][0])
            raise DataError(f"non-finite outcome at row {bad}")
        kind = OutcomeKind(self.outcome_kind)
        if kind is OutcomeKind.BINARY and not np.all((y == 0.0) | (y == 1.0)):
            bad = int(np.argwhere((y != 0.0) & (y != 1.0))[0][0])
            raise DataError(f"binary outcome must be 0 or 1; row {bad} has {y[bad]!r}")
        object.__setattr__(self, "covariates", _readonly(cov))
        object.__setattr__(self, "treatment", _readonly(zf.astype(np.int64)))
        object.__setattr__(self, "outcome", _readonly(y))
        object.__setattr__(self, "outcome_kind", kind)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    def to_table(self, covariate_names: Sequence[str] | None = None) -> dict[str, np.ndarray]:
        """Export as a column mapping (inverse of :func:`validate_dataset`)."""
        names = covariate_names or [f"x{j + 1}" for j in range(self.d)]
        if len(names) != self.d:
            raise ParameterError(f"expected {self.d} covariate names, got {len(names)}")
        table: dict[str, np.ndarray] = {name: self.covariates[:, j] for j, name in enumerate(names)}
        table["z"] = self.treatment.astype(float)
        table["y"] = self.outcome
        return table


def validate_dataset(
    table: Mapping[str, Sequence[float] | np.ndarray],
    *,
    treatment: str,
    outcome: str,
    covariates: Sequence[str],
    outcome_kind: OutcomeKind | str,
) -> Dataset:
    """Validate a column table into a :class:`Dataset`.

    Rejects rather than imputes: a missing, non-numeric or non-finite
    cell raises :class:`DataError` naming the offending row and column.
    :class:`Dataset` then rejects any treatment value outside {0, 1} and
    (for binary outcomes) any outcome outside {0, 1}, naming the row.
    Covariates must be numeric; categorical encoding is the caller's
    responsibility.
    """
    if not covariates:
        raise DataError("at least one covariate column is required")
    roles = [treatment, outcome, *covariates]
    if len(set(roles)) != len(roles):
        raise DataError(f"column roles overlap: treatment={treatment!r}, outcome={outcome!r}, covariates={list(covariates)!r}")
    for name in roles:
        if name not in table:
            raise DataError(f"column {name!r} not present in the input table")

    def as_column(name: str) -> np.ndarray:
        try:
            col = np.asarray(table[name], dtype=float)
        except (TypeError, ValueError) as exc:
            raise DataError(f"column {name!r} is not numeric: {exc}") from exc
        if col.ndim != 1:
            raise DataError(f"column {name!r} must be one-dimensional")
        if not np.all(np.isfinite(col)):
            bad = int(np.argwhere(~np.isfinite(col))[0][0])
            raise DataError(f"column {name!r} has a missing or non-finite value at row {bad}")
        return col

    cols = {name: as_column(name) for name in roles}
    n = len(cols[treatment])
    for name, col in cols.items():
        if len(col) != n:
            raise DataError(f"column {name!r} has {len(col)} rows, expected {n}")
    if n < 1:
        raise DataError("input table is empty")

    x = np.column_stack([cols[c] for c in covariates])
    return Dataset(covariates=x, treatment=cols[treatment], outcome=cols[outcome], outcome_kind=outcome_kind)


@dataclass(frozen=True)
class NuisanceSet:
    """Per-row, per-arm evaluated nuisances.

    Arm-indexed arrays have shape ``(n, 2)`` with column ``z`` holding the
    arm-``z`` model evaluated at that row's covariates.  ``e_hat`` must
    already be clipped into the configured overlap band.  ``mu`` is present
    whenever the fitting path produced an outcome-regression estimate (it
    is required for binary outcomes).
    """

    e_hat: np.ndarray  # (n,)
    q_plus: np.ndarray  # (n, 2)
    q_minus: np.ndarray  # (n, 2)
    rho_plus: np.ndarray  # (n, 2)
    rho_minus: np.ndarray  # (n, 2)
    mu: np.ndarray | None = None  # (n, 2)

    def __post_init__(self):
        e = np.asarray(self.e_hat, dtype=float)
        if e.ndim != 1 or e.shape[0] < 1:
            raise DataError(f"e_hat must be a nonempty vector, got shape {e.shape}")
        n = e.shape[0]
        if not np.all(np.isfinite(e)) or np.any(e <= 0.0) or np.any(e >= 1.0):
            raise DataError("propensities must lie strictly inside (0, 1)")
        object.__setattr__(self, "e_hat", _readonly(e))
        for field in ("q_plus", "q_minus", "rho_plus", "rho_minus"):
            arr = np.asarray(getattr(self, field), dtype=float)
            if arr.shape != (n, 2):
                raise DataError(f"{field} must have shape ({n}, 2), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{field} contains non-finite values")
            object.__setattr__(self, field, _readonly(arr))
        if self.mu is not None:
            mu = np.asarray(self.mu, dtype=float)
            if mu.shape != (n, 2) or not np.all(np.isfinite(mu)):
                raise DataError(f"mu must be a finite ({n}, 2) array")
            object.__setattr__(self, "mu", _readonly(mu))

    @property
    def n(self) -> int:
        return self.e_hat.shape[0]


# ---------------------------------------------------------------------------
# The process pool.

# Set in each pool worker by its initializer, never in the parent.
_IN_WORKER = False
_WORKER_FN = None


def _worker_count(items: int) -> int:
    """Processes to map ``items`` jobs on; 1 means the serial loop.

    One per usable CPU, at most one per job.  Serial where the ``fork``
    start method does not exist (workers must inherit the mapped function,
    which may be a closure that cannot be pickled), inside a daemonic
    process, which may not have children, and inside a worker of this
    pool: those are not daemonic, and a nested pool would only compete
    with its siblings for the same CPUs.
    """
    if _IN_WORKER:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, items)


def _openblas_thread_counts() -> list:
    """The thread count of each OpenBLAS library that the numpy and scipy
    wheels bundle and this process has loaded, as a ``ctypes.c_int`` over
    its ``blas_cpu_number``: the count that ``*_get_num_threads`` returns
    and that each call reads to pick its threads.  None for a library that
    is not loaded or does not export it."""
    import ctypes
    import glob
    import sys

    counts = []
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{package}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
                counts.append(ctypes.c_int.in_dll(lib, "blas_cpu_number"))
            except (OSError, ValueError):
                continue
    return counts


def _init_worker(fn) -> None:
    global _IN_WORKER, _WORKER_FN
    _IN_WORKER = True
    _WORKER_FN = fn
    # One worker per CPU already fills the CPUs, so each runs OpenBLAS on
    # one thread.  The count is written, not set by *_set_num_threads:
    # that call restarts the thread pool OpenBLAS shut down at fork, and
    # the new threads spin idle for about 0.1 s of CPU in every worker.
    for count in _openblas_thread_counts():
        count.value = 1


def _run_in_worker(item):
    return _WORKER_FN(item)


def fork_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, run on forked worker processes.

    The workers inherit ``fn`` with its closure, so only the items and the
    results are pickled.  The count comes from :func:`_worker_count`; with
    one worker this is the plain list comprehension.  Results come back in
    item order, and an exception raised by ``fn`` is re-raised here for
    the first failing item in that order, as the serial loop would.  A
    worker that dies (say, killed for memory) raises ``BrokenProcessPool``
    here; a ``multiprocessing.Pool`` would wait forever.

    The workers run the OpenBLAS that numpy and scipy bundle on one thread
    each; this process keeps its own thread count.
    """
    items = list(items)
    workers = _worker_count(len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn,),
    ) as pool:
        chunksize = max(1, len(items) // (4 * workers))
        return list(pool.map(_run_in_worker, items, chunksize=chunksize))
