"""Core types shared across the package.

Sensitivity parameters, validated datasets, per-row nuisance containers,
estimand tags, and :func:`fork_map`, the one process pool of the
package.  Every container is immutable after construction (the backing
arrays are marked read-only), so instances are safe to share between
callers, and forked worker processes inherit them unchanged.

This module imports numpy and no pool machinery: after numpy,
``import msmbounds`` adds only ``__future__``, ``copy`` and
``dataclasses`` to the package's own modules.  ``multiprocessing`` and
``concurrent.futures`` load the first time :func:`fork_map` forks, and
``scipy.special``, the one scipy module the package uses, at the first fit
(:func:`_openblas_thread_counts`).
"""

from __future__ import annotations

import functools
import numbers
import os
from contextlib import contextmanager
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
    "check_alpha",
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


class _Choice(str, Enum):
    """A string enum whose unknown value is a :class:`ParameterError`."""

    @classmethod
    def _missing_(cls, value):
        raise ParameterError(f"unknown {cls.__name__} {value!r}; expected one of {[m.value for m in cls]}")


class OutcomeKind(_Choice):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class Estimand(_Choice):
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
    unmeasured confounding.  The tail level is ``lam / (lam + 1)``; a
    ``lam`` so large (above about 2**53) that it rounds to 1 leaves no
    tail and is rejected.
    """
    lam = _check_real(lam, lambda v: np.isfinite(v) and v >= 1.0, "odds-ratio bound must be a finite real >= 1")
    tau = lam / (lam + 1.0)
    if tau == 1.0:
        raise ParameterError(f"odds-ratio bound {lam!r} is too large: its tail level lam / (lam + 1) rounds to 1")
    return SensitivityParams(lam=lam, tau=tau)


def check_lambda_grid(lambdas: Sequence[float]) -> tuple[float, ...]:
    """Sort and deduplicate a grid of odds-ratio bounds.

    The grid must be nonempty and every value finite and >= 1.  A string
    is no grid (``"12"`` would read as 1 and 2), and a bool or a string is
    no value.
    """
    if isinstance(lambdas, (str, bytes)):
        raise ParameterError(f"lambda values must be a sequence of real numbers, not the string {lambdas!r}")
    try:
        lambdas = list(lambdas)
        if any(_not_a_real(l) for l in lambdas):
            raise TypeError
        lams = tuple(sorted({float(l) for l in lambdas}))
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"lambda values must be real numbers, got {lambdas!r}") from None
    if not lams:
        raise ParameterError("at least one lambda value is required")
    if lams[0] < 1.0 or not all(np.isfinite(l) for l in lams):
        raise ParameterError(f"lambda values must be finite and >= 1, got {lambdas!r}")
    return lams


def check_epsilon(epsilon: float) -> float:
    """The propensity clip level as a float; it must lie in (0, 0.5)."""
    return _check_real(epsilon, lambda eps: 0.0 < eps < 0.5, "clip epsilon must lie in (0, 0.5)")


def check_alpha(alpha: float) -> float:
    """A miscoverage level as a float; it must lie in (0, 1)."""
    return _check_real(alpha, lambda a: 0.0 < a < 1.0, "alpha must lie in (0, 1)")


def check_seed(seed):
    """Reject a seed that :func:`numpy.random.default_rng` would refuse
    with a bare ``TypeError`` or ``ValueError``: any but a
    :class:`numpy.random.SeedSequence` must be a non-negative integer or a
    sequence of them (a bool is not an integer)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    entries = np.asarray(seed, dtype=object).ravel() if isinstance(seed, (list, tuple, np.ndarray)) else (seed,)
    if any(_check_integer(entry, "seed") < 0 for entry in entries):
        raise ParameterError(f"seed must be >= 0, got {seed!r}")
    return seed


def _not_a_real(value) -> bool:
    """Whether ``value`` is a bool or a string, which ``float`` converts but
    which is no real number."""
    return isinstance(value, (bool, np.bool_, str, bytes))


def _check_real(value, ok: Callable[[float], bool], rule: str) -> float:
    """``float(value)`` if ``value`` converts and ``ok`` accepts it, else a
    :class:`ParameterError` stating ``rule``.  A bool or a string is not a
    real number."""
    try:
        real = None if _not_a_real(value) else float(value)
    except (TypeError, ValueError, OverflowError):
        real = None
    if real is None or not ok(real):
        raise ParameterError(f"{rule}, got {value if real is None else real!r}")
    return real


def _check_integer(value, what: str) -> int:
    """``value`` as an int; it must be an integer, and a bool is not one.
    Callers check the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_count(value, what: str) -> int:
    """``value`` as an int; it must be an integer >= 1."""
    if _check_integer(value, what) < 1:
        raise ParameterError(f"{what} must be >= 1, got {value!r}")
    return int(value)


def _float_array(value, what: str) -> np.ndarray:
    """``value`` as a float array, or a :class:`DataError` if ``what`` is not numeric."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{what} is not numeric: {exc}") from exc


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
        cov = _float_array(self.covariates, "covariates")
        if cov.ndim == 1:
            cov = cov[:, None]
        if cov.ndim != 2 or cov.shape[0] < 1 or cov.shape[1] < 1:
            raise DataError(f"covariates must be a nonempty 2-d matrix, got shape {cov.shape}")
        zf = _float_array(self.treatment, "treatment")
        y = _float_array(self.outcome, "outcome")
        n = cov.shape[0]
        if zf.shape != (n,) or y.shape != (n,):
            raise DataError(
                f"row-count mismatch: covariates {n}, treatment {zf.shape}, outcome {y.shape}"
            )
        if not np.all(np.isfinite(cov)):
            i, j = np.argwhere(~np.isfinite(cov))[0]
            raise DataError(f"non-finite covariate at row {i}, column {j}")
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

    def to_table(self) -> dict[str, np.ndarray]:
        """Export as columns: the covariates ``x1..xd``, the integer
        treatment ``z`` and ``y``.  The inverse of :func:`validate_dataset`."""
        table = {f"x{j + 1}": self.covariates[:, j] for j in range(self.d)}
        table["z"] = self.treatment
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
    responsibility.  ``covariates`` is an iterable of column names, read
    once: one string is a :class:`DataError`, as its characters are no
    columns.  Every name must be hashable, as table keys are.
    """
    if isinstance(covariates, (str, bytes)):
        raise DataError(f"covariates must be a sequence of column names, not the string {covariates!r}")
    try:
        covariates = list(covariates)
    except TypeError:
        raise DataError(f"covariates must be a sequence of column names, got {covariates!r}") from None
    if not covariates:
        raise DataError("at least one covariate column is required")
    roles = [treatment, outcome, *covariates]
    for name in roles:
        try:
            hash(name)
        except TypeError:
            raise DataError(f"column name {name!r} is not hashable") from None
    if len(set(roles)) != len(roles):
        raise DataError(f"column roles overlap: treatment={treatment!r}, outcome={outcome!r}, covariates={covariates!r}")
    for name in roles:
        if name not in table:
            raise DataError(f"column {name!r} not present in the input table")

    def as_column(name: str) -> np.ndarray:
        col = _float_array(table[name], f"column {name!r}")
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
    """Per-row, per-arm evaluated nuisances: what the influence values read.

    A row is a dataset row.  Arm-indexed arrays have shape ``(n, 2)``
    with column ``z`` holding the arm-``z`` model at that row.  ``e_hat``
    lies strictly inside (0, 1); only the estimator clips it into the
    configured overlap band.  The outcome mean is no field: the influence
    values do not read it, and at ``lam == 1`` each adversarial regression
    equals it.
    """

    e_hat: np.ndarray  # (n,)
    q_plus: np.ndarray  # (n, 2)
    q_minus: np.ndarray  # (n, 2)
    rho_plus: np.ndarray  # (n, 2)
    rho_minus: np.ndarray  # (n, 2)

    def __post_init__(self):
        e = _float_array(self.e_hat, "e_hat")
        if e.ndim != 1 or e.shape[0] < 1:
            raise DataError(f"e_hat must be a nonempty vector, got shape {e.shape}")
        n = e.shape[0]
        if not np.all(np.isfinite(e)) or np.any(e <= 0.0) or np.any(e >= 1.0):
            raise DataError("propensities must lie strictly inside (0, 1)")
        object.__setattr__(self, "e_hat", _readonly(e))
        for field in ("q_plus", "q_minus", "rho_plus", "rho_minus"):
            arr = _float_array(getattr(self, field), field)
            if arr.shape != (n, 2):
                raise DataError(f"{field} must have shape ({n}, 2), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{field} contains non-finite values")
            object.__setattr__(self, field, _readonly(arr))

    @property
    def n(self) -> int:
        return self.e_hat.shape[0]


def _check_side(side: str) -> str:
    if side not in ("+", "-"):
        raise ParameterError(f"side must be '+' or '-', got {side!r}")
    return side


# ---------------------------------------------------------------------------
# The process pool.

# Set in each pool worker by its initializer, never in the parent.
_IN_WORKER = False
_WORKER_FN = None


def _worker_count(items: int) -> int:
    """Processes to map ``items`` jobs on; 1 means the serial loop.

    One per usable CPU, at most one per job, so a single job or a single
    CPU is answered before ``multiprocessing`` is imported.  Serial where
    the ``fork`` start method does not exist (workers must inherit the
    mapped function, which may be a closure that cannot be pickled),
    inside a daemonic process, which may not have children, and inside a
    worker of this pool: those are not daemonic, and a nested pool would
    only compete with its siblings for the same CPUs.
    """
    if _IN_WORKER:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, items)
    if workers <= 1:
        return workers
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return workers


@functools.cache
def _openblas_thread_counts() -> tuple:
    """The thread count of each OpenBLAS library that the numpy and scipy
    wheels bundle, as a ``ctypes.c_int`` over its ``blas_cpu_number``: the
    count that ``*_get_num_threads`` returns and that each call reads to
    pick its threads.  A library that does not export it is left out.

    This is where the package loads ``scipy.special``, the one scipy
    module it uses.  ``import msmbounds`` loads no scipy; the first caller
    here (the first fit, or the first :func:`fork_map` that forks) imports
    ``scipy.special``, which already maps scipy's OpenBLAS, so the lookup
    that follows finds both libraries.  Looked up once, so later fits and
    the workers forked from this process import nothing."""
    import ctypes
    import glob
    import sys

    import scipy.special  # noqa: F401

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
    return tuple(counts)


@contextmanager
def _one_blas_thread():
    """Run the block with the bundled OpenBLAS on one thread, then restore
    the caller's counts.  A threaded BLAS splits its sums by the thread
    count, so the last bit of a fit would otherwise depend on the number
    of usable CPUs.  The learners enter it wherever they call BLAS: each
    linear fit, each quantile solve and each prediction.  The counts are
    written as :func:`_init_worker` writes them."""
    counts = _openblas_thread_counts()
    before = [count.value for count in counts]
    for count in counts:
        count.value = 1
    try:
        yield
    finally:
        for count, value in zip(counts, before):
            count.value = value


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

    Each call forks fresh workers, which exit when it returns.  A module
    that a worker imports first is therefore imported again in every
    worker of every call.  So before it forks, this process calls
    :func:`_openblas_thread_counts`, which loads ``scipy.special`` once,
    then imports ``multiprocessing`` and ``concurrent.futures``, which
    ``import msmbounds`` does not load; the workers inherit all of them
    already loaded.  A map that runs serially loads none of them.
    """
    items = list(items)
    workers = _worker_count(len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    _openblas_thread_counts()
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn,),
    ) as pool:
        # Fine chunks, as the last one to finish leaves the other workers idle: for 150
        # items on 2 workers, chunks of 4 (not 18) cut that tail from 35 to 12 ms (median).
        chunksize = max(1, len(items) // (16 * workers))
        return list(pool.map(_run_in_worker, items, chunksize=chunksize))
