"""Spans and per-layer counters around the public functions of msmbounds.

The tracer wraps functions from outside the package: it replaces every
attribute of every loaded ``msmbounds`` module that is bound to a traced
function (``crossfit_nuisances``, for example, is bound in ``estimator``,
``cli`` and ``coverage``), so a call is counted whichever binding the
caller used.  A traced function that no longer exists is reported as
absent instead of failing the run.

Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the durations of the traced spans it directly
encloses.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from contextlib import contextmanager

# Layers are the package modules; these are the public functions timed in
# each.  NOTES.md says which end-to-end metric each should move, and where.
LAYERS = (
    "learners.fit_propensity",
    "learners.fit_mean",
    "learners.fit_quantile",
    "learners.fit_rho",
    "learners.binary_nuisances",
    "estimator.split_folds",
    "estimator.crossfit_nuisances",
    "estimator.estimate_bounds",
    "estimator.wald_bounds",
    "core.validate_dataset",
    "cli.read_table",
    "cli.cmd_simulate",
    "coverage.simulate",
    "coverage.true_sharp_bounds",
    "coverage.monte_carlo_coverage",
)

# Functions that run while the benchmark sets up its input, not inside an
# operation; their numbers are per set-up call instead of per operation.
SETUP_LAYERS = frozenset({"cli.cmd_simulate"})

STATS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("rows", "count"), ("errors", "count"))


def _path_bytes(args, kwargs, result) -> int:
    path = kwargs["path"] if "path" in kwargs else args[0]
    return os.path.getsize(path)


def _failed_reps(args, kwargs, result) -> int:
    return len({r.rep for r in result.records if r.error is not None})


# Extra counters read from a call's arguments or result: name -> (unit, fn).
EXTRAS = {
    "cli.read_table": {"bytes": ("bytes", _path_bytes)},
    "coverage.monte_carlo_coverage": {"failed_reps": ("count", _failed_reps)},
}


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    specs = [(f"{layer}.{stat}", unit) for layer in LAYERS for stat, unit in STATS]
    for layer, extras in EXTRAS.items():
        specs.extend((f"{layer}.{key}", unit) for key, (unit, _) in extras.items())
    return specs


def rows_of(result) -> int:
    """Rows a call produced: ``n_train`` of a fitted model, ``n`` of a
    dataset, plan, nuisance set or estimate, the column length of a table,
    the size of the first array of a tuple, else 0."""
    for attr in ("n_train", "n"):
        value = getattr(result, attr, None)
        if isinstance(value, int):
            return value
    if isinstance(result, dict) and result:
        return len(next(iter(result.values())))
    if isinstance(result, tuple) and result and getattr(result[0], "ndim", 0) > 0:
        return int(result[0].size)
    return 0


class Tracer:
    """Wraps the listed functions while active and records a span per call."""

    def __init__(self):
        self.absent: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index, op id]
        self.totals: dict[tuple[str, str], dict[str, float]] = {}
        self.groups = {"setup": 0, "op": 0}
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._op_id = None
        self._group = "op"
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for k, m in list(sys.modules.items()) if k == "msmbounds" or k.startswith("msmbounds.")]
        for index, name in enumerate(LAYERS):
            module_name, func_name = name.split(".")
            home = sys.modules.get(f"msmbounds.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, index: int, name: str, fn):
        extras = EXTRAS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, name, error=True)
                raise
            self._exit(frame, name, result=result)
            totals = self._totals(name)
            for key, (_, read) in extras.items():
                try:
                    totals[key] += read(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    pass
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _totals(self, name: str) -> dict[str, float]:
        key = (self._group, name)
        if key not in self.totals:
            self.totals[key] = {stat: 0 for stat, _ in STATS} | {k: 0 for k in EXTRAS.get(name, {})}
        return self.totals[key]

    def _enter(self, index: int) -> list:
        span = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([index, 0.0, 0.0, parent, self._op_id])
        frame = [span, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, result=None, error=False) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span, start, child = frame
        duration = end - start
        self.spans[span][1:3] = [start, end]
        if self._stack:
            self._stack[-1][2] += duration
        totals = self._totals(name)
        totals["calls"] += 1
        totals["total_s"] += duration
        totals["self_s"] += duration - child
        totals["errors"] += int(error)
        if not error:
            totals["rows"] += rows_of(result)

    @contextmanager
    def operation(self, op_id: str, group: str = "op"):
        """Root span for one benchmark operation (or one set-up call)."""
        self._op_id, self._group = op_id, group
        self.groups[group] += 1
        frame = self._enter(-1)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[frame[0]][1:3] = [frame[1], end]
            self._op_id, self._group = None, "op"

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-operation means (per set-up call for SETUP_LAYERS)."""
        out = {}
        for name, _ in metric_specs():
            layer, stat = name.rsplit(".", 1)
            group = "setup" if layer in SETUP_LAYERS else "op"
            count = self.groups[group]
            total = self.totals.get((group, layer), {}).get(stat, 0)
            out[name] = total / count if count else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt") as handle:
            for index, start, end, parent, op_id in self.spans:
                name = LAYERS[index] if index >= 0 else "bench.operation"
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                handle.write(json.dumps(record) + "\n")
