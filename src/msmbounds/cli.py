"""Command-line front end.

Three subcommands: ``analyze`` runs the sensitivity analysis over a lambda
grid on a CSV dataset, ``simulate`` writes a seeded draw from a benchmark
process, and ``coverage`` runs the Monte Carlo coverage study.  Outputs
are machine-readable (JSON or CSV) and written atomically
(write-then-rename), so a crashed run never leaves a partial file.

Exit codes: 0 ok, 2 input error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .core import (
    DataError,
    Dataset,
    Estimand,
    MsmBoundsError,
    OutcomeKind,
    ParameterError,
    check_lambda_grid,
    validate_dataset,
)
from .coverage import GenerativeSpec, monte_carlo_coverage, simulate
# crossfit_nuisances is not called here.  It stays bound in this module
# because bench/test_bench.py checks that the benchmark's tracer restores
# this binding.
from .estimator import crossfit_nuisances, sensitivity_curve, split_folds  # noqa: F401
from .learners import LearnerBundle, LearnerSpec, default_bundle

_ANALYZE_FIELDS = (
    "lambda",
    "psi_lower",
    "psi_upper",
    "se_lower",
    "se_upper",
    "ci_lower",
    "ci_upper",
    "n",
    "K",
    "seed",
)

_COVERAGE_FIELDS = (
    "rep",
    "lambda",
    "data_seed",
    "psi_lower",
    "psi_upper",
    "se_lower",
    "se_upper",
    "ci_lower",
    "ci_upper",
    "covered",
    "error",
)


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated inputs for the analyze subcommand."""

    data_path: Path
    treatment: str
    outcome: str
    covariates: tuple[str, ...] | str  # explicit names or "rest"
    outcome_kind: OutcomeKind
    estimand: Estimand
    lambdas: tuple[float, ...]
    k_folds: int
    epsilon: float
    alpha: float
    bundle: LearnerBundle | None
    seed: int
    out_path: Path
    out_format: str

    def __post_init__(self):
        object.__setattr__(self, "lambdas", check_lambda_grid(self.lambdas))
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.k_folds < 2:
            raise ParameterError(f"fold count must be >= 2, got {self.k_folds!r}")
        if self.out_format not in ("json", "csv"):
            raise ParameterError(f"format must be 'json' or 'csv', got {self.out_format!r}")


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Read a comma-delimited, header-first, fully numeric CSV file."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty (a header row is required)") from None
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        columns: list[list[float]] = [[] for _ in header]
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            for j, cell in enumerate(row):
                try:
                    columns[j].append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: row {i}, column {header[j]!r}: {cell!r} is not numeric"
                    ) from None
    return {name: np.asarray(col, dtype=float) for name, col in zip(header, columns)}


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def _csv_text(fields: Sequence[str], rows: Sequence[dict]) -> str:
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_format_value(row[f]) for f in fields))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_bundle(path: Path | None) -> LearnerBundle | None:
    if path is None:
        return None
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc

    def spec_from(obj: dict, role: str) -> LearnerSpec:
        if not isinstance(obj, dict) or "kind" not in obj:
            raise DataError(f"learner config for {role!r} must be an object with a 'kind'")
        if obj.get("kind") == "oracle_injection":
            raise DataError("oracle_injection learners cannot be configured from JSON")
        allowed = {"kind", "regularization", "max_iter", "tol", "feature_expansion"}
        unknown = set(obj) - allowed
        if unknown:
            raise DataError(f"unknown learner option(s) for {role!r}: {sorted(unknown)}")
        return LearnerSpec(**obj)

    if not isinstance(raw, dict):
        raise DataError(f"{path}: learner config must be a JSON object")
    for role in ("propensity", "quantile", "regression"):
        if role not in raw:
            raise DataError(f"learner config is missing the {role!r} entry")
    return LearnerBundle(
        propensity=spec_from(raw["propensity"], "propensity"),
        quantile=spec_from(raw["quantile"], "quantile"),
        regression=spec_from(raw["regression"], "regression"),
        rho_strategy=raw.get("rho_strategy", "separate"),
    )


def _parse_lambdas(values: list[float] | None, grid: str | None) -> tuple[float, ...]:
    if values and grid:
        raise ParameterError("pass either --lambda values or --lambda-grid, not both")
    if grid:
        parts = grid.split(":")
        if len(parts) != 3:
            raise ParameterError(f"--lambda-grid expects start:stop:step, got {grid!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ParameterError(f"--lambda-grid expects numeric start:stop:step, got {grid!r}") from None
        if step <= 0.0 or stop < start:
            raise ParameterError(f"--lambda-grid needs step > 0 and stop >= start, got {grid!r}")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    if values:
        return tuple(values)
    raise ParameterError("at least one lambda value is required (--lambda or --lambda-grid)")


def _dataset_from_config(config: AnalysisConfig) -> Dataset:
    table = read_table(config.data_path)
    if config.covariates == "rest":
        covariates = tuple(c for c in table if c not in (config.treatment, config.outcome))
    else:
        covariates = tuple(config.covariates)
    return validate_dataset(
        table,
        treatment=config.treatment,
        outcome=config.outcome,
        covariates=covariates,
        outcome_kind=config.outcome_kind,
    )


def cmd_analyze(config: AnalysisConfig) -> int:
    """Cross-fit, estimate, and emit one record per lambda value.

    Runs :func:`~msmbounds.estimator.sensitivity_curve`: folds are fixed
    once per (dataset, seed) and reused across the grid so the sensitivity
    curve is comparable across lambda, and the propensity and outcome-mean
    models are fit once per fold for the whole grid.
    """
    data = _dataset_from_config(config)
    bundle = config.bundle or default_bundle(data.outcome_kind)
    plan = split_folds(data.n, config.k_folds, config.seed)
    curve = sensitivity_curve(
        data, config.lambdas, bundle, plan, config.estimand, config.alpha, config.epsilon
    )
    records = [
        {
            "lambda": point.params.lam,
            "psi_lower": point.estimate.psi_lower,
            "psi_upper": point.estimate.psi_upper,
            "se_lower": point.estimate.se_lower,
            "se_upper": point.estimate.se_upper,
            "ci_lower": point.ci_lower,
            "ci_upper": point.ci_upper,
            "n": data.n,
            "K": config.k_folds,
            "seed": config.seed,
        }
        for point in curve
    ]
    if config.out_format == "json":
        _atomic_write(config.out_path, _json_text({"version": __version__, "records": records}))
    else:
        _atomic_write(config.out_path, _csv_text(_ANALYZE_FIELDS, records))
    return 0


def cmd_simulate(spec_name: str, n: int, seed: int, out_path: Path) -> int:
    """Write a seeded benchmark draw as CSV with columns x1..x5, z, y."""
    spec = GenerativeSpec(kind=spec_name)
    data = simulate(spec, n, seed)
    names = [f"x{j + 1}" for j in range(data.d)]
    rows = []
    for i in range(data.n):
        row = {name: data.covariates[i, j] for j, name in enumerate(names)}
        row["z"] = int(data.treatment[i])
        row["y"] = data.outcome[i]
        rows.append(row)
    _atomic_write(out_path, _csv_text((*names, "z", "y"), rows))
    return 0


def cmd_coverage(
    spec_name: str,
    lambdas: tuple[float, ...],
    reps: int,
    n: int,
    bundle: LearnerBundle | None,
    k_folds: int,
    alpha: float,
    epsilon: float,
    seed: int,
    estimand: Estimand,
    out_path: Path,
) -> int:
    """Run the coverage study; write a JSON report and a per-replication CSV.

    The CSV lands next to the report with the same stem and a ``.csv``
    suffix and is suitable for recreating bound-distribution plots
    externally.
    """
    spec = GenerativeSpec(kind=spec_name)
    report = monte_carlo_coverage(
        spec,
        lambdas,
        reps=reps,
        n=n,
        bundle=bundle,
        k_folds=k_folds,
        alpha=alpha,
        seed=seed,
        estimand=estimand,
        epsilon=epsilon,
    )
    payload = {"version": __version__, **report.to_jsonable()}
    _atomic_write(out_path, _json_text(payload))
    csv_path = Path(out_path).with_suffix(".csv")
    rows = [
        {
            "rep": r.rep,
            "lambda": r.lam,
            "data_seed": r.data_seed,
            "psi_lower": r.psi_lower,
            "psi_upper": r.psi_upper,
            "se_lower": r.se_lower,
            "se_upper": r.se_upper,
            "ci_lower": r.ci_lower,
            "ci_upper": r.ci_upper,
            "covered": r.covered,
            "error": r.error,
        }
        for r in report.records
    ]
    _atomic_write(csv_path, _csv_text(_COVERAGE_FIELDS, rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msmbounds",
        description="Partial-identification bounds for treatment effects under bounded odds-ratio confounding.",
    )
    parser.add_argument("--version", action="version", version=f"msmbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="sensitivity analysis on a CSV dataset")
    analyze.add_argument("--data", required=True, type=Path, help="input CSV (header row required)")
    analyze.add_argument("--treatment", required=True, help="0/1 treatment column name")
    analyze.add_argument("--outcome", required=True, help="outcome column name")
    analyze.add_argument(
        "--covariates",
        default="rest",
        help="comma-separated covariate columns, or 'rest' for all remaining columns",
    )
    kind = analyze.add_mutually_exclusive_group(required=True)
    kind.add_argument("--binary", dest="outcome_kind", action="store_const", const="binary")
    kind.add_argument("--continuous", dest="outcome_kind", action="store_const", const="continuous")
    analyze.add_argument("--estimand", default="ate", choices=[e.value for e in Estimand])
    analyze.add_argument("--lambda", dest="lambdas", type=float, action="append", metavar="LAM")
    analyze.add_argument("--lambda-grid", dest="lambda_grid", metavar="START:STOP:STEP")
    analyze.add_argument("--folds", type=int, default=5)
    analyze.add_argument("--epsilon", type=float, default=0.01, help="propensity clip")
    analyze.add_argument("--alpha", type=float, default=0.05, help="two-sided miscoverage level")
    analyze.add_argument("--seed", type=int, required=True)
    analyze.add_argument("--learner-config", type=Path, default=None, help="JSON learner spec bundle")
    analyze.add_argument("--out", required=True, type=Path)
    analyze.add_argument("--format", default="json", choices=["json", "csv"])

    sim = sub.add_parser("simulate", help="write a seeded benchmark dataset")
    sim.add_argument("--spec", required=True, choices=["benchmark_binary", "benchmark_continuous"])
    sim.add_argument("--n", required=True, type=int)
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", required=True, type=Path)

    cov = sub.add_parser("coverage", help="Monte Carlo coverage study on a benchmark process")
    cov.add_argument("--spec", required=True, choices=["benchmark_binary", "benchmark_continuous"])
    cov.add_argument("--reps", required=True, type=int)
    cov.add_argument("--n", required=True, type=int)
    cov.add_argument("--lambda", dest="lambdas", type=float, action="append", metavar="LAM")
    cov.add_argument("--lambda-grid", dest="lambda_grid", metavar="START:STOP:STEP")
    cov.add_argument("--estimand", default="ate", choices=[e.value for e in Estimand])
    cov.add_argument("--folds", type=int, default=5)
    cov.add_argument("--epsilon", type=float, default=0.01)
    cov.add_argument("--alpha", type=float, default=0.05)
    cov.add_argument("--seed", type=int, required=True)
    cov.add_argument("--learner-config", type=Path, default=None)
    cov.add_argument("--out", required=True, type=Path)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            covariates: tuple[str, ...] | str
            if args.covariates.strip() == "rest":
                covariates = "rest"
            else:
                covariates = tuple(c.strip() for c in args.covariates.split(",") if c.strip())
            config = AnalysisConfig(
                data_path=args.data,
                treatment=args.treatment,
                outcome=args.outcome,
                covariates=covariates,
                outcome_kind=OutcomeKind(args.outcome_kind),
                estimand=Estimand(args.estimand),
                lambdas=_parse_lambdas(args.lambdas, args.lambda_grid),
                k_folds=args.folds,
                epsilon=args.epsilon,
                alpha=args.alpha,
                bundle=_load_bundle(args.learner_config),
                seed=args.seed,
                out_path=args.out,
                out_format=args.format,
            )
            return cmd_analyze(config)
        if args.command == "simulate":
            if args.n < 1:
                raise ParameterError(f"--n must be >= 1, got {args.n}")
            return cmd_simulate(args.spec, args.n, args.seed, args.out)
        if args.command == "coverage":
            if args.reps < 1:
                raise ParameterError(f"--reps must be >= 1, got {args.reps}")
            return cmd_coverage(
                spec_name=args.spec,
                lambdas=_parse_lambdas(args.lambdas, args.lambda_grid),
                reps=args.reps,
                n=args.n,
                bundle=_load_bundle(args.learner_config),
                k_folds=args.folds,
                alpha=args.alpha,
                epsilon=args.epsilon,
                seed=args.seed,
                estimand=Estimand(args.estimand),
                out_path=args.out,
            )
        parser.error(f"unknown command {args.command!r}")
    except (ParameterError, DataError, OSError) as exc:
        print(f"msmbounds: input error: {exc}", file=sys.stderr)
        return 2
    except MsmBoundsError as exc:
        print(f"msmbounds: runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
