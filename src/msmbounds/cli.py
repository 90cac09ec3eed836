"""Command-line front end.

Three subcommands: ``analyze`` runs the sensitivity analysis over a lambda
grid on a CSV dataset, ``simulate`` writes a seeded draw from a benchmark
process, and ``coverage`` runs the Monte Carlo coverage study.  Each
subcommand reads the parsed arguments and calls the library directly.
The CLI itself checks only the sign of the seed, the lambda-grid syntax
and the learner config; every other range (fold count, alpha, lambda
values, clip epsilon, sample size, replication count) is checked by the
library function that uses it, after the data file and learner config
are read.  Outputs are machine-readable (JSON or CSV) and written
atomically (write-then-rename), so a crashed run never leaves a partial
file.

Exit codes: 0 ok, 2 input error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .core import DataError, Estimand, MsmBoundsError, ParameterError, validate_dataset
from .coverage import BENCHMARK_KINDS, GenerativeSpec, monte_carlo_coverage, output_row, simulate
# crossfit_nuisances is not called here.  It stays bound in this module
# because bench/test_bench.py checks that the benchmark's tracer restores
# this binding.
from .estimator import crossfit_nuisances, sensitivity_curve, split_folds  # noqa: F401
from .learners import KIND_FIELDS, LearnerBundle, LearnerSpec, default_bundle


def _read_text(path: Path) -> str:
    """The file's text, decoded as UTF-8 whatever the locale, without the
    byte-order mark that some editors write first ("CSV UTF-8")."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        # Not the utf-8-sig codec: it would count an error's byte offset
        # from after the mark.
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Read a comma-delimited, header-first, fully numeric CSV file (UTF-8)."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
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


def _csv_text(rows: Sequence[dict]) -> str:
    """A header of the first row's keys, then one line per row."""
    lines = [",".join(rows[0])]
    lines += [",".join(_format_value(value) for value in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_bundle(path: Path | None) -> LearnerBundle | None:
    if path is None:
        return None
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc

    def spec_from(obj: dict, role: str) -> LearnerSpec:
        if not isinstance(obj, dict) or "kind" not in obj:
            raise DataError(f"learner config for {role!r} must be an object with a 'kind'")
        if obj.get("kind") == "oracle_injection":
            raise DataError("oracle_injection learners cannot be configured from JSON")
        unknown = set(obj) - {"kind", *(f for fields in KIND_FIELDS.values() for f in fields)}
        if unknown:
            raise DataError(f"unknown learner option(s) for {role!r}: {sorted(unknown)}")
        spec = LearnerSpec(**obj)
        unread = set(obj) - {"kind", *KIND_FIELDS[spec.kind]}
        if unread:
            raise DataError(
                f"learner option(s) {sorted(unread)} for {role!r} are not read by kind {spec.kind!r}, "
                f"which reads {['kind', *KIND_FIELDS[spec.kind]]}"
            )
        return spec

    if not isinstance(raw, dict):
        raise DataError(f"{path}: learner config must be a JSON object")
    roles = ("propensity", "quantile", "regression")
    unknown = set(raw) - set(roles)
    if unknown:
        raise DataError(f"unknown learner config key(s) {sorted(unknown)}; the keys are {list(roles)}")
    for role in roles:
        if role not in raw:
            raise DataError(f"learner config is missing the {role!r} entry")
    return LearnerBundle(**{role: spec_from(raw[role], role) for role in roles})


def _parse_lambdas(values: list[float] | None, grid: str | None) -> tuple[float, ...]:
    if values and grid:
        raise ParameterError("pass either --lambda values or --lambda-grid, not both")
    if grid:
        parts = grid.split(":")
        if len(parts) != 3:
            raise ParameterError(f"--lambda-grid expects start:stop:step, got {grid!r}")
        # Decimal arithmetic is exact on the typed digits, so 1:2:0.1 gives
        # the float nearest 1.7, not 1 + 7 * 0.1 = 1.7000000000000002.
        try:
            start, stop, step = (Decimal(p) for p in parts)
        except InvalidOperation:
            raise ParameterError(f"--lambda-grid expects numeric start:stop:step, got {grid!r}") from None
        if not all(v.is_finite() for v in (start, stop, step)) or step <= 0 or stop < start:
            raise ParameterError(f"--lambda-grid needs finite values, step > 0 and stop >= start, got {grid!r}")
        return tuple(float(start + i * step) for i in range(int((stop - start) // step) + 1))
    if values:
        return tuple(values)
    raise ParameterError("at least one lambda value is required (--lambda or --lambda-grid)")


def cmd_analyze(args: argparse.Namespace) -> int:
    """Cross-fit, estimate, and emit one record per lambda value.

    Runs :func:`~msmbounds.estimator.sensitivity_curve`: folds are fixed
    once per (dataset, seed) and reused across the grid so the sensitivity
    curve is comparable across lambda, and the propensity and outcome-mean
    models are fit once per fold for the whole grid.
    """
    lambdas = _parse_lambdas(args.lambdas, args.lambda_grid)
    bundle = _load_bundle(args.learner_config)
    table = read_table(args.data)
    if args.covariates.strip() == "rest":
        covariates = [c for c in table if c not in (args.treatment, args.outcome)]
    else:
        covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    data = validate_dataset(
        table,
        treatment=args.treatment,
        outcome=args.outcome,
        covariates=covariates,
        outcome_kind=args.outcome_kind,
    )
    plan = split_folds(data.n, args.folds, args.seed)
    curve = sensitivity_curve(
        data,
        lambdas,
        bundle or default_bundle(data.outcome_kind),
        plan,
        args.estimand,
        args.alpha,
        args.epsilon,
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
            "K": args.folds,
            "seed": args.seed,
        }
        for point in curve
    ]
    if args.format == "json":
        _atomic_write(args.out, _json_text({"version": __version__, "records": records}))
    else:
        _atomic_write(args.out, _csv_text(records))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Write a seeded benchmark draw as CSV with columns x1..x5, z, y."""
    data = simulate(GenerativeSpec(kind=args.spec), args.n, args.seed)
    names = [f"x{j + 1}" for j in range(data.d)]
    rows = [
        {**dict(zip(names, data.covariates[i])), "z": int(data.treatment[i]), "y": data.outcome[i]}
        for i in range(data.n)
    ]
    _atomic_write(args.out, _csv_text(rows))
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    """Run the coverage study; write a JSON report and a per-replication CSV.

    The CSV lands next to the report with the same stem and a ``.csv``
    suffix and is suitable for recreating bound-distribution plots
    externally.
    """
    report = monte_carlo_coverage(
        GenerativeSpec(kind=args.spec),
        _parse_lambdas(args.lambdas, args.lambda_grid),
        reps=args.reps,
        n=args.n,
        bundle=_load_bundle(args.learner_config),
        k_folds=args.folds,
        alpha=args.alpha,
        seed=args.seed,
        estimand=args.estimand,
        epsilon=args.epsilon,
    )
    _atomic_write(args.out, _json_text({"version": __version__, **report.to_jsonable()}))
    _atomic_write(args.out.with_suffix(".csv"), _csv_text([output_row(r) for r in report.records]))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msmbounds",
        description="Partial-identification bounds for treatment effects under bounded odds-ratio confounding.",
    )
    parser.add_argument("--version", action="version", version=f"msmbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags of every subcommand, then those of the two that fit over a lambda grid.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, required=True)
    seeded.add_argument("--out", required=True, type=Path)
    study = argparse.ArgumentParser(add_help=False, parents=[seeded])
    study.add_argument("--lambda", dest="lambdas", type=float, action="append", metavar="LAM")
    study.add_argument("--lambda-grid", dest="lambda_grid", metavar="START:STOP:STEP")
    study.add_argument("--estimand", default="ate", choices=[e.value for e in Estimand])
    study.add_argument("--folds", type=int, default=5)
    study.add_argument("--epsilon", type=float, default=0.01, help="propensity clip")
    study.add_argument("--alpha", type=float, default=0.05, help="two-sided miscoverage level")
    study.add_argument("--learner-config", type=Path, default=None, help="JSON learner spec bundle")

    analyze = sub.add_parser("analyze", parents=[study], help="sensitivity analysis on a CSV dataset")
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
    analyze.add_argument("--format", default="json", choices=["json", "csv"])

    sim = sub.add_parser("simulate", parents=[seeded], help="write a seeded benchmark dataset")
    sim.add_argument("--spec", required=True, choices=BENCHMARK_KINDS)
    sim.add_argument("--n", required=True, type=int)

    cov = sub.add_parser("coverage", parents=[study], help="Monte Carlo coverage study on a benchmark process")
    cov.add_argument("--spec", required=True, choices=BENCHMARK_KINDS)
    cov.add_argument("--reps", required=True, type=int)
    cov.add_argument("--n", required=True, type=int)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ParameterError(f"--seed must be >= 0, got {args.seed}")
        # Looked up at call time: the benchmark's tracer rebinds cmd_simulate.
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_coverage(args)
    except (ParameterError, DataError, OSError) as exc:
        print(f"msmbounds: input error: {exc}", file=sys.stderr)
        return 2
    except MsmBoundsError as exc:
        print(f"msmbounds: runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
