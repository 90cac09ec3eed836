"""Command-line front end.

Three subcommands: ``analyze`` runs the sensitivity analysis over a lambda
grid on a CSV dataset, ``simulate`` writes a seeded draw from a benchmark
process, and ``coverage`` runs the Monte Carlo coverage study.  Each
subcommand reads the parsed arguments and calls the library directly.
The CLI itself checks only the sign of the seed, the lambda-grid syntax
and size (at most ``MAX_GRID_POINTS`` points) and the learner config;
every other range (fold count, alpha, lambda values, clip epsilon,
sample size, replication count) is checked by the library function that
uses it, after the data file and learner config are read.  Outputs are
machine-readable (JSON or CSV) and written atomically
(write-then-rename), so a crashed run never leaves a partial file.

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
import warnings
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
from .learners import LearnerBundle, LearnerSpec, default_bundle


def _decode(path: Path, raw: bytes) -> str:
    """The file's bytes as text, decoded as UTF-8 whatever the locale,
    without the byte-order mark that some editors write first ("CSV
    UTF-8")."""
    try:
        # Not the utf-8-sig codec: it would count an error's byte offset
        # from after the mark.
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_bytes(path: Path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _numpy_reads_as_the_loop(raw: bytes) -> bool:
    """False if the file bytes ``raw`` may hold a line that numpy's reader
    reads otherwise than the loop of :func:`read_table`.  It skips a
    blank line, which the loop rejects as a row with the wrong cell count,
    and it strips the separators \\x1c to \\x1f around a number as
    whitespace, which ``float()`` does not do in an ASCII cell."""
    if any(sep in raw for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")) or b"\n\n" in raw:
        return False
    # The two scans for a CR line end are skipped for a file without one.
    return b"\r" not in raw or not (b"\r\r" in raw or b"\n\r" in raw)


def _read_table_numpy(raw: bytes) -> dict[str, np.ndarray] | None:
    """The table that the loop of :func:`read_table` reads from the file
    bytes ``raw``, parsed by numpy's C reader, or None on any error there.

    The header row comes from ``csv.reader``, as in the loop, and numpy
    reads the remaining lines of the same decoded stream, so the text is
    never held whole a second time.  Its cell parse is ``float()``'s
    (``PyOS_string_to_double``) on the cells it accepts; it rejects what
    only ``float()`` accepts (``1_0``, non-ASCII digits), and every row
    with the wrong cell count, so those files fail here and go to the
    loop."""
    if not _numpy_reads_as_the_loop(raw):
        return None
    try:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as lines, warnings.catch_warnings():
            header = next(csv.reader(lines))
            warnings.simplefilter("error")  # loadtxt only warns of a file with no rows
            values = np.loadtxt(lines, dtype=float, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except Exception:  # the loop reads the file again and raises its own message
        return None
    if not header or len(set(header)) != len(header) or values.shape[1] != len(header):
        return None
    return {name: values[:, j].copy() for j, name in enumerate(header)}


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Read a comma-delimited, header-first, fully numeric CSV file (UTF-8).

    numpy's C reader parses the file where it gives this loop's table
    (:func:`_read_table_numpy`); otherwise the loop reads it, and raises
    its own message for a file it rejects."""
    raw = _read_bytes(path)
    table = _read_table_numpy(raw)
    if table is not None:
        return table
    reader = csv.reader(io.StringIO(_decode(path, raw), newline=""))
    del raw  # the loop holds the text; the bytes are not needed again
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
    except OSError as exc:
        # Name the output path, not the temporary file removed below.
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _format_value(value) -> str:
    if type(value) is float:  # the common cell, ahead of the isinstance checks
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def _csv_text(columns: dict[str, Sequence]) -> str:
    """A header of the column names, then one line per row of the
    equal-length columns."""
    cells = [map(_format_value, column) for column in columns.values()]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _columns(rows: Sequence[dict]) -> dict[str, list]:
    """The rows, which share their keys, as columns keyed like the first row."""
    return {key: [row[key] for row in rows] for key in rows[0]}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_bundle(path: Path | None) -> LearnerBundle | None:
    if path is None:
        return None
    try:
        raw = json.loads(_decode(path, _read_bytes(path)))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc

    roles = ("propensity", "quantile", "regression")
    if not isinstance(raw, dict) or set(raw) != set(roles):
        raise DataError(f"{path}: learner config must be a JSON object whose keys are exactly {list(roles)}")
    specs = {}
    for role in roles:
        obj = raw[role]
        if not isinstance(obj, dict):
            raise DataError(f"learner config for {role!r} must be an object with a 'kind'")
        # A spec takes None as an unread field's value; a file has no use for null.
        for name, value in obj.items():
            if value is None:
                raise DataError(f"learner config for {role!r}: field {name!r} is null; leave it out instead")
        try:
            specs[role] = LearnerSpec(**obj)
        except (TypeError, ParameterError) as exc:  # a TypeError: a missing kind, or a key no spec has
            raise DataError(f"learner config for {role!r}: {exc}") from None
    return LearnerBundle(**specs)


# The most points a --lambda-grid may have.  Each point is a cross-fit
# stage, so a larger grid is a mistyped step, not a run to attempt.
MAX_GRID_POINTS = 10_000


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
        # Counted before any point is made: 1:1e6:1e-6 would be 1e12 floats.
        try:
            count = int((stop - start) // step) + 1
        except ArithmeticError:  # a quotient too long for Decimal is too many points
            count = MAX_GRID_POINTS + 1
        if count > MAX_GRID_POINTS:
            raise ParameterError(f"--lambda-grid allows at most {MAX_GRID_POINTS} points, got {grid!r}")
        return tuple(float(start + i * step) for i in range(count))
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
        _atomic_write(args.out, _csv_text(_columns(records)))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Write a seeded benchmark draw as CSV with columns x1..x5, z, y."""
    table = simulate(GenerativeSpec(kind=args.spec), args.n, args.seed).to_table()
    _atomic_write(args.out, _csv_text({name: column.tolist() for name, column in table.items()}))
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
    _atomic_write(args.out.with_suffix(".csv"), _csv_text(_columns([output_row(r) for r in report.records])))
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
