import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msmbounds import DataError, Estimand, ParameterError, sensitivity_params
from msmbounds import cli, coverage
from msmbounds.cli import _parse_lambdas, main, read_table
from msmbounds.estimator import crossfit_nuisances, estimate_bounds, split_folds, wald_bounds
from msmbounds.learners import KIND_DEFAULTS, ROLE_KINDS, LearnerBundle, LearnerSpec, default_bundle
from msmbounds.core import validate_dataset

from helpers import force_workers

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_CSV = FIXTURES / "binary_n300.csv"
GOLDEN_JSON = FIXTURES / "golden_analyze.json"
GOLDEN_CONTINUOUS_JSON = FIXTURES / "golden_analyze_continuous.json"
# SHA-256 of `simulate --seed 5` CSVs, in `sha256sum` format, one line per
# file named <process>_n<rows>.csv; CI checks its n20000 files against it.
SIMULATE_DIGESTS = {
    name: digest
    for digest, name in (line.split() for line in (FIXTURES / "simulate_seed5.sha256").read_text().splitlines())
}


def run_cli(args):
    return main([str(a) for a in args])


def _learner_config(**propensity_fields):
    return {
        "propensity": {"kind": "logistic", **propensity_fields},
        "quantile": {"kind": "pinball_linear"},
        "regression": {"kind": "logistic"},
    }


# A kind that its role does not accept, for each role.
WRONG_ROLE_KINDS = [
    {"propensity": {"kind": "pinball_linear"}},
    {"quantile": {"kind": "ridge"}},
    {"regression": {"kind": "pinball_linear"}},
]


class TestSimulateCommand:
    def test_byte_identical_files(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(["simulate", "--spec", "benchmark_binary", "--n", 50, "--seed", 1, "--out", out1]) == 0
        assert run_cli(["simulate", "--spec", "benchmark_binary", "--n", 50, "--seed", 1, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_continuous_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["simulate", "--spec", "benchmark_continuous", "--n", 5, "--seed", 2, "--out", out]) == 0
        table = read_table(out)
        assert list(table) == ["x1", "x2", "x3", "x4", "x5", "z", "y"]
        assert len(table["y"]) == 5
        assert not np.all((table["y"] == 0) | (table["y"] == 1))

    @pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
    def test_bytes_match_the_pinned_digests(self, tmp_path, name):
        kind, n = re.fullmatch(r"(binary|continuous)_n(\d+)\.csv", name).groups()
        out = tmp_path / name
        assert run_cli(["simulate", "--spec", f"benchmark_{kind}", "--n", n, "--seed", 5, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_DIGESTS[name]

    def test_unknown_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["simulate", "--spec", "mystery", "--n", 5, "--seed", 2, "--out", "x.csv"])
        assert info.value.code == 2


class TestAnalyzeCommand:
    def analyze_args(self, out, fmt="json", extra=()):
        return [
            "analyze", "--data", FIXTURE_CSV, "--treatment", "z", "--outcome", "y",
            "--binary", "--lambda", 1, "--lambda", 1.5, "--lambda", 2,
            "--seed", 7, "--out", out, "--format", fmt, *extra,
        ]

    def test_golden_bytes_stable_across_runs_and_threads(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run_cli(self.analyze_args(out1)) == 0
        assert run_cli(self.analyze_args(out2)) == 0
        golden = GOLDEN_JSON.read_bytes()
        assert out1.read_bytes() == golden
        assert out2.read_bytes() == golden

    def test_continuous_golden_bytes_serial_and_pooled(self, tmp_path, monkeypatch):
        # Pins the bits of the continuous path: quantile, tail and pool.
        data = tmp_path / "c.csv"
        assert run_cli(["simulate", "--spec", "benchmark_continuous", "--n", 300, "--seed", 11, "--out", data]) == 0
        golden = GOLDEN_CONTINUOUS_JSON.read_bytes()
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            out = tmp_path / f"r{workers}.json"
            assert run_cli([
                "analyze", "--data", data, "--treatment", "z", "--outcome", "y", "--continuous",
                "--lambda-grid", "1:2:0.5", "--folds", 3, "--seed", 5, "--out", out,
            ]) == 0
            assert out.read_bytes() == golden

    def test_continuous_bytes_pooled_equal_serial(self, tmp_path, monkeypatch):
        # The continuous sweep's quantile solves run on the pool when it
        # has two workers; the files match the serial loop byte for byte.
        data = tmp_path / "c.csv"
        assert run_cli(["simulate", "--spec", "benchmark_continuous", "--n", 400, "--seed", 3, "--out", data]) == 0
        outs = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            for fmt in ("json", "csv"):
                out = tmp_path / f"r{workers}.{fmt}"
                assert run_cli([
                    "analyze", "--data", data, "--treatment", "z", "--outcome", "y", "--continuous",
                    "--lambda-grid", "1:2:0.5", "--folds", 3, "--estimand", "att",
                    "--seed", 8, "--out", out, "--format", fmt,
                ]) == 0
                outs.append(out.read_bytes())
        assert outs[:2] == outs[2:]

    def test_matches_library_call(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(self.analyze_args(out)) == 0
        payload = json.loads(out.read_text())
        table = read_table(FIXTURE_CSV)
        data = validate_dataset(
            table, treatment="z", outcome="y",
            covariates=[c for c in table if c not in ("z", "y")], outcome_kind="binary",
        )
        plan = split_folds(data.n, 5, seed=7)
        bundle = default_bundle(data.outcome_kind)
        for record in payload["records"]:
            params = sensitivity_params(record["lambda"])
            eta = crossfit_nuisances(data, params, bundle, plan, 0.01)
            est = estimate_bounds(data, eta, params, Estimand.ATE)
            ci_lower, ci_upper = wald_bounds(est, 0.025)
            assert record["psi_lower"] == est.psi_lower
            assert record["psi_upper"] == est.psi_upper
            assert record["ci_lower"] == ci_lower
            assert record["ci_upper"] == ci_upper

    def test_widths_nondecreasing_and_collapse(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(self.analyze_args(out))
        records = json.loads(out.read_text())["records"]
        widths = [r["psi_upper"] - r["psi_lower"] for r in records]
        assert widths == sorted(widths)
        first = records[0]
        assert first["lambda"] == 1.0
        assert first["psi_lower"] == first["psi_upper"]
        assert first["ci_upper"] - first["psi_upper"] == pytest.approx(
            first["psi_lower"] - first["ci_lower"], abs=1e-12
        )

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(self.analyze_args(out, fmt="csv")) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,psi_lower,psi_upper,se_lower,se_upper,ci_lower,ci_upper,n,K,seed"
        assert len(lines) == 4

    def test_missing_column_exits_2(self, tmp_path, capsys):
        code = run_cli([
            "analyze", "--data", FIXTURE_CSV, "--treatment", "z", "--outcome", "missing",
            "--binary", "--lambda", 2, "--seed", 1, "--out", tmp_path / "r.json",
        ])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = run_cli([
            "analyze", "--data", tmp_path / "nope.csv", "--treatment", "z", "--outcome", "y",
            "--binary", "--lambda", 2, "--seed", 1, "--out", tmp_path / "r.json",
        ])
        assert code == 2

    def test_estimation_error_exits_3(self, tmp_path):
        # all-treated data: every fold complement is degenerate
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,z,y\n" + "\n".join(f"{i * 0.1},1,0.0" for i in range(20)) + "\n")
        code = run_cli([
            "analyze", "--data", bad, "--treatment", "z", "--outcome", "y",
            "--continuous", "--lambda", 2, "--seed", 1, "--out", tmp_path / "r.json",
        ])
        assert code == 3

    def test_no_partial_output_on_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,z,y\n" + "\n".join(f"{i * 0.1},1,0.0" for i in range(20)) + "\n")
        out = tmp_path / "r.json"
        run_cli([
            "analyze", "--data", bad, "--treatment", "z", "--outcome", "y",
            "--continuous", "--lambda", 2, "--seed", 1, "--out", out,
        ])
        assert not out.exists()

    def test_explicit_covariate_subset(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli([
            "analyze", "--data", FIXTURE_CSV, "--treatment", "z", "--outcome", "y",
            "--binary", "--covariates", "x1,x2,x3", "--lambda", 2,
            "--seed", 7, "--out", out,
        ])
        assert code == 0
        # a smaller covariate set changes the fits
        full = tmp_path / "full.json"
        run_cli(self.analyze_args(full))
        subset = json.loads(out.read_text())["records"][0]
        golden = json.loads(full.read_text())["records"][-1]
        assert subset["lambda"] == golden["lambda"] == 2.0
        assert subset["psi_upper"] != golden["psi_upper"]

    def test_att_estimand(self, tmp_path):
        out = tmp_path / "att.json"
        code = run_cli([
            "analyze", "--data", FIXTURE_CSV, "--treatment", "z", "--outcome", "y",
            "--binary", "--estimand", "att", "--lambda", 1, "--lambda", 2,
            "--seed", 7, "--out", out,
        ])
        assert code == 0
        records = json.loads(out.read_text())["records"]
        assert records[0]["psi_lower"] == records[0]["psi_upper"]  # lam = 1
        assert records[1]["psi_lower"] < records[1]["psi_upper"]

    def test_lambda_grid_flag(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli([
            "analyze", "--data", FIXTURE_CSV, "--treatment", "z", "--outcome", "y",
            "--binary", "--lambda-grid", "1:2:0.5", "--seed", 7, "--out", out,
        ])
        assert code == 0
        records = json.loads(out.read_text())["records"]
        assert [r["lambda"] for r in records] == [1.0, 1.5, 2.0]

    def test_lambda_grid_points_are_the_typed_decimals(self):
        # Not 1 + 7 * 0.1 = 1.7000000000000002: each point is the float
        # nearest its exact decimal value.
        want = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
        assert _parse_lambdas(None, "1:2:0.1") == want
        assert _parse_lambdas(None, "1:3:0.5") == (1.0, 1.5, 2.0, 2.5, 3.0)
        assert _parse_lambdas(None, "1:2:0.3") == (1.0, 1.3, 1.6, 1.9)

    def test_a_lambda_grid_is_capped_at_max_grid_points(self):
        # Counted from the decimals, so even a count too long for Decimal
        # (the quotient 1e800, an overflow) is an input error, not a traceback.
        assert len(_parse_lambdas(None, "1:10000:1")) == cli.MAX_GRID_POINTS == 10_000
        for grid in ("1:10001:1", "1:1e400:1e-400", "-9e999999:9e999999:1"):
            with pytest.raises(ParameterError, match=f"^--lambda-grid allows at most 10000 points, got '{grid}'$"):
                _parse_lambdas(None, grid)

    def test_learner_config(self, tmp_path):
        config = tmp_path / "learners.json"
        config.write_text(json.dumps({
            "propensity": {"kind": "logistic", "regularization": 0.05},
            "quantile": {"kind": "pinball_linear"},
            "regression": {"kind": "logistic"},
        }))
        out = tmp_path / "r.json"
        code = run_cli(self.analyze_args(out, extra=["--learner-config", config]))
        assert code == 0
        # a different learner config must change the estimates
        assert out.read_bytes() != GOLDEN_JSON.read_bytes()

    def test_bad_learner_config_exits_2(self, tmp_path):
        config = tmp_path / "learners.json"
        config.write_text(json.dumps({"propensity": {"kind": "logistic"}}))
        code = run_cli(self.analyze_args(tmp_path / "r.json", extra=["--learner-config", config]))
        assert code == 2

    @pytest.mark.parametrize(
        "config",
        [
            _learner_config(max_iter="5"),
            _learner_config(max_iter=2.5),
            _learner_config(max_iter=True),
            _learner_config(regularization="0.1"),
            _learner_config(tol=[1e-8]),
            ["propensity", "quantile", "regression"],
            "propensity quantile regression",
            {**_learner_config(), "propensity": "logistic"},
            # A retired or misspelt top-level key is not silently ignored.
            {**_learner_config(), "rho_strategy": "separate"},
            {**_learner_config(), "propensty": {"kind": "constant"}},
        ],
    )
    def test_malformed_learner_config_is_an_input_error(self, tmp_path, capsys, config):
        path = tmp_path / "learners.json"
        path.write_text(json.dumps(config))
        assert run_cli(self.analyze_args(tmp_path / "r.json", extra=["--learner-config", path])) == 2
        err = capsys.readouterr().err
        assert err.startswith("msmbounds: input error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "role, spec",
        [
            ("quantile", {"kind": "pinball_linear", "regularization": 5}),
            ("regression", {"kind": "ridge", "max_iter": 50}),
            ("regression", {"kind": "ridge", "tol": 1e-6}),
            ("propensity", {"kind": "constant", "feature_expansion": "raw"}),
            ("quantile", {"kind": "constant", "max_iter": 50}),
        ],
    )
    def test_field_the_kind_does_not_read_is_an_input_error(self, tmp_path, capsys, role, spec):
        # Such a field used to run as if it were absent.
        config = {**_learner_config(), "regression": {"kind": "ridge"}, role: spec}
        path = tmp_path / "learners.json"
        path.write_text(json.dumps(config))
        assert run_cli(self.analyze_args(tmp_path / "r.json", extra=["--learner-config", path])) == 2
        err = capsys.readouterr().err
        assert err.startswith("msmbounds: input error:") and err.count("\n") == 1
        field = next(name for name in spec if name != "kind")
        assert repr(role) in err and repr(spec["kind"]) in err and repr(field) in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "role, spec",
        [("propensity", {"kind": "logistic", "max_iter": None}), ("regression", {"kind": "ridge", "max_iter": None})],
        ids=["read", "not-read"],
    )
    def test_a_null_field_is_an_input_error(self, tmp_path, capsys, role, spec):
        # The library takes None for a field the kind does not read; a file may not give it.
        path = tmp_path / "learners.json"
        path.write_text(json.dumps({**_learner_config(), "regression": {"kind": "ridge"}, role: spec}))
        assert run_cli(self.analyze_args(tmp_path / "r.json", extra=["--learner-config", path])) == 2
        err = capsys.readouterr().err
        assert err == f"msmbounds: input error: learner config for {role!r}: field 'max_iter' is null; leave it out instead\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("field, rule", [("regularization", ">= 0"), ("tol", "> 0")])
    def test_an_integer_too_large_for_a_float_is_an_input_error(self, tmp_path, capsys, field, rule):
        # Before, exit 2 with numpy's "ufunc 'isfinite' not supported" text.
        path = tmp_path / "learners.json"
        path.write_text(json.dumps(_learner_config(**{field: 10**400})))
        assert run_cli(self.analyze_args(tmp_path / "r.json", extra=["--learner-config", path])) == 2
        err = capsys.readouterr().err
        assert err == f"msmbounds: input error: learner config for 'propensity': {field} must be {rule}, got {10**400}\n"
        assert not (tmp_path / "r.json").exists()

    def test_readme_lists_the_fields_each_kind_reads(self):
        # A cell holds the default of a field the kind reads, as JSON, and
        # an empty cell a field it does not read.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        lines = ("| kind |" + readme.split("\n| kind |", 1)[1].split("\n\n", 1)[0]).splitlines()
        header, _, *rows = ([cell.strip() for cell in line.strip("|").split("|")] for line in lines)
        names = [name.strip("`") for name in header[1:]]
        table = {}
        for kind, *cells in rows:
            table[kind.split()[0].strip("`")] = {
                name: None if cell == "required" else json.loads(cell.strip("`"))
                for name, cell in zip(names, cells, strict=True) if cell
            }
        assert table == KIND_DEFAULTS

    def test_readme_lists_the_kinds_each_role_accepts(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        rows = readme.split("| role | kinds it accepts |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        table = {}
        for row in rows.splitlines():
            role, kinds = (cell.strip() for cell in row.strip("|").split("|"))
            table[role.strip("`")] = tuple(kind.strip(" `") for kind in kinds.split(","))
        assert table == ROLE_KINDS

    def test_readme_learner_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "learners.json"
        path.write_text(example)
        specs = {role: LearnerSpec(**spec) for role, spec in json.loads(example).items()}
        assert cli._load_bundle(path) == LearnerBundle(**specs)

    @pytest.mark.parametrize("wrong", WRONG_ROLE_KINDS, ids=lambda wrong: next(iter(wrong)))
    def test_kind_its_role_does_not_accept_is_an_input_error(self, tmp_path, capsys, monkeypatch, wrong):
        # Rejected with the learner config, before the data is read, not in
        # fold 0's fit as a runtime error.
        monkeypatch.setattr(cli, "read_table", None)
        path = tmp_path / "learners.json"
        path.write_text(json.dumps({**_learner_config(), **wrong}))
        assert run_cli(self.analyze_args(tmp_path / "r.json", extra=["--learner-config", path])) == 2
        role, spec = next(iter(wrong.items()))
        err = capsys.readouterr().err
        assert err.startswith(f"msmbounds: input error: the {role} learner cannot be of kind {spec['kind']!r}")
        assert list(tmp_path.iterdir()) == [path]

    def test_logistic_regression_on_a_continuous_outcome_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        assert run_cli(["simulate", "--spec", "benchmark_continuous", "--n", 100, "--seed", 1, "--out", data]) == 0
        path = tmp_path / "learners.json"
        path.write_text(json.dumps(_learner_config()))
        out = tmp_path / "r.json"
        assert run_cli([
            "analyze", "--data", data, "--treatment", "z", "--outcome", "y", "--continuous",
            "--lambda", 2, "--seed", 3, "--out", out, "--learner-config", path,
        ]) == 2
        assert capsys.readouterr().err == (
            "msmbounds: input error: logistic outcome regression needs a binary outcome, not a continuous one\n"
        )
        assert not out.exists()

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark, which
        # must not become part of the first column's name.
        rows = [line.split(",") for line in FIXTURE_CSV.read_text().splitlines()]
        col = rows[0].index("z")
        text = "".join(",".join([row[col], *row[:col], *row[col + 1:]]) + "\n" for row in rows)
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            data = tmp_path / f"{name}.csv"
            data.write_bytes(prefix + text.encode())
            out = tmp_path / f"{name}.json"
            args = self.analyze_args(out)
            args[args.index("--data") + 1] = data
            assert run_cli(args) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_data_directory_is_an_input_error(self, tmp_path, capsys):
        args = self.analyze_args(tmp_path / "r.json")
        args[args.index("--data") + 1] = tmp_path
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("msmbounds: input error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--data", "--learner-config"])
    def test_input_that_is_not_utf8_is_an_input_error(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(range(0x80, 0x100)) * 3)
        args = self.analyze_args(tmp_path / "r.json")
        if flag == "--data":
            args[args.index(flag) + 1] = bad
        else:
            args += [flag, bad]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err == f"msmbounds: input error: {bad}: not UTF-8 text (byte 0)\n"
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--data", FIXTURE_CSV, "--treatment", "z", "--outcome", "y", "--binary", "--lambda", 2],
        ["simulate", "--spec", "benchmark_binary", "--n", 50],
        ["coverage", "--spec", "benchmark_binary", "--reps", 2, "--n", 100, "--lambda", 2],
    ],
    ids=["analyze", "simulate", "coverage"],
)
def test_negative_seed_is_an_input_error(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    assert run_cli([*args, "--seed", -1, "--out", out]) == 2
    assert capsys.readouterr().err == "msmbounds: input error: --seed must be >= 0, got -1\n"
    assert not out.exists()


_ANALYZE_FIXTURE = ["analyze", "--data", FIXTURE_CSV, "--treatment", "z", "--outcome", "y", "--binary"]


@pytest.mark.parametrize(
    "args, message",
    [
        ([*_ANALYZE_FIXTURE, "--lambda", 2, "--folds", 1], "fold count must satisfy 2 <= k <= n, got k=1, n=300"),
        ([*_ANALYZE_FIXTURE, "--lambda", 2, "--folds", 1000], "fold count must satisfy 2 <= k <= n, got k=1000, n=300"),
        ([*_ANALYZE_FIXTURE, "--lambda", 2, "--alpha", 1.5], "alpha must lie in (0, 1), got 1.5"),
        ([*_ANALYZE_FIXTURE, "--lambda", 0.5], "lambda values must be finite and >= 1, got [0.5]"),
        (["simulate", "--spec", "benchmark_binary", "--n", 0], "sample size must be >= 1, got 0"),
        (
            ["coverage", "--spec", "benchmark_binary", "--reps", 0, "--n", 200, "--lambda", 1.5],
            "replication count must be >= 1, got 0",
        ),
    ],
    ids=["analyze-folds-1", "analyze-folds-1000", "analyze-alpha", "analyze-lambda", "simulate-n", "coverage-reps"],
)
def test_library_range_check_is_an_input_error(tmp_path, capsys, args, message):
    # The library function that uses the value checks it; the CLI maps the
    # error to exit 2 and writes nothing.
    out = tmp_path / "out.json"
    assert run_cli([*args, "--seed", 7, "--out", out]) == 2
    assert capsys.readouterr().err == f"msmbounds: input error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["coverage", "--spec", "benchmark_continuous", "--reps", 2, "--n", 200],
        ["analyze", "--data", FIXTURE_CSV, "--treatment", "z", "--outcome", "y", "--continuous"],
        _ANALYZE_FIXTURE,
    ],
    ids=["coverage", "analyze-continuous", "analyze-binary"],
)
def test_a_lambda_whose_tail_level_rounds_to_one_is_an_input_error(tmp_path, capsys, args):
    # lam / (lam + 1) is exactly 1.0 at 1e16, where coverage used to end in
    # a ZeroDivisionError traceback and continuous analyze in a fold error.
    out = tmp_path / "out.json"
    assert run_cli([*args, "--lambda", 1e16, "--seed", 1, "--out", out]) == 2
    message = "odds-ratio bound 1e+16 is too large: its tail level lam / (lam + 1) rounds to 1"
    assert capsys.readouterr().err == f"msmbounds: input error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# Inputs that analyze rejects, each as changes to a run on the fixture
# that would otherwise succeed: "data" replaces the CSV text, "config" is
# a learner config (JSON text or an object), "lambdas" replaces the lambda
# flags, "out_is_dir" makes the output path a directory, and "role" is the
# learner config role that the message must name.
_INPUT_ERRORS = {
    "empty-csv": {"data": ""},
    "header-only-csv": {"data": "x1,z,y\n"},
    "duplicate-header": {"data": "x1,x1,z,y\n0.1,0.2,1,0\n"},
    "ragged-row": {"data": "x1,z,y\n0.1,1,0\n0.2,0\n"},
    "blank-line": {"data": "x1,z,y\n0.1,1,0\n\n0.2,0,1\n"},
    "non-numeric-cell": {"data": "x1,z,y\n0.1,1,abc\n"},
    "invalid-json": {"config": '{"propensity": '},
    "lambda-and-grid": {"lambdas": ["--lambda", 2, "--lambda-grid", "1:2:0.5"]},
    "grid-of-two-parts": {"lambdas": ["--lambda-grid", "1:2"]},
    "non-numeric-grid": {"lambdas": ["--lambda-grid", "1:two:0.5"]},
    "grid-step-zero": {"lambdas": ["--lambda-grid", "1:2:0"]},
    "grid-step-negative": {"lambdas": ["--lambda-grid", "1:2:-0.5"]},
    "no-lambda": {"lambdas": []},
    "out-is-a-directory": {"out_is_dir": True},
    "oracle-injection-kind": {"role": "propensity", "config": {"kind": "oracle_injection"}},
    "unknown-kind": {"role": "quantile", "config": {"kind": "foo"}},
    "list-kind": {"role": "regression", "config": {"kind": ["logistic"]}},
    "number-kind": {"role": "propensity", "config": {"kind": 5}},
    "missing-kind": {"role": "quantile", "config": {"max_iter": 5}},
    "unknown-field": {"role": "regression", "config": {"kind": "logistic", "regularisation": 0.1}},
}


@pytest.mark.parametrize("case", _INPUT_ERRORS.values(), ids=_INPUT_ERRORS)
def test_bad_input_exits_2_with_one_line_and_writes_nothing(tmp_path, capsys, case):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    data = FIXTURE_CSV
    if "data" in case:
        data = inputs / "data.csv"
        data.write_text(case["data"])
    config = case.get("config")
    if "role" in case:
        config = {**_learner_config(), case["role"]: config}
    extra = []
    if config is not None:
        path = inputs / "learners.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        extra = ["--learner-config", path]
    out = outputs / "r.json"
    if case.get("out_is_dir"):
        out.mkdir(parents=True)
    lambdas = case.get("lambdas", ["--lambda", 1.5, "--lambda", 2])
    args = ["analyze", "--data", data, "--treatment", "z", "--outcome", "y", "--binary", *lambdas]
    assert run_cli([*args, "--seed", 7, "--out", out, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("msmbounds: input error:") and err.count("\n") == 1
    if "role" in case:
        assert repr(case["role"]) in err
    if case.get("out_is_dir"):
        # The output path, not the temporary file that was deleted.
        assert repr(str(out)) in err and ".tmp" not in err
    # No output, and no temporary file left beside the output path.
    left = sorted(p.name for p in outputs.rglob("*")) if outputs.exists() else []
    assert left == (["r.json"] if case.get("out_is_dir") else [])


# The CLI in a child process with 1 GB of address space and one OpenBLAS
# thread (whose buffers the limit must hold).
_BOUNDED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from msmbounds.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "args",
    [_ANALYZE_FIXTURE, ["coverage", "--spec", "benchmark_binary", "--reps", 2, "--n", 100]],
    ids=["analyze", "coverage"],
)
def test_a_lambda_grid_with_too_many_points_is_an_input_error(tmp_path, args):
    # 1:1e6:1e-6 has about 1e12 points.  Counted first, the grid is
    # rejected at once; made point by point, it ran until killed.  The
    # child's time and memory limits turn that into a failure here.
    out = tmp_path / "out.json"
    grid = "1:1e6:1e-6"
    cmd = [sys.executable, "-c", _BOUNDED_CLI, *map(str, args), "--lambda-grid", grid, "--seed", "1", "--out", str(out)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"msmbounds: input error: --lambda-grid allows at most 10000 points, got {grid!r}\n"
    assert list(tmp_path.iterdir()) == []


# A table whose every cell numpy's reader parses with float()'s bits:
# quoted, padded, signed, not-a-number, negative zero and overflowing cells.
_NUMPY_ROWS = [['"0.5"', "1", "nan"], [" 2 ", '"-0"', "1e400"], ["+.5", "0", '"-inf"'], ["-1.25e-3", "1", " 7"]]
# Cells that only float() accepts (10 and 3), so a table with them is read by the loop.
_LOOP_ROWS = [["1_0", "0", "\u0663"]]


def _table_file(path, rows, eol, bom):
    lines = ["x1,z,y", *(",".join(row) for row in rows)]
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + "".join(line + eol for line in lines).encode())
    return path


def _assert_same_table(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype == np.float64, name
        assert got[name].tobytes() == want[name].tobytes(), name


class TestReadTable:
    """numpy's C reader reads the table where it gives the loop's, and the loop reads the rest."""

    @staticmethod
    def loop(monkeypatch, path):
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_read_table_numpy", lambda raw: None)
            return read_table(path)

    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("rows", [_NUMPY_ROWS, _NUMPY_ROWS + _LOOP_ROWS], ids=["numpy", "loop"])
    def test_both_paths_give_float_bits(self, tmp_path, monkeypatch, rows, eol, bom):
        path = _table_file(tmp_path / "t.csv", rows, eol, bom)
        # float() on each cell, with the quotes that csv.reader strips.
        columns = zip(*([float(cell.replace('"', "")) for cell in row] for row in rows))
        want = {name: np.array(column) for name, column in zip(["x1", "z", "y"], columns)}
        took = cli._read_table_numpy(path.read_bytes())
        assert (took is not None) == (rows is _NUMPY_ROWS)
        _assert_same_table(read_table(path), want)
        _assert_same_table(self.loop(monkeypatch, path), want)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.1,1,0\n\n0.2,0,1", "row 1 has 0 cells, expected 3"),
            ("0.1,1,0\n0.2,0,1\n", "row 2 has 0 cells, expected 3"),
            ("0.1,1,0\n#,0,1", "row 1, column 'x1': '#' is not numeric"),
            ("0.1,1,0\n0.2,0", "row 1 has 2 cells, expected 3"),
            ("0.1,1,abc", "row 0, column 'y': 'abc' is not numeric"),
            # numpy's reader would strip the separator as whitespace.
            ("0.1\x1c,1,0", "row 0, column 'x1': '0.1\\x1c' is not numeric"),
        ],
        ids=["blank-line", "blank-last-line", "hash-cell", "short-row", "non-numeric-cell", "separator-cell"],
    )
    def test_a_rejected_table_raises_the_loops_message(self, tmp_path, rows, message, eol):
        path = tmp_path / "t.csv"
        path.write_bytes(f"x1,z,y\n{rows}\n".replace("\n", eol).encode())
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_table(path)


class TestCoverageCommand:
    @pytest.mark.parametrize(
        "name, args",
        [
            ("binary", ["--spec", "benchmark_binary", "--reps", 30, "--lambda", 1, "--lambda", 1.5,
                        "--lambda", 2, "--seed", 11]),
            ("continuous", ["--spec", "benchmark_continuous", "--estimand", "att", "--reps", 10,
                            "--lambda-grid", "1:2:0.5", "--seed", 12]),
        ],
    )
    def test_golden_bytes_serial_and_pooled(self, tmp_path, monkeypatch, name, args):
        # Pins the truths, the estimates, the standard errors and the layout
        # of the report and of the per-replication CSV.
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            out = tmp_path / f"r{workers}.json"
            assert run_cli(["coverage", *args, "--n", 300, "--folds", 3, "--out", out]) == 0
            assert out.read_bytes() == (FIXTURES / f"golden_coverage_{name}.json").read_bytes()
            assert out.with_suffix(".csv").read_bytes() == (FIXTURES / f"golden_coverage_{name}.csv").read_bytes()

    @pytest.mark.parametrize(
        "spec, wrong, message",
        [
            ("benchmark_binary", WRONG_ROLE_KINDS[0], "the propensity learner cannot be of kind 'pinball_linear'"),
            ("benchmark_binary", WRONG_ROLE_KINDS[1], "the quantile learner cannot be of kind 'ridge'"),
            ("benchmark_binary", WRONG_ROLE_KINDS[2], "the regression learner cannot be of kind 'pinball_linear'"),
            ("benchmark_continuous", {}, "logistic outcome regression needs a binary outcome, not a continuous one"),
        ],
        ids=["propensity", "quantile", "regression", "logistic-continuous"],
    )
    def test_learner_kind_error_exits_2_before_any_replication(self, tmp_path, capsys, monkeypatch, spec, wrong, message):
        # Rejected before the truths and the pool, not as "40 of 40
        # replications failed" after every replication has run.
        monkeypatch.setattr(coverage, "fork_map", None)
        monkeypatch.setattr(coverage, "true_sharp_bounds", None)
        path = tmp_path / "learners.json"
        path.write_text(json.dumps({**_learner_config(), **wrong}))
        out = tmp_path / "r.json"
        code = run_cli([
            "coverage", "--spec", spec, "--reps", 40, "--n", 200, "--lambda", 1.5,
            "--seed", 5, "--out", out, "--learner-config", path,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"msmbounds: input error: {message}")
        assert list(tmp_path.iterdir()) == [path]

    def test_report_and_csv(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "coverage", "--spec", "benchmark_binary", "--reps", 5, "--n", 250,
            "--lambda", 1, "--lambda", 2, "--seed", 99, "--out", out,
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert 0.0 <= cell["coverage"] <= 1.0
        per_rep = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(per_rep) == 1 + 5 * 2

    def test_deterministic_bytes(self, tmp_path, monkeypatch):
        # The same bytes from the serial loop and from a forced two-worker pool.
        args = [
            "coverage", "--spec", "benchmark_binary", "--reps", 4, "--n", 200,
            "--lambda", 1.5, "--seed", 5,
        ]
        outs = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            out = tmp_path / f"r{workers}.json"
            assert run_cli(args + ["--out", out]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].with_suffix(".csv").read_bytes() == outs[1].with_suffix(".csv").read_bytes()

    def test_threads_flag_is_gone(self, tmp_path):
        # The worker count is worked out from the CPUs; neither subcommand takes one.
        coverage_args = [
            "coverage", "--spec", "benchmark_binary", "--reps", 2, "--n", 200,
            "--lambda", 1.5, "--seed", 5, "--out", tmp_path / "r.json",
        ]
        analyze_args = TestAnalyzeCommand().analyze_args(tmp_path / "a.json")
        for args in (coverage_args, analyze_args):
            with pytest.raises(SystemExit) as info:
                run_cli(args + ["--threads", 2])
            assert info.value.code == 2

    @pytest.mark.parametrize("extra", [["--n", 3], ["--n", 200, "--folds", 1]])
    def test_bad_fold_count_exits_2(self, tmp_path, capsys, extra):
        code = run_cli([
            "coverage", "--spec", "benchmark_binary", "--reps", 50,
            "--lambda", 1.5, "--seed", 5, "--out", tmp_path / "r.json", *extra,
        ])
        assert code == 2
        assert "msmbounds: input error: fold count" in capsys.readouterr().err

    def test_bad_epsilon_exits_2(self, tmp_path, capsys):
        # Rejected before any replication runs, not as 40 failed ones.
        out = tmp_path / "r.json"
        code = run_cli([
            "coverage", "--spec", "benchmark_binary", "--reps", 40, "--n", 200,
            "--lambda", 1.5, "--epsilon", 0.7, "--seed", 5, "--out", out,
        ])
        assert code == 2
        assert capsys.readouterr().err == "msmbounds: input error: clip epsilon must lie in (0, 0.5), got 0.7\n"
        assert not out.exists()

    def test_zero_reps_exits_2(self, tmp_path):
        code = run_cli([
            "coverage", "--spec", "benchmark_binary", "--reps", 0, "--n", 200,
            "--lambda", 1.5, "--seed", 5, "--out", tmp_path / "r.json",
        ])
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "sim.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "msmbounds", "simulate", "--spec", "benchmark_binary",
             "--n", "10", "--seed", "3", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()
