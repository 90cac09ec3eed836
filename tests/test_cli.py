import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msmbounds import Estimand, sensitivity_params
from msmbounds import cli, coverage
from msmbounds.cli import _parse_lambdas, main, read_table
from msmbounds.estimator import crossfit_nuisances, estimate_bounds, split_folds, wald_bounds
from msmbounds.learners import KIND_FIELDS, ROLE_KINDS, default_bundle
from msmbounds.core import validate_dataset

from helpers import force_workers

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_CSV = FIXTURES / "binary_n300.csv"
GOLDEN_JSON = FIXTURES / "golden_analyze.json"
GOLDEN_CONTINUOUS_JSON = FIXTURES / "golden_analyze_continuous.json"


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

    def test_readme_lists_the_fields_each_kind_reads(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        rows = readme.split("| kind | fields it reads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        table = {}
        for row in rows.splitlines():
            kind, fields = (cell.strip() for cell in row.strip("|").split("|"))
            table[kind.strip("`")] = () if fields == "none" else tuple(f.strip(" `") for f in fields.split(","))
        assert table == KIND_FIELDS

    def test_readme_lists_the_kinds_each_role_accepts(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        rows = readme.split("| role | kinds it accepts |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        table = {}
        for row in rows.splitlines():
            role, kinds = (cell.strip() for cell in row.strip("|").split("|"))
            table[role.strip("`")] = tuple(kind.strip(" `") for kind in kinds.split(","))
        assert table == ROLE_KINDS

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
    @pytest.mark.parametrize("args", [["-c", "import msmbounds"], ["-m", "msmbounds", "--version"]])
    def test_scipy_stats_is_not_imported(self, args):
        # scipy.stats takes longer to import than the rest of the package.
        # -X importtime names every module the fresh interpreter imports.
        proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert "msmbounds" in modules
        assert not {m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")}

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "sim.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "msmbounds", "simulate", "--spec", "benchmark_binary",
             "--n", "10", "--seed", "3", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()
