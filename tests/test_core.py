import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import msmbounds
from helpers import force_workers
from oracles import DiscreteDist
from msmbounds import core, coverage, estimator, learners
from msmbounds import (
    DataError,
    Dataset,
    NuisanceSet,
    OutcomeKind,
    ParameterError,
    sensitivity_params,
    validate_dataset,
)


class TestSensitivityParams:
    def test_unconfounded_boundary(self):
        p = sensitivity_params(1.0)
        assert p.lam == 1.0
        assert p.tau == 0.5

    def test_direct_arithmetic(self):
        p = sensitivity_params(2.0)
        assert p.tau == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(ParameterError):
            sensitivity_params(bad)

    @given(st.floats(min_value=1.0, max_value=1e12), st.floats(min_value=1.0, max_value=1e12))
    @example(999966611683.0, 999966611684.0)  # distinct lambdas, equal taus
    @example(7.565469048855989, 7.565469048855991)  # the larger lambda's tau is 2 ulps smaller
    @settings(max_examples=200, deadline=None)
    def test_tau_monotone(self, lam1, lam2):
        # tau = lam / (lam + 1) rounds twice, so each computed tau lies
        # within 1.5 ulps of the exact one: a larger lam can give a tau up
        # to 2 ulps smaller, and tau is certainly larger once the exact
        # gap 1/(lo + 1) - 1/(hi + 1) exceeds 3 ulps.  All taus lie in
        # [0.5, 1), where one ulp is 2**-53.
        ulp = 2.0**-53
        lo, hi = sorted((lam1, lam2))
        t_lo = sensitivity_params(lo).tau
        t_hi = sensitivity_params(hi).tau
        assert 0.5 <= t_lo < 1.0 and 0.5 <= t_hi < 1.0
        assert t_lo <= t_hi + 2.0 * ulp
        # The gap as computed here is within 1.5 ulps of the exact one.
        if 1.0 / (lo + 1.0) - 1.0 / (hi + 1.0) > 8.0 * ulp:
            assert t_lo < t_hi

    def test_tau_approaches_one(self):
        assert sensitivity_params(1e15).tau > 1.0 - 1e-14

    @pytest.mark.parametrize("lam", [2.0**53, 1e16, 1e300])
    def test_a_tail_level_that_rounds_to_one_is_rejected(self, lam):
        # lam / (lam + 1) is exactly 1.0 here: no tail is left to bound.
        with pytest.raises(ParameterError, match=f"^odds-ratio bound {re.escape(repr(lam))} is too large"):
            sensitivity_params(lam)


@pytest.mark.parametrize(
    "check, message",
    [
        (sensitivity_params, "odds-ratio bound must be a finite real >= 1, got 'x'"),
        (core.check_alpha, "alpha must lie in (0, 1), got 'x'"),
        (core.check_epsilon, "clip epsilon must lie in (0, 0.5), got 'x'"),
    ],
    ids=["sensitivity-params", "alpha", "epsilon"],
)
def test_a_scalar_that_is_not_a_number_is_a_parameter_error(check, message):
    # Before, float() raised a bare ValueError.
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        check("x")


def test_a_lambda_grid_generator_is_named_in_full():
    # Before, the message read "got []": the generator was used up.
    with pytest.raises(ParameterError, match=re.escape("lambda values must be finite and >= 1, got [0.5]")):
        core.check_lambda_grid(x for x in [0.5])
    assert core.check_lambda_grid(x for x in [2.0, 1.0]) == (1.0, 2.0)


@pytest.mark.parametrize("grid", ["12", b"12"], ids=["str", "bytes"])
def test_a_string_is_not_a_lambda_grid(grid):
    # Before, "12" was read character by character as the grid (1.0, 2.0).
    with pytest.raises(ParameterError, match="^lambda values must be a sequence of real numbers, not the string"):
        core.check_lambda_grid(grid)


@pytest.mark.parametrize("grid", [[True, 2], (2.0, np.True_), np.array([True, False])], ids=["bool", "numpy-bool", "bool-array"])
def test_a_bool_is_not_a_lambda_value(grid):
    # Before, [True, 2] was the grid (1.0, 2.0).
    with pytest.raises(ParameterError, match="^lambda values must be real numbers, got"):
        core.check_lambda_grid(grid)


@pytest.mark.parametrize(
    "check, rule",
    [
        (sensitivity_params, "odds-ratio bound must be a finite real >= 1"),
        (core.check_alpha, "alpha must lie in (0, 1)"),
        (core.check_epsilon, "clip epsilon must lie in (0, 0.5)"),
    ],
    ids=["sensitivity-params", "alpha", "epsilon"],
)
@pytest.mark.parametrize("value", [True, False, np.True_], ids=["true", "false", "numpy-true"])
def test_a_bool_is_not_a_real_parameter(check, rule, value):
    # Before, sensitivity_params(True) was lambda 1.
    with pytest.raises(ParameterError, match=f"^{re.escape(rule)}, got {re.escape(repr(value))}$"):
        check(value)


@pytest.mark.parametrize(
    "check, rule, text",
    [
        (sensitivity_params, "odds-ratio bound must be a finite real >= 1", "2"),
        (core.check_alpha, "alpha must lie in (0, 1)", "0.2"),
        (core.check_epsilon, "clip epsilon must lie in (0, 0.5)", "0.2"),
    ],
    ids=["sensitivity-params", "alpha", "epsilon"],
)
@pytest.mark.parametrize("kind", [str, str.encode, np.str_], ids=["str", "bytes", "numpy-str"])
def test_a_numeric_string_is_not_a_real_parameter(check, rule, text, kind):
    # Before, each was read as the number it spells (sensitivity_params("2")
    # was lambda 2), while the integer checks already refused "2".
    value = kind(text)
    with pytest.raises(ParameterError, match=f"^{re.escape(rule)}, got {re.escape(repr(value))}$"):
        check(value)


@pytest.mark.parametrize("grid", [["1", "2"], (1.5, b"2")], ids=["str", "bytes"])
def test_a_numeric_string_is_not_a_lambda_value(grid):
    # Before, ["1", "2"] was the grid (1.0, 2.0).
    with pytest.raises(ParameterError, match=f"^lambda values must be real numbers, got {re.escape(repr(list(grid)))}$"):
        core.check_lambda_grid(grid)


# An int that float() cannot convert: it raises OverflowError.
_HUGE = 10**400


@pytest.mark.parametrize(
    "check, rule",
    [
        (sensitivity_params, "odds-ratio bound must be a finite real >= 1"),
        (core.check_alpha, "alpha must lie in (0, 1)"),
        (core.check_epsilon, "clip epsilon must lie in (0, 0.5)"),
        (lambda epsilon: learners.clip_propensity(0.5, epsilon), "clip epsilon must lie in (0, 0.5)"),
    ],
    ids=["sensitivity-params", "alpha", "epsilon", "clip-propensity"],
)
def test_an_integer_too_large_for_a_float_is_a_parameter_error(check, rule):
    # Before, each raised a bare OverflowError.
    with pytest.raises(ParameterError, match=f"^{re.escape(rule)}, got {_HUGE}$"):
        check(_HUGE)


def test_an_integer_too_large_for_a_float_is_no_lambda_value():
    # Before, a bare OverflowError.
    with pytest.raises(ParameterError, match=f"^lambda values must be real numbers, got \\[{_HUGE}\\]$"):
        core.check_lambda_grid([_HUGE])


def test_a_sequence_is_not_a_real_parameter():
    with pytest.raises(ParameterError, match=re.escape("alpha must lie in (0, 1), got [0.1]")):
        core.check_alpha([0.1])


def test_a_daemonic_process_maps_serially(monkeypatch):
    # The rule without fork is in tests/test_coverage.py::TestPooledReplications::test_worker_count.
    force_workers(monkeypatch, 2)
    assert core._worker_count(10) == 2
    monkeypatch.setattr(multiprocessing, "current_process", lambda: type("Daemonic", (), {"daemon": True})())
    assert core._worker_count(10) == 1


def test_the_package_exports_each_module_list_once():
    modules = (core, learners, estimator, coverage)
    assert msmbounds.__all__ == ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(set(msmbounds.__all__)) == len(msmbounds.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(msmbounds, name) is getattr(module, name), name


def test_the_readme_lists_each_module_list():
    # One README line per module, "- `name`: `a`, `b`.", in __all__ order.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Public names\n", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for line in section.splitlines():
        module, names = re.fullmatch(r"- `(\w+)`: (.*)\.", line).groups()
        listed[module] = re.findall(r"`(\w+)`", names)
    modules = (core, learners, estimator, coverage)
    assert listed == {module.__name__.rsplit(".", 1)[1]: module.__all__ for module in modules}


class TestValidateDataset:
    def table(self):
        return {
            "a": np.array([0.1, -0.2, 0.3]),
            "b": np.array([1.0, 2.0, 3.0]),
            "z": np.array([0.0, 1.0, 1.0]),
            "y": np.array([0.5, -0.5, 2.0]),
        }

    def test_well_formed(self):
        ds = validate_dataset(
            self.table(), treatment="z", outcome="y", covariates=["a", "b"], outcome_kind="continuous"
        )
        assert ds.n == 3 and ds.d == 2
        assert ds.outcome_kind is OutcomeKind.CONTINUOUS

    @pytest.mark.parametrize("covariates", ["ab", b"ab"], ids=["str", "bytes"])
    def test_a_string_is_not_a_covariate_list(self, covariates):
        # Before, "ab" fitted on the columns "a" and "b", which this table has.
        with pytest.raises(DataError, match="^covariates must be a sequence of column names, not the string"):
            validate_dataset(self.table(), treatment="z", outcome="y", covariates=covariates, outcome_kind="continuous")

    def test_covariates_may_be_an_iterator(self):
        # Before, a generator passed every check, was used up by them, and
        # numpy then found no covariate column to stack.
        ds = validate_dataset(
            self.table(), treatment="z", outcome="y", covariates=(c for c in ["a", "b"]), outcome_kind="continuous"
        )
        np.testing.assert_array_equal(ds.covariates, np.column_stack([self.table()["a"], self.table()["b"]]))

    @pytest.mark.parametrize(
        "roles, bad",
        [
            ({"treatment": ["z"]}, ["z"]),
            ({"outcome": {"y": 1}}, {"y": 1}),
            ({"covariates": ["a", ["b"]]}, ["b"]),
        ],
        ids=["treatment", "outcome", "covariate"],
    )
    def test_an_unhashable_column_name_is_a_data_error(self, roles, bad):
        # Before, set() raised a bare TypeError.
        kwargs = {"treatment": "z", "outcome": "y", "covariates": ["a"], **roles}
        with pytest.raises(DataError, match=f"^column name {re.escape(repr(bad))} is not hashable$"):
            validate_dataset(self.table(), outcome_kind="continuous", **kwargs)

    def test_bad_treatment_value(self):
        t = self.table()
        t["z"] = np.array([0.0, 2.0, 1.0])
        with pytest.raises(DataError, match="treatment"):
            validate_dataset(t, treatment="z", outcome="y", covariates=["a"], outcome_kind="continuous")

    def test_binary_outcome_domain(self):
        t = self.table()
        with pytest.raises(DataError, match="binary"):
            validate_dataset(t, treatment="z", outcome="y", covariates=["a"], outcome_kind="binary")

    def test_missing_cell_names_row_and_column(self):
        t = self.table()
        t["b"] = np.array([1.0, np.nan, 3.0])
        with pytest.raises(DataError, match=r"'b'.*row 1"):
            validate_dataset(t, treatment="z", outcome="y", covariates=["a", "b"], outcome_kind="continuous")

    def test_missing_column(self):
        with pytest.raises(DataError, match="'q'"):
            validate_dataset(self.table(), treatment="z", outcome="y", covariates=["q"], outcome_kind="continuous")

    def test_an_unknown_outcome_kind(self):
        # It used to raise a bare ValueError from the enum.
        message = "unknown OutcomeKind 'bin'; expected one of ['continuous', 'binary']"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            validate_dataset(self.table(), treatment="z", outcome="y", covariates=["a"], outcome_kind="bin")

    def test_role_overlap(self):
        with pytest.raises(DataError, match="overlap"):
            validate_dataset(self.table(), treatment="z", outcome="z", covariates=["a"], outcome_kind="continuous")

    def test_round_trip_identity(self):
        ds = validate_dataset(
            self.table(), treatment="z", outcome="y", covariates=["a", "b"], outcome_kind="continuous"
        )
        back = validate_dataset(
            ds.to_table(), treatment="z", outcome="y", covariates=["x1", "x2"], outcome_kind="continuous"
        )
        np.testing.assert_array_equal(back.covariates, ds.covariates)
        np.testing.assert_array_equal(back.treatment, ds.treatment)
        np.testing.assert_array_equal(back.outcome, ds.outcome)

    def test_immutability(self):
        ds = validate_dataset(
            self.table(), treatment="z", outcome="y", covariates=["a"], outcome_kind="continuous"
        )
        with pytest.raises(ValueError):
            ds.outcome[0] = 99.0


    @pytest.mark.parametrize(
        "covariates, change, message",
        [
            ([], {}, "at least one covariate column is required"),
            (["a", "b"], {"b": ["1", "x", "2"]}, "column 'b' is not numeric"),
            (["a", "b"], {"b": np.ones((3, 2))}, "column 'b' must be one-dimensional"),
            (["a", "b"], {"b": np.array([1.0, 2.0])}, "column 'b' has 2 rows, expected 3"),
        ],
        ids=["no-covariates", "non-numeric", "2-d-column", "unequal-lengths"],
    )
    def test_table_checks(self, covariates, change, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            validate_dataset(
                {**self.table(), **change}, treatment="z", outcome="y", covariates=covariates,
                outcome_kind="continuous",
            )


class TestDataset:
    def test_a_covariate_vector_is_one_column(self):
        ds = Dataset([0.5, -0.5, 1.5], [0, 1, 1], [0.0, 1.0, 2.0], OutcomeKind.CONTINUOUS)
        assert ds.d == 1
        np.testing.assert_array_equal(ds.covariates, [[0.5], [-0.5], [1.5]])

    @pytest.mark.parametrize(
        "covariates, treatment, outcome, message",
        [
            (np.zeros((3, 1, 1)), [0, 1, 1], [0.0, 1.0, 2.0], "covariates must be a nonempty 2-d matrix, got shape (3, 1, 1)"),
            (np.zeros((3, 1)), [0, 1], [0.0, 1.0, 2.0], "row-count mismatch: covariates 3, treatment (2,), outcome (3,)"),
            ([[0.0], [np.inf], [1.0]], [0, 1, 1], [0.0, 1.0, 2.0], "non-finite covariate at row 1, column 0"),
            (np.zeros((3, 1)), [0, np.nan, 1], [0.0, 1.0, 2.0], "non-finite treatment value"),
            (np.zeros((3, 1)), [0, 1, 1], [0.0, 1.0, np.nan], "non-finite outcome at row 2"),
        ],
        ids=["3-d-covariates", "row-count", "covariate-inf", "treatment-nan", "outcome-nan"],
    )
    def test_checks(self, covariates, treatment, outcome, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            Dataset(covariates, treatment, outcome, OutcomeKind.CONTINUOUS)


class TestNuisanceSet:
    def test_shape_and_domain_checks(self):
        ok = NuisanceSet(
            e_hat=np.array([0.5, 0.4]),
            q_plus=np.zeros((2, 2)),
            q_minus=np.zeros((2, 2)),
            rho_plus=np.zeros((2, 2)),
            rho_minus=np.zeros((2, 2)),
        )
        assert ok.n == 2
        with pytest.raises(DataError):
            NuisanceSet(
                e_hat=np.array([0.5, 1.0]),
                q_plus=np.zeros((2, 2)),
                q_minus=np.zeros((2, 2)),
                rho_plus=np.zeros((2, 2)),
                rho_minus=np.zeros((2, 2)),
            )
        with pytest.raises(DataError):
            NuisanceSet(
                e_hat=np.array([0.5, 0.5]),
                q_plus=np.zeros((3, 2)),
                q_minus=np.zeros((2, 2)),
                rho_plus=np.zeros((2, 2)),
                rho_minus=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"e_hat": np.array([])}, "e_hat must be a nonempty vector, got shape (0,)"),
            ({"q_minus": np.array([[0.0, np.nan], [0.0, 0.0]])}, "q_minus contains non-finite values"),
            ({"rho_plus": np.array([[0.0, 0.0], [np.inf, 0.0]])}, "rho_plus contains non-finite values"),
        ],
        ids=["empty-e_hat", "q-nan", "rho-inf"],
    )
    def test_array_checks(self, change, message):
        fields = {"e_hat": np.array([0.5, 0.4]), **{name: np.zeros((2, 2)) for name in ("q_plus", "q_minus", "rho_plus", "rho_minus")}}
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            NuisanceSet(**{**fields, **change})


_NUISANCES = {"e_hat": [0.5, 0.4], **{name: np.zeros((2, 2)) for name in ("q_plus", "q_minus", "rho_plus", "rho_minus")}}


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Dataset([["a"], ["b"]], [0, 1], [1.0, 2.0], "continuous"), "covariates"),
        (lambda: Dataset([[0.0], [1.0]], ["a", "b"], [1.0, 2.0], "continuous"), "treatment"),
        (lambda: Dataset([[0.0], [1.0]], [0, 1], ["a", "b"], "continuous"), "outcome"),
        (lambda: NuisanceSet(**{**_NUISANCES, "e_hat": ["a", "b"]}), "e_hat"),
        (lambda: NuisanceSet(**{**_NUISANCES, "q_plus": [[0.0, 0.0], [0.0]]}), "q_plus"),
        (lambda: DiscreteDist(["a"], [1.0]), "atoms"),
        (lambda: DiscreteDist([1.0], ["a"]), "weights"),
    ],
    ids=["covariates", "treatment", "outcome", "e_hat", "ragged-q_plus", "atoms", "weights"],
)
def test_non_numeric_container_input_is_a_data_error(build, field):
    # Before, numpy's bare ValueError.
    with pytest.raises(DataError, match=f"^{field} is not numeric: "):
        build()


def test_a_cell_too_large_for_a_float_is_not_numeric():
    # Before, a bare OverflowError.
    table = {"a": [1.0, 2.0], "z": [0, 1], "y": [_HUGE, 1.0]}
    with pytest.raises(DataError, match="^column 'y' is not numeric: "):
        validate_dataset(table, treatment="z", outcome="y", covariates=["a"], outcome_kind="continuous")


def test_a_covariate_list_must_be_iterable():
    with pytest.raises(DataError, match="^covariates must be a sequence of column names, got 5$"):
        validate_dataset({"z": [0, 1], "y": [0.0, 1.0]}, treatment="z", outcome="y", covariates=5, outcome_kind="continuous")
