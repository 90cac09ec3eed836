import dataclasses
import hashlib
import pickle
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_dataset
from oracles import cvar, frisch_newton, step_length, transformed_outcome
from msmbounds import learners
from msmbounds import (
    ConvergenceError,
    Dataset,
    DiscreteDist,
    FitError,
    GenerativeSpec,
    LearnerBundle,
    LearnerSpec,
    OutcomeKind,
    ParameterError,
    binary_nuisances,
    check_regression_kind,
    clip_propensity,
    default_bundle,
    fit_mean,
    fit_propensity,
    fit_quantile,
    fit_rho,
    sensitivity_params,
    simulate,
    split_folds,
)

P2 = sensitivity_params(2.0)

def toy_dataset(n=100, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2))
    z = (x[:, 0] > 0).astype(int)
    y = x[:, 0] + rng.standard_normal(n)
    return Dataset(x, z, y, OutcomeKind.CONTINUOUS)


class TestSharedDesign:
    @pytest.mark.parametrize("expansion", ["raw", "interactions"])
    def test_rows_of_the_shared_design_equal_their_own_design(self, expansion):
        # Every linear fit slices the design built once per dataset; the
        # slice must carry the bits of the design built from those rows.
        data = random_dataset(np.random.default_rng(11), 200, binary=False)
        rng = np.random.default_rng(12)
        for size in (1, 7, 100, 200):
            rows = np.sort(rng.choice(data.n, size, replace=False))
            own = learners._design(data.covariates[rows], expansion)
            assert learners._design_of(data, expansion)[rows].tobytes() == own.tobytes()
            assert learners._design_of(data, expansion)[rows, 1:].tobytes() == own[:, 1:].tobytes()
        assert learners._design_of(data, expansion) is learners._design_of(data, expansion)

    @pytest.mark.parametrize("expansion", ["raw", "interactions"])
    def test_predict_rows_equals_predict_on_the_rows(self, expansion):
        # The sweep's predictions read rows of the shared design; each must
        # carry the bits of predict on those rows' covariates, whatever kind.
        data = random_dataset(np.random.default_rng(14), 300, binary=False)
        binary = random_dataset(np.random.default_rng(15), 300, binary=True)
        train, rows = np.arange(200), np.arange(200, 300)
        # Only the linear kinds read the expansion.
        spec = partial(LearnerSpec, feature_expansion=expansion)
        ridge, constant = spec(kind="ridge"), LearnerSpec(kind="constant")
        params = sensitivity_params(2.0)
        q_hat = fit_quantile(data, train, 1, params.tau, spec(kind="pinball_linear"))
        inject = LearnerSpec(kind="oracle_injection", inject=lambda x, arm, a: x[:, 0] * a)
        # (dataset, fit, whether it maps design rows)
        fits = [
            (binary, fit_propensity(binary, train, spec(kind="logistic")), True),
            (binary, fit_mean(binary, train, 1, spec(kind="logistic")), True),
            (data, fit_mean(data, train, 1, ridge), True),
            (data, fit_mean(data, train, 1, constant), False),
            (data, q_hat, True),
            (data, fit_quantile(data, train, 1, params.tau, constant), False),
            (data, fit_quantile(data, train, 1, params.tau, inject), False),
            (data, fit_rho(data, train, 1, q_hat, params, "+", ridge), True),
            (data, fit_rho(data, train, 1, q_hat, params, "-", constant), False),
        ]
        for dataset, fit, maps_design in fits:
            assert (fit.expansion is not None) == maps_design, fit.kind
            want = fit.predict(dataset.covariates[rows])
            assert fit.predict_rows(dataset, rows).tobytes() == want.tobytes(), fit.kind

    @pytest.mark.parametrize(
        "tail, mean",
        [("ridge", "constant"), ("constant", "ridge"), ("ridge", "ridge-raw")],
    )
    def test_fit_rho_mixes_only_a_mean_of_the_tail_fits_expansion(self, tail, mean):
        # The mixture is one map over the rows both models read; a mean
        # model that reads other rows is an input error, not a second path.
        data = random_dataset(np.random.default_rng(14), 300, binary=False)
        train = np.arange(200)
        params = sensitivity_params(2.0)
        q_hat = fit_quantile(data, train, 1, params.tau, LearnerSpec(kind="constant"))
        mean_spec = LearnerSpec(kind="ridge", feature_expansion="raw") if mean == "ridge-raw" else LearnerSpec(kind=mean)
        mu_model = fit_mean(data, train, 1, mean_spec)
        with pytest.raises(ParameterError, match="^mu_model expansion .* differs from the tail fit's"):
            fit_rho(data, train, 1, q_hat, params, "+", LearnerSpec(kind=tail), mu_model)
        # A refit, or the caller's fit_mean with the same spec, always matches.
        same = fit_mean(data, train, 1, LearnerSpec(kind=tail))
        got = fit_rho(data, train, 1, q_hat, params, "+", LearnerSpec(kind=tail), same)
        want = fit_rho(data, train, 1, q_hat, params, "+", LearnerSpec(kind=tail))
        assert got.predict_rows(data, train).tobytes() == want.predict_rows(data, train).tobytes()

    def test_unknown_expansion(self):
        with pytest.raises(ParameterError, match="^unknown feature expansion 'cubic'"):
            learners.expand_features(np.zeros((2, 2)), "cubic")

    def test_interactions_equal_the_pairwise_loop(self):
        x = np.random.default_rng(13).normal(size=(9, 4))
        loop = [x] + [(x[:, i] * x[:, j])[:, None] for i in range(4) for j in range(i, 4)]
        assert learners.expand_features(x, "interactions").tobytes() == np.hstack(loop).tobytes()


class TestSpecFields:
    @pytest.mark.parametrize(
        "fields",
        [{"max_iter": "5"}, {"max_iter": 2.5}, {"max_iter": True}, {"regularization": "0.1"},
         {"regularization": False}, {"tol": None}],
    )
    def test_wrong_type_is_a_parameter_error(self, fields):
        with pytest.raises(ParameterError, match=next(iter(fields))):
            LearnerSpec(kind="logistic", **fields)

    @pytest.mark.parametrize("field, rule", [("regularization", ">= 0"), ("tol", "> 0")])
    def test_an_integer_too_large_for_a_float_is_a_parameter_error(self, field, rule):
        # Before, a bare TypeError from np.isfinite.
        with pytest.raises(ParameterError, match=f"^{field} must be {rule}, got {10**400}$"):
            LearnerSpec(kind="logistic", **{field: 10**400})

    def test_the_numbers_are_held_as_a_float_and_an_int(self):
        spec = LearnerSpec(kind="logistic", regularization=0, max_iter=np.int64(5), tol=1)
        assert [(type(v), v) for v in (spec.regularization, spec.max_iter, spec.tol)] == [(float, 0.0), (int, 5), (float, 1.0)]

    def test_numpy_numbers_are_accepted(self):
        spec = LearnerSpec(kind="logistic", regularization=np.float64(0.1), max_iter=np.int64(5), tol=1)
        assert spec.max_iter == 5

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"kind": "pinball_linear", "regularization": 5.0}, "regularization"),
            ({"kind": "constant", "feature_expansion": "raw", "regularization": 3.0}, "regularization"),
            ({"kind": "ridge", "tol": 1e-3, "max_iter": 7}, "max_iter"),
            ({"kind": "logistic", "inject": lambda x: x[:, 0]}, "inject"),
        ],
        ids=["pinball-regularization", "constant-fields", "ridge-iteration", "logistic-inject"],
    )
    def test_a_field_the_kind_does_not_read_is_a_parameter_error(self, fields, field):
        # Each used to be accepted and then ignored.
        reads = list(learners.KIND_DEFAULTS[fields["kind"]])
        message = f"field {field!r} is not read by kind {fields['kind']!r}, which reads {reads}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            LearnerSpec(**fields)

    def test_a_field_not_given_takes_the_kind_default(self):
        spec = LearnerSpec(kind="ridge")
        assert spec == LearnerSpec(kind="ridge", regularization=1e-2, feature_expansion="interactions")
        assert (spec.max_iter, spec.tol, spec.inject) == (None, None, None)
        for kind, defaults in learners.KIND_DEFAULTS.items():
            if kind != "oracle_injection":
                assert {name: getattr(LearnerSpec(kind=kind), name) for name in defaults} == defaults

    def test_the_unread_fields_of_a_constant_spec_are_none(self):
        spec = LearnerSpec(kind="constant")
        names = ("regularization", "max_iter", "tol", "feature_expansion", "inject")
        assert [getattr(spec, name) for name in names] == [None] * 5

    def test_replace_sets_a_field_the_kind_reads(self):
        # replace passes every field back, so an unread field arrives as its stored None.
        values = {"regularization": 0.5, "max_iter": 7, "tol": 1e-3, "feature_expansion": "raw", "inject": np.cos}
        for kind, defaults in learners.KIND_DEFAULTS.items():
            base = LearnerSpec(kind=kind, inject=np.sin) if kind == "oracle_injection" else LearnerSpec(kind=kind)
            for name in defaults:
                given = {field: getattr(base, field) for field in defaults} | {name: values[name]}
                assert dataclasses.replace(base, **{name: values[name]}) == LearnerSpec(kind=kind, **given)
            assert dataclasses.replace(base) == base
        with pytest.raises(ParameterError, match="^field 'max_iter' is not read by kind 'ridge'"):
            dataclasses.replace(LearnerSpec(kind="ridge"), max_iter=7)


    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "foo"}, "unknown learner kind 'foo'"),
            ({"regularization": -0.1}, "regularization must be >= 0, got -0.1"),
            ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
            ({"tol": 0.0}, "tol must be > 0, got 0.0"),
            ({"feature_expansion": "cubic"}, "unknown feature expansion 'cubic'"),
            ({"kind": "oracle_injection"}, "oracle_injection requires an inject callable"),
            # Accepted at one time, to fail inside the fit with a bare TypeError.
            ({"kind": "oracle_injection", "inject": "f"}, "oracle_injection requires an inject callable"),
        ],
        ids=["unknown-kind", "negative-regularization", "max-iter-0", "tol-0", "unknown-expansion", "no-inject",
             "inject-not-callable"],
    )
    def test_out_of_range_is_a_parameter_error(self, fields, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
            LearnerSpec(**{"kind": "logistic", **fields})


class TestRoleKinds:
    @pytest.mark.parametrize(
        "role, kind",
        [("propensity", "pinball_linear"), ("propensity", "ridge"), ("quantile", "ridge"),
         ("quantile", "logistic"), ("regression", "pinball_linear")],
    )
    def test_bundle_rejects_a_kind_its_role_does_not_accept(self, role, kind):
        roles = {"propensity": LearnerSpec(kind="logistic"), "quantile": LearnerSpec(kind="pinball_linear"),
                 "regression": LearnerSpec(kind="ridge")}
        roles[role] = LearnerSpec(kind=kind)
        with pytest.raises(ParameterError, match=f"the {role} learner cannot be of kind {kind!r}"):
            LearnerBundle(**roles)

    @pytest.mark.parametrize("fit", ["mean", "rho"])
    def test_logistic_regression_needs_a_binary_outcome(self, fit):
        # A continuous arm of 0/1 values is still a continuous outcome.
        data = toy_dataset(40, seed=5)
        data = Dataset(data.covariates, data.treatment, (data.outcome > 0).astype(float), OutcomeKind.CONTINUOUS)
        spec = LearnerSpec(kind="logistic")
        q_hat = fit_quantile(data, np.arange(data.n), 1, 0.5, LearnerSpec(kind="constant"))
        with pytest.raises(ParameterError, match="logistic outcome regression needs a binary outcome"):
            if fit == "mean":
                fit_mean(data, np.arange(data.n), 1, spec)
            else:
                fit_rho(data, np.arange(data.n), 1, q_hat, P2, "+", spec)


    def test_default_bundle_of_an_unknown_outcome_kind(self):
        with pytest.raises(ParameterError, match="^unknown OutcomeKind 'bin'; expected one of"):
            default_bundle("bin")

    def test_a_quantile_kind_fits_no_outcome_regression(self):
        with pytest.raises(ParameterError, match="^learner kind 'pinball_linear' cannot fit an outcome regression"):
            check_regression_kind(LearnerSpec(kind="pinball_linear"), "continuous")

    def test_a_propensity_kind_fits_no_quantile(self):
        data = toy_dataset(40, seed=5)
        with pytest.raises(ParameterError, match="^learner kind 'logistic' cannot fit a quantile model"):
            fit_quantile(data, np.arange(data.n), 1, 0.5, LearnerSpec(kind="logistic"))


_ROW_FAULTS = {
    # (rows, arm, message) on a 40-row dataset
    "mask": (np.arange(40) < 30, 1, "integer row indices, got shape (40,) of bool"),
    "index n": (np.array([0, 1, 40]), 1, "training row index 40 is outside [0, 40)"),
    "negative index": (np.array([-1, 0, 1]), 1, "training row index -1 is outside [0, 40)"),
    "arm 2": (np.arange(40), 2, "arm must be 0 or 1, got 2"),
}


@pytest.mark.parametrize("injected", [False, True], ids=["built-in", "injected"])
@pytest.mark.parametrize(
    "fit, fault",
    [(fit, fault) for fit in ("propensity", "mean", "quantile", "rho") for fault in _ROW_FAULTS
     if (fit, fault) != ("propensity", "arm 2")],
)
def test_every_fit_checks_its_training_rows_and_arm(fit, fault, injected):
    # One check for all four fits: a mask is no index array, an index must
    # not wrap or overrun, and the arm is an input error, never a fit error.
    data = toy_dataset(40, seed=6)
    rows, arm, message = _ROW_FAULTS[fault]
    kind = {"propensity": "logistic", "mean": "ridge", "quantile": "pinball_linear", "rho": "ridge"}[fit]
    if injected:
        spec = LearnerSpec(kind="oracle_injection", inject=lambda x, *args: np.full(x.shape[0], 0.5))
    else:
        spec = LearnerSpec(kind=kind)
    q_hat = fit_quantile(data, np.arange(data.n), 1, 0.5, LearnerSpec(kind="constant"))
    with pytest.raises(ParameterError, match=re.escape(message)):
        if fit == "propensity":
            fit_propensity(data, rows, spec)
        elif fit == "mean":
            fit_mean(data, rows, arm, spec)
        elif fit == "quantile":
            fit_quantile(data, rows, arm, 0.5, spec)
        else:
            fit_rho(data, rows, arm, q_hat, P2, "+", spec)


class TestPropensity:
    def test_separable_recovers_direction(self):
        data = toy_dataset(100, seed=1)
        model = fit_propensity(data, np.arange(data.n), LearnerSpec(kind="logistic"))
        pred = model.predict(data.covariates)
        # Directional recovery: correct side everywhere outside a thin
        # penalization-width band around the boundary, and predictions
        # monotone in the separating coordinate.
        clear = np.abs(data.covariates[:, 0]) > 0.1
        assert np.all((pred[clear] >= 0.5) == (data.covariates[clear, 0] > 0))
        grid = np.column_stack([np.linspace(-1, 1, 21), np.zeros(21)])
        assert np.all(np.diff(model.predict(grid)) > 0)

    def test_constant_is_sample_mean(self):
        data = toy_dataset(80, seed=2)
        model = fit_propensity(data, np.arange(data.n), LearnerSpec(kind="constant"))
        pred = model.predict(np.zeros((5, 2)))
        np.testing.assert_allclose(pred, data.treatment.mean())

    def test_degenerate_arm(self):
        data = toy_dataset(50, seed=3)
        treated = np.where(data.treatment == 1)[0]
        with pytest.raises(FitError, match="treated"):
            fit_propensity(data, treated, LearnerSpec(kind="logistic"))

    def test_empty_and_all_control_rows(self):
        data = toy_dataset(40, seed=1)
        spec = LearnerSpec(kind="logistic")
        with pytest.raises(FitError, match="^propensity fit needs a nonempty training set"):
            fit_propensity(data, np.array([], dtype=int), spec)
        control = np.flatnonzero(data.treatment == 0)
        with pytest.raises(FitError, match="^degenerate propensity fit: all training rows are control"):
            fit_propensity(data, control, spec)

    def test_wrong_kind(self):
        data = toy_dataset(50, seed=3)
        with pytest.raises(ParameterError):
            fit_propensity(data, np.arange(data.n), LearnerSpec(kind="ridge"))


# sha256 of the weight bytes of the default binary bundle's logistic fits
# (propensity, arm-0 mean, arm-1 mean) on fold 0's training rows of a
# benchmark_binary draw (seed 7) split by split_folds(n, 5, 1), as the
# Newton loop gave them.  A faster loop must keep these bits.
LOGISTIC_WEIGHT_SHA256 = {
    1000: (
        "af75bab6736102063625693d1912cf4c68af4f3a23f9fbf58182106e7a61f1d3",
        "990bf4f1ab140553a09eed2b926d4c65c3e00c640f1292e6684515acdf9502e9",
        "b2e52a77e0dfbf5032160a5138ad7c1982f1cad051765928c1ef85bab970f437",
    ),
    20000: (
        "3d9011ac931ff4868efe8d816b1da0bf4693cb65bc05e6d95c2c5c84fd75898f",
        "1412a28d2fad27d5dc661faa7cdc0bd69404a4a4c34f28cbc85d301a85f4ab26",
        "3ed5b20be250eebfb4ad69cc8a5efd7e53ad2a183848e9af0855965464e76ebf",
    ),
}


@pytest.mark.parametrize("n", sorted(LOGISTIC_WEIGHT_SHA256))
def test_logistic_weights_bit_for_bit(n):
    data = simulate(GenerativeSpec("benchmark_binary"), n, 7)
    rows = np.flatnonzero(split_folds(n, 5, 1).assignments != 0)
    bundle = default_bundle(OutcomeKind.BINARY)
    fits = [fit_propensity(data, rows, bundle.propensity)]
    fits += [fit_mean(data, rows, arm, bundle.regression) for arm in (0, 1)]
    digests = tuple(hashlib.sha256(fit.fn.args[0].tobytes()).hexdigest() for fit in fits)
    assert digests == LOGISTIC_WEIGHT_SHA256[n]


class TestClip:
    @pytest.mark.parametrize(
        "value,eps,expected", [(0.001, 0.01, 0.01), (0.5, 0.01, 0.5), (0.9999, 0.02, 0.98)]
    )
    def test_examples(self, value, eps, expected):
        assert clip_propensity(value, eps) == pytest.approx(expected, abs=1e-15)

    def test_bad_epsilon(self):
        with pytest.raises(ParameterError):
            clip_propensity(0.5, 0.7)


class TestQuantile:
    def test_median_of_linear_model(self):
        rng = np.random.default_rng(10)
        n = 5000
        x = rng.uniform(-2, 2, size=(n, 1))
        y = x[:, 0] + rng.standard_normal(n)
        data = Dataset(x, np.ones(n, dtype=int), y, OutcomeKind.CONTINUOUS)
        model = fit_quantile(data, np.arange(n), 1, 0.5, LearnerSpec(kind="pinball_linear"))
        grid = np.linspace(-2, 2, 41)[:, None]
        err = np.mean(np.abs(model.predict(grid) - grid[:, 0]))
        assert err <= 0.15

    def test_constant_empirical_quantile(self):
        y = np.array([1.0, 2.0, 3.0] * 10)
        data = Dataset(np.zeros((30, 1)), np.ones(30, dtype=int), y, OutcomeKind.CONTINUOUS)
        model = fit_quantile(data, np.arange(30), 1, 0.5, LearnerSpec(kind="constant"))
        np.testing.assert_allclose(model.predict(np.zeros((4, 1))), 2.0)

    def test_alpha_domain(self):
        data = toy_dataset(20, seed=4)
        with pytest.raises(ParameterError):
            fit_quantile(data, np.arange(data.n), 1, 1.5, LearnerSpec(kind="pinball_linear"))

    def test_empty_arm(self):
        data = toy_dataset(20, seed=4)
        control = np.where(data.treatment == 0)[0]
        with pytest.raises(FitError):
            fit_quantile(data, control, 1, 0.5, LearnerSpec(kind="constant"))


class TestQuantileLevels:
    """A sequence of levels is one batched fit that equals per-level fits."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=60, max_value=300),
        arm=st.sampled_from([0, 1]),
        # pinball_linear, the interior-point solver, is drawn half the time.
        kind=st.sampled_from(["pinball_linear", "pinball_linear", "constant", "oracle_injection"]),
        # (max_iter, tol): levels stop after different numbers of Newton
        # steps, the more so the tighter the gap; every schedule converges.
        schedule=st.sampled_from([(500, 1e-8), (500, 1e-12), (500, 1e-3), (40, 1e-6)]),
        levels=st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_single_fits(self, seed, n, arm, kind, schedule, levels):
        data = random_dataset(np.random.default_rng(seed), n, binary=False)
        max_iter, tol = schedule
        given = {"max_iter": max_iter, "tol": tol, "inject": lambda x, arm, alpha: alpha * x[:, 0] + arm}
        # Each kind gets the fields it reads; no drawn kind reads regularization.
        spec = LearnerSpec(kind=kind, **{name: given[name] for name in learners.KIND_DEFAULTS[kind] if name in given})
        rows = np.arange(data.n)
        fits = fit_quantile(data, rows, arm, levels, spec)
        assert len(fits) == len(levels)
        for alpha, fit in zip(levels, fits):
            single = fit_quantile(data, rows, arm, alpha, spec)
            assert np.array_equal(fit.predict(data.covariates), single.predict(data.covariates))

    @pytest.mark.parametrize("kind", ["pinball_linear", "constant"])
    def test_predictors_survive_a_pickle_round_trip(self, kind):
        # The sweep's pool sends fits back from its workers by pickle.
        data = random_dataset(np.random.default_rng(31), 200, binary=False)
        x = np.random.default_rng(32).normal(size=(40, 3))
        for arm in (0, 1):
            fits = fit_quantile(data, np.arange(150), arm, [0.25, 0.5, 0.75], LearnerSpec(kind=kind))
            back = pickle.loads(pickle.dumps(fits))
            for fit, got in zip(fits, back, strict=True):
                assert (got.kind, got.n_train) == (fit.kind, fit.n_train)
                assert got.predict(x).tobytes() == fit.predict(x).tobytes()
                # The sweep evaluates returned fits on rows of the shared design.
                rows = np.arange(150, 200)
                assert got.predict_rows(data, rows).tobytes() == fit.predict_rows(data, rows).tobytes()

    @pytest.mark.parametrize("levels", [[], [[0.5]], [0.5, 1.0]])
    def test_level_domain(self, levels):
        data = toy_dataset(20, seed=4)
        with pytest.raises(ParameterError):
            fit_quantile(data, np.arange(data.n), 1, levels, LearnerSpec(kind="pinball_linear"))


def _pinball_loss(resid, alpha):
    return float(np.sum(np.maximum(alpha * resid, (alpha - 1.0) * resid)))


def _highs_pinball_loss(f, y, alpha):
    """The optimal pinball loss, as HiGHS finds it: the optimum of the dual
    LP ``max y'a`` subject to ``f'a = (1 - alpha) f'1`` and ``0 <= a <= 1``,
    less ``(1 - alpha) y'1``, by strong duality."""
    from scipy.optimize import linprog

    res = linprog(-y, A_eq=f.T, b_eq=(1.0 - alpha) * f.sum(axis=0), bounds=(0.0, 1.0), method="highs")
    assert res.status == 0, res.message
    return -res.fun - (1.0 - alpha) * y.sum()


def _fold_sized_problem():
    # The size of one fold and arm of the analyze-continuous benchmark:
    # 4,495 rows of benchmark_continuous, the 21-column interactions design
    # and the 9 levels of the grid 1:3:0.5.
    from msmbounds import GenerativeSpec, simulate

    data = simulate(GenerativeSpec("benchmark_continuous"), 8000, 7)
    sub = np.flatnonzero(data.treatment == 0)
    f, _, _ = learners._standardize(learners._design_of(data, "interactions")[sub])
    taus = [lam / (1.0 + lam) for lam in (1.5, 2.0, 2.5, 3.0)]
    return f, data.outcome[sub], np.array(sorted({0.5, *taus, *(1.0 - t for t in taus)}))


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(15, 300)), int(rng.integers(1, 7))
    f = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
    y = f @ rng.standard_normal(p) + rng.standard_t(3, n)
    if seed % 3 == 0:
        y = np.round(y)  # ties, so many residuals are zero at the optimum
    return f, y, rng.uniform(0.02, 0.98, 3)


@pytest.mark.filterwarnings("error")
class TestPinballSolver:
    """The interior-point solver behind pinball_linear against an LP oracle."""

    # The stopping rule bounds the excess loss by tol * (1 + |dual objective|),
    # so the default tol = 1e-8 is checked against that bound and a tighter
    # one against the oracle to 1e-9.
    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("problem", [*range(12), "fold"])
    def test_loss_matches_highs(self, problem, tol):
        f, y, levels = _fold_sized_problem() if problem == "fold" else _random_problem(problem)
        weights = learners._pinball_weights(f, y, levels, LearnerSpec(kind="pinball_linear", tol=tol))
        assert weights.shape == (levels.size, f.shape[1])
        for alpha, w in zip(levels, weights):
            best = _highs_pinball_loss(f, y, alpha)
            got = _pinball_loss(y - f @ w, alpha)
            assert got >= best * (1.0 - 1e-12)
            assert got - best <= (1e-9 * best if tol < 1e-8 else tol * (1.0 + best))

    # The tie problems (every third seed) start with zero z and w entries.
    @pytest.mark.parametrize("max_iter", [3, 500])
    @pytest.mark.parametrize("problem", [*range(12), "fold"])
    def test_the_solver_keeps_the_bits_of_its_earlier_form(self, problem, max_iter):
        f, y, levels = _fold_sized_problem() if problem == "fold" else _random_problem(problem)
        with learners._one_blas_thread():
            start = np.linalg.lstsq(f, y, rcond=None)[0]
            resid = y - f @ start
            for alpha in [*levels, 0.03, 0.5, 0.97]:
                for tol in (1e-8, 1e-12):
                    beta, gap, steps = learners._frisch_newton(f, y, alpha, start, resid, max_iter, tol)
                    want_beta, want_gap, want_steps = frisch_newton(f, y, alpha, start, resid, max_iter, tol)
                    assert beta.tobytes() == want_beta.tobytes()
                    assert repr((gap, steps)) == repr((want_gap, want_steps))

    def test_step_length_keeps_the_bits_of_its_earlier_form(self):
        rng = np.random.default_rng(44)
        v, dv = rng.uniform(0.1, 2.0, 60), rng.standard_normal(60)
        with_zeros = v.copy()
        with_zeros[[3, 17, 40]] = 0.0
        dv[3] = -5.0  # a zero entry's negative step is skipped
        x = v[::-1].copy()
        x[11] = 0.0  # an x that underflowed to 0
        with_nan = dv.copy()
        with_nan[8] = np.nan
        cases = [
            ((v, dv), (v[::-1], -dv)),
            ((v, np.abs(dv)), (v, 0.01 * dv)),  # whole steps
            ((with_zeros, dv), (v, dv)),
            ((x, dv), (with_zeros, -dv)),
            ((v, with_nan), (x, dv)),
            ((with_zeros, with_nan), (v, -with_nan)),
        ]
        for pairs in cases:
            assert repr(learners._step_length(pairs)) == repr(step_length(pairs))

    def test_collinear_design_fits(self):
        # Under interactions a 0/1 covariate x has x**2 == x, so two columns
        # of the design are equal and its normal equations are singular.
        rng = np.random.default_rng(41)
        n = 400
        x = np.column_stack([rng.integers(0, 2, n), rng.normal(size=n)])
        y = x[:, 0] + x[:, 1] + rng.normal(size=n)
        data = Dataset(x, np.ones(n, dtype=int), y, OutcomeKind.CONTINUOUS)
        levels = [0.2, 0.5, 0.9]
        fits = fit_quantile(data, np.arange(n), 1, levels, LearnerSpec(kind="pinball_linear"))
        f = learners._design(x, "interactions")
        for alpha, fit in zip(levels, fits):
            best = _highs_pinball_loss(f, y, alpha)
            got = _pinball_loss(y - fit.predict(x), alpha)
            assert got - best <= 1e-8 * (1.0 + best)

    def test_exhausted_budget_raises(self):
        data = random_dataset(np.random.default_rng(42), 200, binary=False)
        spec = LearnerSpec(kind="pinball_linear", max_iter=1)
        with pytest.raises(ConvergenceError, match="after 1 of 1 Newton steps") as info:
            fit_quantile(data, np.arange(data.n), 1, [0.5, 0.75], spec)
        assert info.value.last_iterate.shape == (10,)
        assert np.all(np.isfinite(info.value.last_iterate))


class TestRho:
    def test_lam_one_separate_equals_mean_fit(self):
        data = toy_dataset(200, seed=5)
        p1 = sensitivity_params(1.0)
        rows = np.arange(data.n)
        spec = LearnerSpec(kind="ridge")
        q_hat = fit_quantile(data, rows, 1, 0.5, LearnerSpec(kind="constant"))
        rho = fit_rho(data, rows, 1, q_hat, p1, "+", spec)
        mu = fit_mean(data, rows, 1, spec)
        grid = np.linspace(-1, 1, 9)[:, None] * np.ones((1, 2))
        np.testing.assert_allclose(rho.predict(grid), mu.predict(grid), atol=1e-15, rtol=0)

    def test_direct_two_point_mixture(self):
        # One covariate level; treated outcomes {0 w.p. 0.9, 10 w.p. 0.1};
        # with q_hat == 0 the transformed-outcome mean is the lam=2 mixture
        # 0.5 * 1 + 0.5 * 3 = 2.
        rng = np.random.default_rng(6)
        n = 20000
        y = (rng.random(n) < 0.1).astype(float) * 10.0
        data = Dataset(np.zeros((n, 1)), np.ones(n, dtype=int), y, OutcomeKind.CONTINUOUS)
        q_hat = fit_quantile(data, np.arange(n), 1, P2.tau, LearnerSpec(kind="constant"))
        assert q_hat.predict(np.zeros((1, 1)))[0] == 0.0
        rho = fit_rho(data, np.arange(n), 1, q_hat, P2, "+", LearnerSpec(kind="ridge"))
        pred = float(rho.predict(np.zeros((1, 1)))[0])
        # MC tolerance: 3 sample-sd of the transformed outcome / sqrt(n)
        sd = float(np.std(2.0 * y, ddof=1))
        assert pred == pytest.approx(2.0, abs=3 * sd / np.sqrt(n))

    @pytest.mark.parametrize("kind", ["ridge", "constant"])
    def test_mixture_equals_transformed_outcome_regression(self, kind):
        # Both kinds are linear in their target, so the mean/tail mixture
        # is the regression of the transformed outcome itself: a separate
        # path that regresses it in one pass would change only rounding.
        data = random_dataset(np.random.default_rng(31), 300, binary=False)
        rows = np.arange(data.n)
        spec = LearnerSpec(kind=kind)
        grid = np.random.default_rng(32).uniform(-1, 1, size=(25, data.covariates.shape[1]))
        for lam in (1.0, 1.5, 3.0):
            params = sensitivity_params(lam)
            for arm in (0, 1):
                sub = rows[data.treatment == arm]
                for side, level in (("+", params.tau), ("-", 1.0 - params.tau)):
                    q_hat = fit_quantile(data, rows, arm, level, LearnerSpec(kind="pinball_linear"))
                    outcome = data.outcome.copy()
                    q_sub = q_hat.predict(data.covariates[sub])
                    outcome[sub] = transformed_outcome(data.outcome[sub], q_sub, params, side)
                    replaced = Dataset(data.covariates, data.treatment, outcome, OutcomeKind.CONTINUOUS)
                    want = fit_mean(replaced, rows, arm, spec).predict(grid)
                    got = fit_rho(data, rows, arm, q_hat, params, side, spec).predict(grid)
                    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_empty_arm(self):
        data = toy_dataset(20, seed=7)
        control = np.where(data.treatment == 0)[0]
        q_hat = fit_quantile(data, np.arange(data.n), 0, 0.5, LearnerSpec(kind="constant"))
        with pytest.raises(FitError):
            fit_rho(data, control, 1, q_hat, P2, "+", LearnerSpec(kind="ridge"))


class TestBinaryNuisances:
    def test_mid_example(self):
        qp, qm, rp, rm = binary_nuisances(0.5, P2)
        assert (qp, qm) == (1.0, 0.0)
        assert rp == pytest.approx(0.75, abs=1e-15)
        assert rm == pytest.approx(0.25, abs=1e-15)

    def test_degenerate_outcome(self):
        for lam in (1.0, 2.0, 100.0):
            qp, qm, rp, rm = binary_nuisances(0.0, sensitivity_params(lam))
            assert rp == 0.0 and rm == 0.0

    def test_lam_one_collapse(self):
        p1 = sensitivity_params(1.0)
        for mu in (0.0, 0.2, 0.5, 0.9, 1.0):
            _, _, rp, rm = binary_nuisances(mu, p1)
            assert rp == pytest.approx(mu, abs=1e-15)
            assert rm == pytest.approx(mu, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ParameterError):
            binary_nuisances(1.2, P2)

    @pytest.mark.parametrize(
        "mu", [1.5, np.array([0.2, 1.5]), np.array([np.nan]), -0.1], ids=["1.5", "row-1.5", "nan", "-0.1"]
    )
    def test_a_mean_outside_the_unit_interval_is_named(self, mu):
        with pytest.raises(ParameterError, match=r"^binary outcome regression values must lie in \[0, 1\]$"):
            binary_nuisances(mu, P2)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_interval_brackets_mean_and_widens(self, mu, lam):
        params = sensitivity_params(lam)
        _, _, rp, rm = binary_nuisances(mu, params)
        assert rm <= mu + 1e-12 and mu <= rp + 1e-12
        wider = sensitivity_params(lam * 2.0)
        _, _, rp2, rm2 = binary_nuisances(mu, wider)
        assert rp2 >= rp - 1e-12 and rm2 <= rm + 1e-12

    def test_limits_are_assumption_free(self):
        params = sensitivity_params(1e9)
        for mu in (0.1, 0.5, 0.9):
            _, _, rp, rm = binary_nuisances(mu, params)
            assert rp == pytest.approx(1.0, abs=1e-8)
            assert rm == pytest.approx(0.0, abs=1e-8)

    def test_agrees_with_generic_tail_path(self):
        for mu in np.linspace(0.0, 1.0, 21):
            dist = DiscreteDist([0.0, 1.0], [1.0 - mu, mu]) if 0 < mu < 1 else (
                DiscreteDist([0.0], [1.0]) if mu == 0 else DiscreteDist([1.0], [1.0])
            )
            for lam in (1.0, 1.5, 2.0, 7.0):
                params = sensitivity_params(lam)
                lam_inv = 1.0 / lam
                _, _, rp, rm = binary_nuisances(mu, params)
                via_cvar_plus = lam_inv * mu + (1 - lam_inv) * cvar(dist, params, "+")
                via_cvar_minus = lam_inv * mu + (1 - lam_inv) * cvar(dist, params, "-")
                assert rp == pytest.approx(via_cvar_plus, abs=1e-12)
                assert rm == pytest.approx(via_cvar_minus, abs=1e-12)


def _reference_fit_logistic(f, t, spec):
    """The Newton loop that recomputed the accepted step; returns the
    coefficients and how many line searches ran out."""
    from scipy.special import expit

    def nll_at(w):
        eta = f @ w
        return float(np.mean(np.logaddexp(0.0, eta) - t * eta) + 0.5 * (pen @ (w * w)))

    n, p = f.shape
    pen = np.full(p, max(spec.regularization, 1e-10))
    pen[0] = 0.0
    w = np.zeros(p)
    nll = nll_at(w)
    exhausted = 0
    for _ in range(spec.max_iter):
        prob = expit(f @ w)
        grad = f.T @ (prob - t) / n + pen * w
        if np.max(np.abs(grad)) <= spec.tol:
            return w, exhausted
        hess = (f * (prob * (1.0 - prob) + 1e-12)[:, None]).T @ f / n + np.diag(pen)
        direction = np.linalg.solve(hess, grad)
        step = 1.0
        while step >= 2.0**-40:
            if nll_at(w - step * direction) <= nll + 1e-12:
                break
            step /= 2.0
        exhausted += step < 2.0**-40
        moved = step * np.max(np.abs(direction))
        w = w - step * direction
        nll = nll_at(w)
        if moved <= spec.tol:
            return w, exhausted
    raise ConvergenceError("no convergence", last_iterate=w)


def _logistic_case(name):
    if name == "regular":
        rng = np.random.default_rng(5)
        x = rng.normal(size=(400, 3))
        t = (rng.random(400) < 1.0 / (1.0 + np.exp(-(x[:, 0] - 0.5 * x[:, 1])))).astype(float)
        regularization = 1e-2
    else:
        # Separable, with two nearly collinear columns on a large scale:
        # two line searches run out before the fit converges.
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=30)
        noise = 1.0 + 1e-14 * rng.normal(size=30)
        x = np.column_stack([1e4 * x0, 1e4 * x0 * noise, 10.0 * rng.normal(size=30)])
        t = (x0 > 0).astype(float)
        regularization = 0.0
    return learners._design(x, "raw"), t, regularization


class TestLogisticNewton:
    # Coefficients from the loop that recomputed the accepted step, as
    # (converged fit, last iterate after max_iter = 3).
    PINNED = {
        "regular": (
            (-0.13895085929918816, 0.7653644986626356, -0.3346695814712692, -0.00664450959336005),
            (-0.13894997856464478, 0.7653596550841528, -0.33466746302011074, -0.006644508184790686),
        ),
        "exhausted": (
            (9.923963044741498, 0.012831200466248168, 0.012831200466512552, 0.29065727806279845),
            (0.20129001338576807, 0.07577142114472683, -0.07539280122730167, 0.031352600071264655),
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_the_recomputing_loop(self, name):
        f, t, regularization = _logistic_case(name)
        spec = LearnerSpec(kind="logistic", regularization=regularization, feature_expansion="raw")
        w = learners._fit_logistic(f, t, spec)
        ref, exhausted = _reference_fit_logistic(f, t, spec)
        assert w.tobytes() == ref.tobytes()
        assert tuple(w.tolist()) == self.PINNED[name][0]
        assert exhausted == (2 if name == "exhausted" else 0)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_last_iterate_matches_the_recomputing_loop(self, name):
        f, t, regularization = _logistic_case(name)
        spec = LearnerSpec(
            kind="logistic", regularization=regularization, feature_expansion="raw", max_iter=3
        )
        with pytest.raises(ConvergenceError) as got:
            learners._fit_logistic(f, t, spec)
        with pytest.raises(ConvergenceError) as ref:
            _reference_fit_logistic(f, t, spec)
        assert got.value.last_iterate.tobytes() == ref.value.last_iterate.tobytes()
        assert tuple(got.value.last_iterate.tolist()) == self.PINNED[name][1]


class TestSingularFallbacks:
    """Each fit falls back to least squares where ``np.linalg.solve`` finds
    its system singular; ``_singular`` patches ``solve`` to always raise."""

    @staticmethod
    def _singular(monkeypatch):
        calls = {"solve": 0, "lstsq": 0}
        lstsq = np.linalg.lstsq

        def solve(*args, **kwargs):
            calls["solve"] += 1
            raise np.linalg.LinAlgError("Singular matrix")

        def counted_lstsq(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        return calls

    def test_ridge_returns_the_least_squares_solution(self, monkeypatch):
        rng = np.random.default_rng(61)
        f = learners._design(rng.normal(size=(80, 3)), "interactions")
        t = rng.normal(size=80)
        n, p = f.shape
        a = f.T @ f / n + np.diag(learners._penalty(p, 0.01))
        expected = np.linalg.lstsq(a, f.T @ t / n, rcond=None)[0]
        calls = self._singular(monkeypatch)
        assert learners._solve_ridge(f, t, 0.01).tobytes() == expected.tobytes()
        assert calls == {"solve": 1, "lstsq": 1}

    def test_logistic_converges_on_least_squares_directions(self, monkeypatch):
        data = random_dataset(np.random.default_rng(62), 500, binary=True)
        rows = np.arange(data.n)
        spec = LearnerSpec(kind="logistic")
        want = fit_propensity(data, rows, spec).predict_rows(data, rows)
        calls = self._singular(monkeypatch)
        got = fit_propensity(data, rows, spec).predict_rows(data, rows)
        assert calls["solve"] >= 2 and calls["lstsq"] == calls["solve"]
        # Each fit stops once its gradient or its last Newton step is at
        # most tol in every weight, so the two weight vectors lie within
        # about 2 * tol of each other.  expit's slope is at most 1/4, so a
        # prediction moves by at most 2 * tol / 4 times its design row's
        # absolute sum.
        row_sums = np.abs(learners._design_of(data, spec.feature_expansion)).sum(axis=1)
        assert np.all(np.abs(got - want) <= 2.0 * spec.tol / 4.0 * row_sums)

    def test_pinball_reports_an_infinite_gap_at_the_least_squares_start(self, monkeypatch):
        rng = np.random.default_rng(63)
        f = np.hstack([np.ones((120, 1)), rng.normal(size=(120, 3))])
        y = f @ rng.normal(size=4) + rng.normal(size=120)
        with learners._one_blas_thread():
            start = np.linalg.lstsq(f, y, rcond=None)[0]
        spec = LearnerSpec(kind="pinball_linear")
        calls = self._singular(monkeypatch)
        with pytest.raises(ConvergenceError) as info:
            learners._pinball_weights(f, y, np.array([0.7]), spec)
        message = "pinball fit at level 0.7 stopped at relative duality gap inf after 1 of 500 Newton steps, above tol 1e-08"
        assert str(info.value) == message
        assert info.value.last_iterate.tobytes() == start.tobytes()
        assert calls == {"solve": 1, "lstsq": 1}


class TestDeterminism:
    def test_fits_are_reproducible(self):
        data = toy_dataset(300, seed=8)
        rows = np.arange(data.n)
        grid = np.linspace(-1, 1, 7)[:, None] * np.ones((1, 2))
        for build in (
            lambda: fit_propensity(data, rows, LearnerSpec(kind="logistic")),
            lambda: fit_quantile(data, rows, 1, 0.7, LearnerSpec(kind="pinball_linear")),
            lambda: fit_mean(data, rows, 1, LearnerSpec(kind="ridge")),
        ):
            a = build().predict(grid)
            b = build().predict(grid)
            np.testing.assert_array_equal(a, b)
