import dataclasses
import math
import multiprocessing
import os
import re
import signal
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from msmbounds import (
    Estimand,
    FitError,
    GenerativeSpec,
    HarnessError,
    LearnerBundle,
    LearnerSpec,
    OutcomeKind,
    ParameterError,
    check_lambda_grid,
    default_bundle,
    monte_carlo_coverage,
    sensitivity_params,
    simulate,
    true_sharp_bounds,
)
import msmbounds
from msmbounds import cli, core, coverage
from msmbounds.coverage import _e_of, _mu_of, _outcome_location, _outcome_scale
from helpers import FIXTURE_THREE, force_workers
from oracles import aipw, sample_dataset

P1 = sensitivity_params(1.0)
P2 = sensitivity_params(2.0)
BINARY = GenerativeSpec("benchmark_binary")
CONTINUOUS = GenerativeSpec("benchmark_continuous")


# Every digit (repr) of true_sharp_bounds(benchmark_binary, ...) as the
# piecewise Gauss-Legendre quadrature computes it: a faster quadrature must
# keep these bits.
BINARY_TRUTH_REPRS = {
    1.0: {
        "mean1": (0.4999999999999999, 0.4999999999999999),
        "mean0": (0.4999999999999999, 0.4999999999999999),
        "ate": (0.0, 0.0),
        "att": (0.0, 0.0),
    },
    1.0001: {
        "mean1": (0.49997928862524205, 0.5000207116282072),
        "mean0": (0.4999835398611326, 0.5000164598854179),
        "ate": (-3.7171260175827836e-05, 3.717176707457304e-05),
        "att": (-3.7116859782231286e-05, 3.711743130764142e-05),
    },
    1.5: {
        "mean1": (0.42048253394587687, 0.5835058369869575),
        "mean0": (0.4331935725508011, 0.5628180565163641),
        "ate": (-0.1423355225704872, 0.15031226443615636),
        "att": (-0.14165402348199027, 0.1506477558752786),
    },
    2.0: {
        "mean1": (0.37377944249978634, 0.6367088977193772),
        "mean0": (0.39015378623954206, 0.5993578735412939),
        "ate": (-0.22557843104150754, 0.24655511147983517),
        "att": (-0.22405090721125176, 0.24770199853887834),
    },
    3.0: {
        "mean1": (0.3261271076474357, 0.6937203877695527),
        "mean0": (0.3436899813763426, 0.6364625232066685),
        "ate": (-0.31033541555923283, 0.3500304063932101),
        "att": (-0.30772148230490814, 0.3524773652113526),
    },
    7.3: {
        "mean1": (0.2737537653088381, 0.754054414479868),
        "mean0": (0.2947393853760933, 0.6774524348352001),
        "ate": (-0.403698669526362, 0.4593150291037747),
        "att": (-0.4001532802042932, 0.4628604184258437),
    },
}


# float.hex of the binary truth where the kinks of the adversarial
# regression leave [-1, 1] in x1 and are clipped: for about half of the
# (x2, x3) nodes at lambda 1.05, for all of them at 7.3 and 40.  Like
# BINARY_TRUTH_REPRS, these are the bits of one pass over every node, which
# the quadrature keeps however many nodes it integrates at once.
BINARY_TRUTH_HEX = {
    1.05: {
        "mean1": ("0x1.f5afe2a00b5fcp-2", "0x1.052ff608c8710p-1"),
        "mean0": ("0x1.f7bf9fc3e5c7cp-2", "0x1.041848c53efb0p-1"),
        "ate": ("-0x1.280aeea729640p-6", "0x1.2a04c4dab1a40p-6"),
        "att": ("-0x1.277bd2549fed9p-6", "0x1.29b62653c7064p-6"),
    },
    7.3: {
        "mean1": ("0x1.1852e834a21e6p-2", "0x1.82136b9330e06p-1"),
        "mean0": ("0x1.2dd029542243bp-2", "0x1.5adb0ba86cee5p-1"),
        "ate": ("-0x1.9d632f1c37be4p-2", "0x1.d656add23f7d1p-2"),
        "att": ("-0x1.99c1c80f75502p-2", "0x1.d9f814df01eb6p-2"),
    },
    40.0: {
        "mean1": ("0x1.f485b13ed9965p-3", "0x1.92f46a99cba34p-1"),
        "mean0": ("0x1.1289f42d60018p-2", "0x1.66a52effcdf62p-1"),
        "ate": ("-0x1.d30785602f212p-2", "0x1.09af70831ba28p-1"),
        "att": ("-0x1.ceed84756d11ep-2", "0x1.0bbc70f87caa5p-1"),
    },
}
# E[e(X)], E[mu(X)] and E[e(X) mu(X)] (coverage._lambda_free_means), as float.hex.
LAMBDA_FREE_MEANS_HEX = ("0x1.c61aae2cf53f8p-2", "0x1.ffffffffffffep-2", "0x1.e71987d76f93ap-3")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: simulate(BINARY, 2.5, 1), "sample size must be an integer, got 2.5"),
        (lambda: sample_dataset(FIXTURE_THREE, 2.5, 1), "sample size must be an integer, got 2.5"),
        (lambda: sample_dataset(FIXTURE_THREE, True, 1), "sample size must be an integer, got True"),
        (lambda: monte_carlo_coverage(BINARY, [1.5], reps=2.5, n=200), "replication count must be an integer, got 2.5"),
        (lambda: monte_carlo_coverage(BINARY, [1.5], reps=40, n=200.0), "sample size must be an integer, got 200.0"),
        (lambda: check_lambda_grid(["x"]), "lambda values must be real numbers, got ['x']"),
        (lambda: check_lambda_grid([1.5, None]), "lambda values must be real numbers, got [1.5, None]"),
        (
            lambda: monte_carlo_coverage(BINARY, "12", reps=40, n=200),
            "lambda values must be a sequence of real numbers, not the string '12'",
        ),
        (lambda: monte_carlo_coverage(BINARY, (1.5, True), reps=40, n=200), "lambda values must be real numbers, got [1.5, True]"),
    ],
    ids=[
        "simulate", "sample-dataset", "sample-dataset-bool", "reps", "coverage-n", "grid", "grid-none",
        "coverage-grid-string", "coverage-grid-bool",
    ],
)
def test_a_size_or_grid_of_the_wrong_type_is_a_parameter_error(monkeypatch, call, message):
    # Before, each was a bare TypeError or ValueError; the coverage study's
    # raised only after every truth was computed.
    monkeypatch.setattr(coverage, "fork_map", None)
    monkeypatch.setattr(coverage, "true_sharp_bounds", None)
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


class TestGenerativeSpec:
    def test_unknown_kind(self):
        # A finite discrete process is a test reference (tests/oracles.py),
        # not a process the library simulates.
        for kind in ("mystery", "custom_discrete"):
            message = f"unknown generative spec {kind!r}; expected one of ('benchmark_binary', 'benchmark_continuous')"
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                GenerativeSpec(kind)

    def test_a_spec_is_its_kind_alone(self):
        assert [field.name for field in dataclasses.fields(GenerativeSpec)] == ["kind"]
        with pytest.raises(TypeError):
            GenerativeSpec("benchmark_binary", dgp=FIXTURE_THREE)
        for name in ("DiscreteDGP", "greedy_extreme_mean", "sharp_bound_oracle", "sample_dataset"):
            assert not hasattr(msmbounds, name), name
            assert not hasattr(coverage, name), name


class TestSimulate:
    def test_deterministic(self):
        a = simulate(BINARY, 100, seed=1)
        b = simulate(BINARY, 100, seed=1)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.outcome, b.outcome)

    def test_kinds(self):
        assert simulate(BINARY, 10, seed=0).outcome_kind is OutcomeKind.BINARY
        assert simulate(CONTINUOUS, 10, seed=0).outcome_kind is OutcomeKind.CONTINUOUS

    @pytest.mark.parametrize("spec", [BINARY, CONTINUOUS])
    def test_negative_seed(self, spec):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -3"):
            simulate(spec, 10, seed=-3)

    @pytest.mark.parametrize("spec", [BINARY, CONTINUOUS])
    @pytest.mark.parametrize("seed", [1.5, True])
    def test_a_seed_that_is_not_an_integer(self, spec, seed):
        with pytest.raises(ParameterError, match=f"^seed must be an integer, got {seed!r}$"):
            simulate(spec, 10, seed=seed)

    def test_draws_follow_the_truth_formulas(self):
        # The simulator and the quadrature truth share one propensity and
        # one binary outcome mean.
        data = simulate(BINARY, 2000, seed=9)
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, size=(2000, 5))
        np.testing.assert_array_equal(data.covariates, x)
        z = rng.random(2000) < _e_of(x[:, 0], x[:, 1], x[:, 2])
        y = rng.random(2000) < _mu_of(x[:, 0], x[:, 1], x[:, 2])
        np.testing.assert_array_equal(data.treatment, z)
        np.testing.assert_array_equal(data.outcome, y)

    @pytest.mark.parametrize("logit", [0.0, -0.0, 709.5, -709.5, 745.0, -745.0, 800.0, -800.0])
    def test_below_expit_is_scipys_comparison_at_and_beside_the_threshold(self, logit, monkeypatch):
        a = np.full(3, logit)
        p = expit(a)
        u = np.array([np.nextafter(p[0], -np.inf), p[0], np.nextafter(p[0], np.inf)])
        calls, overflows = [], []

        def recording_exp(x):
            calls.append(x)
            try:
                return math.exp(x)
            except OverflowError:
                overflows.append(x)
                raise

        monkeypatch.setattr(coverage, "math", SimpleNamespace(exp=recording_exp))
        np.testing.assert_array_equal(coverage._below_expit(u, a), u < p)
        # Every row lies within the window, so libm's exp decides each one,
        # and it overflows for the two most negative logits.
        assert len(calls) == 3
        assert len(overflows) == (3 if logit <= -745.0 else 0)

    def test_below_expit_is_scipys_comparison_a_few_ulps_from_the_threshold(self):
        rng = np.random.default_rng(11)
        a = np.concatenate([rng.uniform(-6.0, 6.0, 50_000), rng.uniform(-720.0, 720.0, 10_000)])
        p = expit(a)
        for steps in (-3, -1, 0, 1, 3):
            u = p.copy()
            for _ in range(abs(steps)):
                u = np.nextafter(u, np.sign(steps) * np.inf)
            np.testing.assert_array_equal(coverage._below_expit(u, a), u < p)
        u = rng.random(a.size)
        np.testing.assert_array_equal(coverage._below_expit(u, a), u < p)

    def test_treated_share_matches_quadrature(self):
        n = 1_000_000
        data = simulate(BINARY, n, seed=3)
        target = coverage._lambda_free_means()[0]  # E[e(X)] by quadrature
        sd = np.sqrt(target * (1 - target) / n)
        assert data.treatment.mean() == pytest.approx(target, abs=4 * sd)

    def test_outcome_free_of_treatment_aipw_near_zero(self):
        n = 400_000
        data = simulate(BINARY, n, seed=4)
        x = data.covariates
        e = _e_of(x[:, 0], x[:, 1], x[:, 2])
        mu = _mu_of(x[:, 0], x[:, 1], x[:, 2])
        val = aipw(data, e, np.column_stack([mu, mu]))
        phi_sd = 3.0 / np.sqrt(n)  # generous bound on the influence sd
        assert abs(val) <= 3 * phi_sd

    def test_continuous_moments(self):
        n = 400_000
        data = simulate(CONTINUOUS, n, seed=5)
        x = data.covariates
        resid = (data.outcome - _outcome_location(x)) / _outcome_scale(x)
        assert resid.mean() == pytest.approx(0.0, abs=4 / np.sqrt(n))
        assert resid.std() == pytest.approx(1.0, abs=0.01)


# true_sharp_bounds recorded from the loop-based quadrature that the
# vectorized one replaced: (kind, estimand, lambda) -> (lower, upper).
PINNED_TRUTH = {
    ("benchmark_binary", "mean1", 1.0): (0.5000000000000001, 0.5000000000000001),
    ("benchmark_binary", "mean1", 1.5): (0.420482533945877, 0.5835058369869583),
    ("benchmark_binary", "mean1", 2.0): (0.3737794424997864, 0.6367088977193773),
    ("benchmark_binary", "mean1", 3.0): (0.32612710764743563, 0.6937203877695528),
    ("benchmark_binary", "mean0", 1.0): (0.5000000000000006, 0.5000000000000006),
    ("benchmark_binary", "mean0", 1.5): (0.4331935725508018, 0.562818056516365),
    ("benchmark_binary", "mean0", 2.0): (0.3901537862395429, 0.599357873541295),
    ("benchmark_binary", "mean0", 3.0): (0.34368998137634343, 0.6364625232066689),
    ("benchmark_binary", "ate", 1.0): (-4.440892098500626e-16, -4.440892098500626e-16),
    ("benchmark_binary", "ate", 1.5): (-0.14233552257048798, 0.15031226443615653),
    ("benchmark_binary", "ate", 2.0): (-0.2255784310415086, 0.24655511147983444),
    ("benchmark_binary", "ate", 3.0): (-0.3103354155592332, 0.35003040639320937),
    ("benchmark_binary", "att", 1.0): (5.007081311391081e-16, 5.007081311391081e-16),
    ("benchmark_binary", "att", 1.5): (-0.14165402348199002, 0.15064775587527868),
    ("benchmark_binary", "att", 2.0): (-0.22405090721125182, 0.24770199853887798),
    ("benchmark_binary", "att", 3.0): (-0.3077214823049063, 0.3524773652113521),
    ("benchmark_continuous", "mean1", 1.0): (-0.0, 0.0),
    ("benchmark_continuous", "mean1", 1.5): (-0.23890514257120501, 0.23890514257120501),
    ("benchmark_continuous", "mean1", 2.0): (-0.404714799063322, 0.404714799063322),
    ("benchmark_continuous", "mean1", 3.0): (-0.6288178044761092, 0.6288178044761092),
    ("benchmark_continuous", "mean0", 1.0): (-0.0, 0.0),
    ("benchmark_continuous", "mean0", 1.5): (-0.1903643390919733, 0.1903643390919733),
    ("benchmark_continuous", "mean0", 2.0): (-0.32248475028731344, 0.32248475028731344),
    ("benchmark_continuous", "mean0", 3.0): (-0.5010544539562711, 0.5010544539562711),
    ("benchmark_continuous", "ate", 1.0): (-0.0, 0.0),
    ("benchmark_continuous", "ate", 1.5): (-0.42926948166317835, 0.42926948166317835),
    ("benchmark_continuous", "ate", 2.0): (-0.7271995493506354, 0.7271995493506354),
    ("benchmark_continuous", "ate", 3.0): (-1.1298722584323804, 1.1298722584323804),
    ("benchmark_continuous", "att", 1.0): (-0.0, 0.0),
    ("benchmark_continuous", "att", 1.5): (-0.42926948166317835, 0.42926948166317835),
    ("benchmark_continuous", "att", 2.0): (-0.7271995493506355, 0.7271995493506355),
    ("benchmark_continuous", "att", 3.0): (-1.1298722584323804, 1.1298722584323804),
}


class TestTruth:
    def test_lam_one_collapses_to_zero_effect(self):
        for spec in (BINARY, CONTINUOUS):
            lo, hi = true_sharp_bounds(spec, P1, Estimand.ATE)
            assert lo == pytest.approx(0.0, abs=1e-10)
            assert hi == pytest.approx(0.0, abs=1e-10)

    def test_binary_truth_matches_pointwise_montecarlo(self):
        from msmbounds import binary_nuisances

        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(2_000_000, 3))
        e = _e_of(x[:, 0], x[:, 1], x[:, 2])
        mu = _mu_of(x[:, 0], x[:, 1], x[:, 2])
        _, _, rp, rm = binary_nuisances(mu, P2)
        mc = (
            float(np.mean(e * mu + (1 - e) * rm)) - float(np.mean((1 - e) * mu + e * rp)),
            float(np.mean(e * mu + (1 - e) * rp)) - float(np.mean((1 - e) * mu + e * rm)),
        )
        lo, hi = true_sharp_bounds(BINARY, P2, Estimand.ATE)
        assert lo == pytest.approx(mc[0], abs=5e-4)
        assert hi == pytest.approx(mc[1], abs=5e-4)

    def test_continuous_truth_matches_pointwise_montecarlo(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(2_000_000, 5))
        e = _e_of(x[:, 0], x[:, 1], x[:, 2])
        loc = _outcome_location(x)
        scale = _outcome_scale(x)
        spread = (1 - 1 / P2.lam) * norm.pdf(norm.ppf(P2.tau)) / (1 - P2.tau) * scale
        hi_mc = float(np.mean(e * loc + (1 - e) * (loc + spread))) - float(
            np.mean((1 - e) * loc + e * (loc - spread))
        )
        lo, hi = true_sharp_bounds(CONTINUOUS, P2, Estimand.ATE)
        assert hi == pytest.approx(hi_mc, abs=2e-3)
        assert lo == pytest.approx(-hi, abs=1e-12)

    def test_continuous_truth_is_scipy_norm_density_bit_for_bit(self):
        # The reference takes the normal density from scipy.stats.
        # Over this many lambdas, a density taken with numpy's scalar exp
        # differs from it in the last bit for a few of them.
        e_mean = coverage._lambda_free_means()[0]
        mismatched = []
        for lam in np.random.default_rng(20_009).uniform(1.0, 50.0, 20_000):
            par = sensitivity_params(lam)
            tail = (1.0 - 1.0 / par.lam) * float(norm.pdf(norm.ppf(par.tau))) / (1.0 - par.tau)
            spread1 = tail * (1.0 - e_mean) * (4.0 / 3.0)
            if true_sharp_bounds(CONTINUOUS, par, Estimand.MEAN1) != (-spread1, spread1):
                mismatched.append(float(lam))
        assert mismatched == []

    @pytest.mark.parametrize("key", sorted(PINNED_TRUTH))
    def test_pinned_values(self, key):
        kind, estimand, lam = key
        got = true_sharp_bounds(GenerativeSpec(kind), sensitivity_params(lam), Estimand(estimand))
        assert got == pytest.approx(PINNED_TRUTH[key], abs=1e-12, rel=0)

    @pytest.mark.parametrize("lam", sorted(BINARY_TRUTH_REPRS))
    def test_binary_truth_bits(self, lam):
        params = sensitivity_params(lam)
        for estimand, expected in BINARY_TRUTH_REPRS[lam].items():
            got = true_sharp_bounds(BINARY, params, Estimand(estimand))
            assert repr(got) == repr(expected), estimand

    @pytest.mark.parametrize("lam", sorted(BINARY_TRUTH_HEX))
    def test_binary_truth_bits_with_kinks_outside_the_cube(self, lam):
        params = sensitivity_params(lam)
        for estimand, expected in BINARY_TRUTH_HEX[lam].items():
            got = true_sharp_bounds(BINARY, params, Estimand(estimand))
            assert tuple(v.hex() for v in got) == expected, estimand

    def test_lambda_free_means_bits(self):
        assert tuple(v.hex() for v in coverage._lambda_free_means()) == LAMBDA_FREE_MEANS_HEX

    @pytest.mark.parametrize("block", [1, 100, 2048])
    def test_the_truth_does_not_depend_on_the_block_size(self, monkeypatch, block):
        expected = [coverage._rho_means(lam, side) for lam in (1.05, 2.0, 40.0) for side in "-+"]
        expected.append(coverage._lambda_free_means.__wrapped__())
        monkeypatch.setattr(coverage, "_BLOCK", block)
        got = [coverage._rho_means(lam, side) for lam in (1.05, 2.0, 40.0) for side in "-+"]
        got.append(coverage._lambda_free_means.__wrapped__())
        assert [[v.hex() for v in means] for means in got] == [[v.hex() for v in means] for means in expected]

    def test_symmetry_and_nesting(self):
        prev = true_sharp_bounds(CONTINUOUS, P1, Estimand.ATE)
        for lam in (1.5, 2.0, 3.0):
            cur = true_sharp_bounds(CONTINUOUS, sensitivity_params(lam), Estimand.ATE)
            assert cur[0] == pytest.approx(-cur[1], abs=1e-12)
            assert cur[0] <= prev[0] and cur[1] >= prev[1]
            prev = cur


def _oracle_bundle():
    # The exact nuisances, injected as nested functions: a pickled bundle
    # would fail, so a pooled run proves the workers inherit it.
    def e_inject(x):
        x = np.atleast_2d(x)
        return _e_of(x[:, 0], x[:, 1], x[:, 2])

    def mu_inject(x, arm):
        x = np.atleast_2d(x)
        return _mu_of(x[:, 0], x[:, 1], x[:, 2])

    return LearnerBundle(
        propensity=LearnerSpec(kind="oracle_injection", inject=e_inject),
        quantile=LearnerSpec(kind="pinball_linear"),
        regression=LearnerSpec(kind="oracle_injection", inject=mu_inject),
    )


def _bundle_failing_on(reps_to_fail, seed, reps, n):
    # The oracle bundle, whose propensity raises on the rows of the given
    # replications, found from the harness's own seed streams.
    children = np.random.SeedSequence(seed).spawn(reps)
    doomed = set()
    for rep in reps_to_fail:
        data_seed = int(children[rep].generate_state(2, dtype=np.uint64)[0])
        doomed |= {row.tobytes() for row in simulate(BINARY, n, data_seed).covariates}

    def e_inject(x):
        x = np.atleast_2d(x)
        if x[0].tobytes() in doomed:
            raise FitError("injected failure")
        return _e_of(x[:, 0], x[:, 1], x[:, 2])

    return dataclasses.replace(_oracle_bundle(), propensity=LearnerSpec(kind="oracle_injection", inject=e_inject))


def _failing_bundle():
    # A one-iteration Newton budget cannot converge, so every replication fails.
    return LearnerBundle(
        propensity=LearnerSpec(kind="logistic", max_iter=1, tol=1e-300),
        quantile=LearnerSpec(kind="pinball_linear"),
        regression=LearnerSpec(kind="logistic"),
    )


class TestMonteCarloCoverage:
    def test_reps_domain(self):
        with pytest.raises(ParameterError):
            monte_carlo_coverage(BINARY, [1.0], reps=0, n=100)

    @pytest.mark.parametrize("n,k_folds", [(3, 5), (200, 1), (200, 0)])
    def test_fold_count_domain(self, n, k_folds):
        # Rejected up front, not as one failure per replication.
        with pytest.raises(ParameterError, match="fold count"):
            monte_carlo_coverage(BINARY, [1.0], reps=50, n=n, k_folds=k_folds)

    @pytest.mark.parametrize("k_folds", [2.5, 2.0, True])
    def test_fold_count_is_an_integer(self, monkeypatch, k_folds):
        # The fold plan's own check, before the truths and the pool; before,
        # 2.5 silently ran two folds and reported "folds" 2.
        monkeypatch.setattr(coverage, "fork_map", None)
        monkeypatch.setattr(coverage, "true_sharp_bounds", None)
        with pytest.raises(ParameterError, match=f"^fold count must be an integer, got {k_folds!r}$"):
            monte_carlo_coverage(BINARY, [1.5], reps=40, n=200, k_folds=k_folds)

    @pytest.mark.parametrize("epsilon", [0.7, 0.5, 0.0, -0.1])
    def test_epsilon_domain(self, monkeypatch, epsilon):
        # Rejected before the truths and the pool, with the clip's message.
        monkeypatch.setattr(coverage, "fork_map", None)
        monkeypatch.setattr(coverage, "true_sharp_bounds", None)
        with pytest.raises(ParameterError, match=r"clip epsilon must lie in \(0, 0.5\)"):
            monte_carlo_coverage(BINARY, [1.5], reps=40, n=200, epsilon=epsilon)

    def test_alpha_domain(self, monkeypatch):
        monkeypatch.setattr(coverage, "fork_map", None)
        monkeypatch.setattr(coverage, "true_sharp_bounds", None)
        with pytest.raises(ParameterError, match=r"^alpha must lie in \(0, 1\), got 1.5$"):
            monte_carlo_coverage(BINARY, [1.5], reps=40, n=200, alpha=1.5)

    def test_logistic_regression_on_a_continuous_process(self, monkeypatch):
        # Rejected before the truths and the pool, not as 40 failed replications.
        monkeypatch.setattr(coverage, "fork_map", None)
        monkeypatch.setattr(coverage, "true_sharp_bounds", None)
        bundle = dataclasses.replace(default_bundle("continuous"), regression=LearnerSpec(kind="logistic"))
        with pytest.raises(ParameterError, match="logistic outcome regression needs a binary outcome"):
            monte_carlo_coverage(CONTINUOUS, [1.5], reps=40, n=200, bundle=bundle)

    def test_negative_seed(self, monkeypatch):
        monkeypatch.setattr(coverage, "fork_map", None)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            monte_carlo_coverage(BINARY, [1.5], reps=2, n=100, seed=-1)

    @pytest.mark.parametrize(
        "given, message",
        [
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": True}, "seed must be an integer, got True"),
            # check_seed takes a sequence, but the study's report records one integer.
            ({"seed": [1, 2]}, "seed must be an integer, got [1, 2]"),
            ({"estimand": "foo"}, "unknown Estimand 'foo'; expected one of ['mean1', 'mean0', 'ate', 'att']"),
        ],
        ids=["float-seed", "bool-seed", "list-seed", "unknown-estimand"],
    )
    def test_seed_and_estimand_are_checked_before_the_truths(self, monkeypatch, given, message):
        # A float seed used to reach numpy as a bare TypeError, after the truths.
        monkeypatch.setattr(coverage, "fork_map", None)
        monkeypatch.setattr(coverage, "true_sharp_bounds", None)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            monte_carlo_coverage(BINARY, [1.5], reps=2, n=100, **given)

    @pytest.mark.parametrize("spec", [BINARY, CONTINUOUS])
    def test_default_bundle_needs_no_probe_draw(self, monkeypatch, spec):
        # The outcome kind comes from the spec: the only draws are the
        # replications' own.
        sizes = []
        real = coverage.simulate

        def spy(spec, n, seed):
            sizes.append(n)
            return real(spec, n, seed)

        monkeypatch.setattr(coverage, "simulate", spy)
        force_workers(monkeypatch, 1)
        monte_carlo_coverage(spec, [1.5], reps=2, n=100, seed=3)
        assert sizes == [100, 100]

    def test_report_shape_and_determinism(self):
        rep1 = monte_carlo_coverage(BINARY, [1.0, 2.0], reps=8, n=300, seed=12)
        rep2 = monte_carlo_coverage(BINARY, [1.0, 2.0], reps=8, n=300, seed=12)
        assert rep1.records == rep2.records
        assert len(rep1.cells) == 2
        for cell in rep1.cells:
            assert 0.0 <= cell.coverage <= 1.0
            assert cell.reps_ok == 8

    def test_point_identified_coverage_with_oracle_nuisances(self):
        # lam = 1 with injected exact nuisances: the Wald region for the
        # point-identified effect behaves like a calibrated AIPW interval.
        report = monte_carlo_coverage(
            BINARY, [1.0], reps=500, n=400, bundle=_oracle_bundle(), seed=2718
        )
        coverage = report.cells[0].coverage
        # nominal ~0.95 within a 3-SE binomial band at 500 reps
        band = 3 * np.sqrt(0.95 * 0.05 / 500)
        assert 0.95 - band <= coverage <= 1.0

    def test_jsonable_round_trip(self):
        import json

        report = monte_carlo_coverage(BINARY, [1.5], reps=3, n=200, seed=1)
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert payload["reps"] == 3
        assert payload["cells"][0]["lambda"] == 1.5

    def test_too_many_failures_raises(self):
        from msmbounds import HarnessError

        # every replication fails and the harness aborts rather than reporting
        with pytest.raises(HarnessError, match="replications failed"):
            monte_carlo_coverage(BINARY, [1.5], reps=5, n=200, bundle=_failing_bundle(), seed=2)

    def test_att_estimand(self):
        report = monte_carlo_coverage(BINARY, [1.5], reps=4, n=300, seed=3, estimand=Estimand.ATT)
        cell = report.cells[0]
        assert cell.truth_lower <= cell.truth_upper
        assert cell.reps_ok == 4

    def test_one_failed_replication_in_a_hundred(self, monkeypatch):
        # 1 of 100 is within the 1% the harness tolerates: the study returns,
        # the failed replication's rows say so, and the cells skip it.
        seed, reps, n, failed = 7, 100, 200, 37
        bundle = _bundle_failing_on([failed], seed, reps, n)
        reports = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            reports.append(monte_carlo_coverage(BINARY, [1.0, 2.0], reps=reps, n=n, bundle=bundle, seed=seed))
        report = reports[0]
        assert _record_fields(reports[1]) == _record_fields(report)
        numeric = ("psi_lower", "psi_upper", "se_lower", "se_upper", "ci_lower", "ci_upper")
        bad = [r for r in report.records if r.rep == failed]
        assert [r.lam for r in bad] == [1.0, 2.0]
        for r in bad:
            assert all(np.isnan(getattr(r, name)) for name in numeric)
            assert r.covered is False and r.error == "fold 0: injected failure"
        assert all(r.error is None for r in report.records if r.rep != failed)
        for cell in report.cells:
            ok = [r for r in report.records if r.lam == cell.lam and r.rep != failed]
            assert (cell.reps_ok, cell.reps_failed) == (99, 1)
            assert cell.coverage == float(np.mean([r.covered for r in ok]))
            assert cell.bias_lower == float(np.mean([r.psi_lower for r in ok])) - cell.truth_lower
            assert cell.bias_upper == float(np.mean([r.psi_upper for r in ok])) - cell.truth_upper
            assert cell.avg_width == float(np.mean([r.ci_upper - r.ci_lower for r in ok]))
        lines = cli._csv_text(cli._columns([coverage.output_row(r) for r in report.records])).splitlines()
        assert lines[0] == "rep,lambda,data_seed,psi_lower,psi_upper,se_lower,se_upper,ci_lower,ci_upper,covered,error"
        assert [line for line in lines if line.startswith(f"{failed},")] == [
            f"{failed},{r.lam!r},{r.data_seed},nan,nan,nan,nan,nan,nan,false,fold 0: injected failure" for r in bad
        ]

    def test_two_failed_replications_in_a_hundred_raise(self):
        bundle = _bundle_failing_on([12, 80], seed=7, reps=100, n=200)
        with pytest.raises(HarnessError, match="^2 of 100 replications failed \\(more than 1%\\); first error: fold 0: injected failure$"):
            monte_carlo_coverage(BINARY, [1.0, 2.0], reps=100, n=200, bundle=bundle, seed=7)


def _record_fields(report):
    # repr keeps every bit of a float (and tells -0.0 from 0.0) and, unlike
    # ReplicationRecord.__eq__, treats the NaN of failed records as equal.
    return [tuple(repr(getattr(r, f.name)) for f in dataclasses.fields(r)) for r in report.records]


def _study_with_a_dying_worker():
    # Every pool worker kills itself on its first propensity prediction.
    starter = os.getpid()

    def e_inject(x):
        if os.getpid() != starter:
            os.kill(os.getpid(), signal.SIGKILL)
        x = np.atleast_2d(x)
        return _e_of(x[:, 0], x[:, 1], x[:, 2])

    bundle = dataclasses.replace(
        _oracle_bundle(), propensity=LearnerSpec(kind="oracle_injection", inject=e_inject)
    )
    with pytest.raises(BrokenProcessPool):
        monte_carlo_coverage(BINARY, [1.0], reps=4, n=200, bundle=bundle, seed=46)


def _serial_study_in_worker(kwargs):
    # Runs inside a daemonic pool worker, which may not start a pool of its own.
    assert multiprocessing.current_process().daemon
    assert core._worker_count(kwargs["reps"]) == 1
    return _record_fields(monte_carlo_coverage(BINARY, **kwargs))


class TestPooledReplications:
    def run(self, monkeypatch, workers, spec, **kwargs):
        force_workers(monkeypatch, workers)
        return monte_carlo_coverage(spec, **kwargs)

    @pytest.mark.parametrize(
        "spec, kwargs",
        [
            (BINARY, dict(lambda_grid=[1.0, 1.5, 2.0], reps=6, n=300, seed=41)),
            (CONTINUOUS, dict(lambda_grid=[1.0, 2.0], reps=4, n=300, seed=42)),
            (BINARY, dict(lambda_grid=[1.5], reps=5, n=300, seed=43, estimand=Estimand.ATT)),
            (BINARY, dict(lambda_grid=[1.0, 2.0], reps=5, n=300, seed=44, bundle="oracle")),
        ],
        ids=["binary", "continuous", "att", "oracle-closures"],
    )
    def test_pooled_equals_serial(self, monkeypatch, spec, kwargs):
        if kwargs.get("bundle") == "oracle":
            kwargs = {**kwargs, "bundle": _oracle_bundle()}
        serial = self.run(monkeypatch, 1, spec, **kwargs)
        pooled = self.run(monkeypatch, 2, spec, **kwargs)
        assert _record_fields(pooled) == _record_fields(serial)
        assert repr(pooled.to_jsonable()) == repr(serial.to_jsonable())

    def test_every_rep_failing_raises_the_same_error(self, monkeypatch):
        from msmbounds import HarnessError

        messages = []
        for workers in (1, 2):
            with pytest.raises(HarnessError, match="5 of 5 replications failed") as info:
                self.run(monkeypatch, workers, BINARY, lambda_grid=[1.5], reps=5, n=200,
                         bundle=_failing_bundle(), seed=2)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_daemonic_caller_runs_serially(self):
        kwargs = dict(lambda_grid=[1.0, 2.0], reps=4, n=250, seed=45)
        serial = _record_fields(monte_carlo_coverage(BINARY, **kwargs))
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply_async(_serial_study_in_worker, (kwargs,)).get(timeout=120)
        assert inside == serial

    def test_pool_workers_map_serially(self, monkeypatch):
        # Pool workers are not daemonic, so only the pool's own mark keeps
        # a map inside one (the continuous sweep of a replication) serial.
        force_workers(monkeypatch, 4)
        parent = os.getpid()

        def probe(item):
            return os.getpid() != parent, multiprocessing.current_process().daemon, core._worker_count(100)

        assert core.fork_map(probe, range(4)) == [(True, False, 1)] * 4
        assert core._worker_count(100) == 4

    def test_workers_run_blas_on_one_thread(self, monkeypatch):
        # The pool runs one worker per CPU, so each worker runs the OpenBLAS
        # that numpy and scipy bundle on one thread; the parent keeps its
        # own count.
        def threads(item=None):
            return [count.value for count in core._openblas_thread_counts()]

        before = threads()
        if not before:
            pytest.skip("no bundled OpenBLAS is loaded")
        force_workers(monkeypatch, 2)
        assert core.fork_map(threads, range(2)) == [[1] * len(before)] * 2
        assert threads() == before

    def test_fork_map_keeps_order_and_the_first_error(self, monkeypatch):
        def job(item):
            if item in (5, 7):
                raise ValueError(f"item {item}")
            return item * item

        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            assert core.fork_map(job, range(5)) == [0, 1, 4, 9, 16]
            with pytest.raises(ValueError, match="^item 5$"):
                core.fork_map(job, range(10))
            assert core.fork_map(job, []) == []

    def test_fork_map_keeps_order_and_the_first_error_over_many_chunks(self, monkeypatch):
        # 150 items on two workers go out in many chunks; the results keep
        # item order, and a late chunk's error surfaces for the first
        # failing item in that order.
        def job(failing, item):
            if item in failing:
                raise ValueError(f"item {item}")
            return item * item

        force_workers(monkeypatch, 2)
        assert core.fork_map(partial(job, ()), range(150)) == [i * i for i in range(150)]
        with pytest.raises(ValueError, match="^item 133$"):
            core.fork_map(partial(job, (133, 149)), range(150))

    def test_a_killed_worker_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(core, "_worker_count", lambda items: 2)
        child = multiprocessing.get_context("fork").Process(target=_study_with_a_dying_worker)
        child.start()
        child.join(timeout=120)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the study hung after a worker was killed")
        assert child.exitcode == 0

    def test_worker_count(self, monkeypatch):
        cpus = len(core.os.sched_getaffinity(0))
        assert core._worker_count(1) == 1
        assert core._worker_count(10_000) == cpus
        monkeypatch.delattr(core.os, "sched_getaffinity")
        monkeypatch.setattr(core.os, "cpu_count", lambda: 3)
        assert core._worker_count(10_000) == 3
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert core._worker_count(10_000) == 1
