import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_dataset
from msmbounds import learners
from msmbounds import (
    ConvergenceError,
    Dataset,
    DiscreteDist,
    FitError,
    LearnerSpec,
    OutcomeKind,
    ParameterError,
    binary_nuisances,
    clip_propensity,
    cvar,
    fit_mean,
    fit_propensity,
    fit_quantile,
    fit_rho,
    sensitivity_params,
)

P2 = sensitivity_params(2.0)

# fit_quantile predictions of the per-level solver that the batched one
# replaced, keyed by (tol, arm, level), on PINNED_QUERY after fitting the
# data of _pinned_dataset().  At tol = 1e-3 arm 0's 0.75 level stops early
# and the other levels run to max_iter.
PINNED_QUERY = np.array([[-1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.3, -0.7, 1.2]])
PINNED_QUANTILES = {
    (1e-08, 0, 0.25): (-1.551380529749143, -0.4697120451981076, -0.7616039680795244),
    (1e-08, 0, 1.0 / 3.0): (-1.43732633044114, -0.33206383840467135, -0.36244839997112255),
    (1e-08, 0, 0.5): (-1.050095297709435, -0.009705970182026277, -0.20123613823172232),
    (1e-08, 0, 2.0 / 3.0): (-0.7653884982698482, 0.20759378897359226, 0.2800652888419982),
    (1e-08, 0, 0.75): (-0.5440451763729208, 0.3507675608434579, 0.7909694216491552),
    (1e-08, 1, 0.25): (-1.2203583422486382, -0.26965674875113754, -0.2648764951110739),
    (1e-08, 1, 1.0 / 3.0): (-1.1080728298029057, -0.18748848438301313, -0.0762547295812499),
    (1e-08, 1, 0.5): (-0.9086543554432975, -0.05558615224826918, 0.046722382428588366),
    (1e-08, 1, 2.0 / 3.0): (-0.8956921129511357, 0.033079311841194656, 0.32753024802413666),
    (1e-08, 1, 0.75): (-0.7611385661139647, 0.11419543555742155, 0.5737848677726592),
    (0.001, 0, 0.25): (-1.551380529749143, -0.4697120451981076, -0.7616039680795244),
    (0.001, 0, 1.0 / 3.0): (-1.43732633044114, -0.33206383840467135, -0.36244839997112255),
    (0.001, 0, 0.5): (-1.050095297709435, -0.009705970182026277, -0.20123613823172232),
    (0.001, 0, 2.0 / 3.0): (-0.7653884982698482, 0.20759378897359226, 0.2800652888419982),
    (0.001, 0, 0.75): (-0.5407991475128971, 0.3539600518702879, 0.7883255812849166),
    (0.001, 1, 0.25): (-1.2203583422486382, -0.26965674875113754, -0.2648764951110739),
    (0.001, 1, 1.0 / 3.0): (-1.1080728298029057, -0.18748848438301313, -0.0762547295812499),
    (0.001, 1, 0.5): (-0.9086543554432975, -0.05558615224826918, 0.046722382428588366),
    (0.001, 1, 2.0 / 3.0): (-0.8956921129511357, 0.033079311841194656, 0.32753024802413666),
    (0.001, 1, 0.75): (-0.7611385661139647, 0.11419543555742155, 0.5737848677726592),
}


def _pinned_dataset():
    return random_dataset(np.random.default_rng(2024), 240, binary=False)


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

    def test_numpy_numbers_are_accepted(self):
        spec = LearnerSpec(kind="logistic", regularization=np.float64(0.1), max_iter=np.int64(5), tol=1)
        assert spec.max_iter == 5


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

    def test_wrong_kind(self):
        data = toy_dataset(50, seed=3)
        with pytest.raises(ParameterError):
            fit_propensity(data, np.arange(data.n), LearnerSpec(kind="ridge"))


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
        # pinball_linear, the batched solver, is drawn half the time.
        kind=st.sampled_from(["pinball_linear", "pinball_linear", "constant", "oracle_injection"]),
        regularization=st.sampled_from([0.0, 1e-2]),
        # (max_iter, tol): at 1e-8 no level stops early; at 1e-3 and 3e-3
        # most draws stop some levels early at their averaging check and
        # run the others to max_iter; at 1e-2 every level stops early.
        schedule=st.sampled_from([(500, 1e-8), (400, 1e-3), (500, 3e-3), (500, 1e-2), (1, 1e-8)]),
        levels=st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_single_fits(self, seed, n, arm, kind, regularization, schedule, levels):
        data = random_dataset(np.random.default_rng(seed), n, binary=False)
        max_iter, tol = schedule
        spec = LearnerSpec(
            kind=kind,
            regularization=regularization,
            max_iter=max_iter,
            tol=tol,
            inject=lambda x, arm, alpha: alpha * x[:, 0] + arm,
        )
        rows = np.arange(data.n)
        fits = fit_quantile(data, rows, arm, levels, spec)
        assert len(fits) == len(levels)
        for alpha, fit in zip(levels, fits):
            single = fit_quantile(data, rows, arm, alpha, spec)
            assert np.array_equal(fit.predict(data.covariates), single.predict(data.covariates))

    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    @pytest.mark.parametrize("arm", [0, 1])
    def test_pinned_predictions(self, tol, arm):
        data = _pinned_dataset()
        levels = [alpha for t, a, alpha in PINNED_QUANTILES if (t, a) == (tol, arm)]
        spec = LearnerSpec(kind="pinball_linear", tol=tol)
        fits = fit_quantile(data, np.arange(data.n), arm, levels, spec)
        for alpha, fit in zip(levels, fits):
            want = PINNED_QUANTILES[(tol, arm, alpha)]
            np.testing.assert_allclose(fit.predict(PINNED_QUERY), want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("levels", [[], [[0.5]], [0.5, 1.0]])
    def test_level_domain(self, levels):
        data = toy_dataset(20, seed=4)
        with pytest.raises(ParameterError):
            fit_quantile(data, np.arange(data.n), 1, levels, LearnerSpec(kind="pinball_linear"))

    @pytest.mark.parametrize("n,p,k", [(7, 1, 1), (240, 10, 5), (4000, 21, 9)])
    def test_stacked_matvec_matches_single(self, n, p, k):
        # The batched pinball solver is bit-identical to a per-level one
        # only because numpy computes each slice of a stacked matmul with
        # the same matrix-vector kernel as a single product.  A numpy or
        # BLAS build that breaks this fails here first.
        rng = np.random.default_rng(n)
        f = rng.standard_normal((n, p))
        w = rng.standard_normal((k, p))
        gr = rng.choice([0.25, -0.75], size=(k, n))
        fw = np.matmul(f, w[:, :, None])[:, :, 0]
        gf = -np.matmul(gr[:, None, :], f)[:, 0, :]
        for i in range(k):
            assert np.array_equal(fw[i], f @ w[i]), (
                "stacked np.matmul(f, W[:, :, None]) differs from f @ w: this numpy/BLAS "
                "build breaks the bit-identity of the batched quantile solver"
            )
            assert np.array_equal(gf[i], -f.T @ gr[i]), (
                "stacked np.matmul(g[:, None, :], f) differs from f.T @ g: this numpy/BLAS "
                "build breaks the bit-identity of the batched quantile solver"
            )


class TestRho:
    def test_lam_one_separate_equals_mean_fit(self):
        data = toy_dataset(200, seed=5)
        p1 = sensitivity_params(1.0)
        rows = np.arange(data.n)
        spec = LearnerSpec(kind="ridge")
        q_hat = fit_quantile(data, rows, 1, 0.5, LearnerSpec(kind="constant"))
        rho = fit_rho(data, rows, 1, q_hat, p1, "+", spec, strategy="separate")
        mu = fit_mean(data, rows, 1, spec)
        grid = np.linspace(-1, 1, 9)[:, None] * np.ones((1, 2))
        np.testing.assert_allclose(rho.predict(grid), mu.predict(grid), atol=1e-15, rtol=0)
        # The tail's weight is zero at lam == 1: no tail model is fit.
        assert set(rho.components) == {"mu"}

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
        rho = fit_rho(data, np.arange(n), 1, q_hat, P2, "+", LearnerSpec(kind="ridge"), "direct")
        pred = float(rho.predict(np.zeros((1, 1)))[0])
        # MC tolerance: 3 sample-sd of the transformed outcome / sqrt(n)
        sd = float(np.std(2.0 * y, ddof=1))
        assert pred == pytest.approx(2.0, abs=3 * sd / np.sqrt(n))

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
