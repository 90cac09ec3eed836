"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np

import msmbounds as mb
from helpers import FIXTURE_SINGLE, FIXTURE_SINGLE_SHARP_MEAN1, FIXTURE_THREE, random_dataset, random_dist, random_dgp
from oracles import (
    adversarial_propensity,
    aipw,
    cvar,
    cvar_dual_oracle,
    injection_bundle,
    manski_bounds_binary,
    population_bound,
    transformed_mean_nuisances,
    transformed_outcome,
    true_nuisances,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(number, description, check):
    try:
        check()
    except BaseException:
        print(f"criterion {number:2d} FAIL {description}")
        raise
    print(f"criterion {number:2d} PASS {description}")


def test_criterion_01_kernel_transform_identity():
    def check():
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        n = 100_000
        y = rng.uniform(-50.0, 50.0, n)
        q = rng.uniform(-50.0, 50.0, n)
        lams = np.exp(rng.uniform(0.0, np.log(100.0), n))
        # elementwise evaluation of both forms; relative error is measured
        # against the natural scale of the intermediates, lam * (|y| + |q|)
        resid = y - q
        sgn = np.where(resid >= 0.0, 1.0, -1.0)
        lam_inv = 1.0 / lams
        taus = lams / (lams + 1.0)
        scale = 1.0 + lams * (np.abs(y) + np.abs(q))
        for side_sign, part in ((1.0, np.maximum(resid, 0.0)), (-1.0, np.minimum(resid, 0.0))):
            kern = q + lams ** (side_sign * sgn) * resid
            tran = lam_inv * y + (1.0 - lam_inv) * (q + part / (1.0 - taus))
            assert (np.abs(kern - tran) / scale).max() <= 1e-12
        # the library kernel and the reference transform evaluate the same forms
        params = mb.sensitivity_params(2.0)
        np.testing.assert_allclose(
            mb.weighting_kernel(y[:200], q[:200], params, "+"),
            transformed_outcome(y[:200], q[:200], params, "+"),
            rtol=1e-12,
            atol=1e-12,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"

    _report(1, "weighting kernel == transformed outcome over 1e5 triples (rel 1e-12, <1s)", check)


def test_criterion_02_cvar_dual_equivalence():
    def check():
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        for _ in range(1000):
            dist = random_dist(rng, max_atoms=12)
            for lam in (1.0, 1.5, 2.0, 5.0):
                params = mb.sensitivity_params(lam)
                for side in ("+", "-"):
                    a = cvar(dist, params, side)
                    b = cvar_dual_oracle(dist, params, side)
                    assert abs(a - b) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"dual equivalence took {elapsed:.2f}s"

    _report(2, "cvar == greedy dual oracle on 1000 dists x 4 lambdas x 2 tails (1e-9, <5s)", check)


def test_criterion_03_triple_identification():
    def check():
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        for _ in range(100):
            dgp = random_dgp(rng)
            for lam in (1.0, 1.5, 2.0, 5.0):
                params = mb.sensitivity_params(lam)
                lo, hi = mb.sharp_bound_oracle(dgp, params, mb.Estimand.MEAN1)
                nus = true_nuisances(dgp, params)
                obs = dgp.propensity
                mix_hi = float(np.sum(dgp.level_probs * (obs * nus.mu[:, 1] + (1 - obs) * nus.rho_plus[:, 1])))
                mix_lo = float(np.sum(dgp.level_probs * (obs * nus.mu[:, 1] + (1 - obs) * nus.rho_minus[:, 1])))
                ipw_hi = ipw_lo = 0.0
                for lvl in range(dgp.n_levels):
                    dist = dgp.outcomes[lvl][1]
                    for y, w in zip(dist.atoms, dist.weights):
                        base = dgp.level_probs[lvl] * dgp.propensity[lvl] * w * y
                        ipw_hi += base / adversarial_propensity(dgp, params, lvl, float(y), "+")
                        ipw_lo += base / adversarial_propensity(dgp, params, lvl, float(y), "-")
                assert abs(hi - mix_hi) <= 1e-9 and abs(hi - ipw_hi) <= 1e-9
                assert abs(lo - mix_lo) <= 1e-9 and abs(lo - ipw_lo) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"triple cross-check took {elapsed:.2f}s"

    _report(3, "greedy / mixture / worst-case-propensity sharp bounds agree on 100 DGPs (1e-9, <30s)", check)


def test_criterion_04_aipw_collapse():
    def check():
        p1 = mb.sensitivity_params(1.0)
        rng = np.random.default_rng(404)
        for binary in (True, False):
            for trial in range(3):
                data = random_dataset(rng, 300 + 50 * trial, binary=binary)
                bundle = mb.default_bundle("binary" if binary else "continuous")
                plan = mb.split_folds(data.n, 5, seed=trial)
                eta = mb.crossfit_nuisances(data, p1, bundle, plan)
                est = mb.estimate_bounds(data, eta, p1, mb.Estimand.ATE)
                reference = aipw(data, eta.e_hat, eta.mu)
                assert abs(est.psi_upper - est.psi_lower) <= 1e-10
                assert abs(est.psi_upper - reference) <= 1e-10
                assert abs(est.psi_lower - reference) <= 1e-10

    _report(4, "lambda=1 estimates collapse to the AIPW value (1e-10)", check)


def test_criterion_05_manski_limit():
    def check():
        rng = np.random.default_rng(505)
        params = mb.sensitivity_params(1e6)
        for trial in range(3):
            data = random_dataset(rng, 400, binary=True)
            bundle = mb.default_bundle("binary")
            plan = mb.split_folds(data.n, 5, seed=trial)
            eta = mb.crossfit_nuisances(data, params, bundle, plan)
            est = mb.estimate_bounds(data, eta, params, mb.Estimand.ATE)
            lo, hi = manski_bounds_binary(data)
            assert abs(est.psi_lower - lo) <= 1e-3
            assert abs(est.psi_upper - hi) <= 1e-3

    _report(5, "lambda=1e6 binary bounds match the assumption-free bounds (1e-3)", check)


def test_criterion_06_sharpness_at_scale():
    def check():
        start = time.perf_counter()
        params = mb.sensitivity_params(2.0)
        n = 200_000

        data = mb.sample_dataset(FIXTURE_SINGLE, n, seed=606)
        nus = true_nuisances(FIXTURE_SINGLE, params)
        bundle = injection_bundle(FIXTURE_SINGLE, nus)
        plan = mb.split_folds(n, 2, seed=1)
        eta = mb.crossfit_nuisances(data, params, bundle, plan)
        est = mb.estimate_bounds(data, eta, params, mb.Estimand.MEAN1)
        sharp_lo, sharp_hi = FIXTURE_SINGLE_SHARP_MEAN1
        assert abs(est.psi_upper - sharp_hi) <= 3 * est.se_upper
        assert abs(est.psi_lower - sharp_lo) <= 3 * est.se_lower

        data3 = mb.sample_dataset(FIXTURE_THREE, n, seed=607)
        nus3 = true_nuisances(FIXTURE_THREE, params)
        bundle3 = injection_bundle(FIXTURE_THREE, nus3)
        plan3 = mb.split_folds(n, 2, seed=2)
        eta3 = mb.crossfit_nuisances(data3, params, bundle3, plan3)
        est3 = mb.estimate_bounds(data3, eta3, params, mb.Estimand.ATE)
        ate_lo, ate_hi = mb.sharp_bound_oracle(FIXTURE_THREE, params, mb.Estimand.ATE)
        assert abs(est3.psi_upper - ate_hi) <= 3 * est3.se_upper
        assert abs(est3.psi_lower - ate_lo) <= 3 * est3.se_lower
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"sharpness at scale took {elapsed:.2f}s"

    _report(6, "oracle-nuisance estimates at n=200000 hit the sharp bounds within 3 SEs (<30s)", check)


def test_criterion_07_double_sharpness_double_validity():
    def check():
        params = mb.sensitivity_params(2.0)
        n = 200_000
        sharp_lo, sharp_hi = FIXTURE_SINGLE_SHARP_MEAN1
        nus = true_nuisances(FIXTURE_SINGLE, params)
        n_levels = FIXTURE_SINGLE.n_levels

        bad_rho = dataclasses.replace(
            nus, rho_plus=np.full((n_levels, 2), 5.0), rho_minus=np.full((n_levels, 2), -5.0)
        )
        bad_e = dataclasses.replace(nus, e_hat=np.full(n_levels, 0.35))
        bad_q_tables = np.full((n_levels, 2), 10.0)
        bad_q = dataclasses.replace(
            nus, q_plus=bad_q_tables, q_minus=bad_q_tables,
            rho_plus=np.full((n_levels, 2), 5.0), rho_minus=np.full((n_levels, 2), -5.0),
        )
        exact_rho_for_bad_q = dataclasses.replace(
            transformed_mean_nuisances(FIXTURE_SINGLE, params, bad_q_tables),
            e_hat=np.full(n_levels, 0.35),
        )

        # population form: the sharp configurations attain the bound, the
        # misspecified-quantile configurations stay valid
        for eta_levels, sharp_expected in ((bad_rho, True), (bad_e, True)):
            up = population_bound(FIXTURE_SINGLE, params, mb.Estimand.MEAN1, "+", eta_override=eta_levels)
            dn = population_bound(FIXTURE_SINGLE, params, mb.Estimand.MEAN1, "-", eta_override=eta_levels)
            assert abs(up - sharp_hi) <= 1e-10
            assert abs(dn - sharp_lo) <= 1e-10
        for eta_levels in (bad_q, exact_rho_for_bad_q):
            up = population_bound(FIXTURE_SINGLE, params, mb.Estimand.MEAN1, "+", eta_override=eta_levels)
            dn = population_bound(FIXTURE_SINGLE, params, mb.Estimand.MEAN1, "-", eta_override=eta_levels)
            assert up >= sharp_hi - 1e-10
            assert dn <= sharp_lo + 1e-10

        # estimated form at n = 200000
        data = mb.sample_dataset(FIXTURE_SINGLE, n, seed=707)
        plan = mb.split_folds(n, 2, seed=3)

        def estimate(eta_levels):
            bundle = injection_bundle(FIXTURE_SINGLE, eta_levels)
            eta = mb.crossfit_nuisances(data, params, bundle, plan)
            return mb.estimate_bounds(data, eta, params, mb.Estimand.MEAN1)

        for eta_levels in (bad_rho, bad_e):
            est = estimate(eta_levels)
            assert abs(est.psi_upper - sharp_hi) <= 3 * est.se_upper
            assert abs(est.psi_lower - sharp_lo) <= 3 * est.se_lower
        for eta_levels in (bad_q, exact_rho_for_bad_q):
            est = estimate(eta_levels)
            assert est.psi_upper >= sharp_hi - 3 * est.se_upper
            assert est.psi_lower <= sharp_lo + 3 * est.se_lower

    _report(7, "sharp under either auxiliary nuisance; valid under wrong quantiles (4 configs)", check)


def test_criterion_08_binary_coverage_band():
    def check():
        start = time.perf_counter()
        spec = mb.GenerativeSpec("benchmark_binary")
        report = mb.monte_carlo_coverage(
            spec, [1.0, 1.5, 2.0], reps=500, n=1000, k_folds=5, alpha=0.05, seed=808
        )
        for cell in report.cells:
            assert 0.90 <= cell.coverage <= 0.99, (
                f"lambda={cell.lam}: coverage {cell.coverage:.3f} outside [0.90, 0.99]"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 900.0, f"binary coverage study took {elapsed:.1f}s"
        print(
            "    coverage by lambda: "
            + ", ".join(f"{c.lam:g}: {c.coverage:.3f}" for c in report.cells)
        )

    _report(8, "binary-process coverage in [0.90, 0.99] per lambda (500 reps, n=1000, <15min)", check)


def test_criterion_09_continuous_smoke():
    def check():
        start = time.perf_counter()
        spec = mb.GenerativeSpec("benchmark_continuous")
        report = mb.monte_carlo_coverage(
            spec, [2.0], reps=100, n=1000, k_folds=5, alpha=0.05, seed=909
        )
        cell = report.cells[0]
        ok = [r for r in report.records if r.error is None]
        above = np.mean([r.psi_upper > cell.truth_lower for r in ok])
        assert above >= 0.99, f"upper bound exceeded the lower truth in only {above:.2%} of reps"
        assert cell.coverage >= 0.90, f"coverage {cell.coverage:.3f} below 0.90"
        elapsed = time.perf_counter() - start
        assert elapsed < 900.0, f"continuous study took {elapsed:.1f}s"
        print(f"    coverage: {cell.coverage:.3f}, upper>truth-lower: {above:.2%}")

    _report(9, "continuous-process validity and coverage >= 0.90 (100 reps, n=1000, <15min)", check)


def test_criterion_10_att_formulas():
    def check():
        rng = np.random.default_rng(1010)
        for trial in range(5):
            data = random_dataset(rng, 250, binary=bool(trial % 2))
            kind = "binary" if trial % 2 else "continuous"
            params = mb.sensitivity_params(1.0 + trial)
            bundle = mb.default_bundle(kind)
            plan = mb.split_folds(data.n, 4, seed=trial)
            eta = mb.crossfit_nuisances(data, params, bundle, plan)
            est = mb.att_bounds(data, eta, params)

            # independent direct implementation from the raw displays
            y = data.outcome
            z = data.treatment.astype(float)
            e = eta.e_hat
            lam = params.lam
            phi0 = {}
            for side, q_arr, rho_arr in (
                ("+", eta.q_plus, eta.rho_plus),
                ("-", eta.q_minus, eta.rho_minus),
            ):
                q0 = q_arr[:, 0]
                rho0 = rho_arr[:, 0]
                sgn = np.where(y - q0 >= 0, 1.0, -1.0)
                expo = sgn if side == "+" else -sgn
                kern = q0 + lam**expo * (y - q0)
                phi0[side] = (1 - z) * y + z * rho0 + (e * (1 - z) / (1 - e)) * (kern - rho0)
            n1 = z.sum()
            upper = (y.mean() - phi0["-"].mean()) / z.mean()
            lower = (y.mean() - phi0["+"].mean()) / z.mean()
            se_upper = np.sqrt(np.sum((y - phi0["-"] - z * upper) ** 2) / (n1 * (n1 - 1)))
            se_lower = np.sqrt(np.sum((y - phi0["+"] - z * lower) ** 2) / (n1 * (n1 - 1)))
            assert abs(est.psi_upper - upper) <= 1e-12
            assert abs(est.psi_lower - lower) <= 1e-12
            assert abs(est.se_upper - se_upper) <= 1e-12
            assert abs(est.se_lower - se_lower) <= 1e-12
            if params.lam == 1.0:
                assert abs(est.psi_upper - est.psi_lower) <= 1e-12

    _report(10, "treated-effect ratio form and standard errors match a direct implementation (1e-12)", check)


def test_criterion_11_cli_determinism(tmp_path):
    def check():
        from msmbounds.cli import main

        golden = (FIXTURES / "golden_analyze.json").read_bytes()
        args = [
            "analyze", "--data", str(FIXTURES / "binary_n300.csv"),
            "--treatment", "z", "--outcome", "y", "--binary",
            "--lambda", "1", "--lambda", "1.5", "--lambda", "2",
            "--seed", "7",
        ]
        for idx in range(3):
            out = tmp_path / f"run{idx}.json"
            assert main(args + ["--out", str(out)]) == 0
            assert out.read_bytes() == golden

    _report(11, "analyze output is byte-identical to the golden file across repeated runs", check)
