"""The benchmark's workloads: how each sets up, runs one operation, and
checks the operation's output against the population truth.

Every input comes from the benchmark processes of ``msmbounds.simulate``
seeded with the workload seed, so the same seed gives the same inputs.
The msmbounds package must be importable before any method here runs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

# How many standard errors an estimate may sit from the truth before the
# operation counts as failed.  Continuous bounds must be valid (contain the
# truth) within VALID_SE.  Binary bounds must be sharp (near the truth)
# within SHARP_SE; 4 SE is too tight there, because the binary upper bound
# sits 1-2 SE high at lambda >= 2 and n = 1e5 (see NOTES.md).
VALID_SE = 4.0
SHARP_SE = 6.0
COVERAGE_BAND = (0.85, 1.0)  # accepted coverage per lambda; nominal is >= 0.95
FOLDS = 5


def _ate_truth(spec: str, lambdas) -> dict[float, tuple[float, float]]:
    import msmbounds as mb

    gen = mb.GenerativeSpec(kind=spec)
    return {
        lam: tuple(float(v) for v in mb.true_sharp_bounds(gen, mb.sensitivity_params(lam), mb.Estimand.ATE))
        for lam in lambdas
    }


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


@dataclass(frozen=True)
class Analyze:
    """``msmbounds analyze`` on a simulated CSV over a lambda grid (ATE)."""

    name: str
    spec: str
    n: int
    grid: str  # start:stop:step, as passed to --lambda-grid

    @property
    def lambdas(self) -> list[float]:
        # The same expansion as the CLI's --lambda-grid parser.
        start, stop, step = (float(p) for p in self.grid.split(":"))
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]

    @property
    def lambda_points_per_op(self) -> int:
        return len(self.lambdas)

    reps_per_op = 1

    def input_path(self, workdir: Path) -> Path:
        return workdir / "input.csv"

    def setup_args(self, workdir: Path, seed: int) -> list[str]:
        """Arguments of the ``msmbounds`` command that writes the input."""
        return ["simulate", "--spec", self.spec, "--n", str(self.n), "--seed", str(seed),
                "--out", str(self.input_path(workdir))]

    def run_op(self, workdir: Path, seed: int) -> list[dict]:
        from msmbounds import cli

        out = workdir / "analyze.json"
        out.unlink(missing_ok=True)
        kind = "--binary" if self.spec == "benchmark_binary" else "--continuous"
        code = cli.main([
            "analyze", "--data", str(self.input_path(workdir)), "--treatment", "z", "--outcome", "y",
            kind, "--lambda-grid", self.grid, "--folds", str(FOLDS), "--seed", str(seed),
            "--out", str(out),
        ])
        if code != 0:
            raise RuntimeError(f"analyze exited with code {code}")
        return json.loads(out.read_text())["records"]

    def truth(self) -> dict[float, tuple[float, float]]:
        return _ate_truth(self.spec, self.lambdas)

    def check(self, records: list[dict], truth, seed: int) -> list[str]:
        """Problems with one operation's records; empty when all is well."""
        lambdas = self.lambdas
        if len(records) != len(lambdas):
            return [f"{len(records)} records for {len(lambdas)} grid points"]
        problems = []
        for lam, rec in zip(lambdas, records):
            where = f"lambda={lam:g}"
            lo, hi = rec["psi_lower"], rec["psi_upper"]
            se_lo, se_hi = rec["se_lower"], rec["se_upper"]
            if not math.isclose(rec["lambda"], lam, rel_tol=1e-12):
                problems.append(f"{where}: record has lambda {rec['lambda']!r}")
            if (rec["n"], rec["K"], rec["seed"]) != (self.n, FOLDS, seed):
                problems.append(f"{where}: n/K/seed {rec['n']}/{rec['K']}/{rec['seed']}")
            if not _finite(lo, hi, se_lo, se_hi, rec["ci_lower"], rec["ci_upper"]):
                problems.append(f"{where}: non-finite value")
                continue
            if not (se_lo > 0 and se_hi > 0 and rec["ci_lower"] <= lo <= hi <= rec["ci_upper"]):
                problems.append(f"{where}: bounds or intervals out of order")
            if lam == 1.0 and lo != hi:
                problems.append(f"{where}: psi_lower {lo!r} != psi_upper {hi!r}")
            t_lo, t_hi = truth[lam]
            if self.spec == "benchmark_binary":
                # The binary outcome model is correctly specified, so the
                # estimates are sharp.
                if abs(lo - t_lo) > SHARP_SE * se_lo or abs(hi - t_hi) > SHARP_SE * se_hi:
                    problems.append(f"{where}: [{lo:.5f}, {hi:.5f}] not within {SHARP_SE:g} SE of [{t_lo:.5f}, {t_hi:.5f}]")
            elif lo > t_lo + VALID_SE * se_lo or hi < t_hi - VALID_SE * se_hi:
                # Linear quantiles are misspecified for the continuous
                # process, so its bounds are only valid (conservative).
                problems.append(f"{where}: [{lo:.5f}, {hi:.5f}] does not contain [{t_lo:.5f}, {t_hi:.5f}] within {VALID_SE:g} SE")
        return problems


@dataclass(frozen=True)
class Coverage:
    """``monte_carlo_coverage`` on a benchmark process (ATE)."""

    name: str
    spec: str
    lambdas: tuple[float, ...]
    reps: int
    n: int

    @property
    def lambda_points_per_op(self) -> int:
        return self.reps * len(self.lambdas)

    @property
    def reps_per_op(self) -> int:
        return self.reps

    def setup_args(self, workdir: Path, seed: int) -> None:
        return None  # set-up is the package import alone

    def run_op(self, workdir: Path, seed: int):
        import msmbounds as mb

        return mb.monte_carlo_coverage(
            mb.GenerativeSpec(kind=self.spec), self.lambdas, reps=self.reps, n=self.n,
            k_folds=FOLDS, seed=seed,
        )

    def truth(self) -> dict[float, tuple[float, float]]:
        return _ate_truth(self.spec, self.lambdas)

    def check(self, report, truth, seed: int) -> list[str]:
        problems = []
        if len(report.records) != self.reps * len(self.lambdas):
            problems.append(f"{len(report.records)} records for {self.reps} reps x {len(self.lambdas)} lambdas")
        failed = sorted({r.rep for r in report.records if r.error is not None})
        if failed:
            problems.append(f"{len(failed)} replications failed, first: rep {failed[0]}")
        for r in report.records:
            if r.error is None and not (_finite(r.psi_lower, r.psi_upper) and r.psi_lower <= r.psi_upper):
                problems.append(f"rep {r.rep}, lambda={r.lam:g}: bounds [{r.psi_lower}, {r.psi_upper}]")
                break
        if [c.lam for c in report.cells] != list(self.lambdas):
            return problems + [f"cells for lambdas {[c.lam for c in report.cells]}"]
        low, high = COVERAGE_BAND
        for cell in report.cells:
            t_lo, t_hi = truth[cell.lam]
            if cell.reps_failed or not low <= cell.coverage <= high:
                problems.append(f"lambda={cell.lam:g}: coverage {cell.coverage} outside [{low}, {high}]")
            if abs(cell.truth_lower - t_lo) > 1e-9 or abs(cell.truth_upper - t_hi) > 1e-9:
                problems.append(f"lambda={cell.lam:g}: report truth differs from true_sharp_bounds")
        return problems


# BENCHMARK.json lists analyze-continuous and coverage-binary.
# analyze-binary-large (about 12 s per op) is kept for runs by name: with
# three workloads, the runs the benchmark is given leave about 20 s of
# measurement per run, too short to steady the medians on a 2-core host.
WORKLOADS = {
    w.name: w
    for w in (
        Analyze("analyze-binary-large", "benchmark_binary", n=100_000, grid="1:3:0.25"),
        Analyze("analyze-continuous", "benchmark_continuous", n=10_000, grid="1:3:0.5"),
        Coverage("coverage-binary", "benchmark_binary", lambdas=(1.0, 1.5, 2.0), reps=150, n=1000),
    )
}


def setup_command(workload, workdir: Path, seed: int) -> list[str]:
    """The fresh-interpreter command whose wall time is the set-up time."""
    args = workload.setup_args(workdir, seed)
    if args is None:
        return [sys.executable, "-c", "import msmbounds"]
    return [sys.executable, "-m", "msmbounds", *args]
