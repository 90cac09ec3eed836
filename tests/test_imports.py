"""What each process imports, and when.

After numpy, ``import msmbounds`` adds only ``__future__``, ``copy`` and
``dataclasses`` to the package's own modules.  ``scipy.special`` loads at
the first fit, or before the first fork (``core._openblas_thread_counts``),
and the process pool's modules (``multiprocessing``,
``concurrent.futures``) the first time ``core.fork_map`` forks, after
scipy and before the fork.  ``scipy.linalg`` loads only for the pinball
solver (``core._scipy_linalg``): at its first solve, or before a pool whose
jobs solve forks (``learners._load_quantile_solver``).  So a process that
never fits or forks, ``simulate`` among them, never pays for them, a binary
run never loads ``scipy.linalg``, and a pool worker never imports any of
them again.  Each test runs a fresh interpreter, as the package's own state
(the cached OpenBLAS lookup, the loaded modules) is what it checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def _imported(*args: str) -> tuple[int, set[str]]:
    """The exit code of a fresh interpreter run with ``args``, and every
    module it imported, as ``-X importtime`` names them."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, modules


def _scipy(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def _under(modules: set[str], *packages: str) -> set[str]:
    """The modules that are one of ``packages`` or inside one."""
    return {m for m in modules if m in packages or m.startswith(tuple(p + "." for p in packages))}


@pytest.mark.parametrize(
    "args",
    [["-c", "import msmbounds"], ["-m", "msmbounds", "--version"], ["-m", "msmbounds", "--help"]],
    ids=["import", "version", "help"],
)
def test_start_up_loads_no_scipy(args):
    code, modules = _imported(*args)
    assert code == 0
    assert "msmbounds" in modules and "numpy" in modules
    assert not _scipy(modules)


def test_an_input_error_loads_no_scipy(tmp_path):
    code, modules = _imported(
        "-m", "msmbounds", "analyze", "--data", str(tmp_path / "missing.csv"), "--treatment", "z",
        "--outcome", "y", "--lambda", "1.5", "--seed", "1", "--out", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert "msmbounds.cli" in modules
    assert not _scipy(modules)


def test_the_package_adds_three_standard_modules_to_numpy():
    script = (
        "import json, sys, numpy; before = set(sys.modules); import msmbounds; "
        "print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'msmbounds')))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {"__future__", "copy", "dataclasses"}


@pytest.mark.parametrize("command", ["import", "version", "help", "input-error"])
def test_start_up_loads_no_process_pool(tmp_path, command):
    args = {
        "import": ["-c", "import msmbounds"],
        "version": ["-m", "msmbounds", "--version"],
        "help": ["-m", "msmbounds", "--help"],
        "input-error": [
            "-m", "msmbounds", "analyze", "--data", str(tmp_path / "missing.csv"), "--treatment", "z",
            "--outcome", "y", "--lambda", "1.5", "--seed", "1", "--out", str(tmp_path / "r.json"),
        ],
    }[command]
    code, modules = _imported(*args)
    assert code == (2 if command == "input-error" else 0)
    assert "msmbounds" in modules
    assert not _under(modules, "multiprocessing", "concurrent.futures")


# A binary analyze loads scipy at its first fit, and scipy.special imports
# concurrent.futures itself, so this run is checked for multiprocessing
# alone.  The binary sweep maps no quantile fit, and a map of no job never
# forks.
@pytest.mark.parametrize("command", ["binary-analyze"])
def test_a_run_that_never_forks_loads_no_multiprocessing(tmp_path, command):
    args = [
        "analyze", "--data", str(FIXTURES / "binary_n300.csv"), "--treatment", "z", "--outcome", "y",
        "--binary", "--lambda-grid", "1:2:0.5", "--seed", "1",
    ]
    out = tmp_path / "out"
    code, modules = _imported("-m", "msmbounds", *args, "--out", str(out))
    assert code == 0 and out.exists()
    assert "scipy.special" in modules
    assert not _under(modules, "multiprocessing")


# Only the pinball solver calls scipy.linalg, and a binary run solves no
# pinball program, whether it analyzes data or runs a study on workers.
@pytest.mark.parametrize("command", ["binary-analyze", "binary-coverage"])
def test_a_binary_run_loads_no_scipy_linalg(tmp_path, command):
    out = tmp_path / "out"
    args = {
        "binary-analyze": [
            "analyze", "--data", str(FIXTURES / "binary_n300.csv"), "--treatment", "z", "--outcome", "y",
            "--binary", "--lambda-grid", "1:2:0.5", "--seed", "1",
        ],
        "binary-coverage": [
            "coverage", "--spec", "benchmark_binary", "--reps", "2", "--n", "200", "--folds", "2",
            "--lambda", "1.5", "--seed", "1",
        ],
    }[command]
    code, modules = _imported("-m", "msmbounds", *args, "--out", str(out))
    assert code == 0 and out.exists()
    assert "scipy.special" in modules
    assert not _under(modules, "scipy.linalg")


# A continuous analyze maps its quantile fits, which stay serial on one CPU.
_ONE_CPU_SCRIPT = textwrap.dedent(
    """
    import os, sys
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from msmbounds.cli import main

    data, out = sys.argv[1], sys.argv[2]
    assert main(["simulate", "--spec", "benchmark_continuous", "--n", "200", "--seed", "3", "--out", data]) == 0
    assert main([
        "analyze", "--data", data, "--treatment", "z", "--outcome", "y", "--continuous",
        "--lambda-grid", "1:2:0.5", "--folds", "2", "--seed", "1", "--out", out,
    ]) == 0
    print("multiprocessing" in sys.modules)
    """
)


def test_a_continuous_analyze_on_one_cpu_loads_no_multiprocessing(tmp_path):
    data, out = tmp_path / "sim.csv", tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-c", _ONE_CPU_SCRIPT, str(data), str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert proc.stdout.strip() == "False"


# simulate draws its 0/1 columns with numpy and libm (coverage._below_expit).
@pytest.mark.parametrize("kind", ["binary", "continuous"])
def test_simulate_loads_no_scipy(tmp_path, kind):
    out = tmp_path / "sim.csv"
    code, modules = _imported(
        "-m", "msmbounds", "simulate", "--spec", f"benchmark_{kind}", "--n", "50", "--seed", "3", "--out", str(out),
    )
    assert code == 0 and out.exists()
    assert "msmbounds.cli" in modules
    assert not _scipy(modules)
    assert not _under(modules, "multiprocessing", "concurrent.futures")


# Runs one study on 2 forked workers and prints its own pid.  Each worker
# notes the modules it had when its initializer started, which are the ones
# it inherited, and after each job appends its pid and every module loaded
# since to the log.
_WORKER_SCRIPT = textwrap.dedent(
    """
    import json, os, sys
    import msmbounds as mb
    from msmbounds import core

    study, log = sys.argv[1], sys.argv[2]
    core.os.sched_getaffinity = lambda pid: set(range(2))  # as tests/helpers.force_workers does
    init_worker, run_in_worker = core._init_worker, core._run_in_worker
    inherited = None

    def noting_init_worker(fn):
        global inherited
        inherited = set(sys.modules)
        init_worker(fn)

    def noting_run_in_worker(item):
        result = run_in_worker(item)
        with open(log, "a") as f:
            f.write(json.dumps([os.getpid(), sorted(set(sys.modules) - inherited)]) + "\\n")
        return result

    core._init_worker, core._run_in_worker = noting_init_worker, noting_run_in_worker
    if study == "continuous-curve":
        data = mb.simulate(mb.GenerativeSpec(kind="benchmark_continuous"), 300, 4)
        plan = mb.split_folds(data.n, 2, 4)
        list(mb.sensitivity_curve(data, [1.0, 2.0], mb.default_bundle(data.outcome_kind), plan, mb.Estimand.ATE))
    else:
        kind = "benchmark_binary" if study == "binary-coverage" else "benchmark_continuous"
        mb.monte_carlo_coverage(mb.GenerativeSpec(kind=kind), [1.5], reps=2, n=200, k_folds=2, seed=4)
    print(os.getpid())
    """
)


# The workers of a continuous study solve pinball programs serially, so the
# study's parent loads scipy.linalg before it forks them.
@pytest.mark.parametrize("study", ["continuous-curve", "binary-coverage", "continuous-coverage"])
def test_a_pool_worker_imports_nothing(tmp_path, study):
    log = tmp_path / "jobs.log"
    proc = subprocess.run([sys.executable, "-c", _WORKER_SCRIPT, study, str(log)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    jobs = [json.loads(line) for line in log.read_text().splitlines()]
    assert jobs and int(proc.stdout) not in {pid for pid, _ in jobs}  # the jobs ran on workers
    assert [new for _, new in jobs] == [[]] * len(jobs)


# "package-only" loads the scipy.special of a fit, "package-solver" then the
# scipy.linalg of the pinball solver, and "scipy-first" every scipy module
# the package uses before the package.
_BLAS_SCRIPT = textwrap.dedent(
    """
    import json, sys
    if sys.argv[1] == "scipy-first":
        import scipy.linalg
    from msmbounds import core

    core._openblas_thread_counts()
    if sys.argv[1] == "package-solver":
        core._scipy_linalg()
    counts = core._openblas_thread_counts()
    before = [count.value for count in counts]
    with core._one_blas_thread():
        inside = [count.value for count in counts]
    print(json.dumps({"before": before, "inside": inside, "after": [count.value for count in counts]}))
    """
)


def test_the_blas_pin_covers_the_scipy_it_loads():
    seen = {}
    for order in ("package-only", "package-solver", "scipy-first"):
        proc = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT, order], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        seen[order] = json.loads(proc.stdout)
    if not seen["scipy-first"]["before"]:
        pytest.skip("no bundled OpenBLAS is loaded")
    # scipy.special maps scipy's OpenBLAS, as core._openblas_thread_counts
    # says, and the solver's import refreshes the lookup in case it did not.
    assert len(seen["package-only"]["before"]) == len(seen["scipy-first"]["before"])
    assert len(seen["package-solver"]["before"]) == len(seen["scipy-first"]["before"])
    for counts in seen.values():
        assert counts["inside"] == [1] * len(counts["before"])
        assert counts["after"] == counts["before"]
