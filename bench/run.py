"""Benchmark for msmbounds: one workload per run, closed loop, one
operation at a time, every output checked.

    python3 bench/run.py --workload coverage-binary --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps the package's public functions and
prints the per-layer metrics instead (see ``tracer.py``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat each
metric with its unit and record the environment.  Run records and spans
are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer, metric_specs
from workloads import WORKLOADS, setup_command

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7  # set-up runs per benchmark run; setup_s is their median


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # not a git checkout; do not report an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _blas_threads() -> int | None:
    # numpy wheels bundle scipy-openblas next to the package.
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
    }


def _time_setup(workload, workdir: Path, seed: int) -> float:
    """Wall seconds of one run of the set-up command in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run(setup_command(workload, workdir, seed), env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def _host_probe() -> float:
    """Seconds for a fixed pure-Python loop.  It gauges the host's speed, so
    that drift between runs can be told apart from a change in the program."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    return time.perf_counter() - t0


def _measure(workload, workdir: Path, seed: int, seconds: float, tracer=None, setup=None):
    """Run operations one at a time until they have taken ``seconds`` (at
    least one).  With a tracer, operations alternate traced and untraced,
    starting traced and ending untraced, so each traced op has an untraced
    neighbour.  With a ``setup`` list, one set-up sample is appended after
    each op until it holds SETUP_REPS, so that the samples span the run as
    the ops do.  Returns each op's wall time, output and host probe."""
    walls, outputs, probes = [], [], []
    step = 2 if tracer else 1
    while not walls or len(walls) % step or sum(walls) < seconds:
        traced = tracer is not None and len(walls) % 2 == 0
        probes.append(_host_probe())
        if traced:
            tracer.install()
        span = tracer.operation(f"op{len(walls)}") if traced else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                output = workload.run_op(workdir, seed)
        except (Exception, SystemExit):
            output = traceback.format_exc()
        finally:
            walls.append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
        outputs.append(output)
        if setup is not None and len(setup) < SETUP_REPS:
            setup.append(_time_setup(workload, workdir, seed))
    return walls, outputs, probes


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path | None = None) -> dict:
    """One benchmark run.  Returns the result record; its ``summary`` is
    the object printed last."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        t0 = time.perf_counter()
        import msmbounds  # noqa: F401  (the import being timed)
        from msmbounds import cli

        import_s = time.perf_counter() - t0
        setup, tracer = [], None
        if trace:
            tracer = Tracer()
            args = workload.setup_args(workdir, seed)
            if args is not None:
                tracer.install()
                try:
                    with tracer.operation("setup0", group="setup"):
                        if cli.main(args) != 0:
                            raise RuntimeError(f"set-up command {args} failed")
                finally:
                    tracer.uninstall()
        else:
            setup = [_time_setup(workload, workdir, seed)]  # also writes the input
        walls, outputs, probes = _measure(workload, workdir, seed, seconds, tracer, None if trace else setup)
        if not trace:
            setup += [_time_setup(workload, workdir, seed) for _ in range(SETUP_REPS - len(setup))]
        # Read before the truth runs, so that the truth quadrature stays out of it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The truth is computed after the timed operations so that it
        # stays out of every timing.
        truth = workload.truth()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    for i, output in enumerate(outputs):
        problems = [output] if isinstance(output, str) else workload.check(output, truth, seed)
        if problems:
            failures.append({"op": i, "problems": problems})

    if trace:
        walls, untraced = walls[0::2], walls[1::2]
        metrics = tracer.metrics()
        # Median over adjacent (traced, untraced) pairs, so that the host's
        # drift during the run cancels.
        metrics["bench.trace_overhead_s"] = statistics.median(t - u for t, u in zip(walls, untraced))
        units = dict(metric_specs(), **{"bench.trace_overhead_s": "s"})
    else:
        untraced = []
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "lambda_points_per_s": workload.lambda_points_per_op / wall_s,
            "reps_per_s": workload.reps_per_op / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "lambda_points_per_s": "1/s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}
    attempted = len(outputs)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(ROOT),
        "import_s": import_s,
        "setup_samples_s": setup,
        "op_walls_s": walls,
        "untraced_op_walls_s": untraced,
        "host_probe_s": statistics.median(probes),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "absent_layers": tracer.absent if tracer else [],
        "summary": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer:
            tracer.write_spans(out_dir / f"{stem}-spans.jsonl.gz")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or 'all' to run each in turn in its own process")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measure for this long (at least one op)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "msmbounds" / "__init__.py").is_file():
        print(f"bench: no msmbounds package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode for name in WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))

    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out")
    summary = record["summary"]
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for failure in record["failures"][:5]:
        print(f"failure op {failure['op']}: {failure['problems'][0].strip().splitlines()[-1]}")
    walls = ", ".join(f"{w:.3f}" for w in record["op_walls_s"])
    untraced = "".join(f", untraced {w:.3f}" for w in record["untraced_op_walls_s"])
    print(f"{args.workload}: {summary['attempted']} ops, {summary['failed']} failed, "
          f"error_rate {record['error_rate']:g}, op walls (s) {walls}{untraced}, "
          f"host probe {record['host_probe_s']:.4f} s, set-up samples (s) "
          + ", ".join(f"{w:.3f}" for w in record["setup_samples_s"]))
    if record["absent_layers"]:
        print("absent layers (reported as 0): " + ", ".join(record["absent_layers"]))
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
