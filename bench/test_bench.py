"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest bench/test_bench.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that layer counts repeat exactly between runs, that a corrupted or
crashing operation counts as failed, and that the benchmark refuses to run
without the package sources.  No timing is bounded.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from workloads import FOLDS, WORKLOADS, Analyze, Coverage

sys.path.insert(0, str(run.ROOT / "src"))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "analyze-binary-large": dict(n=3000, grid="1:2:0.5"),
    "analyze-continuous": dict(n=1000, grid="1:2:0.5"),
    "coverage-binary": dict(reps=20, n=400),
}
SEED = 3


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@functools.cache
def _run(name: str, trace: bool, attempt: int = 0) -> dict:
    return run.run_workload(tiny(name), SEED, 0.0, trace)


@pytest.fixture(autouse=True)
def _one_setup_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def test_benchmark_json_names_defined_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    summary = _run(name, trace)["summary"]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in summary["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in summary["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_counts_repeat_exactly(name):
    first = _run(name, True)["summary"]["metrics"]
    second = _run(name, True, attempt=1)["summary"]["metrics"]
    counts = [k for k in first if k.endswith((".calls", ".rows", ".errors", ".bytes", ".failed_reps"))]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_layer_counts_match_the_code():
    w = tiny("analyze-binary-large")
    calls = {k: v["value"] for k, v in _run(w.name, True)["summary"]["metrics"].items()}
    fits = FOLDS * len(w.lambdas)
    assert calls["learners.fit_propensity.calls"] == fits
    assert calls["learners.fit_mean.calls"] == 2 * fits
    assert calls["learners.fit_quantile.calls"] == 0
    assert calls["estimator.crossfit_nuisances.calls"] == len(w.lambdas)
    assert calls["cli.cmd_simulate.calls"] == 1
    assert calls["learners.fit_propensity.rows"] == len(w.lambdas) * (FOLDS - 1) * w.n


class _SwappedAnalyze(Analyze):
    def run_op(self, workdir, seed):
        records = super().run_op(workdir, seed)
        for r in records:
            r["psi_lower"], r["psi_upper"] = r["psi_upper"], r["psi_lower"]
        return records


class _SwappedCoverage(Coverage):
    def run_op(self, workdir, seed):
        report = super().run_op(workdir, seed)
        records = tuple(dataclasses.replace(r, psi_lower=r.psi_upper, psi_upper=r.psi_lower) for r in report.records)
        return dataclasses.replace(report, records=records)


class _Crashing(Analyze):
    def run_op(self, workdir, seed):
        raise RuntimeError("operation crashed")


@pytest.mark.parametrize(
    "name, cls",
    [("analyze-binary-large", _SwappedAnalyze), ("coverage-binary", _SwappedCoverage), ("analyze-continuous", _Crashing)],
)
def test_bad_output_counts_as_failure(name, cls):
    workload = cls(**dataclasses.asdict(tiny(name)))
    summary = run.run_workload(workload, SEED, 0.0, False)["summary"]
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] >= 1


def test_absent_function_is_reported_not_fatal(monkeypatch):
    from msmbounds import learners

    monkeypatch.delattr(learners, "fit_rho")
    record = run.run_workload(tiny("analyze-binary-large"), SEED, 0.0, True)
    assert record["absent_layers"] == ["learners.fit_rho"]
    assert record["summary"]["metrics"]["learners.fit_rho.calls"]["value"] == 0.0
    assert record["summary"]["correct"]


def test_tracer_restores_every_binding():
    import msmbounds
    from msmbounds import cli, coverage, estimator

    before = [estimator.crossfit_nuisances, cli.crossfit_nuisances, coverage.crossfit_nuisances, msmbounds.fit_mean]
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.crossfit_nuisances is coverage.crossfit_nuisances is not before[0]
    finally:
        t.uninstall()
    assert [estimator.crossfit_nuisances, cli.crossfit_nuisances, coverage.crossfit_nuisances, msmbounds.fit_mean] == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "coverage-binary", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
