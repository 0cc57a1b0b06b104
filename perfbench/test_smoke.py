"""Smoke runs of the benchmark: every workload must finish with no failed
operation, and the traced run must report every declared per-layer metric.

    python3 -m pytest -q perfbench/test_smoke.py

The link4d smoke run takes one full round (about a quarter of a minute).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_has_no_failures(workload):
    result = result_of(run("--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"]
                                      for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = result_of(run("--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    assert metrics["homology._snf_diagonal_sparse.calls"]["value"] == 0
    assert metrics["solver.projection_lower_bound.calls"]["value"] > 0


def test_tracer_restores_every_boundary():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from tracing import Tracer, boundaries

    def current():
        return [owner.__dict__[attr] for owner, attr, _, _ in boundaries()]

    before = current()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(before, current()))
    finally:
        tracer.remove()
    assert all(a is b for a, b in zip(before, current()))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "certify", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
