"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that the traced run's span accounting closes (self times add up to the
traced wall time within CLOSURE_MARGIN), that theta-eval keeps its failing
|Im z| band in the timed stream, that a seed fixes a run's ops and failed
ops, that the checks catch a wrong theta value
and differing outputs of one item, and that the command refuses to run
without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CLOSURE_MARGIN = 0.01   # |sum of self times - traced wall| / traced wall


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    monkeypatch.setattr(run.VerifyFull, "samples", 1)
    monkeypatch.setattr(run.VerifyFull, "cycle", 2)
    monkeypatch.setattr(run.VerifyFull, "trace_reps", 1)
    monkeypatch.setattr(run.AdditionLaw, "samples", 2)
    monkeypatch.setattr(run.AdditionLaw, "cycle", 2)
    monkeypatch.setattr(run.AdditionLaw, "trace_reps", 2)
    monkeypatch.setattr(run.ThetaEval, "trace_reps", 2)
    monkeypatch.setattr(run.ThetaEval, "chunk", 40)
    monkeypatch.setattr(run.ThetaEval, "cycle", 2)


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_metrics_present_with_units(name):
    result = run.end_to_end(run.WORKLOADS[name](3), seconds=0.01, setup_runs=1)
    assert result["problems"] == []
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert {k: u for k, (_, u) in result["metrics"].items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_layers_and_closes(name):
    core = run.program("theta_core")
    before = core.theta_eval
    result = run.traced_run(run.WORKLOADS[name](3))
    assert core.theta_eval is before, "tracer left a wrapper installed"
    assert result["problems"] == []
    assert {k: u for k, (_, u) in result["metrics"].items()} == _units("per_layer")
    assert result["info"]["self_s_closure"] <= CLOSURE_MARGIN
    assert result["metrics"]["theta_core.theta_eval.calls"][0] > 0


def test_theta_eval_keeps_band_inputs_in_the_timed_stream():
    workload = run.ThetaEval(5)
    inputs = workload.inputs(0)
    (_, zs, _), _ = inputs
    band = abs(zs.imag).max(axis=1) >= run.BAND_IM_Z[0]
    assert band.sum() == workload.chunk // run.BAND_EVERY
    raw = workload.run(inputs)
    assert raw.ops == len(raw.latencies) == workload.chunk
    assert workload.check(raw).failed >= 1


def test_a_seed_fixes_ops_and_failed_ops():
    workload = run.ThetaEval(5)
    first, second = (run.end_to_end(workload, seconds=0.01, setup_runs=1)
                     for _ in range(2))
    ops = run.MIN_PASSES * workload.cycle * workload.chunk
    assert first["attempted"] == second["attempted"] == ops
    assert first["failed"] == second["failed"] >= 1
    assert run.passes_for(workload, 25) == round(25 / workload.pass_s)


def test_theta_check_catches_a_wrong_value():
    workload = run.ThetaEval(5)
    raw = workload.run(workload.inputs(0))
    assert workload.check(raw).problems == []
    values = raw.payload[1]
    first = next(i for i, v in enumerate(values)
                 if isinstance(v, complex) and run._finite(v))
    values[first] *= 1j
    assert len(workload.check(raw).problems) == 1


def test_differing_outputs_of_one_item_are_a_problem():
    assert run.hash_problems([(0, "a"), (1, "b"), (0, "a")]) == []
    assert len(run.hash_problems([(0, "a"), (1, "b"), (0, "c")])) == 1


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theta-eval",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = _last_line(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(_units("end_to_end"))


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theta-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
