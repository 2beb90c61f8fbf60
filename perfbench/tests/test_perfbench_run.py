import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from perfbench import inputs, run, trace
from qisflow import _kernels, cli, verify

BENCH = Path(run.__file__).resolve().parent


def test_tracer_counts_kernel_calls_and_restores_the_modules(tmp_path):
    originals = (cli.main, _kernels.matrix_rhs, np.linalg.eigvalsh, dict(verify.SUITES))
    workload = run._workloads()["lp-matrix"]
    tracer = trace.Tracer()
    tracer.install()
    try:
        results = run.sweep(cli.main, workload, 0, tmp_path, calls=2)
    finally:
        tracer.uninstall()
    assert (cli.main, _kernels.matrix_rhs, np.linalg.eigvalsh, dict(verify.SUITES)) == originals
    assert all(failure is None for _, failure in results)

    metrics = trace.layer_metrics(tracer, tracer.summary())
    assert metrics["cli.main.calls"] == 2
    assert metrics["integrate.steps"] > 0
    assert metrics["kernels.rhs.calls"] == 4 * metrics["integrate.steps"]
    assert metrics["kernels.guard.calls"] == metrics["integrate.steps"]
    assert metrics["integrate.stop.boundary_reached"] == 2
    assert metrics["problem_io.write_trajectory.rows"] == metrics["integrate.records"]
    assert metrics["trace.coverage"] > 0.9


def test_traced_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lp-simplex", "--seed", "0",
         "--seconds", "0.4", "--trace", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]}


def test_declared_end_to_end_metrics_match_the_runner():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    reported = {k: u for k, u in run.UNITS.items() if k != "fail_ratio"}
    assert reported == {m["name"]: m["unit"] for m in declared["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-matrix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_runs_make_a_fixed_count_of_whole_input_cycles():
    workloads = run._workloads()
    assert workloads["lp-matrix"].cycle == len(inputs.LP_SIZES) * inputs.LP_STRATA
    for workload in workloads.values():
        calls = workload.calls(25)
        assert calls % workload.cycle == 0
        assert calls >= 1 + run.MIN_TAIL_BEYOND * 100 / (100 - workload.tail_percentile)
    assert workloads["lp-simplex"].calls(0.1) == workloads["lp-simplex"].cycle


def test_verify_seeds_are_consecutive_and_disjoint_between_seeds():
    assert inputs.verify_seed(2, 1) == inputs.verify_seed(2, 0) + 1
    assert inputs.verify_seed(3, 0) - inputs.verify_seed(2, 0) == inputs.VERIFY_SEEDS_PER_BENCH_SEED
