"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every declared metric is printed with its unit, that a clean
run reports no failure, that a deliberately corrupted trajectory or CSV
counts as a failed iteration, that the benchmark refuses to run without
a source tree, and that the tracer wraps each public callable once under
every name it is bound to.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace=0, corrupt=False, root=ROOT, seed=0):
    argv = [sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    if corrupt:
        argv.append("--corrupt")
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, trace=trace, seed=7)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    lines = proc.stdout.splitlines()
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("failed_ratio = 0 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    proc = run_bench(workload, corrupt=True)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_public_callables_once_under_every_name():
    script = """
import sys
sys.path.insert(0, "perfbench")
from tracing import Tracer
Tracer().install("parabolic_dtbc")
from parabolic_dtbc import cli, problem, stepper, validation
assert stepper.sample is problem.sample and hasattr(stepper.sample, "__wrapped__")
assert hasattr(stepper.kernel_by_recurrence, "__wrapped__")
assert hasattr(stepper.TriFactor.solve, "__wrapped__")
assert not hasattr(cli._fmt, "__wrapped__")
for module in (cli, problem, stepper, validation):
    for value in list(vars(module).values()) + list(problem.PRESETS.values()):
        inner = getattr(value, "__wrapped__", None)
        assert inner is None or not hasattr(inner, "__wrapped__"), value
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
