"""Benchmark of the parabolic-dtbc solver: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the solver is imported from ``src/``.
The workloads, their metrics and the regression bounds are declared in
``BENCHMARK.json``; the sizes and reference values are in ``WORKLOADS``
below.  The seed generates the workload's inputs (seed 0 gives the
presets); the solver receives only those inputs.

With ``--trace 0`` the end-to-end metrics are measured: ``SETUP_SAMPLES``
fresh processes time the set-up (process start to the first timed call),
half of them before and half after the one that runs the timed iterations
back to back for ``--seconds`` seconds, BLAS pinned to ``BLAS_THREADS``
threads.  A fixed probe task, timed right before and after each
iteration, measures the speed of the host during the run;
``wall_norm_s`` is the mean iteration wall time rescaled from the probe's
mean to its reference time (the raw wall times are printed and recorded
too), ``setup_s`` the median set-up.  With
``--trace 1`` one process alternates untraced and traced iterations, and
the per-layer metrics come from spans recorded around every public
callable of the package (see ``tracing.py``).  Correctness checks run
after each iteration, outside the timed region; an exception or a failed
check counts the iteration as failed.

Human-readable lines (metrics with units, environment, sha256 of the
deterministic CSVs) precede the result, which is the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record, with every iteration and every traced span name, is
written to ``.perfbench/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
# The host-speed probe's time (``worker.probe_once``) on an uncontended core
# of a 2.1 GHz Xeon; ``wall_norm_s`` is wall time rescaled to that speed.
PROBE_REF_S = 0.020
MODULES = ("problem", "discrete_ops", "dtbc_kernel", "stepper", "validation",
           "cli")

# Sizes define the workloads; ``reference_error`` is max_abs_error at seed 0,
# the value the accuracy check holds each run to (within the metric's bound).
# "tiny" sizes exist for the benchmark's own test only.
WORKLOADS = {
    "long_horizon": {
        "kind": "library",
        "full": {"J": 50, "M": 50000, "reference_levels": 500,
                 "reference_error": 3.0650879057070313e-10},
        "tiny": {"J": 10, "M": 400, "reference_levels": 100,
                 "reference_error": 6.796532821163334e-08},
    },
    "fine_mesh": {
        "kind": "library",
        "full": {"J": 2000, "M": 2000, "reference_error": 4.928867973097439e-06},
        "tiny": {"J": 100, "M": 100, "reference_error": 2.165067442791102e-03},
    },
    "cli_session": {
        "kind": "cli",
        "full": {"J": 200, "M": 1000, "m_max": 200,
                 "reference_error": 4.95226093262702594e-08},
        "tiny": {"J": 20, "M": 50, "m_max": 20,
                 "reference_error": 1.9862008747052447e-05},
    },
}


def make_inputs(workload: str, size: str, seed: int) -> tuple[dict, float]:
    """Generated solver inputs and the reference error for one run.

    Seeds other than 0 jitter only data, never sizes, so the work stays
    fixed: the Gaussian pulse of ``example1`` moves left by up to 0.01 and
    narrows by up to 1% (staying inside the tail tolerance, moving the
    error by at most about 2%), and the CLI is passed another ``--seed``
    for its diagnostics probes (``solve`` runs its diagnostics with seed 0
    today, so the CLI session's outputs do not change with the seed).
    ``example2`` has no free data.
    """
    spec = WORKLOADS[workload]
    sizes = dict(spec[size])
    reference_error = sizes.pop("reference_error")
    rng = random.Random(seed)
    jitter = seed != 0
    if spec["kind"] == "library":
        inputs = {"sigma": 0.5, "theta": 1.0 / 12.0, "tau": 1.0 / sizes["M"],
                  **sizes}
        if workload == "fine_mesh":
            inputs.update(problem="example1",
                          x_star=1.25 - 0.01 * rng.random() * jitter,
                          t0=0.03125 * (1.0 - 0.01 * rng.random() * jitter))
        else:
            inputs.update(problem="example2")
    else:
        inputs = {"problem": "example2", "sigma": "1/2", "theta": "1/12",
                  "tau": "1e-3" if size == "full" else "2e-2",
                  "diag_seed": rng.randrange(1, 2**31) if jitter else 0,
                  **sizes}
    return inputs, reference_error


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": None, "cache": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["cache"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def spawn(task: dict, log, timeout: float) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS),
               PERFBENCH_SPAWN_NS=str(time.time_ns()))
    role = "setup" if task["setup_only"] else "main"
    result_path = Path(task["workdir"]) / f"worker-{role}.json"
    result_path.unlink(missing_ok=True)
    task = {**task, "result_path": str(result_path)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                           json.dumps(task)],
                          cwd=ROOT, env=env, stdout=log, stderr=log,
                          timeout=timeout)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited with code {proc.returncode}; "
                           f"see {log.name}")
    return json.loads(result_path.read_text())


def wall_norm(iterations: list) -> float:
    """Mean wall time of the iterations at the probe's reference speed.

    Means, not medians: the probe flips between a fast and a slow speed
    within a second, and its mean, like the mean wall time, follows the
    share of time the host ran slow.
    """
    walls = [it["wall_s"] for it in iterations]
    probes = [t for it in iterations for t in it["probe_s"]]
    return statistics.fmean(walls) * PROBE_REF_S / statistics.fmean(probes)


def layer_metrics(iterations: list, inputs: dict) -> tuple[dict, dict]:
    """Per-layer metrics from alternating untraced and traced iterations.

    Self times are medians over the traced iterations of per-iteration
    values; call counts come from the first traced iteration; the tracing
    overhead is ``wall_norm_s`` of the traced iterations minus that of the
    untraced ones.
    """
    its = [it for it in iterations if it["traced"]]
    names = sorted({n for it in its for n in it["layers"]})
    per_iteration = []
    for it in its:
        row = {f"{m}.self_s": 0.0 for m in MODULES}
        for name, rec in it["layers"].items():
            row[f"{name}.self_s"] = rec["self_s"]
            module = f"{name.split('.', 1)[0]}.self_s"
            if module in row:
                row[module] += rec["self_s"]
        row["trace.unaccounted_s"] = it["wall_s"] - sum(
            rec["self_s"] for rec in it["layers"].values())
        per_iteration.append(row)
    keys = {k for row in per_iteration for k in row}
    metrics = {k: (statistics.median(row.get(k, 0.0) for row in per_iteration), "s")
               for k in sorted(keys)}
    for name in names:
        metrics[f"{name}.calls"] = (
            its[0]["layers"].get(name, {}).get("calls", 0), "count")
    spans = {n: {"calls": metrics[f"{n}.calls"][0],
                 "self_s": metrics[f"{n}.self_s"][0]} for n in names}

    details = [it["details"] for it in its if it.get("details")]
    metrics["cli.output_bytes"] = (
        details[0]["output_bytes"] if details else 0, "bytes")
    metrics["cli.rows_written"] = (
        details[0]["rows_written"] if details else 0, "count")
    J, M = inputs["J"], inputs["M"]
    metrics["work.node_levels"] = ((J + 1) * M, "count")
    metrics["work.conv_terms"] = (M * (M + 1) // 2, "count")
    metrics["trace.overhead_s"] = (
        wall_norm(its) - wall_norm([it for it in iterations
                                    if not it["traced"]]), "s")
    return metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a small instance for the benchmark's own test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the first iteration's output (self-test)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "parabolic_dtbc" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"error: {ROOT} holds no parabolic_dtbc source tree to benchmark",
              file=sys.stderr)
        return 2
    bench = json.loads(spec_path.read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    inputs, reference_error = make_inputs(args.workload, args.size, args.seed)
    workdir = ROOT / ".perfbench" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    task = {"kind": WORKLOADS[args.workload]["kind"], "inputs": inputs,
            "limits": {"reference_error": reference_error,
                       "error_bound": bounds["max_abs_error"]["bound"]},
            "workdir": str(workdir),
            "corrupt": args.corrupt, "trace": 0, "setup_only": False}
    run_timeout = 2 * args.seconds + 60

    with (workdir / "worker.log").open("w") as log:
        try:
            def setup_samples(count):
                return [spawn({**task, "setup_only": True, "seconds": 0}, log,
                              SETUP_TIMEOUT_S)["setup_s"]
                        for _ in range(0 if args.trace else count)]

            # Half the set-up samples before the timed run and half after,
            # so that their median does not hinge on one moment's load.
            setups = setup_samples(SETUP_SAMPLES // 2)
            main_result = spawn({**task, "seconds": args.seconds,
                                 "trace": args.trace}, log, run_timeout)
            setups.append(main_result["setup_s"])
            setups += setup_samples(SETUP_SAMPLES // 2)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    iterations = main_result["iterations"]
    attempted = len(iterations)
    failed = sum(1 for it in iterations if it["failures"])
    walls = [it["wall_s"] for it in iterations if not it["traced"]]
    probes = [t for it in iterations if not it["traced"] for t in it["probe_s"]]
    errors = [it["max_abs_error"] for it in iterations
              if it.get("max_abs_error", float("nan")) >= 0.0]
    metrics = {}
    spans = {}
    if args.trace:
        metrics, spans = layer_metrics(iterations, inputs)
    else:
        metrics["wall_norm_s"] = (wall_norm(iterations), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (main_result["peak_rss_mb"], "MiB")
        # None (JSON null) only when no iteration produced an error value,
        # which also makes the run incorrect.
        metrics["max_abs_error"] = (
            statistics.median(errors) if errors else None, "1")
    for m in wanted:
        # A traced callable the workload never reaches has no span.
        metrics.setdefault(m["name"], (0, m["unit"]))

    sha = [it["details"]["sha256"] for it in iterations
           if it.get("details", {}).get("sha256")]
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "inputs": inputs,
        "git_commit": git_commit(), "blas_threads": BLAS_THREADS,
        "machine": machine(), "environment": main_result["environment"],
        "setup_samples_s": setups, "wall_samples_s": walls,
        "probe_samples_s": probes,
        "traced_wall_samples_s": [it["wall_s"] for it in iterations
                                  if it["traced"]],
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": [f for it in iterations for f in it["failures"]],
        "csv_sha256": sha[0] if sha else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": spans,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"# perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} seconds={args.seconds:g} "
          f"blas_threads={BLAS_THREADS} commit={record['git_commit']}")
    print(f"# inputs {json.dumps(inputs)}")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# environment {json.dumps(record['environment'])}")
    if record["csv_sha256"]:
        for name, digest in record["csv_sha256"].items():
            print(f"# sha256 (non-gating) {name} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if value is None else format(value, '.9g')} {unit}")
    print(f"failed_ratio = {record['failed_ratio']:.9g} "
          f"({failed} of {attempted} iterations)")
    if not args.trace:
        print(f"# wall_s (not normalised) = {statistics.median(walls):.9g} s, "
              f"mean {statistics.fmean(walls):.9g} s; probe mean "
              f"{statistics.fmean(probes):.9g} s (reference {PROBE_REF_S:g} s)")
        print(f"# wall_norm_s is from {len(walls)} iterations and "
              f"{len(probes)} probes, setup_s the median of {len(setups)} "
              f"processes")
    for failure in record["failures"][:5]:
        print(f"# FAILED: {failure.strip()}")

    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
