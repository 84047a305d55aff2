"""One benchmark process: set up a workload, run it back to back, check it.

Started by ``run.py`` with a JSON task as its only argument and the
launcher's spawn time in ``PERFBENCH_SPAWN_NS``; writes its result as JSON
to ``task["result_path"]``.  The iterations form a closed loop with one
client: each starts when the previous one and its checks are done.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

PACKAGE = "parabolic_dtbc"
MIN_ITERATIONS = 2
MAX_ITERATIONS = 1000
PROBE_REPS = 8


def probe_once() -> None:
    """A fixed interpreter-bound task that uses no code of the package.

    Timed next to each iteration, it measures how fast the host runs
    Python at that moment: on a shared host a core flips between a fast
    and a slow state within a second, and the share of slow time drifts
    over minutes with the load of its neighbours.
    """
    acc, parts = 0.0, []
    for i in range(20000):
        x = i * 1.0000001
        acc += x * x % 3.7
        parts.append(f"{x:.17g}")
    ",".join(parts)


def probe() -> list[float]:
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        probe_once()
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version",
                                         "openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    task = json.loads(sys.argv[1])
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    workdir = Path(task["workdir"])

    tracer = None
    if task["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(PACKAGE)

    import workloads

    workload = workloads.KINDS[task["kind"]](task["inputs"], task["limits"],
                                             workdir)
    workload.setup()
    setup_s = (time.time_ns() - spawn_ns) / 1e9
    result = {"setup_s": setup_s}
    if task["setup_only"]:
        Path(task["result_path"]).write_text(json.dumps(result))
        return 0

    # One core for the iterations and the probes, so that the probe
    # measures the core the workload runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    iterations = []
    budget = task["seconds"]
    loop_start = time.perf_counter()
    while len(iterations) < MAX_ITERATIONS:
        elapsed = time.perf_counter() - loop_start
        if len(iterations) >= MIN_ITERATIONS:
            typical = statistics.median(it["loop_s"] for it in iterations)
            if elapsed + typical > budget:
                break
        # With tracing, iterations alternate untraced / traced, so that each
        # pair runs under the same machine load.
        traced = tracer is not None and len(iterations) % 2 == 1
        if tracer is not None:
            if traced:
                tracer.install(PACKAGE)
            else:
                tracer.uninstall()
            tracer.reset()
        t_loop = time.perf_counter()
        probes = probe()
        gc.collect()
        t_begin = time.perf_counter()
        try:
            output = workload.run()
            error = None
        except Exception:
            output, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t_begin
        probes += probe()

        it = {"wall_s": wall, "probe_s": probes,
              "failures": [error] if error else [], "traced": traced}
        if traced:
            it["layers"] = tracer.summary()
            if len(iterations) == 1:
                tracer.write_spans(workdir / "spans.csv", t_begin)
        if output is not None:
            if task["corrupt"] and not iterations:
                workload.corrupt(output)
            try:
                err, failures, details = workload.check(output)
            except Exception:
                err, details = float("nan"), {}
                failures = [traceback.format_exc(limit=3)]
            it.update(max_abs_error=err, details=details)
            it["failures"] += failures
        del output
        it["loop_s"] = time.perf_counter() - t_loop
        iterations.append(it)

    result.update(
        iterations=iterations,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment())
    Path(task["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
