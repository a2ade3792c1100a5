"""One benchmark worker: a fresh interpreter that imports sobolev_lab once.

Started by ``run.py``, one at a time, with ``PYTHONPATH`` pointing at the
checkout's ``src``. It prints JSON lines on stdout:

* ``{"event": "ready"}`` once ``import sobolev_lab`` and the warm-up pass
  are done; the parent times set-up up to this line;
* ``{"event": "result", ...}`` at the end, with raw per-task latencies
  (the parent computes every statistic).

Modes: ``setup`` stops after the ready line; ``run`` then runs the timed
loop (``--trace 0``) or a traced pass between two untraced ones (``--trace 1``);
``probe`` only reports the BLAS in use and, traced, the fixed-input kernel
timings.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def blas_info() -> dict:
    """BLAS build name and the thread count of every loaded OpenBLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = int(fn())
                break
    return {"name": "%s %s" % (blas.get("name"), blas.get("version")), "threads": threads}


def run_pass(workload: str, tasks: list, tracer=None) -> tuple:
    """Run every task once; (latencies in s, failures)."""
    from workloads import run_task

    latencies, failures = [], []
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = i
        t0 = time.perf_counter()
        try:
            ok, detail = run_task(workload, task)
        except Exception as exc:  # a task that raises is a failed task, the loop goes on
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        latencies.append(time.perf_counter() - t0)
        if not ok:
            failures.append({"task": i, "kind": task["kind"], "detail": detail})
    return latencies, failures


def timed_loop(workload: str, tasks: list, seconds: float, min_tasks: int) -> dict:
    """Whole passes over the task list until both the time and count are reached."""
    latencies, failures = [], []
    t0 = time.perf_counter()
    while True:
        lat, fail = run_pass(workload, tasks)
        latencies += lat
        failures += fail
        if time.perf_counter() - t0 >= seconds and len(latencies) >= min_tasks:
            break
    return {"latencies_s": latencies, "failures": failures, "wall_s": time.perf_counter() - t0}


def traced_passes(workload: str, tasks: list, span_file: str) -> dict:
    """The task list traced, between two untraced passes; per-layer metrics.

    The untraced time is the mean of the passes before and after, so a
    steady drift of the machine's speed cancels out of the overhead.
    """
    import layers
    from tracing import Tracer, write_spans

    t0 = time.perf_counter()
    lat0, fail0 = run_pass(workload, tasks)
    before_s = time.perf_counter() - t0

    tracer = Tracer()
    misses0 = layers.cache_info()
    layers.install(tracer)
    t0 = time.perf_counter()
    try:
        lat1, fail1 = run_pass(workload, tasks, tracer)
    finally:
        tracer.restore()
    traced_s = time.perf_counter() - t0
    deltas = layers.cache_deltas(misses0, layers.cache_info())
    t0 = time.perf_counter()
    lat2, fail2 = run_pass(workload, tasks)
    untraced_s = (before_s + time.perf_counter() - t0) / 2.0

    metrics = layers.span_metrics(tracer.spans, tracer.absent, deltas)
    metrics.update(layers.kernel_micro())
    metrics[layers.OVERHEAD_METRIC] = 1.0 - untraced_s / traced_s
    write_spans(span_file, tracer.spans)
    return {
        "latencies_s": lat0 + lat1 + lat2,
        "failures": fail0 + fail1 + fail2,
        "wall_s": 2.0 * untraced_s + traced_s,
        "per_layer": metrics,
        "absent": sorted(tracer.absent),
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "probe"), required=True)
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-tasks", type=int, default=1)
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--span-file", default=None)
    args = p.parse_args(argv)

    import sobolev_lab

    src = Path(args.src).resolve()
    if src not in Path(sobolev_lab.__file__).resolve().parents:
        sys.stderr.write("sobolev_lab imported from %s, not from %s\n" % (sobolev_lab.__file__, src))
        return 2

    if args.mode == "probe":
        record = {"event": "result", "blas": blas_info()}
        if args.trace:
            import layers

            record["per_layer"] = layers.kernel_micro()
        emit(record)
        return 0

    import workloads

    tasks = workloads.tasks_for(args.workload, args.seed)
    workloads.warm_up(args.workload)
    emit({"event": "ready"})
    if args.mode == "setup":
        return 0

    if args.trace:
        result = traced_passes(args.workload, tasks, args.span_file)
    else:
        result = timed_loop(args.workload, tasks, args.seconds, args.min_tasks)
    result["event"] = "result"
    result["tasks_per_pass"] = len(tasks)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["blas"] = blas_info()
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
