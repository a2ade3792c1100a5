"""sobolev-lab benchmark: four closed-loop workloads with closed-form oracles.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of sphere-stability, cylinder-branch, duality-certify,
cli-cold, or ``all`` for each in turn. The library is imported from the
checkout's ``src``; nothing is installed. Each workload is one client
running a seeded task list one task after another, in a fresh worker
process (``cli-cold``: each task a fresh ``sobolev-lab`` interpreter).
Whole passes over the list repeat until S seconds have passed and at least
21 tasks ran, so that ten tasks lie beyond the reported tail percentile
and it sits at or above the median.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the task
list once with every layer wrapped, between two untraced passes, and reports
the per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads
from tracing import write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 5
MIN_TASKS = 21
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170.0
READY = '{"event": "ready"}'

E2E_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A worker or child process failed in a way that voids the run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _last_json(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("worker printed no result")


def _finish(proc: subprocess.Popen, what: str) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s timed out" % what) from None
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (what, proc.returncode))
    return out


def worker(mode: str, workload: str | None, seed: int, seconds: float, trace: int,
           span_file: Path | None = None) -> tuple:
    """Start one worker and wait for it; (seconds to its ready line, result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--min-tasks", str(MIN_TASKS),
        "--src", str(SRC),
    ]
    if workload:
        cmd += ["--workload", workload]
    if span_file:
        cmd += ["--span-file", str(span_file)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    ready = None
    if mode != "probe":
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != READY:
            proc.kill()
            proc.communicate()
            raise BenchError("%s worker failed before its ready line" % workload)
    out = _finish(proc, "%s worker" % (workload or mode))
    return ready, (_last_json(out) if mode != "setup" else None)


def run_cli(argv: list, traced_file: Path | None = None) -> tuple:
    """One CLI invocation in a fresh interpreter; (seconds, exit code, stdout)."""
    if traced_file is None:
        cmd = [sys.executable, "-m", "sobolev_lab.cli"] + argv
    else:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(traced_file), "--"] + argv
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("sobolev-lab %s timed out" % " ".join(argv)) from None
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def time_import() -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import sobolev_lab"], env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("import sobolev_lab failed:\n" + proc.stderr[-2000:])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads


def warm_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / ("trace-%s-seed%d.jsonl" % (workload, seed))
        _, res = worker("run", workload, seed, seconds, 1, span_file)
        res["span_file"] = span_file
        return res
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        ready, _ = worker("setup", workload, seed, seconds, 0)
        setups.append(ready)
    ready, res = worker("run", workload, seed, seconds, 0)
    setups.append(ready)
    res["setups_s"] = setups
    res["peak_rss_kb"] = res["maxrss_kb"]
    return res


def cli_pass(tasks: list, reference: dict, traced_dir: Path | None = None) -> tuple:
    """Each invocation once; outputs must pass their oracle and match ``reference``."""
    latencies, failures, traces = [], [], []
    for i, task in enumerate(tasks):
        traced_file = traced_dir / ("cli-%d.json" % i) if traced_dir else None
        dt, code, out = run_cli(task["argv"], traced_file)
        latencies.append(dt)
        ok, detail = workloads.check_cli_output(task, code, out)
        if ok and reference.setdefault(i, out) != out:
            ok, detail = False, "rerun with the same flags is not byte-identical"
        if not ok:
            failures.append({"task": i, "kind": task["kind"], "detail": detail})
        if traced_file is not None:
            with open(traced_file, encoding="utf-8") as fh:
                traces.append(json.load(fh))
            traced_file.unlink()
    return latencies, failures, traces


def merge_traces(traces: list) -> tuple:
    """Concatenate per-process spans, offsetting parents and tagging task ids."""
    spans, absent, misses = [], set(), {}
    for task_id, tr in enumerate(traces):
        base = len(spans)
        for name, start, end, parent, _, info in tr["spans"]:
            spans.append((name, start, end, parent + base if parent >= 0 else -1, task_id, info))
        absent.update(tr["absent"])
        for k, v in tr["misses"].items():
            total = misses.get(k, 0)
            misses[k] = None if v is None or total is None else total + v
    return spans, absent, misses


def cli_run(seed: int, seconds: float, trace: int) -> dict:
    tasks = workloads.tasks_for("cli-cold", seed)
    reference = {}
    if trace:
        OUT.mkdir(exist_ok=True)
        # the traced pass sits between two untraced ones, as in the warm worker
        t0 = time.perf_counter()
        lat0, fail0, _ = cli_pass(tasks, reference)
        before_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        lat1, fail1, traces = cli_pass(tasks, reference, OUT)
        traced_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        lat2, fail2, _ = cli_pass(tasks, reference)
        untraced_s = (before_s + time.perf_counter() - t0) / 2.0
        spans, absent, misses = merge_traces(traces)
        per_layer = layers.span_metrics(spans, absent, misses)
        _, probe = worker("probe", None, seed, seconds, 1)
        per_layer.update(probe["per_layer"])
        per_layer[layers.OVERHEAD_METRIC] = 1.0 - untraced_s / traced_s
        span_file = OUT / ("trace-cli-cold-seed%d.jsonl" % seed)
        write_spans(span_file, spans)
        return {"latencies_s": lat0 + lat1 + lat2, "failures": fail0 + fail1 + fail2,
                "wall_s": 2.0 * untraced_s + traced_s,
                "per_layer": per_layer, "absent": sorted(absent), "spans": len(spans),
                "span_file": span_file, "blas": probe["blas"], "tasks_per_pass": len(tasks)}
    setups = [time_import() for _ in range(SETUP_REPEATS)]
    _, probe = worker("probe", None, seed, seconds, 0)
    latencies, failures = [], []
    t0 = time.perf_counter()
    while True:
        lat, fail, _ = cli_pass(tasks, reference)
        latencies += lat
        failures += fail
        if time.perf_counter() - t0 >= seconds and len(latencies) >= MIN_TASKS:
            break
    return {
        "latencies_s": latencies, "failures": failures, "wall_s": time.perf_counter() - t0,
        "setups_s": setups, "blas": probe["blas"], "tasks_per_pass": len(tasks),
        # the largest resident set of any child: the heaviest CLI invocation
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


# ---------------------------------------------------------------------------
# statistics and report


def tail(latencies: list) -> tuple:
    """(value, percentile, tasks beyond it): the latency with TAIL_BEYOND tasks above it."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def end_to_end(res: dict) -> tuple:
    lat = res["latencies_s"]
    passed = len(lat) - len(res["failures"])
    t_val, t_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(res["setups_s"]),
        "tasks_per_s": passed / res["wall_s"],
        "task_p50_ms": 1e3 * statistics.median(lat),
        "task_tail_ms": 1e3 * t_val,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": "median of %d fresh starts: %s" % (
            len(res["setups_s"]), ", ".join("%.3f" % s for s in res["setups_s"])),
        "tasks_per_s": "%d passed in %.2f s" % (passed, res["wall_s"]),
        "task_p50_ms": "%d tasks" % len(lat),
        "task_tail_ms": "p%.1f, %d of %d tasks beyond it" % (t_pct, beyond, len(lat)),
        "peak_rss_mb": "peak resident set of the worker or largest CLI process",
    }
    return metrics, notes


def report(workload: str, seed: int, trace: int, res: dict) -> dict:
    """Print the human-readable block; return the result object."""
    lat, failures = res["latencies_s"], res["failures"]
    attempted, failed = len(lat), len(failures)
    blas = res["blas"]
    print("workload %s  seed %d  trace %d  python %s" % (workload, seed, trace, sys.version.split()[0]))
    print("blas %s  threads %s  nproc %d" % (
        blas["name"], ", ".join("%s=%d" % kv for kv in blas["threads"].items()) or "unknown",
        os.cpu_count() or 0))
    print("oracles: %d/%d tasks passed (%d tasks per pass)" % (
        attempted - failed, attempted, res["tasks_per_pass"]))
    for f in failures[:10]:
        print("  FAIL task %d (%s): %s" % (f["task"], f["kind"], f["detail"]))
    if trace:
        units = layers.metric_units()
        metrics = {}
        for name, unit in units.items():
            value = res["per_layer"].get(name)
            metrics[name] = {"value": value, "unit": unit}
            print("  %-44s %14s %s" % (name, "absent" if value is None else "%.6g" % value, unit))
        print("spans: %d written to %s" % (res["spans"], res["span_file"].relative_to(ROOT)))
        if res["absent"]:
            print("absent layers: %s" % ", ".join(res["absent"]))
    else:
        values, notes = end_to_end(res)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        for name, value in values.items():
            print("  %-14s %12.6g %-4s  %s" % (name, value, E2E_UNITS[name], notes[name]))
        print("  %-14s %12.6g %-4s  %d of %d tasks raised or missed their oracle" % (
            "fail_frac", failed / attempted, "ratio", failed, attempted))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if workload == "cli-cold":
        res = cli_run(seed, seconds, trace)
    elif workload in workloads.WARM_WORKLOADS:
        res = warm_run(workload, seed, seconds, trace)
    else:
        raise ValueError(workload)
    if trace:
        res["per_layer"].update(layers.import_breakdown(child_env()))
    return report(workload, seed, trace, res)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sobolev-lab benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sobolev_lab" / "__init__.py").is_file():
        sys.stderr.write("no sobolev_lab sources under %s: run from a checkout\n" % SRC)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
