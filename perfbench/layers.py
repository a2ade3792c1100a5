"""The layers the traced run wraps, and the per-layer metrics built from them.

Layers are the package modules. Each entry of ``WRAPS`` names a span and the
module-level binding it wraps; ``METRICS`` lists every per-layer metric with
its unit and the spans it needs. A metric whose span could not be wrapped,
because a later version of the library removed the name, is reported as
absent (value ``None``) rather than as 0.
"""

from __future__ import annotations

import importlib
import inspect
import re
import statistics
import subprocess
import sys
import time

from tracing import has_ancestor, self_times

LIB = "sobolev_lab."


def _optimize_result(args, kwargs, res):
    return {"nit": int(getattr(res, "nit", 0)), "nfev": int(res.nfev), "success": bool(res.success)}


def _ode_result(args, kwargs, sol):
    return {"nfev": int(sol.nfev)}


def _zeta_points(args, kwargs, result):
    # zeta_moment(a, rho, sq, expo, tn, tw, fvals, cn, cw)
    return {"points": len(args[4]) * len(args[7])}


def _ascent_iters(args, kwargs, result):
    return {"iters": int(result[1])}


def _assembly_size(args, kwargs, result):
    from sobolev_lab import cylinder

    # signature() follows __wrapped__ to the library's own parameters
    bound = inspect.signature(cylinder._assemble_block).bind(*args, **kwargs)
    bound.apply_defaults()
    n = 2 * bound.arguments["n_modes"] + 1
    # the (phi * w) @ phi.T product: 2 (2K+1)^2 N flops, computed not counted
    return {"gflop": 2.0 * n * n * bound.arguments["n_grid"] * 1e-9}


CLI_COMMANDS = ("constants", "be-scan", "quartic", "period-map", "verify")
SUITES = ("sphere", "conformal", "stability", "cylinder", "duality")

# (span, module, attribute, record, counted_arg)
WRAPS = [
    ("specialfn.gauss_rule", "specialfn", "gauss_rule", None, None),
    ("zonal.zonal_basis", "zonal", "zonal_basis", None, None),
    ("zonal.analyze", "zonal", "analyze", None, None),
    ("kernels.zeta_moment", "_kernels", "zeta_moment", _zeta_points, None),
    ("kernels.gegenbauer_table", "_kernels", "gegenbauer_table", None, None),
    ("kernels.lq_ascent", "_kernels", "lq_ascent", _ascent_iters, None),
    ("conformal.q_zeta", "conformal", "q_zeta", None, None),
    ("conformal.pullback_zonal", "conformal", "pullback_zonal", None, None),
    ("stability.distance", "stability", "distance", None, None),
    ("stability.quotient_curve", "stability", "quotient_curve", None, None),
    ("stability.lbfgs", "stability", "minimize", _optimize_result, None),
    ("stability.axis_search", "stability", "minimize_scalar", _optimize_result, None),
    ("cylinder.period", "cylinder", "period", None, None),
    ("cylinder.inverse_period", "cylinder", "inverse_period", None, None),
    ("cylinder.brentq", "cylinder", "brentq", None, 0),
    ("cylinder.ode", "cylinder", "solve_ivp", _ode_result, None),
    ("cylinder.hill_assembly", "cylinder", "_assemble_block", _assembly_size, None),
    ("cylinder.eigensolve", "cylinder", "eigh", None, None),
    ("cylinder.eigensolve", "cylinder", "null_space", None, None),
    ("cylinder.c_T_numeric", "cylinder", "c_T_numeric", None, None),
    ("cylinder.quartic_constants", "cylinder", "quartic_constants", None, None),
    ("duality.finite_operator", "duality", "finite_operator", None, None),
    ("duality.op_norm_ascent", "duality", "op_norm_ascent", None, None),
    ("duality.minimize", "duality", "minimize", _optimize_result, None),
    ("duality.adjoint_norm_fixed_point", "duality", "adjoint_norm_fixed_point", None, None),
    ("duality.brute_force_norm", "duality", "brute_force_norm", None, None),
]
WRAPS += [("verify." + s, "verify", s + "_checks", None, None) for s in SUITES]
WRAPS += [
    ("cli." + c, "cli", "cmd_" + c.replace("-", "_"), None, None) for c in CLI_COMMANDS
]

# lru_cache'd functions whose misses are read from cache_info() deltas
CACHED = {"specialfn.gauss_rule": ("specialfn", "gauss_rule"), "zonal.zonal_basis": ("zonal", "zonal_basis")}


def install(tracer) -> None:
    """Wrap every layer binding; names missing from the library are marked absent."""
    for span, module, attr, record, counted in WRAPS:
        try:
            importlib.import_module(LIB + module)
        except ImportError:
            pass  # the whole module is gone: its spans are marked absent
        tracer.wrap(span, LIB + module, attr, record=record, counted_arg=counted)
    # a span wrapped under any of its names is present
    tracer.absent -= tracer.wrapped


def cache_info() -> dict:
    """Current misses of the cached layers; None where the cache is gone."""
    out = {}
    for span, (module, attr) in CACHED.items():
        fn = getattr(sys.modules.get(LIB + module), attr, None)
        info = getattr(fn, "cache_info", None)
        out[span] = info().misses if info is not None else None
    return out


def cache_deltas(before: dict, after: dict) -> dict:
    """Misses between two cache_info() readings; None where a cache is gone."""
    return {k: None if after[k] is None else after[k] - before[k] for k in before}


class _Agg:
    """Per-span-name sums over one traced pass."""

    def __init__(self, spans: list):
        self.spans = spans
        self.selfs = self_times(spans)
        self.by_name = {}
        for i, sp in enumerate(spans):
            self.by_name.setdefault(sp[0], []).append(i)

    def rows(self, name: str, parent: str | None = None, ancestor: str | None = None):
        for i in self.by_name.get(name, ()):
            sp = self.spans[i]
            if parent is not None and (sp[3] < 0 or self.spans[sp[3]][0] != parent):
                continue
            if ancestor is not None and not has_ancestor(self.spans, i, ancestor):
                continue
            yield i, sp

    def calls(self, name, **kw) -> int:
        return sum(1 for _ in self.rows(name, **kw))

    def total_ms(self, name, **kw) -> float:
        return 1e3 * sum(sp[2] - sp[1] for _, sp in self.rows(name, **kw))

    def self_ms(self, name, **kw) -> float:
        return 1e3 * sum(self.selfs[i] for i, _ in self.rows(name, **kw))

    def info_sum(self, name, key, **kw) -> float:
        return sum((sp[5] or {}).get(key, 0) for _, sp in self.rows(name, **kw))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metric_table():
    """(metric, unit, spans it needs, function of (agg, caches)) for span metrics."""
    t = []

    def add(metric, unit, needs, fn):
        t.append((metric, unit, needs, fn))

    def calls(span, metric=None):
        add(metric or span + ".calls", "count", (span,), lambda a, c: a.calls(span))

    def self_ms(span, metric=None):
        add(metric or span + ".self_ms", "ms", (span,), lambda a, c: a.self_ms(span))

    def total_ms(span, metric=None):
        add(metric or span + ".ms", "ms", (span,), lambda a, c: a.total_ms(span))

    for span in CACHED:
        calls(span)
        add(span + ".misses", "count", (span,), lambda a, c, span=span: c[span])
        self_ms(span)
    for c in CLI_COMMANDS:
        total_ms("cli." + c)
    for s in SUITES:
        total_ms("verify." + s)
    calls("zonal.analyze")
    self_ms("zonal.analyze")
    calls("kernels.zeta_moment")
    self_ms("kernels.zeta_moment")
    add("kernels.zeta_moment.points", "count", ("kernels.zeta_moment",),
        lambda a, c: a.info_sum("kernels.zeta_moment", "points"))
    calls("kernels.gegenbauer_table")
    self_ms("kernels.gegenbauer_table")
    self_ms("conformal.q_zeta")
    self_ms("conformal.pullback_zonal")
    calls("stability.distance")
    self_ms("stability.distance")
    add("stability.distance.g_evals_per_call", "count", ("stability.distance", "kernels.zeta_moment"),
        lambda a, c: _ratio(a.calls("kernels.zeta_moment", ancestor="stability.distance"),
                            a.calls("stability.distance")))
    calls("stability.lbfgs", "stability.lbfgs.starts")
    add("stability.lbfgs.nit", "count", ("stability.lbfgs",), lambda a, c: a.info_sum("stability.lbfgs", "nit"))
    add("stability.lbfgs.nfev", "count", ("stability.lbfgs",), lambda a, c: a.info_sum("stability.lbfgs", "nfev"))
    add("stability.lbfgs.converged_frac", "ratio", ("stability.lbfgs",),
        lambda a, c: _ratio(a.info_sum("stability.lbfgs", "success"), a.calls("stability.lbfgs")))
    total_ms("stability.quotient_curve")
    calls("cylinder.period")
    self_ms("cylinder.period")
    calls("cylinder.inverse_period")
    self_ms("cylinder.inverse_period")
    add("cylinder.inverse_period.brentq_fevals", "count", ("cylinder.inverse_period", "cylinder.brentq"),
        lambda a, c: a.info_sum("cylinder.brentq", "fevals", parent="cylinder.inverse_period"))
    calls("cylinder.ode")
    add("cylinder.ode.nfev", "count", ("cylinder.ode",), lambda a, c: a.info_sum("cylinder.ode", "nfev"))
    self_ms("cylinder.ode")
    calls("cylinder.hill_assembly")
    self_ms("cylinder.hill_assembly")
    add("cylinder.hill_assembly.gemm_gflop", "GFLOP", ("cylinder.hill_assembly",),
        lambda a, c: a.info_sum("cylinder.hill_assembly", "gflop"))
    calls("cylinder.eigensolve")
    self_ms("cylinder.eigensolve")
    total_ms("cylinder.c_T_numeric")
    total_ms("cylinder.quartic_constants")
    total_ms("duality.finite_operator")
    self_ms("duality.op_norm_ascent")
    add("duality.ascent.starts", "count", ("duality.op_norm_ascent", "kernels.lq_ascent"),
        lambda a, c: a.calls("kernels.lq_ascent", parent="duality.op_norm_ascent"))
    calls("kernels.lq_ascent")
    self_ms("kernels.lq_ascent")
    add("kernels.lq_ascent.iters", "count", ("kernels.lq_ascent",),
        lambda a, c: a.info_sum("kernels.lq_ascent", "iters"))
    add("duality.polish.nfev", "count", ("duality.op_norm_ascent", "duality.minimize"),
        lambda a, c: a.info_sum("duality.minimize", "nfev", parent="duality.op_norm_ascent"))
    add("duality.polish.self_ms", "ms", ("duality.op_norm_ascent", "duality.minimize"),
        lambda a, c: a.self_ms("duality.minimize", parent="duality.op_norm_ascent"))
    self_ms("duality.adjoint_norm_fixed_point")
    calls("duality.brute_force_norm")
    self_ms("duality.brute_force_norm")
    return t


SPAN_METRICS = _metric_table()

IMPORT_METRICS = (
    "import.total_ms",
    "import.scipy_optimize_ms",
    "import.scipy_integrate_ms",
    "import.scipy_linalg_ms",
    "import.sobolev_lab_self_ms",
)
MICRO_METRICS = (
    "kernels.gegenbauer_table.micro_ms",
    "kernels.zeta_moment.micro_ms",
    "kernels.lq_ascent.micro_ms",
)
OVERHEAD_METRIC = "trace.overhead_frac"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {m: "ms" for m in IMPORT_METRICS}
    units.update((m, u) for m, u, _, _ in SPAN_METRICS)
    units.update((m, "ms") for m in MICRO_METRICS)
    units[OVERHEAD_METRIC] = "ratio"
    return units


def span_metrics(spans: list, absent: set, cache_misses: dict) -> dict:
    """Per-layer values from one traced pass; None where a layer is absent."""
    agg = _Agg(spans)
    out = {}
    for metric, _, needs, fn in SPAN_METRICS:
        if any(n in absent for n in needs):
            out[metric] = None
        else:
            value = fn(agg, cache_misses)
            out[metric] = None if value is None else float(value)
    return out


# ---------------------------------------------------------------------------
# import breakdown from -X importtime


def parse_importtime(text: str) -> dict:
    """Import metrics (ms) from the stderr of ``python -X importtime``.

    scipy sub-packages are reported by their cumulative time at first
    import, as -X importtime attributes it (a package imported first inside
    another is charged to the outer one as well).
    """
    self_us, cum_us = {}, {}
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)$", line)
        if m:
            name = m.group(4)
            self_us.setdefault(name, int(m.group(1)))
            cum_us.setdefault(name, int(m.group(2)))
    if "sobolev_lab" not in cum_us:
        raise ValueError("sobolev_lab missing from the import-time report")
    own = sum(v for k, v in self_us.items() if k == "sobolev_lab" or k.startswith("sobolev_lab."))
    return {
        "import.total_ms": cum_us["sobolev_lab"] / 1e3,
        "import.scipy_optimize_ms": cum_us.get("scipy.optimize", 0) / 1e3,
        "import.scipy_integrate_ms": cum_us.get("scipy.integrate", 0) / 1e3,
        "import.scipy_linalg_ms": cum_us.get("scipy.linalg", 0) / 1e3,
        "import.sobolev_lab_self_ms": own / 1e3,
    }


def import_breakdown(env: dict, repeats: int = 3) -> dict:
    """Median over fresh interpreters of the parsed import-time report."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sobolev_lab"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError("import sobolev_lab failed:\n" + proc.stderr[-2000:])
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in IMPORT_METRICS}


# ---------------------------------------------------------------------------
# fixed-input kernel timings (the former benchmarks/bench_kernels.py inputs)


def _best_ms(fn, args, repeats: int) -> float:
    fn(*args)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def kernel_micro(repeats: int = 7) -> dict:
    """Best-of-N ms of the three numpy kernels on fixed seed-42 inputs.

    The inputs are those of ``benchmarks/bench_kernels.py``. Only the numpy
    path is timed; a kernel the library no longer has is reported absent.
    """
    import numpy as np

    from sobolev_lab import _kernels

    rng = np.random.default_rng(42)
    t = rng.uniform(-1.0, 1.0, size=512)
    tn = rng.uniform(-1.0, 1.0, size=256)
    tw = rng.uniform(0.1, 1.0, size=256)
    fvals = rng.standard_normal(256)
    cn = rng.uniform(-1.0, 1.0, size=64)
    cw = rng.uniform(0.1, 1.0, size=64)
    a = rng.standard_normal((64, 48))
    cases = (
        ("kernels.gegenbauer_table.micro_ms", "gegenbauer_table_numpy", (1.5, 128, t)),
        ("kernels.zeta_moment.micro_ms", "zeta_moment_numpy",
         (0.3, 0.4, np.sqrt(1.0 - 0.3**2 - 0.4**2), 2.5, tn, tw, fvals, cn, cw)),
        ("kernels.lq_ascent.micro_ms", "lq_ascent_numpy", (a, 3.0, np.ones(48) / np.sqrt(48.0), 2000, 1e-13)),
    )
    out = {}
    for metric, attr, args in cases:
        fn = getattr(_kernels, attr, None)
        out[metric] = _best_ms(fn, args, repeats) if callable(fn) else None
    return out
