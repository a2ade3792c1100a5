"""Tests of the benchmark itself: seeding, wrapper hygiene, absent layers.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import sys

import numpy as np
import pytest

import layers
import run
import tracing
import worker
import workloads


def _canonical(tasks):
    def enc(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, tuple):
            return [enc(x) for x in v]
        return v

    return json.dumps([{k: enc(v) for k, v in t.items()} for t in tasks], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_tasks_other_seed_other_tasks(workload):
    a = _canonical(workloads.tasks_for(workload, 11))
    assert a == _canonical(workloads.tasks_for(workload, 11))
    assert a != _canonical(workloads.tasks_for(workload, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_keeps_the_task_mix(workload):
    kinds = lambda s: sorted(t["kind"] for t in workloads.tasks_for(workload, s))
    assert kinds(1) == kinds(2)
    if workload == "duality-certify":
        shapes = lambda s: sorted((t["m"], t["n"], t["q"]) for t in workloads.tasks_for(workload, s))
        assert [m for m, n, q in shapes(1)] == [m for m, n, q in shapes(2)]
        assert sorted(q for _, _, q in shapes(1)) == sorted(q for _, _, q in shapes(2))


def _bindings():
    """Every (module, name) -> object in the loaded library, dict values included."""
    out = {}
    for mod in tracing._library_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for dkey, dval in value.items():
                    out[(mod.__name__, key, dkey)] = dval
    return out


def _import_library():
    import sobolev_lab  # noqa: F401
    from sobolev_lab import cli  # noqa: F401


def test_traced_run_restores_every_wrapped_name():
    _import_library()
    from sobolev_lab import cylinder, specialfn, stability, verify, zonal

    before = _bindings()
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        assert tracer.installed > len(layers.WRAPS)
        assert not tracer.absent
        # a from-import is wrapped at every binding, foreign solvers only where named
        for mod in (specialfn, zonal, stability, cylinder):
            assert mod.gauss_rule.__wrapped__ is before[("sobolev_lab.specialfn", "gauss_rule")]
        assert verify.SUITES["duality"] is verify.duality_checks
        assert hasattr(verify.SUITES["duality"], "__wrapped__")
        assert not hasattr(sys.modules["scipy.optimize"].minimize, "__wrapped__")
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.installed == 0


def test_traced_pass_records_parented_spans():
    _import_library()
    task = workloads.tasks_for("duality-certify", 3)[9]  # n = 2: brute force runs
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        lat, fail = worker.run_pass("duality-certify", [task], tracer)
    finally:
        tracer.restore()
    assert fail == []
    names = [sp[0] for sp in tracer.spans]
    assert "duality.finite_operator" in names and "duality.brute_force_norm" in names
    metrics = layers.span_metrics(tracer.spans, tracer.absent, {k: 0 for k in layers.CACHED})
    assert metrics["duality.ascent.starts"] == metrics["kernels.lq_ascent.calls"] > 0
    assert metrics["duality.brute_force_norm.calls"] == 1
    assert metrics["cylinder.hill_assembly.calls"] == 0
    assert all(sp[4] == 0 for sp in tracer.spans)


def test_untraced_loop_installs_no_wrapper(monkeypatch):
    _import_library()

    def refuse(self):
        raise AssertionError("an untraced run built a Tracer")

    monkeypatch.setattr(tracing.Tracer, "__init__", refuse)
    before = _bindings()
    task = workloads.tasks_for("duality-certify", 3)[0]
    lat, fail = worker.run_pass("duality-certify", [task, task])
    assert len(lat) == 2 and fail == []
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__wrapped__") and callable(v) and getattr(v, "__module__", "") == "tracing"
                   for v in after.values())


def test_absent_layer_is_reported_absent_not_zero(monkeypatch):
    _import_library()
    from sobolev_lab import _kernels, cylinder

    monkeypatch.delattr(cylinder, "_assemble_block")
    monkeypatch.setattr(_kernels, "lq_ascent_numpy", None)  # as the numba twins are today
    tracer = tracing.Tracer()
    layers.install(tracer)
    tracer.restore()
    assert "cylinder.hill_assembly" in tracer.absent
    metrics = layers.span_metrics([], tracer.absent, {k: 0 for k in layers.CACHED})
    assert metrics["cylinder.hill_assembly.calls"] is None
    assert metrics["cylinder.hill_assembly.gemm_gflop"] is None
    assert metrics["cylinder.eigensolve.calls"] == 0
    micro = layers.kernel_micro(repeats=1)
    assert micro["kernels.lq_ascent.micro_ms"] is None
    assert micro["kernels.zeta_moment.micro_ms"] > 0


def test_self_time_subtracts_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0, None),
        ("b", 1.0, 4.0, 0, 0, None),
        ("c", 2.0, 3.0, 1, 0, None),
        ("b", 5.0, 6.0, 0, 0, None),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.has_ancestor(spans, 2, "a") and not tracing.has_ancestor(spans, 0, "a")


def test_tail_has_ten_tasks_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(1, 22)])
    assert (value, beyond) == (11.0, 10)
    assert pct == pytest.approx(100.0 * 11 / 21)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       900 |     300000 |     scipy.linalg",
        "import time:       800 |     600000 |   scipy.optimize",
        "import time:      5000 |      20000 |   sobolev_lab.zonal",
        "import time:      1000 |     700000 | sobolev_lab",
    ])
    m = layers.parse_importtime(text)
    assert m["import.total_ms"] == 700.0
    assert m["import.scipy_optimize_ms"] == 600.0
    assert m["import.scipy_linalg_ms"] == 300.0
    assert m["import.scipy_integrate_ms"] == 0.0
    assert m["import.sobolev_lab_self_ms"] == 6.0


def test_cli_oracles_reject_wrong_output():
    tasks = {t["kind"]: t for t in workloads.tasks_for("cli-cold", 0)}
    good = "eps,quotient,extrapolated_limit\n0.02,0.5,0.57142857142857\n"
    assert workloads.check_cli_output(tasks["be-scan"], 0, good)[0]
    assert not workloads.check_cli_output(tasks["be-scan"], 0, good.replace("0.5714", "0.5715"))[0]
    assert not workloads.check_cli_output(tasks["be-scan"], 1, good)[0]
    assert not workloads.check_cli_output(tasks["verify"], 0, "35/36 checks passed\n")[0]
    assert workloads.check_cli_output(tasks["verify"], 0, "PASS  x\n36/36 checks passed\n")[0]


def test_closed_forms():
    assert workloads.sphere_sharp_constant(3, 1.0) == pytest.approx(3.0 * (np.pi / 2.0) ** (4.0 / 3.0), rel=1e-14)
    c2 = np.zeros(5)
    c2[2] = 1.3
    assert workloads.hessian_ratio(3, 1.0, c2) == pytest.approx(4.0 / 7.0, rel=1e-14)
    assert workloads.quartic_limit(3) == pytest.approx(8.0 / 15.0, rel=1e-15)
