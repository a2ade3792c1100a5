"""Seeded task lists, warm-up passes and closed-form oracles.

Every workload is a closed loop with one client: a fixed list of tasks,
generated from the seed before any timing starts, run one after another.
A task is one call into the library (or, for ``cli-cold``, one CLI
invocation in a fresh interpreter) whose result is checked against a
closed form written out here, independently of the library's own routes.
The seed only draws parameters inside fixed strata (which kinds of task,
which dimensions, which matrix shapes), so two seeds cost about the same.

Tolerances are no looser than the ones the repository's tests use for the
same quantity; each one names the test it comes from.
"""

from __future__ import annotations

import math
import re

import numpy as np

WARM_WORKLOADS = ("sphere-stability", "cylinder-branch", "duality-certify")
WORKLOADS = WARM_WORKLOADS + ("cli-cold",)

BANDLIMIT = 64
SPHERE_PAIRS = ((3, 1.0), (4, 1.0), (3, 0.5), (5, 1.5), (6, 1.0))
CYLINDER_DIMS = (3, 4, 5)
DUALITY_QS = (1.5, 2.0, 3.0, 6.0)
DUALITY_MAX_DIM = 8

# test_stability: quotient-curve limits to rel 1e-5
CURVE_REL = 1e-5
# criterion 1: optimizer quotients match the gamma formula to rel 1e-7
OPTIMIZER_REL = 1e-7
# test_stability: tau <= 1e-6 on a bubble
MANIFOLD_TAU = 1e-6
# criterion 3: pullback keeps energy and q-norm to rel 1e-6
PULLBACK_REL = 1e-6
# test_stability: be_quotient is conformally invariant to rel 1e-5
QUOTIENT_INVARIANCE_REL = 1e-5
# criterion 10: c_T eigensolver vs closed form to rel 1e-8
C_T_REL = 1e-8
# test_cylinder: inverse_period round trip to rel 1e-10, ODE period to 1e-9
ROUND_TRIP_REL = 1e-10
ORBIT_REL = 1e-9
# criterion 11: resolvent coefficient to rel 1e-8, curve limit to rel 2e-2
RESOLVENT_REL = 1e-8
QUARTIC_CURVE_REL = 2e-2
# criterion 13: route agreement and pairing 1e-8, brute force 1e-6
PAIRING_TOL = 1e-8
BRUTE_REL = 1e-6
CLOSED_NORM_REL = 1e-8
# constants are printed with 17 significant digits
PRINTED_REL = 1e-12


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _rel(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def _check(ok: bool, what: str) -> tuple:
    return bool(ok), "" if ok else what


# ---------------------------------------------------------------------------
# closed forms


def multiplier(d: int, s: float, ell: int) -> float:
    """Energy multiplier Gamma(ell + d/2 + s) / Gamma(ell + d/2 - s)."""
    return math.exp(math.lgamma(ell + d / 2.0 + s) - math.lgamma(ell + d / 2.0 - s))


def hessian_ratio(d: int, s: float, coeffs) -> float:
    """Limit of the stability quotient along 1 + eps R (R without degrees 0, 1).

    sum (m(l) - m(1)) c_l^2 / sum m(l) c_l^2; for a pure degree-2 ray this is
    the Bianchi-Egnell value 4s/(d+2s+2).
    """
    m1 = multiplier(d, s, 1)
    num = den = 0.0
    for ell, c in enumerate(coeffs):
        if c != 0.0:
            m = multiplier(d, s, ell)
            num += (m - m1) * c * c
            den += m * c * c
    return num / den


def sphere_sharp_constant(d: int, s: float) -> float:
    """S_{d,s} = m(0) |S^d|^(2s/d); 3 (pi/2)^(4/3) at (d, s) = (3, 1)."""
    area = 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    return multiplier(d, s, 0) * area ** (2.0 * s / d)


def t_star(d: int) -> float:
    return 2.0 * math.pi / math.sqrt(d - 2.0)


def u0(d: int) -> float:
    return ((d - 2.0) / d) ** ((d - 2.0) / 4.0)


def c_t_closed(d: int, T: float) -> float:
    """Quadratic stability constant on the cylinder for T <= T_*."""
    mu = min((2.0 * math.pi / T) ** 2, d - 1.0)
    return (mu - (d - 2.0)) / (mu + ((d - 2.0) / 2.0) ** 2)


def quartic_limit(d: int) -> float:
    """(q+2)(q-2)/(12(q-1)) with q = 2d/(d-2); 8/15 at d = 3."""
    q = 2.0 * d / (d - 2.0)
    return (q + 2.0) * (q - 2.0) / (12.0 * (q - 1.0))


def resolvent_coefficient(d: int) -> float:
    q = 2.0 * d / (d - 2.0)
    return (d - 2.0) / 48.0 * (q - 1.0) * (q - 2.0) / u0(d)


def lq(x: np.ndarray, q: float) -> float:
    return float(np.sum(np.abs(x) ** q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# task lists


def sphere_tasks(seed: int) -> list:
    """Five tasks per (d, s): three quotient curves, a bubble, a pullback."""
    rng = _rng(seed, 1)
    tasks = []
    for d, s in SPHERE_PAIRS:
        base = dict(d=d, s=s)
        for degree in (2, 3):
            c = np.zeros(BANDLIMIT + 1)
            c[degree] = rng.uniform(0.5, 2.0)
            tasks.append(dict(base, kind="curve-degree%d" % degree, coeffs=c))
        c = np.zeros(BANDLIMIT + 1)
        c[2:9] = rng.standard_normal(7) / (1.0 + np.arange(2.0, 9.0)) ** 2
        tasks.append(dict(base, kind="curve-random", coeffs=c))
        v = rng.standard_normal(d + 1)
        zeta = 0.6 * math.sqrt(rng.uniform()) * v / np.linalg.norm(v)
        tasks.append(dict(base, kind="manifold", zeta=zeta))
        c = np.zeros(BANDLIMIT + 1)
        c[2:7] = rng.standard_normal(5) / (1.0 + np.arange(2.0, 7.0))
        tasks.append(
            dict(
                base,
                kind="pullback",
                coeffs=c,
                eps=float(rng.uniform(0.02, 0.04)),
                delta=float(math.exp(rng.uniform(math.log(0.6), math.log(1.6)))),
            )
        )
    return tasks


def cylinder_tasks(seed: int) -> list:
    """Five tasks per d: c_T on each side of T_*, two period routes, T_* data."""
    rng = _rng(seed, 2)
    tasks = []
    for d in CYLINDER_DIMS:
        ts = t_star(d)
        tasks.append(dict(kind="c_T-below", d=d, T=ts * float(rng.uniform(0.3, 0.95))))
        tasks.append(dict(kind="c_T-above", d=d, T=ts * float(rng.uniform(1.1, 1.8))))
        tasks.append(dict(kind="round-trip", d=d, T=ts * float(rng.uniform(1.05, 2.0))))
        base = u0(d)
        alpha = base + (1.0 - base) * float(rng.uniform(0.1, 0.9))
        tasks.append(dict(kind="orbit", d=d, alpha=alpha))
        tasks.append(dict(kind="quartic", d=d))
    return tasks


def duality_tasks(seed: int) -> list:
    """Every shape m, n in 1..8 once.

    For each n the eight rows get a seeded permutation of two of each q, and
    two of them (25%) are rank one, so every seed has the same mix of shapes,
    exponents and ranks.
    """
    rng = _rng(seed, 3)
    tasks = []
    for n in range(1, DUALITY_MAX_DIM + 1):
        qs = rng.permutation(np.repeat(DUALITY_QS, 2))
        rank1 = set(rng.choice(DUALITY_MAX_DIM, size=2, replace=False).tolist())
        for i, m in enumerate(range(1, DUALITY_MAX_DIM + 1)):
            if i in rank1:
                u = rng.standard_normal(m)
                v = rng.standard_normal(n)
                a = np.outer(u, v)
                factors = (u, v)
            else:
                a = rng.standard_normal((m, n))
                factors = None
            f = rng.standard_normal(n)
            tasks.append(
                dict(
                    kind="rank-one" if factors else "operator",
                    m=m,
                    n=n,
                    q=float(qs[i]),
                    matrix=a,
                    factors=factors,
                    probe=f / np.linalg.norm(f),
                    seed=len(tasks),
                )
            )
    return tasks


def cli_tasks(seed: int) -> list:
    """The five cold CLI invocations; the period-map grid comes from the seed."""
    rng = _rng(seed, 4)
    base = u0(3)
    alphas = np.sort(base + (1.0 - base) * rng.uniform(0.05, 0.95, size=6))
    grid = ",".join("%.6f" % a for a in alphas)
    return [
        dict(kind="constants", argv=["constants", "--d", "3", "--s", "1"]),
        dict(kind="be-scan", argv=["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0"]),
        dict(kind="quartic", argv=["quartic", "--d", "3"]),
        dict(kind="period-map", argv=["period-map", "--d", "3", "--alpha-grid", grid]),
        dict(kind="verify", argv=["verify", "all", "--seed", str(seed)]),
    ]


TASK_LISTS = {
    "sphere-stability": sphere_tasks,
    "cylinder-branch": cylinder_tasks,
    "duality-certify": duality_tasks,
    "cli-cold": cli_tasks,
}


def tasks_for(workload: str, seed: int) -> list:
    """The task list of one pass; every pass of a run repeats it."""
    return TASK_LISTS[workload](seed)


# ---------------------------------------------------------------------------
# running one task


def run_sphere(task: dict) -> tuple:
    from sobolev_lab import conformal, stability, zonal

    d, s = task["d"], task["s"]
    params = zonal.SphereParams(d, s)
    kind = task["kind"]
    if kind.startswith("curve-"):
        ray = zonal.from_coeffs(task["coeffs"], params)
        limit = stability.quotient_curve(ray).extrapolated_limit
        target = hessian_ratio(d, s, task["coeffs"])
        ok = _rel(limit, target) <= CURVE_REL
        if kind == "curve-degree2":
            ok = ok and _rel(target, 4.0 * s / (d + 2.0 * s + 2.0)) <= 1e-14
        if kind == "curve-degree3":
            ok = ok and limit > 4.0 * s / (d + 2.0 * s + 2.0)
        return _check(ok, "limit %.10g vs closed form %.10g" % (limit, target))
    if kind == "manifold":
        bubble = conformal.q_zeta(task["zeta"], params)
        target = sphere_sharp_constant(d, s)
        quot = zonal.sobolev_quotient(bubble)
        tau = stability.distance(bubble).tau
        ok = _rel(quot, target) <= OPTIMIZER_REL and tau <= MANIFOLD_TAU
        return _check(ok, "quotient %.12g vs %.12g, tau %.3g" % (quot, target, tau))
    if kind == "pullback":
        ray = zonal.from_coeffs(task["coeffs"], params)
        u = zonal.analyze(1.0 + task["eps"] * ray.samples, params, BANDLIMIT)
        moved = conformal.pullback_zonal(u, task["delta"])
        e_rel = _rel(zonal.energy(moved), zonal.energy(u))
        n_rel = _rel(zonal.lq_norm(moved, params.q), zonal.lq_norm(u, params.q))
        b_rel = _rel(stability.be_quotient(moved), stability.be_quotient(u))
        ok = e_rel <= PULLBACK_REL and n_rel <= PULLBACK_REL and b_rel <= QUOTIENT_INVARIANCE_REL
        return _check(ok, "energy %.3g, q-norm %.3g, quotient %.3g" % (e_rel, n_rel, b_rel))
    raise ValueError("unknown sphere task %r" % kind)


def run_cylinder(task: dict) -> tuple:
    from sobolev_lab import cylinder

    d, kind = task["d"], task["kind"]
    if kind == "c_T-below":
        val = cylinder.c_T_numeric(d, task["T"])
        target = c_t_closed(d, task["T"])
        ok = _rel(val, target) <= C_T_REL and _rel(cylinder.c_T_formula(d, task["T"]), target) <= 1e-14
        return _check(ok, "c_T %.12g vs closed form %.12g" % (val, target))
    if kind == "c_T-above":
        val = cylinder.c_T_numeric(d, task["T"])
        kdim = cylinder.hessian_block_spectrum(d, task["T"], 0).kernel_dim
        return _check(val > 0.0 and kdim == 2, "c_T %.6g, kernel dim %d" % (val, kdim))
    if kind == "round-trip":
        alpha = cylinder.inverse_period(d, task["T"])
        tau = cylinder.period(d, alpha)
        return _check(_rel(tau, task["T"]) <= ROUND_TRIP_REL, "period %.15g vs T %.15g" % (tau, task["T"]))
    if kind == "orbit":
        orbit = cylinder.solve_orbit(d, task["alpha"])
        tau = cylinder.period(d, task["alpha"])
        ok = _rel(orbit.period, tau) <= ORBIT_REL and tau > t_star(d)
        return _check(ok, "ODE period %.15g vs quadrature %.15g" % (orbit.period, tau))
    if kind == "quartic":
        qc = cylinder.quartic_constants(d)
        curve = cylinder.degenerate_quotient_curve(d)
        target = quartic_limit(d)
        ok = (
            _rel(qc.limit_constant, target) <= 1e-14
            and _rel(qc.diagnostics["resolvent_coefficient_numeric"], resolvent_coefficient(d)) <= RESOLVENT_REL
            and qc.gap > 0.0
            and _rel(curve.extrapolated_limit, target) <= QUARTIC_CURVE_REL
        )
        return _check(ok, "limit %.10g, curve %.10g vs %.10g" % (qc.limit_constant, curve.extrapolated_limit, target))
    raise ValueError("unknown cylinder task %r" % kind)


def run_duality(task: dict) -> tuple:
    from sobolev_lab import duality

    a, q = task["matrix"], task["q"]
    op = duality.finite_operator(a, q, seed=task["seed"])
    alpha = op.op_norm
    scale = max(alpha, 1.0)
    problems = []
    if task["factors"] is not None:
        u, v = task["factors"]
        closed = lq(u, q) * float(np.linalg.norm(v))
        if _rel(alpha, closed) > CLOSED_NORM_REL:
            problems.append("rank one %.15g vs %.15g" % (alpha, closed))
    if q == 2.0:
        closed = float(np.linalg.svd(a, compute_uv=False)[0])
        if _rel(alpha, closed) > CLOSED_NORM_REL:
            problems.append("q=2 %.15g vs top singular value %.15g" % (alpha, closed))
    if task["n"] <= 4:
        brute = duality.brute_force_norm(a, q)
        if _rel(brute, alpha) > BRUTE_REL:
            problems.append("brute force %.15g vs %.15g" % (brute, alpha))
    f = task["probe"]
    g = duality.dual_vector(f, op)
    pairing = abs(float(f @ (a.T @ g)) - lq(a @ f, q))
    h = duality.primal_vector(g, op)
    if pairing > PAIRING_TOL * scale:
        problems.append("pairing residual %.3g" % pairing)
    # Hoelder: |A^T g| and ||A h||_q never exceed the certified norm
    if float(np.linalg.norm(a.T @ g)) > alpha + PAIRING_TOL * scale:
        problems.append("|A^T g| above the norm")
    if abs(float(np.linalg.norm(h)) - 1.0) > 1e-12 or lq(a @ h, q) > alpha + PAIRING_TOL * scale:
        problems.append("primal vector not a unit vector below the norm")
    return _check(not problems, "; ".join(problems))


RUNNERS = {
    "sphere-stability": run_sphere,
    "cylinder-branch": run_cylinder,
    "duality-certify": run_duality,
}


def run_task(workload: str, task: dict) -> tuple:
    """(passed, detail) for one task; library errors propagate to the caller."""
    return RUNNERS[workload](task)


# ---------------------------------------------------------------------------
# warm-up passes: fixed inputs, not seeded, so set-up costs the same per seed


def warm_up(workload: str) -> None:
    """Fill the caches and first-call paths the timed tasks will use."""
    if workload == "sphere-stability":
        from sobolev_lab import conformal, stability, zonal

        for d, s in SPHERE_PAIRS:
            zeta = np.zeros(d + 1)
            zeta[-1] = 0.2
            stability.distance(conformal.q_zeta(zeta, zonal.SphereParams(d, s)))
    elif workload == "cylinder-branch":
        from sobolev_lab import cylinder

        for d in CYLINDER_DIMS:
            cylinder.inverse_period(d, 1.3 * t_star(d))
        cylinder.quartic_constants(3)
        cylinder.c_T_numeric(3, 0.5 * t_star(3))
    elif workload == "duality-certify":
        from sobolev_lab import duality

        a = np.arange(1.0, 7.0).reshape(3, 2)
        for q in DUALITY_QS:
            duality.finite_operator(a, q)
        duality.brute_force_norm(a, 3.0)
    else:
        raise ValueError("no warm-up for %r" % workload)


# ---------------------------------------------------------------------------
# cli-cold oracles, on the text a CLI invocation printed


def _csv_rows(text: str) -> list:
    lines = text.strip().split("\n")
    return [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]


def check_cli_output(task: dict, code: int, out: str) -> tuple:
    if code != 0:
        return False, "exit code %d" % code
    kind = task["kind"]
    try:
        if kind == "constants":
            rec = {}
            for m in re.finditer(r'"(\w+)": ([-+0-9.eE]+)', out):
                rec[m.group(1)] = float(m.group(2))
            ts = t_star(3)
            expected = {
                "s_ds": 3.0 * (math.pi / 2.0) ** (4.0 / 3.0),
                "be_upper": 4.0 / 7.0,
                "t_star": ts,
                "quartic_constant": 8.0 / 15.0,
            }
            for f in (25, 50, 75, 100):
                expected["c_t_formula_frac_%d" % f] = c_t_closed(3, ts * f / 100.0)
            # every value is O(1); c_T vanishes at T_*, hence the absolute floor
            ok = all(
                abs(rec[k] - v) <= PRINTED_REL * max(abs(v), 1.0) for k, v in expected.items()
            )
            return _check(ok, "constants differ from their closed forms")
        if kind == "be-scan":
            limit = _csv_rows(out)[0][2]
            return _check(_rel(limit, 4.0 / 7.0) <= CURVE_REL, "be-scan limit %.10g vs 4/7" % limit)
        if kind == "quartic":
            limit = _csv_rows(out)[0][2]
            return _check(_rel(limit, 8.0 / 15.0) <= QUARTIC_CURVE_REL, "quartic limit %.10g vs 8/15" % limit)
        if kind == "period-map":
            rows = _csv_rows(out)
            taus = [r[1] for r in rows]
            ok = len(rows) == 6 and taus[0] > t_star(3) and all(b > a for a, b in zip(taus, taus[1:]))
            return _check(ok, "period map not above T_* and increasing")
        if kind == "verify":
            m = re.search(r"^(\d+)/(\d+) checks passed$", out, re.M)
            ok = m is not None and m.group(1) == m.group(2) and "FAIL" not in out
            return _check(ok, "verify report: %s" % (m.group(0) if m else "no summary"))
    except (KeyError, ValueError, IndexError) as exc:
        return False, "unparsable output: %s" % exc
    raise ValueError("unknown cli task %r" % kind)
