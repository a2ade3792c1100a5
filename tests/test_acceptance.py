"""Acceptance gate: one end-to-end check per headline claim.

Each test prints a single ``criterion N PASS/FAIL`` line with the measured
quantity before asserting, so the table is recoverable from any run log.
"""

import math

import numpy as np
import scipy.special

from sobolev_lab.conformal import pullback_zonal, q_zeta
from sobolev_lab.cylinder import (
    c_T,
    c_T_formula,
    c_T_numeric,
    degenerate_quotient_curve,
    hessian_block_spectrum,
    inverse_period,
    minimize_quotient,
    period,
    quartic_constants,
    sobolev_constant_cylinder,
    solve_orbit,
    split_stability_check,
    t_star,
    u0,
)
from sobolev_lab.duality import (
    brute_force_norm,
    dual_vector,
    finite_operator,
    lq_norm as vec_lq_norm,
)
from sobolev_lab.specialfn import sphere_area
from sobolev_lab.stability import distance, quotient_curve, upper_bound_constant
from sobolev_lab.verify import format_report, run_suite
from sobolev_lab.zonal import (
    SphereParams,
    analyze,
    energy,
    eval_zonal,
    from_coeffs,
    funk_hecke_eigenvalue,
    lq_norm,
    sharp_constant,
    sobolev_quotient,
    subcritical_check,
    zonal_basis,
)


def check(num: int, ok: bool, detail: str) -> None:
    print("criterion %d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_optimizer_quotients_match_gamma_formula():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for d, s in ((3, 1.0), (4, 1.0), (5, 2.0), (3, 0.5)):
        params = SphereParams(d, s)
        target = sharp_constant(params)
        for _ in range(5):
            v = rng.standard_normal(d + 1)
            rho = 0.9 * rng.random() ** 0.5
            zeta = rho * v / np.linalg.norm(v)
            fn = q_zeta(zeta, params, bandlimit=192, order=480)
            worst = max(worst, abs(sobolev_quotient(fn) - target) / target)
    check(1, worst <= 1e-7, "20 random optimizers, worst rel err %.3e" % worst)


def test_criterion_02_funk_hecke_against_jacobi_quadrature():
    worst = 0.0
    for d, alpha in ((2, 0.5), (3, 1.0), (4, 1.5)):
        lam = (d - 1.0) / 2.0
        nodes, weights = scipy.special.roots_jacobi(
            200, (d - 2.0) / 2.0 - alpha, (d - 2.0) / 2.0
        )
        for ell in range(21):
            geg = scipy.special.eval_gegenbauer(ell, lam, nodes)
            geg_one = scipy.special.eval_gegenbauer(ell, lam, 1.0)
            oracle = sphere_area(d - 1) * float(np.dot(weights, geg)) / geg_one
            val = funk_hecke_eigenvalue(d, alpha, ell)
            worst = max(worst, abs(val - oracle) / abs(oracle))
    check(2, worst <= 1e-8, "ell <= 20, three (d, alpha) pairs, worst rel err %.3e" % worst)


def test_criterion_03_conformal_pullback_invariance():
    params = SphereParams(3, 1.0)
    deltas = np.exp(np.linspace(math.log(0.2), math.log(5.0), 50))
    worst_e = worst_q = 0.0
    for i, delta in enumerate(deltas):
        rng = np.random.default_rng(100 + i)
        c = np.zeros(193)
        c[:13] = rng.standard_normal(13) / (1.0 + np.arange(13.0))
        fn = from_coeffs(c, params, order=480)
        pulled = pullback_zonal(fn, float(delta))
        worst_e = max(worst_e, abs(energy(pulled) - energy(fn)) / energy(fn))
        nq = lq_norm(fn, params.q)
        worst_q = max(worst_q, abs(lq_norm(pulled, params.q) - nq) / nq)
    ok = worst_e <= 1e-6 and worst_q <= 1e-6
    check(3, ok, "50 pullbacks, worst energy err %.3e, worst q-norm err %.3e" % (worst_e, worst_q))


def test_criterion_04_stability_curve_limits():
    params = SphereParams(3, 1.0)
    limits = {}
    for degree in (2, 3):
        c = np.zeros(65)
        c[degree] = 1.0
        curve = quotient_curve(from_coeffs(c, params, order=256))
        limits[degree] = curve.extrapolated_limit
    target = upper_bound_constant(3, 1.0)
    rel = abs(limits[2] - target) / target
    ok = rel <= 1e-2 and limits[3] > limits[2]
    check(
        4,
        ok,
        "degree-2 limit %.6f vs 4s/(d+2s+2) = %.6f (rel %.2e), degree-3 limit %.6f"
        % (limits[2], target, rel, limits[3]),
    )


def test_criterion_05_distance_lemma_quadratic():
    params = SphereParams(3, 1.0)
    basis = zonal_basis(3, 64, 256)
    c = np.zeros(65)
    c[2], c[3], c[4], c[5], c[6] = 0.8, -0.5, 0.3, 0.15, -0.1
    r_fn = from_coeffs(c, params, order=256)
    e_r = energy(r_fn)
    worst = 0.0
    for eps in (0.05, 0.02):
        samples = 1.0 + eps * eval_zonal(r_fn, basis.rule.nodes)
        u_fn = analyze(samples, params, 64)
        res = distance(u_fn)
        worst = max(worst, abs(res.delta**2 - eps**2 * e_r) / (eps**2 * e_r))
    check(5, worst <= 5e-3, "delta^2 vs eps^2 E[R], worst rel err %.3e" % worst)


def test_criterion_06_subcritical_maximum_at_degree_zero():
    bad = 0
    worst_margin = math.inf
    for d in range(3, 9):
        qc = 2.0 * d / (d - 2.0)
        for frac in np.linspace(0.0, 0.95, 10):
            rep = subcritical_check(d, 2.0 + (qc - 2.0) * float(frac))
            if rep.argmax_ell != 0:
                bad += 1
            if rep.violations.size:
                worst_margin = min(worst_margin, float(np.min(rep.violations)))
    ok = bad == 0 and worst_margin >= -1e-9
    check(
        6,
        ok,
        "60 (d, q) pairs, argmax failures %d, worst random-U margin %.3e"
        % (bad, worst_margin),
    )


def test_criterion_07_period_map():
    base = u0(3)
    tau_edge = period(3, base + 1e-4)
    edge_ok = abs(tau_edge - 2.0 * math.pi) <= 1e-3
    alphas = np.linspace(base + 1e-3, 0.995, 50)
    taus = np.array([period(3, float(a)) for a in alphas])
    mono_ok = bool(np.all(np.diff(taus) > 0.0))
    worst = 0.0
    for alpha in (0.8, 0.9, 0.97):
        tau_q = period(3, alpha)
        worst = max(worst, abs(solve_orbit(3, alpha).period - tau_q) / tau_q)
    ok = edge_ok and mono_ok and worst <= 1e-7
    check(
        7,
        ok,
        "tau(u0+1e-4) = %.6f, 50-point grid monotone %s, quadrature vs ODE worst rel %.3e"
        % (tau_edge, mono_ok, worst),
    )


def test_criterion_08_cylinder_constant_below_sphere():
    ts = t_star(3)
    s_sphere = sharp_constant(SphereParams(3, 1.0))
    margins = []
    for T in np.linspace(0.3 * ts, 3.0 * ts, 20):
        margins.append(s_sphere - sobolev_constant_cylinder(3, float(T)))
    min_margin = min(margins)
    worst_descent = 0.0
    for T in (1.5 * ts, 2.2 * ts):
        branch = sobolev_constant_cylinder(3, T)
        val, _ = minimize_quotient(3, T)
        worst_descent = max(worst_descent, abs(val - branch) / branch)
    ok = min_margin > 0.0 and worst_descent <= 1e-4
    check(
        8,
        ok,
        "20-point grid, min margin %.3e, descent vs branch worst rel %.3e"
        % (min_margin, worst_descent),
    )


def test_criterion_09_hessian_kernel_dimensions():
    ts = t_star(3)
    rows = []
    ok = True
    for T, dim in ((0.7 * ts, 1), (ts, 3), (1.4 * ts, 2)):
        rep = hessian_block_spectrum(3, T, ell=0, n_modes=128)
        # scale of the low Fourier band: the operator's O(1) coefficients,
        # not the K^2 top of the discretization
        scale = (2.0 * math.pi / T) ** 2 + 0.25 + 2.0
        by_mag = np.sort(np.abs(rep.eigenvalues))
        kern_ok = bool(np.all(by_mag[:dim] < 1e-6 * scale))
        next_ok = by_mag[dim] > 1e-3 * scale
        rows.append((rep.kernel_dim, dim))
        ok = ok and rep.kernel_dim == dim and kern_ok and next_ok
    check(9, ok, "kernel dims %s vs expected (1, 3, 2)" % ([r[0] for r in rows],))


def test_criterion_10_quadratic_stability_constant():
    ts = t_star(3)
    worst = 0.0
    for T in np.linspace(0.3 * ts, 0.95 * ts, 10):
        f = c_T_formula(3, float(T))
        worst = max(worst, abs(c_T_numeric(3, float(T)) - f) / f)
    at_star = abs(c_T_numeric(3, ts))
    positive = [c_T(3, float(T)) for T in np.linspace(1.1 * ts, 3.0 * ts, 6)]
    ok = worst <= 1e-8 and at_star <= 1e-8 and all(v > 0.0 for v in positive)
    check(
        10,
        ok,
        "closed form vs eigensolver worst rel %.3e, |c at T_*| = %.3e, min above = %.3e"
        % (worst, at_star, min(positive)),
    )


def test_criterion_11_quartic_coefficient_and_gap():
    worst = 0.0
    gaps_ok = True
    for d in range(3, 11):
        q = 2.0 * d / (d - 2.0)
        target = (d - 2.0) / 48.0 * (q - 1.0) * (q - 2.0) / u0(d)
        qc = quartic_constants(d)
        worst = max(worst, abs(qc.resolvent_coefficient - target) / target)
        gaps_ok = gaps_ok and qc.gap > 0.0
    curve = degenerate_quotient_curve(3)
    lim_rel = abs(curve.extrapolated_limit - 8.0 / 15.0) / (8.0 / 15.0)
    ok = worst <= 1e-8 and gaps_ok and lim_rel <= 2e-2
    check(
        11,
        ok,
        "resolvent coefficient worst rel %.3e (d = 3..10), gaps positive %s, curve limit rel %.3e"
        % (worst, gaps_ok, lim_rel),
    )


def test_criterion_12_split_remainder_scaling():
    slopes = {}
    for family in ("pi", "pi_perp"):
        rep = split_stability_check(3, family=family, eps_grid=(0.02, 0.01, 0.005))
        slopes[family] = rep.slope_lhs
    ok = abs(slopes["pi"] - 4.0) <= 0.1 and abs(slopes["pi_perp"] - 2.0) <= 0.1
    check(
        12,
        ok,
        "deficit log-log slopes: pure-pi %.4f (want 4), pure-pi-perp %.4f (want 2)"
        % (slopes["pi"], slopes["pi_perp"]),
    )


def test_criterion_13_duality_round_trip():
    rng = np.random.default_rng(7)
    qs = (1.5, 2.0, 3.0, 6.0)
    worst_agree = worst_pair = worst_brute = 0.0
    n_brute = 0
    for k in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((m, n))
        q = qs[k % 4]
        op = finite_operator(a, q, seed=k)
        worst_agree = max(
            worst_agree, abs(op.primal_norm - op.adjoint_norm) / max(op.op_norm, 1.0)
        )
        f = rng.standard_normal(n)
        f /= np.linalg.norm(f)
        g = dual_vector(f, op)
        pair = abs(float(f @ (a.T @ g)) - vec_lq_norm(a @ f, q))
        worst_pair = max(worst_pair, pair / max(op.op_norm, 1.0))
        if n <= 4:
            n_brute += 1
            worst_brute = max(
                worst_brute, abs(brute_force_norm(a, q) - op.op_norm) / op.op_norm
            )
    ok = worst_agree <= 1e-8 and worst_pair <= 1e-8 and worst_brute <= 1e-6
    check(
        13,
        ok,
        "200 instances: route agreement %.3e, pairing residual %.3e, brute force (%d cases) %.3e"
        % (worst_agree, worst_pair, n_brute, worst_brute),
    )


def test_criterion_14_verify_all_is_deterministic():
    kwargs = dict(d=3, s=1.0, T=9.0, bandlimit=64, order=256, n_modes=128, seed=0)
    first = format_report(run_suite("all", **kwargs))
    second = format_report(run_suite("all", **kwargs))
    ok = first == second and "FAIL" not in first
    tail = first.strip().split("\n")[-1]
    check(14, ok, "two runs byte-identical %s, %s" % (first == second, tail))
