"""Self-contained invariant suites with a uniform pass/fail report.

Each suite re-derives a handful of structural identities at runtime --
spectral formulas against quadrature, closed forms against eigensolvers,
two independent routes to the same number -- and reports one line per
check. Suites are deterministic for a fixed seed; ``run_suite("all")``
concatenates them.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, conformal, cylinder, duality, stability, zonal
from .errors import DomainError
from .zonal import SphereParams

__all__ = [
    "CheckResult",
    "sphere_checks",
    "conformal_checks",
    "stability_checks",
    "cylinder_checks",
    "duality_checks",
    "run_suite",
    "format_report",
    "SUITES",
]


@dataclass(frozen=True)
class CheckResult:
    """One verified invariant: measured value against its bound."""

    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = field(default="")


def _le(name, measured, bound):
    return CheckResult(name, bool(measured <= bound), float(measured), float(bound))


def _gt(name, measured, bound):
    return CheckResult(name, bool(measured > bound), float(measured), float(bound))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _random_zeta(rng: np.random.Generator, d: int, radius: float = 0.85) -> np.ndarray:
    v = rng.standard_normal(d + 1)
    v /= np.linalg.norm(v)
    return radius * rng.uniform() ** (1.0 / (d + 1)) * v


# the degrees of the random test functions of the sphere suites
_RANDOM_LMAX = 12


def _random_bandlimited(
    rng: np.random.Generator, params: SphereParams, bandlimit: int, order: int
) -> zonal.ZonalFn:
    coeffs = np.zeros(bandlimit + 1)
    raw = rng.standard_normal(_RANDOM_LMAX + 1)
    coeffs[: _RANDOM_LMAX + 1] = raw / (1.0 + np.arange(_RANDOM_LMAX + 1)) ** 2
    return zonal.from_coeffs(coeffs, params, order=order)


def _check_bandlimit(bandlimit: int) -> None:
    """Refuse a bandlimit below the degrees of the random test functions."""
    if bandlimit < _RANDOM_LMAX:
        raise DomainError(
            "the sphere suites need bandlimit >= %d, got %r" % (_RANDOM_LMAX, bandlimit)
        )


def sphere_checks(
    d: int = 3,
    s: float = 1.0,
    bandlimit: int = zonal.DEFAULT_BANDLIMIT,
    order: int = zonal.DEFAULT_ORDER,
    seed: int = 0,
) -> list:
    params = SphereParams(d, s)
    _check_bandlimit(bandlimit)
    out = []

    rng = _rng(seed, 0)
    target = zonal.sharp_constant(params)
    worst = 0.0
    for _ in range(3):
        zeta = _random_zeta(rng, d)
        fn = conformal.q_zeta(zeta, params, bandlimit=bandlimit, order=order)
        worst = max(worst, abs(zonal.sobolev_quotient(fn) - target) / target)
    out.append(_le("sphere.quotient_matches_sharp_constant", worst, 1e-7))

    ells = np.arange(21)
    prods = np.array(
        [
            zonal.funk_hecke_eigenvalue(d, d / 2.0 - s, ell)
            * zonal.gamma_multiplier(params, ell)
            for ell in ells
        ]
    )
    flat = float(np.max(np.abs(prods / prods[0] - 1.0)))
    out.append(_le("sphere.funk_hecke_inversion_flat", flat, 1e-10))

    mults = zonal.gamma_multiplier(params, np.arange(201))
    out.append(_gt("sphere.gamma_ratio_monotone", float(np.min(np.diff(mults))), 0.0))

    gap_target = 2.0 * s / (1.0 + d / 2.0 + s)
    ratios = (mults[2:] - mults[1]) / mults[2:]
    out.append(_le("sphere.spectral_gap_bound", float(np.max(gap_target - ratios)), 1e-12))
    out.append(_le("sphere.spectral_gap_tight_at_two", abs(ratios[0] - gap_target), 1e-12))

    if s == 1.0:
        fn = _random_bandlimited(_rng(seed, 1), params, bandlimit, order)
        e_spec = zonal.energy(fn)
        e_grad = zonal.energy_via_gradient(fn)
        out.append(_le("sphere.energy_two_routes", abs(e_spec - e_grad) / e_spec, 1e-8))

    q_mid = 2.0 + 0.5 * (params.q - 2.0)
    rep = zonal.subcritical_check(d, q_mid, n_random=8, seed=seed + 11)
    out.append(
        CheckResult(
            "sphere.subcritical_argmax_zero",
            rep.argmax_ell == 0 and rep.tail_monotone,
            float(rep.argmax_ell),
            0.0,
            "constant %.6g" % rep.constant,
        )
    )

    rng = _rng(seed, 2)
    worst = math.inf
    for _ in range(50):
        fn = _random_bandlimited(rng, params, bandlimit, order)
        worst = min(worst, stability.deficit(fn) / zonal.energy(fn))
    out.append(
        CheckResult("sphere.deficit_nonnegative", worst >= -1e-8, worst, -1e-8)
    )
    return out


def conformal_checks(
    d: int = 3,
    s: float = 1.0,
    bandlimit: int = zonal.DEFAULT_BANDLIMIT,
    order: int = zonal.DEFAULT_ORDER,
    seed: int = 0,
) -> list:
    params = SphereParams(d, s)
    _check_bandlimit(bandlimit)
    out = []

    rng = _rng(seed, 0)
    t = rng.uniform(-1.0, 1.0, size=64)
    d1, d2 = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
    comp = conformal.gamma_flow_axis(d1, conformal.gamma_flow_axis(d2, t))
    direct = conformal.gamma_flow_axis(d1 * d2, t)
    out.append(
        _le("conformal.dilation_composition", float(np.max(np.abs(comp - direct))), 1e-12)
    )

    delta = float(rng.uniform(0.4, 2.5))
    tj = rng.uniform(-0.95, 0.95, size=32)
    h = 1e-6
    tp = conformal.gamma_flow_axis(delta, tj)
    dtp = (conformal.gamma_flow_axis(delta, tj + h) - conformal.gamma_flow_axis(delta, tj - h)) / (
        2.0 * h
    )
    fd_jac = dtp * ((1.0 - tp**2) / (1.0 - tj**2)) ** ((d - 2) / 2.0)
    closed = conformal.flow_jacobian_axis(delta, tj, d)
    rho_signed = (delta**2 - 1.0) / (delta**2 + 1.0)
    zeta_form = (
        math.sqrt(1.0 - rho_signed**2) / (1.0 - rho_signed * tj)
    ) ** d
    worst = max(
        float(np.max(np.abs(fd_jac / closed - 1.0))),
        float(np.max(np.abs(zeta_form / closed - 1.0))),
    )
    out.append(_le("conformal.jacobian_identity", worst, 1e-6))

    rng = _rng(seed, 1)
    worst_e, worst_q = 0.0, 0.0
    for delta in (0.5, 1.3, 2.0):
        fn = _random_bandlimited(rng, params, bandlimit, order)
        pulled = conformal.pullback_zonal(fn, delta)
        e0, e1 = zonal.energy(fn), zonal.energy(pulled)
        n0 = zonal.lq_norm(fn, params.q)
        n1 = zonal.lq_norm(pulled, params.q)
        worst_e = max(worst_e, abs(e1 - e0) / e0)
        worst_q = max(worst_q, abs(n1 - n0) / n0)
    out.append(_le("conformal.energy_invariance", worst_e, 1e-6))
    out.append(_le("conformal.qnorm_invariance", worst_q, 1e-6))

    fn = _random_bandlimited(_rng(seed, 2), params, bandlimit, order)
    back = conformal.pullback_zonal(conformal.pullback_zonal(fn, 1.7), 1.0 / 1.7)
    rt = float(np.max(np.abs(back.coeffs - fn.coeffs))) / float(
        np.max(np.abs(fn.coeffs))
    )
    out.append(_le("conformal.pullback_round_trip", rt, 1e-10))

    zeta = _random_zeta(_rng(seed, 3), d, radius=0.6)
    dens_src = conformal.q_zeta(zeta, params, bandlimit=bandlimit, order=order)
    res = conformal.hersch_normalize(dens_src, density_exponent=params.q)
    rebal = conformal.axis_moment(res.density, power=1)
    out.append(_le("conformal.hersch_zero_moment", abs(rebal) / res.mass, 1e-9))
    return out


def stability_checks(
    d: int = 3,
    s: float = 1.0,
    bandlimit: int = zonal.DEFAULT_BANDLIMIT,
    order: int = zonal.DEFAULT_ORDER,
    seed: int = 0,
) -> list:
    params = SphereParams(d, s)
    _check_bandlimit(bandlimit)
    out = []

    coeffs = np.zeros(bandlimit + 1)
    coeffs[2] = 1.0
    rfn = zonal.from_coeffs(coeffs, params, order=order)
    eps = 0.02
    pert = zonal.analyze(1.0 + eps * rfn.samples, params, bandlimit=bandlimit)
    dist = stability.distance(pert)
    target = eps * eps * zonal.energy(rfn)
    out.append(
        _le(
            "stability.distance_lemma_quadratic",
            abs(dist.delta**2 - target) / target,
            5e-3,
        )
    )

    curve = stability.quotient_curve(rfn)
    bound = stability.upper_bound_constant(d, s)
    out.append(
        _le(
            "stability.be_curve_limit",
            abs(curve.extrapolated_limit - bound) / bound,
            1e-2,
        )
    )

    zeta = _random_zeta(_rng(seed, 0), d, radius=0.5)
    qfn = conformal.q_zeta(zeta, params, bandlimit=bandlimit, order=order)
    out.append(_le("stability.manifold_detected", stability.distance(qfn).tau, 1e-6))

    ells = np.arange(1, 31)
    w_gap = max(
        abs(zonal.w_weight(d, s, int(l)) - zonal.w_weight_threeterm(d, s, int(l)))
        for l in ells
    )
    out.append(_le("stability.w_weight_two_routes", w_gap, 1e-12))

    fn = _random_bandlimited(_rng(seed, 1), params, bandlimit, order)
    base_q = stability.be_quotient(fn)
    pulled_q = stability.be_quotient(conformal.pullback_zonal(fn, 1.6))
    out.append(
        _le(
            "stability.quotient_conformal_invariance",
            abs(pulled_q - base_q) / abs(base_q),
            1e-5,
        )
    )
    return out


def cylinder_checks(
    d: int = 3, T: float = 9.0, n_modes: int = cylinder.DEFAULT_N_MODES
) -> list:
    out = []
    ts = cylinder.t_star(d)
    base = cylinder.u0(d)

    tau_edge = cylinder.period(d, base + 1e-4)
    out.append(_le("cylinder.period_limit_at_bifurcation", abs(tau_edge - ts), 1e-3))

    grid = base + (1.0 - base) * np.linspace(0.05, 0.95, 12)
    taus = np.array([cylinder.period(d, float(a)) for a in grid])
    out.append(_gt("cylinder.period_monotone", float(np.min(np.diff(taus))), 0.0))

    alpha_mid = float(grid[6])
    orb = cylinder.solve_orbit(d, alpha_mid)
    tau_quad = float(taus[6])
    out.append(
        _le(
            "cylinder.period_two_routes",
            abs(orb.period - tau_quad) / tau_quad,
            1e-7,
        )
    )

    out.append(_le("cylinder.first_integral_drift", cylinder.energy_drift(d, alpha_mid, 5), 1e-8))

    ints = cylinder.orbit_integrals(d, alpha_mid)
    el_ratio = ints["i_energy"] / ints["i_q"]
    out.append(
        _le(
            "cylinder.euler_lagrange_normalization",
            abs(el_ratio - d * (d - 2.0) / 4.0) / (d * (d - 2.0) / 4.0),
            1e-9,
        )
    )

    s_cyl = cylinder.sobolev_constant_cylinder(d, T)
    s_sph = zonal.sharp_constant(SphereParams(d, 1.0))
    trial = cylinder.cosh_trial_bound(d, T)
    margin = (s_sph - s_cyl) / s_sph
    out.append(
        CheckResult(
            "cylinder.sharp_below_sphere",
            s_cyl < trial < s_sph,
            margin,
            0.0,
            "S_d(T)=%.8g trial=%.8g S_d=%.8g" % (s_cyl, trial, s_sph),
        )
    )

    t_eps = ts * (1.0 + 1e-8)
    orbit_val = cylinder.orbit_branch_value(d, t_eps)
    # the constant branch's closed form, continued just past T_*
    const_val = cylinder._constant_branch_value(d, t_eps)
    out.append(
        _le(
            "cylinder.branch_continuity",
            abs(orbit_val - const_val) / const_val,
            1e-6,
        )
    )

    # the checks of the orbit branch run past T_* whatever T is: at and below
    # T_* u_*' = 0, so there is no translation mode to pair, and c_T is the
    # closed form, with no eigensolve
    above = max(T, 1.3 * ts)
    dims = []
    for tv, expect in ((0.7 * ts, 1), (ts, 3), (above, 2)):
        rep = cylinder.hessian_block_spectrum(d, tv, 0, n_modes=n_modes)
        dims.append((rep.kernel_dim, expect))
    out.append(
        CheckResult(
            "cylinder.kernel_dimensions",
            all(got == want for got, want in dims),
            float(sum(got for got, _ in dims)),
            6.0,
            "got %s" % (tuple(got for got, _ in dims),),
        )
    )

    br = cylinder.optimizer_branch(d, above)
    pair = cylinder.zero_mode_pairing(br, n_modes=n_modes)
    scale = cylinder.energy_profile(cylinder.profile_from_samples(br.params, br.up))
    out.append(_le("cylinder.translation_zero_mode", abs(pair) / scale, 1e-8))

    tl = 0.5 * ts
    out.append(
        _le(
            "cylinder.ct_closed_form",
            abs(cylinder.c_T_numeric(d, tl, n_modes=n_modes) - cylinder.c_T_formula(d, tl)),
            1e-8,
        )
    )
    out.append(
        _le(
            "cylinder.ct_zero_at_bifurcation",
            abs(cylinder.c_T_numeric(d, ts, n_modes=n_modes)),
            1e-12,
        )
    )
    out.append(_gt("cylinder.ct_positive_above", cylinder.c_T(d, above, n_modes=n_modes), 0.0))

    orb_above = cylinder.solve_orbit(d, br.alpha)
    out.append(
        _le("cylinder.l1_factorization", cylinder.l1_factorization_residual(orb_above), 1e-7)
    )
    return out


def duality_checks(seed: int = 0, n_instances: int = 20) -> list:
    out = []
    rng = _rng(seed, 0)
    qs = (1.5, 2.0, 3.0, 6.0)
    worst_agree = 0.0
    worst_pair = 0.0
    worst_round = 0.0
    worst_brute = 0.0
    n_brute = 0
    for k in range(n_instances):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        q = qs[k % len(qs)]
        a = rng.standard_normal((m, n))
        op = duality.finite_operator(a, q, seed=seed + k)
        worst_agree = max(
            worst_agree, abs(op.primal_norm - op.adjoint_norm) / max(op.op_norm, 1.0)
        )
        if n <= 4:
            n_brute += 1
            worst_brute = max(
                worst_brute,
                abs(duality.brute_force_norm(a, q) - op.op_norm) / max(op.op_norm, 1.0),
            )
        f, _ = _kernels.lq_ascent(a, q, np.ones(n) / math.sqrt(n), 4000, 1e-14)
        val_f = duality.lq_norm(a @ f, q)
        if val_f < 0.5 * op.op_norm:
            continue
        g = duality.dual_vector(f, op)
        worst_pair = max(worst_pair, abs(float(f @ (op.matrix.T @ g)) - val_f))
        if val_f > (1.0 - 1e-9) * op.op_norm:
            fb = duality.primal_vector(g, op)
            worst_round = max(
                worst_round,
                min(float(np.max(np.abs(fb - f))), float(np.max(np.abs(fb + f)))),
            )
    out.append(_le("duality.norm_two_routes", worst_agree, 1e-9))
    out.append(
        CheckResult(
            "duality.brute_force_agreement",
            worst_brute <= 1e-6 and n_brute > 0,
            worst_brute,
            1e-6,
            "%d instances" % n_brute,
        )
    )
    out.append(_le("duality.holder_pairing", worst_pair, 1e-8))
    out.append(_le("duality.optimizer_round_trip", worst_round, 1e-8))
    return out


SUITES = {
    "sphere": sphere_checks,
    "conformal": conformal_checks,
    "stability": stability_checks,
    "cylinder": cylinder_checks,
    "duality": duality_checks,
}


def run_suite(suite: str, **params) -> list:
    """Run one named suite (or "all") and return its CheckResults.

    Each suite gets the entries of ``params`` that its signature names, and
    its own defaults for the rest; an entry no suite takes is ignored.
    """
    if suite != "all" and suite not in SUITES:
        raise DomainError("unknown suite %r" % (suite,))
    out = []
    for name in SUITES if suite == "all" else (suite,):
        # signature() follows the __wrapped__ of a traced suite
        takes = inspect.signature(SUITES[name]).parameters
        out += SUITES[name](**{k: v for k, v in params.items() if k in takes})
    return out


def format_report(results: list) -> str:
    """Fixed-layout pass/fail table; stable across runs for stable inputs."""
    lines = []
    width = max(len(r.name) for r in results) if results else 0
    for r in results:
        lines.append(
            "%s  %-*s  measured=%.12g  bound=%.12g%s"
            % (
                "PASS" if r.passed else "FAIL",
                width,
                r.name,
                r.measured,
                r.bound,
                ("  " + r.detail) if r.detail else "",
            )
        )
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        "%d/%d checks passed" % (len(results) - n_fail, len(results))
    )
    if n_fail:
        first = next(r for r in results if not r.passed)
        lines.append("first failing invariant: %s" % first.name)
    return "\n".join(lines) + "\n"
