"""Cylinder bifurcation: orbits, branches, Hill spectra, degenerate stability.

Closed-form anchors (frozen from 40-digit evaluations):
    u0(3) = (1/3)^{1/4},  T_*(d) = 2 pi / sqrt(d-2),  V''(u0) = d - 2,
    constant branch S(T) = ((d-2)^2/4) (T |S^{d-1}|)^{1-2/q},
    c_T = (min{(2pi/T)^2, d-1} - (d-2)) / (min{(2pi/T)^2, d-1} + ((d-2)/2)^2),
    resolvent coefficient (d-2)/48 (q-1)(q-2)/u0,
    curve limit (q+2)(q-2)/(12(q-1)).
"""

import copy
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import eigh, null_space

from sobolev_lab import _brentq, cylinder, verify
from sobolev_lab.cylinder import (
    _assemble_block,
    _integrate,
    _lowest_eigenvalues,
    _multiplication_halves,
    _q_norm_term,
    _rhs,
    _sample,
    _trig_coords,
    Branch,
    CylinderParams,
    c_T,
    c_T_formula,
    c_T_numeric,
    cosh_trial_bound,
    degenerate_quotient_curve,
    distance_to_branch,
    energy_drift,
    energy_profile,
    hessian_block_spectrum,
    inverse_period,
    l1_factorization_residual,
    lq_norm_profile,
    minimize_quotient,
    ode_residual,
    optimizer_branch,
    orbit_branch_value,
    orbit_integrals,
    period,
    potential,
    profile_from_samples,
    quartic_constants,
    quotient_profile,
    sobolev_constant_cylinder,
    solve_orbit,
    split_stability_check,
    t_star,
    u0,
    u_min_turning,
    zero_mode_pairing,
)
from sobolev_lab.errors import (
    ComputationError,
    DegenerateInputError,
    DomainError,
    InconsistencyError,
    PreconditionError,
)
from sobolev_lab.specialfn import sphere_area
from sobolev_lab.zonal import SphereParams, sharp_constant

D = 3
TS = t_star(D)


def _branch_profile(d, T, n_grid=cylinder.DEFAULT_N_GRID):
    """The optimizer branch as a profile: constant below T_*, orbit above."""
    br = optimizer_branch(d, T, n_grid)
    return profile_from_samples(br.params, br.u)


def test_well_minimum_closed_forms():
    assert u0(3) == pytest.approx((1.0 / 3.0) ** 0.25, rel=1e-15)
    assert u0(4) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert t_star(3) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert t_star(6) == pytest.approx(math.pi, rel=1e-15)
    assert potential(u0(3), 3) == pytest.approx(-0.048112522432468816, rel=1e-13)


def test_well_is_critical_with_curvature_d_minus_2():
    for d in (3, 4, 5):
        base = u0(d)
        assert abs(ode_residual(d, base)) < 1e-14
        h = 1e-5
        v2 = (potential(base + h, d) - 2.0 * potential(base, d) + potential(base - h, d)) / h**2
        assert v2 == pytest.approx(d - 2.0, rel=1e-5)


def test_turning_point_matches_level():
    for alpha in (0.8, 0.95):
        lo = u_min_turning(D, alpha)
        assert 0.0 < lo < u0(D) < alpha
        assert potential(lo, D) == pytest.approx(potential(alpha, D), abs=1e-13)


def test_period_limit_at_bifurcation():
    assert period(D, u0(D) + 1e-4) == pytest.approx(2.0 * math.pi, abs=1e-3)


def test_period_quadratic_departure_from_t_star():
    # tau(u0 + A) - T_* grows like A^2: doubling A quadruples the excess
    a = 1e-5
    e1 = period(D, u0(D) + a) - TS
    e2 = period(D, u0(D) + 2 * a) - TS
    assert e2 / e1 == pytest.approx(4.0, rel=2e-2)
    assert e1 > 0


def test_period_strictly_increasing():
    alphas = np.linspace(u0(D) + 1e-3, 0.995, 50)
    taus = np.array([period(D, float(a)) for a in alphas])
    assert np.all(np.diff(taus) > 0)


def test_period_two_routes_agree():
    # Gauss quadrature of the turning-point integral vs direct integration
    for alpha in (0.8, 0.9, 0.97):
        orb = solve_orbit(D, alpha)
        assert orb.period == pytest.approx(period(D, alpha), rel=1e-9)


def test_period_frozen_regression():
    assert period(D, 0.9) == pytest.approx(6.859418363896389, rel=1e-12)


def _period_reference(mp, d, alpha):
    """tau(alpha) by 50-digit Gauss-Legendre quadrature of the same integral.

    The lower turning point is polished by mpmath's Newton iteration from the
    double-precision one, and W = (V(alpha) - V(u)) / ((alpha - u)(u - umin))
    is formed directly: at 50 digits the difference keeps 30 of them.
    """
    with mp.workdps(50):
        dd = mp.mpf(d)
        q = 2 * dd / (dd - 2)

        def V(u):
            return -((dd - 2) ** 2) * u * u / 8 + dd * (dd - 2) / (4 * q) * u**q

        a = mp.mpf(alpha)
        level = V(a)
        umin = mp.findroot(lambda u: V(u) - level, mp.mpf(u_min_turning(d, alpha)))
        span = a - umin

        def inv_sqrt_w(theta):
            u = umin + span * mp.sin(theta) ** 2
            return mp.sqrt((a - u) * (u - umin) / (level - V(u)))

        val = mp.quad(inv_sqrt_w, [0, mp.pi / 2], method="gauss-legendre")
        return float(2 * mp.sqrt(2) * val)


def test_period_matches_mpmath_reference():
    # below 2e-3 the series route, above it the direct one; both within 5e-11
    mp = pytest.importorskip("mpmath")
    for d in (3, 4, 5, 6):
        base = u0(d)
        amps = list(np.geomspace(1e-5, 1e-2, 13)) + [0.3 * (1 - base), 0.9 * (1 - base)]
        for amp in amps:
            alpha = base + float(amp)
            ref = _period_reference(mp, d, alpha)
            assert period(d, alpha) == pytest.approx(ref, rel=5e-11, abs=0.0), (d, amp)


def test_theta_table_matches_the_span_masks():
    # the endpoint bands are ub < 1e-3 span and au < 1e-3 span; no node lies
    # near enough to 1e-3 for rounding the products by a span to move it
    for n in (240,):
        tab = cylinder._theta_table(n)
        assert tab is cylinder._theta_table(n)
        assert min(np.min(np.abs(tab.st2 - 1e-3)), np.min(np.abs(tab.ct2 - 1e-3))) > 1e-9
        for span in (1e-6, 3e-3, 0.37, 1.0, 1.9):
            ub, au = span * tab.st2, span * tab.ct2
            near_min, near_max = ub < 1e-3 * span, au < 1e-3 * span
            nodes = np.arange(n)
            assert np.array_equal(nodes[tab.near_min], np.flatnonzero(near_min))
            assert np.array_equal(nodes[tab.near_max], np.flatnonzero(near_max))
            assert np.array_equal(nodes[tab.bulk], np.flatnonzero(~(near_min | near_max)))


def test_inverse_period_evaluates_each_amplitude_once(monkeypatch):
    calls = []

    def recording(d, alpha, *args):
        calls.append(alpha)
        return period(d, alpha, *args)

    monkeypatch.setattr(cylinder, "period", recording)
    total = 0
    for d in (3, 4, 5, 6):
        for frac in (1.02, 1.5, 3.0):
            calls.clear()
            inverse_period(d, frac * t_star(d))
            assert len(set(calls)) == len(calls), (d, frac)
            total += len(calls)
    # evaluating u0 (1 + 1e-9) first and both bracket ends twice took 193
    assert total < 193


def test_inverse_period_bracket_failures_raise_typed_errors(monkeypatch):
    T = 1.5 * TS
    monkeypatch.setattr(cylinder, "period", lambda d, alpha, *args: T + 1.0)
    with pytest.raises(ComputationError, match="lower bracket"):
        inverse_period(D, T)
    monkeypatch.setattr(cylinder, "period", lambda d, alpha, *args: T - 1.0)
    with pytest.raises(ComputationError, match="bracket the amplitude"):
        inverse_period(D, T)


def test_inverse_period_round_trip():
    for T in (7.3, 9.0, 14.0):
        alpha = inverse_period(D, T)
        assert period(D, alpha) == pytest.approx(T, rel=1e-10)
    assert inverse_period(D, 9.0) == pytest.approx(0.9754077077334118, rel=1e-10)


def test_inverse_period_near_bifurcation():
    # amplitudes shrink like sqrt(T - T_*); the series route keeps this stable
    T = TS * (1.0 + 1e-8)
    alpha = inverse_period(D, T)
    assert u0(D) < alpha < u0(D) + 1e-3
    assert period(D, alpha) == pytest.approx(T, rel=1e-9)


def test_orbit_ode_and_first_integral(monkeypatch):
    # the drift over 10 periods; verify runs at 5
    monkeypatch.setattr(cylinder, "_DRIFT_PERIODS", 10)
    br = optimizer_branch(D, 1.5 * TS)
    assert br.u[0] == br.alpha
    assert br.up[0] == 0.0
    h = 0.5 * br.up**2 + potential(br.u, D)
    assert np.max(np.abs(h - potential(br.alpha, D))) < 1e-9
    assert energy_drift(D, 0.9) < 1e-8


def test_orbit_euler_lagrange_normalization():
    for alpha in (0.85, 0.95):
        i_energy, i_q = orbit_integrals(D, alpha)
        assert i_energy / i_q == pytest.approx(D * (D - 2.0) / 4.0, rel=1e-9)


def test_l1_factorization_of_translation_mode():
    # v = e^{sigma t}(u' + sigma beta u) solves the ell = 1 Hill equation
    assert l1_factorization_residual(optimizer_branch(D, 1.5 * TS)) < 1e-12


def test_domain_errors_on_bad_amplitudes():
    with pytest.raises(DomainError):
        period(D, u0(D) * 0.9)
    with pytest.raises(DomainError):
        period(D, 1.0)
    with pytest.raises(DomainError):
        inverse_period(D, TS * 0.99)


@pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan, 0.0])
def test_a_period_that_is_not_finite_and_positive_is_a_domain_error(T):
    # an infinite period used to pass CylinderParams and reach the amplitude
    # bracket, which then failed as a computation
    with pytest.raises(DomainError, match="period"):
        CylinderParams(D, T)
    with pytest.raises(DomainError, match="T"):
        inverse_period(D, T)


@pytest.mark.parametrize(
    "call",
    [lambda: optimizer_branch(D, 1.5 * TS, n_grid=0)],
    ids=["branch_empty_grid"],
)
def test_degenerate_sizes_raise_domain_error_before_any_work(monkeypatch, call):
    def refuse(*args, **kwargs):
        raise AssertionError("work started on a degenerate size")

    for name in ("period", "inverse_period", "_integrate"):
        monkeypatch.setattr(cylinder, name, refuse)
    with pytest.raises(DomainError):
        call()


def test_profile_constructors_leave_the_callers_array_writable():
    params = CylinderParams(D, 9.0)
    samples = np.ones(64)
    prof = profile_from_samples(params, samples)
    samples[0] = 2.0
    assert prof.samples[0] == 1.0


@pytest.mark.parametrize("shape", [(4, 4), (0,)])
def test_profile_from_samples_rejects_malformed_samples(shape):
    with pytest.raises(PreconditionError, match="nonempty 1-D"):
        profile_from_samples(CylinderParams(D, 9.0), np.ones(shape))


def test_profile_energy_against_trig_closed_form():
    # u = c + a cos(2 pi t / T): all three integrals have elementary values
    T, c, a = 9.0, 1.2, 0.35
    params = CylinderParams(D, T)
    m = 1024
    t = np.arange(m) * (T / m)
    w = 2.0 * math.pi / T
    prof = profile_from_samples(params, c + a * np.cos(w * t))
    beta2 = (D - 2.0) ** 2 / 4.0
    area = sphere_area(D - 1)
    assert energy_profile(prof) == pytest.approx(
        area * T * (a**2 * w**2 / 2.0 + beta2 * (c**2 + a**2 / 2.0)), rel=1e-12
    )
    # mpmath, 40 dps: int_0^T (c + a cos)^6 dt = 45.1190617470703125
    assert lq_norm_profile(prof) ** 6.0 == pytest.approx(
        area * 45.1190617470703125, rel=1e-11
    )


def test_quotient_profile_scale_invariant():
    params = CylinderParams(D, 9.0)
    m = 512
    t = np.arange(m) * (9.0 / m)
    prof = profile_from_samples(params, 1.0 + 0.3 * np.cos(2 * math.pi * t / 9.0))
    big = profile_from_samples(params, 7.0 * prof.samples)
    assert quotient_profile(big) == pytest.approx(quotient_profile(prof), rel=1e-12)


def test_constant_branch_closed_form():
    # below the bifurcation the optimizer is constant and S(T) is elementary
    T = 0.4 * TS
    val = sobolev_constant_cylinder(D, T)
    assert val == pytest.approx(2.4978891283467971, rel=1e-12)
    assert sobolev_constant_cylinder(D, TS) == pytest.approx(
        4.601151114470490, rel=1e-12
    )
    star = _branch_profile(D, T)
    assert np.allclose(star.samples, u0(D), atol=1e-14)


def test_branch_continuity_and_orbit_branch():
    above = sobolev_constant_cylinder(D, TS * (1.0 + 1e-8))
    at = sobolev_constant_cylinder(D, TS)
    assert above == pytest.approx(at, rel=1e-6)
    T = 1.5 * TS
    star = _branch_profile(D, T)
    assert quotient_profile(star) == pytest.approx(
        sobolev_constant_cylinder(D, T), rel=1e-10
    )


def test_cylinder_constant_sits_below_sphere_and_cosh_bound():
    s_sphere = sharp_constant(SphereParams(D, 1.0))
    for frac in (0.5, 1.0, 1.7, 2.5):
        val = sobolev_constant_cylinder(D, frac * TS)
        trial = cosh_trial_bound(D, frac * TS)
        assert val < trial < s_sphere


def test_orbit_branch_cross_validated():
    # the descent route to the same value is test_descent_matches_branch_value
    assert sobolev_constant_cylinder(D, 1.5 * TS) == pytest.approx(
        5.308835907872, rel=1e-9
    )


def test_descent_matches_branch_value():
    for T in (1.5 * TS, 2.5 * TS):
        val, prof = minimize_quotient(D, T)
        assert val == pytest.approx(sobolev_constant_cylinder(D, T), rel=1e-6)
        assert quotient_profile(prof) == pytest.approx(val, rel=1e-9)


def test_descent_refuses_unconverged_starts(monkeypatch):
    # one L-BFGS-B iteration converges from no start, so no value is ranked
    monkeypatch.setattr(cylinder, "_DESCENT_MAXITER", 1)
    with pytest.raises(ComputationError):
        minimize_quotient(D, 1.5 * TS)


def test_k_fold_branches_are_dominated():
    # Diagnostics only: tiling the period-T/k orbit k times gives a critical
    # point of the period-T quotient, of value k^(1 - 2/q) times the
    # single-bump value at T/k. It exceeds the single-bump value at T, so
    # these branches never realize S_d(T).
    T = 2.6 * TS
    q = 2.0 * D / (D - 2.0)
    k1 = orbit_branch_value(D, T)
    k2 = 2.0 ** (1.0 - 2.0 / q) * orbit_branch_value(D, T / 2.0)
    assert k2 > k1
    # the period-T/2 orbit needs T/2 > T_*
    with pytest.raises(DomainError):
        orbit_branch_value(D, 1.5 * TS / 2.0)


def test_hessian_kernel_dimensions_follow_bifurcation():
    # 1 zero mode below T_*, 3 at the bifurcation, 2 above; the first
    # nonkernel eigenvalue has a known value in each regime
    for T, dim, nxt_expect in (
        (0.7 * TS, 1, (2.0 * math.pi / (0.7 * TS)) ** 2 - (D - 2.0)),
        (TS, 3, 3.0 * (D - 2.0)),
        (1.4 * TS, 2, 0.431061773),
    ):
        rep = hessian_block_spectrum(D, T, ell=0)
        assert rep.kernel_dim == dim
        by_mag = np.sort(np.abs(rep.eigenvalues))
        assert np.all(by_mag[:dim] < 1e-9)
        assert by_mag[dim] == pytest.approx(nxt_expect, rel=1e-6)


def test_hessian_spectra_stable_under_mode_doubling():
    for T in (0.7 * TS, 1.4 * TS):
        lo = hessian_block_spectrum(D, T, ell=0, n_modes=64)
        hi = hessian_block_spectrum(D, T, ell=0, n_modes=128)
        assert lo.kernel_dim == hi.kernel_dim
        a = np.sort(lo.eigenvalues)[:6]
        b = np.sort(hi.eigenvalues)[:6]
        assert np.allclose(a, b, rtol=1e-8, atol=1e-9)


def test_hessian_block_spectrum_is_ascending_and_counts_its_kernel():
    # an eigenvalue is kernel below 1e-6 of max(max |ev|, 1), of either sign
    for T in (0.7 * TS, TS, 1.4 * TS):
        for ell in (0, 1):
            rep = hessian_block_spectrum(D, T, ell=ell)
            ev = rep.eigenvalues
            assert np.all(np.diff(ev) >= 0.0)
            tol = 1e-6 * max(np.max(np.abs(ev)), 1.0)
            assert rep.kernel_dim == np.sum(np.abs(ev) < tol)
            with pytest.raises(ValueError):
                ev[0] = 0.0


def test_next_eigenvalue_at_bifurcation_is_three_d_minus_two():
    rep = hessian_block_spectrum(D, TS, ell=0)
    nxt = np.sort(np.abs(rep.eigenvalues))[3]
    assert nxt == pytest.approx(3.0 * (D - 2.0), rel=1e-6)


def _dense_trig_basis(T, n_modes, n_grid):
    """Reference basis rows 1/sqrt(T), sqrt(2/T) cos_1..cos_K, sqrt(2/T) sin_1..sin_K."""
    t = np.arange(n_grid) * (T / n_grid)
    phi = np.empty((2 * n_modes + 1, n_grid))
    phi[0] = 1.0 / math.sqrt(T)
    for k in range(1, n_modes + 1):
        ang = 2.0 * math.pi * k / T * t
        phi[k] = math.sqrt(2.0 / T) * np.cos(ang)
        phi[n_modes + k] = math.sqrt(2.0 / T) * np.sin(ang)
    return phi


def _dense_hessian_block(d, T, ell, u, n_modes):
    """Degree-ell block diag(b) - h phi W phi^T (plus the q-norm term at ell = 0)."""
    q = 2.0 * d / (d - 2.0)
    h = T / len(u)
    phi = _dense_trig_basis(T, n_modes, len(u))
    ksq = (2.0 * math.pi * np.arange(1, n_modes + 1) / T) ** 2
    b = np.concatenate(([0.0], ksq, ksq)) + ell * (ell + d - 2.0) + (d - 2.0) ** 2 / 4.0
    lmat = np.diag(b) - (phi * (d * (d + 2.0) / 4.0 * u ** (q - 2.0))[None, :]) @ phi.T * h
    if ell == 0:
        v = phi @ u ** (q - 1.0) * h
        lmat += d / (float(np.sum(u**q)) * h) * np.outer(v, v)
    return lmat


def _odd_profile(T, n_grid):
    # a rolled orbit plus a smooth random term: neither constant nor even,
    # so the cos-sin and constant-row blocks of the Gram matrix are nonzero
    star = _branch_profile(D, T, n_grid=n_grid)
    t = np.arange(n_grid) * (T / n_grid)
    rng = np.random.default_rng(5)
    amp = rng.standard_normal((2, 6)) / (1.0 + np.arange(6.0)) ** 2
    bump = sum(
        amp[0, k] * np.cos(2.0 * math.pi * (k + 1) * t / T)
        + amp[1, k] * np.sin(2.0 * math.pi * (k + 1) * t / T)
        for k in range(6)
    )
    return np.roll(star.samples, 357) * (1.0 + 0.05 * bump)


def test_fft_hill_block_matches_dense_product():
    T, n_modes, n_grid = 1.5 * TS, 128, 4096
    q = 2.0 * D / (D - 2.0)
    h = T / n_grid
    cut = n_modes + 1
    u = _odd_profile(T, n_grid)
    phi = _dense_trig_basis(T, n_modes, n_grid)
    w = D * (D + 2.0) / 4.0 * u ** (q - 2.0)
    dense = (phi * w[None, :]) @ phi.T * h
    (even, odd), coupling = _multiplication_halves(w, n_modes)
    # the halves are the cosine and sine blocks of any weight ...
    for half, ref in ((even, dense[:cut, :cut]), (odd, dense[cut:, cut:])):
        assert np.max(np.abs(half - ref)) <= 1e-13 * np.max(np.abs(dense))
    assert np.max(np.abs(even[0, 1:])) > 1e-3
    # ... and the block between them, which they drop, is order one for this
    # weight and bounded by the coupling
    for part in (dense[1:cut, cut:], dense[0, cut:]):
        assert np.max(np.abs(part)) > 1e-3
    assert np.max(np.abs(dense[:cut, cut:])) <= coupling + 1e-13 * np.max(np.abs(dense))
    # the whole corrected degree-0 block of the even branch against its dense
    # assembly, whose cross block is roundoff
    br = optimizer_branch(D, T, n_grid)
    (even, odd), _ = _assemble_block(br, n_modes, n_grid)
    halves = (even + _q_norm_term(br, n_modes), odd)
    ref = _dense_hessian_block(D, T, 0, br.u, n_modes)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(halves[0] - ref[:cut, :cut])) <= 1e-13 * scale
    assert np.max(np.abs(halves[1] - ref[cut:, cut:])) <= 1e-13 * scale
    assert np.max(np.abs(ref[:cut, cut:])) <= 1e-13 * scale


def test_fft_coordinates_match_dense_projection():
    T, n_modes, n_grid = 1.5 * TS, 128, 4096
    x = _odd_profile(T, n_grid)
    dense = _dense_trig_basis(T, n_modes, n_grid) @ x * (T / n_grid)
    coords = _trig_coords(x, T, n_modes)
    assert np.max(np.abs(coords - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_trig_coords_follow_the_profile_layout():
    # Hill coordinates of a0 + sum a_k cos(2 pi k t/T) + b_k sin(2 pi k t/T)
    # are sqrt(T) [a0, a_k / sqrt(2), b_k / sqrt(2)]: the first K + 1 are the
    # even half and the last K the odd half
    T, n_modes, n_grid = 1.5 * TS, 128, 4096
    rng = np.random.default_rng(3)
    a = rng.standard_normal(n_modes + 1) / (1.0 + np.arange(n_modes + 1.0)) ** 2
    b = rng.standard_normal(n_modes) / (1.0 + np.arange(1, n_modes + 1.0)) ** 2
    t = np.arange(n_grid) * (T / n_grid)
    ang = 2.0 * math.pi / T * np.outer(t, np.arange(1, n_modes + 1))
    x = a[0] + np.cos(ang) @ a[1:] + np.sin(ang) @ b
    scale = np.concatenate(([1.0], np.full(2 * n_modes, math.sqrt(0.5))))
    ref = math.sqrt(T) * np.concatenate((a, b)) * scale
    coords = _trig_coords(x, T, n_modes)
    assert np.max(np.abs(coords - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_rescaled_standard_problem_matches_generalized():
    # ell >= 1: shifting the degree-0 block and rescaling by the diagonal B
    # gives the lowest generalized eigenvalue of (L_ell, B_ell)
    T = 1.5 * TS
    br = optimizer_branch(D, T)
    lbase, bbase = _assemble_block(br, 128, 4096)
    ksq = (2.0 * math.pi * np.arange(1, 129) / T) ** 2
    for ell in range(1, 7):
        # the degree-ell block assembled on its own, by the dense reference
        dense = _dense_hessian_block(D, T, ell, br.u, 128)
        halves = (dense[:129, :129], dense[129:, 129:])
        b = np.concatenate(([0.0], ksq, ksq)) + ell * (ell + D - 2.0) + (D - 2.0) ** 2 / 4.0
        shift = ell * (ell + D - 2.0)
        for lmat, bh, l0, b0 in zip(halves, np.split(b, [129]), lbase, np.split(bbase, [129])):
            ref = eigh(lmat, np.diag(bh), eigvals_only=True, subset_by_index=(0, 0))[0]
            rs = 1.0 / np.sqrt(b0 + shift)
            scaled = rs[:, None] * (l0 + shift * np.eye(len(bh))) * rs[None, :]
            val = eigh(scaled, eigvals_only=True, subset_by_index=(0, 0))[0]
            assert val == pytest.approx(ref, rel=1e-12)


def test_parity_split_spectrum_matches_full_block():
    # the cosine and sine halves together carry the spectrum of the whole
    # block, assembled densely on the full basis
    for frac in (0.7, 1.0, 1.4, 1.8):
        T = frac * TS
        u = optimizer_branch(D, T).u
        for ell in (0, 2):
            ref = np.linalg.eigvalsh(_dense_hessian_block(D, T, ell, u, 128))
            vals = hessian_block_spectrum(D, T, ell=ell).eigenvalues
            assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_parity_split_rejects_a_weight_that_is_not_even():
    T = 1.5 * TS
    br = optimizer_branch(D, T)
    odd = Branch(br.params, br.alpha, _odd_profile(T, 4096), br.up)
    with pytest.raises(ComputationError):
        _assemble_block(odd, 128, 4096)


def _dense_c_T(d, T, n_modes=128, n_grid=4096):
    """c_T from the dense product and one generalized eigh per degree 0..6."""
    q = 2.0 * d / (d - 2.0)
    h = T / n_grid
    br = optimizer_branch(d, T, n_grid)
    u, up = br.u, br.up
    phi = _dense_trig_basis(T, n_modes, n_grid)
    ksq = (2.0 * math.pi * np.arange(1, n_modes + 1) / T) ** 2
    ksq = np.concatenate(([0.0], ksq, ksq))
    gram = (phi * (d * (d + 2.0) / 4.0 * u ** (q - 2.0))[None, :]) @ phi.T * h
    v = phi @ u ** (q - 1.0) * h
    mins = []
    for ell in range(7):
        bmat = np.diag(ksq + ell * (ell + d - 2.0) + (d - 2.0) ** 2 / 4.0)
        lmat = bmat - gram
        if ell == 0:
            lmat = lmat + d / (float(np.sum(u**q)) * h) * np.outer(v, v)
            z = null_space(np.vstack([bmat @ (phi @ u * h), bmat @ (phi @ up * h)]))
            lmat, bmat = z.T @ lmat @ z, z.T @ bmat @ z
        mins.append(eigh(lmat, bmat, eigvals_only=True, subset_by_index=(0, 0))[0])
    return min(mins)


def test_c_T_numeric_matches_dense_generalized_route():
    # the dense product and one generalized eigh per degree, as reference
    T = 1.5 * TS
    assert c_T_numeric(D, T) == pytest.approx(_dense_c_T(D, T), rel=1e-12)


def test_c_T_numeric_at_and_below_bifurcation_runs_no_eigensolve(monkeypatch):
    # the constant branch makes every Hill half diagonal, so c_T is read off
    # the diagonals
    fracs = (0.3, 0.6, 0.95, 1.0)
    cases = [(d, frac * t_star(d)) for d in (3, 4, 5, 6) for frac in fracs]
    dense = [_dense_c_T(d, T) for d, T in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("c_T_numeric called eigh at or below T_*")

    monkeypatch.setattr(cylinder, "eigh", refuse)
    for (d, T), ref in zip(cases, dense):
        val = c_T_numeric(d, T)
        if T == t_star(d):
            # c_T vanishes at T_*
            assert abs(val - c_T_formula(d, T)) <= 1e-15
            assert abs(val - ref) <= 1e-15
        else:
            assert val == pytest.approx(c_T_formula(d, T), rel=1e-12)
            assert val == pytest.approx(ref, rel=1e-12)


def test_degree_lemma_over_all_assembled_degrees():
    # c_T_numeric solves degrees 0 and 1 only; here every degree 0..6 is
    # solved on its parity halves, degree ell as the degree-0 block shifted
    # by ell(ell+d-2)
    for d in (3, 4, 5, 6):
        for frac in (0.6, 1.2, 2.0, 4.0):
            T = frac * t_star(d)
            br = optimizer_branch(d, T)
            base, b0 = _assemble_block(br, 128, 4096)
            mvals = np.sort(
                np.concatenate(
                    [
                        np.linalg.eigvalsh(np.diag(bh) - half)
                        for half, bh in zip(base, np.split(b0, [129]))
                    ]
                )
            )
            assert mvals[0] >= -1e-12 * mvals[-1]
            # degree 0, with its q-norm term, is constrained against u_* (even
            # half) and u_*' (odd half) on the null_space complement
            coords = (_trig_coords(br.u, T, 128)[:129], _trig_coords(br.up, T, 128)[129:])
            mins = []
            for ell in range(7):
                shift = ell * (ell + d - 2.0)
                halves = [half + shift * np.eye(len(half)) for half in base]
                b = b0 + shift
                if ell == 0:
                    halves[0] = halves[0] + _q_norm_term(br, 128)
                    vals = [
                        _null_space_lowest_eigenvalue(half, bh, bh * x)
                        for half, bh, x in zip(halves, np.split(b, [129]), coords)
                    ]
                else:
                    vals = [
                        _lowest_eigenvalues(half, bh)[0]
                        for half, bh in zip(halves, np.split(b, [129]))
                    ]
                mins.append(min(vals))
            assert all(lo <= hi for lo, hi in zip(mins[1:], mins[2:]))
            assert c_T_numeric(d, T) == pytest.approx(min(mins), rel=1e-12)


def _null_space_lowest_eigenvalue(lmat, bdiag, row):
    """Lowest eigenvalue of (L, diag(b)) on the complement of row, from null_space."""
    rs = 1.0 / np.sqrt(bdiag)
    z = null_space((rs * row)[None, :])
    mat = z.T @ (rs[:, None] * lmat * rs[None, :]) @ z
    return eigh(mat, eigvals_only=True, subset_by_index=(0, 0))[0]


def test_second_eigenvalue_matches_null_space_constrained_minimum():
    # u_* and u_*' are the ground states of the even and odd halves, so the
    # minimum constrained against them (with the q-norm term, on the
    # null_space complement) is the unconstrained second eigenvalue;
    # measured: at most 5.1e-14 relative (d = 5, 1.001 T_*, even half)
    for d in (3, 4, 5, 6):
        for frac in (1.001, 1.2, 2.0, 4.0):
            T = frac * t_star(d)
            br = optimizer_branch(d, T)
            (l_even, l_odd), b = _assemble_block(br, 128, 4096)
            b_even, b_odd = np.split(b, [129])
            even_row = (b * _trig_coords(br.u, T, 128))[:129]
            odd_row = (b * _trig_coords(br.up, T, 128))[129:]
            for lmat, q_norm, bh, row in (
                (l_even, _q_norm_term(br, 128), b_even, even_row),
                (l_odd, 0.0, b_odd, odd_row),
            ):
                ref = _null_space_lowest_eigenvalue(lmat + q_norm, bh, row)
                second = _lowest_eigenvalues(lmat, bh, 2)[1]
                assert second == pytest.approx(ref, rel=1e-13)


def test_c_T_numeric_refuses_a_branch_off_the_critical_point(monkeypatch):
    # the guard that licenses reading second eigenvalues: integrated from an
    # amplitude 1e-8 off its root, the branch moves the ground states by 1e-8
    # and more
    d, T = 3, 1.5 * t_star(3)
    br = optimizer_branch(d, T)
    alpha = br.alpha * (1.0 + 1e-8)
    sol = _integrate(d, alpha, 0.5 * T)
    samples = cylinder._mirrored_samples(sol, T / 4096, 4096)
    bad = Branch(br.params, alpha, *samples)
    monkeypatch.setattr(cylinder, "optimizer_branch", lambda *args: bad)
    with pytest.raises(ComputationError, match="ground states"):
        c_T_numeric(d, T)


def test_odd_ground_bound_refuses_a_branch_off_the_critical_point():
    # the bound alone, without the even check: the branch integrated from an
    # amplitude 1e-8 off its root, at the points _GROUND_TOL's comment names
    for d, frac in ((3, 1.5), (5, 1.5), (4, 3.0)):
        T = frac * t_star(d)
        br = optimizer_branch(d, T)
        alpha = br.alpha * (1.0 + 1e-8)
        sol = _integrate(d, alpha, 0.5 * T)
        bad = Branch(br.params, alpha, *cylinder._mirrored_samples(sol, T / 4096, 4096))
        for branch, refused in ((br, False), (bad, True)):
            (l_even, l_odd), b = _assemble_block(branch, 128, 4096)
            even1 = _lowest_eigenvalues(l_even, b[:129], 2)[1]
            x = _trig_coords(branch.up, T, 128)[129:]
            bound = cylinder._odd_ground_bound(l_odd, b[129:], x, even1)
            assert (bound > cylinder._GROUND_TOL) == refused


def test_odd_eigensolve_decides_where_the_bound_is_loose(monkeypatch):
    # where the bound exceeds _GROUND_TOL the odd eigensolve reads the ground
    # state itself, so a branch is accepted exactly where that eigensolve
    # accepts it: u_*' alone modulated by 1 + 1e-3 cos(2 pi t / T) fails the
    # bound but not the operator, which u_* alone builds; at d = 14 and 16,
    # 3 T_*, the true branch's bound is loose. Each takes a third solve and
    # keeps the value of the four solves.
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    d, T = 3, 1.5 * t_star(3)
    br = optimizer_branch(d, T)
    t = np.arange(len(br.u)) * (T / len(br.u))
    off = Branch(br.params, br.alpha, br.u, br.up * (1.0 + 1e-3 * np.cos(2.0 * math.pi * t / T)))
    for d, T, branch in ((d, T, off), (14, 3.0 * t_star(14), None), (16, 3.0 * t_star(16), None)):
        branch = branch or optimizer_branch(d, T)
        (l_even, l_odd), b = _assemble_block(branch, 128, 4096)
        even1 = _lowest_eigenvalues(l_even, b[:129], 2)[1]
        x = _trig_coords(branch.up, T, 128)[129:]
        assert cylinder._odd_ground_bound(l_odd, b[129:], x, even1) > cylinder._GROUND_TOL
        (even1, odd1), (deg1_even, deg1_odd) = _four_solves(d, T)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cylinder, "optimizer_branch", lambda *args: branch)
            patch.setattr(cylinder, "eigh", counted)
            val = c_T_numeric(d, T)
        assert val == min(even1, odd1, deg1_even, deg1_odd)
        assert len(calls) == 3


def test_odd_ground_bound_brackets_the_odd_eigensolve():
    # Temple's bound on the trial u_*' holds the eigensolve's lowest odd
    # eigenvalue, up to the eigensolve's own roundoff (1e-14 here), and the
    # Sturm license it uses (second odd >= second even) holds
    for d, frac in ((3, 1.1), (4, 2.0), (6, 3.0)):
        T = frac * t_star(d)
        br = optimizer_branch(d, T)
        (l_even, l_odd), b = _assemble_block(br, 128, 4096)
        even1 = _lowest_eigenvalues(l_even, b[:129], 2)[1]
        odd0, odd1 = _lowest_eigenvalues(l_odd, b[129:], 2)
        assert odd1 > even1
        x = _trig_coords(br.up, T, 128)[129:]
        assert abs(odd0) <= cylinder._odd_ground_bound(l_odd, b[129:], x, even1) + 1e-14


# d and T / T_* of the Sturm ordering that c_T_numeric's docstring measured
_STURM_DIMS = (3, 4, 5, 6, 8, 10)
_STURM_FRACS = (1.001, 1.02, 1.1, 1.45, 2.0, 3.0, 4.0)


def _four_solves(d, T):
    """((even, odd) second degree-0 eigenvalues, (even, odd) lowest degree-1
    ones): the four solves c_T_numeric made before it dropped the odd ones."""
    br = optimizer_branch(d, T)
    (l_even, l_odd), b = _assemble_block(br, 128, 4096)
    halves = tuple(zip((l_even, l_odd), np.split(b, [129])))
    shift = d - 1.0
    deg0 = tuple(_lowest_eigenvalues(half, bh, 2)[1] for half, bh in halves)
    deg1 = tuple(
        _lowest_eigenvalues(half + shift * np.eye(len(bh)), bh + shift)[0]
        for half, bh in halves
    )
    return deg0, deg1


def test_sturm_ordering_licenses_two_solves(monkeypatch):
    # c_T_numeric drops the odd half's second degree-0 eigenvalue and the odd
    # degree-1 half: by Sturm ordering neither can be the minimum. The odd
    # ground state is checked by its residual, with no eigensolve. The
    # reference is the minimum over all four solves.
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    for d in _STURM_DIMS:
        for frac in _STURM_FRACS:
            T = frac * t_star(d)
            (even1, odd1), (deg1_even, deg1_odd) = _four_solves(d, T)
            assert odd1 - even1 >= 0.1
            assert deg1_odd - deg1_even >= 0.1
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(cylinder, "eigh", counted)
                val = c_T_numeric(d, T)
            assert val == min(even1, odd1, min(deg1_even, deg1_odd))
            assert len(calls) == 2


def test_direct_turning_iterates_on_v_bit_for_bit():
    # the turning point binds V's constants once; every brentq iterate must
    # still be _v's, so the root is the one found on _v
    for d in (3, 4, 5, 6, 8, 10):
        base = u0(d)
        for frac in (0.01, 0.3, 0.9, 0.999999):
            level = cylinder._v(base + frac * (1.0 - base), d)
            ref = cylinder.brentq(
                lambda u: cylinder._v(u, d) - level, 1e-14, base, xtol=1e-15, rtol=8.9e-16
            )
            assert cylinder._direct_turning(d, level, base) == ref


def _numpy_interpolant(steps, seg, t):
    """The DOP853 interpolant of step seg[i] at t[i] as scipy's
    Dop853DenseOutput evaluates it: the reference of _sample and _turning_time."""
    x = (t - steps.t[seg]) / steps.h[seg]
    factors = (x, 1.0 - x)
    coef = steps.coef[:, :, seg]
    y = np.zeros((2, len(seg)))
    for i in range(7):
        y += coef[6 - i]
        y *= factors[i % 2]
    return y + steps.y[:, seg]


def test_sample_keeps_the_numpy_interpolants_bytes():
    for d, frac in ((3, 1.5), (5, 2.0), (4, 3.0)):
        T = frac * t_star(d)
        steps = _integrate(d, inverse_period(d, T), 0.5 * T)
        t = np.arange(2049) * (T / 4096)
        seg = np.clip(np.searchsorted(steps.t, t, side="left") - 1, 0, len(steps.h) - 1)
        assert _sample(steps, t).tobytes() == _numpy_interpolant(steps, seg, t).tobytes()


def test_turning_time_is_the_numpy_interpolants_root():
    tol = 4.0 * np.finfo(float).eps
    for d in (3, 4, 5, 6, 8, 10):
        base = u0(d)
        for frac in (0.01, 0.3, 0.9, 0.999):
            alpha = base + frac * (1.0 - base)
            steps = _integrate(d, alpha, 0.51 * period(d, alpha))
            up = steps.y[1]
            i = int(np.flatnonzero((up[:-1] <= 0.0) & (up[1:] >= 0.0))[0])
            seg = np.array([i])
            ref = scipy.optimize.brentq(
                lambda t: _numpy_interpolant(steps, seg, np.array([t]))[1, 0],
                steps.t[i].item(),
                steps.t[i + 1].item(),
                xtol=tol,
                rtol=tol,
            )
            assert cylinder._turning_time(steps) == ref


def test_diagonal_shift_in_place_keeps_the_bytes_of_adding_a_multiple_of_eye():
    br = optimizer_branch(5, 1.3 * t_star(5))
    halves, _ = _assemble_block(br, 128, 4096)
    halves = (halves[0] + _q_norm_term(br, 128), halves[1])
    for half in halves:
        for shift in (0.0, 4.0, 2.0 * (2 + 5 - 2.0)):
            ref = half + shift * np.eye(len(half))
            got = half.copy()
            cylinder._shift_diagonal(got, shift)
            assert got.tobytes() == ref.tobytes()


def test_assembled_halves_are_diag_b_minus_m_bit_for_bit():
    # the halves are formed in the storage of M; their bits (signed zeros
    # included) must be those of diag(b) - M
    for d, frac in ((3, 0.7), (3, 1.5), (5, 2.0)):
        br = optimizer_branch(d, frac * t_star(d))
        halves, b = _assemble_block(br, 128, 4096)
        weight = d * (d + 2.0) / 4.0 * br.u ** (br.params.q - 2.0)
        ms, _ = _multiplication_halves(weight, 128)
        for half, m, bh in zip(halves, ms, np.split(b, [129])):
            assert half.tobytes() == (np.diag(bh) - m).tobytes()


def test_dop853_tableau_is_scipys():
    # every generated literal equals scipy's array, and the module is what
    # the generator writes today
    from sobolev_lab import _dop853_tableau as tab

    for name in ("A", "B", "C", "E3", "E5", "D", "C_EXTRA", "A_EXTRA"):
        ours = np.array(getattr(tab, name))
        assert ours.shape == getattr(DOP853, name).shape, name
        assert np.array_equal(ours, getattr(DOP853, name)), name
    assert tab.N_STAGES == DOP853.n_stages
    assert tab.ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_dop853_tableau.py"
    spec = importlib.util.spec_from_file_location("gen_dop853_tableau", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.source() == Path(tab.__file__).read_text()


def test_initial_step_is_scipys_constructor_step():
    # an orbit starts at rest, so the float starting step is the h_abs of
    # scipy's DOP853 constructor bit for bit, and so is the first slope
    for d in (3, 4, 5, 6):
        rhs, base = _rhs(d), u0(d)
        for i in range(1, 100):
            alpha = base + (1.0 - base) * i / 100.0
            for t_end in (0.5 * period(d, alpha), 1e-3):
                for rtol, atol in ((1e-12, 1e-14), (1e-13, 1e-15)):
                    ref = DOP853(rhs, 0.0, (alpha, 0.0), t_end, rtol=rtol, atol=atol)
                    f = rhs(0.0, (alpha, 0.0))
                    assert list(f) == ref.f.tolist()
                    step = cylinder._initial_step(rhs, t_end, (alpha, 0.0), f, rtol, atol)
                    assert step == ref.h_abs
                    assert ref.nfev == 2


def _full_period_reference(d, alpha, t):
    """u, u' at times t from one DOP853 run over the whole window, no mirroring."""
    q = 2.0 * d / (d - 2.0)

    def rhs(s, y):
        force = (d - 2.0) ** 2 / 4.0 * y[0] - d * (d - 2.0) / 4.0 * y[0] ** (q - 1.0)
        return (y[1], force)

    sol = solve_ivp(
        rhs, (0.0, t[-1]), (alpha, 0.0), method="DOP853", rtol=1e-12, atol=1e-14,
        dense_output=True,
    )
    return sol.sol(t)


def test_optimizer_branch_is_exactly_even_and_matches_full_period():
    # at 1.5 T_*; on longer periods the full-period run itself drifts off the
    # symmetric orbit (1.7e-10 at d = 4, 2 T_*), which is what mirroring avoids
    n = 4096
    j = np.arange(1, n)
    for d in (3, 4, 5, 6):
        T = 1.5 * t_star(d)
        br = optimizer_branch(d, T, n)
        u, up, t = br.u, br.up, np.arange(n) * (T / n)
        assert np.array_equal(u[j], u[n - j])
        assert np.array_equal(up[j], -up[n - j])
        ref_u, ref_up = _full_period_reference(d, inverse_period(d, T), t)
        assert np.max(np.abs(u - ref_u)) <= 1e-10
        assert np.max(np.abs(up - ref_up)) <= 1e-10


def _scipy_dop853(d, alpha, t_end, **options):
    """The same orbit run through scipy's own DOP853."""
    return solve_ivp(
        _rhs(d), (0.0, t_end), (alpha, 0.0), method="DOP853",
        rtol=1e-12, atol=1e-14, dense_output=True, **options,
    )


def test_float_dop853_takes_scipys_steps():
    # the stages' roundoff moves accepted step sizes (by up to 7.6e-5
    # relative here): the step count, nfev and samples agree, step times
    # need not be bitwise equal
    n = 4096
    for d in (3, 4, 5, 6):
        for frac in (1.2, 1.5, 2.0):
            T = frac * t_star(d)
            alpha = inverse_period(d, T)
            ours, ref = _integrate(d, alpha, 0.5 * T), _scipy_dop853(d, alpha, 0.5 * T)
            assert len(ours.t) == len(ref.t)
            assert ours.nfev == ref.nfev
            t = np.arange(n // 2 + 1) * (T / n)
            assert np.max(np.abs(_sample(ours, t) - ref.sol(t))) <= 1e-12


def test_float_dop853_rejects_steps_as_scipy_does(monkeypatch):
    # too large a first step forces rejected attempts; nfev counts 12 per
    # attempt, 3 per dense output and 1 for the initial slope
    d, T = 4, 1.5 * t_star(4)
    alpha = inverse_period(d, T)
    for first in (1.0, 3.0):
        ref = _scipy_dop853(d, alpha, 0.5 * T, first_step=first)
        # the loop's starting step, forced as scipy's first_step forces it;
        # scipy then skips the starting step's evaluation, which the loop
        # always counts
        monkeypatch.setattr(cylinder, "_initial_step", lambda *args: first)
        ours = _integrate(d, alpha, 0.5 * T)
        steps = len(ref.t) - 1
        rejected = (ref.nfev - 1 - 15 * steps) // 12
        assert rejected > 0
        assert len(ours.t) == len(ref.t)
        assert ours.nfev == ref.nfev + 1


def test_solve_orbit_period_matches_scipy_dop853():
    def turning(t, y, *args):
        return y[1]

    turning.direction = 1.0
    turning.terminal = True
    for d, alpha in ((3, 0.9), (4, 0.95), (5, 0.99), (6, 0.99)):
        ref = _scipy_dop853(d, alpha, 0.51 * period(d, alpha), events=turning)
        tau = 2.0 * float(ref.t_events[0][0])
        assert solve_orbit(d, alpha).period == pytest.approx(tau, rel=1e-12, abs=0.0)


def test_unconverged_root_raises_typed_error(monkeypatch):
    monkeypatch.setattr(_brentq, "_MAXITER", 1)
    with pytest.raises(ComputationError, match="did not converge"):
        inverse_period(D, 1.5 * TS)


def test_c_T_on_long_periods_is_positive_and_falls():
    # the branch grid stays even on long periods, so the parity split holds
    for d in (5, 6):
        vals = [c_T_numeric(d, frac * t_star(d)) for frac in (3.0, 4.0, 5.0)]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]


def test_hill_solves_use_one_lapack(monkeypatch):
    # numpy and scipy each bring an OpenBLAS; alternating between them in the
    # Hill solves makes each wait for the other's threads
    def refuse(*args, **kwargs):
        raise AssertionError("numpy eigensolver called in a Hill solve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert c_T_numeric(D, 1.5 * TS) > 0
    below = c_T_numeric(D, 0.7 * TS)
    assert below == pytest.approx(c_T_formula(D, 0.7 * TS), rel=1e-8)
    assert hessian_block_spectrum(D, 1.4 * TS, ell=0).kernel_dim == 2
    assert quartic_constants(D).gap > 0


def test_translation_zero_mode_pairing():
    assert zero_mode_pairing(optimizer_branch(D, 9.0)) < 1e-8


def test_branch_holds_its_amplitude_and_freezes_its_samples():
    for d in (3, 4):
        ts = t_star(d)
        for T in (0.5 * ts, ts):
            br = optimizer_branch(d, T, 64)
            assert br.alpha == u0(d)
            assert np.array_equal(br.u, np.full(64, u0(d)))
            assert not np.any(br.up)
        br = optimizer_branch(d, 1.5 * ts, 64)
        assert br.alpha == inverse_period(d, 1.5 * ts)
        assert br.u[0] == br.alpha
        for arr in (br.u, br.up):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    # the assembly takes the branch on the grid it is told
    with pytest.raises(PreconditionError):
        _assemble_block(optimizer_branch(D, 1.5 * TS, 2048), 128, 4096)


def test_verify_cylinder_solves_each_branch_once(monkeypatch):
    counts = {"inverse_period": 0, "_integrate": 0}

    def counted(name):
        inner = getattr(cylinder, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(cylinder, name, counted(name))
    assert all(r.passed for r in verify.cylinder_checks())
    assert counts["inverse_period"] == 5
    assert counts["_integrate"] == 5


def test_verify_cylinder_below_bifurcation_runs_every_check():
    # below T_* u_* is constant, so the checks of the orbit branch (its
    # translation mode, c_T above T_* and the l1 factorization) run at
    # 1.3 T_* instead of being dropped or read off the closed form
    results = verify.cylinder_checks(T=0.8 * TS)
    assert len(results) == 13
    assert all(r.passed for r in results)
    assert {"cylinder.translation_zero_mode", "cylinder.l1_factorization"} <= {
        r.name for r in results
    }
    above = next(r for r in results if r.name == "cylinder.ct_positive_above")
    assert above.measured == c_T_numeric(D, 1.3 * TS)


def test_ct_closed_form_below_bifurcation():
    assert c_T_formula(D, 0.5 * TS) == pytest.approx(4.0 / 9.0, rel=1e-14)
    for frac in (0.3, 0.55, 0.8, 0.95):
        T = frac * TS
        assert c_T_numeric(D, T) == pytest.approx(c_T_formula(D, T), rel=1e-8)
        assert c_T(D, T) == pytest.approx(c_T_formula(D, T), rel=1e-12)


def test_ct_vanishes_at_bifurcation_positive_above():
    assert abs(c_T(D, TS)) < 1e-12
    assert c_T(D, 1.5 * TS) == pytest.approx(0.051867986428960844, rel=1e-6)
    assert c_T(D, 3.0 * TS) == pytest.approx(0.0004385836744883228, rel=1e-4)
    assert c_T(D, 3.0 * TS) > 0


def test_quadratic_lower_bound_along_cosine_mode():
    # deficit/delta^2 for u* + eps cos(2 pi t/T) attains the frequency branch
    # of the closed form; c_T (the min over branches) stays a lower bound
    for frac in (0.5, 0.7):
        T = frac * TS
        s_val = sobolev_constant_cylinder(D, T)
        omega2 = (2.0 * math.pi / T) ** 2
        freq_branch = (omega2 - (D - 2.0)) / (omega2 + ((D - 2.0) / 2.0) ** 2)
        m = 1024
        t = np.arange(m) * (T / m)
        star = _branch_profile(D, T, n_grid=m)
        u = star.samples + 1e-4 * np.cos(2.0 * math.pi * t / T)
        prof = profile_from_samples(CylinderParams(D, T), u)
        dfc = energy_profile(prof) - s_val * lq_norm_profile(prof) ** 2
        delta, _, _ = distance_to_branch(prof)
        ratio = dfc / delta**2
        assert ratio == pytest.approx(freq_branch, rel=1e-3)
        assert ratio >= c_T_formula(D, T) - 1e-9


def test_quadratic_lower_bound_random_directions():
    T = 1.5 * TS
    s_val = sobolev_constant_cylinder(D, T)
    bound = c_T(D, T)
    star = _branch_profile(D, T, n_grid=1024)
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = np.zeros(513, dtype=complex)
        spec[:16] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        spec[0] = spec[0].real
        v = np.fft.irfft(spec, 1024)
        v /= np.max(np.abs(v))
        prof = profile_from_samples(CylinderParams(D, T), star.samples + 1e-3 * v)
        dfc = energy_profile(prof) - s_val * lq_norm_profile(prof) ** 2
        delta, _, _ = distance_to_branch(prof)
        assert dfc / delta**2 >= bound - 1e-9


def test_quartic_constants_closed_forms():
    qc = quartic_constants(D)
    assert qc.resolvent_coefficient == pytest.approx(0.5483641720635385, rel=1e-8)
    assert qc.limit_constant == pytest.approx(8.0 / 15.0, rel=1e-12)
    assert qc.gap > 0
    assert qc.c_star == pytest.approx(149.57824239130647, rel=1e-9)
    assert qc.inner_product == pytest.approx(35.61386723602535, rel=1e-9)
    for key in (
        "resolvent_coefficient_numeric",
        "inner_product_numeric",
        "c_star_numeric",
        "kernel_eigenvalues",
    ):
        assert key in qc.diagnostics
    # the parity halves keep the 3-dimensional kernel and the resolvent
    assert len(qc.diagnostics["kernel_eigenvalues"]) == 3
    assert qc.diagnostics["resolvent_coefficient_numeric"] == pytest.approx(
        0.5483641720635385, rel=1e-12
    )


def test_quartic_gap_positive_across_dimensions():
    for d in (4, 5, 6):
        qc = quartic_constants(d)
        assert qc.gap > 0
        q = 2.0 * d / (d - 2.0)
        assert qc.limit_constant == pytest.approx(
            (q + 2.0) * (q - 2.0) / (12.0 * (q - 1.0)), rel=1e-12
        )


def test_quartic_constants_runs_no_eigensolve(monkeypatch):
    # the T_* halves are diagonal, so their spectra are read off the diagonal
    def refuse(*args, **kwargs):
        raise AssertionError("quartic_constants called eigh")

    monkeypatch.setattr(cylinder, "eigh", refuse)
    for d in (3, 4, 5):
        qc = quartic_constants(d)
        assert len(qc.diagnostics["kernel_eigenvalues"]) == 3


def test_quartic_limit_is_gap_times_energy_over_mode_energy_squared():
    # gap E[u_*] / E[r]^2 = (q+2)(q-2)/(12(q-1)): every term is a closed form
    # in d (sigma = T_* |S^(d-1)| and u0 cancel), so quartic_constants does
    # not check it at run time
    for d in range(3, 11):
        qc = quartic_constants(d)
        q = 2.0 * d / (d - 2.0)
        sigma = t_star(d) * sphere_area(d - 1)
        e_u = (d - 2.0) ** 2 / 4.0 * u0(d) ** 2 * sigma
        e_r = sigma * (d - 2.0) * (d + 2.0) / 8.0
        limit = (q + 2.0) * (q - 2.0) / (12.0 * (q - 1.0))
        assert qc.limit_constant == limit
        assert e_u * qc.gap / e_r**2 == pytest.approx(limit, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "frac, solve",
    [(1.0, lambda T: quartic_constants(D)), (0.7, lambda T: c_T_numeric(D, T))],
    ids=["quartic_constants", "c_T_numeric"],
)
def test_quartic_constants_refuses_a_non_constant_branch(monkeypatch, frac, solve):
    # an even but non-constant branch at or below T_* keeps the parity split
    # and fills the off-diagonals, so the diagonal read must refuse it
    n = 4096
    T = frac * TS
    t = np.arange(n) * (T / n)
    bumped = Branch(
        params=CylinderParams(d=D, T=T),
        alpha=u0(D) + 1e-3,
        u=u0(D) + 1e-3 * np.cos(2.0 * math.pi * t / T),
        up=-1e-3 * (2.0 * math.pi / T) * np.sin(2.0 * math.pi * t / T),
    )
    monkeypatch.setattr(cylinder, "optimizer_branch", lambda d, T, n_grid=4096: bumped)
    with pytest.raises(ComputationError, match="not diagonal"):
        solve(T)


def test_degenerate_curve_extrapolates_to_limit():
    dc = degenerate_quotient_curve(D)
    assert dc.extrapolated_limit == pytest.approx(8.0 / 15.0, rel=1e-5)
    assert np.all(np.diff(dc.quotient) > 0)
    assert np.all(np.asarray(dc.quotient) < 8.0 / 15.0)


def test_degenerate_curve_without_resolvent_sees_larger_constant():
    dc = degenerate_quotient_curve(D, with_resolvent=False)
    assert dc.extrapolated_limit == pytest.approx(dc.limit_constant, rel=1e-4)
    assert dc.limit_constant > 8.0 / 15.0


def test_degenerate_curve_refuses_an_eps_whose_deficit_is_roundoff():
    # at eps = 1e-4 the deficit is at most 6.2e-16 of the energy, and the
    # quotient was off by 8% to 420% (d = 3..10); the default grid keeps it
    # above 2.6e-10
    for d in range(3, 11):
        curve = degenerate_quotient_curve(d)
        assert curve.extrapolated_limit == pytest.approx(curve.limit_constant, rel=2e-2)
        with pytest.raises(DegenerateInputError, match="quotient is roundoff"):
            degenerate_quotient_curve(d, eps_grid=(0.01, 1e-4))


def _resolvent_shifted_by(monkeypatch, mode):
    """quartic_constants with ``mode`` (samples on the T_* grid) added to s."""
    qc = quartic_constants(D)
    prof = qc.resolvent_profile
    t = np.arange(cylinder.DEFAULT_N_GRID) * (prof.params.T / cylinder.DEFAULT_N_GRID)
    shift = 1e-3 * mode(2.0 * math.pi * t / prof.params.T)
    bent = profile_from_samples(prof.params, prof.samples + shift)
    monkeypatch.setattr(
        cylinder, "quartic_constants", lambda d: dataclasses.replace(qc, resolvent_profile=bent)
    )


@pytest.mark.parametrize(
    "mode, match",
    [
        (np.ones_like, "zero mean"),
        (np.cos, "energy-orthogonal to the mode"),
        (np.sin, "energy-orthogonal to the translation mode"),
    ],
    ids=["mean", "mode", "translation"],
)
def test_degenerate_curve_refuses_a_resolvent_off_its_constraints(monkeypatch, mode, match):
    _resolvent_shifted_by(monkeypatch, mode)
    with pytest.raises(PreconditionError, match=match):
        degenerate_quotient_curve(D)


def _bend(monkeypatch, name, select, edit):
    """cylinder.<name>, with ``edit`` applied to a copy of its value on the calls ``select`` picks."""
    inner = getattr(cylinder, name)

    def bent(*args):
        out = inner(*args)
        if select(*args):
            out = copy.deepcopy(out)
            edit(out)
        return out

    monkeypatch.setattr(cylinder, name, bent)


# inside quartic_constants _trig_coords sees the quartic source, which varies
# along the grid, and the branch power u^(q-1), which is constant at T_*
def _is_source(x, T, n_modes):
    return np.ptp(x) > 0.0


def _scale_cos2(coords):
    coords[2] *= 1.0 + 1e-3


def test_quartic_constants_refuses_a_stray_resolvent_mode(monkeypatch):
    def add_cos3(coords):
        coords[3] += 1e-3 * coords[2]

    _bend(monkeypatch, "_trig_coords", _is_source, add_cos3)
    with pytest.raises(InconsistencyError, match="pure second-harmonic"):
        quartic_constants(D)


def test_quartic_constants_refuses_a_resolvent_coefficient_off_its_closed_form(monkeypatch):
    _bend(monkeypatch, "_trig_coords", _is_source, _scale_cos2)
    with pytest.raises(InconsistencyError, match="resolvent coefficient"):
        quartic_constants(D)


def test_quartic_constants_refuses_an_inner_product_off_its_closed_form(monkeypatch):
    # source and eigenvalue scaled alike keep the resolvent, not <f, s>
    _bend(monkeypatch, "_trig_coords", _is_source, _scale_cos2)
    _bend(monkeypatch, "_diagonals", lambda halves: True, lambda diags: _scale_cos2(diags[0]))
    with pytest.raises(InconsistencyError, match="resolvent inner product"):
        quartic_constants(D)


def test_quartic_constants_refuses_a_quartic_coefficient_off_its_closed_form(monkeypatch):
    # only the moments of r^2 read np.mean inside quartic_constants
    class BentMean:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def mean(x):
            return np.mean(x) * (1.0 + 1e-3)

    monkeypatch.setattr(cylinder, "np", BentMean())
    with pytest.raises(InconsistencyError, match="quartic coefficient"):
        quartic_constants(D)


def test_split_stability_slopes():
    for family, slope in (("pi", 4.0), ("pi_perp", 2.0)):
        rep = split_stability_check(D, family=family)
        assert rep.slope_lhs == pytest.approx(slope, abs=0.1)
        assert rep.signs[0.1] is True
        assert rep.signs[0.5] is True
        assert rep.signs[1.0] is False


def test_distance_to_branch_below_bifurcation_projects_onto_constants():
    T = 0.6 * TS
    m = 512
    t = np.arange(m) * (T / m)
    # at amplitude 1e-9, delta^2 = E[u] - cross^2/E[1] cancels to 0
    for amp in (0.02, 1e-9):
        samples = 0.83 + amp * np.cos(2.0 * math.pi * t / T)
        prof = profile_from_samples(CylinderParams(D, T), samples)
        delta, c, shift = distance_to_branch(prof)
        assert shift == 0.0
        assert c == pytest.approx(0.83, rel=1e-10)
        const = profile_from_samples(CylinderParams(D, T), np.full(m, c))
        diff = profile_from_samples(CylinderParams(D, T), samples - c)
        assert delta**2 == pytest.approx(energy_profile(diff), rel=1e-10, abs=0.0)
        # the remainder is E_T-orthogonal to the constant, by polarization:
        # E[c + v] = E[c] + 2 B(c, v) + E[v]
        cross = energy_profile(prof) - energy_profile(const) - energy_profile(diff)
        assert 0.5 * cross == pytest.approx(0.0, abs=1e-10)


def test_distance_to_branch_recovers_orbit_multiple():
    T = 1.5 * TS
    star = _branch_profile(D, T, n_grid=2048)
    m = star.samples.size
    # the trigonometric interpolant of the branch, delayed by 2.17
    omega = 2.0 * math.pi / T * np.arange(m // 2 + 1)
    moved = np.fft.irfft(np.fft.rfft(star.samples) * np.exp(-2.17j * omega), m)
    prof = profile_from_samples(CylinderParams(D, T), 1.05 * moved)
    delta, c, shift = distance_to_branch(prof)
    assert delta <= 1e-6
    assert c == pytest.approx(1.05, rel=1e-7)
    assert shift == pytest.approx(2.17, abs=1e-6)


def test_distance_to_branch_vanishes_on_the_branch():
    T = 1.5 * TS
    star = _branch_profile(D, T)
    delta, c, shift = distance_to_branch(star)
    assert delta <= 1e-8
    assert c == pytest.approx(1.0, rel=1e-9)
