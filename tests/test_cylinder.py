"""Cylinder bifurcation: orbits, branches, Hill spectra, degenerate stability.

Closed-form anchors (frozen from 40-digit evaluations):
    u0(3) = (1/3)^{1/4},  T_*(d) = 2 pi / sqrt(d-2),  V''(u0) = d - 2,
    constant branch S(T) = ((d-2)^2/4) (T |S^{d-1}|)^{1-2/q},
    c_T = (min{(2pi/T)^2, d-1} - (d-2)) / (min{(2pi/T)^2, d-1} + ((d-2)/2)^2),
    resolvent coefficient (d-2)/48 (q-1)(q-2)/u0,
    curve limit (q+2)(q-2)/(12(q-1)).
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, null_space

from sobolev_lab.cylinder import (
    _assemble_block,
    _branch_grid,
    _lowest_eigenvalue,
    _multiplication_block,
    _parity_halves,
    _trig_coords,
    CylinderParams,
    c_T,
    c_T_formula,
    c_T_numeric,
    cosh_trial_bound,
    degenerate_quotient_curve,
    distance_to_branch,
    energy_bilinear_profile,
    energy_drift,
    energy_profile,
    hessian_block_spectrum,
    inverse_period,
    l1_factorization_residual,
    lq_norm_profile,
    minimize_quotient,
    ode_residual,
    orbit_branch_value,
    orbit_integrals,
    period,
    potential,
    profile_from_fourier,
    profile_from_samples,
    profile_norm2_grid,
    profile_norm2_parseval,
    quartic_constants,
    quotient_profile,
    sobolev_constant_cylinder,
    solve_orbit,
    split_stability_check,
    synthesize_profile,
    t_star,
    u0,
    u_min_turning,
    ustar_profile,
    zero_mode_pairing,
)
from sobolev_lab.errors import ComputationError, DomainError
from sobolev_lab.specialfn import sphere_area
from sobolev_lab.zonal import SphereParams, sharp_constant

D = 3
TS = t_star(D)


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


def test_orbit_ode_and_first_integral():
    orb = solve_orbit(D, 0.9)
    assert orb.u[0] == pytest.approx(0.9, abs=1e-13)
    assert abs(orb.up[0]) < 1e-12
    h = 0.5 * orb.up**2 + potential(orb.u, D)
    assert np.max(np.abs(h - orb.energy_constant)) < 1e-9
    assert energy_drift(D, 0.9) < 1e-8


def test_orbit_euler_lagrange_normalization():
    for alpha in (0.85, 0.95):
        ints = orbit_integrals(D, alpha)
        assert ints["i_energy"] / ints["i_q"] == pytest.approx(
            D * (D - 2.0) / 4.0, rel=1e-9
        )


def test_l1_factorization_of_translation_mode():
    # v = e^{sigma t}(u' + sigma beta u) solves the ell = 1 Hill equation
    orb = solve_orbit(D, 0.92)
    assert l1_factorization_residual(orb) < 1e-12


def test_domain_errors_on_bad_amplitudes():
    with pytest.raises(DomainError):
        period(D, u0(D) * 0.9)
    with pytest.raises(DomainError):
        period(D, 1.0)
    with pytest.raises(DomainError):
        inverse_period(D, TS * 0.99)


def test_profile_norms_two_routes():
    # trig coefficients [a0, a1..aK, b1..bK] vs uniform-grid samples
    params = CylinderParams(D, 9.0)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(17) / (1.0 + np.arange(17.0))
    prof = profile_from_fourier(params, coeffs)
    assert profile_norm2_parseval(prof) == pytest.approx(
        profile_norm2_grid(prof), rel=1e-11
    )


def test_profile_constructors_leave_the_callers_array_writable():
    params = CylinderParams(D, 9.0)
    samples = np.ones(64)
    prof = profile_from_samples(params, samples)
    samples[0] = 2.0
    assert prof.samples[0] == 1.0
    coeffs = np.zeros(5)
    prof = profile_from_fourier(params, coeffs, n_grid=16)
    coeffs[0] = 1.0
    assert prof.fourier[0] == 0.0


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
    # the plain profile norms omit the cross-section area; the q-norm keeps it
    assert profile_norm2_grid(prof) ** 2 == pytest.approx(
        T * (c**2 + a**2 / 2.0), rel=1e-12
    )
    # mpmath, 40 dps: int_0^T (c + a cos)^6 dt = 45.1190617470703125
    assert lq_norm_profile(prof) ** 6.0 == pytest.approx(
        area * 45.1190617470703125, rel=1e-11
    )


def test_energy_bilinear_profile_polarization():
    params = CylinderParams(D, 9.0)
    m = 512
    t = np.arange(m) * (9.0 / m)
    p1 = profile_from_samples(params, 1.0 + 0.2 * np.cos(2 * math.pi * t / 9.0))
    p2 = profile_from_samples(params, 0.5 * np.sin(4 * math.pi * t / 9.0))
    both = profile_from_samples(params, p1.samples + p2.samples)
    lhs = energy_profile(both)
    rhs = energy_profile(p1) + 2.0 * energy_bilinear_profile(p1, p2) + energy_profile(p2)
    assert lhs == pytest.approx(rhs, rel=1e-11)


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
    star = ustar_profile(D, T)
    assert np.allclose(star.samples, u0(D), atol=1e-14)


def test_branch_continuity_and_orbit_branch():
    above = sobolev_constant_cylinder(D, TS * (1.0 + 1e-8))
    at = sobolev_constant_cylinder(D, TS)
    assert above == pytest.approx(at, rel=1e-6)
    T = 1.5 * TS
    star = ustar_profile(D, T)
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
    assert sobolev_constant_cylinder(
        D, 1.5 * TS, cross_validate=True
    ) == pytest.approx(5.308835907872, rel=1e-9)


def test_descent_matches_branch_value():
    T = 2.5 * TS
    val, prof = minimize_quotient(D, T)
    assert val == pytest.approx(sobolev_constant_cylinder(D, T), rel=1e-6)
    assert quotient_profile(prof) == pytest.approx(val, rel=1e-9)


def test_k_fold_branches_are_dominated():
    T = 2.6 * TS
    k1 = orbit_branch_value(D, T, k=1)
    k2 = orbit_branch_value(D, T, k=2)
    assert k2 > k1
    with pytest.raises(DomainError):
        orbit_branch_value(D, 1.5 * TS, k=2)


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


def test_next_eigenvalue_at_bifurcation_is_three_d_minus_two():
    rep = hessian_block_spectrum(D, TS, ell=0)
    nxt = np.sort(np.abs(rep.eigenvalues))[3]
    assert nxt == pytest.approx(3.0 * (D - 2.0), rel=1e-6)


def _dense_trig_basis(T, n_modes, n_grid):
    """Reference basis rows 1/sqrt(T), sqrt(2/T) cos_k, sqrt(2/T) sin_k on the grid."""
    t = np.arange(n_grid) * (T / n_grid)
    phi = np.empty((2 * n_modes + 1, n_grid))
    phi[0] = 1.0 / math.sqrt(T)
    for k in range(1, n_modes + 1):
        ang = 2.0 * math.pi * k / T * t
        phi[2 * k - 1] = math.sqrt(2.0 / T) * np.cos(ang)
        phi[2 * k] = math.sqrt(2.0 / T) * np.sin(ang)
    return phi


def _odd_profile(T, n_grid):
    # a rolled orbit plus a smooth random term: neither constant nor even,
    # so the cos-sin and constant-row blocks of the Gram matrix are nonzero
    star = ustar_profile(D, T, n_grid=n_grid)
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
    u = _odd_profile(T, n_grid)
    phi = _dense_trig_basis(T, n_modes, n_grid)
    w = D * (D + 2.0) / 4.0 * u ** (q - 2.0)
    dense = (phi * w[None, :]) @ phi.T * h
    block = _multiplication_block(w, n_modes)
    assert np.max(np.abs(block - dense)) <= 1e-13 * np.max(np.abs(dense))
    for part in (block[1::2, 2::2], block[0, 1::2], block[0, 2::2]):
        assert np.max(np.abs(part)) > 1e-3
    # the whole corrected degree-0 block against its dense assembly
    v = phi @ u ** (q - 1.0) * h
    lmat, b = _assemble_block(D, T, 0, n_modes, n_grid, corrected=True, ustar=u)
    ref = np.diag(b) - dense + D / (float(np.sum(u**q)) * h) * np.outer(v, v)
    assert np.max(np.abs(lmat - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fft_coordinates_match_dense_projection():
    T, n_modes, n_grid = 1.5 * TS, 128, 4096
    x = _odd_profile(T, n_grid)
    dense = _dense_trig_basis(T, n_modes, n_grid) @ x * (T / n_grid)
    coords = _trig_coords(x, T, n_modes)
    assert np.max(np.abs(coords - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_rescaled_standard_problem_matches_generalized():
    # ell >= 1: shifting the degree-0 block and rescaling by the diagonal B
    # gives the lowest generalized eigenvalue of (L_ell, B_ell)
    T = 1.5 * TS
    lbase, bbase = _assemble_block(D, T, 0, 128, 4096, corrected=False)
    for ell in range(1, 7):
        lmat, b = _assemble_block(D, T, ell, 128, 4096, corrected=False)
        ref = eigh(lmat, np.diag(b), eigvals_only=True, subset_by_index=(0, 0))[0]
        shift = ell * (ell + D - 2.0)
        rs = 1.0 / np.sqrt(bbase + shift)
        scaled = rs[:, None] * (lbase + shift * np.eye(len(b))) * rs[None, :]
        val = eigh(scaled, eigvals_only=True, subset_by_index=(0, 0))[0]
        assert val == pytest.approx(ref, rel=1e-12)


def test_parity_split_spectrum_matches_full_block():
    # the cosine and sine halves together carry the whole block spectrum
    for frac in (0.7, 1.0, 1.4, 1.8):
        T = frac * TS
        for ell in (0, 2):
            lmat, _ = _assemble_block(D, T, ell, 128, 4096, corrected=ell == 0)
            ref = np.linalg.eigvalsh(lmat)
            vals = hessian_block_spectrum(D, T, ell=ell).eigenvalues
            assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_parity_split_rejects_a_weight_that_is_not_even():
    T = 1.5 * TS
    u = _odd_profile(T, 4096)
    lmat, _ = _assemble_block(D, T, 0, 128, 4096, corrected=False, ustar=u)
    with pytest.raises(ComputationError):
        _parity_halves(lmat)


def test_c_T_numeric_matches_dense_generalized_route():
    # the dense product and one generalized eigh per degree, as reference
    T, n_modes, n_grid = 1.5 * TS, 128, 4096
    q = 2.0 * D / (D - 2.0)
    h = T / n_grid
    u, up, _ = _branch_grid(D, T, n_grid)
    phi = _dense_trig_basis(T, n_modes, n_grid)
    k = np.repeat(np.arange(1, n_modes + 1), 2)
    ksq = np.concatenate(([0.0], (2.0 * math.pi * k / T) ** 2))
    gram = (phi * (D * (D + 2.0) / 4.0 * u ** (q - 2.0))[None, :]) @ phi.T * h
    v = phi @ u ** (q - 1.0) * h
    mins = []
    for ell in range(7):
        bmat = np.diag(ksq + ell * (ell + D - 2.0) + (D - 2.0) ** 2 / 4.0)
        lmat = bmat - gram
        if ell == 0:
            lmat = lmat + D / (float(np.sum(u**q)) * h) * np.outer(v, v)
            z = null_space(np.vstack([bmat @ (phi @ u * h), bmat @ (phi @ up * h)]))
            lmat, bmat = z.T @ lmat @ z, z.T @ bmat @ z
        mins.append(eigh(lmat, bmat, eigvals_only=True, subset_by_index=(0, 0))[0])
    assert c_T_numeric(D, T) == pytest.approx(min(mins), rel=1e-12)


def test_degree_lemma_over_all_assembled_degrees():
    # c_T_numeric solves degrees 0 and 1 only; here every degree 0..6 is
    # assembled on its own and solved on its parity halves
    for d in (3, 4, 5, 6):
        for frac in (0.6, 1.2, 2.0, 4.0):
            T = frac * t_star(d)
            u, up, _ = _branch_grid(d, T, 4096)
            lmat, b = _assemble_block(d, T, 0, 128, 4096, corrected=False, ustar=u)
            mvals = np.linalg.eigvalsh(np.diag(b) - lmat)
            assert mvals[0] >= -1e-12 * mvals[-1]
            mins = []
            for ell in range(7):
                lmat, b = _assemble_block(d, T, ell, 128, 4096, corrected=ell == 0, ustar=u)
                vals = []
                # degree 0 is constrained against u_* (even half) and u_*' (odd half)
                for (idx, half), x in zip(_parity_halves(lmat), (u, up)):
                    row = (b * _trig_coords(x, T, 128))[idx] if ell == 0 else None
                    vals.append(_lowest_eigenvalue(half, b[idx], row))
                mins.append(min(vals))
            assert all(lo <= hi for lo, hi in zip(mins[1:], mins[2:]))
            assert c_T_numeric(d, T) == pytest.approx(min(mins), rel=1e-12)


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


def test_branch_grid_is_exactly_even_and_matches_full_period():
    # at 1.5 T_*; on longer periods the full-period run itself drifts off the
    # symmetric orbit (1.7e-10 at d = 4, 2 T_*), which is what mirroring avoids
    n = 4096
    j = np.arange(1, n)
    for d in (3, 4, 5, 6):
        T = 1.5 * t_star(d)
        u, up, t = _branch_grid(d, T, n)
        assert np.array_equal(u[j], u[n - j])
        assert np.array_equal(up[j], -up[n - j])
        ref_u, ref_up = _full_period_reference(d, inverse_period(d, T), t)
        assert np.max(np.abs(u - ref_u)) <= 1e-10
        assert np.max(np.abs(up - ref_up)) <= 1e-10


def test_solve_orbit_is_exactly_even_and_matches_full_period():
    for d, alpha in ((3, 0.9), (5, 0.99)):
        orb = solve_orbit(d, alpha)
        assert np.array_equal(orb.u, orb.u[::-1])
        assert np.array_equal(orb.up, -orb.up[::-1])
        ref_u, ref_up = _full_period_reference(d, alpha, orb.t)
        assert np.max(np.abs(orb.u - ref_u)) <= 1e-10
        assert np.max(np.abs(orb.up - ref_up)) <= 1e-10


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
    assert zero_mode_pairing(D, 9.0) < 1e-8


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
        star = ustar_profile(D, T, n_grid=m)
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
    star = ustar_profile(D, T, n_grid=1024)
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
        "limit_identity",
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


def test_degenerate_curve_extrapolates_to_limit():
    dc = degenerate_quotient_curve(D)
    assert dc.extrapolated_limit == pytest.approx(8.0 / 15.0, rel=1e-5)
    assert np.all(np.diff(dc.quotient) > 0)
    assert np.all(np.asarray(dc.quotient) < 8.0 / 15.0)


def test_degenerate_curve_without_resolvent_sees_larger_constant():
    dc = degenerate_quotient_curve(D, with_resolvent=False)
    assert dc.extrapolated_limit == pytest.approx(dc.limit_constant, rel=1e-4)
    assert dc.limit_constant > 8.0 / 15.0


def test_split_stability_slopes():
    for family, slope in (("pi", 4.0), ("pi_perp", 2.0)):
        rep = split_stability_check(D, family=family, eps_grid=(0.02, 0.01, 0.005))
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
        assert energy_bilinear_profile(const, diff) == pytest.approx(0.0, abs=1e-10)


def test_distance_to_branch_recovers_orbit_multiple():
    T = 1.5 * TS
    star = ustar_profile(D, T, n_grid=2048)
    m = star.samples.size
    t = np.arange(m) * (T / m)
    moved = synthesize_profile(star, (t - 2.17) % T)
    prof = profile_from_samples(CylinderParams(D, T), 1.05 * moved)
    delta, c, shift = distance_to_branch(prof)
    assert delta <= 1e-6
    assert c == pytest.approx(1.05, rel=1e-7)
    assert shift == pytest.approx(2.17, abs=1e-6)


def test_distance_to_branch_vanishes_on_the_branch():
    T = 1.5 * TS
    star = ustar_profile(D, T)
    delta, c, shift = distance_to_branch(star)
    assert delta <= 1e-8
    assert c == pytest.approx(1.0, rel=1e-9)
