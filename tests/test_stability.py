"""Deficit, manifold distance, and the local stability constant."""

import numpy as np
import pytest

from sobolev_lab.conformal import pullback_zonal, q_zeta
from sobolev_lab.errors import DegenerateInputError, DomainError
from sobolev_lab.specialfn import sphere_area
from sobolev_lab.stability import (
    _SEED_ZETAS,
    _extrapolate,
    be_quotient,
    deficit,
    distance,
    quotient_curve,
    upper_bound_constant,
    zeta_moment_integral,
)
from sobolev_lab.zonal import (
    SphereParams,
    analyze,
    energy,
    from_coeffs,
    sharp_constant,
)


def _pure_degree(params, ell, bandlimit=64, order=256, amp=1.0):
    c = np.zeros(bandlimit + 1)
    c[ell] = amp
    return from_coeffs(c, params, order=order)


def test_deficit_zero_on_optimizers_positive_off():
    p = SphereParams(3, 1.0)
    opt = q_zeta(np.array([0.1, 0.0, -0.2, 0.25]), p)
    assert abs(deficit(opt)) <= 1e-6 * energy(opt)

    rng = np.random.default_rng(0)
    c = rng.standard_normal(17) / (1.0 + np.arange(17)) ** 2
    c[0] += 8.0
    bumpy = from_coeffs(np.concatenate([c, np.zeros(48)]), p)
    assert deficit(bumpy) > 0.0


def test_distance_lemma_quadratic_scaling():
    # U = 1 + eps R, R orthogonal to the kernel: delta^2 = eps^2 E[R]
    p = SphereParams(3, 1.0)
    r = _pure_degree(p, 2)
    e_r = energy(r)
    for eps in (0.02, 0.01):
        pert = analyze(1.0 + eps * r.samples, p, bandlimit=64)
        res = distance(pert)
        assert res.delta**2 == pytest.approx(eps**2 * e_r, rel=1e-8)


def test_distance_recovers_bubble_parameters():
    p = SphereParams(3, 1.0)
    zeta = np.array([0.3, 0.0, 0.0, 0.2])
    fn = q_zeta(zeta, p)
    scaled = analyze(2.5 * fn.samples, p, bandlimit=64)
    res = distance(scaled)
    assert res.tau <= 1e-6
    assert res.c_star == pytest.approx(2.5, rel=1e-6)
    # the bubble sits on its own axis: a = |zeta|, rho = 0
    assert np.allclose(res.zeta_star, (np.linalg.norm(zeta), 0.0), atol=1e-6)


def test_distance_result_fields_consistent():
    p = SphereParams(3, 1.0)
    r = _pure_degree(p, 3)
    pert = analyze(1.0 + 0.05 * r.samples, p, bandlimit=64)
    res = distance(pert)
    assert res.delta >= 0.0
    assert res.tau == pytest.approx(
        res.delta / np.sqrt(energy(pert) - res.delta**2), rel=1e-12
    )
    # one convergence flag per start: the axis start, then each seed
    assert len(res.diagnostics["converged"]) == 1 + len(_SEED_ZETAS)
    # c_star is the moment G of the winning start over |S^d|, and the winner
    # is the candidate (G^2, a, rho, G) with the largest G^2
    g = max(res.diagnostics["candidates"], key=lambda c: c[0])[3]
    assert res.c_star * sphere_area(3) == pytest.approx(g, rel=1e-12)


def test_zeta_moment_matches_axis_route():
    # at rho = 0 the two-dimensional quadrature collapses onto the axis
    p = SphereParams(3, 1.0)
    fn = _pure_degree(p, 2, amp=0.7)
    shifted = analyze(1.0 + fn.samples, p, bandlimit=64)
    g2d = zeta_moment_integral(shifted, 0.35, 0.0)
    bubble = q_zeta(np.array([0.0, 0.0, 0.0, 0.35]), p)
    from sobolev_lab.specialfn import gauss_rule

    rule = gauss_rule(256, 0.5)
    direct = sphere_area(2) * float(
        np.sum(
            rule.weights
            * bubble.samples ** (p.q - 1.0)
            * shifted.samples
        )
    )
    assert g2d == pytest.approx(direct, rel=1e-10)


def test_be_quotient_rejects_manifold_points():
    p = SphereParams(3, 1.0)
    opt = q_zeta(np.array([0.0, 0.0, 0.0, 0.15]), p)
    with pytest.raises(DegenerateInputError):
        be_quotient(opt)


def test_upper_bound_constant_fractions():
    assert upper_bound_constant(3, 1.0) == pytest.approx(4.0 / 7.0, rel=1e-15)
    assert upper_bound_constant(4, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert upper_bound_constant(5, 2.0) == pytest.approx(8.0 / 11.0, rel=1e-15)
    assert upper_bound_constant(3, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_quotient_curve_degree2_hits_upper_bound():
    p = SphereParams(3, 1.0)
    curve = quotient_curve(_pure_degree(p, 2))
    assert curve.extrapolated_limit == pytest.approx(4.0 / 7.0, rel=1e-5)
    assert tuple(curve.eps) == (0.02, 0.01, 0.005)
    # quotients increase toward the limit from below for this family
    assert np.all(np.diff(curve.quotient) > 0)
    assert np.all(np.asarray(curve.quotient) < curve.extrapolated_limit)
    assert curve.error_estimate < 1e-4


def test_quotient_curve_degree3_sits_strictly_higher():
    p = SphereParams(3, 1.0)
    c3 = quotient_curve(_pure_degree(p, 3))
    # degree-3 limit is (m(3) - m(1))/m(3) = 16/21
    assert c3.extrapolated_limit == pytest.approx(16.0 / 21.0, rel=1e-5)
    assert c3.extrapolated_limit > 4.0 / 7.0 + 0.05


def test_quotient_conformal_invariance():
    p = SphereParams(3, 1.0)
    c = np.zeros(65)
    c[2] = 1.0
    c[5] = 0.4
    fn = from_coeffs(c, p)
    pert = analyze(1.0 + 0.03 * fn.samples, p, bandlimit=64)
    base = be_quotient(pert)
    moved = pullback_zonal(pert, 1.6)
    assert be_quotient(moved) == pytest.approx(base, rel=1e-5)


def test_distance_rejects_zero_input():
    p = SphereParams(3, 1.0)
    zero = from_coeffs(np.zeros(9), p)
    with pytest.raises(DomainError):
        distance(zero)


def test_distance_drops_starts_that_leave_the_ball():
    # on this ray one L-BFGS-B start drives z unbounded until |zeta| rounds
    # to 1; that start is dropped and the curve still reaches 4s/(d+2s+2)
    p = SphereParams(3, 0.5)
    curve = quotient_curve(_pure_degree(p, 2, amp=1.487792838297688))
    assert curve.extrapolated_limit == pytest.approx(1.0 / 3.0, rel=1e-5)


def test_extrapolate_fits_a_quadratic_off_a_halving_grid():
    # a grid that does not halve takes the polynomial fit: exact on a
    # quadratic, with the gap to the linear fit's intercept as its error
    eps = np.array([0.03, 0.02, 0.01])
    limit, err = _extrapolate(eps, 0.5 + 2.0 * eps - 7.0 * eps**2)
    assert limit == pytest.approx(0.5, abs=1e-13)
    # the least-squares line through eps^2 at 0.01, 0.02, 0.03 meets eps = 0
    # at -1/3000, so the linear fit's limit is 0.5 + 7/3000
    assert err == pytest.approx(7.0 / 3000.0, rel=1e-9)
