"""Spectral layer on the sphere: transforms, energies, multipliers.

The sharp constants were frozen from a 40-digit evaluation of the closed
form; every energy-type quantity is cross-checked against a second,
independently coded route (gradient quadrature, Gauss-Jacobi kernel
quadrature, three-term recursions).
"""

import math

import numpy as np
import pytest
from scipy.special import eval_gegenbauer, eval_legendre, roots_jacobi

from sobolev_lab import conformal, duality
from sobolev_lab.errors import DomainError, PreconditionError
from sobolev_lab.specialfn import sphere_area
from sobolev_lab.zonal import (
    DEFAULT_ORDER,
    SphereParams,
    ZonalBasis,
    analyze,
    energy,
    energy_via_gradient,
    eval_zonal,
    from_coeffs,
    funk_hecke_eigenvalue,
    gamma_multiplier,
    lq_norm,
    norm2,
    projection_kernel,
    sharp_constant,
    sobolev_quotient,
    subcritical_check,
    w_weight,
    w_weight_threeterm,
)

# mpmath, 40 dps: Gamma(d/2+s)/Gamma(d/2-s) |S^d|^{2s/d}
SHARP_TABLE = {
    (3, 1.0): 5.4779040895313318736,
    (4, 1.0): 10.260398641294912764,
    (5, 2.0): 102.38327344058293488,
    (3, 0.5): 2.7025676900634901886,
}


def _random_fn(params, bandlimit=32, order=128, seed=0, decay=2.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(bandlimit + 1) / (1.0 + np.arange(bandlimit + 1)) ** decay
    return from_coeffs(c, params, order=order)


def test_sharp_constant_frozen_values():
    for (d, s), ref in SHARP_TABLE.items():
        assert sharp_constant(SphereParams(d, s)) == pytest.approx(ref, rel=1e-13)


def test_sharp_constant_closed_form_aliases():
    assert sharp_constant(SphereParams(3, 1.0)) == pytest.approx(
        3.0 * (math.pi / 2.0) ** (4.0 / 3.0), rel=1e-14
    )
    assert sharp_constant(SphereParams(3, 0.5)) == pytest.approx(
        (2.0 * math.pi**2) ** (1.0 / 3.0), rel=1e-14
    )


def test_sphere_params_validation():
    with pytest.raises(DomainError):
        SphereParams(3, 1.5)  # needs d > 2s
    with pytest.raises(DomainError):
        SphereParams(3, 0.0)
    assert SphereParams(5, 2.0).q == pytest.approx(10.0)


def test_gamma_multiplier_base_and_monotone():
    p = SphereParams(3, 1.0)
    # Gamma(d/2+s)/Gamma(d/2-s) at ell = 0
    assert gamma_multiplier(p, 0) == pytest.approx(
        math.gamma(2.5) / math.gamma(0.5), rel=1e-14
    )
    ells = np.arange(0, 200)
    m = gamma_multiplier(p, ells)
    assert np.all(np.diff(m) > 0.0)


def test_gamma_multiplier_s1_polynomial():
    # s = 1 multiplier is (ell + d/2)(ell + d/2 - 1)
    p = SphereParams(4, 1.0)
    for ell in range(8):
        assert gamma_multiplier(p, ell) == pytest.approx(
            (ell + 2.0) * (ell + 1.0), rel=1e-13
        )


def test_funk_hecke_frozen_value():
    # d=2, alpha=1/2, ell=0 -> 4 sqrt(2) pi
    assert funk_hecke_eigenvalue(2, 0.5, 0) == pytest.approx(
        4.0 * math.sqrt(2.0) * math.pi, rel=1e-13
    )


def _funk_hecke_quadrature(d, alpha, ell, n=200):
    """Independent oracle: Gauss-Jacobi quadrature of the kernel column.

    |S^{d-1}| int (1-t)^{-alpha} C_ell(t)/C_ell(1) (1-t^2)^{(d-2)/2} dt with
    the singular factor absorbed into the Jacobi weight.
    """
    ja = (d - 2) / 2.0 - alpha
    jb = (d - 2) / 2.0
    x, w = roots_jacobi(n, ja, jb)
    nu = (d - 1) / 2.0
    col = eval_gegenbauer(ell, nu, x) / eval_gegenbauer(ell, nu, 1.0)
    return sphere_area(d - 1) * float(np.sum(w * col))


def test_funk_hecke_matches_quadrature_oracle():
    for (d, alpha) in ((2, 0.5), (3, 1.0), (4, 1.5)):
        for ell in (0, 1, 2, 5, 11):
            ref = _funk_hecke_quadrature(d, alpha, ell)
            assert funk_hecke_eigenvalue(d, alpha, ell) == pytest.approx(
                ref, rel=1e-9
            )


def test_funk_hecke_inversion_is_flat():
    # eigenvalue(d, d/2 - s, ell) * Gamma-multiplier(ell) is ell-independent
    for (d, s) in ((3, 1.0), (4, 1.0), (3, 0.5)):
        p = SphereParams(d, s)
        prods = np.array(
            [
                funk_hecke_eigenvalue(d, d / 2.0 - s, ell) * gamma_multiplier(p, ell)
                for ell in range(21)
            ]
        )
        assert np.max(np.abs(prods / prods[0] - 1.0)) < 1e-10


def test_analyze_synthesize_round_trip():
    p = SphereParams(3, 1.0)
    fn = _random_fn(p, seed=3)
    back = analyze(fn.samples, p, bandlimit=fn.bandlimit)
    assert np.allclose(back.coeffs, fn.coeffs, rtol=0, atol=1e-12)


def test_from_coeffs_rejects_a_coefficient_matrix():
    with pytest.raises(PreconditionError):
        from_coeffs(np.ones((5, 2)), SphereParams(3, 1.0))


_P3 = SphereParams(3, 1.0)


@pytest.mark.parametrize(
    "array, call",
    [
        (np.eye(9)[2], lambda c: from_coeffs(c, _P3)),
        (np.ones(DEFAULT_ORDER), lambda s: analyze(s, _P3)),
        (np.array([[1.0, 2.0], [0.5, -1.0]]), lambda a: duality.finite_operator(a, 3.0)),
        (np.array([0.0, 0.0, 0.0, 0.3]), lambda z: conformal.q_zeta(z, _P3)),
    ],
    ids=["from_coeffs", "analyze", "finite_operator", "q_zeta"],
)
def test_library_calls_leave_the_callers_array_writeable(array, call):
    # a record freezes the arrays it holds, so it must hold its own copies
    call(array)
    assert array.flags.writeable


def test_eval_zonal_reproduces_grid_samples():
    p = SphereParams(4, 1.0)
    fn = _random_fn(p, seed=5)
    from sobolev_lab.specialfn import gauss_rule

    nodes = gauss_rule(128, (4 - 2) / 2.0).nodes
    assert np.allclose(eval_zonal(fn, nodes), fn.samples, rtol=0, atol=1e-12)


def test_norm2_parseval_vs_quadrature():
    p = SphereParams(3, 1.0)
    fn = _random_fn(p, seed=7)
    assert norm2(fn) == pytest.approx(lq_norm(fn, 2.0), rel=1e-11)


def test_lq_norm_of_constant():
    p = SphereParams(3, 1.0)
    c = 1.7
    fn = analyze(np.full(DEFAULT_ORDER, c), p)
    for q in (2.0, 4.0, 6.0):
        assert lq_norm(fn, q) == pytest.approx(
            c * sphere_area(3) ** (1.0 / q), rel=1e-12
        )


def test_energy_two_routes_s1():
    for d in (3, 4):
        p = SphereParams(d, 1.0)
        fn = _random_fn(p, seed=11 + d)
        e_spec = energy(fn)
        e_grad = energy_via_gradient(fn)
        assert e_grad == pytest.approx(e_spec, rel=1e-8)


def test_quotient_scale_invariant_and_above_sharp():
    p = SphereParams(3, 1.0)
    fn = _random_fn(p, seed=13)
    pos = analyze(fn.samples + 3.0 * np.max(np.abs(fn.samples)), p, bandlimit=32)
    q1 = sobolev_quotient(pos)
    scaled = analyze(2.5 * pos.samples, p, bandlimit=32)
    assert sobolev_quotient(scaled) == pytest.approx(q1, rel=1e-12)
    assert q1 > sharp_constant(p)


def test_w_weight_two_routes_and_frozen_value():
    assert w_weight(3, 1.0, 1) == pytest.approx(3.2, rel=1e-13)
    for (d, s) in ((3, 1.0), (4, 1.0), (3, 0.5)):
        for ell in range(31):
            a = w_weight(d, s, ell)
            b = w_weight_threeterm(d, s, ell)
            assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(a)))


def test_spectral_gap_inequality():
    # (m(ell) - m(1))/m(ell) >= 2s/(1 + d/2 + s), equality exactly at ell = 2
    for (d, s) in ((3, 1.0), (4, 1.0), (5, 2.0), (3, 0.5)):
        p = SphereParams(d, s)
        bound = 2.0 * s / (1.0 + d / 2.0 + s)
        ells = np.arange(2, 201)
        m = gamma_multiplier(p, ells)
        m1 = gamma_multiplier(p, 1)
        ratio = (m - m1) / m
        assert np.all(ratio >= bound - 1e-12)
        assert ratio[0] == pytest.approx(bound, abs=1e-12)


def test_projection_kernel_legendre_case():
    # on S^2 the degree-ell kernel is (2 ell + 1)/(4 pi) P_ell
    t = np.linspace(-1.0, 1.0, 9)
    for ell in (0, 1, 2, 5):
        ref = (2 * ell + 1) / (4.0 * math.pi) * eval_legendre(ell, t)
        assert np.allclose(projection_kernel(2, ell, t), ref, rtol=1e-12, atol=1e-13)


def test_projection_kernel_reproduces_components():
    # integrating against the degree-ell kernel column must equal the
    # degree-ell component of the expansion evaluated at the pole
    p = SphereParams(3, 1.0)
    fn = _random_fn(p, seed=17, bandlimit=16, order=128)
    from sobolev_lab.specialfn import gauss_rule

    rule = gauss_rule(128, (3 - 2) / 2.0)
    t, w = rule.nodes, rule.weights
    vals = eval_zonal(fn, t)
    for ell in (0, 3, 7):
        proj_at_pole = sphere_area(2) * float(
            np.sum(w * vals * projection_kernel(3, ell, t))
        )
        c = np.zeros(17)
        c[ell] = fn.coeffs[ell]
        comp = from_coeffs(c, p, order=128)
        ref = float(eval_zonal(comp, np.array([1.0]))[0])
        assert proj_at_pole == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_subcritical_argmax_and_equality_cases():
    rep = subcritical_check(3, 4.0)
    assert rep.argmax_ell == 0
    assert rep.constant > 0.0
    if rep.violations.size:
        assert float(np.min(rep.violations)) >= -1e-9


def test_subcritical_endpoint_q2():
    rep = subcritical_check(3, 2.0)
    assert rep.argmax_ell == 0
    assert rep.constant == 0.0


def test_subcritical_rejects_supercritical():
    with pytest.raises(DomainError):
        subcritical_check(3, 6.0)
    with pytest.raises(DomainError):
        subcritical_check(4, 1.9)


def test_basis_refuses_a_bandlimit_the_gauss_grid_would_alias():
    # order 2L points integrate products of degree <= 2L exactly; L = 20 needs 40
    ZonalBasis(3, 19, 38)
    with pytest.raises(PreconditionError, match="would alias"):
        ZonalBasis(3, 20, 38)
