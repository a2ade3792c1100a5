"""Gamma-function helpers, Gegenbauer recursion, and Gauss rules.

Reference values were frozen from 40-digit mpmath evaluations; polynomial
identities are checked symbolically against scipy.special where a second
implementation exists.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer, roots_jacobi

from sobolev_lab.errors import DomainError
from sobolev_lab.specialfn import (
    gauss_rule,
    gegenbauer_at_one,
    gegenbauer_table,
    gamma_ratio,
    harmonic_multiplicity,
    log_gamma,
    sphere_area,
    sphere_geometry,
)

# mpmath 40 dps
LOG_GAMMA_TABLE = {
    0.5: 0.57236494292470008707,
    1.0: 0.0,
    2.5: 0.28468287047291915963,
    7.25: 7.0521854507385394449,
    41.0: 110.32063971475739543,
}

SPHERE_AREA_TABLE = {
    1: 6.2831853071795864769,
    2: 12.566370614359172954,
    3: 19.739208802178717238,
    4: 26.318945069571622984,
    5: 31.006276680299820175,
}


def test_log_gamma_reference_values():
    for x, ref in LOG_GAMMA_TABLE.items():
        assert log_gamma(x) == pytest.approx(ref, rel=1e-14)


def test_log_gamma_vectorized():
    xs = np.array([0.5, 2.5, 7.25])
    out = log_gamma(xs)
    assert out.shape == xs.shape
    for got, x in zip(out, xs):
        assert got == pytest.approx(LOG_GAMMA_TABLE[float(x)], rel=1e-14)


def test_gamma_ratio_reference_values():
    assert gamma_ratio(7.25, 2.5) == pytest.approx(869.13857744333785491, rel=1e-13)
    # large nearly-equal arguments would overflow a naive gamma quotient
    assert gamma_ratio(101.5, 100.25) == pytest.approx(317.70985401132607845, rel=1e-13)


def test_gamma_ratio_recurrence():
    assert gamma_ratio(3.7, 3.7) == pytest.approx(1.0, rel=1e-15)
    # Gamma(a+1)/Gamma(a) = a
    for a in (0.5, 1.3, 11.0):
        assert gamma_ratio(a + 1.0, a) == pytest.approx(a, rel=1e-14)


def test_gegenbauer_low_degrees():
    t = np.linspace(-1.0, 1.0, 9)
    for alpha in (0.5, 1.0, 1.7):
        table = gegenbauer_table(alpha, 2, t)
        assert table.shape == (3, len(t))
        assert np.allclose(table[0], 1.0)
        assert np.allclose(table[1], 2.0 * alpha * t)
        c2 = 2.0 * alpha * (alpha + 1.0) * t**2 - alpha
        assert np.allclose(table[2], c2, rtol=1e-14, atol=1e-14)


def test_gegenbauer_matches_scipy():
    t = np.linspace(-1.0, 1.0, 37)
    for alpha in (0.5, 1.0, 1.5, 2.3):
        table = gegenbauer_table(alpha, 12, t)
        for ell in range(13):
            ref = eval_gegenbauer(ell, alpha, t)
            assert np.allclose(table[ell], ref, rtol=1e-12, atol=1e-12)


def test_gegenbauer_frozen_spot_values():
    assert gegenbauer_table(1.5, 5, 0.3)[5, 0] == pytest.approx(2.02174875, rel=1e-13)
    assert gegenbauer_table(1.0, 8, -0.7)[8, 0] == pytest.approx(1.07513856, rel=1e-12)
    # alpha = 1/2 reduces to Legendre, P_3(0.9) = (5x^3 - 3x)/2
    assert gegenbauer_table(0.5, 3, 0.9)[3, 0] == pytest.approx(0.4725, rel=1e-13)


def test_gegenbauer_at_one_matches_evaluation():
    for alpha in (0.5, 1.0, 2.5):
        row = gegenbauer_table(alpha, 8, np.array([1.0]))[:, 0]
        for ell in range(9):
            assert gegenbauer_at_one(ell, alpha) == pytest.approx(row[ell], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    ell=st.integers(min_value=2, max_value=20),
    alpha=st.floats(min_value=0.3, max_value=3.0),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
def test_gegenbauer_three_term_recursion(ell, alpha, t):
    table = gegenbauer_table(alpha, ell, np.array([t]))[:, 0]
    lhs = float(ell * table[ell])
    rhs = float(
        2.0 * (ell + alpha - 1.0) * t * table[ell - 1]
        - (ell + 2.0 * alpha - 2.0) * table[ell - 2]
    )
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_harmonic_multiplicity_values():
    # S^2: 2l+1
    for ell in range(6):
        assert harmonic_multiplicity(2, ell) == 2 * ell + 1
    # binom(d+l, l) - binom(d+l-2, l-2)
    assert harmonic_multiplicity(3, 0) == 1
    assert harmonic_multiplicity(3, 1) == 4
    assert harmonic_multiplicity(3, 2) == 9
    assert harmonic_multiplicity(4, 2) == 14
    # binom(8,3) - binom(6,1)
    assert harmonic_multiplicity(5, 3) == 50


MOMENTS = {
    # int_{-1}^{1} (1-t^2)^beta t^k dt, k = 0, 2, 4 (mpmath)
    0.5: (1.57079632679489662, 0.392699081698724155, 0.196349540849362077),
    1.5: (1.17809724509617246, 0.196349540849362077, 0.073631077818510779),
    -0.5: (3.14159265358979324, 1.57079632679489662, 1.17809724509617246),
}


def test_gauss_rule_moments():
    for beta, (m0, m2, m4) in MOMENTS.items():
        rule = gauss_rule(24, beta)
        t, w = rule.nodes, rule.weights
        assert np.sum(w) == pytest.approx(m0, rel=1e-14)
        assert np.sum(w * t**2) == pytest.approx(m2, rel=1e-13)
        assert np.sum(w * t**4) == pytest.approx(m4, rel=1e-13)
        assert np.sum(w * t**3) == pytest.approx(0.0, abs=5e-14)


def test_gauss_rule_polynomial_exactness_degree():
    # an n-point rule integrates monomials up to degree 2n-1
    rule = gauss_rule(3, 0.5)
    t, w = rule.nodes, rule.weights
    exact = MOMENTS[0.5][1]
    assert np.sum(w * t**2) == pytest.approx(exact, rel=1e-13)
    # degree 2n = 6 must generally fail for a 3-point rule
    six = float(np.sum(w * t**6))
    mp = pytest.importorskip("mpmath")
    ref = float(mp.quad(lambda x: (1 - x**2) ** mp.mpf(0.5) * x**6, [-1, 1]))
    assert abs(six - ref) > 1e-6


def test_gauss_rule_matches_scipy_jacobi():
    for beta in (-0.5, 0.0, 0.5, 1.5):
        rule = gauss_rule(16, beta)
        xj, wj = roots_jacobi(16, beta, beta)
        order = np.argsort(rule.nodes)
        assert np.allclose(rule.nodes[order], xj, rtol=0, atol=1e-13)
        assert np.allclose(rule.weights[order], wj, rtol=1e-12, atol=1e-14)


def test_gauss_rule_metadata_and_cache():
    rule = gauss_rule(12, 0.5)
    assert rule.order == 12
    assert rule.weight_exponent == 0.5
    assert np.all(rule.weights > 0)
    assert gauss_rule(12, 0.5) is rule


def test_gauss_rule_rejects_impossible_weight():
    with pytest.raises(DomainError):
        gauss_rule(8, -1.0)
    with pytest.raises(DomainError):
        gauss_rule(0, 0.5)


def test_sphere_area_closed_forms():
    for d, ref in SPHERE_AREA_TABLE.items():
        assert sphere_area(d) == pytest.approx(ref, rel=1e-14)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


def test_sphere_geometry_fields():
    geo = sphere_geometry(4)
    assert geo.dim == 4
    assert geo.area == pytest.approx(sphere_area(4), rel=1e-15)
    assert geo.subsphere_area == pytest.approx(sphere_area(3), rel=1e-15)
