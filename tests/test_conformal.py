"""Axis dilation flows, optimizer profiles, pullbacks, Hersch balancing."""

import math

import numpy as np
import pytest

from sobolev_lab import _brentq, conformal
from sobolev_lab.conformal import (
    axis_moment,
    flow_jacobian_axis,
    gamma_flow_axis,
    hersch_normalize,
    pullback_zonal,
    q_zeta,
    radial_transfer,
)
from sobolev_lab.errors import ComputationError, DomainError, PreconditionError
from sobolev_lab.specialfn import gauss_rule, sphere_area
from sobolev_lab.zonal import (
    SphereParams,
    analyze,
    energy,
    from_coeffs,
    lq_norm,
    sharp_constant,
    sobolev_quotient,
)


def _random_fn(params, content=12, bandlimit=64, order=256, seed=0):
    # low-degree content inside a generous analysis bandlimit: pullbacks
    # spread the spectrum, so headroom is what keeps truncation below 1e-6
    rng = np.random.default_rng(seed)
    c = np.zeros(bandlimit + 1)
    c[: content + 1] = rng.standard_normal(content + 1) / (
        1.0 + np.arange(content + 1)
    ) ** 2
    return from_coeffs(c, params, order=order)


def test_gamma_flow_axis_fixed_points_and_composition():
    for delta in (0.3, 1.0, 4.2):
        ends = gamma_flow_axis(delta, np.array([-1.0, 1.0]))
        assert np.allclose(ends, [-1.0, 1.0], atol=1e-15)
    t = np.linspace(-0.99, 0.99, 41)
    comp = gamma_flow_axis(1.7, gamma_flow_axis(0.6, t))
    assert np.allclose(comp, gamma_flow_axis(1.7 * 0.6, t), rtol=0, atol=1e-12)


def test_flow_jacobian_three_routes():
    d = 3
    delta = 1.7
    t = np.linspace(-0.95, 0.95, 33)
    closed = flow_jacobian_axis(delta, t, d)
    # route 2: signed-rho zeta form
    rho = (delta**2 - 1.0) / (delta**2 + 1.0)
    zform = (math.sqrt(1.0 - rho**2) / (1.0 - rho * t)) ** d
    assert np.allclose(closed, zform, rtol=1e-13, atol=0)
    # route 3: finite differences of the flow times the measure ratio
    h = 1e-6
    tp = gamma_flow_axis(delta, t)
    dtp = (gamma_flow_axis(delta, t + h) - gamma_flow_axis(delta, t - h)) / (2 * h)
    fd = dtp * ((1.0 - tp**2) / (1.0 - t**2)) ** ((d - 2) / 2.0)
    assert np.allclose(closed, fd, rtol=1e-8, atol=0)


def test_flow_jacobian_preserves_total_measure():
    # integral of the jacobian over the sphere equals the sphere area
    for d in (3, 4):
        rule = gauss_rule(200, (d - 2) / 2.0)
        t, w = rule.nodes, rule.weights
        for delta in (0.4, 2.6):
            total = sphere_area(d - 1) * np.sum(w * flow_jacobian_axis(delta, t, d))
            assert total == pytest.approx(sphere_area(d), rel=1e-12)


@pytest.mark.parametrize(
    "flow",
    [
        lambda delta: gamma_flow_axis(delta, np.array([-0.5, 0.0, 0.5])),
        lambda delta: flow_jacobian_axis(delta, np.array([-0.5, 0.0, 0.5]), 3),
        lambda delta: pullback_zonal(_random_fn(SphereParams(3, 1.0)), delta),
    ],
    ids=["gamma_flow_axis", "flow_jacobian_axis", "pullback_zonal"],
)
@pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1.0])
def test_a_dilation_that_is_not_finite_and_positive_is_a_domain_error(flow, delta):
    # an infinite delta used to pass and return NaN values
    with pytest.raises(DomainError, match="delta must be positive and finite"):
        flow(delta)


def test_q_zeta_attains_sharp_constant():
    for (d, s) in ((3, 1.0), (4, 1.0), (3, 0.5)):
        p = SphereParams(d, s)
        rng = np.random.default_rng(d)
        z = rng.uniform(-0.4, 0.4, size=d + 1)
        fn = q_zeta(z, p)
        assert sobolev_quotient(fn) == pytest.approx(sharp_constant(p), rel=1e-7)


def test_q_zeta_zero_is_constant_one():
    p = SphereParams(3, 1.0)
    fn = q_zeta(np.zeros(4), p)
    assert np.allclose(fn.samples, 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "zeta, error",
    [
        (np.array([0.0, 0.0, 0.0, 1.0]), DomainError),
        (np.zeros((2, 4)), DomainError),
        (np.array([0.0, 0.0, 0.3]), PreconditionError),
    ],
    ids=["exterior", "matrix", "wrong_length"],
)
def test_q_zeta_rejects_exterior_parameter(zeta, error):
    with pytest.raises(error):
        q_zeta(zeta, SphereParams(3, 1.0))


def test_pullback_preserves_energy_and_norm():
    p = SphereParams(3, 1.0)
    fn = _random_fn(p, seed=4)
    e0, n0 = energy(fn), lq_norm(fn, p.q)
    for delta in (0.5, 1.3, 2.0):
        moved = pullback_zonal(fn, delta)
        assert energy(moved) == pytest.approx(e0, rel=1e-6)
        assert lq_norm(moved, p.q) == pytest.approx(n0, rel=1e-6)


def test_pullback_round_trip():
    p = SphereParams(3, 1.0)
    fn = _random_fn(p, seed=6)
    back = pullback_zonal(pullback_zonal(fn, 1.7), 1.0 / 1.7)
    assert np.allclose(back.coeffs, fn.coeffs, rtol=0, atol=1e-10)


def test_radial_transfer_of_bubble_is_constant():
    # u(x) = (2/(1+|x|^2))^{(d-2s)/2} transfers to the constant function 1
    p = SphereParams(3, 1.0)
    fn = radial_transfer(lambda r: (2.0 / (1.0 + r**2)) ** 0.5, p)
    assert np.allclose(fn.samples, 1.0, rtol=0, atol=1e-10)


def test_axis_moment_signs():
    # profiles are stored in the frame of their own axis, so a south-peaked
    # density in a fixed frame comes from mirroring the profile in t
    p = SphereParams(3, 1.0)
    north = q_zeta(np.array([0.0, 0.0, 0.0, 0.5]), p)
    dens_n = analyze(north.samples**p.q, p, bandlimit=north.bandlimit)
    dens_s = analyze(north.samples[::-1] ** p.q, p, bandlimit=north.bandlimit)
    assert axis_moment(dens_n) > 0
    assert axis_moment(dens_s) < 0


def test_hersch_normalize_balances_bubble_density():
    p = SphereParams(3, 1.0)
    fn = q_zeta(np.array([0.0, 0.0, 0.0, 0.3]), p)
    res = hersch_normalize(fn, density_exponent=p.q)
    assert abs(axis_moment(res.density)) < 1e-9
    assert res.delta_star > 1.0  # mass sits at +axis, balancing pushes back
    assert res.mass == pytest.approx(sphere_area(3), rel=1e-10)


@pytest.mark.parametrize("d, axis", [(2, 0.6), (3, 0.3), (3, -0.5), (5, 0.0), (6, 0.8)])
def test_hersch_center_of_mass_decreases_along_the_scan(d, axis):
    # every node with |t| < 1 flows toward -axis as delta grows and the
    # density is nonnegative, so the scan changes sign exactly once
    p = SphereParams(d, 0.5)
    zeta = np.zeros(d + 1)
    zeta[-1] = axis
    fn = q_zeta(zeta, p)
    rule = fn.basis.rule
    dens = np.abs(fn.samples) ** p.q
    lo, hi = conformal._HERSCH_BRACKET
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), conformal._HERSCH_N_SCAN))
    area = fn.basis.geometry.subsphere_area
    vals = [conformal._flow_moment(x, rule.nodes, rule.weights, dens, area) for x in grid]
    assert np.all(np.diff(vals) < 0.0)
    assert vals[0] > 0.0 > vals[-1]


def test_hersch_refuses_a_scan_without_a_sign_change(monkeypatch):
    # the bubble at +0.3 balances at some delta > 1, past this scan
    monkeypatch.setattr(conformal, "_HERSCH_BRACKET", (1e-6, 1.0))
    p = SphereParams(3, 1.0)
    fn = q_zeta(np.array([0.0, 0.0, 0.0, 0.3]), p)
    with pytest.raises(ComputationError, match="keeps one sign"):
        hersch_normalize(fn, density_exponent=p.q)


def test_hersch_identity_input_needs_no_motion():
    p = SphereParams(3, 1.0)
    fn = q_zeta(np.zeros(4), p)
    res = hersch_normalize(fn, density_exponent=p.q)
    assert res.delta_star == pytest.approx(1.0, rel=1e-9)


def test_hersch_unconverged_root_raises_typed_error(monkeypatch):
    monkeypatch.setattr(_brentq, "_MAXITER", 1)
    p = SphereParams(3, 1.0)
    fn = q_zeta(np.array([0.0, 0.0, 0.0, 0.3]), p)
    with pytest.raises(ComputationError, match="did not converge"):
        hersch_normalize(fn, density_exponent=p.q)
