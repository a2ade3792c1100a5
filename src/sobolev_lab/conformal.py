"""Conformal machinery on the sphere.

The Moebius dilation flows along an axis, the optimizer family Q_zeta over
the unit ball, the transfer of radial profiles on R^d to zonal functions,
pullbacks of zonal functions under the flows, and the center-of-mass
normalization that picks the balanced representative from a conformal
orbit. Only the axis coordinate of a flow is computed: every function here
is zonal about the flow's own axis.

Conventions. Stereographic projection sends x = 0 to the north pole. A
dilation strength delta > 0 along a unit axis xi moves mass toward xi as
delta decreases (delta = 1 is the identity). In axis coordinates
t = omega . xi the flow is the rational map

    t' = ((1+t) - delta^2 (1-t)) / ((1+t) + delta^2 (1-t)),

whose conformal factor is (2 delta / ((1+t)+delta^2(1-t)))^d. The parameter
zeta = ((delta^2-1)/(delta^2+1)) xi identifies the flowed constant with a
member of the optimizer family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brentq import brentq
from .errors import ComputationError, DomainError, PreconditionError
from .zonal import (
    DEFAULT_BANDLIMIT,
    DEFAULT_ORDER,
    SphereParams,
    ZonalFn,
    analyze,
    eval_zonal,
    lq_norm,
    zonal_basis,
)

__all__ = [
    "HerschResult",
    "q_zeta",
    "gamma_flow_axis",
    "flow_jacobian_axis",
    "pullback_zonal",
    "radial_transfer",
    "axis_moment",
    "hersch_normalize",
]


def _axis_profile(rho: float, params: SphereParams, t: np.ndarray) -> np.ndarray:
    expo = (params.d - 2.0 * params.s) / 2.0
    return (math.sqrt(1.0 - rho * rho) / (1.0 - rho * t)) ** expo


def q_zeta(
    zeta,
    params: SphereParams,
    bandlimit: int = DEFAULT_BANDLIMIT,
    order: int = DEFAULT_ORDER,
) -> ZonalFn:
    """The optimizer Q_zeta as a zonal function about the axis zeta/|zeta|.

    Profile F(t) = (sqrt(1-|zeta|^2) / (1-|zeta| t))^((d-2s)/2); the constant
    function 1 when zeta = 0. ``zeta`` is a point of the open unit ball of
    R^(d+1).
    """
    zeta = np.asarray(zeta, dtype=float)
    if zeta.ndim != 1:
        raise DomainError("zeta must be a vector")
    rho = float(np.linalg.norm(zeta))
    if rho >= 1.0 - 1e-12:
        raise DomainError("|zeta| must stay strictly below 1")
    if len(zeta) != params.d + 1:
        raise PreconditionError("zeta must live in R^(d+1)")
    basis = zonal_basis(params.d, bandlimit, order)
    return analyze(_axis_profile(rho, params, basis.rule.nodes), params, bandlimit)


def _check_delta(delta: float) -> None:
    """A dilation strength is positive and finite (NaN fails too)."""
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be positive and finite, got %r" % (delta,))


def gamma_flow_axis(delta: float, t):
    """Axis coordinate of the flow: t -> ((1+t)-d^2(1-t))/((1+t)+d^2(1-t))."""
    _check_delta(delta)
    t = np.asarray(t, dtype=float)
    d2 = delta * delta
    out = ((1.0 + t) - d2 * (1.0 - t)) / ((1.0 + t) + d2 * (1.0 - t))
    return float(out) if out.ndim == 0 else out


def flow_jacobian_axis(delta: float, t, d: int):
    """Conformal volume factor of the flow, (2 delta / denom)^d, on the axis."""
    _check_delta(delta)
    t = np.asarray(t, dtype=float)
    d2 = delta * delta
    out = (2.0 * delta / ((1.0 + t) + d2 * (1.0 - t))) ** d
    return float(out) if out.ndim == 0 else out


def pullback_zonal(fn: ZonalFn, delta: float) -> ZonalFn:
    """Conformal pullback J^(1/q) (U o flow) along the function's own axis.

    The flow shares the zonal axis, so the pullback stays zonal.
    """
    basis = fn.basis
    t = basis.rule.nodes
    tnew = gamma_flow_axis(delta, t)
    vals = eval_zonal(fn, tnew)
    power = (fn.params.d - 2.0 * fn.params.s) / 2.0
    d2 = delta * delta
    conf = (2.0 * delta / ((1.0 + t) + d2 * (1.0 - t))) ** power
    return analyze(conf * vals, fn.params, fn.bandlimit)


def radial_transfer(u_radial, params: SphereParams) -> ZonalFn:
    """Transfer a radial profile u(r) on R^d to its zonal twin on S^d.

    In axis coordinates F(t) = u(sqrt((1-t)/(1+t))) (1+t)^(-(d-2s)/2); the
    q-norms of u and of the result agree. The input is a callable of the
    radius.
    """
    basis = zonal_basis(params.d, DEFAULT_BANDLIMIT, DEFAULT_ORDER)
    t = basis.rule.nodes
    r = np.sqrt((1.0 - t) / (1.0 + t))
    uvals = np.asarray(u_radial(r), dtype=float)
    samples = uvals * (1.0 + t) ** (-(params.d - 2.0 * params.s) / 2.0)
    if not np.all(np.isfinite(samples)):
        raise ComputationError(
            "radial profile produced non-finite sphere values; "
            "the transfer needs an integrable input"
        )
    out = analyze(samples, params, DEFAULT_BANDLIMIT)
    if not math.isfinite(lq_norm(out, params.q)):
        raise ComputationError("transferred function has non-finite q-norm")
    return out


def axis_moment(fn: ZonalFn) -> float:
    """Integral of (omega . axis) times the function over the sphere."""
    basis = fn.basis
    t = basis.rule.nodes
    return float(
        basis.geometry.subsphere_area * basis.rule.integrate(t * fn.samples)
    )


@dataclass(frozen=True)
class HerschResult:
    """Balanced representative of a conformal orbit of densities."""

    delta_star: float
    density: ZonalFn
    mass: float


def _flow_moment(delta: float, tvals, weights, gvals, subsphere_area: float) -> float:
    """Axis center of mass of the density flowed by strength delta."""
    m = gamma_flow_axis(delta, tvals)
    return float(subsphere_area * np.dot(weights, m * gvals))


# the dilations hersch_normalize scans, and the points of its log grid
_HERSCH_BRACKET = (1e-6, 1e6)
_HERSCH_N_SCAN = 129


def hersch_normalize(fn: ZonalFn, density_exponent: float) -> HerschResult:
    """Find the dilation that balances the density |F|^p along the axis.

    G(delta) = integral of the flowed axis coordinate against the density is
    strictly decreasing: the flow moves every node with |t| < 1 toward -axis
    as delta grows, and the density is nonnegative with positive mass. So a
    log grid over ``_HERSCH_BRACKET`` changes sign once; bracketed root
    finding refines that change, and the rebalanced density (zero axis
    center of mass) is returned with the root.
    """
    basis = fn.basis
    t = basis.rule.nodes
    w = basis.rule.weights
    g = np.abs(fn.samples) ** density_exponent
    area_sub = basis.geometry.subsphere_area
    mass = float(area_sub * np.dot(w, g))
    if not mass > 0.0:
        raise PreconditionError("density has zero mass; nothing to balance")

    lo, hi = _HERSCH_BRACKET
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), _HERSCH_N_SCAN))
    vals = np.array([_flow_moment(dd, t, w, g, area_sub) for dd in grid])
    # the last positive value; G falls to <= 0 at the next grid point
    i = int(np.count_nonzero(vals > 0.0)) - 1
    if not 0 <= i < _HERSCH_N_SCAN - 1:
        raise ComputationError(
            "the center of mass keeps one sign over the scanned dilations"
        )
    root_log = brentq(
        lambda u: _flow_moment(math.exp(u), t, w, g, area_sub),
        math.log(grid[i]),
        math.log(grid[i + 1]),
        xtol=1e-14,
        rtol=8.9e-16,
    )
    delta_star = math.exp(root_log)

    inv = 1.0 / delta_star
    tnew = gamma_flow_axis(inv, t)
    gnew = np.abs(eval_zonal(fn, tnew)) ** density_exponent
    dens_samples = gnew * flow_jacobian_axis(inv, t, fn.params.d)
    density = analyze(dens_samples, fn.params, fn.bandlimit)
    return HerschResult(delta_star=delta_star, density=density, mass=mass)
