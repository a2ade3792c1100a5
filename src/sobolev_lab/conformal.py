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
from scipy.optimize import brentq

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
    "ConformalParam",
    "HerschResult",
    "q_zeta",
    "gamma_flow_axis",
    "flow_jacobian_axis",
    "pullback_zonal",
    "radial_transfer",
    "axis_moment",
    "hersch_normalize",
]


@dataclass(frozen=True)
class ConformalParam:
    """Point zeta in the open unit ball of R^(d+1) labeling an optimizer."""

    zeta: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        if z.ndim != 1:
            raise DomainError("zeta must be a vector")
        if np.linalg.norm(z) >= 1.0 - 1e-12:
            raise DomainError("|zeta| must stay strictly below 1")
        z.setflags(write=False)

    @property
    def rho(self) -> float:
        return float(np.linalg.norm(self.zeta))

    def axis(self) -> np.ndarray:
        """Unit direction of zeta; the last coordinate axis when zeta = 0."""
        r = self.rho
        if r == 0.0:
            e = np.zeros(len(self.zeta))
            e[-1] = 1.0
            return e
        return np.asarray(self.zeta) / r


def _axis_profile(rho: float, params: SphereParams, t: np.ndarray) -> np.ndarray:
    expo = (params.d - 2.0 * params.s) / 2.0
    return (math.sqrt(1.0 - rho * rho) / (1.0 - rho * t)) ** expo


def q_zeta(
    zeta,
    params: SphereParams,
    bandlimit: int = DEFAULT_BANDLIMIT,
    order: int = DEFAULT_ORDER,
) -> ZonalFn:
    """The optimizer Q_zeta as a zonal function with axis zeta/|zeta|.

    Profile F(t) = (sqrt(1-|zeta|^2) / (1-|zeta| t))^((d-2s)/2); the constant
    function 1 when zeta = 0.
    """
    if not isinstance(zeta, ConformalParam):
        zeta = ConformalParam(zeta=np.asarray(zeta, dtype=float))
    if len(zeta.zeta) != params.d + 1:
        raise PreconditionError("zeta must live in R^(d+1)")
    basis = zonal_basis(params.d, bandlimit, order)
    samples = _axis_profile(zeta.rho, params, basis.rule.nodes)
    return analyze(samples, params, bandlimit, axis=zeta.axis())


def gamma_flow_axis(delta: float, t):
    """Axis coordinate of the flow: t -> ((1+t)-d^2(1-t))/((1+t)+d^2(1-t))."""
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    t = np.asarray(t, dtype=float)
    d2 = delta * delta
    out = ((1.0 + t) - d2 * (1.0 - t)) / ((1.0 + t) + d2 * (1.0 - t))
    return float(out) if out.ndim == 0 else out


def flow_jacobian_axis(delta: float, t, d: int):
    """Conformal volume factor of the flow, (2 delta / denom)^d, on the axis."""
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    t = np.asarray(t, dtype=float)
    d2 = delta * delta
    out = (2.0 * delta / ((1.0 + t) + d2 * (1.0 - t))) ** d
    return float(out) if out.ndim == 0 else out


def pullback_zonal(fn: ZonalFn, delta: float) -> ZonalFn:
    """Conformal pullback J^(1/q) (U o flow) along the function's own axis.

    The flow shares the zonal axis, so the pullback stays zonal.
    """
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    basis = fn.basis
    t = basis.rule.nodes
    tnew = gamma_flow_axis(delta, t)
    vals = eval_zonal(fn, tnew)
    power = (fn.params.d - 2.0 * fn.params.s) / 2.0
    d2 = delta * delta
    conf = (2.0 * delta / ((1.0 + t) + d2 * (1.0 - t))) ** power
    return analyze(conf * vals, fn.params, fn.bandlimit, axis=np.asarray(fn.axis))


def radial_transfer(
    u_radial,
    params: SphereParams,
    bandlimit: int = DEFAULT_BANDLIMIT,
    order: int = DEFAULT_ORDER,
) -> ZonalFn:
    """Transfer a radial profile u(r) on R^d to its zonal twin on S^d.

    In axis coordinates F(t) = u(sqrt((1-t)/(1+t))) (1+t)^(-(d-2s)/2); the
    q-norms of u and of the result agree. The input is a callable of the
    radius.
    """
    basis = zonal_basis(params.d, bandlimit, order)
    t = basis.rule.nodes
    r = np.sqrt((1.0 - t) / (1.0 + t))
    uvals = np.asarray(u_radial(r), dtype=float)
    samples = uvals * (1.0 + t) ** (-(params.d - 2.0 * params.s) / 2.0)
    if not np.all(np.isfinite(samples)):
        raise ComputationError(
            "radial profile produced non-finite sphere values; "
            "the transfer needs an integrable input"
        )
    out = analyze(samples, params, bandlimit)
    if not math.isfinite(lq_norm(out, params.q)):
        raise ComputationError("transferred function has non-finite q-norm")
    return out


def axis_moment(fn: ZonalFn, power: int = 1) -> float:
    """Integral of (omega . axis)^power times the function over the sphere."""
    basis = fn.basis
    t = basis.rule.nodes
    return float(
        basis.geometry.subsphere_area
        * basis.rule.integrate(t**power * fn.samples)
    )


@dataclass(frozen=True)
class HerschResult:
    """Balanced representative of a conformal orbit of densities."""

    delta_star: float
    density: ZonalFn
    roots: tuple
    mass: float


def _flow_moment(delta: float, tvals, weights, gvals, subsphere_area: float) -> float:
    """Axis center of mass of the density flowed by strength delta."""
    m = gamma_flow_axis(delta, tvals)
    return float(subsphere_area * np.dot(weights, m * gvals))


# the dilations hersch_normalize scans first, and the points of its log grid
_HERSCH_BRACKET = (1e-6, 1e6)
_HERSCH_N_SCAN = 129


def hersch_normalize(fn: ZonalFn, density_exponent: float) -> HerschResult:
    """Find the dilation that balances the density |F|^p along the axis.

    Scans G(delta) = integral of the flowed axis coordinate against the
    density, locates sign changes on a log grid over ``_HERSCH_BRACKET``,
    refines each by bracketed root finding, and returns the root closest to
    the identity together with the rebalanced density (zero axis center of
    mass).
    The bracket expands twice before giving up.
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
    for _attempt in range(3):
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), _HERSCH_N_SCAN))
        vals = np.array([_flow_moment(dd, t, w, g, area_sub) for dd in grid])
        sign_changes = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        exact_zeros = [float(grid[i]) for i in np.nonzero(vals == 0.0)[0]]
        if len(sign_changes) or exact_zeros:
            break
        lo, hi = lo / 100.0, hi * 100.0
    else:
        raise ComputationError(
            "no sign change of the center-of-mass curve in the expanded bracket"
        )

    roots = list(exact_zeros)
    for i in sign_changes:
        root_log, info = brentq(
            lambda u: _flow_moment(math.exp(u), t, w, g, area_sub),
            math.log(grid[i]),
            math.log(grid[i + 1]),
            xtol=1e-14,
            rtol=8.9e-16,
            full_output=True,
            disp=False,
        )
        if not info.converged:
            raise ComputationError(
                "center-of-mass root did not converge: %s" % info.flag
            )
        roots.append(math.exp(root_log))
    roots.sort()
    delta_star = min(roots, key=lambda r: abs(math.log(r)))

    inv = 1.0 / delta_star
    tnew = gamma_flow_axis(inv, t)
    gnew = np.abs(eval_zonal(fn, tnew)) ** density_exponent
    dens_samples = gnew * flow_jacobian_axis(inv, t, fn.params.d)
    density = analyze(dens_samples, fn.params, fn.bandlimit, axis=np.asarray(fn.axis))
    return HerschResult(
        delta_star=float(delta_star),
        density=density,
        roots=tuple(roots),
        mass=mass,
    )
