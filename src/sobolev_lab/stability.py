"""Deficit, distance to the optimizer manifold, and stability quotients.

The distance from a zonal U to the manifold of optimizers reduces, by
conformal symmetry, to maximizing the moment

    G(zeta) = integral of Q_zeta^(q-1) U over the sphere

over the unit ball. For zonal U the moment only depends on the component a
of zeta along the axis and the orthogonal radius rho, so the search runs
over a 2-parameter disc; the integral itself is a tensor-product Gauss
quadrature evaluated by a dedicated kernel. The squared distance is then

    delta^2 = E_s[U] - multiplier(0) G(zeta*)^2 / |S^d|,

attained by the multiple c* Q_(zeta*) with c* = G(zeta*)/|S^d|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import _kernels
from .errors import (
    ComputationError,
    DegenerateInputError,
    DomainError,
    PreconditionError,
)
from .specialfn import gauss_rule, sphere_area
from .zonal import (
    ZonalFn,
    analyze,
    energy,
    gamma_multiplier,
    lq_norm,
    norm2,
)

__all__ = [
    "DistanceResult",
    "QuotientCurve",
    "deficit",
    "zeta_moment_integral",
    "distance",
    "be_quotient",
    "upper_bound_constant",
    "quotient_curve",
]

MANIFOLD_TOL = 1e-6

# the azimuthal Gauss order of the moment G(zeta), read at call time
DEFAULT_N_AZIMUTHAL = 64


def deficit(fn: ZonalFn) -> float:
    """Sobolev deficit E_s[U] - S ||U||_q^2; nonnegative up to quadrature."""
    from .zonal import sharp_constant

    nq = lq_norm(fn, fn.params.q)
    if nq == 0.0:
        raise DomainError("deficit undefined for the zero function")
    return energy(fn) - sharp_constant(fn.params) * nq * nq


@dataclass(frozen=True)
class DistanceResult:
    """Distance from U to the optimizer manifold and the attaining multiple.

    ``zeta_star`` is the maximizer of G as its disc point (a, rho): a along
    U's axis and rho >= 0 across it. For rho > 0 every rotation of that
    point about the axis maximizes G as well, so the pair is the whole
    answer.
    """

    delta: float
    c_star: float
    zeta_star: tuple
    tau: float
    diagnostics: dict


def zeta_moment_integral(fn: ZonalFn, a: float, rho: float) -> float:
    """G(zeta) for zeta = a axis + rho axis_perp, by 2D Gauss quadrature."""
    d, s = fn.params.d, fn.params.s
    r2 = a * a + rho * rho
    if r2 >= 1.0:
        raise DomainError("zeta must stay in the open unit ball")
    basis = fn.basis
    crule = gauss_rule(DEFAULT_N_AZIMUTHAL, (d - 3) / 2.0)
    val = _kernels.zeta_moment(
        float(a),
        float(rho),
        math.sqrt(1.0 - r2),
        (d + 2.0 * s) / 2.0,
        basis.rule.nodes,
        basis.rule.weights,
        fn.samples,
        crule.nodes,
        crule.weights,
    )
    return float(sphere_area(d - 2) * val) if d >= 2 else float(val)


_SEED_ZETAS = ((0.0, 0.0), (0.6, 0.0), (-0.6, 0.0), (0.3, 0.3), (-0.3, 0.3))
# L-BFGS-B's projected-gradient stop in distance
_LBFGS_GTOL = 1e-12


def distance(fn: ZonalFn) -> DistanceResult:
    """Distance to the optimizer manifold by multi-start maximization of G.

    Runs a 1D maximization along the axis first, then quasi-Newton descents
    from five deterministic seeds in the (a, rho) disc mapped to the plane by
    zeta = z / sqrt(1 + |z|^2). Ties are broken by the larger G^2, then the
    smaller |zeta|, then lexicographically.
    """
    e_total = energy(fn)
    if e_total <= 0.0:
        raise DomainError("distance needs a nonzero function")
    d = fn.params.d
    area = sphere_area(d)
    mult0 = gamma_multiplier(fn.params, 0)

    def gval(a: float, rho: float) -> float:
        return zeta_moment_integral(fn, a, rho)

    def unpack(z: np.ndarray) -> tuple:
        nz = 1.0 / math.sqrt(1.0 + float(z[0]) ** 2 + float(z[1]) ** 2)
        return float(z[0]) * nz, float(z[1]) * nz

    def objective(z: np.ndarray) -> float:
        a, rho = unpack(z)
        g = gval(a, rho)
        return -g * g

    candidates = []
    converged = []

    axis_obj = lambda v: -gval(math.tanh(v), 0.0) ** 2
    vgrid = np.linspace(-3.0, 3.0, 25)
    k = int(np.argmin([axis_obj(v) for v in vgrid]))
    axis_res = minimize_scalar(
        axis_obj,
        bounds=(vgrid[max(k - 1, 0)], vgrid[min(k + 1, len(vgrid) - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    a_axis = math.tanh(float(axis_res.x))
    z_axis = np.array([a_axis / math.sqrt(1.0 - a_axis * a_axis), 0.0])
    starts = [z_axis]
    for a0, r0 in _SEED_ZETAS:
        nz = 1.0 / math.sqrt(1.0 - a0 * a0 - r0 * r0)
        starts.append(np.array([a0 * nz, r0 * nz]))

    for z0 in starts:
        try:
            res = minimize(
                objective,
                z0,
                method="L-BFGS-B",
                options={"gtol": _LBFGS_GTOL, "ftol": 1e-15, "maxiter": 500},
            )
        except DomainError:
            # the descent ran z off to infinity, where |zeta| rounds to 1
            converged.append(False)
            continue
        a, rho = unpack(res.x)
        rho = abs(rho)
        g = gval(a, rho)
        candidates.append((g * g, a, rho, g))
        converged.append(bool(res.success))

    if not candidates:
        raise ComputationError("every distance start left the unit ball")

    ranked = sorted(
        candidates,
        key=lambda c: (
            -round(c[0], 12),
            round(c[1] ** 2 + c[2] ** 2, 12),
            round(c[1], 12),
            round(c[2], 12),
        ),
    )
    g2_best, a_best, rho_best, g_best = ranked[0]

    delta_sq = max(e_total - mult0 * g2_best / area, 0.0)
    rest = e_total - delta_sq
    if rest <= 0.0:
        raise ComputationError(
            "maximized moment vanished; tau undefined (best G^2 = %g)" % g2_best
        )
    return DistanceResult(
        delta=math.sqrt(delta_sq),
        c_star=g_best / area,
        zeta_star=(a_best, rho_best),
        tau=math.sqrt(delta_sq / rest),
        diagnostics={"candidates": candidates, "converged": converged},
    )


def be_quotient(fn: ZonalFn) -> float:
    """Stability quotient deficit / delta^2.

    Raises DegenerateInputError on (numerical) optimizers, where the
    quotient is a 0/0 expression.
    """
    dist = distance(fn)
    e_total = energy(fn)
    if dist.delta / math.sqrt(e_total) < MANIFOLD_TOL:
        raise DegenerateInputError(
            "manifold point: delta/sqrt(E) = %.3g below %.0e"
            % (dist.delta / math.sqrt(e_total), MANIFOLD_TOL)
        )
    return deficit(fn) / dist.delta**2


def upper_bound_constant(d: int, s: float) -> float:
    """Sharp small-perturbation value of the quotient: 4s/(d+2s+2)."""
    from .zonal import SphereParams

    SphereParams(d, s)
    return 4.0 * s / (d + 2.0 * s + 2.0)


@dataclass(frozen=True)
class QuotientCurve:
    """Stability quotient along a perturbation ray with its extrapolation."""

    eps: np.ndarray
    quotient: np.ndarray
    extrapolated_limit: float
    error_estimate: float


def _eps_grid(eps_grid) -> np.ndarray:
    """The eps values in descending order, checked for an extrapolation.

    They must be finite, positive and distinct, and at least two: a repeated
    value turns the polynomial fit of ``_extrapolate`` singular.
    """
    eps = np.asarray(sorted(eps_grid, reverse=True), dtype=float)
    if not np.all(np.isfinite(eps) & (eps > 0.0)):
        raise DomainError("eps grid must be finite and positive")
    if len(eps) < 2 or np.any(eps[1:] == eps[:-1]):
        raise DomainError(
            "eps grid needs two or more values, none repeated; got %s" % eps.tolist()
        )
    return eps


def _extrapolate(eps: np.ndarray, vals: np.ndarray) -> tuple:
    """Limit at eps = 0 assuming an O(eps) leading error term.

    Halving grids get the 3-point Richardson scheme; anything else falls
    back to polynomial fitting, with the error gauged against a lower-order
    fit.
    """
    if len(eps) >= 3 and np.allclose(eps[:-1] / eps[1:], 2.0, rtol=1e-10):
        f0, f1, f2 = vals[-3], vals[-2], vals[-1]
        a1 = 2.0 * f1 - f0
        a2 = 2.0 * f2 - f1
        limit = (4.0 * a2 - a1) / 3.0
        return float(limit), float(abs(limit - a2))
    # _eps_grid leaves at least two points, so a lower-order fit exists
    deg = min(2, len(eps) - 1)
    p_hi = np.polynomial.Polynomial.fit(eps, vals, deg)
    limit = float(p_hi(0.0))
    p_lo = np.polynomial.Polynomial.fit(eps, vals, deg - 1)
    return limit, float(abs(limit - float(p_lo(0.0))))


def quotient_curve(fn: ZonalFn, eps_grid=(0.02, 0.01, 0.005)) -> QuotientCurve:
    """Quotient along U = 1 + eps R for an orthogonal perturbation R.

    R must carry no degree-0 or degree-1 component (checked to 1e-10 of its
    norm); the extrapolated limit then matches the Hessian Rayleigh quotient
    sum_(ell>=2) (m_ell - m_1) c_ell^2 / sum_ell m_ell c_ell^2 up to the
    reported error, with c_ell the coefficients of R and m_ell its
    ``gamma_multiplier``.
    """
    scale = max(norm2(fn), 1e-300)
    if abs(fn.coeffs[0]) > 1e-10 * scale or (
        fn.bandlimit >= 1 and abs(fn.coeffs[1]) > 1e-10 * scale
    ):
        raise PreconditionError(
            "perturbation must be orthogonal to degrees 0 and 1 "
            "(coefficients %.2e, %.2e)"
            % (fn.coeffs[0], fn.coeffs[1] if fn.bandlimit >= 1 else 0.0)
        )
    eps = _eps_grid(eps_grid)
    vals = np.empty(len(eps))
    for i, e in enumerate(eps):
        vals[i] = be_quotient(analyze(1.0 + e * fn.samples, fn.params, fn.bandlimit))
    limit, err = _extrapolate(eps, vals)
    return QuotientCurve(
        eps=eps, quotient=vals, extrapolated_limit=limit, error_estimate=err
    )
