"""Zonal function calculus on the round sphere S^d.

A zonal function U(omega) = F(omega . axis) is represented by its values on a
Gauss grid in t = omega . axis together with its coefficients in the
orthonormal zonal basis

    e_ell(t) = C_ell^lambda(t) / sqrt(|S^(d-1)| h_ell),   lambda = (d-1)/2,

where h_ell is the squared Gegenbauer L^2 weight norm. With this choice the
coefficient vector is an isometry: ||U||_2^2 on the sphere equals the plain
sum of squared coefficients, and every spectral multiplier (fractional
energy, Hessian blocks, Funk-Hecke kernels) acts diagonally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ComputationError, DomainError, PreconditionError, check_seed
from .specialfn import (
    gamma_ratio,
    gauss_rule,
    gegenbauer_at_one,
    gegenbauer_table,
    harmonic_multiplicity,
    log_gamma,
    sphere_geometry,
)

__all__ = [
    "SphereParams",
    "ZonalFn",
    "ZonalBasis",
    "SubcriticalReport",
    "zonal_basis",
    "analyze",
    "from_coeffs",
    "eval_zonal",
    "lq_norm",
    "norm2",
    "energy",
    "energy_via_gradient",
    "sobolev_quotient",
    "sharp_constant",
    "gamma_multiplier",
    "funk_hecke_eigenvalue",
    "w_weight",
    "w_weight_threeterm",
    "projection_kernel",
    "subcritical_check",
]

DEFAULT_BANDLIMIT = 64
DEFAULT_ORDER = 256


@dataclass(frozen=True)
class SphereParams:
    """Dimension d >= 2 and smoothness 0 < s < d/2; q = 2d/(d-2s)."""

    d: int
    s: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 2:
            raise DomainError("dimension d must be an integer >= 2")
        if not 0.0 < self.s < self.d / 2.0:
            raise DomainError("need 0 < s < d/2, got s=%r, d=%r" % (self.s, self.d))

    @property
    def q(self) -> float:
        return 2.0 * self.d / (self.d - 2.0 * self.s)


class ZonalBasis:
    """Orthonormal zonal basis tabulated on a Gauss grid.

    values[ell, i] holds e_ell(t_i); dvalues holds d/dt e_ell(t_i); norms[ell]
    divides the Gegenbauer polynomial into e_ell. The analysis matrix maps
    grid samples to coefficients by weighted projection.
    """

    def __init__(self, d: int, bandlimit: int, order: int):
        if bandlimit < 0:
            raise DomainError("bandlimit must be nonnegative")
        if bandlimit > order // 2:
            raise PreconditionError(
                "bandlimit %d exceeds order/2 = %d: the Gauss grid would alias"
                % (bandlimit, order // 2)
            )
        self.d = d
        self.bandlimit = bandlimit
        self.rule = gauss_rule(order, (d - 2) / 2.0)
        self.geometry = sphere_geometry(d)
        lam = (d - 1) / 2.0
        ells = np.arange(bandlimit + 1, dtype=float)
        log_h = (
            math.log(math.pi)
            + (1.0 - 2.0 * lam) * math.log(2.0)
            + log_gamma(ells + 2.0 * lam)
            - np.log(ells + lam)
            - 2.0 * log_gamma(lam)
            - log_gamma(ells + 1.0)
        )
        self.norms = norms = np.exp(
            0.5 * (log_h + math.log(self.geometry.subsphere_area))
        )
        raw = gegenbauer_table(lam, bandlimit, self.rule.nodes)
        self.values = raw / norms[:, None]
        dvals = np.zeros_like(raw)
        if bandlimit >= 1:
            upper = gegenbauer_table(lam + 1.0, bandlimit - 1, self.rule.nodes)
            dvals[1:] = 2.0 * lam * upper / norms[1:, None]
        self.dvalues = dvals
        self.analysis = (
            self.geometry.subsphere_area * self.values * self.rule.weights[None, :]
        )
        for arr in (self.norms, self.values, self.dvalues, self.analysis):
            arr.setflags(write=False)

    def values_at(self, t: np.ndarray) -> np.ndarray:
        """Basis values at arbitrary points, shape (bandlimit+1, len(t))."""
        lam = (self.d - 1) / 2.0
        raw = gegenbauer_table(lam, self.bandlimit, np.asarray(t, dtype=float))
        return raw / self.norms[:, None]


@lru_cache(maxsize=64)
def zonal_basis(d: int, bandlimit: int, order: int) -> ZonalBasis:
    return ZonalBasis(d, bandlimit, order)


@dataclass(frozen=True)
class ZonalFn:
    """Bandlimited zonal function: coefficients plus Gauss-grid samples.

    The profile F in t = omega . axis; the axis itself is not stored, since
    every computation runs in t.
    """

    params: SphereParams
    coeffs: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        if self.coeffs.ndim != 1:
            raise PreconditionError("coefficients must be one dimensional")
        for arr in (self.coeffs, self.samples):
            arr.setflags(write=False)

    @property
    def bandlimit(self) -> int:
        return len(self.coeffs) - 1

    @property
    def order(self) -> int:
        return len(self.samples)

    @property
    def basis(self) -> ZonalBasis:
        return zonal_basis(self.params.d, self.bandlimit, self.order)


def analyze(
    samples: np.ndarray, params: SphereParams, bandlimit: int = DEFAULT_BANDLIMIT
) -> ZonalFn:
    """Project grid samples onto the orthonormal zonal basis.

    ``samples`` must be the values of F at the nodes of the Gauss rule with
    weight exponent (d-2)/2 and order len(samples). Exact (to roundoff) for
    functions bandlimited at or below ``bandlimit``; otherwise an orthogonal
    projection. The result owns a copy of the samples.
    """
    samples = np.array(samples, dtype=float)
    if samples.ndim != 1:
        raise PreconditionError("samples must be one dimensional")
    basis = zonal_basis(params.d, bandlimit, len(samples))
    return ZonalFn(params=params, coeffs=basis.analysis @ samples, samples=samples)


def from_coeffs(
    coeffs: np.ndarray, params: SphereParams, order: int = DEFAULT_ORDER
) -> ZonalFn:
    """Build a ZonalFn from basis coefficients; it owns a copy of them."""
    coeffs = np.array(coeffs, dtype=float)
    basis = zonal_basis(params.d, len(coeffs) - 1, order)
    return ZonalFn(params=params, coeffs=coeffs, samples=basis.values.T @ coeffs)


def eval_zonal(fn: ZonalFn, t) -> np.ndarray | float:
    """Evaluate the bandlimited function at arbitrary t in [-1, 1]."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    table = fn.basis.values_at(tt)
    out = table.T @ fn.coeffs
    return float(out[0]) if scalar else out.reshape(np.shape(t))


def lq_norm(fn: ZonalFn, p: float) -> float:
    """L^p norm over the sphere by Gauss quadrature of |F|^p."""
    if p <= 0:
        raise DomainError("p must be positive")
    basis = fn.basis
    val = basis.geometry.subsphere_area * basis.rule.integrate(
        np.abs(fn.samples) ** p
    )
    return float(val ** (1.0 / p))


def norm2(fn: ZonalFn) -> float:
    """L^2 norm from coefficients (Parseval)."""
    return float(math.sqrt(np.dot(fn.coeffs, fn.coeffs)))


def gamma_multiplier(params: SphereParams, ell) -> float | np.ndarray:
    """Energy multiplier Gamma(ell + d/2 + s) / Gamma(ell + d/2 - s)."""
    ells = np.asarray(ell, dtype=float)
    return gamma_ratio(ells + params.d / 2.0 + params.s, ells + params.d / 2.0 - params.s)


def energy(fn: ZonalFn) -> float:
    """Fractional Dirichlet energy: sum of multiplier times squared coeffs."""
    mult = gamma_multiplier(fn.params, np.arange(fn.bandlimit + 1))
    return float(np.dot(mult, fn.coeffs**2))


def energy_via_gradient(fn: ZonalFn) -> float:
    """s = 1 energy evaluated as a gradient-form quadrature.

    Independent of the spectral route: integrates
    (1 - t^2) F'(t)^2 + (d(d-2)/4) F(t)^2 against the sphere weight.
    """
    if abs(fn.params.s - 1.0) > 1e-14:
        raise DomainError("gradient form is defined for s = 1 only")
    d = fn.params.d
    basis = fn.basis
    f = basis.values.T @ fn.coeffs
    fp = basis.dvalues.T @ fn.coeffs
    t = basis.rule.nodes
    integrand = (1.0 - t * t) * fp * fp + (d * (d - 2) / 4.0) * f * f
    return float(basis.geometry.subsphere_area * basis.rule.integrate(integrand))


def sharp_constant(params: SphereParams) -> float:
    """Best constant in energy(U) >= S ||U||_q^2 on S^d."""
    d, s = params.d, params.s
    return float(
        gamma_ratio(d / 2.0 + s, d / 2.0 - s)
        * sphere_geometry(d).area ** (2.0 * s / d)
    )


def sobolev_quotient(fn: ZonalFn) -> float:
    """energy(U) / ||U||_q^2; equals sharp_constant exactly at optimizers."""
    nq = lq_norm(fn, fn.params.q)
    if nq == 0.0:
        raise DomainError("quotient undefined for the zero function")
    return energy(fn) / nq**2


def funk_hecke_eigenvalue(d: int, alpha: float, ell: int) -> float:
    """Eigenvalue of the kernel (1 - omega . omega')^(-alpha) on degree ell.

    Closed form (4 pi)^(d/2) 2^(-alpha) Gamma(d/2 - alpha)/Gamma(alpha)
    times Gamma(ell + alpha)/Gamma(ell + d - alpha).
    """
    if not 0.0 < alpha < d / 2.0:
        raise DomainError("need 0 < alpha < d/2")
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    pref = (4.0 * math.pi) ** (d / 2.0) * 2.0 ** (-alpha)
    return float(
        pref
        * gamma_ratio(d / 2.0 - alpha, alpha)
        * gamma_ratio(ell + alpha, ell + d - alpha)
    )


def w_weight(d: int, s: float, ell: int) -> float:
    """Nonnegative spectral weight from the second-variation identity.

    Closed form (4s/(d-2s)) ell (ell+d-1) / ((ell-1+d/2+s)(ell+d/2-s));
    zero exactly at ell = 0.
    """
    SphereParams(d, s)
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    num = 4.0 * s / (d - 2.0 * s) * ell * (ell + d - 1.0)
    den = (ell - 1.0 + d / 2.0 + s) * (ell + d / 2.0 - s)
    return float(num / den)


def w_weight_threeterm(d: int, s: float, ell: int) -> float:
    """The defining three-term expression for the same weight.

    (d+2s)/(d-2s) minus the two coordinate-multiplier transfer ratios;
    agrees with w_weight to roundoff and serves as its cross-check.
    """
    SphereParams(d, s)
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    half = d / 2.0
    a = (ell - 1.0 + half - s) / (ell - 1.0 + half + s) * ell / (2.0 * ell + d - 1.0)
    b = (
        (ell + half + s)
        / (ell + half - s)
        * (ell + d - 1.0)
        / (2.0 * ell + d - 1.0)
    )
    return float((d + 2.0 * s) / (d - 2.0 * s) - a - b)


def projection_kernel(d: int, ell: int, t) -> np.ndarray | float:
    """Zonal kernel of the projection onto degree ell, trace-normalized.

    P_ell(t) = nu_ell C_ell(t) / (|S^d| C_ell(1)) with nu_ell the harmonic
    multiplicity, so that integrating P_ell(1) ... i.e. Tr P_ell = nu_ell.
    """
    lam = (d - 1) / 2.0
    nu = harmonic_multiplicity(d, ell)
    area = sphere_geometry(d).area
    scalar = np.isscalar(t) or np.ndim(t) == 0
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    vals = gegenbauer_table(lam, ell, tt)[ell]
    out = nu * vals / (area * gegenbauer_at_one(ell, lam))
    return float(out[0]) if scalar else out.reshape(np.shape(t))


@dataclass(frozen=True)
class SubcriticalReport:
    """Outcome of the subcritical interpolation scan."""

    constant: float
    argmax_ell: int
    violations: np.ndarray


# the degrees the subcritical quotient is scanned over, and the bandlimit and
# Gauss order of its random test functions
_SUBCRITICAL_L_MAX = 500
_SUBCRITICAL_BANDLIMIT, _SUBCRITICAL_ORDER = 16, 64


def subcritical_check(
    d: int, q_sub: float, n_random: int = 32, seed: int = 7
) -> SubcriticalReport:
    """Scan the spectral quotient behind the subcritical inequality.

    For s = d(1/2 - 1/q) the quotient multiplier(ell; s) over
    (ell(ell+d-1) + d/(q-2)) is scanned for ell <= _SUBCRITICAL_L_MAX; its
    max should sit at ell = 0. A tail-monotonicity guard protects against a
    scan that is too short. Random bandlimited U then validate the integral
    inequality itself: grad-energy plus d/(q-2) mass dominates the constant
    times the q-norm squared; ``violations`` holds the normalized margins
    (>= 0 means the inequality held).
    """
    qc = 2.0 * d / (d - 2.0) if d > 2 else math.inf
    if not 2.0 <= q_sub < qc:
        raise DomainError("q_sub must lie in [2, 2d/(d-2))")
    check_seed(seed)
    if q_sub == 2.0:
        return SubcriticalReport(0.0, 0, np.empty(0))
    s_sub = d * (0.5 - 1.0 / q_sub)
    ells = np.arange(_SUBCRITICAL_L_MAX + 1, dtype=float)
    mult = gamma_multiplier(SphereParams(d, s_sub), ells)
    den = ells * (ells + d - 1.0) + d / (q_sub - 2.0)
    ratio = mult / den
    if not np.all(np.diff(ratio[-100:]) < 0.0):
        raise ComputationError(
            "quotient tail is not yet decreasing at l_max=%d; raise _SUBCRITICAL_L_MAX"
            % _SUBCRITICAL_L_MAX
        )
    # The ell = 1 quotient ties ell = 0 exactly (both equal (q-2)/d up to
    # the common normalization; the coordinate directions saturate), so a
    # bare argmax flips between 0 and 1 on rounding noise. Report the
    # smallest ell within relative tie tolerance of the max.
    peak = float(np.max(ratio))
    arg = int(np.argmax(ratio >= peak * (1.0 - 1e-12)))
    constant = float(ratio[arg])

    geo = sphere_geometry(d)
    bandlimit = _SUBCRITICAL_BANDLIMIT
    basis = zonal_basis(d, bandlimit, _SUBCRITICAL_ORDER)
    rng = np.random.default_rng(seed)
    lam = d / (q_sub - 2.0)
    margins = np.empty(n_random)
    grad_eigs = np.arange(bandlimit + 1) * (np.arange(bandlimit + 1) + d - 1.0)
    for i in range(n_random):
        c = rng.standard_normal(bandlimit + 1) / (1.0 + np.arange(bandlimit + 1.0))
        samples = basis.values.T @ c
        lhs = float(np.dot(grad_eigs + lam, c * c))
        nq = geo.subsphere_area * basis.rule.integrate(
            np.abs(samples) ** q_sub
        )
        rhs = lam * geo.area ** (1.0 - 2.0 / q_sub) * nq ** (2.0 / q_sub)
        margins[i] = (lhs - rhs) / lhs
    return SubcriticalReport(constant, arg, margins)
