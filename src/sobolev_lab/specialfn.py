"""Gamma-function utilities, Gegenbauer polynomials, and Gauss-Jacobi quadrature.

Everything downstream (sphere energies, Funk-Hecke multipliers, zonal
transforms) is built from the handful of primitives in this module, so they
are kept deliberately small and heavily cross-checked:

* gamma ratios are evaluated in log space and exponentiated once, so ratios
  like Gamma(a)/Gamma(b) stay finite for a, b up to 1e4 and beyond;
* Gegenbauer values come from the three-term recursion, never from series;
* quadrature rules are generated by the Golub-Welsch procedure on the
  symmetric Jacobi recurrence, i.e. nodes are eigenvalues of a tridiagonal
  matrix and weights come from first eigenvector components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from . import _kernels
from .errors import ComputationError, DomainError

__all__ = [
    "QuadratureRule",
    "SphereGeometry",
    "log_gamma",
    "gamma_ratio",
    "gegenbauer_table",
    "gegenbauer_at_one",
    "harmonic_multiplicity",
    "gauss_rule",
    "sphere_area",
    "sphere_geometry",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for integrals of f(t) (1 - t^2)^beta over (-1, 1).

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing points in (-1, 1).
    weights : ndarray
        Positive weights, same length as ``nodes``.
    weight_exponent : float
        The exponent beta of the weight (1 - t^2)^beta.
    order : int
        Number of nodes; polynomials of degree <= 2*order - 1 are integrated
        exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    weight_exponent: float
    order: int

    def __post_init__(self):
        for arr in (self.nodes, self.weights):
            arr.setflags(write=False)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of integrand values sampled at ``nodes``."""
        return float(np.dot(self.weights, values))


@dataclass(frozen=True)
class SphereGeometry:
    """Surface measures of the round unit sphere S^dim in R^(dim+1)."""

    dim: int
    area: float
    subsphere_area: float


def log_gamma(x) -> float | np.ndarray:
    """log Gamma(x) for x > 0, scalar or array."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("log_gamma requires x > 0, got %r" % (x,))
    out = gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def gamma_ratio(a, b) -> float | np.ndarray:
    """Gamma(a) / Gamma(b), evaluated as exp(loggamma(a) - loggamma(b)).

    Safe against overflow for arguments well beyond the naive Gamma range;
    both arguments must be positive.
    """
    out = np.exp(log_gamma(a) - log_gamma(b))
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def gegenbauer_at_one(ell: int, alpha: float) -> float:
    """C_ell^alpha(1) = binom(ell + 2 alpha - 1, ell), valid for alpha > 0."""
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    if ell == 0:
        return 1.0
    return float(
        np.exp(gammaln(ell + 2.0 * alpha) - gammaln(2.0 * alpha) - gammaln(ell + 1.0))
    )


def gegenbauer_table(alpha: float, lmax: int, t: np.ndarray) -> np.ndarray:
    """All C_ell^alpha(t) for ell = 0..lmax; shape (lmax+1, len(t))."""
    if lmax < 0:
        raise DomainError("lmax must be nonnegative")
    if alpha <= 0.0:
        raise DomainError("gegenbauer requires alpha > 0")
    tt = np.asarray(t, dtype=float).ravel()
    return _kernels.gegenbauer_table(float(alpha), int(lmax), tt)


def harmonic_multiplicity(d: int, ell: int) -> int:
    """Dimension of the space of degree-ell spherical harmonics on S^d.

    Exact integer arithmetic: (d + ell - 2)! (d + 2 ell - 1) / (ell! (d-1)!).
    """
    if d < 1 or ell < 0:
        raise DomainError("need d >= 1 and ell >= 0")
    if ell == 0:
        return 1
    num = math.factorial(d + ell - 2) * (d + 2 * ell - 1)
    den = math.factorial(ell) * math.factorial(d - 1)
    if num % den != 0:
        raise ComputationError("multiplicity did not come out integral")
    return num // den


def _jacobi_offdiag_sq(n: int, beta: float) -> np.ndarray:
    """Squared off-diagonal entries of the symmetric Jacobi matrix.

    Monic recurrence coefficients b_k for the weight (1-t^2)^beta, k = 1..n-1.
    The k = 1 entry needs its own formula (the generic one degenerates when
    2 beta = -1).
    """
    k = np.arange(1, n, dtype=float)
    b = np.empty(n - 1)
    if n > 1:
        b[0] = 1.0 / (2.0 * beta + 3.0)
    if n > 2:
        kk = k[1:]
        top = 4.0 * kk * (kk + beta) ** 2 * (kk + 2.0 * beta)
        s = 2.0 * kk + 2.0 * beta
        b[1:] = top / (s * s * (s * s - 1.0))
    return b


@lru_cache(maxsize=None)
def gauss_rule(order: int, weight_exponent: float = 0.0) -> QuadratureRule:
    """Gauss rule with ``order`` nodes for the weight (1 - t^2)^beta on (-1, 1).

    Nodes and weights come from the Golub-Welsch eigenvalue problem for the
    symmetric tridiagonal Jacobi matrix. Any beta > -1 is accepted; the
    integer-dimension sphere weights beta = (d-2)/2 and the azimuthal weight
    beta = (d-3)/2 are the intended uses.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    beta = float(weight_exponent)
    if beta <= -1.0:
        raise DomainError("weight exponent must exceed -1")
    mu0 = math.sqrt(math.pi) * math.exp(gammaln(beta + 1.0) - gammaln(beta + 1.5))
    if order == 1:
        nodes = np.zeros(1)
        weights = np.array([mu0])
    else:
        off = np.sqrt(_jacobi_offdiag_sq(order, beta))
        vals, vecs = eigh_tridiagonal(np.zeros(order), off)
        nodes = vals
        weights = mu0 * vecs[0, :] ** 2
    if np.any(weights <= 0.0) or np.any(np.diff(nodes) <= 0.0):
        raise ComputationError("Golub-Welsch produced an invalid rule")
    return QuadratureRule(
        nodes=nodes, weights=weights, weight_exponent=beta, order=order
    )


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^d: 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if d < 0:
        raise DomainError("dimension must be nonnegative")
    return float(
        2.0 * math.pi ** ((d + 1) / 2.0) * math.exp(-gammaln((d + 1) / 2.0))
    )


@lru_cache(maxsize=None)
def sphere_geometry(d: int) -> SphereGeometry:
    """Areas of S^d and of its equatorial subsphere S^(d-1)."""
    if d < 1:
        raise DomainError("dimension must be >= 1")
    return SphereGeometry(dim=d, area=sphere_area(d), subsphere_area=sphere_area(d - 1))
