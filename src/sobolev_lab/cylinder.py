"""Sharp Sobolev constants and stability on the cylinder Sigma_T = S^(d-1) x R/TZ.

For omega-independent profiles the problem is one dimensional: the
Euler-Lagrange equation

    -u'' + ((d-2)/2)^2 u = (d(d-2)/4) u^(q-1),    q = 2d/(d-2),

has the constant solution u0 = ((d-2)/d)^((d-2)/4) and, at energy levels
between the well minimum and the homoclinic level, a family of positive
periodic orbits u_alpha indexed by the amplitude alpha in (u0, 1). The
period map tau(alpha) increases from T_* = 2 pi / sqrt(d-2) to infinity and
selects the optimizer branch: constants for T <= T_*, the orbit with
tau(alpha) = T above. Hessian blocks per spherical-harmonic degree, the
quadratic stability constant c_T, and the quartic (degenerate) constants at
T = T_* are all computed from Fourier-Galerkin discretizations of the
corresponding 1D operators, with closed forms cross-checking the numerics.

Normalization: the mechanical potential is V(u) = -(d-2)^2 u^2/8
+ d(d-2) u^q /(4q), so the ODE reads u'' = -V'(u) and the first integral is
H = u'^2/2 + V(u); V(1) = 0 is the homoclinic level. |Sigma_T| means
T |S^(d-1)| throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh, hankel, toeplitz
from scipy.optimize import brentq, minimize

from . import _dop853_tableau as _tableau
from .errors import (
    ComputationError,
    DomainError,
    InconsistencyError,
    PreconditionError,
)
from .specialfn import gauss_rule, sphere_area

__all__ = [
    "CylinderParams",
    "PeriodicProfile",
    "Orbit",
    "Branch",
    "QuarticConstants",
    "DegenerateCurve",
    "SplitReport",
    "SpectrumReport",
    "u0",
    "t_star",
    "potential",
    "ode_residual",
    "u_min_turning",
    "period",
    "orbit_integrals",
    "solve_orbit",
    "energy_drift",
    "inverse_period",
    "optimizer_branch",
    "profile_from_samples",
    "energy_profile",
    "lq_norm_profile",
    "quotient_profile",
    "sobolev_constant_cylinder",
    "orbit_branch_value",
    "cosh_trial_bound",
    "minimize_quotient",
    "l1_factorization_residual",
    "hessian_block_spectrum",
    "zero_mode_pairing",
    "c_T",
    "c_T_formula",
    "c_T_numeric",
    "quartic_constants",
    "degenerate_quotient_curve",
    "split_stability_terms",
    "split_stability_check",
    "distance_to_branch",
]

# The default discretization: Gauss nodes of the period quadrature, grid
# points of the branch, and Fourier modes of each Hill half; and DOP853's
# tolerance pair, for every orbit. The nodes and the tolerance pair are read
# at call time, so a self-convergence test varies them by setting the
# constant.
DEFAULT_N_THETA = 240
DEFAULT_N_GRID = 4096
DEFAULT_N_MODES = 128
DEFAULT_ODE_RTOL, DEFAULT_ODE_ATOL = 1e-12, 1e-14


def t_star(d: int) -> float:
    """Bifurcation period 2 pi / sqrt(d-2)."""
    if d < 3:
        raise DomainError("need d >= 3")
    return 2.0 * math.pi / math.sqrt(d - 2.0)


@dataclass(frozen=True)
class CylinderParams:
    """Cylinder S^(d-1) x R/TZ with the critical exponent q = 2d/(d-2)."""

    d: int
    T: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 3:
            raise DomainError("dimension d must be an integer >= 3")
        if not 0.0 < self.T < math.inf:
            raise DomainError("period T must be positive and finite, got %r" % (self.T,))

    @property
    def q(self) -> float:
        return _q_of(self.d)

    @property
    def t_star(self) -> float:
        return t_star(self.d)


def u0(d: int) -> float:
    """Value of the constant solution: ((d-2)/d)^((d-2)/4)."""
    if d < 3:
        raise DomainError("need d >= 3")
    return ((d - 2.0) / d) ** ((d - 2.0) / 4.0)


def _q_of(d: int) -> float:
    return 2.0 * d / (d - 2.0)


def _v(u, d: int):
    """V(u) on a float or on an array; ``potential`` is its public form."""
    q = _q_of(d)
    return -((d - 2.0) ** 2) * u * u / 8.0 + d * (d - 2.0) / (4.0 * q) * u**q


def potential(u, d: int):
    """Mechanical potential V(u) = -(d-2)^2 u^2/8 + d(d-2) u^q/(4q)."""
    out = _v(np.asarray(u, dtype=float), d)
    return float(out) if out.ndim == 0 else out


def _dv(u, d: int):
    q = _q_of(d)
    return -((d - 2.0) ** 2) * u / 4.0 + d * (d - 2.0) / 4.0 * u ** (q - 1.0)


def _d2v(u, d: int):
    q = _q_of(d)
    return -((d - 2.0) ** 2) / 4.0 + d * (d - 2.0) * (q - 1.0) / 4.0 * u ** (
        q - 2.0
    )


def _d3v(u, d: int):
    q = _q_of(d)
    return d * (d - 2.0) * (q - 1.0) * (q - 2.0) / 4.0 * u ** (q - 3.0)


def ode_residual(d: int, u: float) -> float:
    """Residual of the stationary equation at a constant value u."""
    return float(_dv(np.asarray(u, dtype=float), d))


def _check_alpha(d: int, alpha: float) -> None:
    lo = u0(d)
    if not lo < alpha < 1.0:
        raise DomainError(
            "amplitude must lie in (u0, 1) = (%.6f, 1), got %r" % (lo, alpha)
        )


# Below this amplitude the period map runs on the Taylor series about u0.
# Against a 50-digit quadrature of the same integral (d = 3..6, amplitudes
# 1e-5 .. 0.9 (1 - u0)), the series route, cut after the fifth derivative,
# is within 2.4e-13 up to amp = 1e-3 and 3.8e-12 just below 2e-3, its error
# growing like amp^4; the direct route cancels V(alpha) - V(u) at order
# amp^2, is off by up to 5.6e-10 between 3e-4 and 2e-3, and by at most
# 2.7e-11 above. The two errors cross at about 2e-3.
_SMALL_AMP = 2e-3


def _v_derivs_at_u0(d: int) -> tuple:
    """(V'', V''', V'''', V''''') at the well minimum; V''(u0) = d-2 exactly."""
    q = _q_of(d)
    c = d * (d - 2.0) / 4.0
    u = u0(d)
    v3 = c * (q - 1.0) * (q - 2.0) * u ** (q - 3.0)
    v4 = c * (q - 1.0) * (q - 2.0) * (q - 3.0) * u ** (q - 4.0)
    v5 = c * (q - 1.0) * (q - 2.0) * (q - 3.0) * (q - 4.0) * u ** (q - 5.0)
    return d - 2.0, v3, v4, v5


def _series_gap(derivs: tuple, a: float, y: float) -> float:
    """V(u0 + y) - V(u0 + a) by the Taylor series of V about u0."""
    v2, v3, v4, v5 = derivs
    return (
        v2 / 2.0 * (y * y - a * a)
        + v3 / 6.0 * (y**3 - a**3)
        + v4 / 24.0 * (y**4 - a**4)
        + v5 / 120.0 * (y**5 - a**5)
    )


def _series_w(derivs: tuple, a: float, off: float, x):
    """W at the offsets x on the Taylor series of V about u0.

    The bracket (V(u0+a) - V(u0+x)) / (a - x) is the quartic sum_i p_i x^i,
    p_i = sum_(k > i) c_k a^(k-1-i) for the Taylor coefficients c_k of V
    (c_1 = 0), and it vanishes at the turning offset off. W is its quotient
    by (x - off), by synthetic division: every term is a product of small
    quantities, no node divides by a small x - off, and the remainder, the
    residual of the root off, is dropped.
    """
    v2, v3, v4, v5 = derivs
    p = q = w = 0.0
    for c in (v5 / 120.0, v4 / 24.0, v3 / 6.0, v2 / 2.0):
        p = c + a * p  # p_4 .. p_1
        q = p + off * q  # quotient coefficients q_3 .. q_0
        w = w * x + q
    return w


def _root(f, a: float, b: float, **tol) -> float:
    """brentq's root of f in [a, b]; ComputationError when it did not converge."""
    x, info = brentq(f, a, b, full_output=True, disp=False, **tol)
    if not info.converged:
        raise ComputationError(
            "brentq did not converge in [%.17g, %.17g]: %s" % (a, b, info.flag)
        )
    return float(x)


def _turning_offset(derivs: tuple, amp: float) -> float:
    """Root of V(u0 + y) = V(u0 + amp) below zero, in offset coordinates."""
    return _root(
        lambda y: _series_gap(derivs, amp, y),
        -2.0 * amp,
        -amp * (1.0 - 1e-12),
        xtol=amp * 1e-12,
        rtol=8.9e-16,
    )


def _direct_turning(d: int, level: float, base: float) -> float:
    """Root of V(u) = level in (0, u0), on V in floats.

    V's constants are bound once, and each evaluation runs ``_v``'s
    operations in ``_v``'s order, so every iterate is ``_v``'s bit for bit.
    """
    q = _q_of(d)
    a, b = -((d - 2.0) ** 2), d * (d - 2.0) / (4.0 * q)
    return _root(
        lambda u: a * u * u / 8.0 + b * u**q - level, 1e-14, base, xtol=1e-15, rtol=8.9e-16
    )


def u_min_turning(d: int, alpha: float) -> float:
    """Lower turning point: the root of V(u) = V(alpha) below u0.

    Near the well minimum the two potential values agree to within roundoff
    of V(u0), so the root find switches to the Taylor series of V about u0,
    where the equation is built from well-scaled small terms.
    """
    _check_alpha(d, alpha)
    alpha = float(alpha)
    base = u0(d)
    amp = alpha - base
    if amp < _SMALL_AMP:
        return base + _turning_offset(_v_derivs_at_u0(d), amp)
    return _direct_turning(d, _v(alpha, d), base)


@dataclass(frozen=True)
class _ThetaTable:
    """The turning-point quadrature on n nodes, and what its nodes fix.

    Gauss-Legendre weights on (0, pi/2), sin^2 and 1 - sin^2 of the nodes,
    and the runs of nodes within the relative band 1e-3 of the lower
    turning point (sin^2 < 1e-3), of the upper one (1 - sin^2 < 1e-3) and of
    neither, as slices: the nodes ascend. None of them depends on d or alpha.
    """

    wts: np.ndarray
    st2: np.ndarray
    ct2: np.ndarray
    near_min: slice
    bulk: slice
    near_max: slice

    def __post_init__(self):
        for arr in (self.wts, self.st2, self.ct2):
            arr.setflags(write=False)


@lru_cache(maxsize=None)
def _theta_table(n: int) -> _ThetaTable:
    base = gauss_rule(n, 0.0)
    theta = (base.nodes + 1.0) * (math.pi / 4.0)
    st2 = np.sin(theta) ** 2
    ct2 = 1.0 - st2
    lo = int(np.count_nonzero(st2 < 1e-3))
    hi = n - int(np.count_nonzero(ct2 < 1e-3))
    return _ThetaTable(
        wts=base.weights * (math.pi / 4.0),
        st2=st2,
        ct2=ct2,
        near_min=slice(0, lo),
        bulk=slice(lo, hi),
        near_max=slice(hi, n),
    )


def _w_values(d: int, alpha: float, tab: _ThetaTable) -> tuple:
    """Regularized integrand factor W on the turning-point substitution.

    With u = umin + (alpha-umin) sin^2(theta) the first-integral difference
    factorizes as V(alpha) - V(u) = (alpha-u)(u-umin) W(u) with W smooth and
    positive. Direct evaluation of the difference cancels catastrophically
    within a relative band of 1e-3 at either endpoint, so there W is replaced
    by a three-term Taylor expansion of V about the endpoint. For small
    amplitudes the whole difference drowns in roundoff of V(u0), so the
    computation moves entirely to offset coordinates about u0, where W is
    the quotient of the factored Taylor series and every term is well scaled.
    The turning point is solved here, once; the level and the endpoint
    coefficients are Python floats.
    """
    alpha = float(alpha)
    base = u0(d)
    amp = alpha - base

    if amp < _SMALL_AMP:
        # all arithmetic in offsets from u0; umin = u0 + off would round off
        derivs = _v_derivs_at_u0(d)
        off = _turning_offset(derivs, amp)
        span = amp - off
        ub = span * tab.st2
        x = off + ub
        u = base + x
        au = span * tab.ct2
        w = _series_w(derivs, amp, off, x)
    else:
        level = _v(alpha, d)
        umin = _direct_turning(d, level, base)
        span = alpha - umin
        ub = span * tab.st2
        u = umin + ub
        au = span * tab.ct2
        w = np.empty_like(u)
        band = tab.bulk
        w[band] = (level - _v(u[band], d)) / (au[band] * ub[band])
        band = tab.near_min
        xs = ub[band]
        w[band] = -(
            _dv(umin, d) + 0.5 * _d2v(umin, d) * xs + _d3v(umin, d) * xs * xs / 6.0
        ) / au[band]
        band = tab.near_max
        xs = au[band]
        w[band] = (
            _dv(alpha, d) - 0.5 * _d2v(alpha, d) * xs + _d3v(alpha, d) * xs * xs / 6.0
        ) / ub[band]
    if np.any(w <= 0.0):
        raise ComputationError("turning-point factor lost positivity")
    return u, au, ub, w


def period(d: int, alpha: float) -> float:
    """Minimal period tau(alpha) by regularized turning-point quadrature."""
    _check_alpha(d, alpha)
    tab = _theta_table(DEFAULT_N_THETA)
    w = _w_values(d, alpha, tab)[3]
    return float(2.0 * math.sqrt(2.0) * np.dot(tab.wts, 1.0 / np.sqrt(w)))


def orbit_integrals(d: int, alpha: float) -> tuple:
    """Period integrals (i_energy, i_q) of the orbit.

    i_energy = int u'^2 + ((d-2)^2/4) int u^2 and i_q = int u^q, over one
    full period, by the same regularized quadrature as the period itself
    (the kinetic integral carries the vanishing factor explicitly, so it
    needs no regularization).
    """
    _check_alpha(d, alpha)
    q = _q_of(d)
    tab = _theta_table(DEFAULT_N_THETA)
    wts = tab.wts
    u, au, ub, w = _w_values(d, alpha, tab)
    root = 1.0 / np.sqrt(w)
    fac = 2.0 * math.sqrt(2.0)
    i_q = fac * np.dot(wts, u**q * root)
    i_2 = fac * np.dot(wts, u * u * root)
    i_kin = fac * np.dot(wts, 2.0 * au * ub * np.sqrt(w))
    return float(i_kin + (d - 2.0) ** 2 / 4.0 * i_2), float(i_q)


@dataclass(frozen=True)
class Orbit:
    """The orbit with amplitude alpha, by its ODE period."""

    d: int
    alpha: float
    period: float


def _rhs(d: int):
    """The orbit's right-hand side (u, u') -> (u', u'') at dimension d.

    Its constants are computed once here, not at every stage. The float
    steps pass y as two floats, so every stage is float arithmetic, each
    product in the order of u'' = ((d-2)^2/4) u - (d(d-2)/4) |u|^(q-2) u.
    """
    c, k, e = (d - 2.0) ** 2 / 4.0, d * (d - 2.0) / 4.0, _q_of(d) - 2.0

    def rhs(t, y):
        u, up = y
        return (up, c * u - k * abs(u) ** e * u)

    return rhs


# scipy's RungeKutta step-size control, its floor on rtol, and DOP853's error
# exponent and its error and interpolation weights
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_MIN_RTOL = 100 * np.finfo(float).eps
_EXPONENT = -1 / (_tableau.ERROR_ESTIMATOR_ORDER + 1)
_E5, _E3, _D = (np.array(w) for w in (_tableau.E5, _tableau.E3, _tableau.D))


def _initial_step(fun, t_end: float, y: tuple, f: tuple, rtol: float, atol: float) -> float:
    """scipy's starting step for DOP853 from 0 towards t_end, in floats.

    The rule of scipy's ``select_initial_step`` (Hairer-Norsett-Wanner,
    *Solving ODEs I*, sec. II.4) with its RMS norm, from the state y and its
    slope f = fun(0, y); it makes one more evaluation of fun. numpy's norm
    of a 2-vector is sqrt(dot), which equals sqrt(a * a + b * b) when one
    component is 0. An orbit that starts at rest (u' = 0) has y = (alpha, 0),
    f = (0, u'') and f1 - f = (h0 u'', 0), so the step is scipy's bit for
    bit (the tests check it against the constructor's ``h_abs``).
    """
    s0, s1 = atol + abs(y[0]) * rtol, atol + abs(y[1]) * rtol
    root2 = 2**0.5

    def norm(a, b):
        a, b = a / s0, b / s1
        return math.sqrt(a * a + b * b) / root2

    d0, d1 = norm(*y), norm(*f)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = fun(h0, (y[0] + h0 * f[0], y[1] + h0 * f[1]))
    d2 = norm(f1[0] - f[0], f1[1] - f[1]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_tableau.ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, t_end)


class _Steps:
    """The accepted steps of one float DOP853 run, and scipy's nfev count.

    Step i runs from t[i] to t[i+1] = t[i] + h[i] and from the state y[:, i]
    to y[:, i+1]. Its 7 interpolation coefficients coef[:, :, i] are built
    from its 16 stages as scipy's DOP853 builds them for one step
    (F[3:] = h D K), here once for every step of the run. Components come
    first and steps last, so that sampling many times runs along rows.
    """

    def __init__(self, t: list, y: list, stages: list, nfev: int):
        """t: the step times; y and stages: the states and every step's 16
        stages, as flat lists of floats in (u, u') pairs."""
        self.t, self.nfev = np.array(t), nfev
        self.h = np.diff(self.t)
        y = np.array(y).reshape(len(t), 2)
        k = np.array(stages).reshape(len(self.h), 16, 2)
        dy = np.diff(y, axis=0)
        hc = self.h[:, None]
        coef = np.empty((len(self.h), 7, 2))
        coef[:, 0] = dy
        coef[:, 1] = hc * k[:, 0] - dy
        coef[:, 2] = 2.0 * dy - hc * (k[:, 12] + k[:, 0])
        coef[:, 3:] = self.h[:, None, None] * (_D @ k)
        self.y, self.coef = y.T.copy(), coef.transpose(1, 2, 0).copy()


def _dop853(fun, t_end: float, y_start: tuple, rtol: float, atol: float) -> _Steps:
    """scipy's DOP853 over [0, t_end > 0] for two equations, stepped in Python floats.

    scipy's ``solve_ivp`` takes every stage, error norm and dense-output
    stage as numpy arithmetic on 2-element arrays, while the orbit needs only
    27-42 steps per half period. The method is scipy's: ``_initial_step``
    supplies its starting step, the generated ``_dop853_tableau`` its
    tableau and stages, and this loop its error norm and step-size control
    (no ``max_step``: scipy's default is infinite), so ``scipy.integrate`` is
    never imported. nfev counts as scipy does: 2 for the start (the slope at
    0 and the starting step's evaluation), 12 per attempted step and 3 per
    dense output, which every accepted step gets. So the steps are scipy's;
    only the stages' roundoff differs. The error estimate cancels to
    roundoff, so its two sums over the stages are numpy's dot on the stage
    array, in scipy's order: summed in another order, the steps accepted or
    rejected other steps than scipy on 18 of 492 amplitudes within 60 ulp of
    the branch roots at d = 3..6, T = 1.2..2 T_*. ``fun`` takes and returns
    (u, u') as two floats (``_rhs(d)`` does).

    On a 2-core host scipy's own steps took 8.0 ms per half period (d = 3..5,
    T = 1.5 and 2 T_*, medians of 3 alternating processes). Float steps
    driven by ``solve_ivp`` through scipy's private step hooks took 0.85-0.90
    ms at d = 4, 1.4 T_*; this loop takes 0.53-0.55 ms there (minimum of 60
    calls interleaved with the hooked version, 3 processes).
    """
    attempt, extra, exponent = _tableau.attempt, _tableau.extra, _EXPONENT
    rtol, atol = max(float(rtol), _MIN_RTOL), float(atol)
    y0, y1 = (float(v) for v in y_start)
    f0, f1 = fun(0.0, (y0, y1))
    h_abs = _initial_step(fun, t_end, (y0, y1), (f0, f1), rtol, atol)
    nfev = 2
    t, ts, ys, stages = 0.0, [0.0], [y0, y1], []
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ComputationError(
                    "orbit integration failed: the step fell below the float "
                    "spacing at t = %r" % t
                )
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            n0, n1, ks = attempt(fun, t, y0, y1, f0, f1, h)
            nfev += 12
            # the error sums in scipy's order (docstring)
            k = np.fromiter(ks, float, 26).reshape(13, 2).T
            e50, e51 = np.dot(k, _E5).tolist()
            e30, e31 = np.dot(k, _E3).tolist()
            s0 = atol + max(abs(y0), abs(n0)) * rtol
            s1 = atol + max(abs(y1), abs(n1)) * rtol
            err5 = (e50 / s0) ** 2 + (e51 / s1) ** 2
            err3 = (e30 / s0) ** 2 + (e31 / s1) ** 2
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**exponent)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**exponent)
            rejected = True
        stages += ks
        stages += extra(fun, t, y0, y1, h, ks)
        nfev += 3
        t, y0, y1, f0, f1 = t_new, n0, n1, ks[24], ks[25]
        ts.append(t)
        ys += n0, n1
    return _Steps(ts, ys, stages, nfev)


# the benchmark's cylinder.ode span wraps this name and reads the run's .nfev
solve_ivp = _dop853


def _dop853_eval(steps: _Steps, seg, t) -> np.ndarray:
    """The DOP853 interpolant of step seg[i] at t[i], shape (2, len(t)).

    Evaluates the polynomial in ``steps.coef`` as scipy's Dop853DenseOutput
    does.
    """
    x = (t - steps.t[seg]) / steps.h[seg]
    factors = (x, 1.0 - x)
    coef = steps.coef[:, :, seg]
    y = np.zeros((2, len(seg)))
    for i in range(7):
        y += coef[6 - i]
        y *= factors[i % 2]
    return y + steps.y[:, seg]


def _sample(steps: _Steps, t) -> np.ndarray:
    """u and u' at the times t of a float DOP853 run, in one pass."""
    # the step a time falls in, a boundary going to the earlier step, as in
    # scipy's OdeSolution
    seg = np.clip(np.searchsorted(steps.t, t, side="left") - 1, 0, len(steps.h) - 1)
    return _dop853_eval(steps, seg, t)


def _integrate(d: int, alpha: float, t_end: float) -> _Steps:
    return solve_ivp(_rhs(d), t_end, (alpha, 0.0), DEFAULT_ODE_RTOL, DEFAULT_ODE_ATOL)


def _turning_time(steps: _Steps) -> float:
    """The first rising zero of u' over the float steps of an orbit.

    The first step whose end states bracket it (u'_old <= 0 <= u'_new; the
    start, where u' = 0 and falls, does not) is root-found on its
    interpolant, with scipy's event tolerance xtol = rtol = 4 eps: the root
    scipy's terminal event on u' would report.
    """
    up = steps.y[1]
    hits = np.flatnonzero((up[:-1] <= 0.0) & (up[1:] >= 0.0))
    if not len(hits):
        raise ComputationError("no turning point detected within the window")
    i = int(hits[0])
    seg = np.array([i])
    tol = 4.0 * np.finfo(float).eps  # scipy's solve_event_equation
    return _root(
        lambda t: _dop853_eval(steps, seg, np.array([t]))[1, 0],
        steps.t[i].item(),
        steps.t[i + 1].item(),
        xtol=tol,
        rtol=tol,
    )


def _mirrored_samples(steps: _Steps, step: float, n: int) -> tuple:
    """u and u' at t_j = j step, j < n, of an orbit that starts at its maximum.

    The ODE is reversible and u'(0) = 0, so over one period P = n step the
    orbit obeys u(P - t) = u(t) and u'(P - t) = -u'(t). Only the first half
    of the grid is read, by ``_sample`` from the float DOP853 run ``steps``,
    which needs to cover [0, P/2]; every later sample copies its mirror, so u
    is exactly even and u' exactly odd on the grid (u' = 0 at a sample on
    P/2).
    """
    half = n // 2
    u, up = np.empty(n), np.empty(n)
    u[: half + 1], up[: half + 1] = _sample(steps, np.arange(half + 1) * step)
    if n % 2 == 0:
        up[half] = 0.0
    u[half + 1 :] = u[1 : n - half][::-1]
    up[half + 1 :] = -up[1 : n - half][::-1]
    return u, up


def solve_orbit(d: int, alpha: float) -> Orbit:
    """The ODE period: twice the time from the maximum to the turning point.

    The profile starts at its maximum (u(0) = alpha, u'(0) = 0) and descends
    to the turning point at half period, the rising zero of u' (found by
    ``_turning_time``) on an adaptive half-period run. The independent
    quadrature period brackets the integration window. ``optimizer_branch``
    holds the orbit's samples.
    """
    _check_alpha(d, alpha)
    tau_quad = period(d, alpha)
    steps = _integrate(d, alpha, 0.51 * tau_quad)
    return Orbit(d, alpha, 2.0 * _turning_time(steps))


# the periods over which energy_drift follows the orbit
_DRIFT_PERIODS = 5


def energy_drift(d: int, alpha: float) -> float:
    """Max drift of the first integral over ``_DRIFT_PERIODS`` periods."""
    _check_alpha(d, alpha)
    tau = period(d, alpha)
    tgrid = np.linspace(0.0, _DRIFT_PERIODS * tau, 2048)
    u, up = _sample(_integrate(d, alpha, _DRIFT_PERIODS * tau), tgrid)
    h = 0.5 * up * up + potential(u, d)
    return float(np.max(np.abs(h - potential(alpha, d))))


def inverse_period(d: int, T: float) -> float:
    """Amplitude with tau(alpha) = T, using monotonicity of the period map.

    The decade amplitudes 1 - 10^-j bracket the root: the last one whose
    period is below T (or u0 (1 + 1e-9) when none is) and the first one
    whose period exceeds T. brentq starts by evaluating both ends, and is
    handed their known periods, so no amplitude is evaluated twice.
    """
    ts = t_star(d)
    if not ts < T < math.inf:
        raise DomainError("inverse period needs a finite T > T_* = %.12g, got %r" % (ts, T))
    lo, f_lo = u0(d) * (1.0 + 1e-9), None
    for j in range(2, 15):
        cand = 1.0 - 10.0 ** (-j)
        if cand <= lo:
            continue
        gap = period(d, cand) - T
        if gap > 0.0:
            hi, f_hi = cand, gap
            break
        lo, f_lo = cand, gap
    else:
        raise ComputationError("could not bracket the amplitude below 1")
    if f_lo is None:
        f_lo = period(d, lo) - T
        if f_lo >= 0.0:
            raise ComputationError("period at the lower bracket already exceeds T")
    known = {lo: f_lo, hi: f_hi}
    return _root(
        lambda a: known.pop(a) if a in known else period(d, a) - T,
        lo,
        hi,
        xtol=1e-14,
        rtol=8.9e-16,
    )


@dataclass(frozen=True)
class Branch:
    """The optimizer branch u_* of the period-T cylinder on a uniform grid.

    At and below T_* u_* is the constant alpha = u0; above, it is the orbit
    whose period is T, with alpha its amplitude (the ``inverse_period``
    root). u and u' sit at t_j = j T / N, j < N; ``optimizer_branch`` builds
    them.
    """

    params: CylinderParams
    alpha: float
    u: np.ndarray
    up: np.ndarray

    def __post_init__(self):
        for arr in (self.u, self.up):
            arr.setflags(write=False)


def optimizer_branch(d: int, T: float, n_grid: int = DEFAULT_N_GRID) -> Branch:
    """The optimizer branch at (d, T), sampled on n_grid points.

    Above T_* the orbit is integrated over half a period and mirrored, so u
    is exactly even and u' exactly odd on the grid.
    """
    if n_grid < 1:
        raise DomainError("need n_grid >= 1, got %r" % (n_grid,))
    params = CylinderParams(d=d, T=T)
    if T <= params.t_star:
        alpha = u0(d)
        return Branch(params, alpha, np.full(n_grid, alpha), np.zeros(n_grid))
    alpha = inverse_period(d, T)
    steps = _integrate(d, alpha, 0.5 * T)
    u, up = _mirrored_samples(steps, T / n_grid, n_grid)
    return Branch(params, alpha, u, up)


# ---------------------------------------------------------------------------
# periodic profiles


@dataclass(frozen=True)
class PeriodicProfile:
    """omega-independent function on the cylinder.

    samples sit on the uniform grid t_j = j T / M, j < M.
    """

    params: CylinderParams
    samples: np.ndarray

    def __post_init__(self):
        self.samples.setflags(write=False)


def profile_from_samples(
    params: CylinderParams, samples: np.ndarray
) -> PeriodicProfile:
    """A profile owning a float copy of nonempty 1-D uniform-grid samples."""
    samples = np.array(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise PreconditionError(
            "profile samples must be a nonempty 1-D array, got shape %r"
            % (samples.shape,)
        )
    return PeriodicProfile(params=params, samples=samples)


def _energy_form(params: CylinderParams, m: int) -> tuple:
    """(omega, form): E_T on the rfft bins of m uniform samples of one period.

    omega holds the bins' angular frequencies 2 pi k / T, and form(power) is
    |S^(d-1)| T/m^2 sum_k mult_k (omega_k^2 + ((d-2)/2)^2) power_k, where
    mult_k = 2 counts the conjugate bin that rfft leaves out (1 for k = 0
    and, m even, k = m/2). So form(|rfft(u)|^2) = E_T[u].
    """
    n = m // 2 + 1
    omega = 2.0 * math.pi / params.T * np.arange(n)
    mult = np.full(n, 2.0)
    mult[0] = 1.0
    if m % 2 == 0:
        mult[-1] = 1.0
    weight = mult * (omega**2 + (params.d - 2.0) ** 2 / 4.0)
    area = sphere_area(params.d - 1)

    def form(power) -> float:
        return area * (params.T / (m * m) * float(np.dot(weight, power)))

    return omega, form


def energy_profile(profile: PeriodicProfile) -> float:
    """E_T[u] = |S^(d-1)| int (u'^2 + ((d-2)/2)^2 u^2) dt, spectrally exact."""
    _, form = _energy_form(profile.params, len(profile.samples))
    return form(np.abs(np.fft.rfft(profile.samples)) ** 2)


def lq_norm_profile(profile: PeriodicProfile) -> float:
    """L^q norm over the cylinder at the critical exponent q, on the grid."""
    p = profile.params
    m = len(profile.samples)
    val = (
        sphere_area(p.d - 1)
        * p.T
        / m
        * float(np.sum(np.abs(profile.samples) ** p.q))
    )
    return val ** (1.0 / p.q)


def quotient_profile(profile: PeriodicProfile) -> float:
    nq = lq_norm_profile(profile)
    if nq == 0.0:
        raise DomainError("quotient undefined for the zero profile")
    return energy_profile(profile) / nq**2


def _constant_branch_value(d: int, T: float) -> float:
    """Quotient ((d-2)^2/4) |Sigma_T|^(1-2/q) of the constant branch at period T."""
    return (d - 2.0) ** 2 / 4.0 * (T * sphere_area(d - 1)) ** (1.0 - 2.0 / _q_of(d))


def sobolev_constant_cylinder(d: int, T: float) -> float:
    """Sharp constant S_d(T) on the cylinder.

    Constant branch ((d-2)^2/4) |Sigma_T|^(1-2/q) for T <= T_*; the
    single-bump orbit branch quotient for T > T_*. ``minimize_quotient`` is
    the independent route to the same value.
    """
    params = CylinderParams(d=d, T=T)
    if T <= params.t_star:
        return float(_constant_branch_value(d, T))
    return orbit_branch_value(d, T)


def orbit_branch_value(d: int, T: float) -> float:
    """Quotient of the single-bump orbit branch on the period-T cylinder.

    The branch exists for T > T_*; ``inverse_period`` refuses any other T.
    """
    q = CylinderParams(d=d, T=T).q
    alpha = inverse_period(d, T)
    i_energy, i_q = orbit_integrals(d, alpha)
    area = sphere_area(d - 1)
    return float(area ** (1.0 - 2.0 / q) * i_energy / i_q ** (2.0 / q))


def l1_factorization_residual(br: Branch) -> float:
    """Residual of the degree-1 annihilation identity along the branch.

    v = e^(sigma t)(u' + sigma (d-2)/2 u), sigma = +-1, solves the degree-1
    Hessian ODE -v'' + ((d-1) + ((d-2)/2)^2) v = (d(d+2)/4) u^(q-2) v exactly;
    returns the max residual on the branch grid t_j = j T / N relative to the
    max of |v|, worst sigma.

    u'' and u''' are formed from the ODE, and with them the identity holds
    pointwise for any samples u and u': the residual is roundoff (uniform
    random u in [0.1, 1] and normal u' read at most 7.6e-16 over 20 draws at
    d = 3, T = 9), so it cannot see a wrong orbit.
    """
    d = br.params.d
    q = _q_of(d)
    beta = (d - 2.0) / 2.0
    u, up = br.u, br.up
    t = np.arange(len(u)) * (br.params.T / len(u))
    upp = beta**2 * u - d * (d - 2.0) / 4.0 * u ** (q - 1.0)
    uppp = beta**2 * up - d * (d - 2.0) / 4.0 * (q - 1.0) * u ** (q - 2.0) * up
    worst = 0.0
    for sigma in (1.0, -1.0):
        expf = np.exp(sigma * t)
        v = expf * (up + sigma * beta * u)
        vpp = expf * (
            uppp + sigma * beta * upp + 2.0 * sigma * upp + 2.0 * beta * up
            + up + sigma * beta * u
        )
        res = -vpp + (d - 1.0 + beta**2) * v - d * (d + 2.0) / 4.0 * u ** (
            q - 2.0
        ) * v
        worst = max(worst, float(np.max(np.abs(res)) / np.max(np.abs(v))))
    return worst


# Gauss-Legendre nodes of the trial quotient on (0, T/2)
_COSH_NODES = 400


def cosh_trial_bound(d: int, T: float) -> float:
    """Upper bound on S_d(T) from the truncated homoclinic trial profile.

    Places cosh^(-(d-2)/2) centered in the period window and evaluates its
    quotient by Gauss quadrature on (0, T/2); always strictly between
    S_d(T) and the sphere constant S_d.
    """
    CylinderParams(d=d, T=T)
    q = _q_of(d)
    base = gauss_rule(_COSH_NODES, 0.0)
    tt = (base.nodes + 1.0) * (T / 4.0)
    wt = base.weights * (T / 4.0)
    qq = np.cosh(tt) ** (-(d - 2.0) / 2.0)
    qp2 = (d - 2.0) ** 2 / 4.0 * qq * qq * np.tanh(tt) ** 2
    area = sphere_area(d - 1)
    e_half = float(np.dot(wt, qp2 + (d - 2.0) ** 2 / 4.0 * qq * qq))
    q_half = float(np.dot(wt, qq**q))
    return 2.0 * area * e_half / (2.0 * area * q_half) ** (2.0 / q)


# the descent's starts: two cosine bumps, then random ones from this seed;
# the grid it descends on, an eighth of the branch's; and its iteration cap
_DESCENT_STARTS = 3
_DESCENT_SEED = 0
_DESCENT_GRID = 512
_DESCENT_MAXITER = 4000


def minimize_quotient(d: int, T: float) -> tuple:
    """Direct minimization of the quotient over gridded profiles.

    Works on the sample values with FFT-differentiation energies; returns
    (value, PeriodicProfile of the best minimizer found) over the
    ``_DESCENT_STARTS`` starts whose L-BFGS-B run converged, and raises when
    none did. Serves as the independent route validating the branch formula.
    """
    params = CylinderParams(d=d, T=T)
    q = params.q
    area = sphere_area(d - 1)
    m = _DESCENT_GRID
    h = T / m
    omega = 2.0 * math.pi / T * np.arange(m // 2 + 1)
    beta2 = (d - 2.0) ** 2 / 4.0

    def split(x):
        spec = np.fft.rfft(x)
        lap = np.fft.irfft(omega**2 * spec, n=m)
        kin = float(np.dot(x, lap)) * h
        mass = float(np.dot(x, x)) * h
        e_val = area * (kin + beta2 * mass)
        grad_e = area * h * (2.0 * lap + 2.0 * beta2 * x)
        iq = float(np.sum(np.abs(x) ** q)) * h
        nq2 = (area * iq) ** (2.0 / q)
        grad_n = (
            2.0
            * (area * iq) ** (2.0 / q - 1.0)
            * area
            * h
            * np.abs(x) ** (q - 2.0)
            * x
        )
        return e_val, grad_e, nq2, grad_n

    def objective(x):
        e_val, grad_e, nq2, grad_n = split(x)
        f = e_val / nq2
        g = (grad_e - f * grad_n) / nq2
        return f, g

    tgrid = np.arange(m) * h
    base = u0(d)
    rng = np.random.default_rng(_DESCENT_SEED)
    starts = [
        base + 0.3 * base * np.cos(2.0 * math.pi * tgrid / T),
        base - 0.3 * base * np.cos(2.0 * math.pi * tgrid / T),
    ]
    for _ in range(_DESCENT_STARTS - 2):
        bump = rng.standard_normal(5)
        pert = sum(
            bump[j] * np.cos(2.0 * math.pi * (j + 1) * tgrid / T + bump[j] ** 2)
            for j in range(5)
        )
        starts.append(base * (1.0 + 0.1 * pert))

    best_val, best_x = math.inf, None
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": _DESCENT_MAXITER, "ftol": 1e-15, "gtol": 1e-11},
        )
        # only converged starts compete: a run cut off by the cap stops
        # anywhere on its way down
        if res.success and res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    if best_x is None:
        raise ComputationError("quotient descent converged from no start")
    return best_val, profile_from_samples(params, best_x)


# ---------------------------------------------------------------------------
# Hessian blocks (Hill discretization)


def _grid_spectrum(x: np.ndarray, n_modes: int) -> np.ndarray:
    """rfft(x) / N of uniform-grid samples, checked to resolve 2 n_modes."""
    if len(x) < 2 * (2 * n_modes + 1):
        raise PreconditionError("grid too coarse for the requested modes")
    return np.fft.rfft(x) / len(x)


def _trig_coords(x: np.ndarray, T: float, n_modes: int) -> np.ndarray:
    """Coordinates h phi x of grid samples in the orthonormal trig basis phi.

    phi is 1/sqrt(T), sqrt(2/T) cos(2 pi k t/T), sqrt(2/T) sin(2 pi k t/T) in
    the block order constant, cos_1..cos_K, sin_1..sin_K (K = n_modes): the
    first K + 1 rows span the even functions and the last K the odd ones.
    """
    xh = _grid_spectrum(x, n_modes)
    out = np.empty(2 * n_modes + 1)
    out[0] = math.sqrt(T) * xh[0].real
    out[1 : n_modes + 1] = math.sqrt(2.0 * T) * xh[1 : n_modes + 1].real
    out[n_modes + 1 :] = -math.sqrt(2.0 * T) * xh[1 : n_modes + 1].imag
    return out


def _multiplication_halves(w: np.ndarray, n_modes: int) -> tuple:
    """Cosine and sine halves of the Gram matrix h phi diag(w) phi^T.

    In w^ = rfft(w)/N the cos_k-cos_l entry is Re w^_|k-l| + Re w^_(k+l) and
    the sin_k-sin_l entry Re w^_|k-l| - Re w^_(k+l): Toeplitz plus and minus
    Hankel. The constant row is Re w^_0, then sqrt(2) Re w^_k against cos_k.
    Exact, not an approximation of the grid sum: k + l <= 2 n_modes < N/2, so
    no index aliases. Returns ((even half, odd half), coupling): every entry
    of the dropped block between the halves is a sum of at most two of
    Im w^_1..Im w^_2K, so coupling = 2 max |Im w^_j| bounds it.
    """
    wh = _grid_spectrum(w, n_modes)
    re = wh.real[: 2 * n_modes + 1]
    coupling = 2.0 * float(np.max(np.abs(wh.imag[1 : 2 * n_modes + 1])))
    toep = toeplitz(re[:n_modes])
    hank = hankel(re[2 : n_modes + 2], re[n_modes + 1 :])
    even = np.empty((n_modes + 1, n_modes + 1))
    even[0, 0] = re[0]
    even[0, 1:] = even[1:, 0] = math.sqrt(2.0) * re[1 : n_modes + 1]
    even[1:, 1:] = toep + hank
    return (even, toep - hank), coupling


def _assemble_block(br: Branch, n_modes: int, n_grid: int) -> tuple:
    """Galerkin halves of L and the diagonal of B for the degree-0 Hessian block.

    L is -d^2/dt^2 + ((d-2)/2)^2 - (d(d+2)/4) u_*^(q-2), without the q-norm
    term (``_q_norm_term``); B is the E_T-form -d^2/dt^2 + ((d-2)/2)^2,
    diagonal in the trig basis. Degree ell adds ell(ell+d-2) to the
    diagonals of both. The potential term comes from one FFT of the weight.
    Returns ((L_even, L_odd), bdiag): L on the constant and cosines, L on the
    sines, and bdiag in the block order of ``_trig_coords``. Raises when the
    block between the halves is not negligible, that is when u_* is not even.
    """
    # n_modes and n_grid keep these names: perfbench's hill_assembly span reads them
    if n_modes < 2:
        # c_T_numeric reads the second eigenvalue of the odd half, which has
        # n_modes rows, and quartic_constants the second harmonic
        raise DomainError("need n_modes >= 2, got %r" % (n_modes,))
    if len(br.u) != n_grid:
        raise PreconditionError("branch has %d samples, not %d" % (len(br.u), n_grid))
    d, T, q = br.params.d, br.params.T, br.params.q
    ksq = (2.0 * math.pi * np.arange(1, n_modes + 1) / T) ** 2
    bdiag = np.concatenate(([0.0], ksq, ksq)) + (d - 2.0) ** 2 / 4.0
    wgrid = d * (d + 2.0) / 4.0 * br.u ** (q - 2.0)
    (l_even, l_odd), coupling = _multiplication_halves(wgrid, n_modes)
    # L = diag(b) - M, formed in M's storage: 0 - m off the diagonal, then
    # (0 - m) + b on it, which rounds as b - m does (signed zeros included)
    for half, b in ((l_even, bdiag[: n_modes + 1]), (l_odd, bdiag[n_modes + 1 :])):
        np.subtract(0.0, half, out=half)
        half.reshape(-1)[:: len(b) + 1] += b
    scale = max(float(np.max(np.abs(l_even))), float(np.max(np.abs(l_odd))))
    if coupling > _PARITY_TOL * scale:
        raise ComputationError(
            "Hill block couples cosines and sines (%.3g): the weight is not even"
            % coupling
        )
    return (l_even, l_odd), bdiag


def _q_norm_term(br: Branch, n_modes: int) -> np.ndarray:
    """Even half of the rank-one term d <u^(q-1), .> u^(q-1) / int u^q.

    The degree-0 second variation adds it to L. u^(q-1) is even exactly when
    the weight u^(q-2) is, so the parity guard on the weight also covers the
    sine coordinates dropped here.
    """
    d, T, q = br.params.d, br.params.T, br.params.q
    v = _trig_coords(br.u ** (q - 1.0), T, n_modes)[: n_modes + 1]
    iq = float(np.sum(br.u**q)) * (T / len(br.u))
    return (d / iq) * np.outer(v, v)


# The branch u_* is even about its maximum at t = 0 (u'(0) = 0 and the ODE is
# reversible), so the weight has Im w^ = 0 and no block entry couples a sine
# row to the constant or a cosine row: every degree-ell block is two blocks.
# optimizer_branch mirrors its half-period orbit, so the grid weight is exactly
# even and Im w^ is the roundoff of its FFT: over d = 3..6 and T in
# [0.5, 5] T_*, the coupling bound 2 max |Im w^_j| measures at most 3.4e-20
# of max |L| (d = 5, T = 5 T_*), and exactly 0 at and below T_*. The bound
# only has to catch a weight that is not even: a shifted or perturbed orbit
# couples the halves at order one (the perturbed orbit of the tests has
# coupling 0.54).
# At and below T_* the branch is the constant u0, so the weight's rfft is
# Re w^_0 alone and the q-norm term touches only the constant coordinate:
# both halves are diagonal, with off-diagonal entries at most 2.3e-20 of
# max |L| over d = 3..10 and T in [0.1, 1] T_*, at n_grid 1000, 3000, 4095
# and 4096. c_T_numeric and quartic_constants read their spectra off the
# diagonals (``_diagonals``) and hold the off-diagonal entries to the same
# _PARITY_TOL of max |L|.
_PARITY_TOL = 1e-9


def _diagonals(halves) -> list:
    """Diagonals of Hessian halves that the constant branch makes diagonal.

    Raises when an off-diagonal entry exceeds _PARITY_TOL of max |L|: the
    branch is then not constant. A constant weight means a constant u_*, so
    the guard also certifies that the degree-0 constraint against u_* lies
    on the constant coordinate.
    """
    scale = max(float(np.max(np.abs(half))) for half in halves)
    diags = [np.diag(half) for half in halves]
    coupling = max(
        float(np.max(np.abs(half - np.diag(dg)))) for half, dg in zip(halves, diags)
    )
    if coupling > _PARITY_TOL * scale:
        raise ComputationError(
            "Hessian halves are not diagonal (%.3g): the branch is not constant"
            % coupling
        )
    return diags


def _lowest_eigenvalues(lmat: np.ndarray, bdiag: np.ndarray, count: int = 1) -> list:
    """The ``count`` lowest eigenvalues of (L, diag(b)), ascending.

    B is diagonal, so y = D^(1/2) v turns the generalized problem into the
    standard one for M = D^(-1/2) L D^(-1/2).
    """
    rs = 1.0 / np.sqrt(bdiag)
    mat = rs[:, None] * lmat * rs[None, :]
    return eigh(mat, eigvals_only=True, subset_by_index=(0, count - 1)).tolist()


@dataclass(frozen=True)
class SpectrumReport:
    """Ascending eigenvalues of a Hessian block and its kernel dimension."""

    eigenvalues: np.ndarray
    kernel_dim: int

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


# an eigenvalue counts as kernel below this fraction of max(max |ev|, 1)
_KERNEL_REL_TOL = 1e-6


def hessian_block_spectrum(
    d: int, T: float, ell: int, n_modes: int = DEFAULT_N_MODES
) -> SpectrumReport:
    """Spectrum of the degree-ell Hessian block at the optimizer branch.

    The rank-one q-norm term is added exactly when ell = 0: only the
    degree-0 second variation carries it. Kernel dimensions: 1 below T_*
    (the scaling direction), 3 at T_* (scaling plus the incipient cos/sin
    pair), 2 above (scaling and translation).
    """
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    br = optimizer_branch(d, T)
    halves, _ = _assemble_block(br, n_modes, DEFAULT_N_GRID)
    if ell == 0:
        halves = (halves[0] + _q_norm_term(br, n_modes), halves[1])
    # degree ell is the degree-0 block shifted by ell(ell+d-2) on the diagonal
    shift = ell * (ell + d - 2.0)
    vals = [eigh(h + shift * np.eye(len(h)), eigvals_only=True) for h in halves]
    ev = np.sort(np.concatenate(vals))
    tol = _KERNEL_REL_TOL * max(float(np.max(np.abs(ev))), 1.0)
    return SpectrumReport(ev, int(np.sum(np.abs(ev) < tol)))


def zero_mode_pairing(br: Branch, n_modes: int = DEFAULT_N_MODES) -> float:
    """<du_*, L_0 du_*> for the translation mode of the branch (zero above T_*)."""
    (l_even, l_odd), _ = _assemble_block(br, n_modes, len(br.u))
    halves = (l_even + _q_norm_term(br, n_modes), l_odd)
    coords = np.split(_trig_coords(br.up, br.params.T, n_modes), [n_modes + 1])
    return float(sum(x @ half @ x for x, half in zip(coords, halves)))


def c_T_formula(d: int, T: float) -> float:
    """Closed form of the quadratic stability constant, valid for T <= T_*."""
    ts = t_star(d)
    if T > ts * (1.0 + 1e-12):
        raise DomainError("closed form only holds up to T_*")
    mu = min((2.0 * math.pi / T) ** 2, d - 1.0)
    return (mu - (d - 2.0)) / (mu + ((d - 2.0) / 2.0) ** 2)


# c_T_numeric reads the second eigenvalue of each degree-0 half only after
# checking that the lowest ones are the ground states 2 - q and 0. Measured
# over d = 3..6 and T in {1.001, 1.02, 1.1, 1.3, 1.45, 2, 3, 4, 5} T_*, the
# even lowest value lies within 3.7e-12 of 2 - q and the odd one within
# 9.5e-13 of 0; at d = 8 and 10 (T up to 4 T_*) within 1.4e-11 and 6.6e-11.
# That is the branch's accuracy (DOP853 at 1e-12/1e-14 and the amplitude
# root). The bound leaves a factor of 15 over the worst. Integrated from an
# amplitude off the root by 1e-8 relative (d = 3 and 5, 1.5 T_*), the
# branch moves both values by 1e-8 to 7e-8 and fails it.
_GROUND_TOL = 1e-9


def c_T_numeric(d: int, T: float, n_modes: int = DEFAULT_N_MODES) -> float:
    """Constrained Rayleigh minimum of <v, L v> / E_T[v] over degrees.

    In the degree-0 block the minimization runs orthogonally (in the E_T
    inner product) to the optimizer and its translation mode; higher degrees
    are unconstrained. The overall constant is the minimum over all degrees,
    and only degrees 0 and 1 can attain it.

    The degree-0 constraints are ground states. u_* solves
    -u'' + c u = k u^(q-1) with c = ((d-2)/2)^2 and k = d(d-2)/4, and L
    carries the weight (q-1) k u_*^(q-2), so L u_* = (2-q) B u_*: u_* > 0 is
    the ground state of the even pencil (L, B). u_*', odd with one sign on
    (0, T/2), is the ground state of the odd pencil, with eigenvalue 0. So
    the constrained minimum of each half is its second eigenvalue. B u_* is
    parallel to u_*^(q-1), so the rank-one q-norm term vanishes on the
    constrained space and is left out.

    Above T_* three eigensolves give the minimum: the two lowest eigenvalues
    of the even degree-0 half (the ground-state check and a candidate), the
    lowest of the odd degree-0 half (its ground-state check only), and the
    lowest of the even degree-1 half. The other two cannot be the minimum.
    Each pencil is Hill's equation -v'' + (c + s) v = mu w v with even
    coefficients and w = (q-1) k u_*^(q-2) > 0, and its eigenvalue is
    1 - 1/mu, increasing in mu. By Sturm oscillation theory (Eastham, *The
    Spectral Theory of Periodic Differential Equations*, 1973) the periodic
    eigenvalues order as mu_0 < mu_1 <= mu_2 < mu_3 <= mu_4 < ...; the
    ground state (mu_0) is positive, hence even, and each pair mu_(2j-1),
    mu_(2j) holds one even and one odd eigenfunction. So the odd half's
    second eigenvalue lies in the pair mu_3/mu_4, above the even half's
    second in mu_1/mu_2, and the degree-1 minimum is the even ground state.
    Measured over d in {3, 4, 5, 6, 8, 10} and T in [1.001, 4] T_*, the
    dropped eigenvalues exceed the kept ones by at least 0.178 (degree 0)
    and 0.175 (degree 1), so the minimum is the four-solve one bit for bit.

    Degree lemma: for ell >= 1 the block is the pencil (B0 + s - M, B0 + s)
    with s = ell(ell+d-2), where B0 is the positive diagonal of the degree-0
    E_T form and M the Gram matrix of the weight d(d+2)/4 u_*^(q-2) > 0. M
    is exact (no index aliases, see ``_multiplication_halves``), hence
    positive semidefinite, and the quotient of each v is
    1 - <v, M v> / (<v, B0 v> + s |v|^2), which cannot fall as s grows. So
    the lowest eigenvalue is nondecreasing in ell, and degree 1 bounds every
    higher degree from below.
    """
    br = optimizer_branch(d, T)
    (l_even, l_odd), bbase = _assemble_block(br, n_modes, DEFAULT_N_GRID)
    cut = n_modes + 1
    b_even, b_odd = bbase[:cut], bbase[cut:]
    # degree 1 is the uncorrected degree-0 block shifted by d - 1 on the
    # diagonal
    shift = d - 1.0
    if T <= br.params.t_star:
        # the constant branch makes every half diagonal (see _PARITY_TOL): the
        # constraint against u_* drops the constant coordinate, and u_*' = 0
        # constrains nothing
        even, odd = _diagonals((l_even, l_odd))
        deg0 = min(np.min(even[1:] / b_even[1:]), np.min(odd / b_odd))
        deg1 = min(
            np.min((dg + shift) / (b + shift))
            for dg, b in ((even, b_even), (odd, b_odd))
        )
        return float(min(deg0, deg1))
    even0, even1 = _lowest_eigenvalues(l_even, b_even, 2)
    (odd0,) = _lowest_eigenvalues(l_odd, b_odd)
    ground = 2.0 - br.params.q
    if abs(even0 - ground) > _GROUND_TOL or abs(odd0) > _GROUND_TOL:
        raise ComputationError(
            "degree-0 ground states %.3g and %.3g are not 2 - q = %.6g and 0: "
            "the branch is not the critical point" % (even0, odd0, ground)
        )
    (deg1,) = _lowest_eigenvalues(l_even + shift * np.eye(cut), b_even + shift)
    return min(even1, deg1)


def c_T(d: int, T: float, n_modes: int = DEFAULT_N_MODES) -> float:
    """Quadratic stability constant: closed form below T_*, numeric above."""
    ts = t_star(d)
    if T <= ts * (1.0 + 1e-12):
        return c_T_formula(d, min(T, ts))
    return c_T_numeric(d, T, n_modes=n_modes)


# ---------------------------------------------------------------------------
# quartic constants at the bifurcation period


@dataclass(frozen=True)
class QuarticConstants:
    """Degenerate-stability data at T = T_*."""

    d: int
    c_star: float
    resolvent_profile: PeriodicProfile
    resolvent_coefficient: float
    inner_product: float
    gap: float
    limit_constant: float
    diagnostics: dict


# the relative mismatch between a quartic numeric route and its closed form
# that quartic_constants raises on
_QUARTIC_REL_TOL = 1e-6


def quartic_constants(d: int, n_modes: int = DEFAULT_N_MODES) -> QuarticConstants:
    """Quartic coefficient, resolvent correction, and their gap at T_*.

    The numeric route solves the degree-0 Hessian block for the resolvent of
    the projected quartic source and forms the inner product; every quantity
    is compared against its closed form and any mismatch beyond
    ``_QUARTIC_REL_TOL`` relative raises an inconsistency.
    """
    ts = t_star(d)
    params = CylinderParams(d=d, T=ts)
    q = params.q
    base = u0(d)
    area = sphere_area(d - 1)
    sigma = ts * area

    br = optimizer_branch(d, ts)
    (l_even, l_odd), _ = _assemble_block(br, n_modes, DEFAULT_N_GRID)
    halves = (l_even + _q_norm_term(br, n_modes), l_odd)
    tgrid = np.arange(DEFAULT_N_GRID) * (ts / DEFAULT_N_GRID)
    r_star = np.cos(2.0 * math.pi * tgrid / ts)
    r2 = r_star**2
    f_star = (d - 2.0) ** 2 / 8.0 * (q - 1.0) * (q - 2.0) / base * r2

    # the T_* branch is the constant u0, so both halves are diagonal (see the
    # comment at _PARITY_TOL) and their spectra are read off the diagonals
    evals = np.concatenate(_diagonals(halves))
    scale = float(np.max(np.abs(evals)))
    ker = np.abs(evals) < 1e-6 * scale
    if int(np.sum(ker)) != 3:
        raise ComputationError(
            "expected a 3-dimensional kernel at T_*, found %d" % int(np.sum(ker))
        )
    # kernel projection and resolvent of the source, coordinate by coordinate
    f = _trig_coords(f_star, ts, n_modes)
    fperp = np.where(ker, 0.0, f)
    inv = np.zeros_like(evals)
    inv[~ker] = 1.0 / evals[~ker]
    scoords = inv * f

    idx_cos2 = 2
    coeff_num = float(scoords[idx_cos2] * math.sqrt(2.0 / ts))
    coeff_closed = (d - 2.0) / 48.0 * (q - 1.0) * (q - 2.0) / base
    stray = np.abs(np.delete(scoords, idx_cos2))
    if np.max(stray) > 1e-8 * abs(scoords[idx_cos2]):
        raise InconsistencyError("resolvent is not a pure second-harmonic mode")
    if abs(coeff_num - coeff_closed) > _QUARTIC_REL_TOL * abs(coeff_closed):
        raise InconsistencyError(
            "resolvent coefficient %.12g vs closed form %.12g"
            % (coeff_num, coeff_closed)
        )

    ip_num = area * float(fperp @ scoords)
    ip_closed = (
        (d - 2.0) ** 2 / 4.0 / 96.0 * (q - 1.0) ** 2 * (q - 2.0) * sigma / base**2
    )
    if abs(ip_num - ip_closed) > _QUARTIC_REL_TOL * abs(ip_closed):
        raise InconsistencyError(
            "resolvent inner product %.12g vs closed form %.12g" % (ip_num, ip_closed)
        )

    # r^4 as r^2 r^2: numpy's power takes libm's slow path on the negative
    # half of the cosine (about 0.27 ms of a 0.9 ms call, against 8 us)
    mean_r2 = float(np.mean(r2))
    mean_r4 = float(np.mean(r2 * r2))
    bracket = -(q - 3.0) / 3.0 * mean_r4 + (q - 1.0) * mean_r2**2
    c_num = (
        (d - 2.0) ** 2 / 4.0 * (q - 1.0) * (q - 2.0) / 4.0 / base**2 * sigma * bracket
    )
    c_closed = (
        (d - 2.0) ** 2 / 4.0 / 32.0 * (q - 1.0) * (q - 2.0) * (q + 1.0) * sigma
        / base**2
    )
    if abs(c_num - c_closed) > _QUARTIC_REL_TOL * abs(c_closed):
        raise InconsistencyError(
            "quartic coefficient %.12g vs closed form %.12g" % (c_num, c_closed)
        )

    gap = c_closed - ip_closed
    limit = (q + 2.0) * (q - 2.0) / (12.0 * (q - 1.0))
    e_u = (d - 2.0) ** 2 / 4.0 * base**2 * sigma
    e_r = sigma * (d - 2.0) * (d + 2.0) / 8.0
    limit_check = e_u * gap / e_r**2
    if abs(limit_check - limit) > _QUARTIC_REL_TOL * abs(limit):
        raise InconsistencyError(
            "limit identity %.12g vs closed form %.12g" % (limit_check, limit)
        )

    # s = coeff cos(4 pi t / T_*) on the branch grid
    resolvent = profile_from_samples(
        params, coeff_num * np.cos(2.0 * math.pi / ts * (2.0 * tgrid))
    )
    return QuarticConstants(
        d=d,
        c_star=c_closed,
        resolvent_profile=resolvent,
        resolvent_coefficient=coeff_closed,
        inner_product=ip_closed,
        gap=gap,
        limit_constant=limit,
        diagnostics={
            "c_star_numeric": c_num,
            "inner_product_numeric": ip_num,
            "resolvent_coefficient_numeric": coeff_num,
            "limit_identity": limit_check,
            "kernel_eigenvalues": evals[ker].tolist(),
        },
    )


@dataclass(frozen=True)
class DegenerateCurve:
    """Quartic stability quotient along the degenerate trial ray."""

    eps: np.ndarray
    quotient: np.ndarray
    extrapolated_limit: float
    error_estimate: float
    limit_constant: float


def degenerate_quotient_curve(
    d: int, eps_grid=(0.02, 0.01, 0.005), with_resolvent: bool = True
) -> DegenerateCurve:
    """Quotient E (E - S ||u||_q^2) / delta^4 along u = u_* + eps r + eps^2 s.

    r is the incipient cosine mode and s the resolvent correction (dropped
    when ``with_resolvent`` is false). The orthogonality of s to the kernel
    directions makes delta^2 = eps^2 E[r] + eps^4 E[s] exact, so the curve
    extrapolates to the closed-form quartic limit (or to the larger s = 0
    value C_* E[u_*]/E[r]^2).
    """
    from .stability import _eps_grid, _extrapolate

    eps = _eps_grid(eps_grid)
    qc = quartic_constants(d)
    ts = t_star(d)
    params = CylinderParams(d=d, T=ts)
    q = params.q
    base = u0(d)
    area = sphere_area(d - 1)
    sigma = ts * area
    m = DEFAULT_N_GRID
    h = ts / m
    tgrid = np.arange(m) * h
    r_samples = np.cos(2.0 * math.pi * tgrid / ts)
    if with_resolvent:
        s_samples = qc.resolvent_profile.samples
    else:
        s_samples = np.zeros(m)
    dr_samples = -np.sin(2.0 * math.pi * tgrid / ts)

    # E_T and its bilinear form, on one rfft of each of r, s and r'
    _, form = _energy_form(params, m)
    spec_r, spec_s, spec_dr = (np.fft.rfft(x) for x in (r_samples, s_samples, dr_samples))
    scale_s = max(float(np.max(np.abs(s_samples))), 1.0)
    if abs(float(np.sum(s_samples)) * h) > 1e-10 * ts * scale_s:
        raise PreconditionError("resolvent correction must have zero mean")
    if abs(form((spec_r * np.conj(spec_s)).real)) > 1e-10 * scale_s:
        raise PreconditionError("correction must be energy-orthogonal to the mode")
    if abs(form((spec_dr * np.conj(spec_s)).real)) > 1e-10 * scale_s:
        raise PreconditionError(
            "correction must be energy-orthogonal to the translation mode"
        )

    e_u = (d - 2.0) ** 2 / 4.0 * base**2 * sigma
    e_r = form(np.abs(spec_r) ** 2)
    e_s = form(np.abs(spec_s) ** 2)
    s_const = sobolev_constant_cylinder(d, ts)

    quot = np.empty(len(eps))
    for i, e in enumerate(eps):
        u = base + e * r_samples + e * e * s_samples
        energy_val = e_u + e * e * e_r + e**4 * e_s
        nq2 = (area * h * float(np.sum(np.abs(u) ** q))) ** (2.0 / q)
        delta4 = (e * e * e_r + e**4 * e_s) ** 2
        quot[i] = energy_val * (energy_val - s_const * nq2) / delta4

    limit, err = _extrapolate(eps, quot)
    target = qc.limit_constant if with_resolvent else qc.c_star * e_u / e_r**2
    return DegenerateCurve(
        eps=eps,
        quotient=quot,
        extrapolated_limit=float(limit),
        error_estimate=float(err),
        limit_constant=float(target),
    )


# ---------------------------------------------------------------------------
# split stability at T_*


@dataclass(frozen=True)
class SplitReport:
    """Two-sided comparison of the deficit against the split remainder.

    ``slope_lhs`` is the log-log slope of the deficit over the eps grid, and
    ``signs`` maps each scan constant c to whether deficit - c * remainder
    stayed nonnegative on it.
    """

    slope_lhs: float
    signs: dict


def split_stability_terms(profile: PeriodicProfile) -> tuple:
    """(deficit, split remainder) at T_* for a profile near the constant.

    The remainder reads E[pi_1 v]^2 / E[u] + E[pi_perp v] where v is the
    deviation from the constant optimizer, pi_1 projects onto the incipient
    cos/sin pair and pi_perp onto the complement of span{1, cos, sin}. Both
    sides vanish at the optimizer itself.
    """
    p = profile.params
    if abs(p.T - p.t_star) > 1e-12 * p.t_star:
        raise PreconditionError("split comparison is defined at T = T_*")
    m = len(profile.samples)
    _, form = _energy_form(p, m)
    power = np.abs(np.fft.rfft(profile.samples - u0(p.d))) ** 2
    # pi_1 v is rfft bin 1, and pi_perp v the bins 2..(m-1)//2, each a full
    # cos/sin pair; at even m the Nyquist bin m/2, which has no sine, is left out
    k = np.arange(len(power))
    e_pi1 = form(np.where(k == 1, power, 0.0))
    e_perp = form(np.where((k >= 2) & (k <= (m - 1) // 2), power, 0.0))
    e_u = energy_profile(profile)
    lhs = e_u - sobolev_constant_cylinder(p.d, p.T) * lq_norm_profile(profile) ** 2
    rhs = e_pi1**2 / e_u + e_perp
    return lhs, rhs


# the constants c that split_stability_check reports the sign of
# deficit - c * remainder for, its perturbation sizes, and the grid of its
# profiles
_SPLIT_SCAN_C = (0.1, 0.5, 1.0)
_SPLIT_EPS = (0.02, 0.01, 0.005)
_SPLIT_GRID = 2048


def split_stability_check(d: int, family: str = "pi") -> SplitReport:
    """Scaling of deficit vs split remainder along a perturbation family.

    family "pi" perturbs by the incipient cosine (quartic deficit), family
    "pi_perp" by the second harmonic (quadratic deficit). The log-log slope
    of the deficit is fitted over ``_SPLIT_EPS`` and the sign of
    (deficit - c * remainder) is reported for each scan constant.
    """
    if family not in ("pi", "pi_perp"):
        raise DomainError("family must be 'pi' or 'pi_perp'")
    ts = t_star(d)
    params = CylinderParams(d=d, T=ts)
    base = u0(d)
    eps = np.asarray(_SPLIT_EPS)
    tgrid = np.arange(_SPLIT_GRID) * (ts / _SPLIT_GRID)
    mode = 1 if family == "pi" else 2
    r = np.cos(2.0 * math.pi * mode * tgrid / ts)
    lhs = np.empty(len(eps))
    rhs = np.empty(len(eps))
    for i, e in enumerate(eps):
        prof = profile_from_samples(params, base + e * r)
        lhs[i], rhs[i] = split_stability_terms(prof)
    slope_lhs = float(np.polyfit(np.log(eps), np.log(np.maximum(lhs, 1e-300)), 1)[0])
    signs = {
        float(c): bool(np.all(lhs - c * rhs >= -1e-12 * np.abs(lhs).max()))
        for c in _SPLIT_SCAN_C
    }
    return SplitReport(slope_lhs=slope_lhs, signs=signs)


def distance_to_branch(profile: PeriodicProfile) -> tuple:
    """Energy distance from a profile to the optimizer set of its cylinder.

    Returns (delta, c, shift): below T_* the optimizer set is the constants
    (shift meaningless, returned 0); above it is the orbit circle of
    multiples c u_*(. - shift), scanned over all grid shifts and refined.
    """
    p = profile.params
    if p.T <= p.t_star:
        # constants are E_T-orthogonal to every other Fourier mode, so the
        # nearest one is the mean and delta the energy of what is left
        c_best = float(np.mean(profile.samples))
        rest = profile_from_samples(p, profile.samples - c_best)
        return math.sqrt(energy_profile(rest)), c_best, 0.0

    m = len(profile.samples)
    spec_u = np.fft.rfft(profile.samples)
    spec_s = np.fft.rfft(optimizer_branch(p.d, p.T, m).u)
    omega, form = _energy_form(p, m)
    e_star = form(np.abs(spec_s) ** 2)
    prod = spec_u * np.conj(spec_s)

    def cross_at(sigma: float) -> float:
        return form((prod * np.exp(1j * omega * sigma)).real)

    def slope_at(sigma: float) -> float:
        return form((1j * omega * prod * np.exp(1j * omega * sigma)).real)

    subs = np.arange(m) * (p.T / m)
    subs = subs[:: max(1, m // 256)]
    vals = np.array([cross_at(sg) for sg in subs])
    i0 = int(np.argmax(np.abs(vals)))
    span = p.T / len(subs)
    # the extremum of the overlap is a root of its derivative: brentq pins it
    # to roundoff, where a search on the flat top stops near sqrt(eps)
    sigma = _root(slope_at, subs[i0] - span, subs[i0] + span, xtol=1e-14, rtol=8.9e-16)
    c_best = cross_at(sigma) / e_star
    # delta from the residual spectrum, not from e_u - cross^2 / e_star,
    # which subtracts two numbers of the size of the energy
    resid = spec_u - c_best * spec_s * np.exp(-1j * omega * sigma)
    delta = math.sqrt(form(np.abs(resid) ** 2))
    return delta, c_best, sigma % p.T
