"""The float brentq against scipy's: same iterates, same roots, same refusals.

Every bracketed root of the library goes through ``_brentq.brentq``, bound
as ``cylinder.brentq`` and ``conformal.brentq``. Here each such call is run
by both root finders on the same function, and the two must ask for the same
points, in the same order, and return the same root bits, or the same
refusal.
"""

import math
import random

import numpy as np
import pytest
import scipy.optimize

from sobolev_lab import _brentq, conformal, cylinder
from sobolev_lab.cylinder import (
    distance_to_branch,
    inverse_period,
    optimizer_branch,
    period,
    profile_from_samples,
    t_star,
    u0,
)
from sobolev_lab.errors import ComputationError
from sobolev_lab.zonal import SphereParams

# scipy's default tolerances, passed to both root finders
_SCIPY_TOL = {"xtol": 2e-12, "rtol": 4 * np.finfo(float).eps}


def _scipy_root(f, a, b, xtol, rtol):
    """scipy's brentq in the float brentq's call shape, at its iteration cap."""
    x, info = scipy.optimize.brentq(
        f, a, b, xtol=xtol, rtol=rtol, maxiter=_brentq._MAXITER, full_output=True, disp=False
    )
    if not info.converged:
        raise ComputationError(info.flag)
    return x


def _traced(solver, f, a, b, **tol):
    """(root or exception type, evaluation points) of one solver run."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        return solver(g, a, b, **tol), xs
    except (ValueError, ComputationError) as exc:
        return type(exc), xs


def _same_run(f, a, b, **tol):
    ref = _traced(_scipy_root, f, a, b, **tol)
    got = _traced(_brentq.brentq, f, a, b, **tol)
    assert got == ref
    return got[0]


class _Twin:
    """A stand-in for a module's brentq that runs both root finders."""

    def __init__(self):
        self.calls = 0

    def __call__(self, f, a, b, xtol, rtol):
        _same_run(f, a, b, xtol=xtol, rtol=rtol)
        self.calls += 1
        return _brentq.brentq(f, a, b, xtol, rtol)


@pytest.fixture
def twin(monkeypatch):
    tw = _Twin()
    monkeypatch.setattr(cylinder, "brentq", tw)
    monkeypatch.setattr(conformal, "brentq", tw)
    return tw


def test_turning_points_on_both_paths(twin):
    # each period finds its lower turning point by one root: below amplitude
    # 2e-3 on the Taylor series about u0, above it on V itself
    for d in range(3, 11):
        base = u0(d)
        for amp in (1e-5, 1e-3, 1.9e-3, 2.1e-3, 0.05, 0.5 * (1.0 - base), 0.999 * (1.0 - base)):
            period(d, base + amp)
    assert twin.calls == 8 * 7


def test_inverse_period_roots(twin):
    # the decade bracket ends at 1 - 1e-14, whose period is 10.5, 7.7, 6.5 and
    # 5.8 T_* at d = 3..6
    for d, top in ((3, 7.0), (4, 7.0), (5, 6.0), (6, 5.5)):
        for frac in (1.001, 1.05, 1.5, 2.5, 4.0, top):
            inverse_period(d, frac * t_star(d))
    # each period evaluation finds its turning point by a root of its own
    assert twin.calls > 4 * 6


def test_orbit_turning_times_and_distance_roots(twin):
    for d in (3, 5):
        base = u0(d)
        cylinder.solve_orbit(d, base + 0.4 * (1.0 - base))
        T = 1.6 * t_star(d)
        br = optimizer_branch(d, T, 1024)
        t = np.arange(1024) * (T / 1024)
        moved = 1.1 * np.roll(br.u, 37) + 0.01 * np.cos(3.0 * t)
        distance_to_branch(profile_from_samples(br.params, moved))
    # per dimension: the turning time, then the branch's and distance's roots
    assert twin.calls >= 2 * 3


def test_hersch_roots(twin):
    for d in (2, 3, 4, 6):
        p = SphereParams(d, 1.0 if d > 2 else 0.5)
        for rho in (0.1, 0.5, 0.8):
            fn = conformal.q_zeta(np.r_[np.zeros(d), rho], p)
            conformal.hersch_normalize(fn, density_exponent=p.q)
    assert twin.calls == 4 * 3


_GENERIC = (
    lambda x: x**3 - 2.0 * x - 5.0,
    lambda x: math.cos(x) - x,
    lambda x: math.exp(x) - 3.0,
    lambda x: (x - 0.3) ** 9,
    lambda x: math.atan(50.0 * (x - 0.7)),
    # values that underflow: C divides to inf, Python raises
    lambda x: 1e-300 * (x - 0.5),
    # a jump, where the interpolation steps are refused
    lambda x: x - 0.25 if x < 0.4 else 1.0,
)


def test_generic_brackets_take_scipys_steps():
    rng = random.Random(7)
    for f in _GENERIC:
        for _ in range(40):
            a, b = rng.uniform(-3.0, 0.2), rng.uniform(0.8, 4.0)
            for tol in (_SCIPY_TOL, {"xtol": 1e-14, "rtol": 8.9e-16}, {"xtol": 1e-3, "rtol": 1e-15}):
                _same_run(f, a, b, **tol)


def test_iteration_cap_is_scipys(monkeypatch):
    # at a cap of 3 iterations most generic runs stop unconverged; both root
    # finders ask for the same points first
    monkeypatch.setattr(_brentq, "_MAXITER", 3)
    rng = random.Random(8)
    refused = 0
    for f in _GENERIC:
        for _ in range(10):
            a, b = rng.uniform(-3.0, 0.2), rng.uniform(0.8, 4.0)
            refused += _same_run(f, a, b, **_SCIPY_TOL) is ComputationError
    assert refused > 0


def test_refusals_are_scipys():
    for f, a, b, match in (
        (lambda x: x + 1.0, 0.0, 1.0, "different signs"),
        (lambda x: math.nan, 0.0, 1.0, "NaN"),
        (lambda x: x - 0.5 if x < 0.9 else math.nan, 0.0, 1.0, "NaN"),
    ):
        with pytest.raises(ValueError, match=match):
            _brentq.brentq(f, a, b, **_SCIPY_TOL)
        assert _same_run(f, a, b, **_SCIPY_TOL) is ValueError
    for tol, match in (
        ({"xtol": 0.0, "rtol": 1e-15}, "xtol too small"),
        ({"xtol": -1.0, "rtol": 1e-15}, "xtol too small"),
        ({"xtol": 1e-12, "rtol": 3.9 * np.finfo(float).eps}, "rtol too small"),
    ):
        with pytest.raises(ValueError, match=match):
            _brentq.brentq(lambda x: x - 0.5, 0.0, 1.0, **tol)
        assert _same_run(lambda x: x - 0.5, 0.0, 1.0, **tol) is ValueError


def test_one_iteration_is_not_convergence(monkeypatch):
    monkeypatch.setattr(_brentq, "_MAXITER", 1)
    result, xs = _traced(_brentq.brentq, math.cos, 0.0, 3.0, **_SCIPY_TOL)
    assert result is ComputationError
    assert len(xs) == 3
    with pytest.raises(ComputationError, match="did not converge .* after 1 iterations"):
        _brentq.brentq(math.cos, 0.0, 3.0, **_SCIPY_TOL)
    _same_run(math.cos, 0.0, 3.0, **_SCIPY_TOL)


def test_root_is_a_python_float():
    # numpy tolerances and ends, as _turning_time passes, still give a float
    x = _brentq.brentq(math.cos, np.float64(0.0), np.float64(3.0), np.float64(1e-12), np.float64(1e-15))
    assert type(x) is float
