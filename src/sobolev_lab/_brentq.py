"""Brent's bracketed root finder in Python floats: scipy's ``brentq``, step for step.

Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4, as
scipy writes it in ``brentq.c``: the same iterates, the same evaluation
count, the same convergence test and the same refusals (a bracket without a
sign change, a NaN value, ``xtol <= 0``, ``rtol < 4 eps``). The library's
roots are found on functions that cost well under a microsecond each, where
scipy's wrapper and its C callback took most of the time; this loop runs on
the floats alone, with no numpy.
"""

from __future__ import annotations

import math
import sys

from .errors import ComputationError

# scipy's default iteration cap; rtol below 4 eps is refused, as scipy does
_MAXITER = 100
_RTOL_MIN = 4 * sys.float_info.epsilon


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """The root of the float function f in [a, b], where f(a) and f(b) differ in sign.

    Stops when half the bracket around the iterate x is below
    (xtol + rtol |x|) / 2, or f is exactly 0 at x, and returns x. Raises
    ComputationError after ``_MAXITER`` iterations without convergence, and
    scipy's ValueError for a bracket without a sign change, a NaN value of f
    or a tolerance scipy refuses.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")

    # each value of f is checked for NaN before the next is asked for; a
    # nonzero value that is not NaN has its sign bit set exactly when it is < 0
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    if fpre != fpre:
        raise _nan(xpre)
    fcur = float(f(xcur))
    if fcur != fcur:
        raise _nan(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to inf or NaN, which fails the step test below
                stry = math.inf
            # C's MIN(a, b): b unless a < b
            lim = 3 * abs(sbis) - delta
            if abs(spre) < lim:
                lim = abs(spre)
            if 2 * abs(stry) < lim:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan(xcur)
    raise ComputationError(
        "brentq did not converge in [%.17g, %.17g] after %d iterations" % (a, b, _MAXITER)
    )


def _nan(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
