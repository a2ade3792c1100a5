"""The three hot numpy kernels.

Three inner loops dominate the library's Python-level cost: the Gegenbauer
recursion table behind every zonal basis, the two-axis sphere moment behind
the distance optimizer's objective, and the fixed-point ascent behind the
finite operator norm, through the q-duality map ``psi`` both duality routes
share. The library calls each through its module-level binding
(``gegenbauer_table``, ``zeta_moment``, ``lq_ascent``). The ``*_numpy``
names are the same functions, kept so that a timing harness which wraps
the bindings can still time the bare kernels.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Gegenbauer recursion table
# ---------------------------------------------------------------------------

def gegenbauer_table_numpy(alpha: float, lmax: int, t: np.ndarray) -> np.ndarray:
    """Table C[l, i] = C_l^{(alpha)}(t_i) for l = 0..lmax, by upward recursion."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty((lmax + 1, t.size), dtype=np.float64)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = 2.0 * alpha * t
    for ell in range(1, lmax):
        out[ell + 1] = (
            2.0 * (ell + alpha) * t * out[ell] - (ell + 2.0 * alpha - 1.0) * out[ell - 1]
        ) / (ell + 1.0)
    return out


# ---------------------------------------------------------------------------
# Two-axis sphere moment: sum_ij tw_i cw_j f_i (sq / (1 - a t_i - rho r_i c_j))^expo
# where sq = sqrt(1 - a^2 - rho^2), r_i = sqrt(1 - t_i^2).
# ---------------------------------------------------------------------------

def zeta_moment_numpy(a, rho, sq, expo, tn, tw, fvals, cn, cw):
    rad = np.sqrt(1.0 - tn * tn)
    denom = 1.0 - a * tn[:, None] - rho * rad[:, None] * cn[None, :]
    ker = (sq / denom) ** expo
    return float((tw * fvals) @ ker @ cw)


# ---------------------------------------------------------------------------
# The q-duality map psi(y) = |y|^(q-2) y, and the fixed-point ascent for the
# 2 -> q operator norm, f <- normalize(A^T psi(Af)); the ascent returns the
# final unit vector and the number of iterations used.
# ---------------------------------------------------------------------------

# the smallest normal float: a power, or a sum of powers, below it is
# subnormal or 0 and has lost digits. duality.lq_norm, the brute-force grid
# and psi rescale by the largest entry only there.
NORMAL_MIN = float(np.finfo(np.float64).tiny)


def psi(y, q):
    """|y|^(q-2) y, 0 where y is 0; formed on y / max |y| where it underflows.

    For y = Af, f a unit vector, the ascent step A^T psi(y) has norm at least
    y . psi(y) = sum |y|^q. Only where that sum's square is not normal is y
    scaled to max |y| = 1 first, a positive factor every caller normalizes
    away (a unit q-norm argument is never scaled). Overflow is left standing.
    """
    ay = np.abs(y)
    w = np.zeros_like(y)
    pos = ay > 0.0
    w[pos] = ay[pos] ** (q - 2.0) * y[pos]
    if y.dot(w) < NORMAL_MIN**0.5:
        top = ay.max()
        if top > 0.0:
            return psi(y / top, q)
    return w


def lq_ascent_numpy(A, q, f0, max_iter, tol):
    """The ascent from f0; (f, iterations). ``psi`` rescales underflowing steps."""
    f = f0 / np.linalg.norm(f0)
    it = 0
    for it in range(1, max_iter + 1):
        g = A.T @ psi(A @ f, q)
        gn = np.linalg.norm(g)
        if gn == 0.0:
            break
        fn = g / gn
        if min(np.linalg.norm(fn - f), np.linalg.norm(fn + f)) < tol:
            f = fn
            break
        f = fn
    return f, it


gegenbauer_table = gegenbauer_table_numpy
zeta_moment = zeta_moment_numpy
lq_ascent = lq_ascent_numpy
