"""The three hot numpy kernels.

Three inner loops dominate the library's Python-level cost: the Gegenbauer
recursion table behind every zonal basis, the two-axis sphere moment behind
the distance optimizer's objective, and the fixed-point ascent behind the
finite operator norm. The library calls each through its module-level
binding (``gegenbauer_table``, ``zeta_moment``, ``lq_ascent``). The
``*_numpy`` names are the same functions, kept so that a timing harness
which wraps the bindings can still time the bare kernels.
"""

from __future__ import annotations

import math

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
# Fixed-point ascent for the 2 -> q operator norm.
# Iterates f <- normalize(A^T |Af|^{q-2} Af); returns the final unit vector
# and the number of iterations used.
# ---------------------------------------------------------------------------

# below this norm of the step, the squares that numpy's norm sums leave the
# normal range: the norm reads 0 or loses digits
_SMALL_NORM = math.sqrt(np.finfo(np.float64).tiny)


def _psi(y, q):
    """|y|^(q-2) y, 0 where y is 0."""
    ay = np.abs(y)
    w = np.zeros_like(y)
    pos = ay > 0.0
    w[pos] = ay[pos] ** (q - 2.0) * y[pos]
    return w


def lq_ascent_numpy(A, q, f0, max_iter, tol):
    """The ascent from f0; (f, iterations).

    At large q the powers |(Af)_i|^(q-1), or the squares in the norm of
    the step, can underflow: the step reads 0 and the ascent stops where it
    began. Only then (a step norm below ``_SMALL_NORM`` with Af != 0) is the
    step formed on Af / max |Af| instead, as ``duality.lq_norm`` rescales
    its sum. The normalized step does not depend on the scale, and every
    other step is computed exactly as before.
    """
    f = f0 / np.linalg.norm(f0)
    it = 0
    for it in range(1, max_iter + 1):
        y = A @ f
        g = A.T @ _psi(y, q)
        gn = np.linalg.norm(g)
        if gn < _SMALL_NORM:
            top = np.max(np.abs(y))
            if top > 0.0:
                g = A.T @ _psi(y / top, q)
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
