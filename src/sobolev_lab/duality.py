"""Norm duality for finite operators into L^q.

A real m x n matrix A is read as a map from Euclidean R^n into L^q on m
counting-measure points. Its norm alpha = max_{|f|=1} ||Af||_q equals the
norm of the adjoint A^T : L^(q') -> R^n, and the extremizers correspond
through the explicit dual pair

    g = ||Af||_q^(1-q) |Af|^(q-2) Af,        f = A^T g / |A^T g|.

The constructor computes alpha twice, by a fixed-point ascent on the primal
side and by a fixed-point iteration on the dual side, and insists the two
agree; for n <= 4 a dense angular grid gives a third, assumption-free value.
Both iterations stop on their stationarity condition, and only starts that
met it are ranked. The quotient ||Af||_q / |f| is nonconvex for q > 2, hence
the multi-start policy everywhere.

The two iterations are one map. The inverse of the q'-duality map is the
q-duality map psi(y) = |y|^(q-2) y, so an adjoint step g -> psi(A A^T g),
normalized, moves f = A^T g / |A^T g| by exactly the primal step
f -> A^T psi(Af), normalized. Both routes, and ``dual_vector``, form psi
with ``_kernels.psi``, and both draw their starts from ``_ascent_starts``,
so the primal and adjoint values differ only in the space they iterate in
and their stop rules; the angular grid is the one route that does not share
the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import _kernels
from .errors import (
    ComputationError,
    DegenerateInputError,
    DomainError,
    PreconditionError,
    check_seed,
)

__all__ = [
    "FiniteOperator",
    "finite_operator",
    "lq_norm",
    "q_conjugate",
    "op_norm_ascent",
    "adjoint_norm_fixed_point",
    "brute_force_norm",
    "dual_vector",
    "primal_vector",
]

_NORM_AGREE_TOL = 1e-9
# random starts per route, on top of the coordinate vectors and the diagonal
_N_RANDOM_STARTS = 8


def _check_q(q: float) -> None:
    """The exponent of every route: 1 < q < inf (NaN fails too)."""
    if not 1.0 < q < math.inf:
        raise DomainError("exponent q must satisfy 1 < q < inf")


def q_conjugate(q: float) -> float:
    _check_q(q)
    return q / (q - 1.0)


def _as_matrix(matrix) -> np.ndarray:
    """The matrix as a contiguous float array: 2D, nonempty and finite."""
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DomainError("matrix must be a nonempty 2D array")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def _finite(values, route: str) -> float:
    """The largest of a route's ranked values; every one must be finite.

    A large q overflows |Af|^q, and a NaN would slip past the max and the
    agreement test alike, so it is refused here.
    """
    if not np.all(np.isfinite(values)):
        raise ComputationError("%s value is not finite" % route)
    return max(values)


def lq_norm(x: np.ndarray, q: float) -> float:
    """(sum |x|^q)^(1/q), rescaled by max |x| only where the sum is not normal.

    At large q the powers of a nonzero vector can fall below the normal range
    (a subnormal sum keeps only a few significant bits) or one can overflow
    to inf; only then is x divided by max |x| first, so every value whose
    plain sum is a normal float is computed exactly as before.
    """
    ax = np.abs(x)
    total = np.sum(ax**q)
    if _kernels.NORMAL_MIN <= total < math.inf:
        return float(total ** (1.0 / q))
    scale = np.max(ax) if ax.size else 0.0
    if not 0.0 < scale < math.inf:
        return float(total ** (1.0 / q))
    return float(scale * np.sum((ax / scale) ** q) ** (1.0 / q))


@dataclass(frozen=True)
class FiniteOperator:
    """Matrix A with exponent q and its certified norm alpha.

    ``primal_norm`` and ``adjoint_norm`` are the two route values behind
    alpha: the primal ascent and the adjoint fixed point.
    """

    matrix: np.ndarray
    q: float
    op_norm: float
    primal_norm: float
    adjoint_norm: float

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def shape(self) -> tuple:
        return self.matrix.shape


def _rng(seed: int) -> np.random.Generator:
    """The generator of a route's random starts; a negative seed is refused."""
    check_seed(seed)
    return np.random.default_rng(seed)


def _ascent_starts(n: int, seed: int):
    """Unit vectors in R^n: the axes, the diagonal and seeded normals.

    The primal ascent starts from them in R^n, the adjoint in R^m, scaled to
    unit q'-norm.
    """
    starts = [np.eye(n)[j] for j in range(n)]
    starts.append(np.ones(n) / math.sqrt(n))
    rng = _rng(seed)
    for _ in range(_N_RANDOM_STARTS):
        v = rng.standard_normal(n)
        starts.append(v / np.linalg.norm(v))
    return starts


# the primal stop rule: a step moves f by less than this (up to sign)
_ASCENT_TOL = 1e-14
_ASCENT_MAX_ITER = 4000  # the steps a start may take to meet it


def op_norm_ascent(matrix: np.ndarray, q: float, seed: int = 0) -> float:
    """max ||Af||_q over the unit sphere, by multi-start fixed-point ascent.

    Each start iterates f <- normalize(A^T psi(Af)) with psi(y) = |y|^(q-2) y
    until a step moves f by less than ``_ASCENT_TOL`` (up to sign). That stop
    rule is the stationarity condition of the constrained maximization, so a
    start that met it is a critical point and needs no polish. Keep the best
    of the starts that met it; a start cut off by ``_ASCENT_MAX_ITER`` stops
    anywhere on its way up and is not ranked.
    """
    a = _as_matrix(matrix)
    _check_q(q)
    ranked = []
    for f0 in _ascent_starts(a.shape[1], seed):
        f, it = _kernels.lq_ascent(a, q, f0, _ASCENT_MAX_ITER, _ASCENT_TOL)
        if it < _ASCENT_MAX_ITER:
            ranked.append(lq_norm(a @ f, q))
    if not ranked:
        raise ComputationError("primal ascent converged from no start")
    return _finite(ranked, "primal ascent")


# the adjoint stop rule: |A^T g| moves by less than this times max(|A^T g|, 1)
_ADJOINT_TOL = 1e-15
_ADJOINT_MAX_ITER = 5000  # the steps a start may take to meet it


def adjoint_norm_fixed_point(matrix: np.ndarray, q: float, seed: int = 0) -> float:
    """max |A^T g| over the unit q'-norm sphere, by duality-map iteration.

    Iterates g <- normalize_{q'}( psi(A A^T g) ) where psi(y) = |y|^(q-2) y
    is the inverse of the q'-norm duality map |g|^(q'-2) g; fixed points
    satisfy the stationarity condition of the constrained maximization.
    Multi-start, keep the best of the starts that met the stop rule or
    reached A A^T g = 0; a start cut off by ``_ADJOINT_MAX_ITER`` stops
    anywhere on its way up and is not ranked.
    """
    a = _as_matrix(matrix)
    qp = q_conjugate(q)
    gram = a @ a.T
    ranked = []
    for g0 in _ascent_starts(a.shape[0], seed):
        g = g0 / lq_norm(g0, qp)
        prev = -1.0
        for _ in range(_ADJOINT_MAX_ITER):
            mapped = _kernels.psi(gram @ g, q)
            nrm = lq_norm(mapped, qp)
            if nrm == 0.0:
                break
            g = mapped / nrm
            val = float(np.linalg.norm(a.T @ g))
            if abs(val - prev) < _ADJOINT_TOL * max(val, 1.0):
                break
            prev = val
        else:
            continue  # the cap ran out before the stop rule
        ranked.append(float(np.linalg.norm(a.T @ g)))
    if not ranked:
        raise ComputationError("adjoint fixed point converged from no start")
    return _finite(ranked, "adjoint fixed point")


def _angles_to_unit(angles: np.ndarray) -> np.ndarray:
    """Hyperspherical parametrization of unit vectors, one column per point."""
    k, npts = angles.shape
    out = np.ones((k + 1, npts))
    for j in range(k):
        out[j] *= np.cos(angles[j])
        out[j + 1 :] *= np.sin(angles[j])
    return out


# grid points per hyperspherical angle of the brute-force oracle
_BRUTE_N_ANGLES = 60
# flat grid indices per block of the brute-force oracle. Evaluated at once,
# the 60^3 = 216,000 points of an 8 x 4 matrix hold about 40 MB: the mesh,
# the unit vectors and three 8 x 216,000 temporaries (a @ pts, abs, power).
# One block holds about _BRUTE_BLOCK * (k + n + 3m) * 8 B, k = n - 1 angles:
# 1 MB at 8 x 4 (traced peak of the call 0.8 MB). One 8 x 4 call (q = 3),
# best of 15 interleaved calls in each of two processes on a 2-core shared
# host: 1024 -> 35-48 ms, 4096 -> 31-41 ms, 16384 -> 33-39 ms, one block
# -> 49-52 ms. 4096 is as fast as any, at a quarter of 16384's working set.
_BRUTE_BLOCK = 4096


def _grid_walk(a: np.ndarray, q: float) -> tuple:
    """(largest sum |a f|^q, its angles) over the angular grid, walked in blocks.

    The grid is walked in row-major order, ``_BRUTE_BLOCK`` points at a time,
    and a block's maximum replaces the running one only when strictly larger.
    So the first maximizing grid point in row-major order wins, and ties
    resolve lexicographically in the angle tuple.
    """
    k = a.shape[1] - 1
    grid = np.linspace(0.0, math.pi, _BRUTE_N_ANGLES, endpoint=False)
    shape = (_BRUTE_N_ANGLES,) * k
    size = _BRUTE_N_ANGLES**k
    best, start = -math.inf, None
    for lo in range(0, size, _BRUTE_BLOCK):
        flat = np.arange(lo, min(lo + _BRUTE_BLOCK, size))
        mesh = grid[np.array(np.unravel_index(flat, shape))]
        vals = np.sum(np.abs(a @ _angles_to_unit(mesh)) ** q, axis=0)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, start = vals[i], mesh[:, i]
    return best, start


def _grid_max(a: np.ndarray, q: float) -> tuple:
    """(q-norm, angles) of the best grid point, the seed of the polish.

    At large q every sum of powers on the grid can fall below the normal
    range: all 0 would seed the polish at the first grid point, and a
    subnormal best keeps only a few significant bits. Only then is the grid
    walked again on a / s, with s the largest row norm of a: |(a f)_i| / s
    <= 1 for unit f, with equality in the direction of the largest row, so
    the grid points near it keep normal powers (q up to 800 tested). Where
    the best sum is normal, the grid is the plain one, bit for bit. An
    overflow is left standing, for the caller to refuse.
    """
    best, start = _grid_walk(a, q)
    scale = 1.0
    if best < _kernels.NORMAL_MIN and np.any(a):
        scale = float(np.max(np.linalg.norm(a, axis=1)))
        best, start = _grid_walk(a / scale, q)
    return scale * float(best ** (1.0 / q)), start


def brute_force_norm(matrix: np.ndarray, q: float) -> float:
    """Dense angular-grid oracle for n <= 4, polished from the best grid point.

    The first maximizing grid point in row-major order (``_grid_max``) seeds
    the polish.
    """
    a = _as_matrix(matrix)
    _check_q(q)
    m, n = a.shape
    if n > 4:
        raise DomainError("brute force oracle is limited to n <= 4")
    if n == 1:
        return _finite([lq_norm(a[:, 0], q)], "brute force")
    k = n - 1
    grid_norm, start = _grid_max(a, q)
    # an overflowed grid leaves the polish nothing to climb
    grid_norm = _finite([grid_norm], "brute-force grid")

    def neg(ang):
        f = _angles_to_unit(np.asarray(ang, dtype=float).reshape(k, 1))[:, 0]
        return -lq_norm(a @ f, q)

    res = minimize(neg, start, method="Powell", options={"xtol": 1e-13, "ftol": 1e-14, "maxiter": 10000})
    if not res.success:
        raise ComputationError("Powell polish did not converge: %s" % res.message)
    return _finite([grid_norm, -float(res.fun)], "brute force")


def finite_operator(matrix: np.ndarray, q: float, seed: int = 0) -> FiniteOperator:
    """Build the operator and certify alpha = ||A|| = ||A^T|| two ways."""
    a = _as_matrix(matrix)
    primal = op_norm_ascent(a, q, seed=seed)
    dual = adjoint_norm_fixed_point(a, q, seed=seed)
    alpha = max(primal, dual)
    # written so that a NaN fails it
    if not abs(primal - dual) <= _NORM_AGREE_TOL * max(alpha, 1.0):
        raise ComputationError(
            "primal and adjoint norms disagree: %.12g vs %.12g" % (primal, dual)
        )
    # the record freezes its matrix, so it owns a copy, never the caller's array
    return FiniteOperator(
        matrix=a.copy(),
        q=float(q),
        op_norm=alpha,
        primal_norm=primal,
        adjoint_norm=dual,
    )


def dual_vector(f: np.ndarray, op: FiniteOperator) -> np.ndarray:
    """g with unit q'-norm pairing maximally with Af.

    g = psi(Af / ||Af||_q) has unit q'-norm (Hoelder's equality case) and
    entries at most 1, so no power overflows. <f, A^T g> = ||Af||_q by
    construction; when f is a norm optimizer, g is one for the adjoint.
    """
    f = np.asarray(f, dtype=float)
    n = op.shape[1]
    # the shape first, then a norm test that a NaN fails
    if f.shape != (n,) or not abs(np.linalg.norm(f) - 1.0) <= 1e-12:
        raise PreconditionError("input must be a Euclidean unit vector of length %d" % n)
    y = op.matrix @ f
    ny = lq_norm(y, op.q)
    if ny == 0.0:
        raise DegenerateInputError("Af = 0 admits no dual vector")
    g = _kernels.psi(y / ny, op.q)
    if abs(lq_norm(g, q_conjugate(op.q)) - 1.0) > 1e-12:
        raise ComputationError("dual vector lost its unit q'-norm")
    return g


def primal_vector(g: np.ndarray, op: FiniteOperator) -> np.ndarray:
    """Unit vector in the direction of A^T g."""
    g = np.asarray(g, dtype=float)
    qp = q_conjugate(op.q)
    m = op.shape[0]
    if g.shape != (m,) or not abs(lq_norm(g, qp) - 1.0) <= 1e-12:
        raise PreconditionError("input must have length %d and unit q'-norm" % m)
    v = op.matrix.T @ g
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise DegenerateInputError("A^T g = 0 admits no primal vector")
    return v / nv
