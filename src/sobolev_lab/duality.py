"""Norm duality for finite operators into L^q.

A real m x n matrix A is read as a map from Euclidean R^n into L^q on m
counting-measure points. Its norm alpha = max_{|f|=1} ||Af||_q equals the
norm of the adjoint A^T : L^(q') -> R^n, and the extremizers correspond
through the explicit dual pair

    g = ||Af||_q^(1-q) |Af|^(q-2) Af,        f = A^T g / |A^T g|.

The constructor computes alpha twice, by projected gradient ascent on the
primal side and by a fixed-point iteration on the dual side, and insists the
two agree; for n <= 4 a dense angular grid gives a third, assumption-free
value. The quotient ||Af||_q / |f| is nonconvex for q > 2, hence the
multi-start policy everywhere.
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


def q_conjugate(q: float) -> float:
    if not q > 1.0:
        raise DomainError("exponent q must exceed 1")
    return q / (q - 1.0)


def lq_norm(x: np.ndarray, q: float) -> float:
    return float(np.sum(np.abs(x) ** q) ** (1.0 / q))


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


def _ascent_starts(m: int, n: int, seed: int, n_random: int):
    starts = [np.eye(n)[j] for j in range(n)]
    starts.append(np.ones(n) / math.sqrt(n))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        v = rng.standard_normal(n)
        starts.append(v / np.linalg.norm(v))
    return starts


def op_norm_ascent(
    matrix: np.ndarray,
    q: float,
    seed: int = 0,
    n_random: int = 8,
    max_iter: int = 4000,
    tol: float = 1e-14,
) -> float:
    """max ||Af||_q over the unit sphere, by multi-start ascent plus polish."""
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DomainError("matrix must be a nonempty 2D array")
    if not q > 1.0:
        raise DomainError("exponent q must exceed 1")
    m, n = a.shape
    best = 0.0
    best_f = None
    for f0 in _ascent_starts(m, n, seed, n_random):
        f, _ = _kernels.lq_ascent(a, q, f0, max_iter, tol)
        val = lq_norm(a @ f, q)
        if val > best:
            best, best_f = val, f
    if best_f is None or best == 0.0:
        return 0.0

    def neg(x):
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return 0.0
        return -lq_norm(a @ (x / nx), q)

    res = minimize(neg, best_f, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    if not res.success:
        raise ComputationError("Nelder-Mead polish did not converge: %s" % res.message)
    return max(best, -float(res.fun))


def adjoint_norm_fixed_point(
    matrix: np.ndarray,
    q: float,
    seed: int = 0,
    n_random: int = 8,
    max_iter: int = 5000,
    tol: float = 1e-15,
) -> float:
    """max |A^T g| over the unit q'-norm sphere, by duality-map iteration.

    Iterates g <- normalize_{q'}( psi^{-1}(A A^T g) ) where psi is the q'-norm
    duality map psi(g) = |g|^(q'-2) g; fixed points satisfy the stationarity
    condition of the constrained maximization. Multi-start, keep the best of
    the starts that met the stop rule or reached A A^T g = 0; a start cut off
    by ``max_iter`` stops anywhere on its way up and is not ranked.
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    qp = q_conjugate(q)
    m, n = a.shape
    gram = a @ a.T
    inv_exp = 1.0 / (qp - 1.0) - 1.0

    def normalize(g):
        nrm = lq_norm(g, qp)
        if nrm == 0.0:
            return None
        return g / nrm

    ranked = []
    rng = np.random.default_rng(seed)
    g_starts = [np.eye(m)[j] for j in range(m)]
    g_starts.append(np.ones(m) / lq_norm(np.ones(m), qp))
    for _ in range(n_random):
        g_starts.append(rng.standard_normal(m))
    for g0 in g_starts:
        g = normalize(np.asarray(g0, dtype=float))
        if g is None:
            continue
        prev = -1.0
        for _ in range(max_iter):
            y = gram @ g
            ay = np.abs(y)
            mapped = np.zeros_like(y)
            pos = ay > 0.0
            mapped[pos] = ay[pos] ** inv_exp * y[pos]
            g_next = normalize(mapped)
            if g_next is None:
                break
            g = g_next
            val = float(np.linalg.norm(a.T @ g))
            if abs(val - prev) < tol * max(val, 1.0):
                break
            prev = val
        else:
            continue  # max_iter ran out before the stop rule
        ranked.append(float(np.linalg.norm(a.T @ g)))
    if not ranked:
        raise ComputationError("adjoint fixed point converged from no start")
    return max(ranked)


def _angles_to_unit(angles: np.ndarray) -> np.ndarray:
    """Hyperspherical parametrization of unit vectors, one column per point."""
    k, npts = angles.shape
    out = np.ones((k + 1, npts))
    for j in range(k):
        out[j] *= np.cos(angles[j])
        out[j + 1 :] *= np.sin(angles[j])
    return out


def brute_force_norm(matrix: np.ndarray, q: float, n_angles: int = 60) -> float:
    """Dense angular-grid oracle for n <= 4, polished from the best grid point.

    The first maximizing grid point in row-major order seeds the polish, so
    ties resolve lexicographically in the angle tuple.
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    if not q > 1.0:
        raise DomainError("exponent q must exceed 1")
    m, n = a.shape
    if n > 4:
        raise DomainError("brute force oracle is limited to n <= 4")
    if n == 1:
        return lq_norm(a[:, 0], q)
    k = n - 1
    grids = [np.linspace(0.0, math.pi, n_angles, endpoint=False)] * k
    mesh = np.array(np.meshgrid(*grids, indexing="ij")).reshape(k, -1)
    pts = _angles_to_unit(mesh)
    vals = np.sum(np.abs(a @ pts) ** q, axis=0)
    i0 = int(np.argmax(vals))

    def neg(ang):
        f = _angles_to_unit(np.asarray(ang, dtype=float).reshape(k, 1))[:, 0]
        return -lq_norm(a @ f, q)

    res = minimize(neg, mesh[:, i0], method="Powell", options={"xtol": 1e-13, "ftol": 1e-14, "maxiter": 10000})
    if not res.success:
        raise ComputationError("Powell polish did not converge: %s" % res.message)
    return max(float(vals[i0] ** (1.0 / q)), -float(res.fun))


def finite_operator(matrix: np.ndarray, q: float, seed: int = 0) -> FiniteOperator:
    """Build the operator and certify alpha = ||A|| = ||A^T|| two ways."""
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DomainError("matrix must be a nonempty 2D array")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    primal = op_norm_ascent(a, q, seed=seed)
    dual = adjoint_norm_fixed_point(a, q, seed=seed)
    alpha = max(primal, dual)
    if abs(primal - dual) > _NORM_AGREE_TOL * max(alpha, 1.0):
        raise ComputationError(
            "primal and adjoint norms disagree: %.12g vs %.12g" % (primal, dual)
        )
    return FiniteOperator(
        matrix=a, q=float(q), op_norm=alpha, primal_norm=primal, adjoint_norm=dual
    )


def dual_vector(f: np.ndarray, op: FiniteOperator) -> np.ndarray:
    """g with unit q'-norm pairing maximally with Af.

    <f, A^T g> = ||Af||_q holds by construction; when f is a norm optimizer,
    g is one for the adjoint.
    """
    f = np.asarray(f, dtype=float)
    if abs(np.linalg.norm(f) - 1.0) > 1e-12:
        raise PreconditionError("input must be a Euclidean unit vector")
    y = op.matrix @ f
    ny = lq_norm(y, op.q)
    if ny == 0.0:
        raise DegenerateInputError("Af = 0 admits no dual vector")
    g = ny ** (1.0 - op.q) * np.abs(y) ** (op.q - 2.0) * y
    g = np.where(np.isfinite(g), g, 0.0)
    qp = q_conjugate(op.q)
    if abs(lq_norm(g, qp) - 1.0) > 1e-12:
        raise ComputationError("dual vector lost its unit q'-norm")
    return g


def primal_vector(g: np.ndarray, op: FiniteOperator) -> np.ndarray:
    """Unit vector in the direction of A^T g."""
    g = np.asarray(g, dtype=float)
    qp = q_conjugate(op.q)
    if abs(lq_norm(g, qp) - 1.0) > 1e-12:
        raise PreconditionError("input must have unit q'-norm")
    v = op.matrix.T @ g
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise DegenerateInputError("A^T g = 0 admits no primal vector")
    return v / nv
