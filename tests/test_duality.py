"""Finite-dimensional duality: ||A||_{2->q} = ||A^T||_{q'->2} and extremal pairs.

Closed forms used as anchors:
    diagonal, q >= 2:  max_i |a_i|
    diagonal, q < 2:   ||(a_i)||_r with 1/r = 1/q - 1/2
    rank one  u v^T:   ||u||_q ||v||_2
    q = 2:             largest singular value
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from sobolev_lab import _kernels, duality, zonal
from sobolev_lab.duality import (
    adjoint_norm_fixed_point,
    brute_force_norm,
    dual_vector,
    finite_operator,
    lq_norm,
    op_norm_ascent,
    primal_vector,
    q_conjugate,
)
from sobolev_lab.errors import (
    ComputationError,
    DegenerateInputError,
    DomainError,
    PreconditionError,
)


def test_q_conjugate_basics():
    assert q_conjugate(2.0) == 2.0
    assert q_conjugate(1.5) == 3.0
    assert q_conjugate(6.0) == 1.2
    q = 2.71
    assert 1.0 / q + 1.0 / q_conjugate(q) == pytest.approx(1.0, rel=1e-15)
    assert q_conjugate(q_conjugate(q)) == pytest.approx(q, rel=1e-14)
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            q_conjugate(bad)


def test_diagonal_closed_forms():
    a = np.diag([2.0, 3.0])
    # q >= 2: the norm concentrates on the largest entry
    assert finite_operator(a, 3.0).op_norm == pytest.approx(3.0, rel=1e-10)
    assert finite_operator(a, 2.0).op_norm == pytest.approx(3.0, rel=1e-10)
    # q < 2: interpolation spreads mass, 1/r = 1/q - 1/2
    assert finite_operator(a, 1.5).op_norm == pytest.approx(
        793.0 ** (1.0 / 6.0), rel=1e-10
    )
    assert finite_operator(a, 1.5).op_norm == pytest.approx(
        3.0423711763595168, rel=1e-12
    )


def test_rank_one_closed_form():
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([0.7, 1.1])
    a = np.outer(u, v)
    for q, frozen in ((1.5, 3.3843800840313817), (3.0, 2.7245958141206232)):
        op = finite_operator(a, q)
        assert op.op_norm == pytest.approx(
            lq_norm(u, q) * np.linalg.norm(v), rel=1e-10
        )
        assert op.op_norm == pytest.approx(frozen, rel=1e-12)


def test_q2_matches_singular_value():
    rng = np.random.default_rng(7)
    for m, n in ((2, 2), (3, 5), (5, 3), (4, 4), (1, 6)):
        a = rng.standard_normal((m, n))
        op = finite_operator(a, 2.0)
        assert op.op_norm == pytest.approx(
            float(scipy.linalg.svdvals(a)[0]), rel=1e-10
        )


def test_primal_and_adjoint_routes_agree():
    rng = np.random.default_rng(42)
    qs = (1.5, 2.0, 3.0, 6.0)
    worst = 0.0
    for k in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((m, n))
        q = qs[k % 4]
        p = op_norm_ascent(a, q, seed=k)
        d = adjoint_norm_fixed_point(a, q, seed=k)
        worst = max(worst, abs(p - d) / max(p, 1.0))
    assert worst < 1e-9


def test_adjoint_iteration_is_the_primal_ascent_seen_through_a_transpose():
    # psi_(q')^(-1) = psi_q, so the adjoint step g -> psi_q(A A^T g), then
    # normalized, moves f = A^T g / |A^T g| by the primal step
    # f -> normalize(A^T psi_q(A f)): both routes iterate one map
    rng = np.random.default_rng(8)
    worst = 0.0
    for k in range(60):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        q = (1.5, 2.0, 3.0, 6.0)[k % 4]
        qp = q_conjugate(q)
        a = rng.standard_normal((m, n))
        g = rng.standard_normal(m)
        f = a.T @ g / np.linalg.norm(a.T @ g)
        for _ in range(30):
            y = a @ (a.T @ g)
            g = np.zeros_like(y)
            pos = y != 0.0
            g[pos] = np.abs(y[pos]) ** (1.0 / (qp - 1.0) - 1.0) * y[pos]
            g /= lq_norm(g, qp)
            # one primal step: a negative tol never stops the ascent early
            f, _ = _kernels.lq_ascent(a, q, f, 1, -1.0)
            shadow = a.T @ g / np.linalg.norm(a.T @ g)
            worst = max(worst, float(np.max(np.abs(shadow - f))))
    assert worst < 1e-13


def test_operator_stores_both_route_values():
    # the certified operator carries exactly what a fresh call of each route
    # returns, so checks can read the routes back instead of rerunning them
    rng = np.random.default_rng(11)
    for k, q in enumerate((1.5, 2.0, 3.0, 6.0)):
        a = rng.standard_normal((3 + k, 5 - k))
        op = finite_operator(a, q, seed=k)
        assert op.primal_norm == op_norm_ascent(a, q, seed=k)
        assert op.adjoint_norm == adjoint_norm_fixed_point(a, q, seed=k)
        assert op.op_norm == max(op.primal_norm, op.adjoint_norm)


def test_brute_force_oracle_agrees():
    rng = np.random.default_rng(3)
    for k, q in enumerate((1.5, 2.0, 3.0, 6.0) * 3):
        n = 2 + k % 3
        a = rng.standard_normal((4, n))
        op = finite_operator(a, q, seed=k)
        assert brute_force_norm(a, q) == pytest.approx(op.op_norm, rel=1e-8)


def test_brute_force_single_column():
    a = np.array([[1.0], [-2.0], [2.0]])
    assert brute_force_norm(a, 3.0) == pytest.approx(17.0 ** (1.0 / 3.0), rel=1e-14)


def test_pairing_identity_any_direction():
    # <f, A^T g> recovers ||Af||_q for every unit f, optimizer or not
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    op = finite_operator(a, 3.0)
    for _ in range(10):
        f = rng.standard_normal(3)
        f /= np.linalg.norm(f)
        g = dual_vector(f, op)
        assert lq_norm(g, q_conjugate(3.0)) == pytest.approx(1.0, abs=1e-12)
        val = float(f @ (a.T @ g))
        assert val == pytest.approx(lq_norm(a @ f, 3.0), rel=1e-12)
        assert val <= op.op_norm * (1.0 + 1e-12)


def test_extremal_pair_round_trip():
    # duality-map iteration f <- primal(dual(f)) converges to an optimizer;
    # at the fixed point the pairing attains the certified norm
    rng = np.random.default_rng(9)
    for q in (1.5, 3.0, 6.0):
        a = rng.standard_normal((4, 4))
        op = finite_operator(a, q)
        f = np.ones(4) / 2.0
        for _ in range(600):
            f_next = primal_vector(dual_vector(f, op), op)
            if np.max(np.abs(f_next - f)) < 1e-15:
                f = f_next
                break
            f = f_next
        g = dual_vector(f, op)
        assert lq_norm(a @ f, q) == pytest.approx(op.op_norm, rel=1e-9)
        assert float(f @ (a.T @ g)) == pytest.approx(op.op_norm, rel=1e-9)
        back = primal_vector(g, op)
        assert min(
            float(np.max(np.abs(back - f))), float(np.max(np.abs(back + f)))
        ) < 1e-9


def test_error_paths():
    a = np.eye(2)
    op = finite_operator(a, 3.0)
    with pytest.raises(PreconditionError):
        dual_vector(np.array([1.0, 1.0]), op)
    with pytest.raises(PreconditionError):
        primal_vector(np.array([0.9, 0.9]), op)
    sing = finite_operator(np.array([[1.0, 0.0], [0.0, 0.0]]), 3.0)
    with pytest.raises(DegenerateInputError):
        dual_vector(np.array([0.0, 1.0]), sing)
    with pytest.raises(DomainError):
        brute_force_norm(np.ones((2, 5)), 3.0)
    with pytest.raises(DomainError):
        op_norm_ascent(np.ones((2, 2)), 1.0)
    with pytest.raises(DomainError):
        finite_operator(np.array([[np.inf, 1.0]]), 3.0)


@pytest.mark.parametrize("route", [dual_vector, primal_vector])
@pytest.mark.parametrize(
    "x",
    [np.array([np.nan, np.nan]), np.array([1.0, 0.0, 0.0]), np.array([[1.0, 0.0]])],
    ids=["nan", "long", "row"],
)
def test_extremal_pair_refuses_a_nonfinite_or_misshapen_input(route, x):
    # a NaN used to pass the unit-norm test and come back as NaN (primal) or
    # as a ComputationError (dual); a wrong shape raised numpy's bare ValueError
    op = finite_operator(np.array([[1.0, 2.0], [3.0, -1.0]]), 3.0)
    with pytest.raises(PreconditionError):
        route(x, op)


def test_norm_scales_linearly():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 3))
    base = finite_operator(a, 1.5).op_norm
    assert finite_operator(2.5 * a, 1.5).op_norm == pytest.approx(
        2.5 * base, rel=1e-10
    )


def test_wide_and_tall_shapes():
    rng = np.random.default_rng(17)
    tall = rng.standard_normal((8, 2))
    wide = rng.standard_normal((2, 8))
    for q in (1.5, 4.0):
        vt = finite_operator(tall, q).op_norm
        vw = finite_operator(wide, q).op_norm
        assert vt > 0 and vw > 0
        assert brute_force_norm(tall, q) == pytest.approx(vt, rel=1e-8)


def test_zero_matrix_has_norm_zero_and_no_dual_vector():
    op = finite_operator(np.zeros((3, 2)), 3.0)
    assert op.op_norm == op.primal_norm == op.adjoint_norm == 0.0
    with pytest.raises(DegenerateInputError):
        dual_vector(np.array([1.0, 0.0]), op)


def test_zero_row_leaves_the_norm_unchanged():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 3))
    padded = np.insert(a, 1, 0.0, axis=0)
    for q in (1.5, 3.0):
        val = finite_operator(padded, q).op_norm
        assert val == pytest.approx(finite_operator(a, q).op_norm, rel=1e-9)
        assert brute_force_norm(padded, q) == pytest.approx(val, rel=1e-8)


def test_q_near_one_agrees_with_brute_force():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 3))
    for q in (1.02, 1.05, 1.1):
        val = finite_operator(a, q).op_norm
        assert brute_force_norm(a, q) == pytest.approx(val, rel=1e-8)


def _minimize_capped_at_one_iteration(*args, **kwargs):
    kwargs["options"] = dict(kwargs["options"], maxiter=1)
    return scipy.optimize.minimize(*args, **kwargs)


def test_op_norm_ascent_without_a_converged_start_raises(monkeypatch):
    monkeypatch.setattr(duality, "_ASCENT_MAX_ITER", 1)
    a = np.random.default_rng(29).standard_normal((4, 3))
    with pytest.raises(ComputationError, match="no start"):
        op_norm_ascent(a, 3.0)


def test_op_norm_ascent_runs_no_optimizer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("op_norm_ascent called scipy's minimize")

    monkeypatch.setattr(duality, "minimize", refuse)
    a = np.diag([2.0, 3.0])
    assert op_norm_ascent(a, 3.0) == pytest.approx(3.0, rel=1e-10)
    assert op_norm_ascent(a, 1.5) == pytest.approx(793.0 ** (1.0 / 6.0), rel=1e-10)
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([0.7, 1.1])
    for q in (1.5, 3.0):
        assert op_norm_ascent(np.outer(u, v), q) == pytest.approx(
            lq_norm(u, q) * np.linalg.norm(v), rel=1e-10
        )
    b = np.random.default_rng(7).standard_normal((3, 5))
    assert op_norm_ascent(b, 2.0) == pytest.approx(
        float(scipy.linalg.svdvals(b)[0]), rel=1e-10
    )


def test_unconverged_powell_polish_raises(monkeypatch):
    monkeypatch.setattr(duality, "minimize", _minimize_capped_at_one_iteration)
    a = np.random.default_rng(29).standard_normal((4, 3))
    with pytest.raises(ComputationError, match="Powell"):
        brute_force_norm(a, 3.0)


@pytest.mark.parametrize(
    "route", [op_norm_ascent, adjoint_norm_fixed_point, brute_force_norm, finite_operator]
)
@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (3,)])
def test_every_route_refuses_an_empty_or_flat_matrix(route, shape):
    with pytest.raises(DomainError, match="nonempty 2D"):
        route(np.zeros(shape), 3.0)


def test_adjoint_fixed_point_without_a_converged_start_raises(monkeypatch):
    monkeypatch.setattr(duality, "_ADJOINT_MAX_ITER", 1)
    a = np.random.default_rng(29).standard_normal((4, 3))
    with pytest.raises(ComputationError, match="no start"):
        adjoint_norm_fixed_point(a, 3.0)


@pytest.mark.parametrize(
    "route", [op_norm_ascent, adjoint_norm_fixed_point, brute_force_norm, finite_operator]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_route_refuses_a_nonfinite_entry(route, bad):
    with pytest.raises(DomainError, match="entries must be finite"):
        route(np.array([[bad, 1.0], [0.5, 2.0]]), 3.0)


@pytest.mark.parametrize(
    "route", [op_norm_ascent, adjoint_norm_fixed_point, brute_force_norm, finite_operator]
)
@pytest.mark.parametrize("q", [1.0, 0.5, np.inf, np.nan])
def test_every_route_refuses_an_exponent_outside_one_to_infinity(route, q):
    # at q = inf the grid and the ascent used to read 1.0 here; the 2 -> inf
    # norm of [[1, 2], [3, -1]] is sqrt(10)
    with pytest.raises(DomainError, match="1 < q < inf"):
        route(np.array([[1.0, 2.0], [3.0, -1.0]]), q)
    with pytest.raises(DomainError, match="1 < q < inf"):
        q_conjugate(q)


@pytest.mark.parametrize(
    "route", [op_norm_ascent, adjoint_norm_fixed_point, brute_force_norm, finite_operator]
)
def test_every_route_refuses_an_overflowed_norm(route):
    # |Af|^q overflows at q = 1e6; the certified norm used to read NaN
    with np.errstate(all="ignore"), pytest.raises(ComputationError, match="not finite"):
        route(np.array([[1.0, 2.0], [3.0, -1.0]]), 1e6)


@pytest.mark.parametrize(
    "route, args",
    [
        (op_norm_ascent, (np.array([[1.0, 2.0], [3.0, -1.0]]), 3.0)),
        (adjoint_norm_fixed_point, (np.array([[1.0, 2.0], [3.0, -1.0]]), 3.0)),
        (finite_operator, (np.array([[1.0, 2.0], [3.0, -1.0]]), 3.0)),
        # the sphere's subcritical scan is the other seeded library route
        (zonal.subcritical_check, (3, 4.0)),
    ],
    ids=["op_norm_ascent", "adjoint_norm_fixed_point", "finite_operator", "subcritical_check"],
)
def test_every_seeded_route_refuses_a_negative_seed(route, args):
    with pytest.raises(DomainError, match="seed must be nonnegative"):
        route(*args, seed=-1)
    # numpy's SeedSequence raised a bare TypeError on a float
    for bad in (1.5, 2.0, "3", None):
        with pytest.raises(DomainError, match="seed must be an integer"):
            route(*args, seed=bad)


def test_lq_norm_rescales_only_where_the_plain_sum_fails():
    # where sum |x|^q lies in (0, inf) the value is the plain formula, bit for bit
    rng = np.random.default_rng(41)
    for q in (1.5, 3.0, 50.0):
        x = rng.standard_normal(7)
        assert lq_norm(x, q) == float(np.sum(np.abs(x) ** q) ** (1.0 / q))
    # all powers underflow to 0, or one overflows: rescale by max |x|
    with np.errstate(over="ignore"):
        for size in (1e-200, 1e200):
            got = lq_norm(np.array([size, -size]), 2.0)
            assert got == pytest.approx(math.sqrt(2.0) * size, rel=1e-15)
    assert lq_norm(np.zeros(3), 3.0) == 0.0


@pytest.mark.parametrize(
    "route", [op_norm_ascent, adjoint_norm_fixed_point, brute_force_norm]
)
def test_every_route_reads_a_norm_whose_powers_underflow(route):
    # 0.5^2000 underflows to 0; the ascent and the grid used to read 0.0
    assert route(0.5 * np.eye(2), 2000.0) == pytest.approx(0.5, rel=1e-12)


def test_finite_operator_certifies_a_norm_whose_powers_underflow():
    # the primal route used to read 0.0, so the two routes "disagreed"
    op = finite_operator(0.5 * np.eye(2), 2000.0)
    assert op.op_norm == pytest.approx(0.5, rel=1e-12)


def _dense_grid_reference(a, q):
    """The grid phase evaluated on the whole np.meshgrid at once."""
    k = a.shape[1] - 1
    grids = [np.linspace(0.0, math.pi, duality._BRUTE_N_ANGLES, endpoint=False)] * k
    mesh = np.array(np.meshgrid(*grids, indexing="ij")).reshape(k, -1)
    vals = np.sum(np.abs(a @ duality._angles_to_unit(mesh)) ** q, axis=0)
    i0 = int(np.argmax(vals))
    return mesh[:, i0], float(vals[i0] ** (1.0 / q))


def _recording_minimize(monkeypatch):
    calls = []

    def record(fun, x0, **kwargs):
        res = scipy.optimize.minimize(fun, x0, **kwargs)
        calls.append((np.array(x0, dtype=float), res))
        return res

    monkeypatch.setattr(duality, "minimize", record)
    return calls


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocked_grid_seeds_the_polish_as_the_dense_grid_does(monkeypatch, n, q):
    # the walk in blocks must start Powell at the first maximizing grid point
    # of the dense row-major grid and return its value bit for bit
    calls = _recording_minimize(monkeypatch)
    rng = np.random.default_rng(31 + 10 * n)
    for m in (1, 3, 8):
        a = rng.standard_normal((m, n))
        got = brute_force_norm(a, q)
        start, grid_norm = _dense_grid_reference(a, q)
        x0, res = calls[-1]
        assert np.array_equal(x0, start)
        assert got == max(grid_norm, -float(res.fun))


def test_blocked_grid_breaks_a_full_tie_at_the_first_grid_point(monkeypatch):
    calls = _recording_minimize(monkeypatch)
    assert brute_force_norm(np.zeros((3, 4)), 3.0) == 0.0
    x0, _ = calls[-1]
    assert np.array_equal(x0, np.zeros(3))
    assert np.array_equal(x0, _dense_grid_reference(np.zeros((3, 4)), 3.0)[0])


def test_brute_force_grid_runs_in_a_bounded_working_set():
    # the dense 60^3 grid of an 8 x 4 matrix traced a 38 MB peak
    a = np.random.default_rng(37).standard_normal((8, 4))
    tracemalloc.start()
    try:
        brute_force_norm(a, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _large_q_cases():
    """120 random 0.2-scaled matrices: m = 2..6, n = 2..4, 40 each at q = 50, 200, 800.

    At large q their powers |Af|^q fall below the float range: before the
    rescaling, op_norm_ascent read low on 38 of them and the brute-force grid
    was all zeros on 12.
    """
    rng = np.random.default_rng(2304)
    cases = []
    for q in (50.0, 200.0, 800.0):
        for _ in range(40):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            cases.append((0.2 * rng.standard_normal((m, n)), q))
    return cases


def test_large_q_ascent_and_grid_survive_underflow(monkeypatch):
    grids = []

    def recorded(a, q):
        grids.append(grid_max(a, q))
        return grids[-1]

    grid_max = duality._grid_max
    monkeypatch.setattr(duality, "_grid_max", recorded)
    for a, q in _large_q_cases():
        brute = brute_force_norm(a, q)
        grid_norm, _ = grids[-1]
        assert grid_norm > 0.0
        assert op_norm_ascent(a, q) >= brute * (1.0 - 1e-9)


def test_large_q_routes_agree_and_the_extremal_pair_survives():
    # the adjoint's powers used to underflow (cases 91 and 95 read 22% and
    # 9.7% low), a subnormal power sum cost the primal and grid values their
    # last 7 digits (case 105), and dual_vector overflowed on most q = 800
    # matrices; finite_operator refused all three cases
    for i, (a, q) in enumerate(_large_q_cases()):
        op = finite_operator(a, q)
        brute = brute_force_norm(a, q)
        assert op.primal_norm == pytest.approx(op.adjoint_norm, rel=1e-9), i
        assert brute == pytest.approx(op.op_norm, rel=1e-9), i
        f = np.random.default_rng(i).standard_normal(a.shape[1])
        f /= np.linalg.norm(f)
        g = dual_vector(f, op)
        val = lq_norm(a @ f, q)
        assert float(f @ (a.T @ g)) == pytest.approx(val, rel=1e-9), i
        # one ascent step: the convex norm does not decrease along it
        back = primal_vector(g, op)
        assert val * (1.0 - 1e-12) <= lq_norm(a @ back, q) <= op.op_norm * (1.0 + 1e-9), i


def test_lq_norm_rescales_a_subnormal_power_sum():
    # 9e-320 + 1.6e-319 is subnormal, about 15 significant bits: the plain
    # sum read 5e-160 to 2e-5 relative
    x = np.array([3e-160, -4e-160])
    assert np.sum(x**2) < np.finfo(np.float64).tiny
    assert lq_norm(x, 2.0) == pytest.approx(5e-160, rel=1e-15, abs=0.0)


def test_dual_vector_below_q_two_skips_a_zero_entry_silently():
    # |0|^(q-2) is 1/0 at q < 2: the formula warned "divide by zero", which
    # the CI runs of verify turn into a failure
    op = finite_operator(np.array([[2.0, 0.0], [0.0, 1.0]]), 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = dual_vector(np.array([1.0, 0.0]), op)
    assert g[1] == 0.0
    assert lq_norm(g, 3.0) == pytest.approx(1.0, rel=1e-15)


def test_finite_operator_refuses_routes_that_disagree(monkeypatch):
    monkeypatch.setattr(
        duality, "adjoint_norm_fixed_point", lambda a, q, seed: 1.1 * op_norm_ascent(a, q)
    )
    with pytest.raises(ComputationError, match="primal and adjoint norms disagree"):
        finite_operator(np.array([[1.0, 2.0], [3.0, -1.0]]), 3.0)


def _plain_ascent(a, q, f0, max_iter, tol):
    """The ascent with no rescaling, as it ran before the underflow fix."""
    f = f0 / np.linalg.norm(f0)
    it = 0
    for it in range(1, max_iter + 1):
        y = a @ f
        ay = np.abs(y)
        w = np.zeros_like(y)
        pos = ay > 0.0
        w[pos] = ay[pos] ** (q - 2.0) * y[pos]
        g = a.T @ w
        gn = np.linalg.norm(g)
        if gn == 0.0:
            break
        fn = g / gn
        if min(np.linalg.norm(fn - f), np.linalg.norm(fn + f)) < tol:
            f = fn
            break
        f = fn
    return f, it


def test_ascent_and_grid_rescale_only_where_the_powers_underflow():
    # where no power underflows, the ascent and the grid keep their bits
    rng = np.random.default_rng(43)
    for q in (1.5, 2.0, 3.0, 6.0, 50.0):
        for m, n in ((3, 2), (5, 3), (8, 4)):
            a = rng.standard_normal((m, n))
            for f0 in duality._ascent_starts(n, 0):
                f, it = _kernels.lq_ascent(a, q, f0, 4000, 1e-14)
                ref, ref_it = _plain_ascent(a, q, f0, 4000, 1e-14)
                assert type(it) is int and it == ref_it
                assert f.tobytes() == ref.tobytes()
            grid_norm, start = duality._grid_max(a, q)
            ref_start, ref_norm = _dense_grid_reference(a, q)
            assert grid_norm == ref_norm
            assert np.array_equal(start, ref_start)
