"""Self-convergence: each default tolerance against a tighter one.

DOP853 runs at rtol/atol 1e-12/1e-14 in ``solve_orbit`` and
``optimizer_branch``. Tightened tenfold to 1e-13/1e-15, the orbit and the
branch must move by no more than the 1e-10 that
``test_optimizer_branch_is_exactly_even_and_matches_full_period`` claims for
the branch samples. Measured worst moves: the ``solve_orbit`` period 1.2e-11,
its samples 2.3e-12; the branch samples 1.5e-11, at 3 T_*.

The period is checked up to the amplitude u0 + 0.99 (1 - u0), at most
2.15 T_*: the tests and the benchmark ask ``solve_orbit`` for no longer
orbit. Closer to the homoclinic orbit the period is ill-conditioned: at the
3 T_* branch amplitude of d = 6 the two tolerances give periods 1.2e-9
relative apart.
"""

import numpy as np
import pytest

from sobolev_lab.cylinder import (
    _integrate,
    _mirrored_samples,
    inverse_period,
    solve_orbit,
    t_star,
    u0,
)

TIGHT = dict(rtol=1e-13, atol=1e-15)
BOUND = 1e-10


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("frac", [0.5, 0.99])
def test_orbit_period_and_samples_converge_in_the_ode_tolerance(d, frac):
    alpha = u0(d) + frac * (1.0 - u0(d))
    ref, tight = solve_orbit(d, alpha), solve_orbit(d, alpha, **TIGHT)
    assert abs(tight.period - ref.period) <= BOUND
    # same sample count, so each grid is the orbit's own period over 1023
    assert np.max(np.abs(tight.u - ref.u)) <= BOUND
    assert np.max(np.abs(tight.up - ref.up)) <= BOUND


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("frac", [1.5, 3.0])
def test_branch_samples_converge_in_the_ode_tolerance(d, frac):
    n = 4096
    T = frac * t_star(d)
    alpha = inverse_period(d, T)
    ref, tight = (
        _mirrored_samples(_integrate(d, alpha, 0.5 * T, **tol), T / n, n, closed=False)
        for tol in ({}, TIGHT)
    )
    for a, b in zip(ref, tight):
        assert np.max(np.abs(a - b)) <= BOUND
