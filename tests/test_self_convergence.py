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

The period quadrature runs on ``DEFAULT_N_THETA`` Gauss nodes. On the branch
amplitudes up to 2 T_*, doubling the nodes must move the period by no more
than the 1e-10 relative that the round trip ``period(inverse_period(d, T))
= T`` claims. Measured worst move: 4.7e-11 (d = 5, 2 T_*), so the bound
leaves a factor 2. Longer periods are not converged at the default: 7.9e-9
at d = 5, 3 T_*, and 2.3e-10 at d = 4; they are not checked here.

Each default discretization has one home, a module constant that every
signature taking it reads, so that a check at N and 2N varies the N the
library runs at.
"""

import ast
import pathlib

import numpy as np
import pytest

from sobolev_lab import cylinder, stability, zonal
from sobolev_lab.cylinder import (
    DEFAULT_N_GRID,
    DEFAULT_N_THETA,
    _integrate,
    _mirrored_samples,
    inverse_period,
    period,
    solve_orbit,
    t_star,
    u0,
)

TIGHT = dict(rtol=1e-13, atol=1e-15)
BOUND = 1e-10
# relative; the round trip's claim, twice the measured 4.7e-11 (docstring)
PERIOD_BOUND = 1e-10


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
    n = DEFAULT_N_GRID
    T = frac * t_star(d)
    alpha = inverse_period(d, T)
    ref, tight = (
        _mirrored_samples(_integrate(d, alpha, 0.5 * T, **tol), T / n, n, closed=False)
        for tol in ({}, TIGHT)
    )
    for a, b in zip(ref, tight):
        assert np.max(np.abs(a - b)) <= BOUND


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("frac", [1.05, 1.5, 2.0])
def test_period_converges_in_n_theta(d, frac):
    alpha = inverse_period(d, frac * t_star(d))
    ref, fine = period(d, alpha), period(d, alpha, 2 * DEFAULT_N_THETA)
    assert abs(ref - fine) <= PERIOD_BOUND * fine


# parameter: (module, constant, value); a speedup may not shrink these
HOMES = {
    "bandlimit": (zonal, "DEFAULT_BANDLIMIT", 64),
    "order": (zonal, "DEFAULT_ORDER", 256),
    "n_modes": (cylinder, "DEFAULT_N_MODES", 128),
    "n_grid": (cylinder, "DEFAULT_N_GRID", 4096),
    "n_theta": (cylinder, "DEFAULT_N_THETA", 240),
    "n_azimuthal": (stability, "DEFAULT_N_AZIMUTHAL", 64),
}

# module.function of every signature that defaults a parameter to its home
SPHERE_SUITES = "verify.sphere_checks verify.conformal_checks verify.stability_checks"
AT_HOME = {
    "bandlimit": "zonal.analyze conformal.q_zeta "
    "conformal.radial_transfer " + SPHERE_SUITES,
    "order": "zonal.from_coeffs conformal.q_zeta "
    "conformal.radial_transfer " + SPHERE_SUITES,
    "n_modes": "cylinder.hessian_block_spectrum cylinder.zero_mode_pairing "
    "cylinder.c_T_numeric cylinder.c_T cylinder.quartic_constants "
    "verify.cylinder_checks",
    "n_grid": "cylinder.optimizer_branch cylinder.hessian_block_spectrum "
    "cylinder.c_T_numeric cylinder.c_T cylinder.quartic_constants "
    "cylinder.degenerate_quotient_curve",
    "n_theta": "cylinder.period cylinder.orbit_integrals "
    "cylinder.sobolev_constant_cylinder cylinder.orbit_branch_value",
    "n_azimuthal": "stability.zeta_moment_integral stability.distance "
    "stability.be_quotient stability.quotient_curve",
}


def _spelled_defaults():
    """{(module, function, parameter): default node} over the package source."""
    out = {}
    for path in pathlib.Path(zonal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args
                for arg, default in zip(args[len(args) - len(node.args.defaults):],
                                        node.args.defaults):
                    out[path.stem, node.name, arg.arg] = default
    return out


def test_each_default_discretization_has_one_home():
    for module, name, value in HOMES.values():
        assert getattr(module, name) == value
    spelled = _spelled_defaults()
    for param, sites in AT_HOME.items():
        home = HOMES[param][1]
        for site in sites.split():
            module, function = site.split(".")
            default = spelled[module, function, param]
            assert getattr(default, "id", getattr(default, "attr", None)) == home, (
                module, function, param
            )
    # a literal default may differ on purpose (minimize_quotient's 512-point
    # grid), but never copies the home's value
    for (module, function, param), default in spelled.items():
        if param in HOMES and isinstance(default, ast.Constant):
            assert default.value != HOMES[param][2], (module, function, param)
