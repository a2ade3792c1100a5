"""Self-convergence: each default tolerance against a tighter one.

DOP853 runs at rtol/atol 1e-12/1e-14 (``cylinder.DEFAULT_ODE_RTOL`` and
``DEFAULT_ODE_ATOL``) in ``solve_orbit`` and ``optimizer_branch``. Tightened
tenfold to 1e-13/1e-15, the orbit's period and the branch samples must move
by no more than the 1e-10 that
``test_optimizer_branch_is_exactly_even_and_matches_full_period`` claims for
the branch samples. Measured worst moves: the ``solve_orbit`` period
1.2e-11; the branch samples 1.5e-11, at 3 T_*.

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

The moment G(zeta) runs on ``DEFAULT_N_AZIMUTHAL`` azimuthal Gauss nodes.
Doubled, G must move by no more than 1e-12 relative, for |zeta| up to 0.95
on four (d, s). Measured worst move: 2.1e-13 (d = 6, s = 2.5, |zeta| =
0.95, where the kernel's exponent (d + 2s)/2 is largest); below |zeta| =
0.95 every move is at most 4.2e-15. The bound leaves a factor 4.7.

The Newton-Galerkin branch runs on ``DEFAULT_N_MODES`` cosines. Doubled,
its amplitude must move by no more than 2e-15 relative, over d = 3..6 at
1.05 to 3 T_*. Measured worst move: 5.2e-16 (d = 4, 1.05 T_*, a few ulp,
where the Jacobian is nearest singular), so the bound leaves a factor 3.9.

Each default discretization, and the DOP853 tolerance pair, has one home, a
module constant. A discretization that a caller chooses is a parameter that
defaults to its home; the period's nodes, the azimuthal order, the
tolerance pair and the Newton branch's modes and grid are read from their
homes at call time, and a check at N and
2N (or at a tenfold tighter tolerance) sets the constant, so it varies the
value the library runs at.
"""

import ast
import pathlib

import numpy as np
import pytest

from sobolev_lab import cylinder, stability, zonal
from sobolev_lab.stability import DEFAULT_N_AZIMUTHAL, zeta_moment_integral
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

TIGHT = dict(DEFAULT_ODE_RTOL=1e-13, DEFAULT_ODE_ATOL=1e-15)
BOUND = 1e-10
# relative; the round trip's claim, twice the measured 4.7e-11 (docstring)
PERIOD_BOUND = 1e-10
# relative; 4.7 times the measured worst 2.1e-13 (docstring)
MOMENT_BOUND = 1e-12
# relative; 3.9 times the measured worst 5.2e-16 (docstring)
NEWTON_BOUND = 2e-15


def _tighten(monkeypatch) -> None:
    for name, value in TIGHT.items():
        monkeypatch.setattr(cylinder, name, value)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("frac", [0.5, 0.99])
def test_orbit_period_and_samples_converge_in_the_ode_tolerance(d, frac, monkeypatch):
    alpha = u0(d) + frac * (1.0 - u0(d))
    ref = solve_orbit(d, alpha)
    _tighten(monkeypatch)
    assert abs(solve_orbit(d, alpha).period - ref.period) <= BOUND


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("frac", [1.5, 3.0])
def test_branch_samples_converge_in_the_ode_tolerance(d, frac, monkeypatch):
    n = DEFAULT_N_GRID
    T = frac * t_star(d)
    alpha = inverse_period(d, T)
    ref = _mirrored_samples(_integrate(d, alpha, 0.5 * T), T / n, n)
    _tighten(monkeypatch)
    tight = _mirrored_samples(_integrate(d, alpha, 0.5 * T), T / n, n)
    for a, b in zip(ref, tight):
        assert np.max(np.abs(a - b)) <= BOUND


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("frac", [1.05, 1.5, 2.0])
def test_period_converges_in_n_theta(d, frac, monkeypatch):
    alpha = inverse_period(d, frac * t_star(d))
    ref = period(d, alpha)
    monkeypatch.setattr(cylinder, "DEFAULT_N_THETA", 2 * DEFAULT_N_THETA)
    fine = period(d, alpha)
    assert abs(ref - fine) <= PERIOD_BOUND * fine


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("frac", [1.05, 1.5, 2.0, 3.0])
def test_newton_amplitude_converges_in_n_modes(d, frac, monkeypatch):
    T = frac * t_star(d)
    ref = cylinder._newton_branch(d, T).alpha
    monkeypatch.setattr(cylinder, "DEFAULT_N_MODES", 2 * cylinder.DEFAULT_N_MODES)
    fine = cylinder._newton_branch(d, T).alpha
    assert abs(ref - fine) <= NEWTON_BOUND * fine


@pytest.mark.parametrize("d, s", [(3, 1.0), (4, 1.0), (5, 0.7), (6, 2.5)])
def test_moment_converges_in_n_azimuthal(d, s, monkeypatch):
    params = zonal.SphereParams(d, s)
    coeffs = np.zeros(zonal.DEFAULT_BANDLIMIT + 1)
    # a positive bump of degrees 0..12, as the verify suites draw them
    raw = np.random.default_rng(d).standard_normal(13)
    coeffs[:13] = raw / (1.0 + np.arange(13)) ** 2
    coeffs[0] += 2.0
    fn = zonal.from_coeffs(coeffs, params)
    zetas = [
        (r * np.cos(angle), r * np.sin(angle))
        for r in (0.3, 0.6, 0.85, 0.95)
        for angle in np.linspace(0.0, np.pi, 7)
    ]
    ref = [zeta_moment_integral(fn, a, rho) for a, rho in zetas]
    monkeypatch.setattr(stability, "DEFAULT_N_AZIMUTHAL", 2 * DEFAULT_N_AZIMUTHAL)
    fine = [zeta_moment_integral(fn, a, rho) for a, rho in zetas]
    for r_val, f_val in zip(ref, fine):
        assert abs(r_val - f_val) <= MOMENT_BOUND * abs(f_val)


# discretization: (module, constant, value); a speedup may not shrink the
# discretizations or loosen the tolerances
HOMES = {
    "bandlimit": (zonal, "DEFAULT_BANDLIMIT", 64),
    "order": (zonal, "DEFAULT_ORDER", 256),
    "n_modes": (cylinder, "DEFAULT_N_MODES", 128),
    "n_grid": (cylinder, "DEFAULT_N_GRID", 4096),
    "n_theta": (cylinder, "DEFAULT_N_THETA", 240),
    "n_azimuthal": (stability, "DEFAULT_N_AZIMUTHAL", 64),
    "rtol": (cylinder, "DEFAULT_ODE_RTOL", 1e-12),
    "atol": (cylinder, "DEFAULT_ODE_ATOL", 1e-14),
}

# module.function of every signature that defaults a parameter to its home;
# the bandlimit, the order, the modes and the grid have one knob each, on the
# function that consumes them
SPHERE_SUITES = "verify.sphere_checks verify.conformal_checks verify.stability_checks"
AT_HOME = {
    "bandlimit": "zonal.analyze conformal.q_zeta " + SPHERE_SUITES,
    "order": "zonal.from_coeffs conformal.q_zeta " + SPHERE_SUITES,
    "n_modes": "cylinder.hessian_block_spectrum cylinder.zero_mode_pairing "
    "cylinder.c_T_numeric verify.cylinder_checks",
    "n_grid": "cylinder.optimizer_branch",
}

# module.function of every function that reads a home at call time and takes
# no parameter for it; the DOP853 pair is read by _integrate, the one run
# every orbit goes through
READ_AT_CALL = {
    "n_modes": "cylinder._newton_branch cylinder.quartic_constants",
    "n_grid": "cylinder._newton_branch",
    "n_theta": "cylinder.period cylinder.orbit_integrals",
    "n_azimuthal": "stability.zeta_moment_integral",
    "rtol": "cylinder._integrate",
    "atol": "cylinder._integrate",
}


def _functions():
    """{(module, function): FunctionDef} over the package source."""
    out = {}
    for path in pathlib.Path(zonal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                out[path.stem, node.name] = node
    return out


def _spelled_defaults(functions):
    """{(module, function, parameter): default node} over the package source."""
    out = {}
    for (module, name), node in functions.items():
        args = node.args.posonlyargs + node.args.args
        for arg, default in zip(args[len(args) - len(node.args.defaults):],
                                node.args.defaults):
            out[module, name, arg.arg] = default
    return out


def test_each_default_discretization_has_one_home():
    for module, name, value in HOMES.values():
        assert getattr(module, name) == value
    functions = _functions()
    spelled = _spelled_defaults(functions)
    for param, sites in AT_HOME.items():
        home = HOMES[param][1]
        for site in sites.split():
            module, function = site.split(".")
            default = spelled[module, function, param]
            assert getattr(default, "id", getattr(default, "attr", None)) == home, (
                module, function, param
            )
    for param, sites in READ_AT_CALL.items():
        home = HOMES[param][1]
        for site in sites.split():
            node = functions[tuple(site.split("."))]
            assert param not in {a.arg for a in node.args.args}, (site, param)
            loads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert home in loads, (site, param)
    # no default spells a home's value as a literal
    for (module, function, param), default in spelled.items():
        if param in HOMES and isinstance(default, ast.Constant):
            assert default.value != HOMES[param][2], (module, function, param)
