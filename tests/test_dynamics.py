"""Dynamical oracles for the basic frequencies and the second-order
components.

Frequency analysis of drag-free orbits (`oracles.orbit_frequencies`)
reads omega1 and omega2 off the flow, with no d'Alembert algebra, and
checks `normalform.frequencies` against them.

The chain's B1 and B2 are evaluated along the linear angles
phi1 = 0.3 + omega1 t, phi2 = 1.1 - omega2 t (the convention of
D = omega1 d/dphi1 - omega2 d/dphi2) at actions I1 = I2 = I, and the
flow is integrated from the series' state at t = 0 over two slow
periods.  The flow is written out in `oracles` and shares no code with
the d'Alembert algebra.  Amplitude scales like sqrt(I), so the position
error of B1 alone falls like I (a factor 4 per quartering of I), and
with B1 + B2 like I^(3/2) (a factor 8): the second-order components
remove the degree-3 part of the energy.
"""

import math

import pytest
from scipy.integrate import solve_ivp

from l4norm.dalembert import apply_D
from l4norm.model import ModelParams
from l4norm.normalform import frequencies
from l4norm.verify import PipelineOptions, run_pipeline

from oracles import State, eom_rhs, lagrangian_rhs, orbit_frequencies, series_value

ACTIONS = (1e-6, 2.5e-7, 6.25e-8)
PHASES = (0.3, 1.1)


def orbit_errors(p, branch, rhs):
    """Position error at the end time for B1 alone and for B1 + B2, at
    each of ACTIONS."""
    res = run_pipeline(p, PipelineOptions(branch=branch), stages=("b2",))
    w, eq = res.freq, res.eq_numeric
    t_end = 2.0 * (2.0 * math.pi / w.omega2)
    b1, b2 = res.b1, (res.b2.b2x, res.b2.b2y)
    models = {"b1": b1, "b1+b2": tuple(a + b for a, b in zip(b1, b2))}

    def flow(_t, y):
        s = State(*y)
        return (s.xdot, s.ydot, *rhs(s, p))

    def state(series, action, t):
        """(x, y, xdot, ydot) of the series; velocities are D of it."""
        angles = (PHASES[0] + w.omega1 * t, PHASES[1] - w.omega2 * t)
        x, y, xd, yd = (series_value(s, action, action, *angles)
                        for s in (*series, *(apply_D(s, w) for s in series)))
        return [eq.x + x, eq.y + y, xd, yd]

    out = {name: [] for name in models}
    for action in ACTIONS:
        for name, series in models.items():
            sol = solve_ivp(flow, (0.0, t_end), state(series, action, 0.0),
                            method="DOP853", rtol=1e-13, atol=1e-15)
            assert sol.success, sol.message
            want = state(series, action, t_end)
            got = sol.y[:, -1]
            out[name].append(max(abs(got[0] - want[0]), abs(got[1] - want[1])))
    return out


def ratios(errors):
    return [a / b for a, b in zip(errors, errors[1:])]


DRAG = {"q1": 0.999, "A2": 1e-4, "cd": 10.0}


# The smallest separation of B1 + B2 from B1 alone at I = 1e-6 each point
# must show; at mu 0.03 the third-order terms are larger (L5 measures 1/23).
POINTS = [(0.01, {}, 50.0), (0.01, DRAG, 50.0),
          (0.03, {"q1": 0.995, "A2": 2e-3, "cd": 3.0}, 20.0)]


@pytest.mark.parametrize("branch", ["L4", "L5"])
@pytest.mark.parametrize("mu, drag, separation", POINTS,
                         ids=["free", "drag", "drag-mu0.03"])
def test_b2_removes_the_cubic_along_the_flow(mu, drag, separation, branch):
    p = ModelParams(mu=mu, **drag)
    errors = orbit_errors(p, branch, lagrangian_rhs if drag else eom_rhs)
    # at mu 0.01, L4, drag-free: 5.1e-5, 1.3e-5, 3.2e-6 and 6.0e-7, 7.5e-8, 9.4e-9
    assert all(3.5 < r < 4.5 for r in ratios(errors["b1"])), errors
    assert all(7.0 < r < 9.0 for r in ratios(errors["b1+b2"])), errors
    assert errors["b1+b2"][0] < errors["b1"][0] / separation, errors


def test_dissipative_drag_leaves_the_normal_form():
    # The velocity-dependent drag of `eom_rhs` is not in the Lagrangian the
    # chain normalizes: along it the B1 + B2 error falls only like the
    # amplitude (2.6e-5, 1.3e-5, 6.4e-6 at the drag point above).
    p = ModelParams(mu=0.01, **DRAG)
    errors = orbit_errors(p, "L4", eom_rhs)
    assert all(1.7 < r < 2.3 for r in ratios(errors["b1+b2"])), errors


# Drag-free points (cd = inf) for the frequency analysis, on both branches.
ORBIT_POINTS = [(0.01, {}, "L4"),
                (0.02, {"q1": 0.995, "A2": 0.002, "cd": math.inf}, "L5"),
                (0.001, {"q1": 0.99, "A2": 0.001, "cd": math.inf}, "L4")]


@pytest.mark.parametrize("mu, physics, branch", ORBIT_POINTS,
                         ids=["mu0.01-L4", "mu0.02-L5", "mu0.001-L4"])
def test_frequencies_match_the_orbit(mu, physics, branch):
    # An orbit at displacement 1e-6 over T = 1,000 (8,192 samples): the
    # worst gap was 9.5e-8, at mu 0.001's omega2.
    p = ModelParams(mu=mu, **physics)
    assert p.W1 == 0.0
    res = run_pipeline(p, PipelineOptions(branch=branch), stages=("taylor",))
    w = frequencies(p, res.efg)
    orbit = orbit_frequencies(p, res.eq_numeric.x, res.eq_numeric.y)
    assert abs(orbit[0] - w.omega1) <= 1e-6 and abs(orbit[1] - w.omega2) <= 1e-6, \
        (orbit, w)
