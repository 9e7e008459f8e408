import math
import random

import mpmath
import pytest
from scipy.integrate import solve_ivp

import l4norm
from l4norm.errors import CollisionError, ParameterError
from l4norm.model import ModelParams

from oracles import (State, effective_potential, eom_rhs, hamiltonian, lagrangian,
                     momenta, potential_gradient)

SQRT3_2 = math.sqrt(3.0) / 2.0


def random_states(count, seed=0):
    rng = random.Random(seed)
    states = []
    while len(states) < count:
        s = State(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                  rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        r1 = math.hypot(s.x + 0.2, s.y)
        r2 = math.hypot(s.x + 0.2 - 1.0, s.y)
        if min(r1, r2) > 0.2:
            states.append(s)
    return states


class TestModelParams:
    def test_derived_identities(self):
        p = ModelParams(mu=0.2, q1=0.998, A2=1e-3, cd=3.0)
        assert p.n**2 - 1.0 - 1.5 * p.A2 == pytest.approx(0.0, abs=1e-15)
        assert p.W1 * p.cd - (1 - p.mu) * (1 - p.q1) == pytest.approx(0.0, abs=1e-15)
        assert p.gamma == 1.0 - 2.0 * p.mu
        assert p.delta**3 == pytest.approx(p.q1, abs=1e-15)
        assert p.epsilon == pytest.approx(1.0 - p.q1, abs=1e-16)

    def test_rejects_q1_above_one(self):
        with pytest.raises(ParameterError):
            ModelParams(mu=0.1, q1=1.0 + 1e-9)

    def test_rejects_bad_mu(self):
        with pytest.raises(ParameterError):
            ModelParams(mu=0.0)
        with pytest.raises(ParameterError):
            ModelParams(mu=0.6)

    REFUSALS = {"mu": "mu must lie in (0, 1/2]", "q1": "q1 must lie in (0, 1]",
                "A2": "A2 must be finite and non-negative",
                "cd": "cd must be positive"}

    @pytest.mark.parametrize("field, value", [
        *((field, value) for field in ("mu", "q1", "A2")
          for value in (math.nan, math.inf, -math.inf)),
        ("A2", -1e-3), ("cd", math.nan), ("cd", -math.inf)])
    def test_refuses_each_value_outside_its_interval(self, field, value):
        # NaN and inf fail the one check that states the interval
        with pytest.raises(ParameterError) as refused:
            ModelParams(**{"mu": 0.01, field: value})
        assert str(refused.value) == f"{self.REFUSALS[field]}, got {value}"

    def test_infinite_cd_is_drag_free(self):
        p = ModelParams(mu=0.01, q1=0.999, cd=math.inf)
        assert p.W1 == 0.0 and p.cd == math.inf

    def test_warns_on_large_perturbation(self):
        with pytest.warns(UserWarning) as record:
            ModelParams(mu=0.1, q1=0.7)
        # the warning names the line that built the parameters
        assert {w.filename for w in record} == {__file__}


class TestEffectivePotential:
    def test_symmetric_classical_case(self):
        p = ModelParams(mu=0.5)
        value = effective_potential(State(0.0, SQRT3_2), p)
        assert value == pytest.approx(1.375, abs=1e-15)

    def test_high_precision_cross_check(self):
        # independent arbitrary-precision evaluation of the same formula
        p = ModelParams(mu=0.2)
        s = State(0.3, SQRT3_2)
        with mpmath.workdps(50):
            x, y, mu = mpmath.mpf("0.3"), mpmath.sqrt(3) / 2, mpmath.mpf("0.2")
            r1 = mpmath.sqrt((x + mu) ** 2 + y**2)
            r2 = mpmath.sqrt((x + mu - 1) ** 2 + y**2)
            expected = float((x**2 + y**2) / 2 + (1 - mu) / r1 + mu / r2)
        assert effective_potential(s, p) == pytest.approx(expected, rel=1e-14)

    def test_oblateness_additive_shift(self):
        base = ModelParams(mu=0.2)
        oblate = ModelParams(mu=0.2, A2=0.01)
        s = State(0.3, SQRT3_2)
        r2 = math.hypot(s.x + 0.2 - 1.0, s.y)
        shift = (0.2 * 0.01) / (2 * r2**3) \
            + (oblate.n**2 - 1.0) * (s.x**2 + s.y**2) / 2
        assert effective_potential(s, oblate) - effective_potential(s, base) \
            == pytest.approx(shift, rel=1e-13)

    def test_collision_identifies_primary(self):
        p = ModelParams(mu=0.3)
        with pytest.raises(CollisionError) as err:
            effective_potential(State(-0.3, 0.0), p)
        assert err.value.which == "first"
        with pytest.raises(CollisionError) as err:
            effective_potential(State(0.7, 0.0), p)
        assert err.value.which == "second"


class TestEom:
    def test_classical_l4_equilibrium(self):
        p = ModelParams(mu=0.1)
        ax, ay = eom_rhs(State(0.5 - p.mu, SQRT3_2), p)
        assert abs(ax) < 1e-12 and abs(ay) < 1e-12

    def test_drag_residual_proportional_to_w1(self):
        s = State(0.5 - 0.01, SQRT3_2)
        pa = ModelParams(mu=0.01, q1=0.999, cd=10.0)
        pb = ModelParams(mu=0.01, q1=0.999, cd=20.0)  # half the W1
        ra = math.hypot(*eom_rhs(s, pa))
        rb = math.hypot(*eom_rhs(s, pb))
        # the q1 change also moves gravity; subtract the drag-free part
        p0 = ModelParams(mu=0.01, q1=0.999, cd=1e30)
        r0x, r0y = eom_rhs(s, p0)
        da = math.hypot(eom_rhs(s, pa)[0] - r0x, eom_rhs(s, pa)[1] - r0y)
        db = math.hypot(eom_rhs(s, pb)[0] - r0x, eom_rhs(s, pb)[1] - r0y)
        assert da == pytest.approx(2.0 * db, rel=1e-12)
        assert ra > rb

    def test_axis_collapse_of_drag_terms(self):
        # y = 0, x+mu > 0: N1 = (x+mu) xdot (x+mu)/r1^2 + xdot, N2 = ydot + n(x+mu)
        p = ModelParams(mu=0.01, q1=0.999, cd=5.0)
        x, xdot, ydot = 0.4, 0.03, -0.02
        x1 = x + p.mu
        n1 = x1 * (x1 * xdot) / x1**2 + xdot
        n2 = ydot + p.n * x1
        ux, uy = potential_gradient(State(x, 0.0, xdot, ydot), p)
        ax, ay = eom_rhs(State(x, 0.0, xdot, ydot), p)
        assert ax == pytest.approx(2 * p.n * ydot + ux - p.W1 * n1 / x1**2, rel=1e-13)
        assert ay == pytest.approx(-2 * p.n * xdot + uy - p.W1 * n2 / x1**2, rel=1e-13)

    def test_gradient_matches_finite_differences(self):
        p = ModelParams(mu=0.2, q1=0.999, A2=1e-3, cd=10.0)
        h = 1e-6
        for s in random_states(100, seed=1):
            ux, uy = potential_gradient(s, p)
            fx = (effective_potential(State(s.x + h, s.y), p)
                  - effective_potential(State(s.x - h, s.y), p)) / (2 * h)
            fy = (effective_potential(State(s.x, s.y + h), p)
                  - effective_potential(State(s.x, s.y - h), p)) / (2 * h)
            assert ux == pytest.approx(fx, rel=1e-8, abs=1e-8)
            assert uy == pytest.approx(fy, rel=1e-8, abs=1e-8)

    def test_drag_free_mirror_equivariance(self):
        p = ModelParams(mu=0.15)
        for s in random_states(100, seed=2):
            ax, ay = eom_rhs(s, p)
            axm, aym = eom_rhs(State(s.x, -s.y, -s.xdot, s.ydot), p)
            assert axm == pytest.approx(ax, rel=1e-12, abs=1e-12)
            assert aym == pytest.approx(-ay, rel=1e-12, abs=1e-12)


class TestLagrangianAndMomenta:
    def test_rest_drag_free_equals_potential(self):
        p = ModelParams(mu=0.3)
        s = State(0.2, 0.7)
        assert lagrangian(s, p) == pytest.approx(effective_potential(s, p), rel=1e-14)

    def test_high_precision_value(self):
        # (0.5, 0) with mu = 0.5 would sit on the second primary; use mu = 0.2
        p = ModelParams(mu=0.2)
        s = State(0.5, 0.0, 0.1, 0.2)
        with mpmath.workdps(50):
            x, y = mpmath.mpf("0.5"), mpmath.mpf(0)
            xd, yd = mpmath.mpf("0.1"), mpmath.mpf("0.2")
            mu = mpmath.mpf("0.2")
            r1 = mpmath.sqrt((x + mu) ** 2 + y**2)
            r2 = mpmath.sqrt((x + mu - 1) ** 2 + y**2)
            expected = float(
                (xd**2 + yd**2) / 2 + (x * yd - xd * y)
                + (x**2 + y**2) / 2 + (1 - mu) / r1 + mu / r2
            )
        assert lagrangian(s, p) == pytest.approx(expected, rel=1e-14)

    def test_rest_drag_value_is_angle_term(self):
        p = ModelParams(mu=0.01, q1=0.999, cd=2.0)
        s = State(0.5 - p.mu, SQRT3_2)
        expected = -p.W1 * p.n * math.atan2(s.y, s.x + p.mu)
        assert lagrangian(s, p) - effective_potential(s, p) \
            == pytest.approx(expected, rel=1e-13)

    def test_momenta_classical_at_rest(self):
        p = ModelParams(mu=0.2)
        s = State(0.5 - p.mu, SQRT3_2)
        c = momenta(s, p)
        assert c.px == pytest.approx(-SQRT3_2, abs=1e-15)
        assert c.py == pytest.approx(0.5 - p.mu, abs=1e-15)

    def test_momenta_drag_shift(self):
        mu = 0.1
        drag = ModelParams(mu=mu, q1=0.999, cd=4.0)
        s = State(0.3, 0.4)
        r1sq = (s.x + mu) ** 2 + s.y**2
        c0 = momenta(s, ModelParams(mu=mu))
        c1 = momenta(s, drag)
        # isolate the W1 shift: classical part changes only via n (here n = 1)
        assert c1.px - c0.px == pytest.approx(drag.W1 * (s.x + mu) / (2 * r1sq), rel=1e-13)
        assert c1.py - c0.py == pytest.approx(drag.W1 * s.y / (2 * r1sq), rel=1e-13)

    def test_momenta_match_velocity_derivatives_of_lagrangian(self):
        p = ModelParams(mu=0.12, q1=0.9995, A2=5e-4, cd=8.0)
        h = 1e-6
        for s in random_states(100, seed=3):
            c = momenta(s, p)
            fx = (lagrangian(State(s.x, s.y, s.xdot + h, s.ydot), p)
                  - lagrangian(State(s.x, s.y, s.xdot - h, s.ydot), p)) / (2 * h)
            fy = (lagrangian(State(s.x, s.y, s.xdot, s.ydot + h), p)
                  - lagrangian(State(s.x, s.y, s.xdot, s.ydot - h), p)) / (2 * h)
            assert c.px == pytest.approx(fx, rel=1e-8, abs=1e-8)
            assert c.py == pytest.approx(fy, rel=1e-8, abs=1e-8)

    def test_hamiltonian_consistency(self):
        p = ModelParams(mu=0.2, q1=0.999, cd=3.0)
        s = State(0.3, 0.5, 0.1, -0.2)
        c = momenta(s, p)
        assert hamiltonian(s, p) == pytest.approx(
            -lagrangian(s, p) + c.px * s.xdot + c.py * s.ydot, rel=1e-14)


class TestConservation:
    def test_jacobi_integral_drag_free(self):
        p = ModelParams(mu=0.01)

        def rhs(_t, y):
            s = State(*y)
            ax, ay = eom_rhs(s, p)
            return [s.xdot, s.ydot, ax, ay]

        def jacobi(y):
            s = State(*y)
            return 0.5 * (s.xdot**2 + s.ydot**2) - effective_potential(s, p)

        y0 = [0.5 - p.mu + 0.01, SQRT3_2, 0.0, 0.005]
        e0 = jacobi(y0)
        sol = solve_ivp(rhs, (0.0, 100.0), y0, method="DOP853",
                        rtol=1e-12, atol=1e-12)
        assert sol.success, sol.message
        assert jacobi(sol.y[:, -1]) == pytest.approx(e0, abs=1e-10)


def test_public_api():
    for name in l4norm.__all__:
        assert hasattr(l4norm, name), name
    # the canonical momenta belong to the test oracles, not the package; the
    # two store types, which only `_new` builds, are no public constructors
    for name in ("CanonicalState", "DAlembertSeries", "TruncatedPoly"):
        assert name not in l4norm.__all__, name
        assert not hasattr(l4norm, name), name
