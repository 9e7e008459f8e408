import math

import pytest

from l4norm import equilibria
from l4norm.equilibria import (
    classical_seed,
    epsilon_form,
    offset_ab,
    residual_at,
    shift_from_point,
    solve_triangular_numeric,
    triangular_series,
)
from l4norm.errata import classify_remainder
from l4norm.errors import ParameterError
from l4norm.model import ModelParams

SQRT3 = math.sqrt(3.0)
SQRT3_2 = SQRT3 / 2.0


def gap(p, branch="L4"):
    num = solve_triangular_numeric(p, branch)
    ser = triangular_series(p, branch)
    return math.hypot(num.x - ser.x, num.y - ser.y)


def assert_truncation_only(name, ga, gb):
    verdict = classify_remainder(name, "single", ga, gb)
    assert verdict.classification == "consistent", \
        f"{name}: gaps {ga:.3e}/{gb:.3e} -> {verdict.classification}"


class TestNumericSolver:
    def test_classical_point(self):
        p = ModelParams(mu=0.25)
        pt = solve_triangular_numeric(p)
        assert pt.x == pytest.approx(0.25, abs=1e-13)
        assert pt.y == pytest.approx(0.8660254037844386, abs=1e-13)
        assert pt.residual < 1e-12

    def test_perturbed_point_near_classical(self):
        p = ModelParams(mu=0.01, q1=0.9995, A2=0.0, cd=100.0)
        pt = solve_triangular_numeric(p)
        assert pt.residual < 1e-12
        # displacement should be O(epsilon, W1/mu)
        assert math.hypot(pt.x - 0.49, pt.y - SQRT3_2) < 0.01

    def test_drag_breaks_mirror_symmetry(self):
        p = ModelParams(mu=0.01, q1=0.999, cd=10.0)
        l4 = solve_triangular_numeric(p, "L4")
        l5 = solve_triangular_numeric(p, "L5")
        assert abs(l5.y) != pytest.approx(l4.y, abs=1e-9)
        p0 = ModelParams(mu=0.01, q1=0.999, cd=1e30)  # W1 -> 0
        l4 = solve_triangular_numeric(p0, "L4")
        l5 = solve_triangular_numeric(p0, "L5")
        assert abs(l5.y) == pytest.approx(l4.y, abs=1e-12)
        assert l5.x == pytest.approx(l4.x, abs=1e-12)

    def test_branch_sign(self):
        p = ModelParams(mu=0.1)
        assert solve_triangular_numeric(p, "L4").y > 0
        assert solve_triangular_numeric(p, "L5").y < 0


class TestSeries:
    def test_classical_collapse(self):
        for mu in (0.001, 0.01, 0.0385, 0.2, 0.4):
            p = ModelParams(mu=mu)
            for point in (triangular_series(p), epsilon_form(p)):
                assert point.x == pytest.approx(0.5 - mu, abs=1e-12)
                assert point.y == pytest.approx(SQRT3_2, abs=1e-12)

    def test_rejects_mu_zero_denominator(self):
        with pytest.raises(ParameterError):
            ModelParams(mu=0.0)

    def test_oblateness_first_order_agreement(self):
        mu = 0.01
        h = 1e-4
        ga = gap(ModelParams(mu=mu, A2=h))
        gb = gap(ModelParams(mu=mu, A2=h / 2))
        assert_truncation_only("series/A2", ga, gb)

    def test_radiation_series_is_exact(self):
        # with W1 = A2 = 0 the printed series is the exact triangular point
        mu = 0.01
        ga = gap(ModelParams(mu=mu, q1=1 - 1e-3, cd=1e30))
        assert ga < 1e-12

    def test_drag_convergence_order(self):
        mu = 0.01
        # epsilon pinned tiny; W1 set via cd
        ga = gap(ModelParams(mu=mu, q1=1 - 1e-9, cd=1e-9 * (1 - mu) / 1e-3))
        gb = gap(ModelParams(mu=mu, q1=1 - 1e-9, cd=1e-9 * (1 - mu) / 5e-4))
        assert_truncation_only("series/W1", ga, gb)


class TestEpsilonForm:
    def test_pure_epsilon_terms(self):
        mu, eps = 0.1, 1e-3
        p = ModelParams(mu=mu, q1=1 - eps, cd=1e30)
        pt = epsilon_form(p)
        assert pt.x == pytest.approx(p.gamma / 2 - eps / 3, abs=1e-15)
        assert pt.y == pytest.approx(SQRT3_2 * (1 - 2 * eps / 9), abs=1e-15)
        ser = triangular_series(p)
        assert math.hypot(pt.x - ser.x, pt.y - ser.y) < 10 * eps**2

    def test_pure_oblateness_terms(self):
        mu, A2 = 0.1, 1e-3
        p = ModelParams(mu=mu, A2=A2)
        pt = epsilon_form(p)
        assert pt.x == pytest.approx(p.gamma / 2 - A2 / 2, abs=1e-15)
        assert pt.y == pytest.approx(SQRT3_2 * (1 - A2 / 3), abs=1e-15)
        ser = triangular_series(p)
        assert math.hypot(pt.x - ser.x, pt.y - ser.y) < 10 * A2**2


class TestOffset:
    def test_classical_values(self):
        p = ModelParams(mu=0.2)
        printed = offset_ab(p)
        assert printed.a == pytest.approx(0.0, abs=1e-15)
        assert printed.b == pytest.approx(SQRT3_2, abs=1e-15)

    def test_pure_epsilon(self):
        eps = 1e-3
        p = ModelParams(mu=0.1, q1=1 - eps, cd=1e30)
        sh = offset_ab(p)
        assert sh.a == pytest.approx(-eps / 3, abs=1e-15)
        assert sh.b == pytest.approx(SQRT3_2 * (1 - 2 * eps / 9), abs=1e-15)

    def test_pure_oblateness(self):
        A2 = 1e-3
        p = ModelParams(mu=0.1, A2=A2)
        sh = offset_ab(p)
        assert sh.a == pytest.approx(-A2 / 2, abs=1e-15)
        assert sh.b == pytest.approx(SQRT3_2 * (1 - A2 / 3), abs=1e-15)

    def test_corrected_matches_epsilon_form(self):
        # restoring the missing leading 1 (a + 1/2) gives the epsilon form
        p = ModelParams(mu=0.1, q1=1 - 1e-3, A2=1e-4, cd=50.0)
        sh = offset_ab(p)
        pt = epsilon_form(p)
        assert sh.a + 0.5 == pytest.approx(pt.x + p.mu, abs=1e-15)
        assert sh.b == pytest.approx(pt.y, abs=1e-15)

    def test_shift_from_numeric_point(self):
        p = ModelParams(mu=0.1)
        pt = solve_triangular_numeric(p)
        sh = shift_from_point(pt, p)
        assert sh.a == pytest.approx(pt.x + p.mu, abs=0.0)
        assert sh.b == pt.y


class TestOrderOfAgreement:
    @pytest.mark.parametrize("mu", [0.01, 0.1, 0.3])
    def test_single_perturbation_ratios(self, mu):
        h = 1e-3
        cases = {
            "epsilon": lambda s: ModelParams(mu=mu, q1=1 - s, cd=1e30),
            "A2": lambda s: ModelParams(mu=mu, A2=s),
            "W1": lambda s: ModelParams(mu=mu, q1=1 - 1e-9,
                                        cd=1e-9 * (1 - mu) / s),
        }
        for name, make in cases.items():
            ga, gb = gap(make(h)), gap(make(h / 2))
            assert_truncation_only(f"series/{name}", ga, gb)

    def test_residual_at_classical_seed(self):
        p = ModelParams(mu=0.05)
        x, y = classical_seed(p, "L4")
        assert residual_at(x, y, p) < 1e-14


@pytest.mark.parametrize("p", [
    ModelParams(mu=0.01),
    ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)], ids=["free", "drag"])
@pytest.mark.parametrize("branch", ["L4", "L5"])
def test_newton_evaluates_the_force_once_per_iterate(monkeypatch, p, branch):
    # one force evaluation per Newton step plus the converged one, whose
    # residual the point carries
    calls = {"equilibrium_force": 0, "_force_jacobian": 0}

    def counted(name):
        fn = getattr(equilibria, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(equilibria, name, wrapper)

    for name in calls:
        counted(name)
    point = solve_triangular_numeric(p, branch)
    assert calls["equilibrium_force"] == calls["_force_jacobian"] + 1
    assert point.residual == residual_at(point.x, point.y, p)
