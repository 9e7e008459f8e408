import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from l4norm import layout
from l4norm.equilibria import (
    OriginShift,
    epsilon_form,
    shift_from_point,
    solve_triangular_numeric,
)
from l4norm.closedforms import ROWS
from l4norm.errata import KNOWN_DISCREPANCIES
from l4norm.errors import (CollisionError, ContractError, ConvergenceError,
                           ParameterError)
from l4norm.layout import plan
from l4norm.model import COLLISION_RADIUS, ModelParams
from l4norm.polyalg import (
    T5_KEYS,
    compare_h3,
    extract_EFG,
    t_coefficients_closed_form,
    taylor_lagrangian,
)
from l4norm.verify import run_pipeline

from objectpath import TruncatedPoly
from oracles import (
    State,
    _powers,
    binomial_series,
    classical_cubic_symbolic,
    constant,
    difference,
    eom_rhs,
    effective_potential,
    evaluate,
    hamiltonian,
    homogeneous_part,
    imag_part,
    lagrangian,
    momenta,
    negated,
    oracle_t1_t4,
    partial,
    plus,
    position_part,
    sup,
    t5_by_products,
    taylor_by_composition,
    taylor_by_dicts,
    variable,
    velocity_part,
)

SQRT3 = math.sqrt(3.0)


def energy_poly(lag: TruncatedPoly) -> TruncatedPoly:
    """sum_v v dL/dv - L: the energy function of a Lagrangian polynomial."""
    xid = variable(2, lag.cap)
    etad = variable(3, lag.cap)
    return xid * partial(lag, 2) + etad * partial(lag, 3) + negated(lag)


small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False)


def poly_strategy(cap=3):
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2),
                     st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(mono, small, max_size=6).map(
        lambda d: TruncatedPoly(cap, d))


def all_operations(a, b):
    """Every polynomial-valued operation that builds on stored keys, with
    cancellations that leave exact zeros behind."""
    z = plus(a * 1j, b)
    return [plus(a, b), plus(a, negated(b)), plus(a, negated(a)), a * b,
            a * -1.5, a * 0.0, 2.0 * a, a.truncated(1), homogeneous_part(a, 2),
            partial(a, 0), partial(a, 3), z, imag_part(z), velocity_part(a),
            position_part(a)]


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_associativity_and_distributivity(self, a, b, c):
        assoc = sup(difference((a * b) * c, a * (b * c)))
        dist = sup(difference(a * (b + c), a * b + a * c))
        assert assoc < 1e-12
        assert dist < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(poly_strategy())
    def test_truncation_closure(self, a):
        assert all(sum(m) <= a.cap for m in (a * a).coeffs)

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(3), poly_strategy(2))
    def test_operations_keep_the_constructor_invariant(self, a, b):
        # only the constructor checks keys; every other operation must
        # return what rebuilding (which revalidates) gives unchanged
        for out in all_operations(a, b):
            rebuilt = TruncatedPoly(out.cap, out.coeffs)
            assert list(rebuilt.coeffs.items()) == list(out.coeffs.items())
            assert all(sum(m) <= out.cap for m in out.coeffs)
            assert all(c != 0.0 for c in out.coeffs.values())

    def test_product_truncates_never_extends(self):
        x = variable(0, 2)
        assert (x * x * x).coeffs == {}  # degree 3 pruned at cap 2

    def test_partial_derivative(self):
        x = variable(0, 3)
        e = variable(1, 3)
        p = x * x * e
        assert partial(p, 0)._value((1, 1, 0, 0)) == 2.0
        assert partial(p, 1)._value((2, 0, 0, 0)) == 1.0

    def test_binomial_against_scalar(self):
        t = TruncatedPoly(6, {(1, 0, 0, 0): 0.02})
        (series,) = binomial_series(t, -0.5)
        value = evaluate(series, 0.1, 0, 0, 0)   # here t = 0.002
        assert value == pytest.approx((1 + 0.02 * 0.1) ** -0.5, abs=1e-14)


def reference_mul(a, b):
    """Reference product: a plain pair loop over the terms, as
    (monomial, coefficient) items in insertion order."""
    cap = min(a.cap, b.cap)
    out = {}
    for m1, c1 in a.coeffs.items():
        d1 = sum(m1)
        if d1 > cap:
            continue
        for m2, c2 in b.coeffs.items():
            if d1 + sum(m2) > cap:
                continue
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            out[m] = out.get(m, 0.0) + c1 * c2
    return [(m, c) for m, c in out.items() if c != 0.0]


monomial = st.tuples(*[st.integers(0, 3)] * 4).filter(lambda m: sum(m) <= 3)
nonzero = st.floats(0.01, 2.0).flatmap(lambda x: st.sampled_from((x, -x)))
coefficient = st.one_of(nonzero, st.builds(complex, nonzero, nonzero))


def values_for(layout):
    return st.lists(coefficient, min_size=len(layout), max_size=len(layout))


class TestProductPlans:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.lists(monomial, unique=True, max_size=10),
           st.lists(monomial, unique=True, max_size=10),
           st.integers(1, 3), st.integers(1, 3))
    def test_planned_product_matches_the_pair_loop(self, data, left, right,
                                                   cap_a, cap_b):
        # complex coefficients and unequal caps, twice on the same layouts
        left = [m for m in left if sum(m) <= cap_a]
        right = [m for m in right if sum(m) <= cap_b]
        for run in range(2):
            a = TruncatedPoly(cap_a, dict(zip(left, data.draw(values_for(left)))))
            b = TruncatedPoly(cap_b, dict(zip(right, data.draw(values_for(right)))))
            assert list(a.coeffs) == left and list(b.coeffs) == right
            assert list((a * b).coeffs.items()) == reference_mul(a, b)

    @settings(max_examples=30, deadline=None)
    @given(poly_strategy(), st.lists(st.floats(-2.0, 0.5), min_size=1, max_size=3))
    def test_binomial_exponents_share_one_power_list(self, poly, alphas):
        t = plus(poly, -poly._value((0, 0, 0, 0)))
        shared = binomial_series(t, *alphas)
        for alpha, series in zip(alphas, shared):
            (alone,) = binomial_series(t, alpha)
            assert list(series.coeffs.items()) == list(alone.coeffs.items())


# -- reference kernels: the layout store against plain dict arithmetic --

CONSTANT = (0, 0, 0, 0)


def bits(c):
    """Exact bit pattern of a real or complex coefficient."""
    if isinstance(c, complex):
        return c.real.hex(), c.imag.hex()
    return float(c).hex()


def exact(poly):
    return poly.cap, [(m, bits(c)) for m, c in poly.coeffs.items()]


def ref(cap, items):
    """(cap, items) without exact zeros, in the form `exact` returns."""
    return cap, [(m, bits(c)) for m, c in items if c != 0.0]


def ref_truncated(cap, coeffs, to):
    return coeffs if to >= cap else {m: c for m, c in coeffs.items()
                                     if sum(m) <= to}


def ref_add(cap_a, a, cap_b, b):
    cap = min(cap_a, cap_b)
    out = dict(ref_truncated(cap_a, a, cap))
    for m, c in ref_truncated(cap_b, b, cap).items():
        out[m] = out.get(m, 0.0) + c
    return ref(cap, out.items())


def ref_partial(a, index):
    return ref(a.cap, ((m[:index] + (m[index] - 1,) + m[index + 1:], c * m[index])
                       for m, c in a.coeffs.items() if m[index]))


def ref_slice(a, wanted, cap=None):
    return ref(a.cap if cap is None else cap,
               ((m, c) for m, c in a.coeffs.items() if wanted(m)))


# Few distinct values, so sums and products cancel to exact zeros often;
# complex(1.0, -0.0) tells 0.0 + c from c.
coarse = st.sampled_from((0.5, -0.5, 1.0, -1.0, 1.5, 0.5j, -1.0 + 0.5j,
                          complex(1.0, -0.0)))
poly_terms = st.lists(monomial, unique=True, max_size=10).flatmap(
    lambda keys: st.lists(coarse, min_size=len(keys), max_size=len(keys)).map(
        lambda values: dict(zip(keys, values))))


def check_against_reference(a, b, factor=-1.5):
    """Every layout-store operation on a and b, against the dict kernels."""
    da, db = dict(a.coeffs), dict(b.coeffs)
    neg_a = {m: -c for m, c in da.items()}
    neg_b = {m: -c for m, c in db.items()}
    pairs = [
        (plus(a, b), ref_add(a.cap, da, b.cap, db)),
        (plus(b, a), ref_add(b.cap, db, a.cap, da)),
        (plus(a, negated(b)), ref_add(a.cap, da, b.cap, neg_b)),
        (plus(a, negated(a)), ref_add(a.cap, da, a.cap, neg_a)),
        (a * factor, ref(a.cap, ((m, c * factor) for m, c in a.coeffs.items()))),
        (a * b, (min(a.cap, b.cap), [(m, bits(c)) for m, c in reference_mul(a, b)])),
        (imag_part(a), ref(a.cap, ((m, c.imag) for m, c in a.coeffs.items()))),
        (velocity_part(a), ref_slice(a, lambda m: m[2] + m[3] > 0)),
        (position_part(a), ref_slice(a, lambda m: m[2] + m[3] == 0)),
    ]
    pairs += [(partial(a, i), ref_partial(a, i)) for i in range(4)]
    pairs += [(homogeneous_part(a, n), ref_slice(a, lambda m, n=n: sum(m) == n))
              for n in range(4)]
    pairs += [(a.truncated(n), ref_slice(a, lambda m, n=n: sum(m) <= n,
                                         min(n, a.cap)))
              for n in range(4)]
    for out, expected in pairs:
        assert exact(out) == expected


class TestReferenceKernels:
    @settings(max_examples=150, deadline=None)
    @given(poly_terms, poly_terms, st.integers(1, 3), st.integers(1, 3),
           st.sampled_from((-1.5, 0.0, 2.0, 1j)))
    # a - b with a -0.0 imaginary part meeting a real value
    @example({(0, 0, 0, 0): 0.5, (0, 0, 0, 1): complex(1.0, -0.0)},
             {(0, 0, 0, 1): 0.5}, 1, 1, -1.5)
    def test_operations_match_the_dict_kernels(self, ta, tb, cap_a, cap_b,
                                               factor):
        # unequal caps, complex values, exact zeros and cancelling pairs
        check_against_reference(TruncatedPoly(cap_a, ta),
                                TruncatedPoly(cap_b, tb), factor)

    def test_results_do_not_depend_on_layout_identity(self):
        # two layout objects with one key tuple: the second is interned
        # after the table forgot the first
        keys = [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 0), (2, 0, 0, 1)]
        a = TruncatedPoly(3, dict(zip(keys, (1.0, -0.5, 2.0, 0.5j))))
        plan.cache_clear()
        b = TruncatedPoly(3, dict(zip(keys, (-1.0, 0.5, 1.5, 1.0))))
        assert a.layout is not b.layout and a.layout.keys == b.layout.keys
        check_against_reference(a, b)
        check_against_reference(b, a)

    @settings(max_examples=30, deadline=None)
    @given(poly_strategy(), st.integers(0, 4))
    def test_powers_start_from_t(self, poly, cap):
        # the powers the binomial and log series use, bit for bit as when
        # they were formed from the constant 1
        t = plus(poly, -poly._value(CONSTANT)).truncated(cap)
        expected, power = [], constant(1.0, t.cap)
        for _ in range(t.cap):
            power = power * t
            if not power.coeffs:
                break
            expected.append(exact(power))
        assert [exact(p) for p in _powers(t)] == expected


    def test_coeffs_is_a_copy(self):
        # writing to the returned dict changes neither the polynomial nor
        # what is computed from it
        a = TruncatedPoly(3, {(1, 0, 0, 0): 1.0, (0, 1, 1, 0): -0.5j})
        b = TruncatedPoly(3, {(0, 0, 0, 0): 2.0, (1, 0, 0, 0): 0.5})
        before = exact(a), exact(a * b + a), exact(partial(a, 0))
        coeffs = a.coeffs
        coeffs[(1, 0, 0, 0)] = 9.0
        coeffs[(0, 0, 1, 1)] = 1.0
        del coeffs[(0, 1, 1, 0)]
        assert (exact(a), exact(a * b + a), exact(partial(a, 0))) == before
        assert a.coeffs is not a.coeffs


class TestTaylorLagrangian:
    @pytest.mark.parametrize("drag", [False, True], ids=["free", "drag"])
    @pytest.mark.parametrize("which, centre", [("first", 0.0), ("second", 1.0)])
    def test_pivot_on_a_primary_is_a_collision(self, which, centre, drag):
        # the pivot's a is its distance along x from the radiating primary;
        # the model's collision guard refuses it before the kernel divides
        p = ModelParams(mu=0.01, q1=0.999 if drag else 1.0, cd=20.0)
        for da, db in ((0.0, 0.0), (0.3, -0.4), (-0.5, 0.0)):
            shift = OriginShift(centre + da * COLLISION_RADIUS,
                                db * COLLISION_RADIUS)
            for degree in (2, 3):
                with pytest.raises(CollisionError) as error:
                    taylor_lagrangian(p, shift, degree)
                assert error.value.which == which

    def test_classical_hessian(self):
        p = ModelParams(mu=0.01)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        l2 = homogeneous_part(taylor_lagrangian(p, shift, 2), 2)
        assert 2 * l2._value((2, 0, 0, 0)) == pytest.approx(0.75, abs=1e-11)
        assert 2 * l2._value((0, 2, 0, 0)) == pytest.approx(2.25, abs=1e-11)
        assert l2._value((1, 1, 0, 0)) == pytest.approx(
            (3 * SQRT3 / 4) * p.gamma, abs=1e-11)

    def test_classical_hessian_against_finite_differences(self):
        p = ModelParams(mu=0.01)
        pt = solve_triangular_numeric(p)
        shift = shift_from_point(pt, p)
        l2 = homogeneous_part(taylor_lagrangian(p, shift, 2), 2)
        h = 1e-4
        def u(dx, dy):
            return effective_potential(State(pt.x + dx, pt.y + dy), p)
        uxx = (u(h, 0) - 2 * u(0, 0) + u(-h, 0)) / h**2
        uyy = (u(0, h) - 2 * u(0, 0) + u(0, -h)) / h**2
        uxy = (u(h, h) - u(h, -h) - u(-h, h) + u(-h, -h)) / (4 * h**2)
        assert 2 * l2._value((2, 0, 0, 0)) == pytest.approx(uxx, abs=1e-6)
        assert 2 * l2._value((0, 2, 0, 0)) == pytest.approx(uyy, abs=1e-6)
        assert l2._value((1, 1, 0, 0)) == pytest.approx(uxy, abs=1e-6)

    def test_degree_zero_is_pointwise_lagrangian(self):
        p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
        shift = shift_from_point(epsilon_form(p), p)
        lag = taylor_lagrangian(p, shift, 3)
        expected = lagrangian(State(shift.a - p.mu, shift.b), p)
        assert lag._value((0, 0, 0, 0)) == pytest.approx(expected, rel=1e-13)

    def test_degree_one_force_vanishes_at_numeric_equilibrium(self):
        p = ModelParams(mu=0.01, q1=0.9995, A2=1e-4, cd=100.0)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        l1 = position_part(homogeneous_part(taylor_lagrangian(p, shift, 3), 1))
        assert max(map(abs, l1.coeffs.values()), default=0.0) < 1e-10

    def test_degree_one_velocity_terms_are_equilibrium_momenta(self):
        p = ModelParams(mu=0.01, q1=0.9995, cd=50.0)
        pt = solve_triangular_numeric(p)
        shift = shift_from_point(pt, p)
        l1 = homogeneous_part(taylor_lagrangian(p, shift, 3), 1)
        c = momenta(State(pt.x, pt.y), p)
        assert l1._value((0, 0, 1, 0)) == pytest.approx(c.px, rel=1e-12)
        assert l1._value((0, 0, 0, 1)) == pytest.approx(c.py, rel=1e-12)

    def test_degree_one_nonzero_off_equilibrium_equals_local_force(self):
        from l4norm.equilibria import equilibrium_force
        p = ModelParams(mu=0.01, q1=0.999, cd=30.0)
        pt = solve_triangular_numeric(p)
        shift = OriginShift(pt.x + p.mu + 0.01, pt.y - 0.005)
        l1 = homogeneous_part(taylor_lagrangian(p, shift, 3), 1)
        fx, fy = equilibrium_force(shift.a - p.mu, shift.b, p)
        assert l1._value((1, 0, 0, 0)) == pytest.approx(fx, rel=1e-8)
        assert l1._value((0, 1, 0, 0)) == pytest.approx(fy, rel=1e-8)

    def test_drag_free_degree_two_velocity_structure(self):
        p = ModelParams(mu=0.05)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        l2 = homogeneous_part(taylor_lagrangian(p, shift, 2), 2)
        mixed = {m for m in l2.coeffs if (m[2] + m[3]) == 1}
        assert mixed == {(1, 0, 0, 1), (0, 1, 1, 0)}  # the Coriolis pair only
        assert l2._value((1, 0, 0, 1)) == pytest.approx(p.n, abs=1e-13)
        assert l2._value((0, 1, 1, 0)) == pytest.approx(-p.n, abs=1e-13)

    def test_drag_free_cubic_has_no_velocity_terms(self):
        p = ModelParams(mu=0.05, A2=1e-3)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        l3 = homogeneous_part(taylor_lagrangian(p, shift, 3), 3)
        assert velocity_part(l3).coeffs == {}

    def test_truncation_consistency(self):
        p = ModelParams(mu=0.02, q1=0.999, A2=1e-4, cd=10.0)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        l4 = taylor_lagrangian(p, shift, 4)
        l3 = taylor_lagrangian(p, shift, 3)
        assert sup(difference(l4.truncated(3), l3)) < 1e-12

    def test_values_converge_to_pointwise_lagrangian(self):
        p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=10.0)
        pt = solve_triangular_numeric(p)
        shift = shift_from_point(pt, p)
        lag = taylor_lagrangian(p, shift, 4)
        for d in (0.01, 0.005):
            approx = evaluate(lag, d, -d, d / 2, d / 3)
            exact = lagrangian(State(pt.x + d, pt.y - d, d / 2, d / 3), p)
            assert abs(approx - exact) < 40 * d**5
        # halving the displacement should shrink the error ~2^5
        e1 = abs(evaluate(lag, 0.01, -0.01, 0.005, 0.005)
                 - lagrangian(State(pt.x + 0.01, pt.y - 0.01, 0.005, 0.005), p))
        e2 = abs(evaluate(lag, 0.005, -0.005, 0.0025, 0.0025)
                 - lagrangian(State(pt.x + 0.005, pt.y - 0.005, 0.0025, 0.0025), p))
        assert e1 / e2 > 20

    def test_energy_cubic_drops_velocity_terms(self):
        p = ModelParams(mu=0.01, q1=0.999, cd=10.0)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        lag = taylor_lagrangian(p, shift, 3)
        h3 = homogeneous_part(energy_poly(lag), 3)
        assert sup(difference(h3, negated(position_part(homogeneous_part(lag, 3))))) < 1e-13

    def test_energy_value_matches_hamiltonian(self):
        p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=10.0)
        pt = solve_triangular_numeric(p)
        shift = shift_from_point(pt, p)
        h = energy_poly(taylor_lagrangian(p, shift, 4))
        d = 0.004
        exact = hamiltonian(State(pt.x + d, pt.y + d, -d, d / 2), p)
        assert evaluate(h, d, d, -d, d / 2) == pytest.approx(exact, abs=50 * d**5)

    @pytest.mark.parametrize("branch", ["L4", "L5"])
    @pytest.mark.parametrize("p", [
        ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=10.0),
        ModelParams(mu=0.01215)], ids=["drag", "free"])
    def test_energy_method_gap_to_hamiltonian_falls_like_delta4(self, p, branch):
        # The degree-3 energy misses the Hamiltonian by O(delta^4) along
        # the ray delta * d through the equilibrium and its velocity zero.
        pt = solve_triangular_numeric(p, branch)
        energy = energy_poly(taylor_lagrangian(p, shift_from_point(pt, p), 3))
        d = (0.8, -0.6, 0.5, 0.9)
        gaps = []
        for delta in (0.02, 0.01, 0.005, 0.0025):
            xi, eta, xid, etad = (delta * c for c in d)
            exact = hamiltonian(State(pt.x + xi, pt.y + eta, xid, etad), p)
            gaps.append(abs(evaluate(energy, xi, eta, xid, etad) - exact))
        ratios = [big / small for big, small in zip(gaps, gaps[1:])]
        assert all(14.0 <= r <= 18.0 for r in ratios), ratios


def taylor_points(count=12, seed=7):
    """Seeded equilibria on both branches, drag on every other one, and one
    pivot off the equilibrium."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        drag = k % 2 == 0
        p = ModelParams(mu=rng.uniform(0.001, 0.037),
                        q1=1.0 - rng.uniform(0.0, 0.01) if drag else 1.0,
                        A2=rng.uniform(0.0, 0.005), cd=rng.uniform(2.0, 100.0))
        branch = ("L4", "L5")[k // 2 % 2]
        out.append((p, shift_from_point(solve_triangular_numeric(p, branch), p)))
    p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=30.0)
    pt = solve_triangular_numeric(p)
    out.append((p, OriginShift(pt.x + p.mu + 0.01, pt.y - 0.005)))
    return out


@st.composite
def benchmark_roots(draw):
    """``(p, shift)`` at the numeric root over the benchmark's domain: mu in
    [0.0009, 0.037], epsilon <= 0.01, A2 <= 0.005, cd in [1, 100], either
    branch, drag on or off.  A draw where Newton finds no root (strong
    drag, ROADMAP item 1) has no pivot and is dropped."""
    drag = draw(st.booleans())
    epsilon = draw(st.floats(0.0, 0.01, exclude_min=True)) if drag else 0.0
    p = ModelParams(mu=draw(st.floats(0.0009, 0.037)), q1=1.0 - epsilon,
                    A2=draw(st.floats(0.0, 0.005)), cd=draw(st.floats(1.0, 100.0)))
    try:
        point = solve_triangular_numeric(p, draw(st.sampled_from(("L4", "L5"))))
    except ConvergenceError:
        assume(False)
    return p, shift_from_point(point, p)


def assert_same_expansion(coeffs, reference, rel=1e-14, pruned=1e-12):
    """Shared coefficients agree within `rel` of the reference's largest;
    a coefficient only one side stores (the other pruned it as an exact
    zero) is below `pruned`."""
    scale = max(map(abs, reference.values()))
    for key in coeffs.keys() & reference.keys():
        assert abs(coeffs[key] - reference[key]) <= rel * scale, key
    for key in coeffs.keys() ^ reference.keys():
        assert abs(coeffs.get(key, 0.0) + reference.get(key, 0.0)) < pruned, key


class TestTaylorReferences:
    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_matches_series_composition(self, degree):
        for p, shift in taylor_points():
            coeffs = taylor_lagrangian(p, shift, degree).coeffs
            reference = taylor_by_composition(p, shift, degree).coeffs
            assert_same_expansion(coeffs, reference)
            # the shared keys in one order, so downstream series keep theirs
            assert [m for m in coeffs if m in reference] == \
                [m for m in reference if m in coeffs]

    @pytest.mark.parametrize("degree", range(6))
    @settings(max_examples=15, deadline=None)
    @example(point=None)
    @given(point=benchmark_roots())
    def test_matches_the_dict_expansion_bit_for_bit(self, degree, point):
        # the kernel adds the same terms in the same order as the dict
        # loops: the same keys in the same order and every value bit for
        # bit, at the seeded points (with and without drag, on both
        # branches) and at roots drawn over the benchmark's domain
        points = [point]
        if point is None:
            points = taylor_points()
            assert {(p.W1 != 0.0, shift.b > 0.0) for p, shift in points} == \
                {(True, True), (True, False), (False, True), (False, False)}
        for p, shift in points:
            assert exact(taylor_lagrangian(p, shift, degree)) == \
                exact(taylor_by_dicts(p, shift, degree))

    def test_low_degrees_are_the_degree_five_expansion_cut(self):
        # degree 0 keeps the drag angle's constant term, though no term of
        # its log series; every cap below 5 is the degree-5 expansion cut
        # there, keys in order and values bit for bit
        for p, shift in taylor_points(40, seed=5):
            full = taylor_lagrangian(p, shift, 5)
            for degree in range(5):
                assert exact(taylor_lagrangian(p, shift, degree)) == \
                    exact(full.truncated(degree))
        with pytest.raises(ParameterError):
            taylor_lagrangian(p, shift, -1)

    def test_one_plan_per_degree_and_drag(self, monkeypatch):
        # the plan and its kernel are keyed by the degree and whether there
        # is drag, never by a value: 100 points at two degrees, drag on half
        # of them, make and compile at most the four, and a second pass
        # makes and compiles none
        points = taylor_points(100, seed=3)
        made = []
        compiled = layout.compiled
        monkeypatch.setattr(layout, "compiled", lambda source, name:
                            made.append(name) or compiled(source, name))

        def one_pass():
            for p, shift in points:
                for degree in (2, 3):
                    taylor_lagrangian(p, shift, degree)

        plan.cache_clear()
        one_pass()
        misses, count = plan.cache_info().misses, made.count("taylor")
        assert misses <= 4 and 0 < count <= 4
        one_pass()
        assert plan.cache_info().misses == misses and made.count("taylor") == count

    def test_matches_exact_derivatives(self):
        # every coefficient of degree <= 3 as the exact Taylor coefficient
        # of the model's Lagrangian, with the float inputs read as rationals
        sp = pytest.importorskip("sympy")
        p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
        shift = shift_from_point(solve_triangular_numeric(p, "L5"), p)
        mu, q1, a2, n, w1, a, b = map(sp.Rational, (p.mu, p.q1, p.A2, p.n,
                                                    p.W1, shift.a, shift.b))
        xi, eta, u, v = variables = sp.symbols("xi eta u v")
        x1, y = a + xi, b + eta     # offsets from the radiating primary
        r1sq, r2 = x1**2 + y**2, sp.sqrt((x1 - 1) ** 2 + y**2)
        lag = (u**2 + v**2) / 2 + n * ((x1 - mu) * v - u * y) \
            + n**2 * ((x1 - mu) ** 2 + y**2) / 2 + (1 - mu) * q1 / sp.sqrt(r1sq) \
            + mu / r2 + mu * a2 / (2 * r2**3) \
            + w1 * ((x1 * u + y * v) / (2 * r1sq) - n * sp.atan2(y, x1))
        at_pivot = dict.fromkeys(variables, 0)
        exact = {}
        for mono in ((i, j, k, m) for i in range(4) for j in range(4 - i)
                     for k in range(4 - i - j) for m in range(4 - i - j - k)):
            wrt = [s for s, e in zip(variables, mono) for _ in range(e)]
            value = float((lag.diff(*wrt) if wrt else lag).subs(at_pivot).evalf(30))
            value /= math.prod(math.factorial(e) for e in mono)
            if value != 0.0:
                exact[mono] = value
        assert_same_expansion(taylor_lagrangian(p, shift, 3).coeffs, exact)


class TestExtractEFG:
    def test_classical_values(self):
        p = ModelParams(mu=0.01)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        efg = extract_EFG(taylor_lagrangian(p, shift, 2), p)
        assert efg.E == pytest.approx(1 / 8, abs=1e-11)
        assert efg.F == pytest.approx(-5 / 8, abs=1e-11)
        assert efg.G == pytest.approx(-(3 * SQRT3 / 4) * p.gamma, abs=1e-11)

    def test_zero_polynomial(self):
        p = ModelParams(mu=0.3)
        efg = extract_EFG(TruncatedPoly(2), p)
        assert efg.E == efg.F == p.n**2 / 2
        assert efg.G == 0.0

    def test_linearized_equations_match_numeric_jacobian(self):
        # (2E - n^2), G must reproduce d(eom)/d(state) at the equilibrium
        p = ModelParams(mu=0.01, A2=1e-3)
        pt = solve_triangular_numeric(p)
        shift = shift_from_point(pt, p)
        efg = extract_EFG(taylor_lagrangian(p, shift, 2), p)
        h = 1e-6
        ax_x = (eom_rhs(State(pt.x + h, pt.y), p)[0]
                - eom_rhs(State(pt.x - h, pt.y), p)[0]) / (2 * h)
        ax_y = (eom_rhs(State(pt.x, pt.y + h), p)[0]
                - eom_rhs(State(pt.x, pt.y - h), p)[0]) / (2 * h)
        ay_y = (eom_rhs(State(pt.x, pt.y + h), p)[1]
                - eom_rhs(State(pt.x, pt.y - h), p)[1]) / (2 * h)
        assert -(2 * efg.E - p.n**2) == pytest.approx(ax_x, abs=1e-7)
        assert -efg.G == pytest.approx(ax_y, abs=1e-7)
        assert -(2 * efg.F - p.n**2) == pytest.approx(ay_y, abs=1e-7)

    def test_oblateness_shifts_g(self):
        mu = 0.01
        def g_of(a2):
            p = ModelParams(mu=mu, A2=a2)
            shift = shift_from_point(solve_triangular_numeric(p), p)
            return extract_EFG(taylor_lagrangian(p, shift, 2), p).G
        g0, g1, g2 = g_of(0.0), g_of(1e-3), g_of(5e-4)
        assert abs(g1 - g0) > 1e-5            # O(A2) shift present
        assert (g1 - g0) / (g2 - g0) == pytest.approx(2.0, rel=0.02)

    def test_rejects_non_quadratic_input(self):
        # below cap 2 a polynomial holds no quadratic term to read
        p = ModelParams(mu=0.1)
        with pytest.raises(ContractError, match="cap 2 or more"):
            extract_EFG(TruncatedPoly(1, {(1, 0, 0, 0): 1.0}), p)

    def test_the_expansion_reads_as_its_quadratic_slice(self):
        # the chain passes the expansion itself: a cubic term and a linear
        # one beside the quadratic ones change no bit of (E, F, G)
        p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
        lag = taylor_lagrangian(p, shift_from_point(solve_triangular_numeric(p), p), 3)
        assert homogeneous_part(lag, 3).values and lag.cap == 3
        assert [v.hex() for v in extract_EFG(lag, p)] == \
            [v.hex() for v in extract_EFG(homogeneous_part(lag, 2), p)]


def t5_poly(values) -> TruncatedPoly:
    """A T5 reading's six values as a polynomial on `T5_KEYS`."""
    return TruncatedPoly(3, dict(zip(T5_KEYS, values)))


class TestClosedFormCubic:
    def test_gamma_zero_kills_t1(self):
        p = ModelParams(mu=0.5)
        t = t_coefficients_closed_form(p, shift_from_point(epsilon_form(p), p))
        assert t[0] == pytest.approx(0.0, abs=1e-15)

    def test_classical_printed_values(self):
        p = ModelParams(mu=0.01)
        t1, t2, t3, t4, *_ = t_coefficients_closed_form(
            p, shift_from_point(epsilon_form(p), p))
        assert t1 == pytest.approx(21 * p.gamma / 8, rel=1e-13)
        assert t2 == pytest.approx(21 * SQRT3 / 8, rel=1e-13)
        assert t3 == pytest.approx(-9 * p.gamma / 8, rel=1e-13)
        assert t4 == pytest.approx(-9 * SQRT3 / 8, rel=1e-13)

    def test_t5_zero_without_drag(self):
        p = ModelParams(mu=0.2)
        t = t_coefficients_closed_form(p, shift_from_point(epsilon_form(p), p))
        assert len(t) == 6 and t[4:] == ((0.0,) * 6,) * 2

    def test_t5_matches_the_product_reference_bit_for_bit(self):
        rng = random.Random(22)
        for branch in ("L4", "L5"):
            for _ in range(8):
                p = ModelParams(mu=rng.uniform(0.001, 0.037),
                                q1=1.0 - rng.uniform(0.0, 0.01),
                                A2=rng.uniform(0.0, 0.005),
                                cd=rng.uniform(5.0, 100.0))
                shift = shift_from_point(
                    solve_triangular_numeric(p, branch), p)
                closed = t_coefficients_closed_form(p, shift)
                reference = t5_by_products(p, shift)
                assert p.W1 > 0.0
                for values, ref_poly in zip(closed[4:], reference):
                    assert exact(t5_poly(values)) == exact(ref_poly)

    def test_t5_matches_oracle_velocity_cubic_exactly(self):
        # corrected T5 must equal the Taylor gauge cubic at the same pivot
        p = ModelParams(mu=0.01, q1=0.999, cd=10.0)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        t5 = t5_poly(t_coefficients_closed_form(p, shift)[4])
        oracle = velocity_part(homogeneous_part(taylor_lagrangian(p, shift, 3), 3))
        scale = max(map(abs, oracle.coeffs.values()), default=0.0)
        assert sup(difference(t5, oracle)) < 1e-14 * max(1.0, scale)

    def test_t5_verbatim_misses_first_order_term(self):
        p = ModelParams(mu=0.01, q1=0.999, cd=10.0)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        t5v = t5_poly(t_coefficients_closed_form(p, shift)[5])
        oracle = velocity_part(homogeneous_part(taylor_lagrangian(p, shift, 3), 3))
        assert sup(difference(t5v, oracle)) > 0.1 * p.W1

    def test_oracle_t1_t4_match_closed_form_classically(self):
        # T1 and T4 of the printed table agree with the Taylor cubic; T2, T3
        # do not (registered zeroth-order discrepancies).
        p = ModelParams(mu=0.01)
        shift = shift_from_point(solve_triangular_numeric(p), p)
        lag = taylor_lagrangian(p, shift, 3)
        gaps = compare_h3(lag, t_coefficients_closed_form(p, shift))
        oracle = oracle_t1_t4(lag)
        rel = [gap / abs(o) for gap, o in zip(gaps, oracle)]
        assert rel[0] < 1e-10
        assert rel[3] < 1e-10
        assert rel[1] > 0.5
        assert rel[2] > 0.5
        assert oracle[1] == pytest.approx(-3 * SQRT3 / 8, abs=1e-11)
        assert oracle[2] == pytest.approx(-33 * p.gamma / 8, abs=1e-10)

    def test_classical_rows_against_the_symbolic_cubic(self):
        # Each T row's constant and gamma brackets against the brackets the
        # exact classical cubic calls for; the entries that disagree are the
        # registered classical discrepancies, and no others.
        sp = pytest.importorskip("sympy")
        gamma = sp.Symbol("gamma")
        mismatches = {}
        for name, derived in classical_cubic_symbolic(gamma).items():
            assert sp.degree(derived, gamma) <= 1
            (coef, spec), *terms = ROWS[name]
            prefactor = sp.nsimplify(coef) * sp.sqrt(3) ** spec.count("s3")
            rows = {weight_spec: sp.nsimplify(weight * brace[0])
                    for weight, weight_spec, brace in terms}
            for entry, part in (("", derived.subs(gamma, 0)),
                                ("g", derived.diff(gamma))):
                bracket = sp.simplify(part / prefactor)
                if bracket != rows.get(entry, 0):
                    mismatches[(name, entry)] = (rows.get(entry, 0), bracket)
        assert mismatches == {("T2", ""): (14, -2),
                              ("T3", "g"): (2, sp.Rational(22, 3))}
        registered = {d.key for d in KNOWN_DISCREPANCIES
                      if d.key.startswith("cubic.") and d.perturbation == "classical"}
        assert {f"cubic.{name}" for name, _ in mismatches} == registered

    @pytest.mark.parametrize("p", [
        ModelParams(mu=0.01),
        ModelParams(mu=0.01215, q1=0.999, A2=1e-4, cd=20.0)],
        ids=["free", "drag"])
    def test_compare_h3_returns_the_six_cubic_gaps(self, p):
        shift = shift_from_point(solve_triangular_numeric(p), p)
        lag = taylor_lagrangian(p, shift, 3)
        closed = t_coefficients_closed_form(p, shift)
        gaps = compare_h3(lag, closed)
        assert len(gaps) == 6
        assert gaps[5] == sup(difference(t5_poly(closed[5]),
                                         velocity_part(homogeneous_part(lag, 3))))

    @pytest.mark.parametrize("cd", [20.0, math.inf], ids=["drag", "free"])
    def test_compare_h3_refuses_a_cubic_it_cannot_see(self, cd):
        # a chain stopped at taylor expands to cap 2: read as zeros, its
        # missing cubic would report the printed values themselves as gaps
        p = ModelParams(mu=0.01215, q1=0.999, A2=1e-4, cd=cd)
        res = run_pipeline(p, stages=("taylor",))
        closed = t_coefficients_closed_form(p, res.shift)
        with pytest.raises(ContractError, match="cap 3 or more, not cap 2$"):
            compare_h3(res.lagrangian_poly, closed)


class TestConstruction:
    def test_bad_exponent_tuple_rejected(self):
        for mono in ((1, 0, 0), (1, -1, 0, 0)):
            with pytest.raises(ContractError):
                TruncatedPoly(3, {mono: 1.0})
