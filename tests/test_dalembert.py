import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l4norm.dalembert import (
    DIVISOR_FLOOR,
    MOSER_PAIRS,
    FrequencyPair,
    _PRODUCT,
    _substitution_kernel,
    apply_D,
    apply_poly_in_D,
    invert_delta,
    moser_check,
    small_divisor,
    substitution_rows,
)
from l4norm.errors import ContractError, CriticalTermError, ParameterError, SmallDivisorError
from l4norm.layout import PLAN_TABLE_SIZE, intern, plan

from objectpath import DAlembertSeries
from oracles import (delta_operator, difference, grade, moser_by_full_scan,
                     polynomial_rows, product, scaled, substitute_by_kernel,
                     substitute_by_rows, sup)

W_CLASSICAL = FrequencyPair(0.9633268056899441, 0.26834972742935684)  # mu = 0.01


def valid_keys(max_degree=4):
    keys = []
    for j in range(0, max_degree + 1):
        for m in range(0, max_degree + 1 - j):
            for p in range(j % 2, j + 1, 2):
                for q in range(-m, m + 1, 2):
                    if p > 0 or q >= 0:
                        keys.append((j, m, p, q))
    return keys


KEYS = valid_keys()


def random_series(rng, nterms=20):
    s = DAlembertSeries()
    for _ in range(nterms):
        j, m, p, q = rng.choice(KEYS)
        s = s + DAlembertSeries.single(j, m, p, q,
                                       c=rng.uniform(-2, 2),
                                       s=0.0 if (p, q) == (0, 0) else rng.uniform(-2, 2))
    return s


def all_operations(a, b):
    """Every series-valued operation applied to a and b."""
    w = W_CLASSICAL
    noncritical = DAlembertSeries({k: v for k, v in a.terms.items()
                                   if (k[2], k[3]) not in ((1, 0), (0, 1))})
    return [a + b, difference(a, b), a * b, product(a, b, 3),
            apply_D(a, w), apply_poly_in_D(a, w, 0.3, -1.0, 2.0),
            invert_delta(noncritical, w), delta_operator(a, w),
            a.chop(0.5), grade(a, 1, 1)]


class TestConstruction:
    def test_parity_enforced(self):
        with pytest.raises(ContractError):
            DAlembertSeries.single(2, 0, 1, 0, c=1.0)   # p parity breaks j
        with pytest.raises(ContractError):
            DAlembertSeries.single(1, 1, 1, 2, c=1.0)   # |q| > m
        with pytest.raises(ContractError):
            DAlembertSeries.single(1, 0, 3, 0, c=1.0)   # p > j

    def test_canonical_negative_harmonic(self):
        s = DAlembertSeries.single(1, 1, -1, -1, c=2.0, s=3.0)
        assert s.terms == {(1, 1, 1, 1): (2.0, -3.0)}

    def test_zero_harmonic_sine_dropped(self):
        # sin(0*phi) vanishes identically; its coefficient is not representable
        s = DAlembertSeries.single(2, 0, 0, 0, c=2.0, s=1.0)
        assert s.terms == {(2, 0, 0, 0): (2.0, 0.0)}

    def test_zero_coeffs_not_stored(self):
        s = DAlembertSeries.single(1, 0, 1, 0, c=1.0) \
            + DAlembertSeries.single(1, 0, 1, 0, c=-1.0)
        assert s.terms == {}

    def test_canonical_idempotence(self):
        rng = random.Random(7)
        s = random_series(rng)
        again = DAlembertSeries(s.terms)
        assert list(again.terms.items()) == list(s.terms.items())


class TestOperatorD:
    def test_single_cosine(self):
        w = FrequencyPair(0.96, 0.27)
        s = DAlembertSeries.single(1, 0, 1, 0, c=1.0)
        d = apply_D(s, w)
        assert d.terms == {(1, 0, 1, 0): (0.0, -0.96)}

    def test_mixed_harmonic_multiplier(self):
        w = FrequencyPair(0.96, 0.27)
        s = DAlembertSeries.single(1, 1, 1, 1, c=1.0)
        d = apply_D(s, w)
        c, sv = d.terms[(1, 1, 1, 1)]
        assert c == 0.0
        assert sv == pytest.approx(-(0.96 - 0.27), abs=1e-15)

    def test_d_squared_is_eigenvalue(self):
        w = W_CLASSICAL
        for p in range(0, 5):
            for q in range(-4, 5):
                if (p, q) == (0, 0) or p < 0 or (p == 0 and q < 0):
                    continue
                j, m = p + 2, abs(q) + 2  # any parity-compatible grade
                if (j - p) % 2 or (m - abs(q)) % 2:
                    continue
                s = DAlembertSeries.single(j, m, p, q, c=1.3, s=-0.4 if (p, q) != (0, 0) else 0.0)
                dd = apply_D(apply_D(s, w), w)
                theta = p * w.omega1 - q * w.omega2
                expected = scaled(s, -theta * theta)
                assert sup(difference(dd, expected)) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.1, 2.0), st.floats(0.1, 2.0))
    def test_linearity(self, seed, ca, cb):
        rng = random.Random(seed)
        w = W_CLASSICAL
        a, b = random_series(rng, 8), random_series(rng, 8)
        left = apply_D(scaled(a, ca) + scaled(b, cb), w)
        right = scaled(apply_D(a, w), ca) + scaled(apply_D(b, w), cb)
        assert sup(difference(left, right)) < 1e-13


class TestProducts:
    def test_cos_squared_expansion(self):
        s = DAlembertSeries.single(1, 0, 1, 0, c=1.0)
        sq = s * s
        assert sq.terms == {(2, 0, 0, 0): (0.5, 0.0), (2, 0, 2, 0): (0.5, 0.0)}

    def test_cos_times_sin(self):
        a = DAlembertSeries.single(1, 0, 1, 0, c=1.0)
        b = DAlembertSeries.single(0, 1, 0, 1, s=1.0)
        prod = a * b
        assert prod.terms == {(1, 1, 1, 1): (0.0, 0.5), (1, 1, 1, -1): (0.0, -0.5)}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_parity_closure(self, seed):
        # nothing in the package checks parity; every operation must return
        # keys that rebuilding (which revalidates) accepts unchanged
        rng = random.Random(seed)
        for out in all_operations(random_series(rng, 6), random_series(rng, 6)):
            rebuilt = DAlembertSeries(out.terms)
            assert list(rebuilt.terms.items()) == list(out.terms.items())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 8))
    def test_capped_product_is_restricted_product(self, seed, cap):
        rng = random.Random(seed)
        a, b = random_series(rng, 8), random_series(rng, 8)
        full = a * b
        kept = {k: v for k, v in full.terms.items() if k[0] + k[1] <= cap}
        assert list(product(a, b, cap).terms.items()) \
            == list(DAlembertSeries(kept).terms.items())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_no_negative_zero_stored(self, seed):
        rng = random.Random(seed)
        a, b = random_series(rng, 6), random_series(rng, 6)
        # a constant and a pure sine: their zero parts times a negative
        # multiplier or divisor are -0.0 before normalisation
        a = a + DAlembertSeries.single(2, 0, 0, 0, c=0.5) \
            + DAlembertSeries.single(3, 0, 3, 0, s=0.5)
        for out in all_operations(a, b):
            for c, sv in out.terms.values():
                assert math.copysign(1.0, c) > 0.0 or c != 0.0
                assert math.copysign(1.0, sv) > 0.0 or sv != 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_product_matches_pointwise_values(self, seed):
        rng = random.Random(seed)
        a, b = random_series(rng, 5), random_series(rng, 5)
        prod = a * b
        i1, i2 = 0.37, 0.21
        for phi1, phi2 in [(0.3, 1.1), (2.0, -0.7)]:
            va = series_value(a, i1, i2, phi1, phi2)
            vb = series_value(b, i1, i2, phi1, phi2)
            vp = series_value(prod, i1, i2, phi1, phi2)
            assert vp == pytest.approx(va * vb, rel=1e-10, abs=1e-10)


def reference_mul(a, b, cap=None):
    """Reference product: a plain pair loop over the terms, sum then
    difference harmonic, each canonicalised and accumulated on its own
    and skipped when both its products are zero, as (key, (cos, sin))
    items in insertion order."""
    out = {}

    def accumulate(j, m, p, q, c, s):
        if p < 0 or (p == 0 and q < 0):
            p, q, s = -p, -q, -s
        if p == 0 and q == 0:
            s = 0.0
        oc, os = out.get((j, m, p, q), (0.0, 0.0))
        out[j, m, p, q] = (oc + c, os + s)

    for (j1, m1, p1, q1), (c1, s1) in a.terms.items():
        for (j2, m2, p2, q2), (c2, s2) in b.terms.items():
            j, m = j1 + j2, m1 + m2
            if cap is not None and j + m > cap:
                continue
            cs = 0.5 * (c1 * c2 - s1 * s2)
            ss = 0.5 * (c1 * s2 + s1 * c2)
            if cs != 0.0 or ss != 0.0:
                accumulate(j, m, p1 + p2, q1 + q2, cs, ss)
            cd = 0.5 * (c1 * c2 + s1 * s2)
            sd = 0.5 * (s1 * c2 - c1 * s2)
            if cd != 0.0 or sd != 0.0:
                accumulate(j, m, p1 - p2, q1 - q2, cd, sd)
    return [(k, v) for k, v in out.items() if v != (0.0, 0.0)]


# Coefficients away from underflow (a nonzero pair's products never vanish
# there), with exact zeros for the sine.
nonzero = st.floats(0.01, 2.0).flatmap(lambda x: st.sampled_from((x, -x)))
sine = st.one_of(st.just(0.0), nonzero)
layout = st.lists(st.sampled_from(KEYS), unique=True, max_size=10)


def on_layout(keys, values):
    """A series with exactly these keys, in this order."""
    return DAlembertSeries({k: v for k, v in zip(keys, values)})


def values_for(keys):
    return st.lists(st.tuples(nonzero, sine), min_size=len(keys),
                    max_size=len(keys))


class TestProductPlans:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), layout, layout, st.sampled_from((None, 1, 2, 3)))
    def test_planned_product_matches_the_pair_loop(self, data, left, right, cap):
        # the layouts include the (0, 0) harmonic and negative q; a second
        # product on the same layouts finds the plan of the first (the
        # table starts empty, so no eviction falls between the two)
        plan.cache_clear()
        for run in range(2):
            a = on_layout(left, data.draw(values_for(left)))
            b = on_layout(right, data.draw(values_for(right)))
            assert list(a.terms) == left and list(b.terms) == right
            if run:
                misses = plan.cache_info().misses
                plan(_substitution_kernel, _PRODUCT, cap, a.layout, b.layout)
                assert plan.cache_info().misses == misses
            out = product(a, b, cap)
            assert list(out.terms.items()) == reference_mul(a, b, cap)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), layout, layout, st.sampled_from((None, 1, 2, 3)))
    def test_compiled_kernel_equals_the_row_loop(self, data, left, right, cap):
        # bit for bit, keys in order: the kernel adds the rows' products in
        # the order the loop over them does
        a = on_layout(left, data.draw(values_for(left)))
        b = on_layout(right, data.draw(values_for(right)))
        rows = polynomial_rows(_PRODUCT, cap, (a.layout, b.layout))
        (reference,) = substitute_by_rows(rows, [1.0], (a, b))
        assert exact(product(a, b, cap).terms.items()) == exact(reference.terms.items())

    def test_kernel_of_a_long_sum_compiles(self):
        # 5,000 rows into one slot: one `+` chain that long would overflow
        # the compiler's recursion limit
        s = DAlembertSeries.single(1, 0, 1, 0, c=0.5, s=0.25)
        coefficients = [1.0 / (n + 1) for n in range(5000)]
        rows = substitution_rows(
            (tuple((n, None, (1,)) for n in range(5000)),), None, (s.layout,))
        assert len(rows[0][2][0]) == 5000
        (compiled,) = substitute_by_kernel(rows, coefficients, (s,))
        (reference,) = substitute_by_rows(rows, coefficients, (s,))
        assert exact(compiled.terms.items()) == exact(reference.terms.items())

    def test_constant_sine_dropped_and_difference_sine_flipped(self):
        # one harmonic times itself: sin(0) drops the (0, 0) difference
        # sine 0.6875
        a = DAlembertSeries.single(1, 0, 1, 0, c=0.5, s=0.25)
        b = DAlembertSeries.single(1, 0, 1, 0, c=1.5, s=-2.0)
        assert (a * b).terms[2, 0, 0, 0] == (0.125, 0.0)
        # (0, 1) - (1, 0) is stored as (1, -1), so its sine -0.375 flips
        x = DAlembertSeries.single(0, 1, 0, 1, c=1.0, s=0.5)
        y = DAlembertSeries.single(1, 0, 1, 0, c=0.5, s=1.0)
        assert (x * y).terms[1, 1, 1, -1] == (0.5, 0.375)
        for left, right in ((a, b), (x, y), (a + x, y + b)):
            assert list((left * right).terms.items()) == reference_mul(left, right)


# -- reference kernels: the layout store against plain dict arithmetic --


def bits(value):
    """Exact bit pattern of a (cos, sin) pair; tells 0.0 from -0.0."""
    return tuple(float(v).hex() for v in value)


def exact(items):
    return [(key, bits(value)) for key, value in items]


def ref_stored(terms):
    return {k: v for k, v in terms.items() if v != (0.0, 0.0)}


def ref_add(a, b):
    out = dict(a)
    for key, (c, s) in b.items():
        oc, os = out.get(key, (0.0, 0.0))
        out[key] = (oc + c, os + s)
    return ref_stored(out)


def ref_termwise(a, fn):
    """Each (c, s) replaced by fn(p, q, c, s); the (0, 0) sine dropped,
    -0.0 stored as 0.0 and zero terms left out."""
    out = {}
    for (j, m, p, q), (c, s) in a.items():
        c, s = fn(p, q, c, s)
        if p == 0 and q == 0:
            s = 0.0
        if c != 0.0 or s != 0.0:
            out[j, m, p, q] = (0.0 + c, 0.0 + s)
    return out


def ref_scale(a, factor):
    return ref_termwise(a, lambda p, q, c, s: (c * factor, s * factor))


def ref_poly_in_D(a, w, c0, c1, c2):
    def term(p, q, c, s):
        theta = p * w.omega1 - q * w.omega2
        diag = c0 - c2 * theta * theta
        return diag * c + c1 * theta * s, diag * s - c1 * theta * c

    return ref_termwise(a, term)


def ref_invert_delta(a, w, floor):
    def term(p, q, c, s):
        if (p, q) in ((1, 0), (0, 1)):
            raise CriticalTermError((p, q), max(abs(c), abs(s)))
        delta = small_divisor(p, q, w)
        if abs(delta) < floor:
            raise SmallDivisorError(f"Delta_({p},{q})", delta)
        return c / delta, s / delta

    return ref_termwise(a, term)


def outcome(fn, *args):
    """Exact items of fn(*args), or the class and message it raised."""
    try:
        out = fn(*args)
    except (CriticalTermError, SmallDivisorError) as exc:
        return type(exc), str(exc)
    return exact(out.terms.items() if isinstance(out, DAlembertSeries)
                 else out.items())


# Few distinct values, so sums and products cancel to exact zeros often;
# -0.0 among them, which no operation may store.
coarse = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5))
series_terms = layout.flatmap(lambda keys: st.lists(
    st.tuples(coarse, coarse), min_size=len(keys), max_size=len(keys)).map(
    lambda values: dict(zip(keys, values))))


def check_against_reference(a, b, cap=None, d=(0.3, -1.0, 2.0),
                            floor=DIVISOR_FLOOR):
    """Every layout-store operation on a and b, against the dict kernels."""
    w = W_CLASSICAL
    da, db = dict(a.terms), dict(b.terms)
    pairs = [
        (a + b, ref_add(da, db)), (b + a, ref_add(db, da)),
        (difference(a, b), ref_add(da, ref_scale(db, -1.0))),
        (difference(a, a), ref_add(da, ref_scale(da, -1.0))),
        (product(a, b, cap), dict(reference_mul(a, b, cap))),
        (a * b, dict(reference_mul(a, b))),
        (apply_D(a, w), ref_poly_in_D(da, w, 0.0, 1.0, 0.0)),
        (apply_poly_in_D(a, w, *d), ref_poly_in_D(da, w, *d)),
        (a.chop(0.75), ref_stored({k: (c if abs(c) > 0.75 else 0.0,
                                       s if abs(s) > 0.75 else 0.0)
                                   for k, (c, s) in da.items()})),
    ]
    pairs += [(grade(a, j, m), {k: v for k, v in da.items() if k[:2] == (j, m)})
              for j in range(3) for m in range(3)]
    for out, ref in pairs:
        assert exact(out.terms.items()) == exact(ref.items())
    assert outcome(invert_delta, a, w, floor) == outcome(ref_invert_delta, da, w, floor)


class TestReferenceKernels:
    @settings(max_examples=150, deadline=None)
    @given(series_terms, series_terms, st.sampled_from((None, 0, 1, 2, 3)),
           st.tuples(coarse, coarse, coarse),
           st.sampled_from((DIVISOR_FLOOR, 0.02, 0.5)))
    def test_operations_match_the_dict_kernels(self, ta, tb, cap, d, floor):
        # the keys include the (0, 0) harmonic and negative q; the values
        # exact zeros and pairs that cancel
        check_against_reference(DAlembertSeries(ta), DAlembertSeries(tb), cap,
                                d, floor)

    def test_plan_table_stays_within_its_bound(self):
        # more distinct layouts than the table holds evict the least
        # recently used entries, those of `first` and `other` among them;
        # results stay exact
        first = DAlembertSeries({k: (1.0, 0.5) for k in KEYS[:4]})
        other = DAlembertSeries({k: (-0.5, 1.5) for k in KEYS[2:6]})
        prev = DAlembertSeries.single(1, 1, 1, -1, c=0.5)
        flood = itertools.permutations(KEYS[:16], 3)
        for n, keys in zip(range(PLAN_TABLE_SIZE), flood):
            s = on_layout(keys, [(0.5, -1.0)] * 3)
            if n % 256 == 0:
                check_against_reference(s, prev, 2)
            prev = product(s, prev, 2) + s
            assert plan.cache_info().currsize <= PLAN_TABLE_SIZE
        for layout_ in (first.layout, other.layout):
            assert intern(layout_.keys) is not layout_
        check_against_reference(first, other, 3)
        check_against_reference(prev, first)

    def test_results_do_not_depend_on_layout_identity(self):
        # two layout objects with one key tuple: the second is interned
        # after the table forgot the first
        a = on_layout(KEYS[:8], [(1.0, -0.5)] * 8)
        plan.cache_clear()
        b = on_layout(KEYS[:8], [(0.5, 1.5)] * 8)
        assert a.layout is not b.layout and a.layout.keys == b.layout.keys
        check_against_reference(a, b, 2)
        check_against_reference(b, a)


    def test_terms_is_a_copy(self):
        # writing to the returned dict changes neither the series nor what
        # is computed from it
        a = on_layout(KEYS[:6], [(1.0, -0.5), (0.5, 1.5)] * 3)
        b = on_layout(KEYS[3:8], [(-0.5, 1.0)] * 5)
        before = [exact(s.terms.items()) for s in (a, a * b + a, scaled(a, 2.0))]
        terms = a.terms
        terms[KEYS[0]] = (9.0, 9.0)
        terms[KEYS[10]] = (1.0, 0.0)
        del terms[KEYS[1]]
        assert [exact(s.terms.items())
                for s in (a, a * b + a, scaled(a, 2.0))] == before
        assert a.terms is not a.terms


def series_value(s, i1, i2, phi1, phi2):
    total = 0.0
    for (j, m, p, q), (c, sv) in s.terms.items():
        amp = i1 ** (j / 2) * i2 ** (m / 2)
        ang = p * phi1 + q * phi2
        total += amp * (c * math.cos(ang) + sv * math.sin(ang))
    return total


class TestSmallDivisors:
    def test_critical_divisors_vanish(self):
        w = FrequencyPair(0.77, 0.31)
        assert small_divisor(1, 0, w) == pytest.approx(0.0, abs=1e-15)
        assert small_divisor(0, 1, w) == pytest.approx(0.0, abs=1e-15)

    def test_zero_harmonic(self):
        w = FrequencyPair(0.9, 0.2)
        assert small_divisor(0, 0, w) == pytest.approx(0.9**2 * 0.2**2, rel=1e-15)

    def test_mixed_harmonic_value(self):
        w = FrequencyPair(0.963327, 0.268353)
        theta = w.omega1 - w.omega2
        expected = (w.omega1**2 - theta**2) * (w.omega2**2 - theta**2)
        assert small_divisor(1, 1, w) == pytest.approx(expected, rel=1e-15)
        assert small_divisor(1, 1, w) == pytest.approx(-0.1829, abs=5e-4)

    def test_single_harmonic_division(self):
        w = W_CLASSICAL
        c = 1.7
        s = DAlembertSeries.single(2, 0, 2, 0, c=c)
        out = invert_delta(s, w)
        assert out.terms[(2, 0, 2, 0)][0] == pytest.approx(
            c / small_divisor(2, 0, w), rel=1e-15)

    def test_critical_term_rejected(self):
        s = DAlembertSeries.single(1, 0, 1, 0, c=1e-3)
        with pytest.raises(CriticalTermError):
            invert_delta(s, W_CLASSICAL)

    def test_small_divisor_error(self):
        w = FrequencyPair(0.8, 0.4)  # omega1 = 2 omega2: Delta_{1,-1}... pick (2,0)?
        # construct a harmonic whose divisor is tiny: theta = 2*0.4 = 0.8 = omega1
        s = DAlembertSeries.single(0, 2, 0, 2, c=1.0)
        with pytest.raises(SmallDivisorError):
            invert_delta(s, w)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        w = W_CLASSICAL
        s = random_series(rng, 20)
        # remove critical harmonics before inversion
        clean = DAlembertSeries(
            {k: v for k, v in s.terms.items() if (k[2], k[3]) not in ((1, 0), (0, 1))})
        back = delta_operator(invert_delta(clean, w), w)
        assert sup(difference(back, clean)) < 1e-12 * max(1.0, sup(clean))

    def test_poly_in_d_operator(self):
        w = W_CLASSICAL
        s = DAlembertSeries.single(2, 0, 2, 0, c=1.0, s=-0.5)
        out = apply_poly_in_D(s, w, c0=0.3, c1=2.0, c2=1.0)
        theta = 2 * w.omega1
        c, sv = out.terms[(2, 0, 2, 0)]
        assert c == pytest.approx((0.3 - theta**2) * 1.0 + 2.0 * theta * (-0.5), rel=1e-14)
        assert sv == pytest.approx((0.3 - theta**2) * (-0.5) - 2.0 * theta * 1.0, rel=1e-14)


class TestMoser:
    def test_pairs_in_scan_order(self):
        nested = [(k1, k2) for k1 in range(-4, 5) for k2 in range(-4, 5)
                  if 0 < abs(k1) + abs(k2) <= 4]
        assert list(MOSER_PAIRS) == nested and len(MOSER_PAIRS) == 40

    def test_classical_pass(self):
        rep = moser_check(W_CLASSICAL, tol=1e-3)
        assert rep.passed
        assert rep.min_combination == pytest.approx(0.1583, abs=2e-4)
        assert tuple(sorted(abs(k) for k in rep.worst_pair)) == (1, 3)

    def test_exact_two_to_one_resonance(self):
        rep = moser_check(FrequencyPair(0.8, 0.4), tol=1e-8)
        assert not rep.passed
        assert rep.min_combination == pytest.approx(0.0, abs=1e-15)
        assert tuple(sorted(abs(k) for k in rep.worst_pair)) == (1, 2)

    def test_three_to_one_resonance(self):
        rep = moser_check(FrequencyPair(0.9, 0.3), tol=1e-8)
        assert not rep.passed
        assert tuple(sorted(abs(k) for k in rep.worst_pair)) == (1, 3)

    @pytest.mark.parametrize("w", [W_CLASSICAL, FrequencyPair(0.8, 0.4),
                                   FrequencyPair(0.9, 0.3),
                                   FrequencyPair(0.75, 0.25),
                                   FrequencyPair(0.6, 0.2),
                                   FrequencyPair(0.625, 0.25)])
    def test_matches_the_full_scan(self, w):
        # the half scan gives the full scan's minimum and signed pair, ties
        # included: w1 = 2 w2 and w1 = 3 w2 tie a pair with its negation,
        # and at 0.625/0.25 (-1, 2) ties (-1, 3) at 0.125 exactly
        rep = moser_check(w, tol=1e-8)
        assert (rep.min_combination, rep.worst_pair) == moser_by_full_scan(w)

    def test_matches_the_full_scan_at_seeded_pairs(self):
        rng = random.Random(5)
        for _ in range(500):
            w2 = rng.uniform(0.01, 1.0)
            w = FrequencyPair(w2 * rng.choice((rng.uniform(1.05, 5.0), 2.0, 3.0)), w2)
            rep = moser_check(w, tol=1e-8)
            assert (rep.min_combination, rep.worst_pair) == moser_by_full_scan(w)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-300, 1e300), st.floats(0.0, 1.0, exclude_min=True,
                                                exclude_max=True))
    def test_matches_the_full_scan_at_any_ordered_pair(self, w1, ratio):
        # the scan skips the pairs whose entries share a sign, as none of
        # them can be least once 0 < w2 < w1, rounding included; near-equal
        # frequencies and both ends of the float range test that
        w2 = w1 * ratio
        if 0.0 < w2 < w1:
            w = FrequencyPair(w1, w2)
            rep = moser_check(w, tol=1e-8)
            assert (rep.min_combination, rep.worst_pair) == moser_by_full_scan(w)

    def test_frequency_pair_validation(self):
        with pytest.raises(ParameterError):
            FrequencyPair(0.3, 0.9)
        with pytest.raises(ParameterError):
            FrequencyPair(0.9, -0.1)


class TestPretty:
    def test_sorted_fixed_precision(self):
        s = DAlembertSeries.single(2, 0, 2, 0, c=1 / 3) \
            + DAlembertSeries.single(1, 0, 1, 0, c=1.0)
        text = s.pretty()
        lines = text.strip().splitlines()
        assert lines[0].startswith("I1^1/2 I2^0/2 (1,0)")
        assert "0.33333333333333331" in lines[1]


class TestDivisorLinksMoser:
    def test_delta_eigenaction_all_harmonics_up_to_four(self):
        w = W_CLASSICAL
        for p in range(0, 5):
            qlo = -4 if p > 0 else 0
            for q in range(qlo, 5):
                if p == 0 and q == 0:
                    continue
                j, m = p, abs(q)  # smallest parity-compatible grades
                s = DAlembertSeries.single(j, m, p, q, c=1.0,
                                           s=0.0 if (p, q) == (0, 0) else 0.5)
                out = apply_poly_in_D(
                    apply_poly_in_D(s, w, c0=w.omega1**2, c2=1.0),
                    w, c0=w.omega2**2, c2=1.0)
                expected = scaled(s, small_divisor(p, q, w))
                assert sup(difference(out, expected)) < 1e-13

    def test_moser_pass_implies_divisors_above_floor(self):
        # the gate's guarantee: the five divisors the second-order solve
        # needs all clear the floor once the combination check passes
        rep = moser_check(W_CLASSICAL, tol=1e-3)
        assert rep.passed
        for (p, q) in ((0, 0), (2, 0), (0, 2), (1, 1), (1, -1)):
            assert abs(small_divisor(p, q, W_CLASSICAL)) > 1e-8
