"""Graded trigonometric series in two angles with half-integer action powers.

A term is keyed by (j, m, p, q): action powers I1^(j/2) I2^(m/2) and the
harmonic cos/sin(p*phi1 + q*phi2).  Every stored term obeys the
double-summation constraints

* 0 <= p <= j with p = j (mod 2),
* -m <= q <= m with q = m (mod 2),

and keys are kept canonical (p > 0, or p = 0 and q >= 0).  A series is
built one way, by ``DAlembertSeries._new(layout, values)`` on a planned
layout.  Nothing checks the constraints: B1's keys obey them, slices and
termwise maps reuse stored keys, and a product of valid keys is valid
(only its difference harmonics need canonicalising).
:func:`substitution_rows` lays out a polynomial evaluated at series
with every product capped at a degree j + m, and
:class:`l4norm.layout.KernelSource` writes the rows into one
straight-line kernel, which forms each k-factor product of terms in one
step; the stages of :mod:`l4norm.normalform` write them into their own.
The one-step forms, :func:`substitute` (and ``a * b``), :func:`apply_D`,
:func:`apply_poly_in_D` and :func:`invert_delta`, run on no program
path: the benchmark's hooks wrap them and the tests' references use them.

A term c cos + s sin is stored as z = c + i s on a shared key layout
(:mod:`l4norm.layout`).  A product of two terms gives the sum harmonic
z1 z2 / 2 and the difference harmonic z1 conj(z2) / 2, or conj(z1) z2 / 2
where canonicalising negates it; D multiplies z by -i theta.  No stored
part is -0.0 (results are normalised by adding 0j), and the sine of the
(0, 0) harmonic is 0.0.

The differential operator is D = omega1 d/dphi1 - omega2 d/dphi2, under
which a harmonic (p, q) carries multiplier theta = p*omega1 - q*omega2.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .errors import ContractError, CriticalTermError, ParameterError, SmallDivisorError
from .layout import KernelSource, Layout, Store, intern, plan

DIVISOR_FLOOR = 1e-8

CRITICAL_HARMONICS = ((1, 0), (0, 1))

# Every (k1, k2) with 0 < |k1| + |k2| <= 4, in the order the non-resonance
# gate scans them.
MOSER_PAIRS = tuple((k1, k2) for k1 in range(-4, 5) for k2 in range(-4, 5)
                    if 0 < abs(k1) + abs(k2) <= 4)
# The pairs that can be least, in MOSER_PAIRS order: of each pair and its
# negation the first, with entries of opposite signs, and (0, -1).  As 0 < w2
# < w1, rounded or not, every other pair gives w1 or 2 w2 or more, above w2.
_MOSER_SCAN = tuple((k1, k2) for k1, k2 in MOSER_PAIRS if k1 < 0 < k2) + ((0, -1),)


class FrequencyPair(namedtuple("FrequencyPair", "omega1 omega2")):
    """Basic frequencies, convention omega1 > omega2 > 0."""

    __slots__ = ()

    def __new__(cls, omega1: float, omega2: float):
        if not (math.isfinite(omega1) and math.isfinite(omega2)):
            raise ParameterError("frequencies must be finite")
        if not 0.0 < omega2 < omega1:
            raise ParameterError(
                f"need 0 < omega2 < omega1, got ({omega1}, {omega2})"
            )
        return tuple.__new__(cls, (omega1, omega2))


def _canonical(p: int, q: int):
    """(p, q) made canonical, and whether that negated it (the sine flips)."""
    if p < 0 or (p == 0 and q < 0):
        return -p, -q, True
    return p, q, False


def substitution_rows(polys: tuple, cap: int | None, layouts: tuple) -> tuple:
    """The rows of evaluating each polynomial of `polys`, a tuple of ``(n,
    e, monomial)`` whose coefficient is ``coefficients[n]`` times the int
    `e` (unless None), at series of these layouts with every product capped
    at `cap`.

    Each monomial is multiplied out as its powers left to right, each power
    its argument times itself left to right, the cap pruning every partial
    product.  Each tuple of argument terms and product-to-sum sign pattern
    gives a key and factors: indices into ``[1, argument values...,
    conjugates]``, a conjugate where a difference harmonic is canonicalised
    by negation.  Per polynomial the result holds ``(layout, scales,
    passes, zero_slots)``: tuples of one key whose factors differ only in
    order make one row ``(slot, c, factors...)`` of `passes` (by factor
    count; the constant monomial's factor is 1), where ``scales[c]`` is
    ``((n, e), count of tuples times 2^(1 - factors))``.  Output keys come
    in the order the pairwise products meet them, if none prunes an exact
    zero; `zero_slots` are the (0, 0) harmonics, whose sine is dropped.
    """
    flat = [(i, key) for i, a in enumerate(layouts) for key in a.keys]
    size = 1 + len(flat)

    def times(left, right):
        out = []
        for (j1, m1, p1, q1), f1 in left:
            for (j2, m2, p2, q2), f2 in right:
                j, m = j1 + j2, m1 + m2
                if cap is not None and j + m > cap:
                    continue
                out.append(((j, m, p1 + p2, q1 + q2), f1 + f2))
                p, q, flip = _canonical(p1 - p2, q1 - q2)
                conj = tuple((f + size) % (2 * size) for f in (f1 if flip else f2))
                out.append(((j, m, p, q), conj + f2 if flip else f1 + conj))
        return out

    leaves = [[(key, (n,)) for n, (v, key) in enumerate(flat, 1) if v == i]
              for i in range(len(layouts))]
    outputs = []
    for poly in polys:
        slots, counts = {}, {}
        for n, e, mono in poly:
            if sum(mono) > 3:
                raise ContractError(f"monomial {mono} has more than 3 factors")
            powers = [functools.reduce(times, [leaves[i]] * k)
                      for i, k in enumerate(mono) if k]
            for key, factors in (functools.reduce(times, powers) if powers
                                 else [((0, 0, 0, 0), (0,))]):
                row = (slots.setdefault(key, len(slots)), (n, e), *sorted(factors))
                counts[row] = counts.get(row, 0) + 1
        scales, passes = {}, ([], [], [])
        for (slot, source, *factors), count in counts.items():
            scale = scales.setdefault(
                (source, count * 0.5 ** (len(factors) - 1)), len(scales))
            passes[len(factors) - 1].append((slot, scale, *factors))
        zero_slots = tuple(n for (_, _, p, q), n in slots.items() if p == q == 0)
        outputs.append((intern(tuple(slots)), tuple(scales),
                        tuple(map(tuple, passes)), zero_slots))
    return tuple(outputs)


def _substitution_kernel(monomials: Layout, cap: int | None, *layouts):
    """``(layout, kernel)`` of :func:`substitute` at these layouts: the
    :func:`substitution_rows` of the polynomial with these monomials,
    written by :meth:`l4norm.layout.KernelSource.substitute`.
    ``kernel(coefficients, values of each argument...)`` returns the
    values of the result on `layout`."""
    k = KernelSource()
    names = [f"a{i}" for i in range(len(layouts))]
    args = [k.unpack(a, layout) for a, layout in zip(names, layouts)]
    poly = tuple((n, None, mono) for n, mono in enumerate(monomials.keys))
    (out,) = k.substitute(substitution_rows((poly,), cap, layouts), args)
    return out[0], k.compile(", ".join(["coefficients", *names]), [out])


def substitute(monomials: Layout, coefficients: list, args, cap: int | None):
    """The polynomial with these monomials (one exponent per series in
    `args`, total degree at most 3) and coefficients, evaluated at `args`
    with every product capped at degree `cap` (None keeps all): one call of
    the compiled kernel planned for these layouts and this cap."""
    layout, kernel = plan(_substitution_kernel, monomials, cap,
                          *(a.layout for a in args))
    (values,) = kernel(coefficients, *(a.values for a in args))
    return args[0]._new(layout, values)


# The one monomial of a product of two series, x y.
_PRODUCT = intern(((1, 1),))


def _degree(key) -> int:
    return key[0] + key[1]


def _grade(key) -> tuple:
    return key[:2]


class DAlembertSeries(Store):
    """Immutable-by-convention trigonometric series, built by `_new` on a
    layout and its values; all operations return new instances.  `terms`
    is a fresh dict of the terms as (j, m, p, q) -> (cos_coeff,
    sin_coeff), in stored order."""

    __slots__ = ()

    _zero = 0j

    @property
    def terms(self) -> dict:
        return {key: (z.real, z.imag)
                for key, z in zip(self.layout.keys, self.values)}

    # -- product and queries ----------------------------------------------

    def __mul__(self, other):
        """Product via cos/sin product-to-sum expansion; grades add."""
        return substitute(_PRODUCT, [1.0], (self, other), None)

    def chop(self, tol: float):
        """Drop coefficients below tol in magnitude (reporting aid)."""
        return self._new(self.layout, [
            complex(z.real if abs(z.real) > tol else 0.0,
                    z.imag if abs(z.imag) > tol else 0.0) for z in self.values])

    def pretty(self) -> str:
        """Deterministic listing: sorted by (degree, j, p, q), 17 digits."""
        order, template = plan(listing, self.layout)
        z = self.values
        return template % tuple(part for n in order for part in (z[n].real, z[n].imag))


def listing(layout: Layout) -> tuple:
    """The slots of `layout` in the order :meth:`DAlembertSeries.pretty`
    lists them, by (degree, j, p, q), and the listing's `%` template, one
    line per slot with its cosine and sine."""
    keys = layout.keys
    order = tuple(sorted(range(len(keys)), key=lambda n: (
        _degree(keys[n]), keys[n][0], keys[n][2], keys[n][3])))
    return order, "".join("I1^%d/2 I2^%d/2 (%d,%d) cos %%.17g sin %%.17g\n" % keys[n]
                          for n in order)


def apply_D(series: DAlembertSeries, w: FrequencyPair) -> DAlembertSeries:
    """D[c cos + s sin] = -c theta sin + s theta cos, theta = p w1 - q w2:
    z times -i theta."""
    return apply_poly_in_D(series, w, c1=1.0)


def apply_poly_in_D(series: DAlembertSeries, w: FrequencyPair,
                    c0: float = 0.0, c1: float = 0.0, c2: float = 0.0):
    """Apply the operator c2 D^2 + c1 D + c0 harmonic by harmonic: z times
    c0 - c2 theta^2 - i c1 theta."""
    w1, w2 = w.omega1, w.omega2
    values = []
    for (_, _, p, q), z in zip(series.layout.keys, series.values):
        theta = p * w1 - q * w2
        values.append(0j + complex(c0 - c2 * theta * theta, -(c1 * theta)) * z)
    return series._new(series.layout, values)


def small_divisor(p: int, q: int, w: FrequencyPair) -> float:
    """[w1^2 - (p w1 - q w2)^2] [w2^2 - (p w1 - q w2)^2]."""
    theta = p * w.omega1 - q * w.omega2
    return (w.omega1**2 - theta * theta) * (w.omega2**2 - theta * theta)


def invert_delta(series: DAlembertSeries, w: FrequencyPair,
                 floor: float = DIVISOR_FLOOR) -> DAlembertSeries:
    """Solve (D^2 + w1^2)(D^2 + w2^2) X = series harmonic by harmonic.

    Critical harmonics (1,0) and (0,1) have vanishing divisor and raise;
    divisors below the floor raise SmallDivisorError rather than silently
    amplifying noise.  Terms are checked in stored order.
    """
    values = []
    for (_, _, p, q), z in zip(series.layout.keys, series.values):
        if (p, q) in CRITICAL_HARMONICS:
            raise CriticalTermError((p, q), max(abs(z.real), abs(z.imag)))
        delta = small_divisor(p, q, w)
        if abs(delta) < floor:
            raise SmallDivisorError(f"Delta_({p},{q})", delta)
        values.append(0j + z / delta)
    return series._new(series.layout, values)


class MoserReport(namedtuple("MoserReport", "min_combination worst_pair passed")):
    """Outcome of the non-resonance gate |k1 w1 + k2 w2| > tol for
    0 < |k1| + |k2| <= 4."""

    __slots__ = ()


def moser_check(w: FrequencyPair, tol: float) -> MoserReport:
    """The pair of least |k1 w1 + k2 w2|; of equal values the first in
    MOSER_PAIRS, which is in lexicographic order, wins.  A pair and its
    negation give the same value, so only the first of the two is scanned,
    and only where it can be least (`_MOSER_SCAN`)."""
    w1, w2 = w.omega1, w.omega2
    value, pair = math.inf, None
    for k1, k2 in _MOSER_SCAN:
        combination = abs(k1 * w1 + k2 * w2)
        if combination < value:
            value, pair = combination, (k1, k2)
    return MoserReport(value, pair, value > tol)
