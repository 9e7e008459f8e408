"""Graded trigonometric series in two angles with half-integer action powers.

A term is keyed by (j, m, p, q): action powers I1^(j/2) I2^(m/2) and the
harmonic cos/sin(p*phi1 + q*phi2).  Every stored term obeys the
double-summation constraints

* 0 <= p <= j with p = j (mod 2),
* -m <= q <= m with q = m (mod 2),

and keys are kept canonical (p > 0, or p = 0 and q >= 0).  The
constructor checks the constraints and canonicalises; no other operation
needs to, because sums and termwise maps reuse stored keys and a product
of valid keys is valid (only its difference harmonics need
canonicalising).  Products take an optional degree cap (j + m) and skip
the pairs of terms that would exceed it.  A product of series, and a
polynomial evaluated at series (:func:`substitute`), is planned once per
shape, the layouts and the cap, and the plan's rows compiled into one
straight-line kernel; a call runs that kernel, which forms each k-factor
product of terms in one step.  :class:`KernelSource` writes such rows
into a larger kernel, between the sums and D-polynomials of a stage of
:mod:`l4norm.normalform`.

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
from dataclasses import dataclass

from .errors import ContractError, CriticalTermError, ParameterError, SmallDivisorError
from .layout import Layout, Store, compiled, intern, plan, pruned, sum_plan

DIVISOR_FLOOR = 1e-8

CRITICAL_HARMONICS = ((1, 0), (0, 1))

# Every (k1, k2) with 0 < |k1| + |k2| <= 4, in the order the non-resonance
# gate scans them.
MOSER_PAIRS = tuple((k1, k2) for k1 in range(-4, 5) for k2 in range(-4, 5)
                    if 0 < abs(k1) + abs(k2) <= 4)
# Of each pair and its negation, the one MOSER_PAIRS lists first.
_MOSER_SCAN = tuple((k1, k2) for k1, k2 in MOSER_PAIRS if (k1, k2) < (-k1, -k2))


@dataclass(frozen=True)
class FrequencyPair:
    """Basic frequencies, convention omega1 > omega2 > 0."""

    omega1: float
    omega2: float

    def __post_init__(self):
        if not (math.isfinite(self.omega1) and math.isfinite(self.omega2)):
            raise ParameterError("frequencies must be finite")
        if not 0.0 < self.omega2 < self.omega1:
            raise ParameterError(
                f"need 0 < omega2 < omega1, got ({self.omega1}, {self.omega2})"
            )

    def theta(self, p: int, q: int) -> float:
        return p * self.omega1 - q * self.omega2


def _canonical(p: int, q: int):
    """(p, q) made canonical, and whether that negated it (the sine flips)."""
    if p < 0 or (p == 0 and q < 0):
        return -p, -q, True
    return p, q, False


def _check_parity(j: int, m: int, p: int, q: int):
    if j < 0 or m < 0:
        raise ContractError(f"negative action powers in key {(j, m, p, q)}")
    if not (0 <= p <= j and (p - j) % 2 == 0):
        raise ContractError(f"harmonic p={p} violates parity for j={j}")
    if not (-m <= q <= m and (q - m) % 2 == 0):
        raise ContractError(f"harmonic q={q} violates parity for m={m}")


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


class KernelSource:
    """A stage kernel being generated: the lines of its body, over the
    frequencies `w1` and `w2`.  A series is ``(layout, names)``, one local
    per slot; each expression is bound to one local on first use
    (:meth:`let`), so a harmonic's theta or multiplier, met on several
    slots, is formed once.  Series are never pruned inside a kernel: a
    layout is structural, and only the caller prunes what it returns."""

    def __init__(self):
        self.lines = []
        self._locals = {}

    def let(self, expression: str) -> str:
        name = self._locals.get(expression)
        if name is None:
            name = self._locals[expression] = f"k{len(self._locals)}"
            self.lines.append(f"    {name} = {expression}")
        return name

    def unpack(self, argument: str, layout: Layout) -> tuple:
        """The series of `layout` whose values the kernel takes as `argument`."""
        names = [f"{argument}_{n}" for n in range(len(layout.keys))]
        if names:
            self.lines.append(f"    {', '.join(names)}, = {argument}")
        return layout, names

    def multiplier(self, p: int, q: int, c0: str, c1: str, c2: str) -> str:
        """The local holding c2 D^2 + c1 D + c0 at harmonic (p, q), as
        :func:`apply_poly_in_D` evaluates it."""
        t = self.let(f"{p} * w1 - {q} * w2")
        return self.let(f"complex({c0} - {c2} * {t} * {t}, -({c1} * {t}))")

    def apply_D(self, series: tuple) -> tuple:
        """D of a series, as :func:`apply_D`; its theta = 0 keys, which D
        maps to 0, are dropped."""
        layout, names = series
        kept = [(key, z) for key, z in zip(layout.keys, names) if key[2] or key[3]]
        return intern(tuple(key for key, _ in kept)), [
            self.let(f"0j + {self.multiplier(p, q, '0.0', '1.0', '0.0')} * {z}")
            for (_, _, p, q), z in kept]

    def merge(self, left: tuple, right: tuple, negate: bool = False) -> tuple:
        """``left + right`` (``left - right`` if `negate`) along their sum
        plan, as `Store._merge` forms it."""
        layout, shared, new = sum_plan(left[0], right[0])
        sign = "-" if negate else ""
        names = left[1].copy()
        for n, k in shared:
            names[n] = self.let(f"{names[n]} + {sign}{right[1][k]}")
        return layout, names + [self.let(f"0j + {sign}{right[1][k]}") for k in new]

    def substitute(self, outputs, args) -> list:
        """The series of each :func:`substitution_rows` output at `args`,
        the kernel's `coefficients` argument holding the coefficients: the
        constants ``coefficients[n] (* e) * scale`` formed once, the
        conjugates ``g<a>`` only where a row reads them, and per slot ``0j``
        plus its rows' products, pass after pass, in the order ``acc[slot]
        +=`` would add them.  One kernel holds one substitution."""
        names = ["1.0", *(z for a in args for z in a[1])]
        size = len(names)
        names += [f"g{a}" for a in range(size)]
        consts, conjugates, body, results = {}, set(), [], []
        for o, (layout, scales, passes, zero_slots) in enumerate(outputs):
            c = []
            for (n, e), scale in scales:
                value = f"coefficients[{n}]" + ("" if e is None else f" * {e}")
                c.append(consts.setdefault(f"{value} * {scale!r}", f"c{len(consts)}"))
            terms = [[] for _ in layout.keys]
            for rows in passes:
                for slot, k, *row in rows:
                    terms[slot].append(" * ".join([c[k], *(names[a] for a in row)]))
                    conjugates.update(a - size for a in row if a >= size)
            values = []
            for slot, products in enumerate(terms):
                v = f"v{o}_{slot}"
                # 100 products a statement: a `+` chain of 3,000 overflows compile
                for k in range(0, len(products), 100):
                    body.append(f"    {v} = {v if k else '0j'} + "
                                + " + ".join(products[k:k + 100]))
                if slot in zero_slots:
                    body.append(f"    {v} = complex({v}.real)")
                values.append(v)
            results.append((layout, values))
        self.lines += [*(f"    g{a} = {names[a]}.conjugate()" for a in sorted(conjugates)),
                       *(f"    {name} = {value}" for value, name in consts.items()),
                       *body]
        return results

    @staticmethod
    def sup(*series) -> str:
        """Sup over the real and imaginary parts of the values, as
        `Store.max_abs` of each and their max."""
        parts = ["0.0", *(f"abs({z}.{part})" for _, names in series
                          for z in names for part in ("real", "imag"))]
        return f"max(({', '.join(parts)},))"

    def compile(self, arguments: str, results: list, **names):
        """The kernel of these lines, returning `results` (a series as the
        list of its values, or an expression)."""
        values = ", ".join(f"[{', '.join(r[1])}]" if isinstance(r, tuple) else r
                           for r in results)
        return compiled("\n".join([f"def kernel({arguments}):", *self.lines,
                                   f"    return ({values},)\n"]), "kernel", **names)


def substitution_plan(polys: tuple, cap: int | None, layouts: tuple):
    """``(outputs, kernel)``: the :func:`substitution_rows` of `polys` at
    these layouts, and their kernel: ``kernel(coefficients, values of each
    argument...)`` returns the values of each output
    (:meth:`KernelSource.substitute`)."""
    outputs = substitution_rows(polys, cap, layouts)
    k = KernelSource()
    args = [k.unpack(f"a{i}", layout) for i, layout in enumerate(layouts)]
    return outputs, k.compile(
        ", ".join(["coefficients"] + [f"a{i}" for i in range(len(args))]),
        k.substitute(outputs, args))


def _substitution_plan(monomials: Layout, cap: int | None, *layouts):
    """The plan of :func:`substitute`, of one polynomial."""
    return substitution_plan((tuple((n, None, mono) for n, mono in enumerate(
        monomials.keys)),), cap, layouts)


def substitute_along(planned, coefficients: list, args) -> list:
    """The series of each output of a :func:`substitution_plan` for `args`
    at these coefficients: one call of its kernel."""
    outputs, kernel = planned
    return [args[0]._new(out[0], values) for out, values in
            zip(outputs, kernel(coefficients, *(a.values for a in args)))]


def substitute(monomials: Layout, coefficients: list, args, cap: int | None):
    """The polynomial with these monomials (one exponent per series in
    `args`, total degree at most 3) and coefficients, evaluated at `args`
    with every product capped at degree `cap` (None keeps all): one call of
    the compiled kernel planned for these layouts and this cap."""
    return substitute_along(plan(_substitution_plan, monomials, cap,
                                 *(a.layout for a in args)), coefficients, args)[0]


# The one monomial of a product of two series, x y.
_PRODUCT = intern(((1, 1),))


def _degree(key) -> int:
    return key[0] + key[1]


def _grade(key) -> tuple:
    return key[:2]


class DAlembertSeries(Store):
    """Immutable-by-convention trigonometric series; all operations return
    new instances.  `terms` is a fresh dict of the terms as (j, m, p, q) ->
    (cos_coeff, sin_coeff), in stored order."""

    __slots__ = ()

    _zero = 0j

    def __init__(self, terms=None):
        acc = {}
        if terms:
            for (j, m, p, q), (c, s) in terms.items():
                p, q, flip = _canonical(p, q)
                if p == 0 and q == 0:
                    s = 0.0  # sin(0) is identically zero; drop its coefficient
                key = (j, m, p, q)
                acc[key] = acc.get(key, 0j) + complex(c, -s if flip else s)
            for key in acc:
                _check_parity(*key)
        self.layout, self.values = pruned(intern(tuple(acc)),
                                          list(acc.values()), 0j)

    @property
    def terms(self) -> dict:
        return {key: (z.real, z.imag)
                for key, z in zip(self.layout.keys, self.values)}

    # -- constructors ---------------------------------------------------

    @classmethod
    def single(cls, j, m, p, q, c=0.0, s=0.0):
        return cls({(j, m, p, q): (c, s)})

    @classmethod
    def zero(cls):
        return cls()

    # -- linear structure -------------------------------------------------

    def scale(self, factor: float):
        return self._new(self.layout, [0j + z * factor for z in self.values])

    def mul(self, other, cap: int | None = None):
        """Product via cos/sin product-to-sum expansion; grades add.

        With a cap, pairs of terms whose degrees j + m sum past it are
        skipped, so the result is the full product restricted to degree
        <= cap without the work above it.
        """
        return substitute(_PRODUCT, [1.0], (self, other), cap)

    def __mul__(self, other):
        return self.mul(other)

    # -- queries ----------------------------------------------------------

    def degree_slice(self, degree: int):
        return self._slice(_degree, degree, degree)

    def grade(self, j: int, m: int):
        return self._slice(_grade, (j, m), (j, m))

    def coefficient(self, key) -> tuple:
        """(cos, sin) of a canonical key, (0.0, 0.0) where none is stored."""
        z = self._value(key)
        return z.real, z.imag

    def chop(self, tol: float):
        """Drop coefficients below tol in magnitude (reporting aid)."""
        return self._new(self.layout, [
            complex(z.real if abs(z.real) > tol else 0.0,
                    z.imag if abs(z.imag) > tol else 0.0) for z in self.values])

    def __repr__(self):
        return f"DAlembertSeries(terms={len(self.values)})"

    def pretty(self) -> str:
        """Deterministic listing: sorted by (degree, j, p, q), 17 digits."""
        terms = sorted(zip(self.layout.keys, self.values),
                       key=lambda kz: (_degree(kz[0]), kz[0][0], kz[0][2], kz[0][3]))
        return "".join(f"I1^{j}/2 I2^{m}/2 ({p},{q}) cos {z.real:.17g} "
                       f"sin {z.imag:.17g}\n" for (j, m, p, q), z in terms)


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
    theta = w.theta(p, q)
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


@dataclass(frozen=True)
class MoserReport:
    """Outcome of the non-resonance gate |k1 w1 + k2 w2| > tol for
    0 < |k1| + |k2| <= 4."""

    min_combination: float
    worst_pair: tuple
    passed: bool


def moser_check(w: FrequencyPair, tol: float) -> MoserReport:
    """The pair of least |k1 w1 + k2 w2|; of equal values the first in
    MOSER_PAIRS, which is in lexicographic order, wins.  A pair and its
    negation give the same value, so only the first of the two is scanned."""
    w1, w2 = w.omega1, w.omega2
    value, pair = math.inf, None
    for k1, k2 in _MOSER_SCAN:
        combination = abs(k1 * w1 + k2 * w2)
        if combination < value:
            value, pair = combination, (k1, k2)
    return MoserReport(
        min_combination=value,
        worst_pair=pair,
        passed=value > tol,
    )
