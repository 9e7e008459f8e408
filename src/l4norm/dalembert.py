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
the pairs of terms that would exceed it.  No stored coefficient is -0.0,
and the sine of the (0, 0) harmonic is 0.0.

A series is a list of (cos, sin) pairs on a shared key layout, and every
operation runs on plans made once per layout (:mod:`l4norm.layout`).

The differential operator is D = omega1 d/dphi1 - omega2 d/dphi2, under
which a harmonic (p, q) carries multiplier theta = p*omega1 - q*omega2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError, CriticalTermError, ParameterError, SmallDivisorError
from .layout import Layout, View, intern, plan, pruned, sliced, sum_plan

DIVISOR_FLOOR = 1e-8

CRITICAL_HARMONICS = ((1, 0), (0, 1))

# Every (k1, k2) with 0 < |k1| + |k2| <= 4, in the order the non-resonance
# gate scans them.
MOSER_PAIRS = tuple((k1, k2) for k1 in range(-4, 5) for k2 in range(-4, 5)
                    if 0 < abs(k1) + abs(k2) <= 4)


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


def _canonical(p: int, q: int, c, s):
    if p < 0 or (p == 0 and q < 0):
        return -p, -q, c, -s
    return p, q, c, s


def _check_parity(j: int, m: int, p: int, q: int):
    if j < 0 or m < 0:
        raise ContractError(f"negative action powers in key {(j, m, p, q)}")
    if not (0 <= p <= j and (p - j) % 2 == 0):
        raise ContractError(f"harmonic p={p} violates parity for j={j}")
    if not (-m <= q <= m and (q - m) % 2 == 0):
        raise ContractError(f"harmonic q={q} violates parity for m={m}")


def _product_plan(left: Layout, right: Layout, cap: int | None):
    """Index tables of the product of two key layouts.

    Returns ``(layout, rows, zero_slots)``.  The layout holds the output
    keys in the order a double loop over the pairs first meets them, each
    pair giving its sum harmonic and then its difference harmonic.  `rows`
    has one ``(i, k, sum slot, difference slot, sign)`` per pair within
    the cap, in that loop's order; `sign` is -1.0 where the difference
    harmonic is canonicalised by negation, so its sine flips.
    `zero_slots` are the slots of (0, 0) harmonics, whose sine is dropped.
    Keys of both layouts are canonical, so a sum harmonic is too.
    """
    slots, rows = {}, []
    for i, (j1, m1, p1, q1) in enumerate(left.keys):
        for k, (j2, m2, p2, q2) in enumerate(right.keys):
            j, m = j1 + j2, m1 + m2
            if cap is not None and j + m > cap:
                continue
            ks = slots.setdefault((j, m, p1 + p2, q1 + q2), len(slots))
            p, q, _, sign = _canonical(p1 - p2, q1 - q2, 0.0, 1.0)
            kd = slots.setdefault((j, m, p, q), len(slots))
            rows.append((i, k, ks, kd, sign))
    zero_slots = tuple(n for (_, _, p, q), n in slots.items() if p == q == 0)
    return intern(tuple(slots)), tuple(rows), zero_slots


def _degree(key) -> int:
    return key[0] + key[1]


def _grade(key) -> tuple:
    return key[:2]


class DAlembertSeries:
    """Immutable-by-convention trigonometric series; all operations return
    new instances.  `terms` views the terms as (j, m, p, q) ->
    (cos_coeff, sin_coeff), in stored order."""

    __slots__ = ("layout", "values")

    def __init__(self, terms=None):
        acc = {}
        if terms:
            for (j, m, p, q), (c, s) in terms.items():
                p, q, c, s = _canonical(p, q, c, s)
                if p == 0 and q == 0:
                    s = 0.0  # sin(0) is identically zero; drop its coefficient
                oc, os = acc.get((j, m, p, q), (0.0, 0.0))
                acc[j, m, p, q] = (oc + c, os + s)
            for key in acc:
                _check_parity(*key)
        self.layout, self.values = pruned(intern(tuple(acc)),
                                          list(acc.values()), (0.0, 0.0))

    @property
    def terms(self) -> View:
        return View(self.layout, self.values)

    # -- constructors ---------------------------------------------------

    @classmethod
    def single(cls, j, m, p, q, c=0.0, s=0.0):
        return cls({(j, m, p, q): (c, s)})

    @classmethod
    def zero(cls):
        return cls()

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        layout, shared, new = plan(sum_plan, self.layout, other.layout)
        values = self.values.copy()
        right = other.values
        for n, k in shared:
            c1, s1 = values[n]
            c2, s2 = right[k]
            values[n] = (c1 + c2, s1 + s2)
        # no stored value is -0.0, so 0.0 + x would change none of these
        values += [right[k] for k in new]
        return _series(layout, values)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor: float):
        return _series(self.layout, [
            (0.0 + c * factor, 0.0 + s * factor if p or q else 0.0)
            for (_, _, p, q), (c, s) in zip(self.layout.keys, self.values)])

    def mul(self, other, cap: int | None = None):
        """Product via cos/sin product-to-sum expansion; grades add.

        With a cap, pairs of terms whose degrees j + m sum past it are
        skipped, so the result is the full product restricted to degree
        <= cap without the work above it.
        """
        layout, rows, zero_slots = plan(_product_plan, self.layout,
                                        other.layout, cap)
        av, bv = self.values, other.values
        cos = [0.0] * len(layout.keys)
        sin = [0.0] * len(layout.keys)
        for i, k, ks, kd, sign in rows:
            c1, s1 = av[i]
            c2, s2 = bv[k]
            cc, ss, cs, sc = c1 * c2, s1 * s2, c1 * s2, s1 * c2
            cos[ks] += 0.5 * (cc - ss)
            sin[ks] += 0.5 * (cs + sc)
            cos[kd] += 0.5 * (cc + ss)
            sin[kd] += sign * (0.5 * (sc - cs))
        for slot in zero_slots:
            sin[slot] = 0.0  # sin(0) is identically zero
        return _series(layout, list(zip(cos, sin)))

    def __mul__(self, other):
        return self.mul(other)

    # -- queries ----------------------------------------------------------

    def degree_slice(self, degree: int):
        return _series(*sliced(self.layout, self.values, _degree, degree, degree))

    def grade(self, j: int, m: int):
        return _series(*sliced(self.layout, self.values, _grade, (j, m), (j, m)))

    def coefficient(self, key) -> tuple:
        """(cos, sin) of a canonical key, (0.0, 0.0) where none is stored."""
        n = self.layout.index.get(key)
        return (0.0, 0.0) if n is None else self.values[n]

    def max_abs(self) -> float:
        return max((max(abs(c), abs(s)) for (c, s) in self.values), default=0.0)

    def norm_of_difference(self, other) -> float:
        worst = 0.0
        for k in set(self.layout.keys) | set(other.layout.keys):
            c1, s1 = self.coefficient(k)
            c2, s2 = other.coefficient(k)
            worst = max(worst, abs(c1 - c2), abs(s1 - s2))
        return worst

    def chop(self, tol: float):
        """Drop coefficients below tol in magnitude (reporting aid)."""
        return _series(self.layout, [
            (c if abs(c) > tol else 0.0, s if abs(s) > tol else 0.0)
            for c, s in self.values])

    def __repr__(self):
        return f"DAlembertSeries(terms={len(self.values)})"

    def pretty(self) -> str:
        """Deterministic listing: sorted by (degree, j, p, q), 17 digits."""
        lines = []
        for key in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[2], k[3])):
            j, m, p, q = key
            c, s = self.terms[key]
            lines.append(
                f"I1^{j}/2 I2^{m}/2 ({p},{q}) cos {c:.17g} sin {s:.17g}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _series(layout: Layout, values: list) -> DAlembertSeries:
    """A series on a layout built from stored keys, so valid and canonical
    unchecked; exact-zero terms are dropped."""
    out = DAlembertSeries.__new__(DAlembertSeries)
    out.layout, out.values = pruned(layout, values, (0.0, 0.0))
    return out


def apply_D(series: DAlembertSeries, w: FrequencyPair) -> DAlembertSeries:
    """D[c cos + s sin] = -c theta sin + s theta cos, theta = p w1 - q w2."""
    return apply_poly_in_D(series, w, c1=1.0)


def apply_poly_in_D(series: DAlembertSeries, w: FrequencyPair,
                    c0: float = 0.0, c1: float = 0.0, c2: float = 0.0):
    """Apply the operator c2 D^2 + c1 D + c0 harmonic by harmonic."""
    w1, w2 = w.omega1, w.omega2
    values = []
    for (_, _, p, q), (c, s) in zip(series.layout.keys, series.values):
        theta = p * w1 - q * w2
        diag = c0 - c2 * theta * theta
        values.append((0.0 + (diag * c + c1 * theta * s),
                       0.0 + (diag * s - c1 * theta * c) if p or q else 0.0))
    return _series(series.layout, values)


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
    for (_, _, p, q), (c, s) in zip(series.layout.keys, series.values):
        if (p, q) in CRITICAL_HARMONICS:
            raise CriticalTermError((p, q), max(abs(c), abs(s)))
        delta = small_divisor(p, q, w)
        if abs(delta) < floor:
            raise SmallDivisorError(f"Delta_({p},{q})", delta)
        values.append((0.0 + c / delta, 0.0 + s / delta if p or q else 0.0))
    return _series(series.layout, values)


@dataclass(frozen=True)
class MoserReport:
    """Outcome of the non-resonance gate |k1 w1 + k2 w2| > tol for
    0 < |k1| + |k2| <= 4."""

    min_combination: float
    worst_pair: tuple
    tol: float
    passed: bool


def moser_check(w: FrequencyPair, tol: float) -> MoserReport:
    value, pair = min((abs(k1 * w.omega1 + k2 * w.omega2), (k1, k2))
                      for k1, k2 in MOSER_PAIRS)
    return MoserReport(
        min_combination=value,
        worst_pair=pair,
        tol=tol,
        passed=value > tol,
    )
