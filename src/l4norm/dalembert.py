"""Graded trigonometric series in two angles with half-integer action powers.

A term is keyed by (j, m, p, q): action powers I1^(j/2) I2^(m/2) and the
harmonic cos/sin(p*phi1 + q*phi2).  Every stored term obeys the
double-summation constraints

* 0 <= p <= j with p = j (mod 2),
* -m <= q <= m with q = m (mod 2),

and keys are kept canonical (p > 0, or p = 0 and q >= 0) so equality is
plain coefficient-map equality.  The constructor checks the constraints
and canonicalises; no other operation needs to, because sums and termwise
maps reuse stored keys and a product of valid keys is valid (only its
difference harmonics need canonicalising).  Products take an optional
degree cap (j + m) and skip the pairs of terms that would exceed it.  No
stored coefficient is -0.0, and the sine of the (0, 0) harmonic is 0.0.

A product's key work (output keys, canonical signs, the cap test)
depends only on the keys of its factors, which repeat from one parameter
point to the next, so `_product_plan` does it once per (left keys, right
keys, cap) and `mul` only does arithmetic along the plan's rows.  The
rows keep the pair order of a plain double loop over the terms, so the
output is bit-identical to that loop's, key order included.

The differential operator is D = omega1 d/dphi1 - omega2 d/dphi2, under
which a harmonic (p, q) carries multiplier theta = p*omega1 - q*omega2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ContractError, CriticalTermError, ParameterError, SmallDivisorError

DIVISOR_FLOOR = 1e-8

CRITICAL_HARMONICS = ((1, 0), (0, 1))

# Product plans kept; one per (left layout, right layout, cap).  The chain
# and its audit make 8 in all, however many points they run.
PLAN_CACHE_SIZE = 256

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


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _product_plan(left: tuple, right: tuple, cap: int | None):
    """Index tables of the product of two key layouts.

    Returns ``(keys, rows, zero_slots)``.  `keys` are the output keys in
    the order a double loop over the pairs first meets them, each pair
    giving its sum harmonic and then its difference harmonic.  `rows` has
    one ``(i, k, sum slot, difference slot, sign)`` per pair within the
    cap, in that loop's order; `sign` is -1.0 where the difference
    harmonic is canonicalised by negation, so its sine flips.
    `zero_slots` are the slots of (0, 0) harmonics, whose sine is dropped.
    Keys of both layouts are canonical, so a sum harmonic is too.
    """
    slots, rows = {}, []
    for i, (j1, m1, p1, q1) in enumerate(left):
        for k, (j2, m2, p2, q2) in enumerate(right):
            j, m = j1 + j2, m1 + m2
            if cap is not None and j + m > cap:
                continue
            ks = slots.setdefault((j, m, p1 + p2, q1 + q2), len(slots))
            p, q, _, sign = _canonical(p1 - p2, q1 - q2, 0.0, 1.0)
            kd = slots.setdefault((j, m, p, q), len(slots))
            rows.append((i, k, ks, kd, sign))
    zero_slots = tuple(n for (_, _, p, q), n in slots.items() if p == q == 0)
    return tuple(slots), tuple(rows), zero_slots


class DAlembertSeries:
    """Immutable-by-convention trigonometric series; all operations return
    new instances.  `terms` maps (j, m, p, q) -> (cos_coeff, sin_coeff)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (j, m, p, q), (c, s) in terms.items():
                self._accumulate(j, m, p, q, c, s)
            for key in self.terms:
                _check_parity(*key)
            self._prune()

    def _accumulate(self, j, m, p, q, c, s):
        p, q, c, s = _canonical(p, q, c, s)
        if p == 0 and q == 0:
            s = 0.0  # sin(0) is identically zero; drop its coefficient
        key = (j, m, p, q)
        oc, os = self.terms.get(key, (0.0, 0.0))
        self.terms[key] = (oc + c, os + s)

    def _prune(self):
        self.terms = {k: v for k, v in self.terms.items() if v != (0.0, 0.0)}

    # -- constructors ---------------------------------------------------

    @classmethod
    def single(cls, j, m, p, q, c=0.0, s=0.0):
        return cls({(j, m, p, q): (c, s)})

    @classmethod
    def zero(cls):
        return cls()

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        out = DAlembertSeries()
        terms = out.terms = dict(self.terms)
        for key, (c, s) in other.terms.items():
            oc, os = terms.get(key, (0.0, 0.0))
            terms[key] = (oc + c, os + s)
        out._prune()
        return out

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor: float):
        return self._termwise(lambda p, q, c, s: (c * factor, s * factor))

    def _termwise(self, fn):
        """New series with each term's (c, s) replaced by fn(p, q, c, s).

        Keys are reused, so no parity check is needed.  Like
        `_accumulate`, `0.0 + x` stores -0.0 as 0.0 and the (0, 0) sine
        is dropped; zero terms are not stored.
        """
        out = DAlembertSeries()
        terms = out.terms
        for key, (c, s) in self.terms.items():
            p, q = key[2], key[3]
            c, s = fn(p, q, c, s)
            if p == 0 and q == 0:
                s = 0.0
            if c != 0.0 or s != 0.0:
                terms[key] = (0.0 + c, 0.0 + s)
        return out

    def mul(self, other, cap: int | None = None):
        """Product via cos/sin product-to-sum expansion; grades add.

        With a cap, pairs of terms whose degrees j + m sum past it are
        skipped, so the result is the full product restricted to degree
        <= cap without the work above it.
        """
        a, b = self.terms, other.terms
        keys, rows, zero_slots = _product_plan(tuple(a), tuple(b), cap)
        av, bv = tuple(a.values()), tuple(b.values())
        cos = [0.0] * len(keys)
        sin = [0.0] * len(keys)
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
        out = DAlembertSeries()
        out.terms = {key: (c, s) for key, c, s in zip(keys, cos, sin)
                     if c != 0.0 or s != 0.0}
        return out

    def __mul__(self, other):
        return self.mul(other)

    # -- queries ----------------------------------------------------------

    def degree_slice(self, degree: int):
        out = DAlembertSeries()
        out.terms = {k: v for k, v in self.terms.items() if k[0] + k[1] == degree}
        return out

    def grade(self, j: int, m: int):
        out = DAlembertSeries()
        out.terms = {k: v for k, v in self.terms.items() if (k[0], k[1]) == (j, m)}
        return out

    def max_abs(self) -> float:
        return max((max(abs(c), abs(s)) for (c, s) in self.terms.values()), default=0.0)

    def norm_of_difference(self, other) -> float:
        keys = set(self.terms) | set(other.terms)
        worst = 0.0
        for k in keys:
            c1, s1 = self.terms.get(k, (0.0, 0.0))
            c2, s2 = other.terms.get(k, (0.0, 0.0))
            worst = max(worst, abs(c1 - c2), abs(s1 - s2))
        return worst

    def chop(self, tol: float):
        """Drop coefficients below tol in magnitude (reporting aid)."""
        out = DAlembertSeries()
        out.terms = {
            k: (c if abs(c) > tol else 0.0, s if abs(s) > tol else 0.0)
            for k, (c, s) in self.terms.items()
        }
        out._prune()
        return out

    def __eq__(self, other):
        return isinstance(other, DAlembertSeries) and self.terms == other.terms

    def __repr__(self):
        return f"DAlembertSeries(terms={len(self.terms)})"

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


def apply_D(series: DAlembertSeries, w: FrequencyPair) -> DAlembertSeries:
    """D[c cos + s sin] = -c theta sin + s theta cos, theta = p w1 - q w2."""
    return apply_poly_in_D(series, w, c1=1.0)


def apply_poly_in_D(series: DAlembertSeries, w: FrequencyPair,
                    c0: float = 0.0, c1: float = 0.0, c2: float = 0.0):
    """Apply the operator c2 D^2 + c1 D + c0 harmonic by harmonic."""
    def term(p, q, c, s):
        theta = w.theta(p, q)
        diag = c0 - c2 * theta * theta
        return diag * c + c1 * theta * s, diag * s - c1 * theta * c

    return series._termwise(term)


def small_divisor(p: int, q: int, w: FrequencyPair) -> float:
    """[w1^2 - (p w1 - q w2)^2] [w2^2 - (p w1 - q w2)^2]."""
    theta = w.theta(p, q)
    return (w.omega1**2 - theta * theta) * (w.omega2**2 - theta * theta)


def invert_delta(series: DAlembertSeries, w: FrequencyPair,
                 floor: float = DIVISOR_FLOOR) -> DAlembertSeries:
    """Solve (D^2 + w1^2)(D^2 + w2^2) X = series harmonic by harmonic.

    Critical harmonics (1,0) and (0,1) have vanishing divisor and raise;
    divisors below the floor raise SmallDivisorError rather than silently
    amplifying noise.
    """
    def term(p, q, c, s):
        if (p, q) in CRITICAL_HARMONICS:
            raise CriticalTermError((p, q), max(abs(c), abs(s)))
        delta = small_divisor(p, q, w)
        if abs(delta) < floor:
            raise SmallDivisorError(f"Delta_({p},{q})", delta)
        return c / delta, s / delta

    return series._termwise(term)


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
