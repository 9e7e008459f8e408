"""Truncated polynomial arithmetic in the shifted phase variables.

The four variables are (xi, eta, xidot, etadot): displacements and
velocities about the triangular point.  Total degree is capped; products
truncate, never extend.  The centerpiece is :func:`taylor_lagrangian`,
which expands the full Lagrangian about an equilibrium, exact to
truncation order with no finite differences: binomial series of the 1/r
powers and the complex-log series of the drag angle, added by one
straight-line kernel (:class:`l4norm.layout.KernelSource`) compiled once
per degree cap and drag on/off, in the order coefficient dicts would add
them.  The printed cubic is values in :data:`H3_GAP_NAMES` order, T5's on
:data:`T5_KEYS`, and :func:`compare_h3` reads the expansion's cubic off
it by key and slot: no program path slices a polynomial or builds one
other than the expansion.

A polynomial is a store (:mod:`l4norm.layout`): a list of real or complex
coefficients on a shared key layout of exponent 4-tuples.  It is built on
a layout and its values, as :func:`taylor_lagrangian` builds it; there is
no dict constructor.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .equilibria import OriginShift
from .errors import ContractError, ParameterError
from .layout import (KernelSource, Layout, Store, intern, plan, pruned, sliced,
                     sup_of_difference)
from .model import ModelParams, _lagrangian


def _velocity_degree(mono) -> int:
    return mono[2] + mono[3]


class TruncatedPoly(Store):
    """Multivariate polynomial in (xi, eta, xidot, etadot), degree-capped.

    `coeffs` is a fresh dict of the coefficients as monomial -> value, in
    stored order.  Values are immutable by convention: all operations
    return new instances, each built by `_new` on a layout of stored keys,
    which keeps the caller's class.  No key past the cap and no exact zero
    is stored: `_new` drops the zeros, products the pairs past the cap,
    truncation reuses stored keys, and the Taylor expansion cuts its
    planned keys to its cap.  The chain reads a polynomial through its
    layout: its energy and partials are substitution rows
    (:mod:`l4norm.normalform`).
    """

    __slots__ = ("cap",)

    def _new(self, layout: Layout, values: list, cap: int | None = None):
        return _polynomial(self.cap if cap is None else cap, layout, values, type(self))

    @property
    def coeffs(self) -> dict:
        return dict(zip(self.layout.keys, self.values))

    # -- product and structure ------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, TruncatedPoly):
            return self._new(self.layout, [c * other for c in self.values])
        cap = min(self.cap, other.cap)
        out = {}
        for m1, c1 in zip(self.layout.keys, self.values):
            for m2, c2 in zip(other.layout.keys, other.values):
                if sum(m1) + sum(m2) <= cap:
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2],
                         m1[3] + m2[3])
                    out[m] = out.get(m, 0.0) + c1 * c2
        return self._new(intern(tuple(out)), list(out.values()), cap)

    __rmul__ = __mul__

    def truncated(self, cap: int):
        if cap >= self.cap:
            return self
        return self._new(*sliced(self.layout, self.values, sum, 0, cap), cap)


def _polynomial(cap: int, layout: Layout, values: list,
                cls: type = TruncatedPoly) -> TruncatedPoly:
    """A polynomial of this cap on a layout of stored keys, zeros dropped."""
    out = object.__new__(cls)
    out.cap = cap
    out.layout, out.values = pruned(layout, values, 0.0)
    return out


# -- Taylor expansion ---------------------------------------------------


# The keys in (xi, eta) of the binomial argument t; the kinetic, Coriolis
# and centrifugal keys, which take the first slots; the drag's four levers.
_T_KEYS = ((1, 0), (0, 1), (2, 0), (0, 2))
_START_KEYS = ((0, 0, 2, 0), (0, 0, 0, 2), (1, 0, 0, 1), (0, 0, 0, 1),
               (0, 1, 1, 0), (0, 0, 1, 0), (2, 0, 0, 0), (1, 0, 0, 0),
               (0, 0, 0, 0), (0, 2, 0, 0), (0, 1, 0, 0))
# The start keys' values: kinetic 1/2 (xid^2 + etad^2), Coriolis n ((x + xi)
# etad - xid (b + eta)) and centrifugal 1/2 n^2 ((x + xi)^2 + (b + eta)^2),
# where x = a - mu is the pivot's rotating-frame abscissa.
_START_VALUES = ("0.5", "0.5", "n", "n * x", "-n", "-n * b", "half_n2",
                 "2.0 * half_n2 * x", "half_n2 * (x * x + b * b)", "half_n2",
                 "2.0 * half_n2 * b")
_LEVER_KEYS = ((1, 0, 1, 0), (0, 0, 1, 0), (0, 1, 0, 1), (0, 0, 0, 1))


def _taylor_plan(cap: int, drag: bool):
    """``(layout, power_plan, position, inverse, logs, levers)`` of
    :func:`taylor_lagrangian` at this cap, with or without drag: the size
    and top exponent of t^0, t^1, ... end to end and the rows ``(out,
    left, t entry)`` of t^2, t^3, ...; the rows ``(k, n, slot)`` adding
    power entry n times binomial coefficient k to the position slots, and
    with a size to the 1/r1^2 slots below the cap; per k the ``(slot,
    comb(k, j) / k)`` of j = 0..k; and ``(slot, lever, 1/r1^2 slot)``.
    Below cap 2 the layout holds start keys and t's keys past the cap,
    which the call cuts."""
    flat, products, first = [(0, (0, 0))] + [(1, key) for key in _T_KEYS], [], 1
    for k in range(2, cap + 1):
        index, end = {}, len(flat)
        for n in range(first, end):
            i, j = flat[n][1]
            for r, (e, f) in enumerate(_T_KEYS):
                if i + j + e + f <= cap:
                    out = index.setdefault((i + e, j + f), end + len(index))
                    products.append((out, n, r))
        flat += [(k, key) for key in index]
        first = end
    slots = {key: n for n, key in enumerate(_START_KEYS)}
    position = tuple((k, n, slots.setdefault(key + (0, 0), len(slots)))
                     for n, (k, key) in enumerate(flat))
    inverse = {}
    at_inverse = tuple((k, n, inverse.setdefault(key, len(inverse)))
                       for n, (k, key) in enumerate(flat) if drag and sum(key) < cap)
    logs = tuple(tuple((slots[(k - j, j, 0, 0)], math.comb(k, j) / k)
                       for j in range(k + 1)) for k in range(1, cap + 1))
    levers = tuple((slots.setdefault((i + e, j + f, k, m), len(slots)), n, s)
                   for n, (i, j, k, m) in enumerate(_LEVER_KEYS)
                   for (e, f), s in inverse.items() if i + j + e + f < cap)
    return (Layout(tuple(slots)), (len(flat), flat[-1][0], tuple(products)),
            position, (len(inverse), at_inverse), logs, levers)


def _add_radial_source(k: KernelSource, r: int, dx: str, power_plan, *terms):
    """Add to kernel `k` the powers of t and the binomial coefficients of
    scale * r^(2 alpha) = scale rho^(2 alpha) (1 + t)^alpha, with rho^2 =
    dx^2 + b^2 and t = (2 (dx xi + b eta) + xi^2 + eta^2) / rho^2, and to
    each ``(sums, rows, alpha, scale)`` the terms its rows add to the
    slots; `dx` names a variable and `scale` is source.  Each power is one
    sum of its row products from ``0.0``."""
    size, top, products = power_plan
    t = (f"tx{r}", f"ty{r}", f"inv{r}", f"inv{r}")
    k.lines += [f"rho{r} = {dx} * {dx} + b * b", f"inv{r} = 1.0 / rho{r}",
                f"tx{r} = 2.0 * {dx} * inv{r}", f"ty{r} = 2.0 * b * inv{r}"]
    power = ["", *t] + [f"p{r}_{n}" for n in range(5, size)]
    adds = {}
    for out, left, right in products:
        adds.setdefault(out, []).append(f" + {power[left]} * {t[right]}")
    k.lines += [f"{power[out]} = 0.0{''.join(row)}" for out, row in adds.items()]
    for term, (sums, rows, alpha, scale) in enumerate(terms):
        if not rows:
            continue
        c = [f"c{r}{term}_{j}" for j in range(top + 1)]
        k.lines.append(f"{c[0]} = {scale} * rho{r} ** {alpha!r}")
        k.lines += [f"{c[j + 1]} = {c[j]} * {(alpha - j) / (j + 1)!r}"
                    for j in range(top)]
        for j, n, slot in rows:
            # powers[0] is 1.0, and c * 1.0 is c
            sums[slot] += f" + {c[j]} * {power[n]}" if n else f" + {c[j]}"


def _taylor_kernel(cap: int, drag: bool):
    """``(layout, constant slot, kernel)`` of :func:`taylor_lagrangian` at
    this cap, with or without drag.  The kernel, ``taylor(a, b, n, mu, q1,
    A2, W1)``, runs the rows of `_taylor_plan` as straight-line code and
    returns the list of the coefficients in slot order: each slot is one
    sum, from its start value or ``0.0``, of the terms its rows add in
    their order, so every value is the one a loop along the rows gives."""
    layout, power_plan, position, (size, inverse), logs, levers = \
        _taylor_plan(cap, drag)
    sums = list(_START_VALUES) + ["0.0"] * (len(layout.keys) - len(_START_VALUES))
    at_inverse = ["0.0"] * size
    k = KernelSource()
    k.lines += ["x = a - mu", "half_n2 = 0.5 * n * n"]
    _add_radial_source(k, 1, "a", power_plan,
                       (sums, position, -0.5, "(1.0 - mu) * q1"),
                       (at_inverse, inverse, -1.0, "0.5 * W1"))
    k.lines.append("dx2 = a - 1.0")
    _add_radial_source(k, 2, "dx2", power_plan,
                       (sums, position, -0.5, "mu"),
                       (sums, position, -1.5, "0.5 * mu * A2"))
    constant = layout.index[(0, 0, 0, 0)]
    if drag:
        # -n W1 (atan2(b, a) + Im log(1 + z)), log(1 + z) = -sum (-z)^k / k
        # with z = w (xi + i eta), w = 1/(a + i b): wk = n W1 (-w)^k
        k.lines += ["mw = -(1.0 / complex(a, b))", "wk0 = n * W1"]
        sums[constant] += " - wk0 * atan2(b, a)"
        for j, rows in enumerate(logs, 1):
            k.lines.append(f"wk{j} = wk{j - 1} * mw")
            for i, (slot, c) in enumerate(rows):
                sums[slot] += f" + (wk{j} * {c!r} * 1j ** {i}).imag"
        # W1/2 ((a + xi) xid + (b + eta) etad) / r1^2; each term holds one
        # velocity, so its displacement degree stays below the cap
        k.lines += [f"i{m} = {s}" for m, s in enumerate(at_inverse)]
        for slot, lever, m in levers:
            sums[slot] += (f" + i{m}", f" + a * i{m}", f" + i{m}", f" + b * i{m}")[lever]
    return layout, constant, k.compile("a, b, n, mu, q1, A2, W1",
                                       [f"[{', '.join(sums)}]"], "taylor")


def taylor_lagrangian(p: ModelParams, shift: OriginShift, degree: int) -> TruncatedPoly:
    """Exact truncated Taylor expansion of the Lagrangian about the shift point.

    Five functions of position need a series, expanded as polynomials in
    (xi, eta): 1/r1, 1/r1^2, 1/r2 and 1/r2^3 (binomial series) and the drag
    angle, Im log(1 + z) with z = w (xi + i eta) and w = 1/(a + i b).  The
    kinetic, Coriolis, centrifugal and drag-radial factors are of degree
    <= 2 and add their coefficients in closed form.  All of it runs as one
    compiled kernel made once per degree and drag on/off.  Keys are stored
    in the order a composition of four-variable series stores them
    (`tests/oracles.py`), so the series built from the expansion keep theirs.

    Parameters
    ----------
    p : ModelParams
    shift : OriginShift
        Expansion pivot, a = x* + mu, b = y*.
    degree : int
        Total-degree cap: 2 for the linear stages, 3 from the second
        order on.
    """
    a, b = shift.a, shift.b
    if degree < 0:
        raise ParameterError("degree cap must be non-negative")
    # The constant term must reproduce the pointwise Lagrangian, whose radii
    # refuse a pivot on a primary (`CollisionError`) before the kernel runs;
    # a mismatch is an expansion bug, so it is asserted, not reported.
    l0 = _lagrangian(a - p.mu, b, 0.0, 0.0, p)

    layout, constant, kernel = plan(_taylor_kernel, degree, p.W1 != 0.0)
    (values,) = kernel(a, b, p.n, p.mu, p.q1, p.A2, p.W1)
    drift = abs(values[constant] - l0)
    if drift > 1e-9 * max(1.0, abs(l0)):
        raise ContractError(f"constant-term drift {drift:.3e} in Taylor expansion")
    return _polynomial(max(degree, 2), layout, values).truncated(degree)


class QuadraticCoefficients(namedtuple("QuadraticCoefficients", "E F G")):
    """E, F, G of the linearized dynamics, extracted so that
    xddot - 2n ydot + (2E - n^2) x + G y = 0 (and the mirrored equation)
    reproduces the degree-2 Euler-Lagrange equations."""

    __slots__ = ()


def extract_EFG(lagrangian: TruncatedPoly, p: ModelParams) -> QuadraticCoefficients:
    """Read (E, F, G) off the position-only quadratic terms of a polynomial."""
    if lagrangian.cap < 2:
        raise ContractError("extract_EFG expects a polynomial of cap 2 or more")
    n2 = p.n * p.n
    e = 0.5 * (n2 - 2.0 * lagrangian._value((2, 0, 0, 0)))
    f = 0.5 * (n2 - 2.0 * lagrangian._value((0, 2, 0, 0)))
    g = -lagrangian._value((1, 1, 0, 0))
    return QuadraticCoefficients(e, f, g)


# The velocity cubic's monomials, in the order of T5's values.
T5_KEYS = ((2, 0, 1, 0), (1, 1, 1, 0), (0, 2, 1, 0),
           (2, 0, 0, 1), (1, 1, 0, 1), (0, 2, 0, 1))
# The names of the printed cubic and of `compare_h3`'s gaps, in their order.
H3_GAP_NAMES = ("T1", "T2", "T3", "T4", "T5", "T5_print")


def t_coefficients_closed_form(p: ModelParams, shift: OriginShift,
                               branch: str = "L4") -> tuple:
    """The printed cubic in `H3_GAP_NAMES` order: T1..T4, the series on
    `branch` (`closedforms.printed`), then T5 and T5_print, each as its six
    values on `T5_KEYS`, assembled from the pivot (a, b).

    T5 is the velocity-dependent drag cubic
    W1/(2 rho^6) [ (a xd + b yd){3(a x + b y)^2 - (b x - a y)^2}
                   - 2 (x xd + y yd)(a x + b y) rho^2 ]
    with rho^2 = a^2 + b^2.  `T5_print` keeps the printed first brace term
    3(a x + b y) unsquared: with its velocity factor it is of degree 2, and
    a degree-3 reading keeps only the rest; `T5` squares it, the only
    reading that makes T5 a degree-3 form (erratum ``t5-linear-brace``).
    With u = a x + b y and w = b x - a y, each value is formed in the order
    a product of coefficient dicts in (x, y) adds it; each velocity factor
    attaches through its lever, a or b.  Without drag every value is zero.
    """
    from .closedforms import printed
    a, b = shift.a, shift.b
    rho2 = a * a + b * b
    factor = p.W1 / (2.0 * rho2**3)
    # w^2 and 3 u^2 at the keys (2, 0), (1, 1), (0, 2); the tail 2 u rho^2
    # (x xd + y yd) at u's two keys
    ww = (0.0 + b * b, 0.0 + b * -a + -a * b, 0.0 + -a * -a)
    square = (3.0 * (0.0 + a * a), 3.0 * (0.0 + a * b + b * a), 3.0 * (0.0 + b * b))
    tail_a, tail_b = 2.0 * a * rho2, 2.0 * b * rho2
    cubics = []
    for brace in (square, (0.0, 0.0, 0.0)):
        xx, xy, yy = (s - c for s, c in zip(brace, ww))
        cubics.append(tuple(v * factor for v in (
            xx * a - tail_a, xy * a - tail_b, yy * a,
            xx * b, xy * b - tail_a, yy * b - tail_b)))
    return (*printed(("T1", "T2", "T3", "T4"), p, branch=branch), *cubics)


def _degrees(mono) -> tuple:
    """A monomial's total and velocity degree."""
    return sum(mono), _velocity_degree(mono)


def compare_h3(lagrangian: TruncatedPoly, closed: tuple) -> tuple:
    """The printed cubic's gaps to the expansion's, in `H3_GAP_NAMES`
    order: T1..T4 against the position cubic's coefficients read by key,
    T5 and T5_print against the velocity cubic's slots by sup norm.
    `closed` is `t_coefficients_closed_form`'s tuple.

    Callers decide what counts as agreement (typically via a halving
    experiment).
    """
    if lagrangian.cap < 3:
        raise ContractError("compare_h3 expects a polynomial of cap 3 or more, "
                            f"not cap {lagrangian.cap}")
    value = lagrangian._value
    oracle = (6.0 * value((3, 0, 0, 0)), 2.0 * value((2, 1, 0, 0)),
              2.0 * value((1, 2, 0, 0)), 6.0 * value((0, 3, 0, 0)))
    velocity = sliced(lagrangian.layout, lagrangian.values, _degrees, (3, 1), (3, 3))
    layout = intern(T5_KEYS)
    return (*(abs(c - o) for c, o in zip(closed, oracle)),
            *(sup_of_difference(layout, [part for v in t5 for part in (v, 0.0)], velocity)
              for t5 in closed[4:]))
