"""Truncated polynomial arithmetic in the shifted phase variables.

The four variables are (xi, eta, xidot, etadot): displacements and
velocities about the triangular point.  Total degree is capped; products
truncate, never extend.  The centerpiece is :func:`taylor_lagrangian`,
which expands the full Lagrangian about an equilibrium, exact to
truncation order with no finite differences: binomial series of the 1/r
powers and the complex-log series of the drag angle, added by one
straight-line kernel (:class:`l4norm.layout.KernelSource`) compiled once
per degree cap and drag on/off, in the order coefficient dicts would add
them.  The printed cubic and the chain's are name -> value dicts, which
:func:`compare_h3` pairs.

A polynomial is a store (:mod:`l4norm.layout`): a list of real or complex
coefficients on a shared key layout of exponent 4-tuples, whose sum,
slices and sup norms are those of the d'Alembert series.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .equilibria import OriginShift
from .errors import ContractError, ParameterError
from .layout import KernelSource, Layout, Store, intern, plan, pruned, sliced
from .model import ModelParams, _lagrangian

NVARS = 4


def _velocity_degree(mono) -> int:
    return mono[2] + mono[3]


class TruncatedPoly(Store):
    """Multivariate polynomial in (xi, eta, xidot, etadot), degree-capped.

    `coeffs` is a fresh dict of the coefficients as monomial -> value, in
    stored order.  Values are immutable by convention: all operations
    return new instances.  The constructor checks every key and drops the
    keys past the cap, products included; no other operation needs to,
    because sums (of equal caps) and slices reuse stored keys and the
    Taylor expansion's keys are planned.  No exact zero is stored.  The
    chain reads a polynomial through its layout: its energy and partials
    are substitution rows (:mod:`l4norm.normalform`).
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int, coeffs=None):
        if cap < 0:
            raise ParameterError("degree cap must be non-negative")
        self.cap = cap
        kept = {}
        if coeffs:
            for mono, c in coeffs.items():
                if len(mono) != NVARS or min(mono) < 0:
                    raise ContractError(f"bad exponent tuple {mono}")
                # exact-zero pruning only; no silent coefficient chopping
                if sum(mono) <= cap and c != 0.0:
                    kept[mono] = c
        self.layout = intern(tuple(kept))
        self.values = list(kept.values())

    def _new(self, layout: Layout, values: list, cap: int | None = None):
        return _polynomial(self.cap if cap is None else cap, layout, values)

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
        return TruncatedPoly(cap, out)

    __rmul__ = __mul__

    def truncated(self, cap: int):
        if cap >= self.cap:
            return self
        return self._new(*sliced(self.layout, self.values, sum, 0, cap), cap)

    def grade(self, degree: int):
        """Homogeneous slice of the given total degree (cap preserved)."""
        return self._slice(sum, degree, degree)

    def coefficient(self, mono) -> float:
        return self._value(tuple(mono))

    def velocity_part(self):
        """Terms with at least one velocity factor."""
        return self._slice(_velocity_degree, 1, self.cap)


def _polynomial(cap: int, layout: Layout, values: list) -> TruncatedPoly:
    """A polynomial of this cap on a layout of stored keys, zeros dropped."""
    out = object.__new__(TruncatedPoly)
    out.cap = cap
    out.layout, out.values = pruned(layout, values, 0.0)
    return out


# -- Taylor expansion ---------------------------------------------------


def _mul2(f: dict, g: dict, cap: int) -> dict:
    """Product of two polynomials in (xi, eta), ``{(i, j): c}`` dicts,
    without the terms past total degree `cap`."""
    out = {}
    for (i, j), c in f.items():
        for (k, m), d in g.items():
            if i + j + k + m <= cap:
                key = (i + k, j + m)
                out[key] = out.get(key, 0.0) + c * d
    return out


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


def _homogeneous(layout: Layout, degree: int) -> bool:
    """Whether every key of `layout` is of total degree `degree`."""
    return all(sum(m) == degree for m in layout.keys)


def t_coefficients_closed_form(p: ModelParams, shift: OriginShift,
                               branch: str = "L4") -> dict:
    """The printed cubic as name -> value: the T1..T4 series on `branch`
    (`closedforms.printed`) and both readings of the drag cubic T5
    assembled from the pivot (a, b), as polynomials.

    `T5_print` keeps the inhomogeneous first brace term of the printed T5
    (degree 2, which truncation then discards); `T5` squares it, the only
    reading that makes T5 a degree-3 form (erratum ``t5-linear-brace``).
    """
    from .closedforms import printed
    cubic = printed(("T1", "T2", "T3", "T4"), p, branch=branch)
    cubic["T5"], cubic["T5_print"] = _t5_polys(p, shift)
    return cubic


def _t5_polys(p: ModelParams, shift: OriginShift):
    """Velocity-dependent drag cubic
    W1/(2 rho^6) [ (a xd + b yd){3(a x + b y)^2 - (b x - a y)^2}
                   - 2 (x xd + y yd)(a x + b y) rho^2 ]
    with rho^2 = a^2 + b^2, and its printed reading with 3(a x + b y)
    unsquared, as the pair (T5, T5_print).  The bracket is formed on dicts
    in (x, y) with u = a x + b y and w = b x - a y; both velocity factors
    are linear, so each attaches through its two levers."""
    cap = 3
    if p.W1 == 0.0:
        return TruncatedPoly(cap), TruncatedPoly(cap)
    a, b = shift.a, shift.b
    rho2 = a * a + b * b
    u = {(1, 0): a, (0, 1): b}
    w = {(1, 0): b, (0, 1): -a}
    ww = _mul2(w, w, 2)
    square = {key: 3.0 * c for key, c in _mul2(u, u, 2).items()}
    factor = p.W1 / (2.0 * rho2**3)
    out = []
    # The printed brace 3u is linear, so with its velocity factor it is of
    # degree 2 and only the square's cubic survives a degree-3 slice.
    for brace in (square, {}):
        cubic = {}
        for v, lever in enumerate((a, b)):
            velocity = (1 - v, v)
            for (i, j), c in ww.items():
                cubic[(i, j) + velocity] = (brace.get((i, j), 0.0) - c) * lever
            for (i, j), c in u.items():  # the tail's 2 u rho^2 (x xd + y yd)
                cubic[(i + 1 - v, j + v) + velocity] -= 2.0 * c * rho2
        out.append(TruncatedPoly(cap, {k: c * factor for k, c in cubic.items()}))
    return tuple(out)


def oracle_t_coefficients(l3: TruncatedPoly) -> dict:
    """The cubic read off a cubic Lagrangian slice under the printed names:
    T1..T4, and T5 as its velocity part."""
    if not plan(_homogeneous, l3.layout, 3):
        raise ContractError("oracle cubic slice expected (homogeneous degree 3)")
    return {"T1": 6.0 * l3.coefficient((3, 0, 0, 0)),
            "T2": 2.0 * l3.coefficient((2, 1, 0, 0)),
            "T3": 2.0 * l3.coefficient((1, 2, 0, 0)),
            "T4": 6.0 * l3.coefficient((0, 3, 0, 0)),
            "T5": l3.velocity_part()}


# The names of `compare_h3`'s gaps, in the order it returns them.
H3_GAP_NAMES = ("T1", "T2", "T3", "T4", "T5", "T5_print")


def compare_h3(oracle_l3: TruncatedPoly, closed: dict) -> dict:
    """The printed cubic's gaps to the oracle's, name -> gap, keyed by
    `H3_GAP_NAMES`: T1..T4 as scalars, T5 and T5_print against the velocity
    cubic by sup norm.

    Callers decide what counts as agreement (typically via a halving
    experiment).
    """
    oracle = oracle_t_coefficients(oracle_l3)
    oracle["T5_print"] = oracle["T5"]
    return {name: (closed[name].norm_of_difference(oracle[name])
                   if isinstance(oracle[name], TruncatedPoly)
                   else abs(closed[name] - oracle[name]))
            for name in H3_GAP_NAMES}
