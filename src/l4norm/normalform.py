"""Linear normal modes, first/second-order series components, and the
cubic normal-form coefficients.

The oracle chain this module serves:

1. frequencies + symplectic normal-mode matrix J from the expansion's
   quadratic terms, read by key, both in closed form (the roots of a
   biquadratic, and per mode the null vector of a 2x2 matrix, on the
   scalar entries of K and C);
2. B1's four harmonic values from the (x, y) rows of J, and the B1 gate on them;
3. cubic forcing X2, Y2 and the energy's cubic at B1: D B1, the cubic's
   four partials and its energy at (B1, B1, D B1, D B1), and X2 = dL3/dx
   - D(dL3/dxdot), Y2 likewise;
4. second-order components B2 by harmonic division, with the critical
   and small-divisor guards, and the scale, the sup norm of X2, Y2 and
   B2;
5. degree-3 energy coefficients after substituting x = B1 + B2, whose
   vanishing is the headline verification target: the quadratic energy
   at B1 + B2 plus the cubic of step 3 (under the degree-3 cap the cubic
   sees only B1), and the degree-2 residual against w1 I1 - w2 I2; with
   them, the sup norm of each degree-3 action grade (A30..A03) and of the
   cubic itself (the ablation, H3 with B2 = 0).

Each of steps 3-5 is one compiled kernel, planned once per tuple of its
input layouts and written by :class:`l4norm.layout.KernelSource`, and one
call per point on ``(layout, values)`` pairs, zeros dropped as a series
drops them; no series, slice or product term past the degree-3 cap is formed.
`poly_at_series` substitutes a polynomial on its own, through
:func:`l4norm.dalembert.substitute`.

:data:`J_ENTRIES` names the entries of J that B1 reads, and
:data:`RS_NAMES` the twenty terms of B2 at :data:`RS_SLOTS`; the printed
tables (:mod:`l4norm.closedforms`) and their audit (:mod:`l4norm.verify`)
read these names from here.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections import namedtuple

from .dalembert import (
    CRITICAL_HARMONICS,
    DIVISOR_FLOOR,
    DAlembertSeries,
    FrequencyPair,
    _degree,
    _grade,
    apply_D,  # noqa: F401 -- perfbench/spans.py wraps it here
    apply_poly_in_D,  # noqa: F401 -- as apply_D
    invert_delta,  # noqa: F401 -- as apply_D
    substitute,
    substitution_rows,
)
from .errors import ContractError, ParameterError, StabilityDomainError
from .layout import KernelSource, Layout, intern, kept, plan, pruned, sliced, sum_plan
from .model import ModelParams
from .polyalg import QuadraticCoefficients, TruncatedPoly, _velocity_degree


SIGMA = ((0.0, 0.0, 1.0, 0.0),
         (0.0, 0.0, 0.0, 1.0),
         (-1.0, 0.0, 0.0, 0.0),
         (0.0, -1.0, 0.0, 0.0))


def stiffness_matrix(efg: QuadraticCoefficients, n: float) -> tuple:
    """Position block K of the quadratic Lagrangian, L2 = |v|^2/2 + v.C q + q.K q/2."""
    return ((n * n - 2.0 * efg.E, -efg.G),
            (-efg.G, n * n - 2.0 * efg.F))


def velocity_coupling(lagrangian: TruncatedPoly) -> tuple:
    """Bilinear block C with C[i][j] = coefficient of v_i q_j in the
    Lagrangian (gyroscopic plus drag gauge terms)."""
    return ((lagrangian._value((1, 0, 1, 0)), lagrangian._value((0, 1, 1, 0))),
            (lagrangian._value((1, 0, 0, 1)), lagrangian._value((0, 1, 0, 1))))


def frequencies(p: ModelParams, efg: QuadraticCoefficients) -> FrequencyPair:
    """Basic frequencies: the roots of w^4 - b w^2 + det K = 0.

    Only the antisymmetric part of the velocity coupling enters the
    equations of motion, and for this model that part is exactly the
    gyroscopic 2n block, so the characteristic polynomial of the linear
    flow is this biquadratic in w with b = 4 n^2 - tr K.  Both roots in
    w^2 are positive and distinct exactly when Delta = b^2 - 4 det K,
    det K and b are all positive; then w1^2 = (b + sqrt Delta)/2 and
    w2^2 = 2 det K/(b + sqrt Delta) (no cancellation), so w1 > w2 by
    construction.  Otherwise the error carries the four roots i w of the
    characteristic polynomial.
    """
    n = p.n
    (k00, k01), (k10, k11) = stiffness_matrix(efg, n)
    b = 4.0 * n * n - (k00 + k11)
    det = k00 * k11 - k01 * k10
    disc = b * b - 4.0 * det
    if not (disc > 0.0 and det > 0.0 and b > 0.0):
        roots = ((b + cmath.sqrt(disc)) / 2.0, (b - cmath.sqrt(disc)) / 2.0)
        raise StabilityDomainError(
            "linearized system is not center x center (b = 4n^2 - tr K = "
            f"{b:.6e}, det K = {det:.6e}, Delta = b^2 - 4 det K = {disc:.6e})",
            eigenvalues=tuple(sign * cmath.sqrt(-w2) for w2 in roots
                              for sign in (1.0, -1.0)))
    top = b + math.sqrt(disc)
    w1, w2 = math.sqrt(0.5 * top), math.sqrt(2.0 * det / top)
    if w1 - w2 < 1e-6 * w1:
        warnings.warn(
            f"near-equal frequencies ({w1:.8f}, {w2:.8f}); labeling is fragile",
            stacklevel=2)
    return FrequencyPair(w1, w2)


def classical_frequencies(mu: float) -> FrequencyPair:
    """Drag-free frequencies from w^4 - w^2 + 27 mu (1-mu)/4 = 0; mu must
    lie in (0, 1), where mu (1 - mu) > 0."""
    if not 0.0 < mu < 1.0:
        raise ParameterError(f"mu must lie in (0, 1), got {mu}")
    disc = 1.0 - 27.0 * mu * (1.0 - mu)
    if disc < 0.0:
        raise StabilityDomainError(
            f"mu = {mu} beyond the critical mass ratio (discriminant {disc:.3e})")
    w1sq = 0.5 * (1.0 + math.sqrt(disc))
    return FrequencyPair(math.sqrt(w1sq), math.sqrt(1.0 - w1sq))


# The entries of J that B1 reads (`b1_values`), attributes of
# NormalModeData; the printed tables print them by these names.
J_ENTRIES = ("J13", "J14", "J21", "J22", "J23", "J24")


class NormalModeData(namedtuple("NormalModeData", "freq J K C")):
    """Exact symplectic normal-mode transformation of the quadratic part.

    X = J T maps (Q1, Q2, P1, P2) to (x, y, px, py); the transformed
    quadratic Hamiltonian is (P1^2 + w1^2 Q1^2)/2 - (P2^2 + w2^2 Q2^2)/2,
    i.e. w1 I1 - w2 I2 in action-angle form.  `J` is a tuple of its four
    rows, and `K` and `C` are the blocks of that Hamiltonian before the
    transformation (:func:`hamiltonian_matrix`).  The two residuals are
    formed on first read and kept, in the instance dict.
    """

    J13 = property(lambda self: self.J[0][2])
    J14 = property(lambda self: self.J[0][3])
    J21 = property(lambda self: self.J[1][0])
    J22 = property(lambda self: self.J[1][1])
    J23 = property(lambda self: self.J[1][2])
    J24 = property(lambda self: self.J[1][3])

    @kept
    def symplectic_defect(self) -> float:
        """Largest entry of |J^T Sigma J - Sigma|."""
        return congruence_gap(self.J, SIGMA, SIGMA)

    @kept
    def h2_residual(self) -> float:
        """Largest entry of |J^T S J - diag(w1^2, -w2^2, 1, -1)|, S the
        Hessian, formed here: no other chain value reads it."""
        w = self.freq
        target = ((w.omega1**2, 0.0, 0.0, 0.0), (0.0, -w.omega2**2, 0.0, 0.0),
                  (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, -1.0))
        return congruence_gap(self.J, hamiltonian_matrix(self.K, self.C), target)


def hamiltonian_matrix(K: tuple, C: tuple) -> tuple:
    """Hessian S of H2(q, p) = |p - C q|^2 / 2 - q.K q / 2, as four rows."""
    (k00, k01), (k10, k11) = K
    (c00, c01), (c10, c11) = C
    return ((c00 * c00 + c10 * c10 - k00, c00 * c01 + c10 * c11 - k01, -c00, -c10),
            (c01 * c00 + c11 * c10 - k10, c01 * c01 + c11 * c11 - k11, -c01, -c11),
            (-c00, -c01, 1.0, 0.0),
            (-c10, -c11, 0.0, 1.0))


def congruence_gap(J: tuple, M: tuple, target: tuple) -> float:
    """Largest entry of |J^T M J - target|, all three 4x4 row tuples."""
    return _CONGRUENCE_GAP(J, M, target)[0]


def _congruence_kernel():
    """`congruence_gap` in straight lines: M J column by column, then J^T
    (M J) less the target row by row, each sum left to right as the
    row-by-column loop adds it."""
    k, r4 = KernelSource(), range(4)
    k.lines += [", ".join(f"({', '.join(f'{a}{i}{j}' for j in r4)})" for i in r4)
                + f" = {matrix}" for a, matrix in (("j", "J"), ("m", "M"), ("e", "target"))]
    mj = [[k.let(" + ".join(f"m{i}{n} * j{n}{j}" for n in r4)) for i in r4] for j in r4]
    gaps = ", ".join(f"abs({' + '.join(f'j{n}{i} * {mj[j][n]}' for n in r4)} - e{i}{j})"
                     for i in r4 for j in r4)
    return k.compile("J, M, target", [f"max({gaps})"], "congruence_gap")


_CONGRUENCE_GAP = _congruence_kernel()


def _mode_columns(mode: int, omega: float, sign: float, K: tuple, C: tuple):
    """J's Q and P columns of one mode, ``(q0, q1, q2, q3, p0, p1, p2, p3)``:
    the unit eigenvector (q, p) of the linear canonical flow at i*omega,
    q in the kernel of N = -omega^2 I - K + i omega (C - C^T) read off its
    row of larger norm and p = (i omega I + C) q, turned so q0 is real and
    scaled to a symplectic pair whose invariant has the mode's `sign`.  A
    Newton step on det N beyond 1e-6 (1 + omega) rejects omega."""
    (k00, k01), (k10, k11) = K
    (c00, c01), (c10, c11) = C
    g = 1j * omega * (c01 - c10)
    n00, n01, n10, n11 = -omega * omega - k00, g - k01, -g - k10, -omega * omega - k11
    det = n00 * n11 - n01 * n10
    slope = 2.0 * omega * (2.0 * omega * omega + k00 + k11 - (c01 - c10)**2)
    if not abs(det) <= 1e-6 * (1.0 + omega) * abs(slope):
        raise StabilityDomainError(f"no eigenvalue near i*{omega:.8f}")
    if abs(n10)**2 + abs(n11)**2 > abs(n00)**2 + abs(n01)**2:
        v0, v1 = n11, -n10
    else:
        v0, v1 = n01, -n00
    v2 = (1j * omega + c00) * v0 + c01 * v1
    v3 = c10 * v0 + (1j * omega + c11) * v1
    # plain left-to-right additions: the builtin `sum` of Python 3.12 and
    # later compensates its rounding, that of 3.11 does not
    norm = math.sqrt(abs(v0)**2 + abs(v1)**2 + abs(v2)**2 + abs(v3)**2)
    v0, v1, v2, v3 = v0 / norm, v1 / norm, v2 / norm, v3 / norm
    pivot = v0 if abs(v0) > 1e-12 else v1
    turn = pivot.conjugate() / abs(pivot)  # x component real
    v0, v1, v2, v3 = v0 * turn, v1 * turn, v2 * turn, v3 * turn
    sigma = (v0.real * v2.imag + v1.real * v3.imag - v2.real * v0.imag
             - v3.real * v1.imag)
    if sigma * sign <= 0.0:
        raise StabilityDomainError(
            f"mode {mode} has symplectic invariant {sigma:.3e}; "
            "quadratic part is not of the expected signature")
    c = 1.0 / math.sqrt(omega * abs(sigma))
    d = -sign * c * omega
    if c * v0.real < 0.0:  # (-c) x is -(c x), bit for bit
        c, d = -c, -d
    return (d * v0.imag, d * v1.imag, d * v2.imag, d * v3.imag,
            c * v0.real, c * v1.real, c * v2.real, c * v3.real)


def j_numeric(p: ModelParams, efg: QuadraticCoefficients, w: FrequencyPair,
              lagrangian: TruncatedPoly) -> NormalModeData:
    """Symplectic normalization of the quadratic Hamiltonian.

    Per mode (:func:`_mode_columns`, on the entries of K and C), the
    eigenvector of the linear canonical flow is phase-rotated so the x row
    couples only to the P (cosine) variables, scaled so the transformation
    is symplectic, and signed so J13, J14 > 0.  The mode signs (+, -) are
    dictated by the symplectic invariants; a sign flip would mean the
    quadratic part is not of the expected type.
    """
    K, C = stiffness_matrix(efg, p.n), velocity_coupling(lagrangian)
    a0, a1, a2, a3, a4, a5, a6, a7 = _mode_columns(1, w.omega1, +1.0, K, C)
    b0, b1, b2, b3, b4, b5, b6, b7 = _mode_columns(2, w.omega2, -1.0, K, C)
    J = ((a0, b0, a4, b4), (a1, b1, a5, b5), (a2, b2, a6, b6), (a3, b3, a7, b7))
    return NormalModeData(w, J, K, C)


# -- first-order components ---------------------------------------------

# The layouts of B1, the (1, 0) harmonic at I1^(1/2) and the (0, 1) at
# I2^(1/2), and of the quadratic form w1 I1 - w2 I2.
_B1 = intern(((1, 0, 1, 0), (0, 1, 0, 1)))
_H2 = intern(((2, 0, 0, 0), (0, 2, 0, 0)))


def b1_values(nm) -> tuple:
    """B1 for x, then for y, at its (1, 0) and (0, 1) harmonics, from J's
    first two rows and `freq`, as NormalModeData has them; the y row
    carries the P/Q weights that annihilate the linearized equations."""
    w = nm.freq
    (_, _, j13, j14), (j21, j22, j23, j24), _, _ = nm.J
    sq1, sq2 = math.sqrt(2.0 * w.omega1), math.sqrt(2.0 * w.omega2)
    iq1, iq2 = math.sqrt(2.0 / w.omega1), math.sqrt(2.0 / w.omega2)
    return (0j + complex(j13 * sq1, 0.0), 0j + complex(j14 * sq2, 0.0),
            0j + complex(j23 * sq1, j21 * iq1), 0j + complex(j24 * sq2, j22 * iq2))


def _b1_pairs(values: tuple) -> tuple:
    """B1 for x and for y as ``(layout, values)`` pairs, zeros dropped."""
    x1, x2, y1, y2 = values
    return pruned(_B1, [x1, x2], 0j), pruned(_B1, [y1, y2], 0j)


def linear_operator(efg: QuadraticCoefficients, n: float):
    """The linearized equations as a 2x2 matrix of (c0, c1, c2) entries,
    each the D-polynomial c0 + c1 D + c2 D^2, acting on (x, y)."""
    (k00, k01), (k10, k11) = stiffness_matrix(efg, n)
    return (((-k00, 0.0, 1.0), (-k01, -2.0 * n, 0.0)),
            ((-k10, 2.0 * n, 0.0), (-k11, 0.0, 1.0)))


def _operator_plan(left: Layout, right: Layout):
    """``(layout of x + y, rows)`` of an operator applied to a pair on these
    layouts: per key of the sum, ``(p, q, x slot, y slot)``, the slot -1,
    past a side's values, where that side lacks the key."""
    layout, shared, new = sum_plan(left, right)
    size, at = len(left.keys), dict(shared)
    return layout, tuple((p, q, n, at.get(n, -1)) if n < size else
                         (p, q, -1, new[n - size])
                         for n, (_, _, p, q) in enumerate(layout.keys))


def _operator_values(matrix, x: tuple, y: tuple, w: FrequencyPair):
    """``(layout of x + y, row 1, row 2)``: each row the (cos, sin) parts,
    key after key, exact zeros kept, of a 2x2 matrix of (c0, c1, c2)
    D-polynomials applied to the ``(layout, values)`` pairs x and y, in one
    pass of real arithmetic that forms each part as 0j plus
    :func:`apply_poly_in_D`'s complex products would; a side lacking a key reads 0."""
    layout, rows = plan(_operator_plan, x[0], y[0])
    xs, ys = x[1] + [0j], y[1] + [0j]
    w1, w2 = w.omega1, w.omega2
    ((a0, a1, a2), (b0, b1, b2)), ((c0, c1, c2), (d0, d1, d2)) = matrix
    first, second = [], []
    for p, q, i, j in rows:
        t = p * w1 - q * w2
        zx, zy = xs[i], ys[j]
        xr, xi, yr, yi = zx.real, zx.imag, zy.real, zy.imag
        ar, ai = a0 - a2 * t * t, a1 * t
        br, bi = b0 - b2 * t * t, b1 * t
        cr, ci = c0 - c2 * t * t, c1 * t
        dr, di = d0 - d2 * t * t, d1 * t
        first += (0.0 + ((ar * xr + ai * xi) + (br * yr + bi * yi)),
                  0.0 + ((ar * xi - ai * xr) + (br * yi - bi * yr)))
        second += (0.0 + ((cr * xr + ci * xi) + (dr * yr + di * yi)),
                   0.0 + ((cr * xi - ci * xr) + (dr * yi - di * yr)))
    return layout, first, second


def _b1_slots(layout: Layout) -> tuple:
    """B1's two slots in `layout` (-1 where absent); ContractError on other keys."""
    if not set(layout.keys) <= set(_B1.keys):
        raise ContractError("expected a series on B1's two keys")
    return tuple(layout.index.get(key, -1) for key in _B1.keys)


def linear_residual(values: tuple, K: tuple, w: FrequencyPair, n: float) -> float:
    """Sup-norm of the linearized equations on K at B1's four `b1_values`,
    theta = w1 and -w2: the parts of :func:`_operator_values` less the
    exact zero and unit entries of the operator, which move no bit (an
    exact zero adds nothing, `abs` drops a zero's sign)."""
    x1, x2, y1, y2 = values
    (k00, k01), (k10, k11) = K
    w1, w2, n2 = w.omega1, w.omega2, 2.0 * n
    a1, d1, b1 = -k00 - w1 * w1, -k11 - w1 * w1, -n2 * w1
    a2, d2, b2 = -k00 - w2 * w2, -k11 - w2 * w2, n2 * w2
    return max(abs(a1 * x1.real + (-k01 * y1.real + b1 * y1.imag)),
               abs(a1 * x1.imag + (-k01 * y1.imag - b1 * y1.real)),
               abs(a2 * x2.real + (-k01 * y2.real + b2 * y2.imag)),
               abs(a2 * x2.imag + (-k01 * y2.imag - b2 * y2.real)),
               abs((-k10 * x1.real - b1 * x1.imag) + d1 * y1.real),
               abs((-k10 * x1.imag + b1 * x1.real) + d1 * y1.imag),
               abs((-k10 * x2.real - b2 * x2.imag) + d2 * y2.real),
               abs((-k10 * x2.imag + b2 * x2.real) + d2 * y2.imag))


# -- substitution of series into polynomials ------------------------------


def poly_at_series(poly: TruncatedPoly, xi_s, eta_s, xid_s, etad_s,
                   cap: int) -> DAlembertSeries:
    """Evaluate a polynomial at four series arguments, every product capped
    at degree `cap` (:func:`l4norm.dalembert.substitute`)."""
    return substitute(poly.layout, poly.values, (xi_s, eta_s, xid_s, etad_s),
                      cap)


# -- cubic forcing and the second-order solve ------------------------------
#
# Each stage below runs as one kernel, planned and compiled once per tuple
# of its input layouts (:class:`l4norm.layout.KernelSource`): the series
# operations it chains, its guards included, in the order they ran as
# separate calls, and bit for bit as those calls.


def _energy_rows(layout: Layout) -> tuple:
    """The energy function v.dL/dv - L of a Lagrangian on these keys, each
    term times its velocity degree minus one, as substitution rows: per
    monomial of velocity degree other than 1, ``(slot, velocity degree - 1,
    monomial)``."""
    return tuple((n, _velocity_degree(m) - 1, m) for n, m in enumerate(layout.keys)
                 if _velocity_degree(m) != 1)


def _partial_plan(layout: Layout, index: int):
    """``(layout, rows)`` of d/d(variable `index`): one ``(slot, exponent,
    lowered monomial)`` per monomial holding the variable."""
    rows = tuple((n, m[index], m[:index] + (m[index] - 1,) + m[index + 1:])
                 for n, m in enumerate(layout.keys) if m[index])
    return intern(tuple(row[2] for row in rows)), rows


def _forcing_polys(l3: Layout) -> tuple:
    """The cubic's four partials (:func:`_partial_plan`) and its energy
    (:func:`_energy_rows`), as substitution rows."""
    return tuple(_partial_plan(l3, i)[1] for i in range(4)) + (_energy_rows(l3),)


def _forcing_kernel(l3: Layout, b1x: Layout, b1y: Layout):
    """``(layouts, kernel)`` of :func:`forcing_x2y2` at these layouts: D B1,
    the five substitutions at cap 3, and x2 = x2p - D vx, y2 = y2p - D vy.
    ``kernel(l3 values, B1x values, B1y values, w1, w2)`` returns the values
    of x2, y2, x2p, y2p and the cubic, on the five layouts."""
    k = KernelSource()
    x, y = k.unpack("b1x", b1x), k.unpack("b1y", b1y)
    args = (x, y, k.apply_D(x), k.apply_D(y))
    x2p, y2p, vx, vy, cubic = k.substitute(substitution_rows(
        _forcing_polys(l3), 3, tuple(a[0] for a in args)), args)
    out = (k.merge(x2p, k.apply_D(vx), negate=True),
           k.merge(y2p, k.apply_D(vy), negate=True), x2p, y2p, cubic)
    return tuple(a[0] for a in out), k.compile("coefficients, b1x, b1y, w1, w2", out)


def forcing_x2y2(lagrangian: TruncatedPoly, b1: tuple, w: FrequencyPair):
    """Degree-2 forcing of the second-order equations: the Euler-Lagrange
    expression [dL3/dx - D(dL3/dxdot)] of the expansion's cubic terms at
    (B1, B1, D B1, D B1), B1 its `b1_values`.  Returns ``(x2, y2), (x2p,
    y2p), cubic``: its position-partial part [dL3/dx] at the same point, and
    the cubic's energy (:func:`_energy_rows`) at B1, all five substituted at
    cap 3, each bit for bit as `poly_at_series` of that polynomial; one call
    of the stage's kernel."""
    l3, coefficients = sliced(lagrangian.layout, lagrangian.values, sum, 3, 3)
    (bx, xs), (by, ys) = _b1_pairs(b1)
    layouts, kernel = plan(_forcing_kernel, l3, bx, by)
    x2, y2, x2p, y2p, cubic = map(pruned, layouts, kernel(
        coefficients, xs, ys, w.omega1, w.omega2), (0j,) * 5)
    return (x2, y2), (x2p, y2p), cubic


# The (j, m, p, q) term and its cosine (0) or sine (1) slot of each of B2's
# twenty: r1..r10 in B2 for x and s1..s10 in B2 for y, negated, the names
# the printed tables give them.
RS_SLOTS = (
    ((2, 0, 0, 0), 0), ((0, 2, 0, 0), 0), ((2, 0, 2, 0), 0), ((0, 2, 0, 2), 0),
    ((1, 1, 1, -1), 0), ((1, 1, 1, 1), 0), ((2, 0, 2, 0), 1), ((0, 2, 0, 2), 1),
    ((1, 1, 1, -1), 1), ((1, 1, 1, 1), 1),
)
RS_NAMES = tuple(f"{table}{i}" for table in "rs" for i in range(1, 11))


def _solve_kernel(x2: Layout, y2: Layout):
    """``(layout, kernel)`` of :func:`solve_second_order_oracle` at these
    layouts: the adjugate applied per key of X2 + Y2, exact zeros kept, as
    :func:`_operator_values` applies an operator, then per harmonic of
    Phi2, then of Psi2, in stored order, the guards and the division of
    :func:`l4norm.dalembert.invert_delta`.  ``kernel(X2 values,
    Y2 values, w1, w2, adjugate, floor)`` returns the values of B2x and B2y
    on `layout`, which lacks the critical harmonics, and the scale."""
    k = KernelSource()
    x, y = k.unpack("x2", x2), k.unpack("y2", y2)
    entries = [[[f"a{r}{c}_{i}" for i in range(3)] for c in range(2)]
               for r in range(2)]
    k.lines.append("(({}), ({})), (({}), ({})) = adjugate".format(
        *(", ".join(entry) for row in entries for entry in row)))
    layout, shared, new = sum_plan(x2, y2)
    pairs = [[z, None] for z in x[1]] + [[None, y[1][j]] for j in new]
    for n, j in shared:
        pairs[n][1] = y[1][j]
    s1, s2 = k.let("w1 ** 2"), k.let("w2 ** 2")
    b2 = []
    for row in entries:
        # this row of the adjugate applied: Phi2, then Psi2
        values = [k.let("0j + (" + " + ".join(
            f"{k.multiplier(p, q, *entry)} * {z}"
            for entry, z in zip(row, pair) if z is not None) + ")")
            for (_, _, p, q), pair in zip(layout.keys, pairs)]
        out = []
        for (_, _, p, q), u in zip(layout.keys, values):
            if (p, q) in CRITICAL_HARMONICS:
                k.lines.append(f"if {u}: raise CriticalTermError(({p}, {q}), "
                               f"max(abs({u}.real), abs({u}.imag)))")
                continue
            t = k.let(f"{p} * w1 - {q} * w2")
            d = k.let(f"({s1} - {t} * {t}) * ({s2} - {t} * {t})")
            k.lines.append(f"if abs({d}) < floor and {u}: raise "
                           f"SmallDivisorError({f'Delta_({p},{q})'!r}, {d})")
            out.append(k.let(f"0j + {u} / {d} if {u} else 0j"))
        b2.append((layout, out))
    kernel = k.compile("x2, y2, w1, w2, adjugate, floor", [*b2, k.sup(x, y, *b2)])
    return intern(tuple(key for key in layout.keys
                        if key[2:] not in CRITICAL_HARMONICS)), kernel


def solve_second_order_oracle(efg: QuadraticCoefficients, w: FrequencyPair,
                              n: float, x2: tuple, y2: tuple,
                              floor: float = DIVISOR_FLOOR) -> tuple:
    """Solve the coupled second-order equations by harmonic division:
    ``(B2x, B2y, scale)``.

    Eliminating one unknown (the adjugate of the linear operator) turns
    the coupled pair into (D^2 + w1^2)(D^2 + w2^2) (B2x, B2y) = (Phi2, Psi2),
    which divides harmonic-by-harmonic by the small divisor; a nonzero
    critical harmonic raises `CriticalTermError` and a divisor below the
    floor `SmallDivisorError`, as :func:`invert_delta` would, in one call
    of the stage's kernel.  The residuals of the original coupled system
    (`PipelineResult.b2_residuals`) must sit at round-off.
    """
    (l11, l12), (l21, l22) = linear_operator(efg, n)
    neg = lambda entry: tuple(-v for v in entry)
    layout, kernel = plan(_solve_kernel, x2[0], y2[0])
    b2x, b2y, scale = kernel(x2[1], y2[1], w.omega1, w.omega2,
                             ((l22, neg(l12)), (neg(l21), l11)), floor)
    return pruned(layout, b2x, 0j), pruned(layout, b2y, 0j), scale


# -- degree-3 energy coefficients ------------------------------------------


class H3NormalCoefficients(namedtuple(
        "H3NormalCoefficients", "series h2_residual A30 A21 A12 A03 ablation_max")):
    """Sup-norm of each degree-3 action grade of the substituted energy.

    The conclusion under test: with B2 from the oracle solve, all four
    grade norms A30, A21, A12 and A03 vanish (every harmonic of every
    grade cancels).  `series` is the full degree-3 slice, `h2_residual`
    the sup norm of the degree-2 slice less w1 I1 - w2 I2, and
    `ablation_max` the sup norm of the cubic the stage adds, which is H3
    with B2 = 0; the stage's kernel measures every norm.  `PipelineResult.h3`
    forms it on :func:`h3_normal_coefficients`'s values, and
    `PipelineResult.h3_max` reads the largest grade norm.
    """

    __slots__ = ()


def _h3_kernel(l2: Layout, b1x: Layout, b1y: Layout, b2x: Layout, b2y: Layout,
               cubic: Layout):
    """``(layout, kernel)`` of :func:`h3_normal_coefficients` at these
    layouts: B1 + B2 and D of both sums, the quadratic energy at them with
    every product capped at degree 3, plus the cubic; its degree-3 slice and
    the degree-2 slice minus w1 I1 - w2 I2.  ``kernel(l2 values, B1x, B1y,
    B2x, B2y and cubic values, w1, w2)`` returns the values of the degree-3
    slice on `layout`, then the sup norms of the degree-2 difference, of
    the grades (3, 0), (2, 1), (1, 2) and (0, 3), and of the cubic: the
    fields of :class:`H3NormalCoefficients` after `series`."""
    k = KernelSource()
    x = k.merge(k.unpack("b1x", b1x), k.unpack("b2x", b2x))
    y = k.merge(k.unpack("b1y", b1y), k.unpack("b2y", b2y))
    args = (x, y, k.apply_D(x), k.apply_D(y))
    (energy,) = k.substitute(substitution_rows(
        (_energy_rows(l2),), 3, tuple(a[0] for a in args)), args)
    added = k.unpack("cubic", cubic)
    total = k.merge(energy, added)
    h2_form = (_H2, [k.let("0j + complex(w1, 0.0)"), k.let("0j + complex(-w2, 0.0)")])
    h3 = sliced(*total, _degree, 3, 3)
    return h3[0], k.compile(
        "coefficients, b1x, b1y, b2x, b2y, cubic, w1, w2",
        [h3, k.sup(k.merge(sliced(*total, _degree, 2, 2), h2_form, negate=True)),
         *(k.sup(sliced(*h3, _grade, (j, 3 - j), (j, 3 - j))) for j in (3, 2, 1, 0)),
         k.sup(added)])


def h3_normal_coefficients(cubic: tuple, lagrangian: TruncatedPoly, b1: tuple,
                           b2: tuple, w: FrequencyPair) -> tuple:
    """Substitute x = B1 + B2 (velocities via D) into the energy and slice.

    The energy (:func:`_energy_rows`) of the expansion's quadratic terms
    is substituted at B1's `b1_values` plus `b2`, every product capped at
    degree 3, and added to `cubic`, the cubic's energy at B1 (under the cap
    the cubic sees only B1); one call of the stage's kernel.  Returns the
    degree-3 slice and the fields of :class:`H3NormalCoefficients` after it.
    """
    l2, coefficients = sliced(lagrangian.layout, lagrangian.values, sum, 2, 2)
    (bx, xs), (by, ys) = _b1_pairs(b1)
    (b2x, x2s), (b2y, y2s) = b2
    layout, kernel = plan(_h3_kernel, l2, bx, by, b2x, b2y, cubic[0])
    values, *norms = kernel(coefficients, xs, ys, x2s, y2s, cubic[1], w.omega1, w.omega2)
    return pruned(layout, values, 0j), norms
