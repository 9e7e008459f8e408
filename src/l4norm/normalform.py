"""Linear normal modes, first/second-order series components, and the
cubic normal-form coefficients.

The oracle chain this module serves:

1. frequencies + symplectic normal-mode matrix J from the quadratic
   Lagrangian slice, both in closed form (the roots of a biquadratic, and
   per mode the null vector of a 2x2 matrix);
2. first-order components B1 from the (x, y) rows of J;
3. cubic forcing X2, Y2 and the energy's cubic at B1: the cubic's four
   partials and its energy at (B1, B1, D B1, D B1) in one substitution;
4. second-order components B2 by harmonic division;
5. degree-3 energy coefficients after substituting x = B1 + B2, whose
   vanishing is the headline verification target: the quadratic energy
   at B1 + B2 plus the cubic of step 3 (under the degree-3 cap the cubic
   sees only B1), both substituted by `poly_at_series`.

A substitution into a polynomial is planned once per shape (the
layouts and the degree cap) and then runs as its plan's compiled kernel;
no product term past the cap the stage reads is formed.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

from .dalembert import (
    DIVISOR_FLOOR,
    DAlembertSeries,
    FrequencyPair,
    apply_D,
    apply_poly_in_D,  # noqa: F401 -- perfbench/spans.py wraps it here
    invert_delta,
    substitute,
    substitute_along,
    substitution_plan,
)
from .errors import ContractError, StabilityDomainError
from .layout import Layout, intern, plan, sum_plan
from .model import ModelParams
from .polyalg import QuadraticCoefficients, TruncatedPoly, _partial_plan

SIGMA = ((0.0, 0.0, 1.0, 0.0),
         (0.0, 0.0, 0.0, 1.0),
         (-1.0, 0.0, 0.0, 0.0),
         (0.0, -1.0, 0.0, 0.0))


def stiffness_matrix(efg: QuadraticCoefficients, n: float) -> tuple:
    """Position block K of the quadratic Lagrangian, L2 = |v|^2/2 + v.C q + q.K q/2."""
    return ((n * n - 2.0 * efg.E, -efg.G),
            (-efg.G, n * n - 2.0 * efg.F))


def velocity_coupling(l2: TruncatedPoly) -> tuple:
    """Bilinear block C with C[i][j] = coefficient of v_i q_j in the degree-2
    slice (gyroscopic plus drag gauge terms)."""
    return ((l2.coefficient((1, 0, 1, 0)), l2.coefficient((0, 1, 1, 0))),
            (l2.coefficient((1, 0, 0, 1)), l2.coefficient((0, 1, 0, 1))))


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
    """Drag-free frequencies from w^4 - w^2 + 27 mu (1-mu)/4 = 0."""
    disc = 1.0 - 27.0 * mu * (1.0 - mu)
    if disc < 0.0:
        raise StabilityDomainError(
            f"mu = {mu} beyond the critical mass ratio (discriminant {disc:.3e})")
    w1sq = 0.5 * (1.0 + math.sqrt(disc))
    return FrequencyPair(math.sqrt(w1sq), math.sqrt(1.0 - w1sq))


def _entry(row: int, col: int):
    """Property: the (row, col) entry of `self.J`."""
    return property(lambda self: self.J[row][col])


def _grade_norm(j: int, m: int):
    """Property: sup-norm of the (j, m) grade of `self.series`, sliced on
    first read and kept."""
    return functools.cached_property(lambda self: self.series.grade(j, m).max_abs())


@dataclass(frozen=True)
class NormalModeData:
    """Exact symplectic normal-mode transformation of the quadratic part.

    X = J T maps (Q1, Q2, P1, P2) to (x, y, px, py); the transformed
    quadratic Hamiltonian is (P1^2 + w1^2 Q1^2)/2 - (P2^2 + w2^2 Q2^2)/2,
    i.e. w1 I1 - w2 I2 in action-angle form.  `J` and `hessian`, that
    Hamiltonian's Hessian before the transformation, are tuples of their
    four rows.  The two residuals are formed on first read and kept.
    """

    freq: FrequencyPair
    J: tuple
    hessian: tuple

    J13 = _entry(0, 2)
    J14 = _entry(0, 3)
    J21 = _entry(1, 0)
    J22 = _entry(1, 1)
    J23 = _entry(1, 2)
    J24 = _entry(1, 3)

    @functools.cached_property
    def symplectic_defect(self) -> float:
        """Largest entry of |J^T Sigma J - Sigma|."""
        return congruence_gap(self.J, SIGMA, SIGMA)

    @functools.cached_property
    def h2_residual(self) -> float:
        """Largest entry of |J^T S J - diag(w1^2, -w2^2, 1, -1)|, S the
        Hessian."""
        w = self.freq
        target = ((w.omega1**2, 0.0, 0.0, 0.0), (0.0, -w.omega2**2, 0.0, 0.0),
                  (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, -1.0))
        return congruence_gap(self.J, self.hessian, target)


def hamiltonian_matrix(K: tuple, C: tuple) -> tuple:
    """Hessian S of H2(q, p) = |p - C q|^2 / 2 - q.K q / 2, as four rows."""
    ctc = [[C[0][i] * C[0][j] + C[1][i] * C[1][j] - K[i][j] for j in range(2)]
           for i in range(2)]
    return ((*ctc[0], -C[0][0], -C[1][0]),
            (*ctc[1], -C[0][1], -C[1][1]),
            (-C[0][0], -C[0][1], 1.0, 0.0),
            (-C[1][0], -C[1][1], 0.0, 1.0))


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def congruence_gap(J: tuple, M: tuple, target: tuple) -> float:
    """Largest entry of |J^T M J - target|, all three 4x4 row tuples."""
    cols = tuple(zip(*J))
    mj_cols = [[_dot(row, col) for row in M] for col in cols]
    return max(abs(_dot(a, b) - t) for a, row in zip(cols, target)
               for b, t in zip(mj_cols, row))


def mode_vector(omega: float, K: tuple, C: tuple) -> list:
    """Unit eigenvector (q, p) of the linear canonical flow at i*omega.

    q spans the kernel of N = -omega^2 I - K + i omega (C - C^T), read off
    its row of larger norm, and p = (i omega I + C) q.  A Newton step on
    det N in omega, |det N| / |d det N / d omega|, measures how far
    i*omega lies from the spectrum; beyond 1e-6 (1 + omega) omega is not
    a frequency of this K and C.
    """
    g = 1j * omega * (C[0][1] - C[1][0])
    rows = ((-omega * omega - K[0][0], g - K[0][1]),
            (-g - K[1][0], -omega * omega - K[1][1]))
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    slope = 2.0 * omega * (2.0 * omega * omega + K[0][0] + K[1][1]
                           - (omega * (C[0][1] - C[1][0]))**2)
    if not abs(det) <= 1e-6 * (1.0 + omega) * abs(slope):
        raise StabilityDomainError(f"no eigenvalue near i*{omega:.8f}")
    big = max(rows, key=lambda r: abs(r[0])**2 + abs(r[1])**2)
    q0, q1 = big[1], -big[0]
    v = [q0, q1, (1j * omega + C[0][0]) * q0 + C[0][1] * q1,
         C[1][0] * q0 + (1j * omega + C[1][1]) * q1]
    # plain left-to-right additions: the builtin `sum` of Python 3.12 and
    # later compensates its rounding, that of 3.11 does not
    norm = math.sqrt(abs(v[0])**2 + abs(v[1])**2 + abs(v[2])**2 + abs(v[3])**2)
    return [z / norm for z in v]


def j_numeric(p: ModelParams, efg: QuadraticCoefficients, w: FrequencyPair,
              l2: TruncatedPoly) -> NormalModeData:
    """Symplectic normalization of the quadratic Hamiltonian.

    Eigenvectors of the linear canonical flow (:func:`mode_vector`) are
    phase-rotated so the x row couples only to the P (cosine) variables,
    scaled so the transformation is symplectic, and signed so J13,
    J14 > 0.  The mode signs (+, -) are dictated by the symplectic
    invariants; a sign flip would mean the quadratic part is not of the
    expected type.
    """
    K = stiffness_matrix(efg, p.n)
    C = velocity_coupling(l2)

    columns = {}
    for mode, (omega, target_sign) in enumerate(
            ((w.omega1, +1.0), (w.omega2, -1.0))):
        v = mode_vector(omega, K, C)
        pivot = v[0] if abs(v[0]) > 1e-12 else v[1]
        turn = pivot.conjugate() / abs(pivot)  # x component real
        v = [z * turn for z in v]
        u, wv = [z.real for z in v], [z.imag for z in v]
        sigma = u[0] * wv[2] + u[1] * wv[3] - u[2] * wv[0] - u[3] * wv[1]
        if sigma * target_sign <= 0.0:
            raise StabilityDomainError(
                f"mode {mode + 1} has symplectic invariant {sigma:.3e}; "
                "quadratic part is not of the expected signature")
        c = 1.0 / math.sqrt(omega * abs(sigma))
        d = -target_sign * c * omega
        pcol, qcol = [c * x for x in u], [d * x for x in wv]
        if pcol[0] < 0.0:
            pcol, qcol = [-x for x in pcol], [-x for x in qcol]
        columns[mode] = (qcol, pcol)

    J = tuple(zip(columns[0][0], columns[1][0], columns[0][1], columns[1][1]))
    return NormalModeData(freq=w, J=J, hessian=hamiltonian_matrix(K, C))


# -- first-order components ---------------------------------------------

# The layouts of B1, the (1, 0) harmonic at I1^(1/2) and the (0, 1) at
# I2^(1/2), and of the quadratic form w1 I1 - w2 I2.
_B1 = intern(((1, 0, 1, 0), (0, 1, 0, 1)))
_H2 = intern(((2, 0, 0, 0), (0, 2, 0, 0)))


def first_order_components(nm):
    """Degree-1 series (B1 for x, B1 for y) from the printed combination.

    `nm` needs J13..J24 attributes and `freq`: NormalModeData, or the
    printed entries of `closedforms.j_closed_form` with the frequencies.
    The y row carries the P/Q weights that annihilate the linearized
    equations.
    """
    w = nm.freq
    sq1, sq2 = math.sqrt(2.0 * w.omega1), math.sqrt(2.0 * w.omega2)
    iq1, iq2 = math.sqrt(2.0 / w.omega1), math.sqrt(2.0 / w.omega2)
    return (DAlembertSeries._new(_B1, [0j + complex(nm.J13 * sq1, 0.0),
                                       0j + complex(nm.J14 * sq2, 0.0)]),
            DAlembertSeries._new(_B1, [0j + complex(nm.J23 * sq1, nm.J21 * iq1),
                                       0j + complex(nm.J24 * sq2, nm.J22 * iq2)]))


def linear_operator(efg: QuadraticCoefficients, n: float):
    """The linearized equations as a 2x2 matrix of (c0, c1, c2) entries,
    each the D-polynomial c0 + c1 D + c2 D^2, acting on (x, y)."""
    (k00, k01), (k10, k11) = stiffness_matrix(efg, n)
    return (((-k00, 0.0, 1.0), (-k01, -2.0 * n, 0.0)),
            ((-k10, 2.0 * n, 0.0), (-k11, 0.0, 1.0)))


def apply_operator(matrix, x, y, w: FrequencyPair):
    """Apply a 2x2 matrix of (c0, c1, c2) D-polynomials to the pair (x, y)
    in one pass over the keys of x + y, forming per harmonic theta and the
    four multipliers of :func:`apply_poly_in_D` once."""
    layout, shared, new = plan(sum_plan, x.layout, y.layout)
    xs, ys = x.values + [0j] * len(new), [0j] * len(x.values)
    for n, k in shared:
        ys[n] = y.values[k]
    ys += [y.values[k] for k in new]
    w1, w2 = w.omega1, w.omega2
    (a, b), (c, d) = matrix
    first, second = [], []
    for (_, _, p, q), zx, zy in zip(layout.keys, xs, ys):
        t = p * w1 - q * w2
        first.append(0j + (complex(a[0] - a[2] * t * t, -(a[1] * t)) * zx
                           + complex(b[0] - b[2] * t * t, -(b[1] * t)) * zy))
        second.append(0j + (complex(c[0] - c[2] * t * t, -(c[1] * t)) * zx
                            + complex(d[0] - d[2] * t * t, -(d[1] * t)) * zy))
    return x._new(layout, first), x._new(layout, second)


def linear_residual(b1x: DAlembertSeries, b1y: DAlembertSeries,
                    efg: QuadraticCoefficients, w: FrequencyPair,
                    n: float) -> float:
    """Sup-norm of the linearized equations applied to a degree-1 pair."""
    r1, r2 = apply_operator(linear_operator(efg, n), b1x, b1y, w)
    return max(r1.max_abs(), r2.max_abs())


# -- substitution of series into polynomials ------------------------------


def poly_at_series(poly: TruncatedPoly, xi_s, eta_s, xid_s, etad_s,
                   cap: int) -> DAlembertSeries:
    """Evaluate a polynomial at four series arguments, every product capped
    at degree `cap` (:func:`l4norm.dalembert.substitute`)."""
    return substitute(poly.layout, poly.values, (xi_s, eta_s, xid_s, etad_s),
                      cap)


# -- cubic forcing and the second-order solve ------------------------------


def _forcing_plan(l3: Layout, cap: int, *layouts):
    """The substitution plan of the cubic's four partials, as
    `TruncatedPoly.partial` lowers them, and of its energy, on the keys
    `TruncatedPoly.energy` keeps (velocity degree other than 1)."""
    energy = tuple((n, m[2] + m[3] - 1, m) for n, m in enumerate(l3.keys)
                   if m[2] + m[3] != 1)
    return substitution_plan(tuple(_partial_plan(l3, i)[1] for i in range(4))
                             + (energy,), cap, layouts)


def forcing_x2y2(l3: TruncatedPoly, b1x: DAlembertSeries, b1y: DAlembertSeries,
                 w: FrequencyPair):
    """Degree-2 forcing of the second-order equations: the Euler-Lagrange
    expression [dL3/dx - D(dL3/dxdot)] at (x, y, xdot, ydot) =
    (B1, B1, D B1, D B1).  Returns ``(x2, y2), (x2p, y2p), cubic``: the
    second pair is its position-partial part [dL3/dx] at the same point,
    and `cubic` the energy's cubic `l3.energy()` at B1, all five
    substituted at cap 3 in one kernel call, each bit for bit as
    `poly_at_series` of that polynomial."""
    if any(sum(m) != 3 for m in l3.layout.keys):
        raise ContractError("forcing expects a homogeneous cubic slice")
    args = (b1x, b1y, apply_D(b1x, w), apply_D(b1y, w))
    x2p, y2p, vx, vy, cubic = substitute_along(
        plan(_forcing_plan, l3.layout, 3, *(a.layout for a in args)),
        l3.values, args)
    return ((x2p - apply_D(vx, w), y2p - apply_D(vy, w)), (x2p, y2p), cubic)


@dataclass(frozen=True)
class SecondOrderSolution:
    """B2 and what its back-substitution reads: the linear operator, the
    forcing (x2, y2) and the frequencies.  The residuals of the coupled
    system are formed on first read and kept, so a caller that reads only
    B2 pays nothing for them."""

    b2x: DAlembertSeries
    b2y: DAlembertSeries
    operator: tuple
    forcing: tuple
    freq: FrequencyPair

    @functools.cached_property
    def residuals(self) -> tuple:
        """Sup-norms of the operator at (B2x, B2y) minus (x2, y2)."""
        rx, ry = apply_operator(self.operator, self.b2x, self.b2y, self.freq)
        x2, y2 = self.forcing
        return (rx - x2).max_abs(), (ry - y2).max_abs()

    residual_x = property(lambda self: self.residuals[0])
    residual_y = property(lambda self: self.residuals[1])


def solve_second_order_oracle(efg: QuadraticCoefficients, w: FrequencyPair,
                              n: float, x2: DAlembertSeries, y2: DAlembertSeries,
                              floor: float = DIVISOR_FLOOR) -> SecondOrderSolution:
    """Solve the coupled second-order equations by harmonic division.

    Eliminating one unknown (the adjugate of the linear operator) turns
    the coupled pair into (D^2 + w1^2)(D^2 + w2^2) (B2x, B2y) = (Phi2, Psi2),
    which divides harmonic-by-harmonic by the small divisor; a critical
    harmonic there raises `CriticalTermError` from :func:`invert_delta`.
    The returned residuals are of the original coupled system, formed on
    first read, and must sit at round-off.
    """
    op = linear_operator(efg, n)
    (l11, l12), (l21, l22) = op
    neg = lambda entry: tuple(-v for v in entry)
    phi2, psi2 = apply_operator(((l22, neg(l12)), (neg(l21), l11)), x2, y2, w)
    return SecondOrderSolution(invert_delta(phi2, w, floor),
                               invert_delta(psi2, w, floor), op, (x2, y2), w)


# -- degree-3 energy coefficients ------------------------------------------


@dataclass(frozen=True)
class H3NormalCoefficients:
    """Sup-norm of each degree-3 action grade of the substituted energy.

    The conclusion under test: with B2 from the oracle solve, all four
    vanish (every harmonic of every grade cancels).  The grades A30, A21,
    A12 and A03 are sliced on first read, so a caller that discards the
    result pays nothing for them; every degree-3 key lies in one of them,
    so `max_abs` reads the whole series and slices none.
    """

    series: DAlembertSeries      # full degree-3 slice
    h2_residual: float           # degree-2 slice vs w1 I1 - w2 I2

    A30 = _grade_norm(3, 0)
    A21 = _grade_norm(2, 1)
    A12 = _grade_norm(1, 2)
    A03 = _grade_norm(0, 3)

    def max_abs(self) -> float:
        return self.series.max_abs()


def h3_normal_coefficients(cubic: DAlembertSeries, l2: TruncatedPoly, b1, b2,
                           w: FrequencyPair) -> H3NormalCoefficients:
    """Substitute x = B1 + B2 (velocities via D) into the energy and slice.

    The quadratic slice's energy `l2.energy()` is substituted with every
    product capped at degree 3 and added to `cubic`, the cubic slice's
    energy at B1 (:func:`forcing_x2y2`; under the cap the cubic sees only B1).
    """
    bx, by = b1[0] + b2[0], b1[1] + b2[1]
    total = poly_at_series(l2.energy(), bx, by, apply_D(bx, w),
                           apply_D(by, w), 3) + cubic

    h2_form = DAlembertSeries._new(_H2, [0j + complex(w.omega1, 0.0),
                                         0j + complex(-w.omega2, 0.0)])
    h2_res = (total.degree_slice(2) - h2_form).max_abs()
    return H3NormalCoefficients(total.degree_slice(3), h2_res)
