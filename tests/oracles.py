"""Reference physics and evaluators that the tests check the package against.

Nothing in the package reads these; their series and polynomials are
`objectpath`'s.  `State` is a rotating-frame position and velocity;
`lagrangian` and `effective_potential` evaluate the package's Lagrangian
and potential along one, and `difference` subtracts two series or two
polynomials along their sum plan.  The one-step
forms of the algebra that no program path runs live here too: for
series and polynomials alike `slice_of`, the terms whose key a measure
puts in a range (`l4norm.layout.sliced`), and the sup norm `sup`; for
series `product` (with a degree cap), `scaled`, `degree_slice` and
`grade`; for polynomials `homogeneous_part` and `velocity_part`,
`oracle_t1_t4` (the printed T1..T4 read off a cubic), `constant`, `plus`
(at the smaller cap, a scalar as a constant), `negated`, `partial` and
`energy`, whose rows the chain's forcing and H3 kernels lay out
(`l4norm.normalform._partial_plan`, `_energy_rows`).  `eom_rhs` is the
full equations of motion with the velocity-dependent (dissipative) drag;
`lagrangian_rhs` is the flow of the package's Lagrangian, whose drag
keeps only the at-rest term W1 n (y, -(x+mu))/r1^2, because its
velocity-dependent drag term is a total time derivative.  The normal form of the chain follows the second.
`orbit_frequencies` reads omega1 and omega2 off an orbit of `eom_rhs` by
frequency analysis, the reference for `l4norm.normalform.frequencies`.
Both read `potential_gradient`, the gradient of the effective potential,
which shares no code with the chain's Newton force
(`l4norm.equilibria.equilibrium_force`).  `force_jacobian` is that
force's analytic Jacobian, and `newton_by_two_calls` runs Newton with one
call of each per iterate, the bit-for-bit reference for
`l4norm.equilibria.solve_triangular_numeric`.
`taylor_by_composition` expands the Lagrangian by composing four-variable
polynomial series, the reference for `l4norm.polyalg.taylor_lagrangian`,
and `taylor_by_dicts` expands it on coefficient dicts (`_mul2` multiplies
two of them), its bit-for-bit reference; `variable` is one of the four
variables as a polynomial.
`substitute_pairwise` multiplies a substitution out one pair of term dicts
at a time, the reference for `l4norm.normalform.poly_at_series`, and
`substitute_by_rows` runs substitution rows in a loop, the bit-for-bit
reference for their compiled kernel; `polynomial_rows` lays out the rows
of one polynomial as `l4norm.dalembert.substitute` does, and
`substitute_by_kernel` runs any rows, several polynomials among them,
through a kernel that `l4norm.layout.KernelSource` writes.  `forcing_by_ops`,
`second_order_by_ops` and `h3_by_ops` run the three second-order stages
one series operation at a time, the bit-for-bit references for the
stages' kernels; `forcing_by_objects`, `solve_by_objects` and
`h3_by_objects` call those kernels on series, as the stages ran before
they took plain ``(layout, values)`` pairs (`pair_of` and `series_of`
turn one into the other; `b1_series`, `forcing_series` and `b2_series`
view a chain result's pairs as series), and `second_order_by_objects`
chains them, the bit-for-bit reference for the b2 and h3 stages of
`l4norm.verify.run_pipeline`.
`mode_vector` reads a mode's eigenvector off lists and
`mode_columns_by_lists`, `j_by_mode_vectors` and `hessian_by_loops` build
J and the Hessian from it, the bit-for-bit references for
`l4norm.normalform.j_numeric` and `hamiltonian_matrix`.
`linear_residual_by_operator` reads the B1 gate off every part of the
general operator's values, the bit-for-bit reference for
`l4norm.normalform.linear_residual`, and `linear_front_by_objects` runs
the chain through b1 on objects, a degree-2 slice and B1's series, the
bit-for-bit reference for the b1 front of `l4norm.verify.run_pipeline`;
`b1y_print_by_objects` adds the printed B1 for y up from its two terms,
the bit-for-bit reference for `l4norm.closedforms.b1y_print`.
`t5_by_products` multiplies out the drag cubic T5, the bit-for-bit
reference for the T5 values of `l4norm.polyalg.t_coefficients_closed_form`.
`classical_cubic_symbolic` derives the classical T1..T4 exactly, the
reference for the printed rows, and `row_as_written` evaluates one row
term by term as the print reads,
the reference for `l4norm.closedforms.printed`; `printed_by_groups` sums
the rows' expanded groups in a loop, the bit-for-bit reference for its
compiled kernels.  `moser_by_full_scan` scans all 40 combinations, the
reference for `l4norm.dalembert.moser_check`.  `audit_gaps_eagerly`
computes every gap of `l4norm.verify.audit` stage by stage, the
reference for its gaps.  `report_audit_by_names` computes the report's
part of the audit on dicts by name, `printed_by_names` reading the rows
and `reflect` reading them on L5, the bit-for-bit reference for
`l4norm.verify.report_audit`; `congruence_gap_by_rows` forms a congruence
gap by the generic loop, the bit-for-bit reference for
`l4norm.normalform.congruence_gap`.  `render_report_by_fields` writes a
report line by line, every field through `l4norm.verify.fmt`, the
byte-for-byte reference for `l4norm.verify.render_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from l4norm import closedforms, equilibria, normalform, polyalg, verify
from l4norm.dalembert import (_PRODUCT, DIVISOR_FLOOR, MOSER_PAIRS, _degree, _grade,
                              apply_D, apply_poly_in_D, invert_delta, moser_check,
                              substitute, substitution_rows)
from l4norm.equilibria import OriginShift
from l4norm.errors import (ContractError, ConvergenceError, ParameterError, ResonanceError,
                           SingularJacobianError, StabilityDomainError)
from l4norm.layout import KernelSource, plan, sliced, sup_of_difference
from l4norm.model import ModelParams, _lagrangian, _potential, _radii, branch_sign
from objectpath import DAlembertSeries, TruncatedPoly, merged


@dataclass(frozen=True)
class State:
    """Rotating-frame position and velocity."""

    x: float
    y: float
    xdot: float = 0.0
    ydot: float = 0.0

    def radii(self, p: ModelParams):
        """Distances to the radiating and oblate primaries, collision-guarded."""
        return _radii(self.x, self.y, p)


def effective_potential(s: State, p: ModelParams) -> float:
    """U1 = n^2 (x^2+y^2)/2 + (1-mu) q1 / r1 + mu / r2 + mu A2 / (2 r2^3)."""
    return _potential(s.x, s.y, *s.radii(p), p)


def lagrangian(s: State, p: ModelParams) -> float:
    """The package's Lagrangian (`l4norm.model._lagrangian`) along a state."""
    return _lagrangian(s.x, s.y, s.xdot, s.ydot, p)


def pair_of(series) -> tuple:
    """The ``(layout, values)`` pair of a series, as the second-order stages
    of `l4norm.normalform` take and return one."""
    return series.layout, series.values


def series_of(pair) -> DAlembertSeries:
    """The series on a ``(layout, values)`` pair."""
    return DAlembertSeries._new(*pair)


def b1_series(values: tuple) -> tuple:
    """B1's pair of series on its four `b1_values`, zeros dropped."""
    return tuple(map(series_of, normalform._b1_pairs(values)))


def forcing_series(res) -> tuple:
    """``(X2, Y2, the cubic at B1)`` of a chain result, as series."""
    (x2, y2), _, cubic = res.forcing
    return series_of(x2), series_of(y2), series_of(cubic)


def b2_series(res) -> tuple:
    """``(B2x, B2y)`` of a chain result, as series."""
    return series_of(res.b2_values[0]), series_of(res.b2_values[1])


def difference(a, b):
    """``a - b`` for two series or two polynomials, along their sum plan
    as a sum with the negation: where a complex value meets a real one,
    ``x - y`` can give a zero imaginary part the other sign."""
    return merged(a, b, lambda x, y: x + -y)


# -- one-step forms of the algebra that no program path runs ---------------


def product(a, b, cap: int | None = None) -> DAlembertSeries:
    """The product of two series with the pairs of terms past degree `cap`
    skipped (None keeps all): the substitution of the one monomial x y,
    as ``a * b`` is at no cap."""
    return substitute(_PRODUCT, [1.0], (a, b), cap)


def scaled(series, factor: float) -> DAlembertSeries:
    """Each term of a series times a real factor."""
    return series._new(series.layout, [0j + z * factor for z in series.values])


def slice_of(store, measure, low, high):
    """The terms of a series or a polynomial (its cap kept) with ``low <=
    measure(key) <= high``, along `l4norm.layout.sliced`."""
    return store._new(*sliced(store.layout, store.values, measure, low, high))


def degree_slice(series, degree: int) -> DAlembertSeries:
    """The terms of a series of total degree j + m = `degree`."""
    return slice_of(series, _degree, degree, degree)


def grade(series, j: int, m: int) -> DAlembertSeries:
    """The terms of a series of action grade I1^(j/2) I2^(m/2)."""
    return slice_of(series, _grade, (j, m), (j, m))


def homogeneous_part(poly: TruncatedPoly, degree: int) -> TruncatedPoly:
    """The terms of a polynomial of total degree `degree`."""
    return slice_of(poly, sum, degree, degree)


def velocity_part(poly: TruncatedPoly) -> TruncatedPoly:
    """The terms of a polynomial with at least one velocity factor."""
    return slice_of(poly, polyalg._velocity_degree, 1, poly.cap)


def oracle_t1_t4(poly: TruncatedPoly) -> tuple:
    """T1..T4 under the printed normalization, read off a polynomial's
    position cubic: 6, 2, 2 and 6 times its x^3, x^2 y, x y^2 and y^3
    coefficients."""
    value = poly._value
    return (6.0 * value((3, 0, 0, 0)), 2.0 * value((2, 1, 0, 0)),
            2.0 * value((1, 2, 0, 0)), 6.0 * value((0, 3, 0, 0)))


def sup(store) -> float:
    """Sup over the real and imaginary parts of the values of a series or
    a polynomial, 0.0 for none."""
    return max((max(abs(v.real), abs(v.imag)) for v in store.values), default=0.0)


def constant(value, cap: int) -> TruncatedPoly:
    """The constant polynomial of this cap."""
    return TruncatedPoly(cap, {(0, 0, 0, 0): value})


def plus(a: TruncatedPoly, b) -> TruncatedPoly:
    """``a + b`` at the smaller cap, a scalar `b` as a constant."""
    if not isinstance(b, TruncatedPoly):
        b = constant(b, a.cap)
    cap = min(a.cap, b.cap)
    return a.truncated(cap) + b.truncated(cap)


def negated(poly: TruncatedPoly) -> TruncatedPoly:
    """Each coefficient of a polynomial negated."""
    return poly._new(poly.layout, [-c for c in poly.values])


def partial(poly: TruncatedPoly, index: int) -> TruncatedPoly:
    """d/d(variable `index`) of a polynomial, along the rows of
    `l4norm.normalform._partial_plan`."""
    layout, rows = plan(normalform._partial_plan, poly.layout, index)
    return poly._new(layout, [poly.values[n] * e for n, e, _ in rows])


def energy(lag: TruncatedPoly) -> TruncatedPoly:
    """The energy function v.dL/dv - L of a Lagrangian: each term times
    its velocity degree minus one, the polynomial whose substitution rows
    `l4norm.normalform._energy_rows` lays out."""
    return lag._new(lag.layout, [c * (m[2] + m[3] - 1)
                                 for m, c in zip(lag.layout.keys, lag.values)])


@dataclass(frozen=True)
class CanonicalState:
    """Position and canonical momenta."""

    x: float
    y: float
    px: float
    py: float


def potential_gradient(s: State, p: ModelParams):
    """(dU1/dx, dU1/dy) evaluated analytically."""
    r1, r2 = s.radii(p)
    n2 = p.n * p.n
    x1 = s.x + p.mu        # offset from the radiating primary
    x2 = s.x + p.mu - 1.0  # offset from the oblate primary
    g1 = (1.0 - p.mu) * p.q1 / r1**3
    g2 = p.mu / r2**3
    g2a = 1.5 * p.mu * p.A2 / r2**5
    ux = n2 * s.x - g1 * x1 - g2 * x2 - g2a * x2
    uy = n2 * s.y - g1 * s.y - g2 * s.y - g2a * s.y
    return ux, uy


def force_jacobian(x: float, y: float, p: ModelParams):
    """Analytic Jacobian (dFx/dx, dFx/dy, dFy/dx, dFy/dy) of
    `l4norm.equilibria.equilibrium_force`, on sqrt radii."""
    mu, n, q1, A2, W1 = p.mu, p.n, p.q1, p.A2, p.W1
    x1 = x + mu
    x2 = x + mu - 1.0
    r1sq = x1 * x1 + y * y
    r2sq = x2 * x2 + y * y
    r1 = math.sqrt(r1sq)
    r2 = math.sqrt(r2sq)
    n2 = n * n
    r2_5 = r2**5
    g1 = (1.0 - mu) * q1 / r1**3
    g2 = mu / r2**3
    g2a = 1.5 * mu * A2 / r2_5
    h1 = 3.0 * (1.0 - mu) * q1 / r1**5
    h2 = 3.0 * mu / r2_5
    h2a = 7.5 * mu * A2 / r2**7

    uxx = n2 - g1 - g2 - g2a + h1 * x1 * x1 + h2 * x2 * x2 + h2a * x2 * x2
    uxy = h1 * x1 * y + h2 * x2 * y + h2a * x2 * y
    uyy = n2 - g1 - g2 - g2a + h1 * y * y + h2 * y * y + h2a * y * y

    wn = W1 * n
    r1_4 = r1sq**2
    dfx_dx = uxx - 2.0 * wn * y * x1 / r1_4
    dfx_dy = uxy + wn / r1sq - 2.0 * wn * y * y / r1_4
    dfy_dx = uxy - wn / r1sq + 2.0 * wn * x1 * x1 / r1_4
    dfy_dy = uyy + 2.0 * wn * x1 * y / r1_4
    return dfx_dx, dfx_dy, dfy_dx, dfy_dy


def newton_by_two_calls(p: ModelParams, branch: str = "L4"):
    """Newton iteration from the classical seed calling
    `equilibria.equilibrium_force` and then `force_jacobian` per iterate,
    the bit-for-bit reference for `equilibria.solve_triangular_numeric`."""
    x, y = equilibria.classical_seed(p, branch)
    for _ in range(equilibria._NEWTON_MAX_ITER):
        fx, fy = equilibria.equilibrium_force(x, y, p)
        residual = max(abs(fx), abs(fy))
        if residual < equilibria._NEWTON_TOL:
            break
        jxx, jxy, jyx, jyy = force_jacobian(x, y, p)
        det = jxx * jyy - jxy * jyx
        if abs(det) < 1e-14:
            raise SingularJacobianError(
                f"degenerate force Jacobian at ({x:.6g}, {y:.6g}), det={det:.3e}"
            )
        x -= (fx * jyy - fy * jxy) / det
        y -= (jxx * fy - jyx * fx) / det
    else:
        raise ConvergenceError(
            f"Newton failed after {equilibria._NEWTON_MAX_ITER} iterations",
            last=(x, y))
    if y == 0.0:
        raise ConvergenceError("Newton collapsed onto the axis y = 0", last=(x, y))
    return equilibria.EquilibriumPoint(x, y, branch, "numeric", residual)


def moser_by_full_scan(w) -> tuple:
    """(least |k1 w1 + k2 w2|, its pair) over every pair of MOSER_PAIRS,
    the first of equal values winning."""
    value, pair = math.inf, None
    for k1, k2 in MOSER_PAIRS:
        combination = abs(k1 * w.omega1 + k2 * w.omega2)
        if combination < value:
            value, pair = combination, (k1, k2)
    return value, pair


def drag_terms(s: State, p: ModelParams):
    """(N1, N2, r1sq) of the dissipative force; force = -W1*N/r1^2."""
    r1, _ = s.radii(p)
    r1sq = r1 * r1
    x1 = s.x + p.mu
    radial = (x1 * s.xdot + s.y * s.ydot) / r1sq
    n1 = x1 * radial + s.xdot - p.n * s.y
    n2 = s.y * radial + s.ydot + p.n * x1
    return n1, n2, r1sq


def eom_rhs(s: State, p: ModelParams):
    """Accelerations (xddot, yddot) of the full equations of motion."""
    ux, uy = potential_gradient(s, p)
    n1, n2, r1sq = drag_terms(s, p)
    ax = 2.0 * p.n * s.ydot + ux - p.W1 * n1 / r1sq
    ay = -2.0 * p.n * s.xdot + uy - p.W1 * n2 / r1sq
    return ax, ay


def orbit_frequencies(p: ModelParams, x: float, y: float) -> tuple:
    """(omega1, omega2), the larger first, read off an orbit of `eom_rhs`
    by frequency analysis (Laskar, Icarus 88 (1990) 266).

    The orbit starts at rest from the root (x, y) displaced by 1e-6 in x
    and in y and is integrated with DOP853 over T = 1,000.  Its x, sampled
    8,192 times and Hann-windowed, has its two largest local maxima of
    |FFT| taken as the modes, and each is refined by bounded maximisation
    of the windowed Fourier amplitude within one bin of its peak.  Nothing
    from the chain but the root enters, so no chain value chooses the
    band.
    """
    # scipy and numpy load with the one test that integrates these orbits
    import numpy as np
    from scipy.integrate import solve_ivp
    from scipy.optimize import minimize_scalar

    def flow(_t, v):
        s = State(*v)
        return (s.xdot, s.ydot, *eom_rhs(s, p))

    period, samples = 1000.0, 8192
    t = np.arange(samples) * (period / samples)
    sol = solve_ivp(flow, (0.0, period), [x + 1e-6, y + 1e-6, 0.0, 0.0],
                    method="DOP853", t_eval=t, rtol=1e-12, atol=1e-16)
    assert sol.success, sol.message
    signal = np.hanning(samples) * (sol.y[0] - sol.y[0].mean())
    spectrum = np.abs(np.fft.rfft(signal))
    peaks = [k for k in range(1, len(spectrum) - 1)
             if spectrum[k - 1] < spectrum[k] > spectrum[k + 1]]
    step = 2.0 * math.pi / period  # one bin, in angular frequency

    def minus_amplitude(omega):
        return -abs(np.dot(signal, np.exp(-1j * omega * t)))

    found = (float(minimize_scalar(minus_amplitude, method="bounded",
                                   bounds=((k - 1) * step, (k + 1) * step),
                                   options={"xatol": 1e-13}).x)
             for k in sorted(peaks, key=spectrum.__getitem__)[-2:])
    return tuple(sorted(found, reverse=True))


def lagrangian_rhs(s: State, p: ModelParams):
    """Accelerations (xddot, yddot) of the Euler-Lagrange equations of
    `lagrangian`: Coriolis, the potential gradient and the
    angle term's force W1 n (y, -(x+mu))/r1^2."""
    ux, uy = potential_gradient(s, p)
    r1, _ = s.radii(p)
    drag = p.W1 * p.n / (r1 * r1)
    ax = 2.0 * p.n * s.ydot + ux + drag * s.y
    ay = -2.0 * p.n * s.xdot + uy - drag * (s.x + p.mu)
    return ax, ay


def momenta(s: State, p: ModelParams) -> CanonicalState:
    """Canonical momenta px = xdot - n y + W1 (x+mu)/(2 r1^2), py likewise."""
    r1, _ = s.radii(p)
    r1sq = r1 * r1
    x1 = s.x + p.mu
    px = s.xdot - p.n * s.y + 0.5 * p.W1 * x1 / r1sq
    py = s.ydot + p.n * s.x + 0.5 * p.W1 * s.y / r1sq
    return CanonicalState(s.x, s.y, px, py)


def hamiltonian(s: State, p: ModelParams) -> float:
    """H = -L + px*xdot + py*ydot along the same state."""
    c = momenta(s, p)
    return -lagrangian(s, p) + c.px * s.xdot + c.py * s.ydot


def evaluate(poly, xi, eta, xidot, etadot):
    """Value of a `TruncatedPoly` at one point, term by term."""
    vals = (xi, eta, xidot, etadot)
    total = 0.0
    for m, c in poly.coeffs.items():
        term = c
        for v, e in zip(vals, m):
            if e:
                term *= v**e
        total += term
    return total


def series_value(series, i1, i2, phi1, phi2):
    """Value of a `DAlembertSeries` at actions (I1, I2) and angles
    (phi1, phi2)."""
    total = 0.0
    for (j, m, p, q), (c, s) in series.terms.items():
        angle = p * phi1 + q * phi2
        total += i1 ** (j / 2) * i2 ** (m / 2) * (c * math.cos(angle)
                                                  + s * math.sin(angle))
    return total


def delta_operator(series, w):
    """(D^2 + w1^2)(D^2 + w2^2) as two D-polynomials, the round-trip partner
    of `invert_delta` that shares no divisor code with it."""
    inner = apply_poly_in_D(series, w, c0=w.omega1**2, c2=1.0)
    return apply_poly_in_D(inner, w, c0=w.omega2**2, c2=1.0)


def operator_by_composition(matrix, x, y, w):
    """A 2x2 matrix of (c0, c1, c2) D-polynomials applied to (x, y) as four
    `apply_poly_in_D` calls and two sums, the reference for
    `l4norm.normalform._operator_values`."""
    return tuple(apply_poly_in_D(x, w, *a) + apply_poly_in_D(y, w, *b)
                 for a, b in matrix)


def linear_residual_by_operator(b1x, b1y, efg, w, n) -> float:
    """Sup-norm of the linearized equations at a degree-1 pair, read off all
    the parts of `l4norm.normalform._operator_values`, exact zeros kept:
    the bit-for-bit reference for `l4norm.normalform.linear_residual`."""
    _, first, second = normalform._operator_values(
        normalform.linear_operator(efg, n), pair_of(b1x), pair_of(b1y), w)
    return max(map(abs, first + second), default=0.0)


def b1y_print_by_objects(nm) -> DAlembertSeries:
    """The printed B1 for y as its two single terms added, from J21..J24
    and the frequencies, sharing no code with `closedforms.b1y_print`."""
    w = nm.freq
    iq1, iq2 = math.sqrt(2.0 / w.omega1), math.sqrt(2.0 / w.omega2)
    return (DAlembertSeries.single(1, 0, 1, 0, s=nm.J21 * iq1,
                                   c=nm.J23 * math.sqrt(2.0) * w.omega1)
            + DAlembertSeries.single(0, 1, 0, 1, s=nm.J22 * iq2
                                     + nm.J24 * math.sqrt(2.0) * w.omega2))


def linear_front_by_objects(p: ModelParams, options) -> tuple:
    """``(result, printed-weights gap)`` of the chain through b1 on objects:
    the expansion's degree-2 slice, (E, F, G) and J read off it, B1's four
    values from J and its pair of series on them, and the B1 gate and the
    gap at the printed weights (:func:`b1y_print_by_objects`) read off
    the general operator's parts on that pair.  The result holds what
    `run_pipeline` holds through b1, and raises what it raises."""
    res = verify.PipelineResult(p, options, verify.STAGES[:3])
    res.eq_numeric = equilibria.solve_triangular_numeric(p, options.branch)
    res.shift = equilibria.shift_from_point(res.eq_numeric, p)
    res.lagrangian_poly = polyalg.taylor_lagrangian(p, res.shift, 2)
    l2 = homogeneous_part(res.lagrangian_poly, 2)
    res.efg = polyalg.extract_EFG(l2, p)
    w = res.freq = normalform.frequencies(p, res.efg)
    res.moser = moser_check(w, tol=options.moser_tol)
    if not res.moser.passed:
        raise ResonanceError(
            f"Moser condition fails: |{res.moser.worst_pair}| combination = "
            f"{res.moser.min_combination:.3e}", witness=res.moser.worst_pair)
    res.nm = normalform.j_numeric(p, res.efg, w, l2)
    (_, _, j13, j14), (j21, j22, j23, j24), _, _ = res.nm.J
    sq1, sq2 = math.sqrt(2.0 * w.omega1), math.sqrt(2.0 * w.omega2)
    iq1, iq2 = math.sqrt(2.0 / w.omega1), math.sqrt(2.0 / w.omega2)
    x = [0j + complex(j13 * sq1, 0.0), 0j + complex(j14 * sq2, 0.0)]
    y = [0j + complex(j23 * sq1, j21 * iq1), 0j + complex(j24 * sq2, j22 * iq2)]
    res.b1_values = (*x, *y)
    b1x, b1y = (DAlembertSeries._new(normalform._B1, v) for v in (x, y))
    res.b1_residual = linear_residual_by_operator(b1x, b1y, res.efg, w, p.n)
    return res, linear_residual_by_operator(
        b1x, b1y_print_by_objects(res.nm), res.efg, w, p.n)


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
                           - (C[0][1] - C[1][0])**2)
    if not abs(det) <= 1e-6 * (1.0 + omega) * abs(slope):
        raise StabilityDomainError(f"no eigenvalue near i*{omega:.8f}")
    big = max(rows, key=lambda r: abs(r[0])**2 + abs(r[1])**2)
    q0, q1 = big[1], -big[0]
    v = [q0, q1, (1j * omega + C[0][0]) * q0 + C[0][1] * q1,
         C[1][0] * q0 + (1j * omega + C[1][1]) * q1]
    norm = math.sqrt(abs(v[0])**2 + abs(v[1])**2 + abs(v[2])**2 + abs(v[3])**2)
    return [z / norm for z in v]


def hessian_by_loops(K: tuple, C: tuple) -> tuple:
    """Hessian S of H2(q, p) = |p - C q|^2 / 2 - q.K q / 2 with C^T C - K
    formed in a loop, the bit-for-bit reference for
    `l4norm.normalform.hamiltonian_matrix`."""
    ctc = [[C[0][i] * C[0][j] + C[1][i] * C[1][j] - K[i][j] for j in range(2)]
           for i in range(2)]
    return ((*ctc[0], -C[0][0], -C[1][0]),
            (*ctc[1], -C[0][1], -C[1][1]),
            (-C[0][0], -C[0][1], 1.0, 0.0),
            (-C[1][0], -C[1][1], 0.0, 1.0))


def mode_columns_by_lists(mode: int, omega: float, target_sign: float,
                          K: tuple, C: tuple) -> tuple:
    """(Q column, P column) of one mode from :func:`mode_vector` on lists,
    the bit-for-bit reference for `l4norm.normalform._mode_columns`: the
    eigenvector turned so its x component is real, scaled so the
    transformation is symplectic and signed so its P column starts > 0."""
    v = mode_vector(omega, K, C)
    pivot = v[0] if abs(v[0]) > 1e-12 else v[1]
    turn = pivot.conjugate() / abs(pivot)
    v = [z * turn for z in v]
    u, wv = [z.real for z in v], [z.imag for z in v]
    sigma = u[0] * wv[2] + u[1] * wv[3] - u[2] * wv[0] - u[3] * wv[1]
    if sigma * target_sign <= 0.0:
        raise StabilityDomainError(
            f"mode {mode} has symplectic invariant {sigma:.3e}; "
            "quadratic part is not of the expected signature")
    c = 1.0 / math.sqrt(omega * abs(sigma))
    d = -target_sign * c * omega
    pcol, qcol = [c * x for x in u], [d * x for x in wv]
    if pcol[0] < 0.0:
        pcol, qcol = [-x for x in pcol], [-x for x in qcol]
    return qcol, pcol


def j_by_mode_vectors(p: ModelParams, efg, w, l2: TruncatedPoly) -> tuple:
    """``(J, hessian)`` from :func:`mode_columns_by_lists` and
    :func:`hessian_by_loops`, the bit-for-bit reference for
    `l4norm.normalform.j_numeric`."""
    K = normalform.stiffness_matrix(efg, p.n)
    C = normalform.velocity_coupling(l2)
    q1, p1 = mode_columns_by_lists(1, w.omega1, +1.0, K, C)
    q2, p2 = mode_columns_by_lists(2, w.omega2, -1.0, K, C)
    return tuple(zip(q1, q2, p1, p2)), hessian_by_loops(K, C)


def term_product(a: dict, b: dict, cap: int) -> dict:
    """Product of two series given as ``{(j, m, p, q): (cos, sin)}`` dicts,
    by the product-to-sum formulas in real arithmetic; pairs past degree
    `cap` are skipped, and a difference harmonic is canonicalised by
    negating it and its sine."""
    out = {}
    for (j1, m1, p1, q1), (c1, s1) in a.items():
        for (j2, m2, p2, q2), (c2, s2) in b.items():
            if j1 + j2 + m1 + m2 > cap:
                continue
            for p, q, c, s in ((p1 + p2, q1 + q2, c1 * c2 - s1 * s2, c1 * s2 + s1 * c2),
                               (p1 - p2, q1 - q2, c1 * c2 + s1 * s2, s1 * c2 - c1 * s2)):
                if p < 0 or (p == 0 and q < 0):
                    p, q, s = -p, -q, -s
                key = (j1 + j2, m1 + m2, p, q)
                oc, os = out.get(key, (0.0, 0.0))
                out[key] = (oc + 0.5 * c, os + 0.5 * s)
    return out


def substitute_pairwise(poly: TruncatedPoly, args, cap: int) -> DAlembertSeries:
    """A polynomial at four series arguments, sharing no product code with
    `l4norm.normalform.poly_at_series`: per monomial, the coefficient times
    its first factor, multiplied by each further factor in turn with
    :func:`term_product` at the cap, and the monomials summed."""
    terms = [a.terms for a in args]
    total = {}
    for mono, coeff in poly.coeffs.items():
        first, *rest = [i for i, e in enumerate(mono) for _ in range(e)] or [None]
        product = ({(0, 0, 0, 0): (coeff, 0.0)} if first is None else
                   {k: (coeff * c, coeff * s) for k, (c, s) in terms[first].items()})
        for i in rest:
            product = term_product(product, terms[i], cap)
        for key, (c, s) in product.items():
            oc, os = total.get(key, (0.0, 0.0))
            total[key] = (oc + c, os + s)
    return DAlembertSeries(total)


def polynomial_rows(monomials, cap, layouts) -> tuple:
    """The `substitution_rows` of the one polynomial on the layout
    `monomials`, coefficient n at monomial n, as
    `l4norm.dalembert.substitute` lays them out."""
    return substitution_rows((tuple((n, None, m) for n, m in enumerate(
        monomials.keys)),), cap, tuple(layouts))


def substitute_by_kernel(rows, coefficients: list, args) -> list:
    """The series of each output of `rows` (`substitution_rows`) at these
    coefficients and `args`, through one kernel that
    `l4norm.layout.KernelSource` writes of the substitution alone: the
    multi-polynomial kernel of the forcing stage without the stage."""
    k = KernelSource()
    names = [f"a{i}" for i in range(len(args))]
    outputs = k.substitute(rows, [k.unpack(n, a.layout) for n, a in zip(names, args)])
    kernel = k.compile(", ".join(["coefficients", *names]), outputs)
    return [DAlembertSeries._new(layout, values) for (layout, _), values in
            zip(outputs, kernel(coefficients, *(a.values for a in args)))]


def substitute_by_rows(rows, coefficients: list, args) -> list:
    """The series of each output of `rows` (`substitution_rows`) at these
    coefficients and `args`, read off the rows in a loop, the bit-for-bit
    reference for their compiled kernel: per output, ``acc[slot]`` starts
    at 0j and adds each row's product, the one-factor rows first, then the
    two- and three-factor ones, and a (0, 0) harmonic keeps its real
    part."""
    f = [1.0]
    for a in args:
        f += a.values
    f += [z.conjugate() for z in f]
    out = []
    for layout, scales, (rows1, rows2, rows3), zero_slots in rows:
        c = [coefficients[n] * scale if e is None else coefficients[n] * e * scale
             for (n, e), scale in scales]
        acc = [0j] * len(layout.keys)
        for slot, n, a in rows1:
            acc[slot] += c[n] * f[a]
        for slot, n, a, b in rows2:
            acc[slot] += c[n] * f[a] * f[b]
        for slot, n, a, b, d in rows3:
            acc[slot] += c[n] * f[a] * f[b] * f[d]
        for slot in zero_slots:
            acc[slot] = complex(acc[slot].real)  # sin(0) is identically zero
        out.append(DAlembertSeries._new(layout, acc))
    return out


# -- the second-order stages, one series operation at a time -------------


def forcing_by_ops(l3: TruncatedPoly, b1x, b1y, w):
    """`l4norm.normalform.forcing_x2y2` as separate series operations, the
    bit-for-bit reference for its kernel: D B1 by `apply_D`, the five
    substitutions by :func:`substitute_by_rows`, then x2 = x2p - D vx and
    y2 = y2p - D vy as series differences."""
    if any(sum(m) != 3 for m in l3.layout.keys):
        raise ContractError("forcing expects a homogeneous cubic slice")
    args = (b1x, b1y, apply_D(b1x, w), apply_D(b1y, w))
    rows = substitution_rows(normalform._forcing_polys(l3.layout), 3,
                             [a.layout for a in args])
    x2p, y2p, vx, vy, cubic = substitute_by_rows(rows, l3.values, args)
    return ((difference(x2p, apply_D(vx, w)), difference(y2p, apply_D(vy, w))),
            (x2p, y2p), cubic)


def second_order_by_ops(efg, w, n, x2, y2, floor=DIVISOR_FLOOR):
    """`l4norm.normalform.solve_second_order_oracle` as separate series
    operations, the bit-for-bit reference for its kernel: the adjugate by
    `operator_by_composition`, each of its rows divided by `invert_delta`,
    and the scale as four sup norms: ``(b2x, b2y, scale)``."""
    (l11, l12), (l21, l22) = normalform.linear_operator(efg, n)
    neg = lambda entry: tuple(-v for v in entry)
    phi2, psi2 = operator_by_composition(((l22, neg(l12)), (neg(l21), l11)),
                                         x2, y2, w)
    b2x, b2y = invert_delta(phi2, w, floor), invert_delta(psi2, w, floor)
    return b2x, b2y, max(sup(x2), sup(y2), sup(b2x), sup(b2y))


def h3_by_ops(cubic, l2: TruncatedPoly, b1, b2, w):
    """`l4norm.normalform.h3_normal_coefficients` as separate series
    operations, the bit-for-bit reference for its kernel: B1 + B2, D of
    both sums, the :func:`energy` of `l2` substituted at cap 3 by
    :func:`substitute_by_rows`, plus `cubic`, its degree-3 slice, and the
    degree-2 slice minus w1 I1 - w2 I2; each norm by :func:`sup`, the
    grades by :func:`grade`."""
    bx, by = b1[0] + b2[0], b1[1] + b2[1]
    args = (bx, by, apply_D(bx, w), apply_D(by, w))
    e2 = energy(l2)
    rows = polynomial_rows(e2.layout, 3, [a.layout for a in args])
    (total,) = substitute_by_rows(rows, e2.values, args)
    total = total + cubic
    h2_form = DAlembertSeries({(2, 0, 0, 0): (w.omega1, 0.0),
                               (0, 2, 0, 0): (-w.omega2, 0.0)})
    h3 = degree_slice(total, 3)
    return normalform.H3NormalCoefficients(
        h3, sup(difference(degree_slice(total, 2), h2_form)),
        *(sup(grade(h3, j, 3 - j)) for j in (3, 2, 1, 0)), sup(cubic))


# -- the second-order stages on objects ------------------------------------


def forcing_by_objects(l3: TruncatedPoly, b1x, b1y, w):
    """The forcing kernel's call on a cubic slice and B1's pair of series,
    its five results as series: `l4norm.normalform.forcing_x2y2` as it ran
    on objects."""
    layouts, kernel = plan(normalform._forcing_kernel, l3.layout, b1x.layout,
                           b1y.layout)
    x2, y2, x2p, y2p, cubic = map(DAlembertSeries._new, layouts, kernel(
        l3.values, b1x.values, b1y.values, w.omega1, w.omega2))
    return (x2, y2), (x2p, y2p), cubic


def solve_by_objects(efg, w, n, x2, y2, floor=DIVISOR_FLOOR):
    """The solve kernel's call on X2 and Y2 as series, ``(b2x, b2y, scale)``
    with B2 as series: `l4norm.normalform.solve_second_order_oracle` as it
    ran on objects."""
    (l11, l12), (l21, l22) = normalform.linear_operator(efg, n)
    neg = lambda entry: tuple(-v for v in entry)
    layout, kernel = plan(normalform._solve_kernel, x2.layout, y2.layout)
    b2x, b2y, scale = kernel(x2.values, y2.values, w.omega1, w.omega2,
                             ((l22, neg(l12)), (neg(l21), l11)), floor)
    return DAlembertSeries._new(layout, b2x), DAlembertSeries._new(layout, b2y), scale


def h3_by_objects(cubic, l2: TruncatedPoly, b1, b2, w):
    """The H3 kernel's call on the cubic at B1, a quadratic slice, B1's and
    B2's pairs of series, as `H3NormalCoefficients`:
    `l4norm.normalform.h3_normal_coefficients` as it ran on objects."""
    layout, kernel = plan(normalform._h3_kernel, l2.layout, b1[0].layout,
                          b1[1].layout, b2[0].layout, b2[1].layout, cubic.layout)
    values, *norms = kernel(l2.values, b1[0].values, b1[1].values,
                            b2[0].values, b2[1].values, cubic.values,
                            w.omega1, w.omega2)
    return normalform.H3NormalCoefficients(DAlembertSeries._new(layout, values),
                                           *norms)


def second_order_by_objects(p: ModelParams, options) -> tuple:
    """``(x2, y2, cubic, b2, h3, b2_residuals)`` of the chain's b2 and h3
    stages on objects: the front as `run_pipeline` runs it to h3, then the
    expansion's cubic slice and B1's pair of series through
    :func:`forcing_by_objects`, :func:`solve_by_objects` on X2 and Y2, and
    :func:`h3_by_objects` on its quadratic slice, each a series, a tuple or
    a record of series, and the B2 residuals off the operator's values on
    the series.
    The bit-for-bit reference for the chain's plain values and its H3
    record; raises what the chain raises."""
    eq = equilibria.solve_triangular_numeric(p, options.branch)
    lagrangian = polyalg.taylor_lagrangian(p, equilibria.shift_from_point(eq, p), 3)
    efg = polyalg.extract_EFG(lagrangian, p)
    w = normalform.frequencies(p, efg)
    moser = moser_check(w, tol=options.moser_tol)
    if not moser.passed:
        raise ResonanceError(
            f"Moser condition fails: |{moser.worst_pair}| combination = "
            f"{moser.min_combination:.3e}", witness=moser.worst_pair)
    nm = normalform.j_numeric(p, efg, w, lagrangian)
    b1 = b1_series(normalform.b1_values(nm))
    (x2, y2), _, cubic = forcing_by_objects(homogeneous_part(lagrangian, 3), *b1, w)
    b2 = solve_by_objects(efg, w, p.n, x2, y2, options.divisor_floor)
    h3 = h3_by_objects(cubic, homogeneous_part(lagrangian, 2), b1, b2[:2], w)
    layout, rx, ry = normalform._operator_values(
        normalform.linear_operator(efg, p.n), *map(pair_of, b2[:2]), w)
    residuals = (sup_of_difference(layout, rx, pair_of(x2)),
                 sup_of_difference(layout, ry, pair_of(y2)))
    return x2, y2, cubic, b2, h3, residuals


# -- Taylor expansion by series composition ----------------------------


def variable(index: int, cap: int) -> TruncatedPoly:
    """The variable of this index (xi, eta, xidot, etadot) as a polynomial."""
    mono = [0, 0, 0, 0]
    mono[index] = 1
    return TruncatedPoly(cap, {tuple(mono): 1.0})


def _powers(t: TruncatedPoly) -> list:
    """[t, t^2, ..., t^cap], ending early at the first power that vanishes."""
    out = []
    for _ in range(t.cap):
        power = out[-1] * t if out else t
        if not power.values:
            break
        out.append(power)
    return out


def binomial_series(t: TruncatedPoly, *alphas: float) -> tuple:
    """(1 + t)^alpha for each alpha, for a series t with no constant term;
    the powers of t are formed once for all of them."""
    if t._value((0, 0, 0, 0)) != 0.0:
        raise ContractError("binomial pivot requires a series without constant term")
    powers = _powers(t)
    out = []
    for alpha in alphas:
        result = constant(1.0, t.cap)
        coeff = 1.0
        for k, power in enumerate(powers, 1):
            coeff *= (alpha - (k - 1)) / k
            result = result + power * coeff
        out.append(result)
    return tuple(out)


def imag_part(poly: TruncatedPoly) -> TruncatedPoly:
    """The imaginary parts of a complex polynomial's coefficients, exact
    zeros dropped."""
    return TruncatedPoly(poly.cap, {m: c.imag for m, c in poly.coeffs.items()})


def position_part(poly: TruncatedPoly) -> TruncatedPoly:
    """The terms of a polynomial free of velocities."""
    return TruncatedPoly(poly.cap, {m: c for m, c in poly.coeffs.items()
                                    if m[2] + m[3] == 0})


def log1p_series(t: TruncatedPoly) -> TruncatedPoly:
    """log(1 + t) for a series t with no constant term (complex allowed)."""
    if t._value((0, 0, 0, 0)) != 0.0:
        raise ContractError("log pivot requires a series without constant term")
    result = constant(0.0, t.cap)
    for k, power in enumerate(_powers(t), 1):
        result = result + power * ((-1.0) ** (k + 1) / k)
    return result


def taylor_by_composition(p: ModelParams, shift: OriginShift,
                          degree: int) -> TruncatedPoly:
    """The truncated Taylor expansion of the Lagrangian about the shift
    point, by composing four-variable series -- the reference for
    `l4norm.polyalg.taylor_lagrangian`, with which it shares only the
    polynomial type.

    Built by composing truncated series: binomial expansions of 1/r1,
    1/r2, 1/r2^3 and 1/r1^2 on the displacement quadratic, and the
    imaginary part of log(1 + (xi + i eta)/(a + i b)) for the drag angle.

    Parameters
    ----------
    p : ModelParams
    shift : OriginShift
        Expansion pivot, a = x* + mu, b = y*.
    degree : int
        Total-degree cap (>= 3 for the normalization pipeline).
    """
    a, b = shift.a, shift.b
    rho1sq = a * a + b * b
    a2off = a - 1.0
    rho2sq = a2off * a2off + b * b
    if rho1sq < 1e-12 or rho2sq < 1e-12:
        raise ContractError("expansion pivot coincides with a primary")

    cap = degree
    xi = variable(0, cap)
    eta = variable(1, cap)
    xid = variable(2, cap)
    etad = variable(3, cap)

    disp_sq = xi * xi + eta * eta
    t1 = (2.0 * (a * xi + b * eta) + disp_sq) * (1.0 / rho1sq)
    t2 = (2.0 * (a2off * xi + b * eta) + disp_sq) * (1.0 / rho2sq)
    # Composition radius: displacement series must stay inside |t| < 1 at the
    # scale of interest; pivot too near a primary makes rho^-2 blow up.
    r1_half, r1_one = binomial_series(t1, -0.5, -1.0)
    r2_half, r2_three_halves = binomial_series(t2, -0.5, -1.5)
    inv_r1 = r1_half * (rho1sq ** -0.5)
    inv_r1sq = r1_one * (1.0 / rho1sq)
    inv_r2 = r2_half * (rho2sq ** -0.5)
    inv_r2cubed = r2_three_halves * (rho2sq ** -1.5)

    n = p.n
    x_abs = plus(xi, a - p.mu)  # full rotating-frame x
    y_abs = plus(eta, b)

    kinetic = 0.5 * (xid * xid + etad * etad)
    coriolis = n * (x_abs * etad + negated(xid * y_abs))
    centrifugal = 0.5 * (n * n) * (x_abs * x_abs + y_abs * y_abs)
    gravity = ((1.0 - p.mu) * p.q1) * inv_r1 + p.mu * inv_r2 \
        + (0.5 * p.mu * p.A2) * inv_r2cubed

    total = kinetic + coriolis + centrifugal + gravity

    if p.W1 != 0.0:
        z = (xi + eta * 1j) * (1.0 / (a + b * 1j))
        angle = plus(imag_part(log1p_series(z)), math.atan2(b, a))
        radial = (plus(xi, a) * xid + plus(eta, b) * etad) * inv_r1sq
        total = total + p.W1 * (0.5 * radial + negated(n * angle))

    # Constant term must reproduce the pointwise Lagrangian; a mismatch means
    # a composition bug, so it is asserted rather than reported.
    l0 = lagrangian(State(a - p.mu, b, 0.0, 0.0), p)
    drift = abs(total._value((0, 0, 0, 0)) - l0)
    if drift > 1e-9 * max(1.0, abs(l0)):
        raise ContractError(f"constant-term drift {drift:.3e} in Taylor composition")
    return total


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


def _add_radial_powers(dx: float, dy: float, cap: int, *terms):
    """For each ``(target, alpha, scale)``, add scale * r^(2 alpha) to the
    target dict in (xi, eta), where r^2 = (dx + xi)^2 + (dy + eta)^2: the
    binomial series of rho^(2 alpha) (1 + t)^alpha with rho^2 = dx^2 + dy^2
    and t = (2 (dx xi + dy eta) + xi^2 + eta^2) / rho^2.  The powers of t
    are formed once for all the terms."""
    rhosq = dx * dx + dy * dy
    inv = 1.0 / rhosq
    t = {(1, 0): 2.0 * dx * inv, (0, 1): 2.0 * dy * inv, (2, 0): inv, (0, 2): inv}
    powers = [{(0, 0): 1.0}, t]
    while len(powers) <= cap:
        powers.append(_mul2(powers[-1], t, cap))
    for target, alpha, scale in terms:
        coeff = scale * rhosq ** alpha
        for k, power in enumerate(powers):
            for key, c in power.items():
                target[key] = target.get(key, 0.0) + coeff * c
            coeff *= (alpha - k) / (k + 1)


def taylor_by_dicts(p: ModelParams, shift: OriginShift, degree: int) -> TruncatedPoly:
    """The truncated Taylor expansion of the Lagrangian about the shift
    point on ``{key: coefficient}`` dicts, each term added in turn -- the
    bit-for-bit reference for `l4norm.polyalg.taylor_lagrangian`, which
    adds the same terms in the same order along a plan.  Binomial series
    of 1/r1, 1/r1^2, 1/r2 and 1/r2^3 and the log series of the drag angle
    in (xi, eta); the dict's keys, past the cap dropped, come in the order
    the polynomial stores."""
    a, b = shift.a, shift.b
    n, mu, cap = p.n, p.mu, degree
    x, half_n2 = a - mu, 0.5 * n * n
    position = {(2, 0): half_n2, (1, 0): 2.0 * half_n2 * x,
                (0, 0): half_n2 * (x * x + b * b), (0, 2): half_n2,
                (0, 1): 2.0 * half_n2 * b}
    inv_r1sq = {}
    _add_radial_powers(a, b, cap, (position, -0.5, (1.0 - mu) * p.q1),
                       (inv_r1sq, -1.0, 0.5 * p.W1))
    _add_radial_powers(a - 1.0, b, cap, (position, -0.5, mu),
                       (position, -1.5, 0.5 * mu * p.A2))
    coeffs = {(0, 0, 2, 0): 0.5, (0, 0, 0, 2): 0.5, (1, 0, 0, 1): n,
              (0, 0, 0, 1): n * x, (0, 1, 1, 0): -n, (0, 0, 1, 0): -n * b}
    coeffs.update(((i, j, 0, 0), c) for (i, j), c in position.items())
    if p.W1 != 0.0:
        w, wk = 1.0 / complex(a, b), n * p.W1
        coeffs[(0, 0, 0, 0)] -= wk * math.atan2(b, a)
        for k in range(1, cap + 1):
            wk *= -w
            for j in range(k + 1):
                key = (k - j, j, 0, 0)
                coeffs[key] = coeffs.get(key, 0.0) \
                    + (wk * (math.comb(k, j) / k) * 1j ** j).imag
        for (i, j, k, m), lever in (((1, 0, 1, 0), 1.0), ((0, 0, 1, 0), a),
                                    ((0, 1, 0, 1), 1.0), ((0, 0, 0, 1), b)):
            for (e, f), c in inv_r1sq.items():
                if i + j + e + f < cap:
                    key = (i + e, j + f, k, m)
                    coeffs[key] = coeffs.get(key, 0.0) + lever * c
    return TruncatedPoly(cap, coeffs)


def t5_by_products(p: ModelParams, shift: OriginShift) -> tuple:
    """The drag cubic T5 and its printed reading T5_print by multiplying
    out four-variable polynomials -- the reference for the T5 values of
    `l4norm.polyalg.t_coefficients_closed_form`, which forms the same
    bracket's coefficients in straight-line arithmetic."""
    cap = 3
    if p.W1 == 0.0:
        return TruncatedPoly(cap), TruncatedPoly(cap)
    a, b = shift.a, shift.b
    rho2 = a * a + b * b
    xi = variable(0, cap)
    eta = variable(1, cap)
    xid = variable(2, cap)
    etad = variable(3, cap)
    u = a * xi + b * eta
    w = b * xi + negated(a * eta)
    udot = a * xid + b * etad
    ww = w * w
    tail = 2.0 * (xi * xid + eta * etad) * u * rho2
    factor = p.W1 / (2.0 * rho2**3)
    return tuple(homogeneous_part((udot * (brace + negated(ww)) + negated(tail)) * factor, 3)
                 for brace in (3.0 * (u * u), 3.0 * u))


def classical_cubic_symbolic(gamma) -> dict:
    """T1..T4 at eps = A2 = W1 = 0 as exact sympy expressions in the symbol
    `gamma`: the third partial derivatives of the classical potential
    (x^2 + y^2)/2 + (1 - mu)/r1 + mu/r2 at L4, with mu = (1 - gamma)/2."""
    import sympy as sp

    mu, x, y = sp.symbols("mu x y")
    potential = ((x**2 + y**2) / 2 + (1 - mu) / sp.sqrt((x + mu)**2 + y**2)
                 + mu / sp.sqrt((x + mu - 1)**2 + y**2))
    at_l4 = {x: sp.Rational(1, 2) - mu, y: sp.sqrt(3) / 2}
    return {name: sp.expand(sp.simplify(
                sp.diff(potential, x, i, y, j).subs(at_l4).subs(mu, (1 - gamma) / 2)))
            for name, (i, j) in (("T1", (3, 0)), ("T2", (2, 1)),
                                 ("T3", (1, 2)), ("T4", (0, 3)))}


def row_as_written(row, p: ModelParams, scalars: dict) -> float:
    """A row of `closedforms.ROWS` evaluated term by term as printed:
    prefactor times the sum of weight times brace.  `scalars` maps the
    mode-scalar names to values; sqrt 3, gamma, eps and n come from p."""
    scalars = {"s3": math.sqrt(3.0), "g": p.gamma, "e": p.epsilon, "n": p.n,
               **scalars}

    def monomial(coef, spec):
        value = coef
        for factor in spec.split():
            name, _, power = factor.partition("^")
            value *= scalars[name] ** int(power or 1)
        return value

    def brace(c1, ce, ca, cae, nw, nwe):
        (a, b, d), (ae, be, de) = nw or (0, 0, 1), nwe or (0, 0, 1)
        nw1, s3, g, eps = p.n * p.W1, math.sqrt(3.0), p.gamma, p.epsilon
        return (c1 + ce * eps + ca * p.A2 + cae * p.A2 * eps
                + (a + b * g) / (d * s3) * nw1 + (ae + be * g) / (de * s3) * nw1 * eps)

    prefactor, *terms = row
    return monomial(*prefactor) * sum(monomial(coef, spec) * brace(*b)
                                      for coef, spec, b in terms)


def printed_by_groups(names, p: ModelParams, w=None) -> dict:
    """The rows `names` at p, by name, as `l4norm.closedforms.printed`
    evaluated them before its kernels: each group's coefficients times
    BASIS added by `sum`, the groups under their modes added in a loop."""
    modes = [1.0]
    if w is not None:
        l1, l2, k1, k2 = closedforms.mode_scalars(w)
        scalars = dict(n=p.n, w1=w.omega1, w2=w.omega2, l1=l1, k1=k1, l2=l2, k2=k2)
        modes = []
        for mode in closedforms._MODES:
            value = 1.0
            for name, power in mode:
                value *= scalars[name] ** power
            modes.append(value)
    eps, A2, g, u = p.epsilon, p.A2, p.gamma, p.n * p.W1 / math.sqrt(3.0)
    ea, ug, ue = eps * A2, u * g, u * eps
    basis = (1.0, g, A2, A2 * g, eps, eps * g, ea, ea * g,
             u, ug, ug * g, ue, ue * g, ue * g * g)
    out = {}
    for name in names:
        mode, groups = closedforms._EXPANDED[name]
        total = 0.0
        for weight_mode, sums in groups:
            total += modes[weight_mode] * sum(map(mul, sums, basis))
        out[name] = modes[mode] * total
    return out


def audit_gaps_eagerly(res) -> dict:
    """Every gap `l4norm.verify.audit` holds for this result, by key, in
    stage order: each stage's printed forms and their gaps at once."""
    p, branch = res.params, res.options.branch
    gaps = {}
    point_gap = verify._point_gap
    gaps["equilibria.series"] = point_gap(
        res.eq_numeric, equilibria.triangular_series(p, branch))
    gaps["equilibria.epsilon_form"] = point_gap(
        res.eq_numeric, equilibria.epsilon_form(p, branch))
    printed_shift = equilibria.offset_ab(p, branch)
    gaps["offset.a"] = abs(printed_shift.a - res.shift.a)
    gaps["offset.b"] = abs(printed_shift.b - res.shift.b)
    lagrangian = res.lagrangian_poly
    if lagrangian is None:
        return gaps

    if lagrangian.cap < 3:
        lagrangian = polyalg.taylor_lagrangian(p, res.shift, 3)
    for name, gap in zip(polyalg.H3_GAP_NAMES, polyalg.compare_h3(
            lagrangian, polyalg.t_coefficients_closed_form(p, res.shift, branch))):
        gaps[f"cubic.{name}"] = gap
    if res.nm is None:
        return gaps

    j_closed = closedforms.j_closed_form(p, res.freq, branch)
    for name in normalform.J_ENTRIES:
        gaps[f"j.{name}"] = abs(j_closed[name] - getattr(res.nm, name))
    gaps["b1.print_weights"] = linear_residual_by_operator(
        b1_series(res.b1_values)[0], b1y_print_by_objects(res.nm), res.efg, res.freq, p.n)
    if res.b2_values is None:
        return gaps

    rs = closedforms.rs_tables(j_closed, res.freq, closedforms.fg_tables(p, branch),
                               res.options.divisor_floor, branch)
    rs_oracle = dict(zip(normalform.RS_NAMES, verify.oracle_rs_from_series(
        *res.b2_values[:2])))
    for name in normalform.RS_NAMES:
        gaps[f"b2.{name}"] = abs(rs[name] - rs_oracle[name])
    gaps["b2.sup"] = max(gaps[f"b2.{name}"] for name in normalform.RS_NAMES)
    gaps["forcing.partial_only"] = verify.partial_forcing_gap(res)
    return gaps


def reflect(values: dict) -> dict:
    """Printed values by name read on the other branch: `MIRROR_ODD` negated."""
    return {name: -v if name in closedforms.MIRROR_ODD else v for name, v in values.items()}


def printed_by_names(names, p: ModelParams, w=None, branch: str = "L4") -> dict:
    """The rows `names` at p by name, as `l4norm.closedforms.printed` read
    them before its mask: the row kernel's values at branch_sign * W1 in a
    dict, `reflect`ed on L5."""
    sign = branch_sign(branch)
    names = tuple(names)
    scalars = () if w is None else (w.omega1, w.omega2, *closedforms.mode_scalars(w))
    values = dict(zip(names, plan(closedforms._row_kernel, names)(p, sign * p.W1, scalars)))
    return values if sign > 0.0 else reflect(values)


def report_audit_by_names(res) -> dict:
    """What `l4norm.verify.report_audit` computes, by name, as it computed
    it on dicts: the series point (nan where the series leaves its domain),
    the epsilon-form point, the J entries and the F/G entries from three
    `printed_by_names` calls, r1..s10 from `closedforms.rs_tables` on L4 (on
    L5 at J reflected back, the values reflected), those read off B2, and
    the gaps by key; the bit-for-bit reference for the values `Audit` keeps."""
    p, branch = res.params, res.options.branch
    try:
        eq_series = equilibria.triangular_series(p, branch)
    except ParameterError:
        eq_series = equilibria.EquilibriumPoint(math.nan, math.nan, branch,
                                                "series", math.nan)
    v = printed_by_names(("x", "y"), p, branch=branch)
    eq_epsform = equilibria.EquilibriumPoint(
        v["x"], v["y"], branch, "epsilon-form", equilibria.residual_at(v["x"], v["y"], p))
    gaps = {"equilibria.series": verify._point_gap(res.eq_numeric, eq_series),
            "equilibria.epsilon_form": verify._point_gap(res.eq_numeric, eq_epsform)}
    out = {"eq_series": eq_series, "eq_epsform": eq_epsform, "j_closed": None,
           "rs": None, "rs_oracle": None, "gaps": gaps}
    if res.nm is None:
        return out

    out["j_closed"] = j = printed_by_names(normalform.J_ENTRIES, p, res.freq, branch)
    for name in normalform.J_ENTRIES:
        gaps[f"j.{name}"] = abs(j[name] - getattr(res.nm, name))
    if res.b2_values is None:
        return out

    fg = printed_by_names(closedforms.FG_ENTRIES, p, branch=branch)
    floor = res.options.divisor_floor
    if branch == "L4":
        out["rs"] = rs = closedforms.rs_tables(j, res.freq, fg, floor)
    else:
        out["rs"] = rs = reflect(closedforms.rs_tables(reflect(j), res.freq, fg, floor))
    out["rs_oracle"] = oracle = dict(zip(normalform.RS_NAMES, verify.oracle_rs_from_series(
        *res.b2_values[:2])))
    for name in normalform.RS_NAMES:
        gaps[f"b2.{name}"] = abs(rs[name] - oracle[name])
    gaps["b2.sup"] = max(gaps[f"b2.{name}"] for name in normalform.RS_NAMES)
    return out


def congruence_gap_by_rows(J: tuple, M: tuple, target: tuple) -> float:
    """Largest entry of |J^T M J - target| by the generic row-by-column
    loop, the bit-for-bit reference for `l4norm.normalform.congruence_gap`."""
    cols = tuple(zip(*J))
    mj_cols = [[m0 * c0 + m1 * c1 + m2 * c2 + m3 * c3 for m0, m1, m2, m3 in M]
               for c0, c1, c2, c3 in cols]
    return max(abs(a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 - t)
               for (a0, a1, a2, a3), row in zip(cols, target)
               for (b0, b1, b2, b3), t in zip(mj_cols, row))


def _listing_by_fields(series) -> list:
    """The terms of a series, one line each, sorted by (degree, j, p, q),
    every field written on its own with `l4norm.verify.fmt`."""
    terms = sorted(zip(series.layout.keys, series.values),
                   key=lambda term: (_degree(term[0]), term[0][0], term[0][2], term[0][3]))
    fmt = verify.fmt
    return [f"I1^{j}/2 I2^{m}/2 ({p},{q}) cos {fmt(z.real)} sin {fmt(z.imag)}"
            for (j, m, p, q), z in terms]


def render_report_by_fields(res, printed, gates: dict, verdicts=None) -> str:
    """The report as `l4norm.verify.render_report` formed it line by line,
    every field through `verify.fmt` on its own: the header and the gates,
    the [equilibria] rows and the [frequencies] lines, the J and r/s rows
    read by name off the audit's rows, the series listings term by term
    (`_listing_by_fields`) and one row per verdict; the byte-for-byte
    reference for its one planned template."""
    fmt = verify.fmt
    p, opt, stages = res.params, res.options, res.stages
    lines = ["# verification report",
             *(f"{key}: {fmt(getattr(p, key))}"
               for key in ("mu", "q1", "epsilon", "A2", "cd", "W1", "n")),
             f"branch: {fmt(opt.branch)}", f"stages: {','.join(stages)}",
             *(f"tol.{name}: {fmt(getattr(opt, field))}"
               for name, field in verify.TOLERANCES.items()),
             *(f"gate.{name}: {fmt(ok)}" for name, ok in gates.items())]
    if printed.series_outside_domain:
        lines.append(f"series.outside_domain: {printed.series_outside_domain}")
    lines += ["", "[equilibria]", "method,x,y,residual,gap_vs_numeric"]
    for point, gap in zip((res.eq_numeric, printed.eq_series, printed.eq_epsform),
                          (0.0, printed.gaps["equilibria.series"],
                           printed.gaps["equilibria.epsilon_form"])):
        lines.append(f"{point.method},{fmt(point.x)},{fmt(point.y)},"
                     f"{fmt(point.residual)},{fmt(gap)}")
    if "b1" in stages:
        w, moser, nm = res.freq, res.moser, res.nm
        lines += ["", "[frequencies]", f"omega1: {fmt(w.omega1)}",
                  f"omega2: {fmt(w.omega2)}",
                  f"moser.min_combination: {fmt(moser.min_combination)}",
                  f"moser.worst_pair: {moser.worst_pair[0]},{moser.worst_pair[1]}",
                  f"moser.passed: {fmt(moser.passed)}",
                  "", "[normal-modes]", f"symplectic_defect: {fmt(nm.symplectic_defect)}",
                  f"h2_residual: {fmt(nm.h2_residual)}",
                  f"b1_residual: {fmt(res.b1_residual)}", "entry,numeric,closed,abs_gap"]
        closed = dict(zip(normalform.J_ENTRIES, printed.j_rows[1::3]))
        lines += (f"{name},{fmt(getattr(nm, name))},{fmt(closed[name])},"
                  f"{fmt(printed.gaps['j.' + name])}" for name in normalform.J_ENTRIES)
    if res.b2_values is not None:
        residual_x, residual_y = res.b2_residuals
        oracle = dict(zip(normalform.RS_NAMES,
                          verify.oracle_rs_from_series(*res.b2_values[:2])))
        closed = dict(zip(normalform.RS_NAMES, printed.rs_rows[0::3]))
        lines += ["", "[second-order]", f"residual_x: {fmt(residual_x)}",
                  f"residual_y: {fmt(residual_y)}",
                  f"closed_vs_oracle_sup: {fmt(printed.gaps['b2.sup'])}",
                  "coefficient,closed,oracle,abs_gap"]
        lines += (f"{name},{fmt(closed[name])},{fmt(oracle[name])},"
                  f"{fmt(printed.gaps['b2.' + name])}" for name in normalform.RS_NAMES)
        for name, series in zip(("b2x", "b2y"), b2_series(res)):
            lines.append(f"{name}_series:")
            lines += ("  " + line for line in _listing_by_fields(series))
    if res.h3_values is not None:
        h3 = res.h3
        lines += ["", "[h3]", *(f"{name}: {fmt(value)}" for name, value in (
            ("A30", h3.A30), ("A21", h3.A21), ("A12", h3.A12), ("A03", h3.A03),
            ("scale", res.intermediate_scale()), ("h2_form_residual", h3.h2_residual),
            ("ablation_max", h3.ablation_max)))]
        bound = res.h3_bound()
        if res.h3_max() > bound:
            lines.append("h3_series_above_h3_factor_x_scale:")
            lines += ("  " + line for line in _listing_by_fields(h3.series.chop(bound)))
        else:
            lines.append("h3_series_above_h3_factor_x_scale: none")
    if verdicts:
        lines += ["", "[series-vs-oracle]",
                  "quantity,perturbation,gap_h,gap_half,classification"]
        lines += (f"{v.quantity},{v.perturbation},{fmt(v.gap_h)},{fmt(v.gap_half)},"
                  f"{v.classification}" for v in verdicts)
    return "\n".join([*lines, ""])
