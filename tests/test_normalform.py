import itertools
import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from l4norm import closedforms
from l4norm.closedforms import (
    ROWS,
    b1y_print,
    fg_tables,
    j_closed_form,
    mode_scalars,
    printed,
    rs_tables,
)
from l4norm.dalembert import (DAlembertSeries, FrequencyPair, apply_D,
                              substitution_rows)
from l4norm.equilibria import solve_triangular_numeric, shift_from_point
from l4norm.errors import (
    ContractError,
    ConvergenceError,
    CriticalTermError,
    ParameterError,
    SmallDivisorError,
    StabilityDomainError,
)
from l4norm.layout import plan
from l4norm.model import ModelParams
from l4norm.normalform import (
    H3NormalCoefficients,
    NormalModeData,
    _b1_slots,
    _forcing_polys,
    _mode_columns,
    _operator_values,
    b1_values,
    classical_frequencies,
    congruence_gap,
    forcing_x2y2,
    frequencies,
    h3_normal_coefficients,
    hamiltonian_matrix,
    j_numeric,
    linear_operator,
    linear_residual,
    poly_at_series,
    solve_second_order_oracle,
    stiffness_matrix,
    velocity_coupling,
)
from l4norm.polyalg import (
    TruncatedPoly,
    extract_EFG,
    t_coefficients_closed_form,
    taylor_lagrangian,
)

from oracles import (b1_series, b2_series, congruence_gap_by_rows, difference, energy,
                     forcing_series, hessian_by_loops,
                     j_by_mode_vectors,
                     linear_residual_by_operator, mode_columns_by_lists,
                     operator_by_composition, pair_of, partial, polynomial_rows,
                     printed_by_groups, reflect, row_as_written, scaled, series_of,
                     substitute_by_kernel, substitute_by_rows, substitute_pairwise,
                     sup, variable)

SQRT3 = math.sqrt(3.0)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# (mu, q1, A2, cd, branch): both branches, drag-free and with drag, from
# near the small-mu edge to near the critical mass ratio.
LINEAR_POINTS = [
    (mu, q1, a2, cd, branch)
    for mu in (0.0013, 0.01, 0.0243, 0.037)
    for q1, a2, cd in ((1.0, 0.0, 1.0), (0.995, 0.004, 14.0))
    for branch in ("L4", "L5")
]


def linear_stage(p, branch="L4"):
    pt = solve_triangular_numeric(p, branch)
    sh = shift_from_point(pt, p)
    lag = taylor_lagrangian(p, sh, 3)
    efg = extract_EFG(lag, p)
    w = frequencies(p, efg)
    nm = j_numeric(p, efg, w, lag)
    return pt, sh, lag, efg, w, nm


def b1_of(nm):
    """B1's pair of series on its four values."""
    return b1_series(b1_values(nm))


def forcing_of(lag, nm, w):
    """`forcing_x2y2` of an expansion at B1 of `nm`, its five pairs as series."""
    (x2, y2), (x2p, y2p), cubic = forcing_x2y2(lag, b1_values(nm), w)
    return ((series_of(x2), series_of(y2)), (series_of(x2p), series_of(y2p)),
            series_of(cubic))


def solve_of(efg, w, n, x2, y2):
    """`solve_second_order_oracle` on a forcing of series: ``(b2x, b2y,
    scale)``, B2 as series."""
    b2x, b2y, scale = solve_second_order_oracle(efg, w, n, pair_of(x2), pair_of(y2))
    return series_of(b2x), series_of(b2y), scale


def h3_of(cubic, lag, nm, b2, w):
    """`h3_normal_coefficients` on series, at B1 of `nm`, as the record."""
    h3, norms = h3_normal_coefficients(pair_of(cubic), lag, b1_values(nm),
                                       tuple(map(pair_of, b2)), w)
    return H3NormalCoefficients(series_of(h3), *norms)


def largest_grade(h3) -> float:
    """The largest of H3's four grade norms, as `PipelineResult.h3_max` reads it."""
    return max(h3.A30, h3.A21, h3.A12, h3.A03)


def gate_at(x, y, efg, w, n):
    """The B1 gate at a pair of series, each read on B1's two keys through
    their planned slots, as the audit reads the printed B1 for y."""
    xs, ys = x.values + [0j], y.values + [0j]
    values = (*(xs[i] for i in plan(_b1_slots, x.layout)),
              *(ys[j] for j in plan(_b1_slots, y.layout)))
    return linear_residual(values, stiffness_matrix(efg, n), w, n)


class TestFrequencies:
    def test_classical_quartic_roots(self):
        p = ModelParams(mu=0.01)
        _, _, _, efg, w, _ = linear_stage(p)
        ref = classical_frequencies(0.01)
        assert w.omega1 == pytest.approx(ref.omega1, abs=1e-10)
        assert w.omega2 == pytest.approx(ref.omega2, abs=1e-10)
        assert w.omega1 == pytest.approx(0.96332, abs=1e-4)
        assert w.omega2 == pytest.approx(0.26835, abs=1e-4)

    def test_vieta_identities(self):
        for mu in np.linspace(0.001, 0.038, 20):
            p = ModelParams(mu=float(mu))
            _, _, _, efg, w, _ = linear_stage(p)
            assert w.omega1**2 + w.omega2**2 == pytest.approx(1.0, abs=1e-10)
            assert w.omega1**2 * w.omega2**2 == pytest.approx(
                27.0 / 4.0 * mu * (1 - mu), abs=1e-10)

    def test_unstable_mass_ratio_rejected(self):
        p = ModelParams(mu=0.5)
        pt = solve_triangular_numeric(p)
        sh = shift_from_point(pt, p)
        efg = extract_EFG(taylor_lagrangian(p, sh, 2), p)
        with pytest.raises(StabilityDomainError) as err:
            frequencies(p, efg)
        assert err.value.eigenvalues is not None

    def test_unstable_error_carries_the_biquadratic_roots(self):
        p = ModelParams(mu=0.5)
        pt = solve_triangular_numeric(p)
        efg = extract_EFG(taylor_lagrangian(p, shift_from_point(pt, p), 2), p)
        with pytest.raises(StabilityDomainError, match="Delta") as err:
            frequencies(p, efg)
        (k00, k01), (_, k11) = stiffness_matrix(efg, p.n)
        b, det = 4.0 * p.n**2 - k00 - k11, k00 * k11 - k01 * k01
        roots = err.value.eigenvalues
        assert len(roots) == 4 and all(abs(lam.real) > 0.1 for lam in roots)
        for lam in roots:  # lambda = i omega: lambda^4 + b lambda^2 + det K
            assert abs(lam**4 + b * lam**2 + det) < 1e-12

    @pytest.mark.parametrize("point", LINEAR_POINTS)
    def test_against_40_digit_characteristic_roots(self, point):
        # the spectrum of the 4x4 first-order system [[0, I], [K, Omega]]
        # (Omega the 2n gyroscopic block), its characteristic polynomial
        # from Faddeev-LeVerrier and its roots from mpmath, 40 digits
        mu, q1, a2, cd, branch = point
        p = ModelParams(mu=mu, q1=q1, A2=a2, cd=cd)
        _, _, _, efg, w, _ = linear_stage(p, branch)
        with mpmath.workdps(40):
            (k00, k01), (k10, k11) = stiffness_matrix(efg, p.n)
            n2 = 2 * mpmath.mpf(p.n)
            a = mpmath.matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                               [k00, k01, 0, n2], [k10, k11, -n2, 0]])
            coeffs, m = [mpmath.mpf(1)], mpmath.zeros(4, 4)
            for k in range(1, 5):
                m = a * m + coeffs[-1] * mpmath.eye(4)
                coeffs.append(-sum((a * m)[i, i] for i in range(4)) / k)
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=80)
            omegas = sorted((r.imag for r in roots if r.imag > 0), reverse=True)
        assert len(omegas) == 2
        for got, want in zip((w.omega1, w.omega2), omegas):
            assert abs(got - want) <= 2e-14 * want

    @pytest.mark.parametrize("mu", [-0.01, 0.0, 1.0, 1.5, 1e300, math.nan])
    def test_classical_frequencies_refuse_a_mass_ratio_outside_0_1(self, mu):
        # mu (1 - mu) <= 0 leaves the quartic without two positive roots
        with pytest.raises(ParameterError, match="mu must lie in"):
            classical_frequencies(mu)

    def test_boundary_detection_near_critical_mass(self):
        from l4norm.verify import locate_classical_resonance
        mu_c = locate_classical_resonance(1)
        assert mu_c == pytest.approx(0.0385209, abs=1e-6)
        with pytest.raises(StabilityDomainError):
            classical_frequencies(mu_c + 1e-4)
        w = classical_frequencies(mu_c - 1e-4)
        assert w.omega1 == pytest.approx(1 / math.sqrt(2), abs=0.05)


class TestJNumeric:
    def test_classical_matches_printed_structure(self):
        p = ModelParams(mu=0.01)
        _, _, _, _, w, nm = linear_stage(p)
        l1, l2, k1, k2 = mode_scalars(w)
        g = p.gamma
        assert nm.J13 == pytest.approx(l1 / (2 * w.omega1 * k1), rel=1e-11)
        assert nm.J14 == pytest.approx(l2 / (2 * w.omega2 * k2), rel=1e-11)
        assert nm.J21 == pytest.approx(-4 * p.n * w.omega1 / (l1 * k1), rel=1e-11)
        assert nm.J22 == pytest.approx(4 * p.n * w.omega2 / (l2 * k2), rel=1e-11)
        assert nm.J23 == pytest.approx(
            -3 * SQRT3 * g / (2 * w.omega1 * l1 * k1), rel=1e-10)
        assert nm.J24 == pytest.approx(
            -3 * SQRT3 * g / (2 * w.omega2 * l2 * k2), rel=1e-10)

    def test_mode_scalar_identities(self):
        _, _, _, _, w, _ = linear_stage(ModelParams(mu=0.02))
        l1, _, k1, k2 = mode_scalars(w)
        assert l1**2 == pytest.approx(4 * w.omega1**2 + 9, rel=1e-14)
        assert k1**2 == pytest.approx(2 * w.omega1**2 - 1, rel=1e-12)
        assert k2**2 == pytest.approx(1 - 2 * w.omega2**2, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.005, 0.01, 0.02, 0.03])
    def test_symplectic_and_diagonal(self, mu):
        _, _, _, _, _, nm = linear_stage(ModelParams(mu=mu))
        assert nm.symplectic_defect < 1e-10
        assert nm.h2_residual < 1e-10

    def test_x_row_couples_only_to_cosines(self):
        _, _, _, _, _, nm = linear_stage(ModelParams(mu=0.01))
        assert abs(nm.J[0][0]) < 1e-13 and abs(nm.J[0][1]) < 1e-13
        assert nm.J13 > 0 and nm.J14 > 0

    def test_drag_defect_stays_at_roundoff(self):
        # exact eigenvector construction: defect bounded by W1 trivially
        for cd, w1 in ((1e2, 1e-6), (1e1, 1e-5), (1e0, 1e-4)):
            p = ModelParams(mu=0.01, q1=1 - w1 * cd / (1 - 0.01), cd=cd)
            assert p.W1 == pytest.approx(w1, rel=1e-10)
            _, _, _, _, _, nm = linear_stage(p)
            assert nm.symplectic_defect < max(1e-10, w1)

    def test_velocity_rows_consistent_with_momenta_map(self):
        # D B1 must equal the velocity derived from the px, py rows of J
        p = ModelParams(mu=0.01, q1=0.999, cd=20.0)
        pt, sh, lag, efg, w, nm = linear_stage(p)
        b1x, b1y = b1_of(nm)
        vx = apply_D(b1x, w)
        C = velocity_coupling(lag)
        # px-row series: J[2] over (Q1, Q2, P1, P2); v = p - C q at degree 1
        sq1, sq2 = math.sqrt(2 * w.omega1), math.sqrt(2 * w.omega2)
        iq1, iq2 = math.sqrt(2 / w.omega1), math.sqrt(2 / w.omega2)
        px = (DAlembertSeries.single(1, 0, 1, 0, s=nm.J[2][0] * iq1,
                                     c=nm.J[2][2] * sq1)
              + DAlembertSeries.single(0, 1, 0, 1, s=nm.J[2][1] * iq2,
                                       c=nm.J[2][3] * sq2))
        vx_from_p = difference(difference(px, scaled(b1x, C[0][0])), scaled(b1y, C[0][1]))
        assert vx.norm_of_difference(vx_from_p) < 1e-12


def numpy_j_reference(p, efg, w, lag):
    """J from numpy's 4x4 eigenvectors of the linear canonical flow, with
    the phase, scale and sign rules of `j_numeric`."""
    k = np.array(stiffness_matrix(efg, p.n))
    c = np.array(velocity_coupling(lag))
    sigma = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [-np.eye(2), np.zeros((2, 2))]])
    s = np.block([[c.T @ c - k, -c.T], [-c, np.eye(2)]])
    eigvals, eigvecs = np.linalg.eig(sigma @ s)
    columns = []
    for omega, sign in ((w.omega1, 1.0), (w.omega2, -1.0)):
        v = eigvecs[:, np.argmin(np.abs(eigvals - 1j * omega))]
        pivot = v[0] if abs(v[0]) > 1e-12 else v[1]
        v = v * (pivot.conjugate() / abs(pivot))
        inv = float(v.real @ sigma @ v.imag)
        scale = 1.0 / math.sqrt(omega * abs(inv))
        pcol, qcol = scale * v.real, -sign * scale * omega * v.imag
        if pcol[0] < 0.0:
            pcol, qcol = -pcol, -qcol
        columns.append((qcol, pcol))
    return np.column_stack([columns[0][0], columns[1][0],
                            columns[0][1], columns[1][1]])


class TestJAgainstNumpy:
    @pytest.mark.parametrize("point", LINEAR_POINTS)
    def test_matches_numpy_eigenvectors(self, point):
        mu, q1, a2, cd, branch = point
        p = ModelParams(mu=mu, q1=q1, A2=a2, cd=cd)
        _, _, lag, efg, w, nm = linear_stage(p, branch)
        ref = numpy_j_reference(p, efg, w, lag)
        assert np.max(np.abs(np.array(nm.J) - ref)) < 1e-12 * np.max(np.abs(ref))
        assert nm.symplectic_defect < 1e-13

    def test_frequency_off_the_spectrum_rejected(self):
        p = ModelParams(mu=0.01, q1=0.999, cd=20.0)
        _, _, lag, efg, w, _ = linear_stage(p)
        off = FrequencyPair(w.omega1, w.omega2 * (1.0 + 1e-4))
        with pytest.raises(StabilityDomainError, match="no eigenvalue near"):
            j_numeric(p, efg, off, lag)

    def test_frequency_off_the_spectrum_rejected_where_the_modes_are_close(self):
        # w1 0.7193, w2 0.6982: det N's slope at w2 is about -0.043, and a
        # slope that squared omega (c01 - c10) read 2.84 and let a Newton
        # step of 7e-5 pass the 1.7e-6 bound
        p = ModelParams(mu=0.037, q1=0.9989608628622548, A2=0.00390625, cd=1.0)
        _, _, lag, efg, w, _ = linear_stage(p, "L5")
        off = FrequencyPair(w.omega1, w.omega2 * (1.0 + 1e-4))
        with pytest.raises(StabilityDomainError, match="no eigenvalue near"):
            j_numeric(p, efg, off, lag)


def _float_bits(values) -> list:
    """The exact bits of each float, the sign of a zero spelled out."""
    return [(v.hex(), math.copysign(1.0, v)) for v in values]


def _outcome(fn, *args):
    """``("ok", result)`` or the class and message of what `fn` raises."""
    try:
        return "ok", fn(*args)
    except StabilityDomainError as err:
        return type(err).__name__, str(err)


@st.composite
def linear_points(draw):
    """``(p, efg, w, lag)`` at the numeric root over the benchmark's domain:
    mu in [0.0009, 0.037], epsilon <= 0.01, A2 <= 0.005, cd in [1, 100],
    either branch, drag on or off.  A draw where Newton finds no root, or
    a root that is not center x center, has no linear stage and is
    dropped."""
    drag = draw(st.booleans())
    epsilon = draw(st.floats(0.0, 0.01, exclude_min=True)) if drag else 0.0
    p = ModelParams(mu=draw(st.floats(0.0009, 0.037)), q1=1.0 - epsilon,
                    A2=draw(st.floats(0.0, 0.005)), cd=draw(st.floats(1.0, 100.0)))
    try:
        pt = solve_triangular_numeric(p, draw(st.sampled_from(("L4", "L5"))))
    except ConvergenceError:
        assume(False)
    lag = taylor_lagrangian(p, shift_from_point(pt, p), 2)
    efg = extract_EFG(lag, p)
    try:
        w = frequencies(p, efg)
    except StabilityDomainError:
        assume(False)
    return p, efg, w, lag


class TestLinearFrontBitForBit:
    """J, the Hessian, B1 and B1's residual on scalars equal the list-based
    references of `tests/oracles.py` bit for bit, the sign of zero
    included, and raise the same errors with the same messages."""

    @settings(max_examples=80, deadline=None)
    @example(point=None)
    @given(point=linear_points())
    def test_matches_the_reference(self, point):
        if point is None:  # a drag point of the acceptance chain
            p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
            _, _, lag, efg, w, _ = linear_stage(p, "L5")
            point = p, efg, w, lag
        p, efg, w, lag = point
        nm = j_numeric(p, efg, w, lag)
        J, hessian = j_by_mode_vectors(p, efg, w, lag)
        assert _float_bits(sum(nm.J, ())) == _float_bits(sum(J, ()))
        # the blocks the Hessian is formed from, on read, bit for bit
        assert (nm.K, nm.C) == (stiffness_matrix(efg, p.n), velocity_coupling(lag))
        assert _float_bits(sum(hamiltonian_matrix(nm.K, nm.C), ())) == \
            _float_bits(sum(hessian, ()))
        b1 = b1_of(nm)
        reference = b1_of(NormalModeData(w, J, nm.K, nm.C))
        assert [_bits(s) for s in b1] == [_bits(s) for s in reference]
        series = operator_by_composition(linear_operator(efg, p.n), *reference, w)
        assert linear_residual(b1_values(nm), nm.K, w, p.n).hex() == \
            max(map(sup, series)).hex() == \
            linear_residual_by_operator(*reference, efg, w, p.n).hex()
        # off the spectrum, and each mode at the other's sign
        for off in (FrequencyPair(w.omega1, w.omega2 * (1.0 + 1e-4)),
                    FrequencyPair(w.omega1 * (1.0 - 1e-4), w.omega2),
                    SimpleNamespace(omega1=w.omega2, omega2=w.omega1)):
            new, old = (_outcome(f, p, efg, off, lag)
                        for f in (j_numeric, j_by_mode_vectors))
            assert new[0] == old[0] == "StabilityDomainError" and new == old

    def test_congruence_gap_on_arbitrary_matrices(self):
        # the straight-line gap against the generic loop, bit for bit, on
        # seeded 4x4 matrices with zeros of either sign among their entries
        rng = random.Random(41)

        def matrix():
            return tuple(tuple(rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0),
                                           rng.gauss(0.0, 1e-9)))
                               for _ in range(4)) for _ in range(4))

        for _ in range(2000):
            J, M, target = matrix(), matrix(), matrix()
            assert (congruence_gap(J, M, target).hex()
                    == congruence_gap_by_rows(J, M, target).hex())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_each_mode_on_arbitrary_blocks(self, data):
        # K symmetric and C arbitrary, zeros of either sign among them; omega
        # a root of det N, so both rows of N and both signs of sigma occur
        entry = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 3.0))
        k00, k01, k11, c00, c01, c10, c11 = (data.draw(entry) for _ in range(7))
        K, C = ((k00, k01), (k01, k11)), ((c00, c01), (c10, c11))
        assert _float_bits(sum(hamiltonian_matrix(K, C), ())) == \
            _float_bits(sum(hessian_by_loops(K, C), ()))
        # det N = w^4 + b w^2 + det K with b = k00 + k11 - (c01 - c10)^2
        b, det = k00 + k11 - (c01 - c10) ** 2, k00 * k11 - k01 * k01
        disc = b * b - 4.0 * det
        assume(disc > 0.0)
        roots = [r for r in ((-b + math.sqrt(disc)) / 2.0, (-b - math.sqrt(disc)) / 2.0)
                 if r > 1e-6]
        assume(roots)
        for w2 in roots:
            omega = math.sqrt(w2)
            for mode, sign in ((1, 1.0), (2, -1.0)):
                new = _outcome(_mode_columns, mode, omega, sign, K, C)
                old = _outcome(lambda: sum(mode_columns_by_lists(
                    mode, omega, sign, K, C), []))
                if new[0] == "ok":
                    assert old[0] == "ok"
                    assert _float_bits(new[1]) == _float_bits(old[1])
                else:
                    assert new == old


def test_package_runs_without_numpy():
    # a fresh interpreter: importing the package and its CLI and running
    # one h3 pipeline must not import numpy
    code = ("import sys, l4norm, l4norm.cli\n"
            "from l4norm.model import ModelParams\n"
            "res = l4norm.run_pipeline(ModelParams(mu=0.01, q1=0.999, "
            "A2=1e-4, cd=20.0))\n"
            "assert all(res.gates().values())\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


class TestFirstOrder:
    def test_structure(self):
        _, _, _, _, w, nm = linear_stage(ModelParams(mu=0.01))
        b1x, b1y = b1_of(nm)
        assert set(b1x.terms) == {(1, 0, 1, 0), (0, 1, 0, 1)}
        assert all(s == 0.0 for (_, s) in b1x.terms.values())  # pure cosine
        assert set(b1y.terms) == {(1, 0, 1, 0), (0, 1, 0, 1)}

    def test_residual_zero_for_numeric_modes(self):
        p = ModelParams(mu=0.01, q1=0.9995, A2=1e-4, cd=100.0)
        _, _, _, efg, w, nm = linear_stage(p)
        assert linear_residual(b1_values(nm), nm.K, w, p.n) < 1e-10

    def test_closed_form_residual_first_order(self):
        # printed entries: classical exact, first-order brackets are not
        def resid(p):
            _, _, lag, efg, w, _ = linear_stage(p)
            jc = j_closed_form(p, w)
            # B1 reads the first two rows of J, where the printed entries sit
            J = ((None, None, jc["J13"], jc["J14"]),
                 tuple(jc[name] for name in ("J21", "J22", "J23", "J24")), None, None)
            return linear_residual(b1_values(SimpleNamespace(freq=w, J=J)),
                                   stiffness_matrix(efg, p.n), w, p.n)

        assert resid(ModelParams(mu=0.01)) < 1e-12
        ra = resid(ModelParams(mu=0.01, A2=1e-3))
        rb = resid(ModelParams(mu=0.01, A2=5e-4))
        assert ra / rb == pytest.approx(2.0, abs=0.2)

    def test_gate_on_a_pair_lacking_a_key(self):
        # a side that lacks a key reads 0 there, as in the operator's parts
        p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
        _, _, _, efg, w, nm = linear_stage(p, "L5")
        b1x, b1y = b1_of(nm)
        z1, z2 = b1y.values
        one = (DAlembertSeries.single(1, 0, 1, 0, c=z1.real, s=z1.imag),
               DAlembertSeries.single(0, 1, 0, 1, c=z2.real, s=z2.imag))
        pairs = [(b1x, one[0]), (b1x, one[1]), (one[1], b1y), (one[0], one[1]),
                 (one[0], one[0]), (DAlembertSeries(), b1y)]
        for x, y in pairs:
            assert gate_at(x, y, efg, w, p.n).hex() == \
                linear_residual_by_operator(x, y, efg, w, p.n).hex()
        assert gate_at(*pairs[0], efg, w, p.n) > 1e-3

    def test_gate_refuses_a_key_off_b1(self):
        p = ModelParams(mu=0.01)
        _, _, _, efg, w, nm = linear_stage(p)
        b1x, b1y = b1_of(nm)
        off = b1y + DAlembertSeries.single(2, 0, 2, 0, c=1e-3)
        for x, y in ((b1x, off), (off, b1y)):
            with pytest.raises(ContractError, match="B1's two keys"):
                gate_at(x, y, efg, w, p.n)

    def test_verbatim_print_weights_fail_residual(self):
        p = ModelParams(mu=0.01)
        _, _, _, efg, w, nm = linear_stage(p)
        b1x, _ = b1_of(nm)
        assert gate_at(b1x, b1y_print(nm), efg, w, p.n) > 1.0


class TestForcing:
    def setup_method(self):
        p = ModelParams(mu=0.01)
        self.p = p
        _, _, self.lag, self.efg, self.w, self.nm = linear_stage(p)
        self.b1 = b1_of(self.nm)

    def test_single_x_cubed_term(self):
        c = 0.7
        l3 = TruncatedPoly(3, {(3, 0, 0, 0): c})
        (x2, y2), _, _ = forcing_of(l3, self.nm, self.w)
        expected = scaled(self.b1[0] * self.b1[0], 3 * c)
        assert x2.norm_of_difference(expected) < 1e-13
        assert y2.terms == {}

    def test_single_y_cubed_term(self):
        c = -1.1
        l3 = TruncatedPoly(3, {(0, 3, 0, 0): c})
        (x2, y2), _, _ = forcing_of(l3, self.nm, self.w)
        assert x2.terms == {}
        expected = scaled(self.b1[1] * self.b1[1], 3 * c)
        assert y2.norm_of_difference(expected) < 1e-13

    def test_full_support(self):
        (x2, y2), _, _ = forcing_of(self.lag, self.nm, self.w)
        support = {(p, q) for (_, _, p, q) in (*x2.terms, *y2.terms)}
        assert support == {(0, 0), (2, 0), (0, 2), (1, 1), (1, -1)}
        assert max(j + m for (j, m, _, _) in x2.terms) == 2

    def test_forces_nothing_without_cubic_terms(self):
        # the forcing reads only the cubic terms of the polynomial it is given
        (x2, y2), (x2p, y2p), cubic = forcing_of(
            TruncatedPoly(3, {(1, 0, 0, 0): 1.0, (0, 1, 1, 0): 2.0}), self.nm, self.w)
        assert all(s.terms == {} for s in (x2, y2, x2p, y2p, cubic))

    def test_gauge_invariance_of_el_forcing(self):
        # adding an exact total derivative d/dt f3 to the cubic must not
        # change the Euler-Lagrange forcing
        xi = variable(0, 3)
        eta = variable(1, 3)
        xid = variable(2, 3)
        etad = variable(3, 3)
        f3 = xi * xi * eta + -2.0 * (eta * eta * eta)
        gauge = partial(f3, 0) * xid + partial(f3, 1) * etad
        l3 = self.lag.grade(3)
        (x2a, y2a), _, _ = forcing_of(l3, self.nm, self.w)
        (x2b, y2b), _, _ = forcing_of(l3 + gauge, self.nm, self.w)
        assert x2a.norm_of_difference(x2b) < 1e-12
        assert y2a.norm_of_difference(y2b) < 1e-12


def back_substitution(b2, x2, y2, efg, w, n):
    """The B2 residual pair formed eagerly: the linearized equations at
    (B2x, B2y), the first two of `b2`, as composed series, minus the
    forcing as series."""
    rx, ry = operator_by_composition(linear_operator(efg, n), b2[0], b2[1], w)
    return sup(difference(rx, x2)), sup(difference(ry, y2))


class TestSecondOrderOracle:
    def setup_method(self):
        p = ModelParams(mu=0.01)
        self.p = p
        _, _, self.lag, self.efg, self.w, self.nm = linear_stage(p)
        self.b1 = b1_of(self.nm)

    def test_zero_forcing(self):
        zero = DAlembertSeries()
        b2x, b2y, _ = solve_of(self.efg, self.w, self.p.n, zero, zero)
        assert b2x.terms == {} and b2y.terms == {}

    def test_single_harmonic_round_trip(self):
        x2 = DAlembertSeries.single(2, 0, 2, 0, c=1.0)
        y2 = DAlembertSeries()
        sol = solve_of(self.efg, self.w, self.p.n, x2, y2)
        rx, ry = back_substitution(sol, x2, y2, self.efg, self.w, self.p.n)
        assert rx < 1e-12
        assert ry < 1e-12

    def test_full_forcing_residuals(self):
        (x2, y2), _, _ = forcing_of(self.lag, self.nm, self.w)
        sol = solve_of(self.efg, self.w, self.p.n, x2, y2)
        assert max(back_substitution(sol, x2, y2, self.efg, self.w, self.p.n)) < 1e-9
        b2x, b2y, _ = sol
        support = set(b2x.terms) | set(b2y.terms)
        assert support == {(2, 0, 0, 0), (0, 2, 0, 0), (2, 0, 2, 0),
                           (0, 2, 0, 2), (1, 1, 1, 1), (1, 1, 1, -1)}

    def test_critical_forcing_rejected(self):
        # invert_delta is the one guard, at any size of the critical term
        for c in (1e-3, 1e-15):
            bad = DAlembertSeries.single(1, 0, 1, 0, c=c)
            with pytest.raises(CriticalTermError):
                solve_of(self.efg, self.w, self.p.n, bad, DAlembertSeries())


class TestClosedFormTables:
    def test_fg_symmetric_limit(self):
        # gamma = 0 with all perturbations off: only the printed constant
        # terms survive
        p = ModelParams(mu=0.5)
        fg = fg_tables(p)
        assert fg["F1"] == fg["F1p"] == fg["F1pp"] == 0.0
        assert fg["G1"] == fg["G1p"] == fg["G1pp"] == 0.0
        assert fg["F2"] == 0.0
        assert fg["F3"] == pytest.approx((3 * SQRT3 / 16) * 14, rel=1e-14)
        assert fg["F2pp"] == 0.0
        assert fg["F4"] == pytest.approx((-3 / 256) * 364, rel=1e-14)
        assert fg["G2"] == pytest.approx((3 / 32) * 14, rel=1e-14)
        assert fg["G2pp"] == pytest.approx((9 * SQRT3 / 32) * 2, rel=1e-14)
        assert fg["G4pp"] == pytest.approx((-9 * SQRT3 / 256) * 12, rel=1e-14)

    def test_fg_w1_only_entries_vanish_without_drag(self):
        p = ModelParams(mu=0.01, q1=0.999, cd=1e30)  # epsilon > 0, W1 = 0
        fg = fg_tables(p)
        for name in ("F1", "F1p", "F1pp", "G1", "G1p", "G1pp"):
            assert fg[name] == pytest.approx(0.0, abs=1e-30)

    def test_fg_bounded_at_classical_gamma_one(self):
        p = ModelParams(mu=1e-6)
        fg = fg_tables(p)
        assert len(fg) == 24
        for value in fg.values():
            assert abs(value) < 1e3

    def test_s_equals_r_when_tables_coincide(self):
        p = ModelParams(mu=0.01)
        _, _, _, _, w, nm = linear_stage(p)
        jc = j_closed_form(p, w)
        fg = fg_tables(p)
        synthetic = {**fg, **{"G" + name[1:]: value for name, value in fg.items()
                              if name[0] == "F"}}
        rs = rs_tables(jc, w, synthetic)
        assert [rs[f"r{i}"] for i in range(1, 11)] == [rs[f"s{i}"]
                                                       for i in range(1, 11)]

    def test_synthetic_resonance_raises(self):
        p = ModelParams(mu=0.01)
        _, _, _, _, w, _ = linear_stage(p)
        jc = j_closed_form(p, w)
        fg = fg_tables(p)
        resonant = FrequencyPair(0.8, 0.4)  # 4 w2^2 - w1^2 = 0
        with pytest.raises(SmallDivisorError):
            rs_tables(jc, resonant, fg)

    def test_j_closed_classical_collapse(self):
        p = ModelParams(mu=0.01)
        _, _, _, _, w, _ = linear_stage(p)
        jc = j_closed_form(p, w)
        l1, l2, k1, k2 = mode_scalars(w)
        assert jc["J13"] == pytest.approx(l1 / (2 * w.omega1 * k1), rel=1e-14)
        assert jc["J21"] == pytest.approx(-4 * p.n * w.omega1 / (l1 * k1), rel=1e-14)
        assert jc["J22"] == pytest.approx(4 * p.n * w.omega2 / (l2 * k2), rel=1e-14)

    def test_j_closed_first_order_shift(self):
        # entries move at O(epsilon); gap vs numeric is first order (registered)
        def gap(p):
            _, _, _, _, w, nm = linear_stage(p)
            jc = j_closed_form(p, w)
            return abs(jc["J13"] - nm.J13)
        g0 = gap(ModelParams(mu=0.01))
        ga = gap(ModelParams(mu=0.01, q1=1 - 1e-4, cd=1e30))
        gb = gap(ModelParams(mu=0.01, q1=1 - 5e-5, cd=1e30))
        assert g0 < 1e-12
        assert ga / gb == pytest.approx(2.0, abs=0.1)

    def test_printed_evaluates_each_row_as_written(self):
        rng = random.Random(17)
        for _ in range(20):
            p = ModelParams(mu=rng.uniform(0.001, 0.037), q1=1.0 - rng.uniform(0.0, 0.01),
                            A2=rng.uniform(0.0, 0.005), cd=rng.uniform(1.0, 100.0))
            _, _, _, _, w, _ = linear_stage(p)
            l1, l2, k1, k2 = mode_scalars(w)
            scalars = dict(w1=w.omega1, w2=w.omega2, l1=l1, k1=k1, l2=l2, k2=k2)
            values = printed(ROWS, p, w)
            assert list(values) == list(ROWS)
            for name, row in ROWS.items():
                assert values[name] == pytest.approx(
                    row_as_written(row, p, scalars), rel=1e-13, abs=1e-13), name

    @pytest.mark.parametrize("branch", ["L4", "L5"])
    def test_row_kernels_equal_the_summed_groups(self, branch):
        # bit for bit, signed zeros included: drag-free points leave every
        # n W1 column at exactly zero, and a classical point every column
        # but the constant one
        rng = random.Random(23)
        for i in range(40):
            p = (ModelParams(mu=rng.uniform(0.001, 0.037)) if i % 3 == 0 else
                 ModelParams(mu=rng.uniform(0.001, 0.037),
                             q1=1.0 - rng.uniform(0.0, 0.01),
                             A2=rng.uniform(0.0, 0.005) * (i % 3 - 1),
                             cd=rng.uniform(1.0, 100.0) if i % 2 else math.inf))
            w = linear_stage(p, branch)[4]
            names = tuple(name for name in ROWS if not name.startswith("J"))
            for names, freq in ((tuple(ROWS), w), (names, None),
                                (("T4", "x", "F1pp"), None)):
                values = printed(names, p, freq, branch)
                reference = (printed_by_groups(names, p, freq) if branch == "L4"
                             else reflect(printed_by_groups(
                                 names, ModelParams._from_perturbations(
                                     p.mu, p.epsilon, p.A2, -p.W1), freq)))
                assert list(values) == list(names)
                for name in names:
                    assert values[name] == reference[name], name
                    assert (math.copysign(1.0, values[name])
                            == math.copysign(1.0, reference[name])), name

    def test_mode_scalars_raise_at_k_zero(self):
        with pytest.raises(SmallDivisorError):
            mode_scalars(FrequencyPair(1 / math.sqrt(2), 0.2))


class TestH3:
    def run_h3(self, p, ablation=False):
        _, _, lag, efg, w, nm = linear_stage(p)
        (x2, y2), _, cubic = forcing_of(lag, nm, w)
        b2x, b2y, _ = solve_of(efg, w, p.n, x2, y2)
        b2 = (DAlembertSeries(), DAlembertSeries()) if ablation else (b2x, b2y)
        h3 = h3_of(cubic, lag, nm, b2, w)
        scale = max(sup(x2), sup(y2), sup(b2x), sup(b2y))
        return h3, scale

    def test_classical_vanishing(self):
        h3, scale = self.run_h3(ModelParams(mu=0.01))
        assert largest_grade(h3) < 1e-8 * scale
        assert h3.h2_residual < 1e-9

    def test_perturbed_vanishing(self):
        p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=10.0)
        h3, scale = self.run_h3(p)
        assert largest_grade(h3) < 1e-8 * scale

    def test_ablation_has_power(self):
        h3, scale = self.run_h3(ModelParams(mu=0.01), ablation=True)
        assert largest_grade(h3) > 1e3 * 1e-8 * scale

    def test_symmetric_cubic_pipeline(self):
        # gamma = 0 cubic is not reachable through stable parameters; feed a
        # synthetic symmetric cubic through a stable linear stage instead
        p = ModelParams(mu=0.01)
        _, sh, lag, efg, w, nm = linear_stage(p)
        sym = ModelParams(mu=0.5)
        t_sym = t_coefficients_closed_form(sym, shift_from_point(
            solve_triangular_numeric(sym), sym))
        # (1/3!) {T1 x^3 + 3 T2 x^2 y + 3 T3 x y^2 + T4 y^3}; no drag, no T5
        xi, eta = variable(0, 3), variable(1, 3)
        l3 = (t_sym["T1"] * (xi * xi * xi) + (3.0 * t_sym["T2"]) * (xi * xi * eta)
              + (3.0 * t_sym["T3"]) * (xi * eta * eta)
              + t_sym["T4"] * (eta * eta * eta)) * (1.0 / 6.0)
        (x2, y2), _, cubic = forcing_of(l3, nm, w)
        sol = solve_of(efg, w, p.n, x2, y2)
        h3 = h3_of(cubic, lag, nm, sol[:2], w)
        assert largest_grade(h3) < 1e-10

    def test_partial_forcing_leaves_first_order_drag_residue(self):
        from l4norm.verify import partial_forcing_gap, run_pipeline
        p = ModelParams(mu=0.01, q1=0.999, cd=10.0)
        h3a, _ = self.run_h3(p)
        assert largest_grade(h3a) < 1e-10
        assert partial_forcing_gap(run_pipeline(p, stages=("b2",))) > p.W1

    def test_substitution_plans_once_per_shape(self):
        from l4norm.verify import run_pipeline
        p = ModelParams(mu=0.01, q1=0.999, cd=10.0)
        # the chain expands the cubic from the b2 stage on
        res = run_pipeline(p, stages=("b2",))
        l3 = res.lagrangian_poly.grade(3)
        b1x, b1y = b1_series(res.b1_values)
        args = (b1x, b1y, apply_D(b1x, res.freq), apply_D(b1y, res.freq))
        doubled = [scaled(a, 2.0) for a in args]
        for i in range(4):
            poly = partial(l3, i)
            first = poly_at_series(poly, *args, 2)
            misses = plan.cache_info().misses
            again = poly_at_series(poly, *args, cap=2)
            # other values on the same layouts take the same plan: this
            # quadratic form at twice the arguments is four times as large
            quadrupled = poly_at_series(poly, *doubled, 2)
            assert plan.cache_info().misses == misses
            assert first.terms
            assert list(again.terms.items()) == list(first.terms.items())
            assert list(quadrupled.terms.items()) == [
                (key, (4.0 * c, 4.0 * s)) for key, (c, s) in first.terms.items()]

    def test_poly_substitution_values(self):
        # poly_at_series on a known monomial: xi^2 with xi = cos(phi1) grade
        s = DAlembertSeries.single(1, 0, 1, 0, c=2.0)
        zero = DAlembertSeries()
        poly = TruncatedPoly(3, {(2, 0, 0, 0): 1.0})
        out = poly_at_series(poly, s, zero, zero, zero, cap=3)
        assert out.terms == {(2, 0, 0, 0): (2.0, 0.0), (2, 0, 2, 0): (2.0, 0.0)}


# -- the substitution and operator kernels against their references --------


def _chain_points(count: int = 8, seed: int = 11):
    """Seeded (params, branch): mu in [0.001, 0.037], L4 and L5, drag on
    every other point."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        mu = rng.uniform(0.001, 0.037)
        p = (ModelParams(mu=mu, q1=1.0 - rng.uniform(0.0, 0.01),
                         A2=rng.uniform(0.0, 0.005), cd=rng.uniform(1.0, 100.0))
             if i % 2 else ModelParams(mu=mu))
        out.append((p, ("L4", "L5")[i // 2 % 2]))
    return out


def _random_series(rng, nterms: int, max_degree: int = 2):
    """Up to `nterms` random terms of degree <= `max_degree`, the (0, 0)
    harmonic and the constant key among them."""
    keys = [(j, m, p, q) for j in range(max_degree + 1)
            for m in range(max_degree + 1 - j) for p in range(j % 2, j + 1, 2)
            for q in range(-m, m + 1, 2) if p > 0 or q >= 0]
    return DAlembertSeries({key: (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                            for key in rng.sample(keys, nterms)})


def _bits(series):
    """Keys in stored order with the exact bits of each value."""
    return [(key, z.real.hex(), z.imag.hex())
            for key, z in zip(series.layout.keys, series.values)]


def assert_matches_pairwise(poly, args, cap):
    """`poly_at_series` equals the pairwise reference to 1e-13 of the
    output's largest magnitude (a key where either side cancelled to an
    exact zero reads as 0 there), and keeps no sine of a (0, 0) harmonic."""
    out = poly_at_series(poly, *args, cap)
    reference = substitute_pairwise(poly, args, cap)
    assert out.norm_of_difference(reference) <= 1e-13 * sup(reference)
    for j, m, p, q in out.layout.keys:
        if p == q == 0:
            assert out.terms[(j, m, 0, 0)][1] == 0.0
    return out


class TestSubstitutionKernel:
    @pytest.fixture(scope="class", params=_chain_points(),
                    ids=lambda c: f"{c[0].mu:.5f}-{c[1]}-"
                                  f"{'drag' if c[0].W1 else 'free'}")
    def chain(self, request):
        from l4norm.verify import PipelineOptions, run_pipeline
        p, branch = request.param
        return run_pipeline(p, PipelineOptions(branch=branch))

    def test_matches_pairwise_reference_at_chain_points(self, chain):
        lag, w = chain.lagrangian_poly, chain.freq
        l3 = lag.grade(3)
        polys = [partial(l3, i) for i in range(4)]
        polys += [energy(l3), energy(lag.grade(2)), lag]
        b1x, b1y = b1_series(chain.b1_values)
        b2x, b2y = b2_series(chain)
        bx, by = b1x + b2x, b1y + b2y
        for x, y in ((b1x, b1y), (bx, by)):
            args = (x, y, apply_D(x, w), apply_D(y, w))
            for cap in (2, 3):
                for poly in polys:
                    assert_matches_pairwise(poly, args, cap)

    def test_kernels_equal_the_row_loop_at_chain_points(self, chain):
        # every substitution of the chain's polynomials at B1 and at
        # B1 + B2, and the forcing's five in one plan, bit for bit
        lag, w = chain.lagrangian_poly, chain.freq
        l3 = lag.grade(3)
        polys = [partial(l3, i) for i in range(4)]
        polys += [energy(l3), energy(lag.grade(2)), lag]
        b1x, b1y = b1_series(chain.b1_values)
        b2x, b2y = b2_series(chain)
        bx, by = b1x + b2x, b1y + b2y
        for x, y in ((b1x, b1y), (bx, by)):
            args = (x, y, apply_D(x, w), apply_D(y, w))
            layouts = [a.layout for a in args]
            for cap in (2, 3):
                for poly in polys:
                    rows = polynomial_rows(poly.layout, cap, layouts)
                    (reference,) = substitute_by_rows(rows, poly.values, args)
                    assert _bits(poly_at_series(poly, *args, cap)) == _bits(reference)
                rows = substitution_rows(_forcing_polys(l3.layout), cap, layouts)
                assert (list(map(_bits, substitute_by_kernel(rows, l3.values, args)))
                        == list(map(_bits, substitute_by_rows(rows, l3.values, args))))

    def test_fused_forcing_equals_five_substitutions(self, chain):
        # the four partials and the energy in one kernel call, each bit for
        # bit as its own substitution; drag-free, the velocity partials are
        # empty polynomials
        l3, w = chain.lagrangian_poly.grade(3), chain.freq
        b1x, b1y = b1_series(chain.b1_values)
        args = (b1x, b1y, apply_D(b1x, w), apply_D(b1y, w))
        dx, dy, dvx, dvy, e3 = [poly_at_series(poly, *args, 3) for poly in
                                [partial(l3, i) for i in range(4)] + [energy(l3)]]
        rows = substitution_rows(_forcing_polys(l3.layout), 3,
                                 [a.layout for a in args])
        assert (list(map(_bits, substitute_by_kernel(rows, l3.values, args)))
                == list(map(_bits, (dx, dy, dvx, dvy, e3))))
        (x2, y2), (x2p, y2p), cubic = forcing_of(chain.lagrangian_poly, chain.nm, w)
        assert _bits(x2p) == _bits(dx) and _bits(y2p) == _bits(dy)
        assert _bits(x2) == _bits(difference(dx, apply_D(dvx, w)))
        assert _bits(y2) == _bits(difference(dy, apply_D(dvy, w)))
        assert _bits(cubic) == _bits(e3)
        if not chain.params.W1:
            assert partial(l3, 2).values == partial(l3, 3).values == []
            assert dvx.values == dvy.values == []

    def test_matches_pairwise_reference_on_random_series(self):
        rng = random.Random(4)
        monos = [m for m in itertools.product(range(4), repeat=4) if sum(m) <= 3]
        for _ in range(60):
            poly = TruncatedPoly(3, {m: rng.uniform(-1.0, 1.0)
                                     for m in rng.sample(monos, 6)})
            args = [_random_series(rng, rng.randint(0, 5)) for _ in range(4)]
            assert_matches_pairwise(poly, args, rng.choice((2, 3)))

    def test_edge_cases(self):
        s = DAlembertSeries({(1, 0, 1, 0): (2.0, 0.5), (0, 1, 0, 1): (0.3, -1.0)})
        t = DAlembertSeries({(2, 0, 0, 0): (0.7, 0.0), (0, 2, 0, 2): (1.0, 1.0)})
        zero = DAlembertSeries()
        # the constant monomial is the unit series times its coefficient
        out = assert_matches_pairwise(
            TruncatedPoly(3, {(0, 0, 0, 0): 2.5, (1, 0, 0, 0): 1.0}),
            (s, t, s, t), 3)
        assert out.terms[(0, 0, 0, 0)] == (2.5, 0.0)
        # the zero polynomial, and monomials of a zero argument, vanish
        assert poly_at_series(TruncatedPoly(3), s, t, s, t, 3).terms == {}
        assert poly_at_series(TruncatedPoly(3, {(0, 1, 0, 0): 1.0,
                                                (1, 2, 0, 0): 1.0}),
                              s, zero, s, t, 3).terms == {}
        # an argument holding a (0, 0) harmonic: no sine is kept on one
        for poly in (TruncatedPoly(3, {(2, 0, 0, 0): 1.0, (1, 1, 0, 0): -0.5}),
                     TruncatedPoly(3, {(0, 3, 0, 0): 1.0, (1, 0, 0, 1): 2.0}),
                     TruncatedPoly(3, {(0, 1, 1, 1): 1.0})):
            assert_matches_pairwise(poly, (s, t, t, scaled(s, -1.0)), 3)
            assert_matches_pairwise(poly, (t, t, t, t), 2)
        with pytest.raises(ContractError):
            poly_at_series(TruncatedPoly(4, {(2, 2, 0, 0): 1.0}), s, s, s, s, 4)


class TestOperatorKernel:
    """`_operator_values` in one pass equals four `apply_poly_in_D` calls
    and two sums, bit for bit in each (cos, sin) part, on the keys of
    x + y: exactly zero where the composition stores no key."""

    @staticmethod
    def assert_equal(matrix, x, y, w):
        layout, *rows = _operator_values(matrix, pair_of(x), pair_of(y), w)
        reference = operator_by_composition(matrix, x, y, w)
        for parts, series in zip(rows, reference):
            assert set(series.layout.keys) <= set(layout.keys)
            assert [part.hex() for part in parts] == [
                part.hex() for z in map(series._value, layout.keys)
                for part in (z.real, z.imag)]

    def test_at_chain_points(self):
        from l4norm.verify import PipelineOptions, run_pipeline
        for p, branch in _chain_points():
            res = run_pipeline(p, PipelineOptions(branch=branch))
            op = linear_operator(res.efg, p.n)
            (l11, l12), (l21, l22) = op
            adjugate = ((l22, tuple(-v for v in l12)),
                        (tuple(-v for v in l21), l11))
            for matrix, (x, y) in ((op, b1_series(res.b1_values)),
                                   (adjugate, forcing_series(res)[:2]),
                                   (op, b2_series(res))):
                self.assert_equal(matrix, x, y, res.freq)

    def test_on_random_series(self):
        # zero entries leave exact zeros (the (0, 0) harmonic under a bare
        # D) that the composition prunes before its sum
        rng = random.Random(9)
        w = FrequencyPair(0.9633268056899441, 0.26834972742935684)
        for _ in range(60):
            matrix = tuple(tuple(tuple(rng.choice((0.0, rng.uniform(-2.0, 2.0)))
                                       for _ in range(3)) for _ in range(2))
                           for _ in range(2))
            x, y = (_random_series(rng, rng.randint(0, 6), 3) for _ in range(2))
            self.assert_equal(matrix, x, y, w)

    def test_linear_residual_is_the_sup_norm_of_the_series(self):
        # in closed form on B1's two harmonics, the gate equals the sup
        # norm of the pruned series bit for bit; the drag points hold an
        # exact zero in the residual at some mass ratios
        from l4norm.verify import PipelineOptions, run_pipeline
        points = _chain_points() + [
            (ModelParams(mu=mu, q1=0.999, A2=1e-4, cd=20.0), "L4")
            for mu in (0.00445, 0.0044945, 0.004539, 0.0045835)]
        for p, branch in points:
            res = run_pipeline(p, PipelineOptions(branch=branch),
                               stages=("b1",))
            op, (b1x, b1y) = linear_operator(res.efg, p.n), b1_series(res.b1_values)
            for y in (b1y, b1y_print(res.nm)):
                series = operator_by_composition(op, b1x, y, res.freq)
                gate = gate_at(b1x, y, res.efg, res.freq, p.n)
                assert gate.hex() == max(map(sup, series)).hex()

    def test_b2_residuals_equal_the_eager_back_substitution(self):
        # read off the operator's values along the sum plan, no series
        # formed, the pair equals the composed series minus the forcing
        # bit for bit, at drag-free points where H3 cancels and at drag
        from l4norm.verify import PipelineOptions, run_pipeline
        points = _chain_points() + [
            (ModelParams(mu=mu, q1=0.999, A2=1e-4, cd=20.0), "L4")
            for mu in (0.00445, 0.0044945, 0.004539, 0.0045835)]
        for p, branch in points:
            res = run_pipeline(p, PipelineOptions(branch=branch),
                               stages=("b2",))
            eager = back_substitution(b2_series(res), *forcing_series(res)[:2],
                                      res.efg, res.freq, p.n)
            assert [r.hex() for r in res.b2_residuals] == [r.hex() for r in eager]
