"""Outcome census over the benchmark's domain, the four points where the
equilibrium solve goes wrong (ROADMAP item 1), and the Newton solve
against its two-call reference over both.

The census draws seeded points over the bounds that `perfbench/gen.py`
declares, read from that file, with drag on every draw and the branches
alternating, and runs each through the whole chain and its gates.  Each
draw must end in a result or an `L4NormError`: an untyped exception
fails it.  The four regression points are marked as expected failures,
strictly, so the change that mends them has to remove the marks: two run
the whole chain, and two only the equilibria stage, which must refuse
the point or return a triangular root.  Over the census draws, with and
without drag, on both branches, and at the four points, the solve must
end as `oracles.newton_by_two_calls` ends, bit for bit; over the same
kinds of draws the b1 front, on plain values, must end as
`oracles.linear_front_by_objects` ends on a degree-2 slice and B1's
series, bit for bit: (E, F, G), the frequencies, Moser, J, K, C, B1's
four values, the B1 gate, the gates and the gap at the printed weights.
Over the same kinds of draws the b2 and h3 stages, on plain values, must end as
`oracles.second_order_by_objects` ends on the expansion's slices and B1's
series, bit for bit: X2, Y2, the cubic at B1, B2 with its scale, H3's
slice and six norms, and the B2 residuals, the result's pairs viewed as
series.  Over the same kinds of draws, stopped at b1, b2 and h3, the audit
the report prints, on values, must hold what
`oracles.report_audit_by_names` computes on dicts, bit for bit, the
straight-line congruence gaps must equal the generic loop's, and the
report, one planned template, must be the bytes that
`oracles.render_report_by_fields` writes field by field.  Over draws on
both branches, half of them drag-free, each chain stopped at taylor and
re-expanded to cap 3 as the audit does, the printed cubic on values must
hold what the object path computes, bit for bit: the T5 values the
coefficients of `oracles.t5_by_products`, and the six cubic gaps those
taken on the expansion's slices as polynomials.
"""

import importlib
import math
import random
from pathlib import Path

import pytest

from l4norm.dalembert import DAlembertSeries
from l4norm.equilibria import solve_triangular_numeric
from l4norm.errors import ContractError, ConvergenceError, DomainError, L4NormError
from l4norm.model import ModelParams
from l4norm.normalform import (J_ENTRIES, RS_NAMES, SIGMA, congruence_gap,
                               hamiltonian_matrix)
from l4norm.polyalg import T5_KEYS, compare_h3, t_coefficients_closed_form, taylor_lagrangian
from l4norm.verify import (PipelineOptions, audit, render_report, report_audit,
                           run_pipeline)
from objectpath import TruncatedPoly
from oracles import (b2_series, congruence_gap_by_rows, difference, forcing_series,
                     homogeneous_part, linear_front_by_objects, newton_by_two_calls,
                     oracle_t1_t4, render_report_by_fields, report_audit_by_names,
                     second_order_by_objects, sup, t5_by_products, velocity_part)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DRAWS = 400

# ROADMAP item 1's points, (params, branch): Newton from the L4 seed ends
# on the wrong side of the axis; it fails past the fold; from the L5 seed
# it ends at a collinear root; and it fails at a drag point on L4.
WRONG_SIDE = (ModelParams(mu=0.0014963148361835633, q1=1.0 - 0.008553474090590698,
                          A2=7.443163613939597e-05, cd=4.162845601367141), "L4")
PAST_THE_FOLD = (ModelParams(mu=0.0022221, q1=1.0 - 0.0043166, A2=0.0018460,
                             cd=1.0331), "L4")
COLLINEAR_L5 = (ModelParams(mu=0.0017410, q1=1.0 - 0.0071130, A2=0.0044990,
                            cd=1.1966), "L5")
NO_CONVERGENCE_L4 = (ModelParams(mu=0.0071606, q1=0.99030, A2=0.0024521,
                                 cd=1.8293), "L4")


def census_points(gen, count: int, seed: int = 0):
    """(params, branch) per draw: mu, epsilon, A2 and cd uniform over the
    bounds of the module `gen` (perfbench/gen.py), epsilon never 0, L4 and
    L5 in turn."""
    rng = random.Random(seed)
    for i in range(count):
        mu = rng.uniform(gen.MU_MIN, gen.MU_MAX)
        epsilon = gen.EPS_MAX * (1.0 - rng.random())  # in (0, EPS_MAX]
        p = ModelParams(mu=mu, q1=1.0 - epsilon, A2=rng.uniform(0.0, gen.A2_MAX),
                        cd=rng.uniform(gen.CD_MIN, gen.CD_MAX))
        yield p, ("L4", "L5")[i % 2]


def outcome(p: ModelParams, branch: str) -> str:
    """``"ok"`` with the gates read, or the class name of the typed error."""
    try:
        run_pipeline(p, PipelineOptions(branch=branch)).gates()
    except L4NormError as err:
        return type(err).__name__
    return "ok"


def test_every_draw_ends_in_a_result_or_a_typed_error(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    outcomes = [outcome(p, branch) for p, branch in census_points(gen, DRAWS)]
    assert len(outcomes) == DRAWS
    assert outcomes.count("ok") > DRAWS // 2


def on_branch_side_or_refused(p: ModelParams, branch: str):
    """The chain either refuses the point as outside the domain or ends at
    a root on the branch's side of the axis (L4: y > 0, L5: y < 0)."""
    try:
        res = run_pipeline(p, PipelineOptions(branch=branch))
    except DomainError:
        return
    assert (res.eq_numeric.y > 0.0) == (branch == "L4")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_wrong_side_root_is_not_answered():
    # Newton from the L4 seed ends at y = -0.641, past the fold in W1, and
    # every gate passes there
    on_branch_side_or_refused(*WRONG_SIDE)


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="ROADMAP item 1")
def test_no_generic_convergence_error_past_the_fold():
    # Newton from the L4 seed fails after 100 iterations, with no stage or
    # reason named
    on_branch_side_or_refused(*PAST_THE_FOLD)


def equilibrium_on_branch_side_or_refused(p: ModelParams, branch: str):
    """The equilibria stage alone either refuses the point as outside the
    domain or returns a root off the axis, |y| >= 0.1, on the branch's
    side; a collinear root near the axis is not a triangular point."""
    try:
        res = run_pipeline(p, PipelineOptions(branch=branch),
                           stages=("equilibria",))
    except DomainError:
        return
    y = res.eq_numeric.y
    assert abs(y) >= 0.1 and (y > 0.0) == (branch == "L4"), y


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_no_collinear_root_on_l5():
    # Newton from the L5 seed ends at the collinear root (0.9005, -0.0019);
    # the chain refuses only later, at b1, with StabilityDomainError
    equilibrium_on_branch_side_or_refused(*COLLINEAR_L5)


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="ROADMAP item 1")
def test_no_generic_convergence_error_at_the_equilibria_stage():
    # Newton from the L4 seed fails after 100 iterations, with no stage or
    # reason named
    equilibrium_on_branch_side_or_refused(*NO_CONVERGENCE_L4)


def newton_ending(solve, p: ModelParams, branch: str) -> tuple:
    """The root and residual in hex, or the error's class and message."""
    try:
        point = solve(p, branch)
    except L4NormError as err:
        return type(err), str(err)
    return point.x.hex(), point.y.hex(), point.residual.hex()


def test_newton_matches_the_two_call_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    points = [WRONG_SIDE, PAST_THE_FOLD, COLLINEAR_L5, NO_CONVERGENCE_L4]
    for p, _ in census_points(gen, DRAWS, seed=1):
        free = ModelParams(mu=p.mu, q1=p.q1, A2=p.A2, cd=math.inf)
        points += [(q, branch) for q in (p, free) for branch in ("L4", "L5")]
    endings = [(newton_ending(solve_triangular_numeric, p, branch),
                newton_ending(newton_by_two_calls, p, branch)) for p, branch in points]
    assert len(endings) == 4 * DRAWS + 4
    assert [new for new, _ in endings] == [old for _, old in endings]
    # the draws reach both endings, and the four points include failures
    assert {len(new) for new, _ in endings} == {2, 3}


def _bits(value):
    """`value` with each float spelled in hex, into tuples and series."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, DAlembertSeries):
        return value.layout.keys, _bits(value.values)
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    return value


def _front(res, print_weights) -> tuple:
    """What the b1 front formed, hex-spelled, the error's text aside."""
    return _bits((tuple(res.efg), tuple(res.freq), tuple(res.moser), res.nm.J,
                  res.nm.K, res.nm.C, res.b1_values, res.b1_residual, print_weights,
                  tuple(res.gates().items())))


def test_b1_front_matches_the_object_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    compared, endings = set(), []
    for p, _ in census_points(gen, DRAWS, seed=2):
        free = ModelParams(mu=p.mu, q1=p.q1, A2=p.A2, cd=math.inf)
        for q, branch in ((q, branch) for q in (p, free) for branch in ("L4", "L5")):
            options = PipelineOptions(branch=branch)
            try:
                res = run_pipeline(q, options, stages=("b1",))
                new = _front(res, audit(res).gaps["b1.print_weights"])
            except L4NormError as err:
                new = type(err).__name__, str(err)
            try:
                old = _front(*linear_front_by_objects(q, options))
            except L4NormError as err:
                old = type(err).__name__, str(err)
            assert new == old, (q, branch)
            endings.append(len(new))
            if len(new) > 2:
                efg = run_pipeline(q, options, stages=("taylor",)).efg
                assert _bits(tuple(efg)) == new[0]
                compared.add((branch, q.W1 > 0.0))
    assert len(endings) == 4 * DRAWS
    # both branches, with and without drag, reached the gate
    assert compared == {(b, drag) for b in ("L4", "L5") for drag in (False, True)}


def test_second_order_matches_the_object_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    compared, endings = set(), []
    for p, _ in census_points(gen, DRAWS, seed=3):
        free = ModelParams(mu=p.mu, q1=p.q1, A2=p.A2, cd=math.inf)
        for q, branch in ((q, branch) for q in (p, free) for branch in ("L4", "L5")):
            options = PipelineOptions(branch=branch)
            try:
                res = run_pipeline(q, options)
                new = _bits((*forcing_series(res), (*b2_series(res), res.b2_values[2]),
                             tuple(res.h3), res.b2_residuals))
            except L4NormError as err:
                new = type(err).__name__, str(err)
            try:
                x2, y2, cubic, b2, h3, residuals = second_order_by_objects(q, options)
                old = _bits((x2, y2, cubic, tuple(b2), tuple(h3), residuals))
            except L4NormError as err:
                old = type(err).__name__, str(err)
            assert new == old, (q, branch)
            endings.append(len(new))
            if len(new) > 2:
                compared.add((branch, q.W1 > 0.0))
    assert len(endings) == 4 * DRAWS
    # both branches, with and without drag, reached H3
    assert compared == {(b, drag) for b in ("L4", "L5") for drag in (False, True)}


def _audit_bits(printed, keys) -> tuple:
    """The report's part of an `Audit`, with its gaps at `keys`, as
    `oracles.report_audit_by_names` lays it out, hex-spelled."""
    return _bits((tuple(printed.eq_series), tuple(printed.eq_epsform),
                  printed.j_rows and tuple(zip(J_ENTRIES, printed.j_rows[1::3])),
                  printed.rs_rows and tuple(zip(RS_NAMES, printed.rs_rows[0::3])),
                  printed.rs_rows and tuple(zip(RS_NAMES, printed.rs_rows[1::3])),
                  tuple((key, printed.gaps[key]) for key in keys)))


def test_report_audit_matches_the_name_keyed_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    compared = set()
    for p, _ in census_points(gen, DRAWS, seed=4):
        free = ModelParams(mu=p.mu, q1=p.q1, A2=p.A2, cd=math.inf)
        for q, branch in ((q, branch) for q in (p, free) for branch in ("L4", "L5")):
            for stage in ("b1", "b2", "h3"):
                try:
                    res = run_pipeline(q, PipelineOptions(branch=branch), stages=(stage,))
                except L4NormError:
                    continue
                try:
                    old = report_audit_by_names(res)
                except L4NormError as err:
                    old = type(err).__name__, str(err)
                else:
                    keys = tuple(old["gaps"])
                    old = _bits((tuple(old["eq_series"]), tuple(old["eq_epsform"]),
                                 *(old[name] and tuple(old[name].items())
                                   for name in ("j_closed", "rs", "rs_oracle")),
                                 tuple(old["gaps"].items())))
                for audited in (report_audit, audit):
                    try:
                        printed = audited(res)
                        new = _audit_bits(printed, keys)
                    except L4NormError as err:
                        new = type(err).__name__, str(err)
                    assert new == old, (q, branch, stage, audited.__name__)
                if len(old) > 2:
                    assert tuple(report_audit(res).gaps) == keys
                    compared.add((branch, q.W1 > 0.0, stage))
    # both branches, with and without drag, at each stage
    assert compared == {(b, drag, stage) for b in ("L4", "L5") for drag in (False, True)
                        for stage in ("b1", "b2", "h3")}


def test_the_report_matches_the_field_by_field_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    compared = set()
    for p, _ in census_points(gen, DRAWS):
        free = ModelParams(mu=p.mu, q1=p.q1, A2=p.A2, cd=math.inf)
        for q, branch in ((q, branch) for q in (p, free) for branch in ("L4", "L5")):
            for stage in ("b1", "b2", "h3"):
                try:
                    res = run_pipeline(q, PipelineOptions(branch=branch), stages=(stage,))
                    printed = report_audit(res)
                except L4NormError:
                    continue
                gates = res.gates()
                assert (render_report(res, printed, gates)
                        == render_report_by_fields(res, printed, gates)), (q, branch, stage)
                compared.add((branch, q.W1 > 0.0, stage))
    assert compared == {(b, drag, stage) for b in ("L4", "L5") for drag in (False, True)
                        for stage in ("b1", "b2", "h3")}


def test_congruence_gaps_match_the_generic_loop(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    compared = 0
    for p, branch in census_points(gen, DRAWS, seed=5):
        free = ModelParams(mu=p.mu, q1=p.q1, A2=p.A2, cd=math.inf)
        for q in (p, free):
            try:
                res = run_pipeline(q, PipelineOptions(branch=branch), stages=("b1",))
            except L4NormError:
                continue
            nm, w = res.nm, res.freq
            target = ((w.omega1**2, 0.0, 0.0, 0.0), (0.0, -w.omega2**2, 0.0, 0.0),
                      (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, -1.0))
            for M, goal in ((SIGMA, SIGMA), (hamiltonian_matrix(nm.K, nm.C), target)):
                assert (congruence_gap(nm.J, M, goal).hex()
                        == congruence_gap_by_rows(nm.J, M, goal).hex()), (q, branch)
            compared += 1
    assert compared > DRAWS


def test_the_cubic_on_values_matches_the_object_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    compared = set()
    for i, (p, branch) in enumerate(census_points(gen, DRAWS, seed=6)):
        q = p if i % 4 < 2 else ModelParams(mu=p.mu, q1=p.q1, A2=p.A2, cd=math.inf)
        try:
            res = run_pipeline(q, PipelineOptions(branch=branch), stages=("taylor",))
        except L4NormError:
            continue
        closed = t_coefficients_closed_form(q, res.shift, branch)
        # the chain's own expansion holds no cubic to compare
        with pytest.raises(ContractError, match="not cap 2$"):
            compare_h3(res.lagrangian_poly, closed)
        lagrangian = taylor_lagrangian(q, res.shift, 3)
        for values, reference in zip(closed[4:], t5_by_products(q, res.shift)):
            assert (_bits(sorted((m, c) for m, c in zip(T5_KEYS, values) if c))
                    == _bits(sorted(reference.coeffs.items()))), (q, branch)
        l3 = homogeneous_part(lagrangian, 3)
        velocity = velocity_part(l3)
        gaps = (*(abs(c - o) for c, o in zip(closed, oracle_t1_t4(l3))),
                *(sup(difference(TruncatedPoly(3, dict(zip(T5_KEYS, t5))), velocity))
                  for t5 in closed[4:]))
        assert _bits(compare_h3(lagrangian, closed)) == _bits(gaps), (q, branch)
        compared.add((branch, q.W1 > 0.0))
    # both branches, with and without drag
    assert compared == {(b, drag) for b in ("L4", "L5") for drag in (False, True)}
