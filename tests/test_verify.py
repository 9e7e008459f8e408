import importlib.util
import math
import operator
import random
import subprocess
import sys
from pathlib import Path

import pytest

from l4norm import closedforms, dalembert, equilibria, layout, normalform, verify
from l4norm.closedforms import MIRROR_ODD, printed
from l4norm.dalembert import DAlembertSeries, apply_D
from l4norm.errata import KNOWN_DISCREPANCIES, is_registered
from l4norm.errors import L4NormError, ParameterError, ResonanceError, SmallDivisorError
from l4norm.layout import PLAN_TABLE_SIZE, Store, plan
from l4norm.model import ModelParams
from l4norm.normalform import (
    J_ENTRIES,
    RS_NAMES,
    RS_SLOTS,
    SIGMA,
    H3NormalCoefficients,
    classical_frequencies,
    congruence_gap,
    forcing_x2y2,
    h3_normal_coefficients,
    hamiltonian_matrix,
    poly_at_series,
    solve_second_order_oracle,
    stiffness_matrix,
    velocity_coupling,
)
from l4norm.polyalg import TruncatedPoly, oracle_t_coefficients
from l4norm.verify import (
    GATING_KEYS,
    HALVING_STRENGTH,
    PERTURBATIONS,
    PipelineOptions,
    audit,
    detect_discrepancies,
    locate_classical_resonance,
    oracle_rs_from_series,
    partial_forcing_gap,
    STAGES,
    render_report,
    report_audit,
    run_pipeline,
    single_perturbation_params,
)

from oracles import (audit_gaps_eagerly, b1_series, b2_series, degree_slice, difference,
                     energy, forcing_series, grade, negated, operator_by_composition,
                     pair_of, partial, position_part, product, reflect, scaled,
                     series_of, sup, t5_by_products)


class TestPipeline:
    def test_stage_subsets(self):
        p = ModelParams(mu=0.01)
        res = run_pipeline(p, stages=("equilibria",))
        assert res.eq_numeric is not None and res.freq is None
        res = run_pipeline(p, stages=("taylor",))
        assert res.efg is not None and res.freq is None
        res = run_pipeline(p, stages=("b1",))
        assert res.nm is not None and res.b2_values is None
        res = run_pipeline(p, stages=("h3",))
        assert res.h3 is not None

    @pytest.mark.parametrize("stages, named", [
        (("b1", "h4"), "'h4'"), (("warp", "b1"), "'warp'"), ((), "empty")],
        ids=["h4", "warp", "empty"])
    def test_unknown_or_empty_stage_list_is_refused(self, stages, named):
        # a misspelt stage is refused by name, not dropped
        with pytest.raises(ParameterError, match=named):
            run_pipeline(ModelParams(mu=0.01), stages=stages)

    def test_gates_all_pass_classical(self):
        res = run_pipeline(ModelParams(mu=0.01))
        gates = res.gates()
        assert gates and all(gates.values())

    def test_moser_gate_refuses_resonant_mu(self):
        mu_res = locate_classical_resonance(2)
        with pytest.raises(ResonanceError) as err:
            run_pipeline(ModelParams(mu=mu_res), stages=("b1",))
        assert err.value.witness is not None

    def test_gate_failure_with_absurd_tolerance(self):
        opts = PipelineOptions(h3_tol_factor=1e-30)
        res = run_pipeline(ModelParams(mu=0.01), opts)
        assert not res.gates()["h3-vanishing"]

    def test_report_determinism(self):
        ra = run_pipeline(ModelParams(mu=0.01))
        rb = run_pipeline(ModelParams(mu=0.01))
        a = render_report(ra, audit(ra), ra.gates())
        b = render_report(rb, audit(rb), rb.gates())
        assert a == b
        assert "gate.h3-vanishing: pass" in a
        assert "omega1: 0.963322109085" in a

    def test_rs_extraction_round_trip(self):
        r_in = tuple(float(i + 1) for i in range(10))
        s_in = tuple(float(-i) for i in range(10))

        def build(values, sign):
            terms = {}
            for (key, slot), value in zip(RS_SLOTS, values):
                cs = list(terms.get(key, (0.0, 0.0)))
                cs[slot] = sign * value
                terms[key] = tuple(cs)
            return DAlembertSeries(terms)

        rs = oracle_rs_from_series(pair_of(build(r_in, 1.0)), pair_of(build(s_in, -1.0)))
        assert rs == r_in + s_in


def _snapshot_points():
    """The seeded points of scripts/chain_snapshot.py."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "chain_snapshot.py"
    spec = importlib.util.spec_from_file_location("chain_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_points(module.POINTS)


def test_h3_listing_follows_the_gate():
    # H3's round-off reaches a few 1e-12; the report lists the terms that
    # fail the h3-vanishing gate, and none where it passes.
    listed = 0
    for mu, epsilon, a2, cd, branch in _snapshot_points():
        p = ModelParams(mu=mu, q1=1.0 - epsilon, A2=a2, cd=cd)
        try:
            res = run_pipeline(p, PipelineOptions(branch=branch))
            printed = audit(res)
        except L4NormError:
            continue
        listed += 1
        gates = res.gates()
        report = render_report(res, printed, gates)
        (line,) = [line for line in report.splitlines()
                   if line.startswith("h3_series_above_")]
        assert line.startswith("h3_series_above_h3_factor_x_scale:")
        assert line.endswith(": none") == gates["h3-vanishing"], (mu, branch)
    assert listed > 250


class TestAudit:
    # L5 point where the printed equilibrium series has no real value
    # (its y-brace is negative) while the oracle chain is sound.
    BRACE_POINT = ModelParams(mu=0.002552385680036853,
                              q1=1 - 0.007387079964007413,
                              A2=0.0004271000842634082,
                              cd=1.0924737782103944)

    def test_printed_series_failure_leaves_chain_intact(self):
        res = run_pipeline(self.BRACE_POINT, PipelineOptions(branch="L5"))
        gates = res.gates()
        assert "h3-vanishing" in gates and all(gates.values())
        printed = audit(res)
        assert printed.series_outside_domain == (
            "series y-brace non-positive; perturbations too large")
        point = printed.eq_series
        assert (point.branch, point.method) == ("L5", "series")
        assert all(math.isnan(v) for v in (point.x, point.y, point.residual,
                                           printed.gaps["equilibria.series"]))
        # every other gap keeps its value
        assert all(math.isfinite(gap) for key, gap in printed.gaps.items()
                   if key != "equilibria.series")
        assert audit(run_pipeline(ModelParams(mu=0.01))).series_outside_domain is None

    def test_drag_point_multiplies_no_polynomials(self, monkeypatch):
        calls = []
        product = TruncatedPoly.__mul__

        def counted(a, b):
            calls.append(1)
            return product(a, b)

        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(TruncatedPoly, name, counted)
        res = run_pipeline(ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0))
        audit(res)
        assert calls == []
        t5_by_products(res.params, res.shift)  # the counter counts
        assert calls

    def test_audit_covers_every_gating_key(self):
        res = run_pipeline(ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0))
        assert set(GATING_KEYS) <= set(audit(res).gaps)

    @pytest.mark.parametrize("branch", ["L4", "L5"])
    @pytest.mark.parametrize("params", [
        ModelParams(mu=0.01),
        ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0),
    ])
    def test_b2_lives_in_the_printed_slots(self, params, branch):
        res = run_pipeline(params, PipelineOptions(branch=branch),
                           stages=("b2",))
        slots = {key for key, _ in RS_SLOTS}
        for series in b2_series(res):
            assert set(series.terms) <= slots
        gaps = audit(res).gaps
        assert gaps["b2.sup"] == max(gaps[f"b2.{rs}{i}"] for rs in "rs"
                                     for i in range(1, 11))


def _stopping_points(count: int = 8, seed: int = 5):
    """Seeded (params, branch): mu in [0.001, 0.037], both branches, drag
    on every other point."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        mu = rng.uniform(0.001, 0.037)
        p = (ModelParams(mu=mu, q1=1.0 - rng.uniform(0.0, 0.01),
                         A2=rng.uniform(0.0, 0.005), cd=rng.uniform(10.0, 100.0))
             if i % 2 else ModelParams(mu=mu))
        out.append((p, ("L4", "L5")[i // 2 % 2]))
    return out


def _hex(values):
    return [float(v).hex() for v in values]


def _series_bits(series):
    return [(key, _hex(cs)) for key, cs in series.terms.items()]


def _chain_by_name(res) -> dict:
    """The chain's values under the printed names: the point, the
    frequencies, the J entries, the oracle T1..T4 and the B2 slots."""
    cubic = oracle_t_coefficients(res.lagrangian_poly.grade(3))
    return {"x": res.eq_numeric.x, "y": res.eq_numeric.y,
            "omega1": res.freq.omega1, "omega2": res.freq.omega2,
            **{name: getattr(res.nm, name) for name in J_ENTRIES},
            **{name: cubic[name] for name in ("T1", "T2", "T3", "T4")},
            **dict(zip(RS_NAMES, oracle_rs_from_series(*res.b2_values[:2])))}


class TestMirror:
    """The L5 chain at drag W1 is the L4 chain at -W1 reflected in y, bit
    for bit; the audit reads the printed (L4) rows on L5 the same way, so
    every L5 gap is the L4 gap of the mirror point."""

    @pytest.fixture(params=range(6), ids=lambda i: f"point{i}")
    def pair(self, request):
        rng = random.Random(23 + request.param)
        p = ModelParams(mu=rng.uniform(0.001, 0.037), q1=1.0 - rng.uniform(0.0, 0.01),
                        A2=rng.uniform(0.0, 0.005), cd=rng.uniform(5.0, 100.0))
        q = ModelParams._from_perturbations(p.mu, p.epsilon, p.A2, -p.W1)
        assert (q.mu, q.epsilon, q.A2, q.W1) == (p.mu, p.epsilon, p.A2, -p.W1)
        return (run_pipeline(p, PipelineOptions(branch="L5"), stages=("b2",)),
                run_pipeline(q, PipelineOptions(branch="L4"), stages=("b2",)))

    def test_l5_chain_is_the_reflected_l4_chain(self, pair):
        l5, l4 = (_chain_by_name(res) for res in pair)
        assert l5 == reflect(l4)
        odd = {name for name in l4 if l5[name] != l4[name]}
        assert odd == MIRROR_ODD - {"b"}

    def test_l5_audit_is_the_reflected_l4_audit(self, pair):
        l5, l4 = (audit(res) for res in pair)

        def values(printed):
            point = printed.eq_epsform
            return {"x": point.x, "y": point.y,
                    **dict(zip(J_ENTRIES, printed.j_rows[1::3])),
                    **dict(zip(RS_NAMES, printed.rs_rows[0::3]))}

        assert values(l5) == reflect(values(l4))
        assert l5.eq_epsform.residual == l4.eq_epsform.residual
        assert {key: l5.gaps[key] for key in GATING_KEYS} == {
            key: l4.gaps[key] for key in GATING_KEYS}


@pytest.mark.parametrize("branch", ["l5", "l4", "L6", ""])
def test_printed_rows_read_only_the_two_branches(branch):
    # every name but L4 used to read as L5; each reader, and the options,
    # refuse it with the words of `model.branch_sign`
    p = ModelParams(mu=0.01, q1=0.999, cd=20.0)
    message = f"^branch must be L4 or L5, got {branch}$"
    for read in (lambda: closedforms.printed(("x", "y"), p, branch=branch),
                 lambda: equilibria.epsilon_form(p, branch),
                 lambda: equilibria.triangular_series(p, branch),
                 lambda: equilibria.classical_seed(p, branch),
                 lambda: equilibria.EquilibriumPoint(0.5, 0.8, branch, "point", 0.0),
                 lambda: PipelineOptions(branch=branch)):
        with pytest.raises(ParameterError, match=message):
            read()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", PipelineOptions._fields[1:])
def test_options_refuse_a_tolerance_not_finite_and_positive(field, bad):
    with pytest.raises(ParameterError,
                       match=f"^{field} must be finite and positive, got "):
        PipelineOptions(**{field: bad})


def test_a_nan_divisor_floor_no_longer_switches_the_guard_off():
    # at this point a floor of 1 refuses Delta_(0,0); a NaN floor passed
    # every gate there before the options checked their tolerances
    p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
    with pytest.raises(SmallDivisorError, match=r"Delta_\(0,0\) = 6\.649e-02"):
        run_pipeline(p, PipelineOptions(divisor_floor=1.0))
    with pytest.raises(ParameterError, match="^divisor_floor must be finite"):
        PipelineOptions(divisor_floor=math.nan)
    assert all(run_pipeline(p, PipelineOptions()).gates().values())


def test_newton_refuses_a_bad_branch_before_any_force(monkeypatch):
    # Newton forms each force in its own pass, from one `_radii` call
    forces = []
    radii = equilibria._radii
    monkeypatch.setattr(equilibria, "_radii",
                        lambda *args: forces.append(args) or radii(*args))
    p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
    with pytest.raises(ParameterError):
        equilibria.solve_triangular_numeric(p, "l4")
    assert forces == []
    equilibria.solve_triangular_numeric(p, "L4")
    assert forces


class TestChainStoppedAtB1:
    """A chain that stops at b1 expands only the quadratic Lagrangian and
    leaves the normal-mode residuals unformed; what it returns must be the
    full chain's, bit for bit."""

    @pytest.fixture(params=_stopping_points(),
                    ids=lambda c: f"{c[0].mu:.5f}-{c[1]}-"
                                  f"{'drag' if c[0].W1 else 'free'}")
    def point(self, request):
        p, branch = request.param
        return p, PipelineOptions(branch=branch)

    def test_b1_fields_equal_the_full_chain(self, point):
        p, options = point
        short = run_pipeline(p, options, stages=("b1",))
        full = run_pipeline(p, options)
        assert short.lagrangian_poly.cap == 2
        assert ([(m, c.hex()) for m, c in short.lagrangian_poly.coeffs.items()]
                == [(m, c.hex()) for m, c
                    in full.lagrangian_poly.truncated(2).coeffs.items()])
        a, b = short, full
        assert _hex((a.efg.E, a.efg.F, a.efg.G)) == _hex((b.efg.E, b.efg.F, b.efg.G))
        assert _hex((a.freq.omega1, a.freq.omega2)) == _hex(
            (b.freq.omega1, b.freq.omega2))
        assert [_hex(row) for row in a.nm.J] == [_hex(row) for row in b.nm.J]
        for sa, sb in zip(b1_series(a.b1_values), b1_series(b.b1_values)):
            assert _series_bits(sa) == _series_bits(sb)
        assert a.b1_residual.hex() == b.b1_residual.hex()
        assert a.moser.min_combination.hex() == b.moser.min_combination.hex()
        assert (a.moser.worst_pair, a.moser.passed) == (b.moser.worst_pair,
                                                         b.moser.passed)
        gates, full_gates = short.gates(), full.gates()
        assert gates and all(gates.values())
        assert gates == {name: full_gates[name] for name in gates}

    @pytest.mark.parametrize("stage", ["taylor", "b1"])
    def test_audit_expands_the_cubic_itself(self, point, stage):
        p, options = point
        short = audit(run_pipeline(p, options, stages=(stage,))).gaps
        full = audit(run_pipeline(p, options, stages=("h3",))).gaps
        cubic = sorted(key for key in full if key.startswith("cubic."))
        assert len(cubic) == 6
        assert sorted(key for key in short if key.startswith("cubic.")) == cubic
        assert _hex(short[key] for key in cubic) == _hex(full[key] for key in cubic)

    def test_residuals_are_formed_on_first_read(self, point, monkeypatch):
        p, options = point
        calls = []
        monkeypatch.setattr(normalform, "congruence_gap",
                            lambda *args: calls.append(args) or congruence_gap(*args))
        res = run_pipeline(p, options, stages=("b1",))
        assert calls == []
        res.gates()
        res.gates()
        assert len(calls) == (0 if p.W1 else 2)
        w, J = res.freq, res.nm.J
        hessian = hamiltonian_matrix(stiffness_matrix(res.efg, p.n),
                                     velocity_coupling(res.lagrangian_poly))
        target = ((w.omega1**2, 0.0, 0.0, 0.0), (0.0, -w.omega2**2, 0.0, 0.0),
                  (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, -1.0))
        assert res.nm.symplectic_defect == congruence_gap(J, SIGMA, SIGMA)
        assert res.nm.h2_residual == congruence_gap(J, hessian, target)
        assert len(calls) == 2
        # each residual read its gap once, with the same arguments
        if not p.W1:
            assert calls == [(J, SIGMA, SIGMA), (J, hessian, target)]


def test_the_hessian_is_formed_only_where_a_gate_reads_it(monkeypatch, capsys):
    # only the drag-free h2-diagonal gate reads the Hessian: a drag sweep
    # at b1 and a drag chain's gates form none, a drag-free chain's one
    from l4norm import cli
    calls = []
    monkeypatch.setattr(normalform, "hamiltonian_matrix",
                        lambda *args: calls.append(args) or hamiltonian_matrix(*args))
    assert cli.main(["sweep", "--mu-min", "0.005", "--mu-max", "0.02", "--steps", "4",
                     "--q1", "0.999", "--cd", "20", "--stages", "b1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4 and all(row.endswith(",pass") for row in rows)
    assert calls == []
    drag = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
    assert all(run_pipeline(drag, PipelineOptions(branch="L5")).gates().values())
    assert calls == []
    res = run_pipeline(ModelParams(mu=0.01))
    assert res.gates()["h2-diagonal"] and res.gates() == res.gates()
    assert len(calls) == 1


def test_a_b1_sweep_and_a_b2_chain_form_no_b1_series(monkeypatch, capsys):
    # a drag sweep at b1 reads the expansion itself and B1's plain values:
    # it forms no slice and no B1 series.  Nor does a chain to b2, whose
    # forcing reads B1's values; those values are the pair's, zeros dropped
    from l4norm import cli
    grades, pairs = [], []
    grade, new = TruncatedPoly.grade, DAlembertSeries._new.__func__
    monkeypatch.setattr(TruncatedPoly, "grade",
                        lambda self, degree: grades.append(degree) or grade(self, degree))
    monkeypatch.setattr(DAlembertSeries, "_new", classmethod(
        lambda cls, layout, values: (layout is normalform._B1 and pairs.append(values))
        or new(cls, layout, values)))
    assert cli.main(["sweep", "--mu-min", "0.002", "--mu-max", "0.03", "--steps", "40",
                     "--q1", "0.999", "--cd", "20", "--stages", "b1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 40 and all(row.endswith(",pass") for row in rows)
    assert grades == [] and pairs == []
    res = run_pipeline(ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0),
                       stages=("b2",))
    assert grades == [] and pairs == []
    b1 = b1_series(res.b1_values)
    assert [z for series in b1 for z in series.values] == list(res.b1_values)
    assert run_pipeline(res.params, stages=("taylor",)).b1_values is None


def test_the_stages_are_planned_once_per_tuple(monkeypatch):
    # a chain checks its stage tuple on the first call only; a list or a
    # generator still runs, and a bad tuple, one with an unhashable entry
    # among them, or a bare string, which would be read character by
    # character, still raises the checker's ParameterError
    calls = []
    check = verify.check_stages
    monkeypatch.setattr(verify, "check_stages",
                        lambda stages: calls.append(stages) or check(stages))
    p = ModelParams(mu=0.01)
    plan.cache_clear()
    for _ in range(3):
        assert run_pipeline(p, stages=("b1", "taylor")).stages == STAGES[:3]
    assert len(calls) == 1
    for stages in (["b2"], (s for s in ("b2",))):
        assert run_pipeline(p, stages=stages).stages == STAGES[:4]
    for stages, message in ((("b1", "warp"), "unknown stage 'warp'"),
                            (("b1", ["b2"]), r"unknown stage \['b2'\]"),
                            ((), "empty stage list"),
                            ("h3", "not the string 'h3'")):
        for _ in range(2):
            with pytest.raises(ParameterError, match=message):
                run_pipeline(p, stages=stages)


LAZY = ("h3", "b2_residuals")


@pytest.mark.parametrize("branch", ["L4", "L5"])
@pytest.mark.parametrize("params", [
    ModelParams(mu=0.01),
    ModelParams(mu=0.02, q1=0.995, A2=1e-3, cd=5.0),
], ids=["free", "drag"])
def test_a_chain_and_its_gates_form_no_series(params, branch, monkeypatch):
    # run to h3 and gated, the chain reads the expansion and B1's values
    # and keeps the b2 and h3 stages as plain values: it forms no series
    # and no slice; each lazy attribute forms its value on the first read,
    # and a second read returns the same object.  A result holds each
    # stage's values once: no series view of them comes back
    for name in ("b1", "x2", "y2", "cubic_at_b1", "b2"):
        assert not hasattr(verify.PipelineResult, name), name
    for name in ("j_closed", "rs"):
        assert not hasattr(verify.Audit, name), name
    formed = []
    new, init = DAlembertSeries._new.__func__, DAlembertSeries.__init__
    monkeypatch.setattr(DAlembertSeries, "_new", classmethod(
        lambda cls, *args: formed.append("_new") or new(cls, *args)))
    monkeypatch.setattr(DAlembertSeries, "__init__",
                        lambda self, *args: formed.append("init") or init(self, *args))
    for owner, name in ((TruncatedPoly, "grade"), (Store, "_slice")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, fn=fn, name=name:
                            formed.append(name) or fn(*args))
    res = run_pipeline(params, PipelineOptions(branch=branch), stages=("h3",))
    gates = res.gates()
    assert formed == [] and all(gates.values())
    assert all(name not in vars(res) for name in LAZY[:-1])
    first = [getattr(res, name) for name in LAZY]
    assert formed == ["_new"]
    count = len(formed)
    assert all(map(operator.is_, first, (getattr(res, name) for name in LAZY)))
    assert len(formed) == count and res.gates() == gates
    assert max(res.h3[2:6]) == res.h3_max() and res.b2_values[2] == res.intermediate_scale()


class TestLazySecondOrderResiduals:
    """The b2 stage leaves the back-substitution unformed until a residual
    is read; what it then returns must be the eager residual, bit for bit."""

    apply = staticmethod(normalform._operator_values)

    @pytest.fixture(params=_stopping_points(),
                    ids=lambda c: f"{c[0].mu:.5f}-{c[1]}-"
                                  f"{'drag' if c[0].W1 else 'free'}")
    def counted(self, request, monkeypatch):
        """(params, options, calls): every operator application is logged."""
        p, branch = request.param
        calls = []
        monkeypatch.setattr(normalform, "_operator_values",
                            lambda *args: calls.append(args) or self.apply(*args))
        return p, PipelineOptions(branch=branch), calls

    def test_residuals_equal_an_eager_back_substitution(self, counted):
        p, options, calls = counted
        res = run_pipeline(p, options, stages=("b2",))
        # the B1 residual is in closed form and the B2 solve is its own
        # kernel: the chain applies the operator nowhere
        assert len(calls) == 0
        rx, ry = operator_by_composition(normalform.linear_operator(res.efg, p.n),
                                         *b2_series(res), res.freq)
        x2, y2, _ = forcing_series(res)
        eager = (sup(difference(rx, x2)), sup(difference(ry, y2)))
        assert _hex(res.b2_residuals) == _hex(eager)
        assert res.gates()["b2-residual"] and res.gates() == res.gates()
        assert len(calls) == 1

    def test_partial_forcing_solve_skips_the_back_substitution(self, counted):
        p, options, calls = counted
        res = run_pipeline(p, options, stages=("b2",))
        calls.clear()
        partial_forcing_gap(res)
        assert len(calls) == 0 and "b2_residuals" not in vars(res)


class TestClassicalRoots:
    def test_resonance_locations(self):
        assert locate_classical_resonance(2) == pytest.approx(0.0242939, abs=1e-6)
        assert locate_classical_resonance(3) == pytest.approx(0.0135160, abs=1e-6)

    def test_critical_mass(self):
        closed = 0.5 * (1.0 - math.sqrt(23.0 / 27.0))
        assert locate_classical_resonance(1) == pytest.approx(closed, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3])
    def test_resonance_root_has_the_ratio(self, k):
        w = classical_frequencies(locate_classical_resonance(k))
        assert w.omega1 / w.omega2 == pytest.approx(k, abs=1e-12)

    def test_single_perturbation_builders(self):
        # each leg switches on its own perturbation and no other
        p = single_perturbation_params(0.01, "W1", 1e-4)
        assert p.W1 == 1e-4 and p.epsilon == 0.0 and p.A2 == 0.0
        p = single_perturbation_params(0.01, "epsilon", 1e-3)
        assert p.epsilon == pytest.approx(1e-3, rel=1e-12)
        assert p.W1 == 0.0 and p.A2 == 0.0
        p = single_perturbation_params(0.01, "A2", 1e-3)
        assert p.A2 == 1e-3 and p.epsilon == 0.0 and p.W1 == 0.0
        with pytest.raises(ParameterError):
            single_perturbation_params(0.01, "cd", 1e-3)

    def test_drag_leg_takes_either_sign(self):
        p = ModelParams._from_perturbations(0.01, 0.0, 0.0, -1e-3)
        assert p.W1 == -1e-3 and p.q1 == 1.0


@pytest.fixture(scope="module")
def verdicts():
    return detect_discrepancies(0.01, PipelineOptions())


class TestDetector:

    def test_every_detection_is_registered(self, verdicts):
        missing = [(v.quantity, v.perturbation, v.classification)
                   for v in verdicts
                   if v.classification != "consistent"
                   and not is_registered(v.quantity, v.perturbation)]
        assert missing == []

    @pytest.mark.parametrize("mu", [0.000237, 0.000954])
    def test_low_mu_detections_are_registered(self, mu):
        # The W1 leg's strength scales with mu (1 - mu); at the full
        # strength its equilibrium lies past the fold at these mass ratios.
        missing = [(v.quantity, v.perturbation, v.classification)
                   for v in detect_discrepancies(mu, PipelineOptions())
                   if v.classification != "consistent"
                   and not is_registered(v.quantity, v.perturbation)]
        assert missing == []

    def test_no_stale_registrations(self, verdicts):
        vmap = {(v.quantity, v.perturbation): v for v in verdicts}
        stale = []
        for d in KNOWN_DISCREPANCIES:
            v = vmap.get((d.key, d.perturbation))
            if v is None or v.classification == "consistent":
                stale.append((d.key, d.perturbation))
        assert stale == []

    def test_equilibrium_series_clean_everywhere(self, verdicts):
        for v in verdicts:
            if v.quantity == "equilibria.series":
                assert v.classification == "consistent", \
                    (v.perturbation, v.gap_h, v.gap_half)

    def test_oracle_t5_clean_everywhere(self, verdicts):
        for v in verdicts:
            if v.quantity == "cubic.T5":
                assert v.classification == "consistent"

    @pytest.mark.parametrize("mu", [0.00445, 0.01215])
    @pytest.mark.parametrize("branch", ["L4", "L5"])
    def test_b2_chain_gives_the_full_chain_gaps(self, mu, branch):
        # The detector stops the chain at b2; every gating gap of that
        # audit must equal the full chain's.
        options = PipelineOptions(branch=branch)
        points = [ModelParams(mu=mu)] + [
            single_perturbation_params(mu, kind, h)
            for kind in PERTURBATIONS
            for h in (HALVING_STRENGTH, HALVING_STRENGTH / 2)]
        for p in points:
            gaps = audit(run_pipeline(p, options, stages=("b2",))).gaps
            full = audit(run_pipeline(p, options)).gaps
            for key in GATING_KEYS:
                assert gaps[key] == full[key], (p, key)

    def test_cached_per_mu_and_options(self):
        detect_discrepancies.cache_clear()
        options = PipelineOptions()
        first = detect_discrepancies(0.01, options)
        assert isinstance(first, tuple)
        assert detect_discrepancies(0.01, options) is first
        assert first == detect_discrepancies.__wrapped__(0.01, options)
        for other in (PipelineOptions(branch="L5"),
                      PipelineOptions(moser_tol=2e-3)):
            assert detect_discrepancies(0.01, other) is not first
        assert detect_discrepancies.cache_info().currsize == 3
        # a failed call is not cached: it raises again
        mu_res = locate_classical_resonance(2)
        for _ in range(2):
            with pytest.raises(ResonanceError):
                detect_discrepancies(mu_res, options)
        assert detect_discrepancies.cache_info().currsize == 3


def h3_coefficients(total, cubic, w):
    """H3NormalCoefficients of a substituted energy `total`: its degree-3
    slice, the degree-2 residual, the grade norms sliced off the first by
    `grade`, and as `ablation_max` the sup norm of `cubic`, the cubic's
    energy at B1 alone."""
    h2_form = (DAlembertSeries.single(2, 0, 0, 0, c=w.omega1)
               + DAlembertSeries.single(0, 2, 0, 0, c=-w.omega2))
    h3 = degree_slice(total, 3)
    return H3NormalCoefficients(
        h3, degree_slice(total, 2).norm_of_difference(h2_form),
        *grade_norms(h3), sup(cubic))


def h3_at_b1_plus_b2(l2, l3, b1, b2, w):
    """Reference: substitute x = B1 + B2 into both energy slices, each on
    its own, every product capped at degree 3; the ablation substitutes
    the cubic's at B1."""
    bx, by = b1[0] + b2[0], b1[1] + b2[1]
    args = (bx, by, apply_D(bx, w), apply_D(by, w))
    at_b1 = (*b1, apply_D(b1[0], w), apply_D(b1[1], w))
    return h3_coefficients(poly_at_series(energy(l2), *args, 3)
                           + poly_at_series(energy(l3), *args, 3),
                           poly_at_series(energy(l3), *at_b1, 3), w)


def h3_by_hand(l3, b1, b2, efg, w, n):
    """Oracle that shares no energy code with the chain: the quadratic
    energy written out as |v|^2/2 - q.K q/2 with K from E, F, G, plus the
    position cubic, at x = B1 + B2, every product capped at degree 3."""
    bx, by = b1[0] + b2[0], b1[1] + b2[1]
    vx, vy = apply_D(bx, w), apply_D(by, w)
    cap, n2 = 3, n * n
    k00, k01, k11 = n2 - 2.0 * efg.E, -efg.G, n2 - 2.0 * efg.F
    h2_sub = scaled(product(vx, vx, cap) + product(vy, vy, cap), 0.5)
    for term in (scaled(product(bx, bx, cap), 0.5 * k00),
                 scaled(product(bx, by, cap), k01),
                 scaled(product(by, by, cap), 0.5 * k11)):
        h2_sub = difference(h2_sub, term)
    cubic = negated(position_part(l3))
    return h3_coefficients(
        h2_sub + poly_at_series(cubic, bx, by, vx, vy, cap),
        poly_at_series(cubic, *b1, apply_D(b1[0], w), apply_D(b1[1], w), cap), w)


def grade_norms(series):
    """Reference: (A30, A21, A12, A03) sliced off a degree-3 series."""
    return tuple(sup(grade(series, j, 3 - j)) for j in (3, 2, 1, 0))


def cubic_at_b1_anew(res):
    """Reference: the position cubic at B1, substituted afresh."""
    zero = DAlembertSeries()
    return poly_at_series(negated(position_part(res.lagrangian_poly.grade(3))),
                          *b1_series(res.b1_values), zero, zero, 3)


def h3_at(res, cubic, b2):
    """The H3 stage at the chain's expansion and B1, on the cubic at B1 and
    B2 given as series, as the record."""
    h3, norms = h3_normal_coefficients(pair_of(cubic), res.lagrangian_poly,
                                       res.b1_values, tuple(map(pair_of, b2)), res.freq)
    return H3NormalCoefficients(series_of(h3), *norms)


def partial_forcing_gap_anew(res):
    """Reference: the partial-forcing gap with every substitution made
    afresh, at (B1, B1, D B1, D B1) and cap 2, and its own cubic at B1."""
    l3 = res.lagrangian_poly.grade(3)
    b1x, b1y = b1_series(res.b1_values)
    args = (b1x, b1y, apply_D(b1x, res.freq), apply_D(b1y, res.freq))
    x2p, y2p = (poly_at_series(partial(l3, i), *args, 2) for i in (0, 1))
    b2x, b2y, _ = solve_second_order_oracle(res.efg, res.freq, res.params.n,
                                            pair_of(x2p), pair_of(y2p),
                                            floor=res.options.divisor_floor)
    return max(h3_at(res, cubic_at_b1_anew(res), map(series_of, (b2x, b2y)))[2:6])


class TestH3Substitution:
    """The chain forms the position cubic once, at B1; both H3 slices must
    equal what substituting the full series gives."""

    @pytest.fixture(params=[(mu, branch, drag)
                            for mu in (0.00445, 0.01215)
                            for branch in ("L4", "L5")
                            for drag in (False, True)],
                    ids=lambda c: f"{c[0]}-{c[1]}-{'drag' if c[2] else 'free'}")
    def res(self, request):
        mu, branch, drag = request.param
        p = (ModelParams(mu=mu, q1=0.999, A2=1e-4, cd=20.0) if drag
             else ModelParams(mu=mu))
        return run_pipeline(p, PipelineOptions(branch=branch))

    def test_ablation_is_the_b2_zero_run(self, res):
        zero = DAlembertSeries()
        b2_zero = h3_at(res, cubic_at_b1_anew(res), (zero, zero))
        _, _, cubic = forcing_series(res)
        assert list(cubic.terms.items()) == list(b2_zero.series.terms.items())
        assert sup(cubic) == max(b2_zero[2:6]) == res.h3.ablation_max
        assert res.h3.h2_residual == b2_zero.h2_residual
        assert grade_norms(cubic) == grade_norms(b2_zero.series) \
            == (b2_zero.A30, b2_zero.A21, b2_zero.A12, b2_zero.A03)

    def test_h3_is_the_b1_plus_b2_substitution(self, res):
        lag = res.lagrangian_poly
        reference = h3_at_b1_plus_b2(
            lag.grade(2), lag.grade(3), b1_series(res.b1_values), b2_series(res),
            res.freq)
        assert list(res.h3.series.terms.items()) \
            == list(reference.series.terms.items())
        # every norm the kernel measures, against the reference's own
        # slices, bit for bit: h2_residual, A30..A03 and ablation_max
        assert _hex(res.h3[1:]) == _hex(reference[1:])
        assert res.h3_max().hex() == sup(reference.series).hex()

    def test_h3_matches_the_hand_built_energy(self, res):
        oracle = h3_by_hand(
            res.lagrangian_poly.grade(3), b1_series(res.b1_values), b2_series(res),
            res.efg, res.freq, res.params.n)
        bound = 1e-13 * res.intermediate_scale()
        assert res.h3.series.norm_of_difference(oracle.series) < bound
        assert abs(res.h3.h2_residual - oracle.h2_residual) < bound
        assert abs(res.h3.ablation_max - oracle.ablation_max) < bound

    def test_cubic_energy_is_the_negated_position_cubic(self, res):
        l3 = res.lagrangian_poly.grade(3)
        cubic_energy, negated_cubic = energy(l3), negated(position_part(l3))
        assert cubic_energy.layout is negated_cubic.layout
        assert cubic_energy.values == negated_cubic.values

    def test_h3_max_reads_every_grade_norm(self, res):
        # whichever grade is largest, h3_max returns it, and nothing else of
        # the six norms: h2_residual and ablation_max stay out of it
        layout_values, norms = res.h3_values
        for k in range(4):
            grades = [1.0] * 4
            grades[k] = 2.0
            res.h3_values = layout_values, [5.0, *grades, 7.0]
            assert res.h3_max() == 2.0

    def test_h3_max_is_the_largest_grade_norm(self, res):
        # every degree-3 key lies in exactly one grade
        for series in (res.h3.series, forcing_series(res)[2]):
            assert sup(series) == max(grade_norms(series))
        assert res.h3_max() == sup(res.h3.series)

    def test_partial_forcing_gap_reads_the_chain(self, res, monkeypatch):
        # The gap takes the position-partials forcing that the chain's own
        # forcing call returned, and the chain's cubic at B1, at the h3
        # stage and at b2 alike: it runs no forcing of its own.
        at_b2 = run_pipeline(res.params, res.options, stages=("b2",))
        assert at_b2.h3 is None
        monkeypatch.setattr(normalform, "forcing_x2y2", None)
        for chain in (res, at_b2):
            assert partial_forcing_gap(chain) == partial_forcing_gap_anew(chain)
        monkeypatch.undo()
        # That forcing is the chain's X2, Y2 without the velocity partials.
        l3, w = res.lagrangian_poly.grade(3), res.freq
        b1x, b1y = b1_series(res.b1_values)
        args = (b1x, b1y, apply_D(b1x, w), apply_D(b1y, w))
        chain_x2, chain_y2, _ = forcing_series(res)

        def sub(poly):
            return poly_at_series(poly, *args, 2)

        pairs = forcing_x2y2(res.lagrangian_poly, res.b1_values, w)
        (x2, y2), (x2p, y2p) = (map(series_of, pair) for pair in pairs[:2])
        assert (x2.terms, y2.terms) == (chain_x2.terms, chain_y2.terms)
        assert pairs[1] == res.forcing[1]
        assert x2p.terms == sub(partial(l3, 0)).terms
        assert y2p.terms == sub(partial(l3, 1)).terms
        assert chain_x2.terms == difference(x2p, apply_D(sub(partial(l3, 2)), w)).terms
        assert chain_y2.terms == difference(y2p, apply_D(sub(partial(l3, 3)), w)).terms

    def test_cubic_at_b1_is_formed_at_the_b2_stage(self, res):
        # The b2 stage is where B1 meets the cubic: a chain stopped there
        # holds the same cubic that the full chain's ablation reads, and
        # both equal the substitution made with its own power table.
        at_b2 = run_pipeline(res.params, res.options, stages=("b2",))
        ablation = list(forcing_series(res)[2].terms.items())
        assert list(forcing_series(at_b2)[2].terms.items()) == ablation
        assert list(cubic_at_b1_anew(res).terms.items()) == ablation

    def test_each_stage_plans_once_per_shape(self, res, monkeypatch):
        # The forcing, the B2 solve and H3 each plan one kernel per tuple of
        # input layouts; once a point of this shape has run, another chain
        # of it, stopped at b2 with its partial-forcing gap or run through
        # h3, plans nothing anew and calls no substitution of its own.
        calls = []
        sub = normalform.poly_at_series
        monkeypatch.setattr(normalform, "poly_at_series",
                            lambda *args: calls.append(args) or sub(*args))
        built = []
        stages = ("_forcing_kernel", "_solve_kernel", "_h3_kernel")

        def logged(name, build):
            return lambda *layouts: built.append((name, layouts)) or build(*layouts)

        for name in stages:
            monkeypatch.setattr(normalform, name,
                                logged(name, getattr(normalform, name)))

        def same_shape():
            partial_forcing_gap(run_pipeline(res.params, res.options,
                                             stages=("b2",)))
            run_pipeline(res.params, res.options)

        same_shape()
        assert {name for name, _ in built} == set(stages)
        assert len(set(built)) == len(built)
        assert calls == []
        count, misses = len(built), plan.cache_info().misses
        same_shape()
        assert len(built) == count
        assert plan.cache_info().misses == misses


def test_plan_table_stays_within_its_budget():
    # Plans are made per shape, not per point: 50 seeded chains with their
    # audits and one detector call fill a small part of the table, and a
    # second identical pass makes no plan.
    def one_pass():
        for p, branch in _stopping_points(50, seed=7):
            res = run_pipeline(p, PipelineOptions(branch=branch))
            audit(res)
        detect_discrepancies.cache_clear()
        detect_discrepancies(0.01, PipelineOptions())

    plan.cache_clear()
    one_pass()
    size = plan.cache_info().currsize
    assert size < PLAN_TABLE_SIZE // 4
    misses = plan.cache_info().misses
    one_pass()
    assert plan.cache_info().misses == misses
    assert plan.cache_info().currsize == size


def test_kernels_are_compiled_once_per_shape(monkeypatch):
    # A stage kernel is keyed by its input layouts, never by a value: 100
    # seeded chains with their audits plan five (the forcing and H3, each
    # with and without drag, and the B2 solve), and 100 other points plan
    # none.  Every kernel is compiled by `layout.compiled`; the
    # stage and substitution kernels are the ones named "kernel".
    made = []
    compiled = layout.compiled
    monkeypatch.setattr(layout, "compiled", lambda source, name:
                        made.append(name) or compiled(source, name))

    def chains(seed):
        for p, branch in _stopping_points(100, seed=seed):
            audit(run_pipeline(p, PipelineOptions(branch=branch)))

    plan.cache_clear()
    chains(7)
    assert 0 < made.count("kernel") <= 5
    count = made.count("kernel")
    chains(8)
    assert made.count("kernel") == count


def test_a_fresh_verify_compiles_no_source_twice():
    # The H3 kernel planned for the drag and the drag-free layouts reads the
    # same source, byte for byte: `layout.compiled` keeps one function per
    # source, so a cold verify, detector included, compiles each once.
    code = """if True:
        import contextlib, io, sys
        sys.path.insert(0, sys.argv[1])
        from l4norm import cli, layout
        sources = []
        def counting(source, *args):
            sources.append(source)
            return compile(source, *args)
        layout.compile = counting
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--mu", "0.01", "--epsilon", "0.001",
                             "--a2", "1e-4", "--cd", "20", "--stages", "h3"]) == 0
        print(len(sources) > 0, len(sources) - len(set(sources)))
    """
    src = Path(layout.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "True 0\n"


def test_row_kernels_are_compiled_once_per_names_tuple(monkeypatch):
    # The printed rows compile one kernel per tuple of row names, keyed by
    # the names alone: 50 seeded audits, every gap read, compile three
    # (the report's point, J and F/G entries, then (a, b) and T1..T4).
    made = []
    compiled = layout.compiled
    monkeypatch.setattr(layout, "compiled", lambda source, name:
                        made.append(name) or compiled(source, name))
    plan.cache_clear()
    for p, branch in _stopping_points(50, seed=7):
        audit(run_pipeline(p, PipelineOptions(branch=branch)))
    assert made.count("rows") == 3


def test_the_report_path_forms_no_dict(monkeypatch):
    # at a `verify --stages h3` point, on both branches, the audit the report
    # prints, the gates and the report read the printed rows through one
    # row-kernel call and form no dict of gaps; read later, it is formed
    # once and kept
    p = ModelParams(mu=0.01215, q1=0.999, A2=1e-4, cd=20.0)
    calls = []
    row_kernel = closedforms._row_kernel

    def counting(names):
        kernel = row_kernel(names)
        return lambda *args: calls.append(names) or kernel(*args)

    monkeypatch.setattr(closedforms, "_row_kernel", counting)
    for branch in ("L4", "L5"):
        res = run_pipeline(p, PipelineOptions(branch=branch), stages=("h3",))
        calls.clear()
        printed = report_audit(res)
        render_report(res, printed, res.gates())
        assert calls == [closedforms.REPORT_ROWS[2]]
        assert "gaps" not in vars(printed)
        assert printed.gaps is printed.gaps
        assert len(calls) == 1


@pytest.mark.parametrize("largest", range(4))
def test_each_h3_line_prints_its_own_norm(largest, monkeypatch, capsys):
    # six distinct norms, the `largest`-th grade the largest of A30..A03:
    # each [h3] line of the report prints its own, and the sweep row's
    # h3_max field the largest grade, so a swap of two reads fails here
    grades = [1e-20, 2e-20, 3e-20, 4e-20]
    grades[largest], grades[3] = grades[3], grades[largest]
    norms = (5e-21, *grades, 6e-20)  # h2_residual, A30..A03, ablation_max
    run = verify.run_pipeline

    def with_norms(*args, **kwargs):
        res = run(*args, **kwargs)
        res.h3_values = res.h3_values[0], norms
        return res

    monkeypatch.setattr(verify, "run_pipeline", with_norms)
    res = verify.run_pipeline(ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0))
    text = render_report(res, report_audit(res), res.gates())
    lines = text.split("\n[h3]\n")[1].splitlines()
    assert lines[:7] == [f"{name}: {verify.fmt(value)}" for name, value in (
        ("A30", norms[1]), ("A21", norms[2]), ("A12", norms[3]), ("A03", norms[4]),
        ("scale", res.intermediate_scale()), ("h2_form_residual", norms[0]),
        ("ablation_max", norms[5]))]
    from l4norm import cli
    assert cli.main(["sweep", "--mu-min", "0.01", "--mu-max", "0.012", "--steps", "2",
                     "--q1", "0.999", "--a2", "1e-4", "--cd", "20"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split(",")[5] == "h3_max" and len(rows) == 2
    assert [row.split(",")[5] for row in rows] == [verify.fmt(4e-20)] * 2


def test_no_grade_is_sliced_per_point(monkeypatch):
    # The H3 kernel's plan slices the four grades, and its call returns
    # their norms: once a chain of the shape has run, a chain to h3, its
    # gates, its partial-forcing gap and its report slice no grade.
    p = ModelParams(mu=0.01215, q1=0.999, A2=1e-4, cd=20.0)
    run_pipeline(p)
    grades = []
    sliced = layout.sliced

    def spy(keys, values, measure, low, high):
        if measure is dalembert._grade:
            grades.append(low)
        return sliced(keys, values, measure, low, high)

    for name, module in list(sys.modules.items()):
        if name.startswith("l4norm") and getattr(module, "sliced", None) is sliced:
            monkeypatch.setattr(module, "sliced", spy)
    res = run_pipeline(p)
    partial_forcing_gap(res)
    render_report(res, report_audit(res), res.gates())
    assert grades == []
    plan.cache_clear()  # a cold plan slices each grade once
    run_pipeline(p)
    assert sorted(grades) == [(0, 3), (1, 2), (2, 1), (3, 0)]


@pytest.mark.parametrize("branch", ["L4", "L5"])
@pytest.mark.parametrize("drag", [False, True], ids=["free", "drag"])
def test_chain_reads_no_term_map(monkeypatch, branch, drag):
    # Every stage, and the report of a passing chain, runs on layouts and
    # value lists; the `terms` and `coeffs` views, which build mapping
    # lookups, stay unread.
    reads = []
    for cls, name in ((DAlembertSeries, "terms"), (TruncatedPoly, "coeffs")):
        view = getattr(cls, name)
        monkeypatch.setattr(cls, name, property(
            lambda self, view=view, name=name: reads.append(name)
            or view.fget(self)))
    p = (ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0) if drag
         else ModelParams(mu=0.01))
    res = run_pipeline(p, PipelineOptions(branch=branch))
    gates = res.gates()
    assert res.h3 is not None and all(gates.values())
    render_report(res, report_audit(res), gates)
    assert reads == []


DRAG_POINT = ModelParams(mu=0.01215, q1=0.999, A2=1e-4, cd=20.0)


@pytest.mark.parametrize("factor, chops", [(1e-8, 0), (1e-30, 1)])
@pytest.mark.parametrize("p", [DRAG_POINT, ModelParams(mu=0.01)],
                         ids=["drag", "free"])
def test_the_h3_listing_reads_the_gate_norm(monkeypatch, p, factor, chops):
    # The report lists H3 terms exactly when the kernel's norm exceeds the
    # h3-vanishing gate's bound, and only then chops the series.
    res = run_pipeline(p, PipelineOptions(h3_tol_factor=factor))
    gates = res.gates()
    assert gates["h3-vanishing"] is (chops == 0)
    calls = []
    chop = DAlembertSeries.chop
    monkeypatch.setattr(DAlembertSeries, "chop",
                        lambda self, tol: calls.append(tol) or chop(self, tol))
    text = render_report(res, report_audit(res), gates)
    assert calls == [res.h3_bound()] * chops
    listing = text.partition("h3_series_above_h3_factor_x_scale:")[2]
    assert (listing == " none\n") is (chops == 0)


class TestAuditGaps:
    """`audit` computes every gap at once; `report_audit` computes the part
    the report prints, and the report reads the same from either."""

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("branch", ["L4", "L5"])
    @pytest.mark.parametrize("p", [ModelParams(mu=0.01215), DRAG_POINT],
                             ids=["free", "drag"])
    def test_gaps_equal_the_eager_audit(self, stage, branch, p):
        res = run_pipeline(p, PipelineOptions(branch=branch), stages=(stage,))
        eager = audit_gaps_eagerly(res)
        gaps = audit(res).gaps
        assert type(gaps) is dict and gaps.keys() == eager.keys()
        assert _hex(gaps[key] for key in eager) == _hex(eager.values())

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("branch", ["L4", "L5"])
    @pytest.mark.parametrize("p", [ModelParams(mu=0.01215), DRAG_POINT],
                             ids=["free", "drag"])
    def test_the_report_prints_the_same_from_either_audit(self, stage,
                                                          branch, p):
        options = PipelineOptions(branch=branch)
        res = run_pipeline(p, options, stages=(stage,))
        verdicts = (detect_discrepancies(p.mu, options)
                    if stage in ("b2", "h3") else None)
        gates = res.gates()
        short, full = report_audit(res), audit(res)
        assert short.gaps.items() <= full.gaps.items()
        assert (render_report(res, short, gates, verdicts)
                == render_report(res, full, gates, verdicts))


@pytest.mark.parametrize("form,count", [("report", 0), ("csv", 1)])
@pytest.mark.parametrize("branch", ["L4", "L5"])
def test_verify_computes_the_deferred_groups_only_for_csv(monkeypatch, capsys,
                                                          form, count, branch):
    from l4norm import cli, polyalg

    argv = ["verify", "--mu", "0.01215", "--q1", "0.999", "--a2", "1e-4",
            "--cd", "20", "--branch", branch, "--stages", "h3", "--format", form]
    assert cli.main(argv) == 0  # and the detector's cache is warm
    calls = []
    for owner, name in ((verify, "partial_forcing_gap"),
                        (polyalg, "t_coefficients_closed_form"),
                        (closedforms, "b1y_print"), (equilibria, "offset_ab")):
        monkeypatch.setattr(owner, name, lambda *args, fn=getattr(owner, name),
                            name=name: calls.append(name) or fn(*args))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert sorted(calls) == sorted(["partial_forcing_gap", "b1y_print",
                                    "t_coefficients_closed_form",
                                    "offset_ab"] * count)


def test_scale_is_measured_once_per_result():
    # the B2 solve's kernel measures the scale, and the chain and the
    # report read it: the package has no sup norm of a whole store
    assert not hasattr(Store, "max_abs")
    res = run_pipeline(DRAG_POINT, PipelineOptions(branch="L5"))
    x2, y2, _ = forcing_series(res)
    assert res.intermediate_scale() == res.b2_values[2]
    assert res.b2_values[2] == max(map(sup, (x2, y2, *b2_series(res))))
    assert run_pipeline(DRAG_POINT, stages=("b1",)).intermediate_scale() == 1.0


def test_wrong_side_root_reads_the_cubic_on_the_options_branch():
    # Newton from the L4 seed reaches the root below the axis here, and
    # every gate passes; the audit still reads the printed cubic on the
    # options' branch, as it reads every other printed row
    p = ModelParams(mu=0.0014963148361835633, q1=1.0 - 0.008553474090590698,
                    A2=7.443163613939597e-05, cd=4.162845601367141)
    res = run_pipeline(p, PipelineOptions(branch="L4"))
    assert res.shift.b < 0.0 and all(res.gates().values())
    oracle = oracle_t_coefficients(res.lagrangian_poly.grade(3))
    l4 = printed(("T1", "T2", "T3", "T4"), p)
    gaps = audit(res).gaps
    assert {name: gaps[f"cubic.{name}"] for name in l4} == {
        name: abs(value - oracle[name]) for name, value in l4.items()}
