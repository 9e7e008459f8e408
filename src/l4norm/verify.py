"""End-to-end pipeline, the audit of the printed tables, and reporting.

`run_pipeline` chains the oracle stages (equilibria, taylor, b1, b2, h3)
at one parameter point and collects what the gates read.  `audit`
evaluates the printed series and tables at the same point and returns
their values and their gaps to that chain; `report_audit` computes only
the part of it that `render_report` prints, as values in its order.  `detect_discrepancies` runs
the single-perturbation halving experiments that classify every printed
series against its oracle; the acceptance suite cross-checks the output
against the registry in :mod:`l4norm.errata`.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

from . import equilibria, normalform, polyalg
from .dalembert import (
    DIVISOR_FLOOR,
    DAlembertSeries,
    FrequencyPair,
    listing,
    moser_check,
)
from .errata import classify_remainder
from .errors import ParameterError, ResonanceError
from .layout import kept, plan, sup_of_difference
from .model import ModelParams, branch_sign, real
from .normalform import J_ENTRIES, RS_NAMES, RS_SLOTS

STAGES = ("equilibria", "taylor", "b1", "b2", "h3")


class PipelineOptions(namedtuple(
        "PipelineOptions",
        "branch divisor_floor moser_tol residual_tol linear_tol h3_tol_factor",
        defaults=("L4", DIVISOR_FLOOR, 1e-3, 1e-9, 1e-10, 1e-8))):
    """The branch and the tolerances of a chain: `residual_tol` gates the B2
    back-substitution, `linear_tol` the B1 residual and the symplectic and
    H2-form defects, and `h3_tol_factor` H3 (|A| < factor * the largest
    intermediate coefficient).  `ParameterError` on a branch other than L4
    or L5, or on a tolerance that is not finite and positive."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        branch, *tolerances = super().__new__(cls, *args, **kwargs)
        branch_sign(branch)
        for n, (name, value) in enumerate(zip(cls._fields[1:], tolerances)):
            tolerances[n] = tol = real(value)
            if not 0.0 < tol < math.inf:  # NaN fails too
                raise ParameterError(f"{name} must be finite and positive, got {value!r}")
        return tuple.__new__(cls, (branch, *tolerances))


# Each tolerance a run may override (`--tol NAME=VALUE`, `tol.NAME=VALUE`)
# and the PipelineOptions field it sets, in the report's order.
TOLERANCES = {
    "residual": "residual_tol",
    "linear": "linear_tol",
    "h3_factor": "h3_tol_factor",
    "moser": "moser_tol",
    "divisor_floor": "divisor_floor",
}


class PipelineResult:
    """What `run_pipeline` computed at `params` under `options`, through
    `stages` (None for a stage not run): `b1_values`, `forcing`, `b2_values`
    and `h3_values` as `normalform` returns them, on ``(layout, values)``
    pairs, each viewed as a series by ``DAlembertSeries._new(layout, values)``."""

    eq_numeric: equilibria.EquilibriumPoint | None = None
    shift: equilibria.OriginShift | None = None
    # expanded to degree 3 from the b2 stage on, to degree 2 before it
    lagrangian_poly: polyalg.TruncatedPoly | None = None
    efg: polyalg.QuadraticCoefficients | None = None
    freq: FrequencyPair | None = None
    moser: object = None
    nm: normalform.NormalModeData | None = None
    b1_values: tuple | None = None
    b1_residual: float | None = None
    forcing: tuple | None = None
    b2_values: tuple | None = None
    h3_values: tuple | None = None

    def __init__(self, params: ModelParams, options: PipelineOptions,
                 stages: tuple):
        self.params, self.options, self.stages = params, options, stages

    @kept
    def h3(self) -> normalform.H3NormalCoefficients | None:
        return self.h3_values and normalform.H3NormalCoefficients(
            DAlembertSeries._new(*self.h3_values[0]), *self.h3_values[1])

    @kept
    def b2_residuals(self) -> tuple:
        """Sup norms of the linearized equations at (B2x, B2y) minus (X2,
        Y2): the operator's values less the forcing along their sum plan,
        no series formed.  Needs b2."""
        (x2, y2), _, _ = self.forcing
        layout, rx, ry = normalform._operator_values(
            normalform.linear_operator(self.efg, self.params.n),
            *self.b2_values[:2], self.freq)
        return sup_of_difference(layout, rx, x2), sup_of_difference(layout, ry, y2)

    def intermediate_scale(self) -> float:
        """The largest sup norm of X2, Y2 and B2, which the B2 solve
        measures; 1.0 before the b2 stage."""
        return 1.0 if self.b2_values is None else self.b2_values[2]

    def h3_bound(self) -> float:
        """The `h3-vanishing` gate's bound: h3_tol_factor times the scale."""
        return self.options.h3_tol_factor * self.intermediate_scale()

    def h3_max(self) -> float:
        """H3's largest grade norm (A30..A03), the `h3-vanishing` gate's value."""
        return max(self.h3_values[1][1:5])

    def gates(self) -> dict:
        """Named pass/fail gates for the verify front end."""
        opt = self.options
        out = {}
        if self.eq_numeric is not None:
            out["equilibrium-residual"] = bool(self.eq_numeric.residual < 1e-12)
        if self.moser is not None:
            out["moser"] = bool(self.moser.passed)
        if self.nm is not None and self.params.W1 == 0.0:
            out["symplectic-defect"] = bool(
                self.nm.symplectic_defect < opt.linear_tol)
            out["h2-diagonal"] = bool(self.nm.h2_residual < opt.linear_tol)
        if self.b1_residual is not None:
            out["b1-residual"] = bool(self.b1_residual < opt.linear_tol)
        if self.b2_values is not None:
            out["b2-residual"] = bool(max(self.b2_residuals) < opt.residual_tol)
        if self.h3_values is not None:
            bound = self.h3_bound()
            h3_max = self.h3_max()
            out["h3-vanishing"] = bool(h3_max < bound)
            out["h3-test-power"] = bool(
                self.h3_values[1][5] > 1e3 * max(h3_max, bound))
        return out


def _rs_slots(layout) -> tuple:
    """Per slot of `RS_SLOTS`, the slot of its key in `layout`, -1 where
    the layout lacks it, and whether it reads the sine."""
    return tuple((layout.index.get(key, -1), part) for key, part in RS_SLOTS)


def oracle_rs_from_series(b2x: tuple, b2y: tuple) -> tuple:
    """Read the ten r and the ten s slots off a solved B2 pair, each side
    a ``(layout, values)`` pair, in `RS_NAMES` order, through their slots
    planned per layout (a term B2 lacks reads 0.0); B2 has no other term,
    so this is the whole mapping between B2 and the printed tables."""
    rs = []
    for (layout, values), sign in ((b2x, 1.0), (b2y, -1.0)):
        values = values + [0j]
        rs += [sign * (values[n].imag if part else values[n].real)
               for n, part in plan(_rs_slots, layout)]
    return tuple(rs)


def check_stages(stages) -> tuple:
    """`stages` as a tuple: `ParameterError` if it is a string, is empty or
    names a stage not in `STAGES`.  Both `run_pipeline` and `cli` check here."""
    if isinstance(stages, str):
        raise ParameterError(f"stages must be a sequence of names, not the string {stages!r}")
    stages = tuple(stages)
    for s in stages:
        if s not in STAGES:
            raise ParameterError(f"unknown stage {s!r} (valid: {STAGES})")
    if not stages:
        raise ParameterError("empty stage list")
    return stages


def stages_through(stages) -> tuple:
    """`STAGES` through the latest of `check_stages(stages)`, as a chain runs."""
    return STAGES[:max(map(STAGES.index, check_stages(stages))) + 1]


def run_pipeline(p: ModelParams, options: PipelineOptions = PipelineOptions(),
                 stages=STAGES) -> PipelineResult:
    """Run the oracle stages of `stages_through(stages)`, planned once per
    tuple of stages."""
    if isinstance(stages, tuple):
        try:
            through = plan(stages_through, stages)
        except TypeError:  # an unhashable entry: checked unplanned
            through = stages_through(stages)
    else:  # a list, or an iterator, which hashes by identity: checked unplanned
        through = stages_through(stages)
    res = PipelineResult(params=p, options=options, stages=through)
    last = len(res.stages) - 1

    res.eq_numeric = equilibria.solve_triangular_numeric(p, options.branch)
    res.shift = equilibria.shift_from_point(res.eq_numeric, p)
    if last == 0:
        return res

    # B1 reads only the quadratic part, by key; the cubic enters from b2 on.
    degree = 3 if last >= STAGES.index("b2") else 2
    res.lagrangian_poly = lagrangian = polyalg.taylor_lagrangian(p, res.shift, degree)
    res.efg = polyalg.extract_EFG(lagrangian, p)
    if last == 1:
        return res

    res.freq = normalform.frequencies(p, res.efg)
    res.moser = moser_check(res.freq, tol=options.moser_tol)
    if not res.moser.passed:
        raise ResonanceError(
            f"Moser condition fails: |{res.moser.worst_pair}| combination = "
            f"{res.moser.min_combination:.3e}", witness=res.moser.worst_pair)
    res.nm = normalform.j_numeric(p, res.efg, res.freq, lagrangian)
    res.b1_values = normalform.b1_values(res.nm)
    res.b1_residual = normalform.linear_residual(res.b1_values, res.nm.K, res.freq, p.n)
    if last == 2:
        return res

    res.forcing = normalform.forcing_x2y2(lagrangian, res.b1_values, res.freq)
    (x2, y2), _, cubic = res.forcing
    res.b2_values = b2x, b2y, _ = normalform.solve_second_order_oracle(
        res.efg, res.freq, p.n, x2, y2, floor=options.divisor_floor)
    if last == 3:
        return res

    res.h3_values = normalform.h3_normal_coefficients(
        cubic, lagrangian, res.b1_values, (b2x, b2y), res.freq)
    return res


# -- audit of the printed tables -------------------------------------------


class Audit:
    """Printed-table values at one pipeline result and their gaps to it,
    kept in the report's order: the series and epsilon-form points and
    their `eq_gaps`; from b1 on a (numeric, closed, gap) triple per J entry
    (`j_rows`, flat); from b2 on a (closed, oracle, gap) triple per r/s slot
    (`rs_rows`, the oracle read off the chain's B2) and their sup
    (`b2_sup`), in `J_ENTRIES` and `RS_NAMES` order.  `gaps` by key is
    formed on first read and kept; `audit` adds the gaps no report prints."""

    j_rows = rs_rows = b2_sup = None
    # why the printed equilibrium series has no value here, if it has none
    series_outside_domain: str | None = None

    @kept
    def gaps(self) -> dict:
        gaps = dict(zip(("equilibria.series", "equilibria.epsilon_form"), self.eq_gaps))
        if self.j_rows:
            gaps.update(zip([f"j.{name}" for name in J_ENTRIES], self.j_rows[2::3]))
        if self.rs_rows:
            gaps.update(zip([f"b2.{name}" for name in RS_NAMES], self.rs_rows[2::3]))
            gaps["b2.sup"] = self.b2_sup
        return gaps


def _triples(a, b) -> tuple:
    """``(a, b, |a - b|)`` per pair of entries, flat; |a - b| is |b - a|."""
    out = [0.0] * (3 * len(a))
    out[0::3], out[1::3], out[2::3] = a, b, map(abs, map(operator.sub, a, b))
    return tuple(out)


def report_audit(res: PipelineResult) -> Audit:
    """The printed series that `render_report` prints, at every stage the
    result holds, and their gaps, as the values `Audit` keeps, from one
    `closedforms.report_values` call.  Where the printed equilibrium series
    leaves its own domain (its y-brace is not positive), its point and gap
    read nan and `series_outside_domain` holds the reason."""
    from . import closedforms
    p, branch, nm, b2 = res.params, res.options.branch, res.nm, res.b2_values
    out = Audit()
    try:
        out.eq_series = equilibria.triangular_series(p, branch)
    except ParameterError as err:
        out.eq_series = equilibria.EquilibriumPoint(math.nan, math.nan, branch,
                                                    "series", math.nan)
        out.series_outside_domain = str(err)
    x, y, *closed = closedforms.report_values(
        p, branch, None if nm is None else res.freq,
        None if b2 is None else res.options.divisor_floor)
    out.eq_epsform = equilibria.EquilibriumPoint(x, y, branch, "epsilon-form",
                                                 equilibria.residual_at(x, y, p))
    out.eq_gaps = (_point_gap(res.eq_numeric, out.eq_series),
                   _point_gap(res.eq_numeric, out.eq_epsform))
    if nm is None:
        return out

    # J13, J14 off J's first row, J21..J24 its second
    out.j_rows = _triples((*nm.J[0][2:], *nm.J[1]), closed[:6])
    if b2 is None:
        return out

    out.rs_rows = _triples(closed[6:], oracle_rs_from_series(*b2[:2]))
    # B2 has no term outside the twenty slots: their gaps are its sup gap.
    out.b2_sup = max(out.rs_rows[2::3])
    return out


def audit(res: PipelineResult) -> Audit:
    """`report_audit` plus the gaps no report prints: ``offset.*``, from
    taylor on ``cubic.*``, from b1 on ``b1.print_weights`` and from b2 on
    ``forcing.partial_only``.  None of these raises on a result whose
    stages passed, as their divisors are the chain's own."""
    from . import closedforms
    out = report_audit(res)
    p, branch, gaps = res.params, res.options.branch, out.gaps
    printed_shift = equilibria.offset_ab(p, branch)
    gaps["offset.a"] = abs(printed_shift.a - res.shift.a)
    gaps["offset.b"] = abs(printed_shift.b - res.shift.b)
    if res.lagrangian_poly is None:
        return out

    lagrangian = res.lagrangian_poly
    if lagrangian.cap < 3:
        # a chain stopped before b2 expanded only the quadratic part
        lagrangian = polyalg.taylor_lagrangian(p, res.shift, 3)
    closed = polyalg.t_coefficients_closed_form(p, res.shift, branch)
    for name, gap in zip(polyalg.H3_GAP_NAMES, polyalg.compare_h3(lagrangian, closed)):
        gaps[f"cubic.{name}"] = gap
    if res.nm is None:
        return out

    gaps["b1.print_weights"] = normalform.linear_residual(
        (*res.b1_values[:2], *closedforms.b1y_print(res.nm)), res.nm.K, res.freq, p.n)
    if res.b2_values is not None:
        gaps["forcing.partial_only"] = partial_forcing_gap(res)
    return out


def partial_forcing_gap(res: PipelineResult) -> float:
    """Largest H3 coefficient, as `PipelineResult.h3_max` reads it, left by
    the printed reading of the forcing: the position-partial pair that the
    chain's own `normalform.forcing_x2y2` call returned, with its cubic at
    B1.  The result must hold the b2 stage."""
    _, (x2p, y2p), cubic = res.forcing
    b2x, b2y, _ = normalform.solve_second_order_oracle(
        res.efg, res.freq, res.params.n, x2p, y2p,
        floor=res.options.divisor_floor)
    return max(normalform.h3_normal_coefficients(
        cubic, res.lagrangian_poly, res.b1_values, (b2x, b2y), res.freq)[1][1:5])


def _point_gap(a, b) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


# -- single-perturbation detector -----------------------------------------


PERTURBATIONS = ("epsilon", "A2", "W1")


def single_perturbation_params(mu: float, kind: str, h: float) -> ModelParams:
    """Parameters with the perturbation `kind` at strength h and the other
    two exactly zero."""
    if kind not in PERTURBATIONS:
        raise ParameterError(f"unknown perturbation kind {kind}")
    strengths = dict.fromkeys(PERTURBATIONS, 0.0)
    strengths[kind] = h
    return ModelParams._from_perturbations(mu, **strengths)


GATING_KEYS = (
    "equilibria.series", "equilibria.epsilon_form", "offset.a", "offset.b",
    *(f"cubic.{name}" for name in polyalg.H3_GAP_NAMES), "b1.print_weights",
    *(f"j.{name}" for name in J_ENTRIES),
    "forcing.partial_only",
) + tuple(f"b2.{name}" for name in RS_NAMES)


# Strength of each single perturbation: every series is compared at
# strengths HALVING_STRENGTH and HALVING_STRENGTH / 2.
HALVING_STRENGTH = 1e-3
MU_EARTH_MOON = 0.01215

# Verdicts kept per process, one entry per (mu, options).
DETECTOR_CACHE_SIZE = 64


class Verdicts(tuple):
    """The detector's RemainderVerdicts.  Their report rows are formatted
    on first read, as one text, and kept with them, so they live and die
    with the detector's cache entry."""

    @kept
    def text(self) -> str:
        """One quantity,perturbation,gap_h,gap_half,classification line
        per verdict (a RemainderVerdict holds them in that order)."""
        return "\n".join(["%s,%s,%.17g,%.17g,%s" % v for v in self])


@functools.lru_cache(maxsize=DETECTOR_CACHE_SIZE)
def detect_discrepancies(mu: float, options: PipelineOptions, /):
    """Classify every audited closed form against its oracle.

    Classical verdicts pass the gap at zero perturbation strength as both
    remainders, so a gap above the noise floor reads zeroth order;
    perturbation verdicts compare remainders at HALVING_STRENGTH and at half
    of it; the W1 leg scales that strength by mu (1 - mu) relative to
    MU_EARTH_MOON.  Returns the RemainderVerdicts covering every gating key
    as `Verdicts`, a tuple that also carries their report rows.  The
    verdicts depend only on (mu, options), so they are cached per process,
    rows included, one entry per positional (mu, options) pair; an
    exception is raised again on every call.
    """
    def gaps_at(p: ModelParams):
        # No gating key reads the h3 stage, so the chain stops at b2.
        res = run_pipeline(p, options, stages=("b2",))
        return res, audit(res).gaps

    base, gaps = gaps_at(ModelParams(mu=mu))
    scale = base.intermediate_scale()
    verdicts = [classify_remainder(key, "classical", gaps[key], gaps[key],
                                   scale=scale) for key in GATING_KEYS]
    # The drag displacement scales like W1 / (mu (1 - mu)); at a fixed
    # strength the W1 leg would pass the fold below mu ~ 0.0015.
    w1_scale = mu * (1.0 - mu) / (MU_EARTH_MOON * (1.0 - MU_EARTH_MOON))
    for kind in PERTURBATIONS:
        h = HALVING_STRENGTH * (w1_scale if kind == "W1" else 1.0)
        _, gaps_h = gaps_at(single_perturbation_params(mu, kind, h))
        _, gaps_half = gaps_at(single_perturbation_params(mu, kind, h / 2))
        for key in GATING_KEYS:
            verdicts.append(classify_remainder(
                key, kind, gaps_h[key], gaps_half[key],
                scale=scale))
    return Verdicts(verdicts)


# -- classical resonance root ----------------------------------------------


def locate_classical_resonance(k: float) -> float:
    """Mass ratio where omega1 = k * omega2 on the classical quartic.

    With omega1^2 + omega2^2 = 1 and omega1^2 omega2^2 = 27 mu (1 - mu) / 4
    the ratio fixes mu (1 - mu) = 4 k^2 / (27 (1 + k^2)^2); the root below
    1/2 is returned.  k = 1 gives the critical mass ratio.
    """
    return 0.5 * (1.0 - math.sqrt(1.0 - 16.0 * k * k / (27.0 * (1.0 + k * k)**2)))


# -- report rendering -------------------------------------------------------


def fmt(x) -> str:
    if isinstance(x, bool):
        return "pass" if x else "FAIL"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


PASS_FAIL = ("FAIL", "pass")  # `fmt` of a bool, by the bool
HEADER = ("mu", "q1", "epsilon", "A2", "cd", "W1", "n")
_header = operator.attrgetter(*HEADER)
_tolerances = operator.attrgetter(*TOLERANCES.values())

# The [equilibria] block and the [frequencies] lines as `%` templates: the
# report embeds them, and the equilibria and frequencies commands fill
# them alone.
EQUILIBRIA_CSV = "\n".join([
    "method,x,y,residual,gap_vs_numeric", "numeric,%.17g,%.17g,%.17g,0",
    *(f"{method},%.17g,%.17g,%.17g,%.17g" for method in ("series", "epsilon-form"))])
FREQUENCY_LINES = "\n".join([
    "omega1: %.17g", "omega2: %.17g", "moser.min_combination: %.17g",
    "moser.worst_pair: %d,%d", "moser.passed: %s"])


def equilibria_values(res: PipelineResult, printed: Audit) -> tuple:
    """The numeric, series and epsilon-form points in `EQUILIBRIA_CSV`."""
    num, series, epsform = res.eq_numeric, printed.eq_series, printed.eq_epsform
    return (num.x, num.y, num.residual, series.x, series.y, series.residual,
            printed.eq_gaps[0], epsform.x, epsform.y, epsform.residual, printed.eq_gaps[1])


def frequency_values(freq: FrequencyPair, moser) -> tuple:
    """The frequencies and the non-resonance check in `FREQUENCY_LINES`."""
    return (freq.omega1, freq.omega2, moser.min_combination, *moser.worst_pair,
            PASS_FAIL[moser.passed])


def _report_template(stages: tuple, gates: tuple, outside: bool, b2,
                     verdicts: bool) -> str:
    """The `%` template of a report on a result run through `stages`, with
    these gate names, a series.outside_domain line if `outside`, B2 on the
    pair of layouts `b2` (None before the b2 stage) and a [series-vs-oracle]
    block if `verdicts`: `%.17g` for a float, `%s` for text (the branch
    among the header fields, which are floats) and every other character
    as printed."""
    text = lambda line: line.replace("%", "%%")
    lines = ["# verification report",
             *(f"{key}: %.17g" for key in HEADER), "branch: %s",
             text(f"stages: {','.join(stages)}"),
             *(f"tol.{name}: %.17g" for name in TOLERANCES),
             *(text(f"gate.{name}: ") + "%s" for name in gates),
             *(["series.outside_domain: %s"] if outside else []),
             "", "[equilibria]", EQUILIBRIA_CSV]
    if "b1" in stages:
        lines += ["", "[frequencies]", FREQUENCY_LINES, "", "[normal-modes]",
                  "symplectic_defect: %.17g", "h2_residual: %.17g",
                  "b1_residual: %.17g", "entry,numeric,closed,abs_gap",
                  *(f"{name},%.17g,%.17g,%.17g" for name in J_ENTRIES)]
    if b2 is not None:
        lines += ["", "[second-order]", "residual_x: %.17g", "residual_y: %.17g",
                  "closed_vs_oracle_sup: %.17g", "coefficient,closed,oracle,abs_gap",
                  *(f"{name},%.17g,%.17g,%.17g" for name in RS_NAMES)]
        for name, layout in zip(("b2x", "b2y"), b2):
            lines.append(f"{name}_series:")
            lines += ("  " + line for line in plan(listing, layout)[1].splitlines())
    if "h3" in stages:
        lines += ["", "[h3]", *(f"{name}: %.17g" for name in (
            "A30", "A21", "A12", "A03", "scale", "h2_form_residual", "ablation_max")),
            "h3_series_above_h3_factor_x_scale:%s"]
    if verdicts:
        lines += ["", "[series-vs-oracle]",
                  "quantity,perturbation,gap_h,gap_half,classification", "%s"]
    return "\n".join([*lines, ""])


def render_report(res: PipelineResult, printed: Audit, gates: dict,
                  verdicts: Verdicts | None = None) -> str:
    """Structured text: key-value lines plus CSV blocks per stage.
    `printed` is `report_audit(res)` or `audit(res)`, which print the same;
    `gates` is `res.gates()`; `verdicts` comes from
    `detect_discrepancies`.  The report is one template, planned per shape
    (:func:`_report_template`), filled with one tuple of values."""
    p, opt, stages, b2 = res.params, res.options, res.stages, res.b2_values
    outside = printed.series_outside_domain
    template = plan(_report_template, stages, tuple(gates), bool(outside),
                    None if b2 is None else (b2[0][0], b2[1][0]), bool(verdicts))
    values = [*_header(p), opt.branch, *_tolerances(opt),
              *map(PASS_FAIL.__getitem__, gates.values()),
              *([outside] if outside else []), *equilibria_values(res, printed)]
    if "b1" in stages:
        nm = res.nm
        values += (*frequency_values(res.freq, res.moser), nm.symplectic_defect,
                   nm.h2_residual, res.b1_residual, *printed.j_rows)
    if b2 is not None:
        values += (*res.b2_residuals, printed.b2_sup, *printed.rs_rows)
        for layout, z in b2[:2]:
            values += [part for n in plan(listing, layout)[0]
                       for part in (z[n].real, z[n].imag)]
    if "h3" in stages:
        h2_residual, *grades, ablation_max = res.h3_values[1]
        values += (*grades, res.intermediate_scale(), h2_residual, ablation_max)
        # the gate's own test: a term survives the chop exactly when one
        # of its parts exceeds the bound, and h3_max is the sup of them all
        bound = res.h3_bound()
        values.append("".join(
            "\n  " + line for line in res.h3.series.chop(bound).pretty().splitlines())
            if res.h3_max() > bound else " none")
    if verdicts:
        values.append(verdicts.text)
    return template % tuple(values)
