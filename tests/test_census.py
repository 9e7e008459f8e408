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
end as `oracles.newton_by_two_calls` ends, bit for bit.
"""

import importlib
import math
import random
from pathlib import Path

import pytest

from l4norm.equilibria import solve_triangular_numeric
from l4norm.errors import ConvergenceError, DomainError, L4NormError
from l4norm.model import ModelParams
from l4norm.verify import PipelineOptions, run_pipeline
from oracles import newton_by_two_calls

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
