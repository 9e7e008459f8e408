"""The three second-order stages, each one compiled kernel on plain
``(layout, values)`` pairs, against their step-by-step references in
oracles.py on series: bit for bit, keys in the same order, over the
benchmark's domain, and raising the reference's errors."""

import ast
import builtins
import collections
import dis
import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l4norm import dalembert, layout, normalform
from l4norm.dalembert import FrequencyPair
from l4norm.errors import ContractError, CriticalTermError, L4NormError, SmallDivisorError
from l4norm.model import ModelParams
from l4norm.normalform import (forcing_x2y2, h3_normal_coefficients,
                               solve_second_order_oracle)
from l4norm.polyalg import QuadraticCoefficients, taylor_lagrangian
from l4norm.verify import PipelineOptions, audit, run_pipeline

import objectpath
import oracles
from objectpath import DAlembertSeries, TruncatedPoly
from oracles import (b1_series, b2_series, forcing_by_ops, forcing_series, h3_by_ops,
                     homogeneous_part, pair_of, second_order_by_ops, series_of)

# Mass ratios where, drag-free, H3's degree-2 (1, 1, 1, 1) coefficient
# cancels to an exact 0.0 at some and not at others, and where, at drag
# (q1 0.999, A2 1e-4, cd 20), a slot of the B1 residual does.
CANCELLING_MUS = (0.00445, 0.0044945, 0.004539, 0.0045835)


def bits(series):
    """Keys in stored order with the exact bits of each value, of a series
    or a ``(layout, values)`` pair."""
    layout, values = series if isinstance(series, tuple) else pair_of(series)
    return [(key, z.real.hex(), z.imag.hex()) for key, z in zip(layout.keys, values)]


def outcome(fn, *args):
    """``("ok", result)``, or the class of the error raised with its
    message and attributes, exactly."""
    try:
        return "ok", fn(*args)
    except L4NormError as exc:
        return type(exc), str(exc), repr(sorted(vars(exc).items()))


def check_second_order(res, x2, y2, cubic, floor=1e-8):
    """The B2 solve and H3 at this forcing, (layout, values) pairs, equal
    their references on series."""
    w, n = res.freq, res.params.n
    solved = outcome(solve_second_order_oracle, res.efg, w, n, x2, y2, floor)
    reference = outcome(second_order_by_ops, res.efg, w, n, series_of(x2),
                        series_of(y2), floor)
    if solved[0] != "ok":
        assert solved == reference
        return
    (b2x, b2y, scale), (ref_x, ref_y, ref_scale) = solved[1], reference[1]
    assert bits(b2x) == bits(ref_x) and bits(b2y) == bits(ref_y)
    assert scale.hex() == ref_scale.hex()
    h3, norms = h3_normal_coefficients(cubic, res.lagrangian_poly, res.b1_values,
                                       (b2x, b2y), w)
    h3_ref = h3_by_ops(series_of(cubic), homogeneous_part(res.lagrangian_poly, 2),
                       b1_series(res.b1_values), (ref_x, ref_y), w)
    assert bits(h3) == bits(h3_ref.series)
    # h2_residual, A30..A03 and ablation_max
    assert [v.hex() for v in norms] == [v.hex() for v in h3_ref[1:]]


def check_stages(res):
    """Every stage from the forcing on, at the chain's forcing and at its
    position-partial forcing (the audit's `forcing.partial_only`)."""
    lagrangian = taylor_lagrangian(res.params, res.shift, 3)
    forcing = forcing_x2y2(lagrangian, res.b1_values, res.freq)
    reference = forcing_by_ops(homogeneous_part(lagrangian, 3), *b1_series(res.b1_values),
                               res.freq)
    (x2, y2), (x2p, y2p), cubic = forcing
    (rx2, ry2), (rx2p, ry2p), rcubic = reference
    assert (list(map(bits, (x2, y2, x2p, y2p, cubic)))
            == list(map(bits, (rx2, ry2, rx2p, ry2p, rcubic))))
    check_second_order(res, x2, y2, cubic)
    check_second_order(res, x2p, y2p, cubic)


@st.composite
def domain_points(draw):
    """A point of the benchmark's domain: mu <= 0.037, both branches, drag
    (epsilon <= 0.01, A2 <= 0.005, cd in [1, 100]) on or off."""
    mu = draw(st.floats(0.0009, 0.037))
    A2 = draw(st.floats(0.0, 0.005))
    if draw(st.booleans()):
        p = ModelParams(mu=mu, q1=1.0 - draw(st.floats(0.0, 0.01, exclude_min=True)),
                        A2=A2, cd=draw(st.floats(1.0, 100.0)))
    else:
        p = ModelParams(mu=mu, A2=A2)
    return p, draw(st.sampled_from(("L4", "L5")))


def first_order(p, branch):
    try:
        return run_pipeline(p, PipelineOptions(branch=branch), stages=("b1",))
    except L4NormError:
        return None


@settings(max_examples=60, deadline=None)
@given(domain_points())
def test_stages_equal_their_references_over_the_domain(point):
    res = first_order(*point)
    assume(res is not None)
    check_stages(res)


@pytest.mark.parametrize("mu", CANCELLING_MUS)
@pytest.mark.parametrize("branch", ("L4", "L5"))
def test_stages_equal_their_references_where_h3_cancels(mu, branch):
    check_stages(first_order(ModelParams(mu=mu), branch))


def test_stages_equal_their_references_along_the_chain():
    # run_pipeline's own values: forcing, B2 with its scale, and H3
    for mu, drag in ((0.01, False), (0.02, True)):
        p = (ModelParams(mu=mu, q1=0.995, A2=1e-3, cd=5.0) if drag
             else ModelParams(mu=mu))
        res = run_pipeline(p)
        l3, b1 = homogeneous_part(res.lagrangian_poly, 3), b1_series(res.b1_values)
        (x2, y2), _, cubic = forcing_by_ops(l3, *b1, res.freq)
        chain_x2, chain_y2, chain_cubic = forcing_series(res)
        assert bits(chain_x2) == bits(x2) and bits(chain_y2) == bits(y2)
        assert bits(chain_cubic) == bits(cubic)
        ref = second_order_by_ops(res.efg, res.freq, p.n, x2, y2)
        assert bits(b2_series(res)[0]) == bits(ref[0])
        assert res.intermediate_scale() == ref[2]
        h3 = h3_by_ops(cubic, homogeneous_part(res.lagrangian_poly, 2), b1, ref[:2], res.freq)
        assert bits(res.h3.series) == bits(h3.series)
        assert [v.hex() for v in res.h3[1:]] == [v.hex() for v in h3[1:]]


# -- the guards --------------------------------------------------------------

# E = F = G = 0 with n = 1 and w1 = 1: at the (1, 0) harmonic both rows of
# the adjugate annihilate (X, Y) = (-i, 1) in exact arithmetic, so that
# critical slot evaluates to exactly 0; at w2 = w1 / 2 the divisor of the
# (0, 2) harmonic is exactly 0.
EFG = QuadraticCoefficients(0.0, 0.0, 0.0)
W = FrequencyPair(1.0, 0.5)


def solve_both(x2, y2, floor=1e-8):
    """The kernel's and the reference's outcomes at these hand-built
    forcings, series; equal, and the reference's returned."""
    solved = outcome(solve_second_order_oracle, EFG, W, 1.0, pair_of(x2),
                     pair_of(y2), floor)
    reference = outcome(second_order_by_ops, EFG, W, 1.0, x2, y2, floor)
    if solved[0] == "ok":
        (b2x, b2y, scale), (ref_x, ref_y, ref_scale) = solved[1], reference[1]
        assert reference[0] == "ok"
        assert bits(b2x) == bits(ref_x) and bits(b2y) == bits(ref_y)
        assert scale == ref_scale
    else:
        assert solved == reference
    return reference


def series(*terms):
    return DAlembertSeries({key: cs for key, cs in terms})


@pytest.mark.parametrize("key", [(1, 0, 1, 0), (0, 1, 0, 1), (3, 0, 1, 0),
                                 (1, 2, 1, 0), (0, 3, 0, 1)])
@pytest.mark.parametrize("size", [1e-3, 1e-15])
def test_a_critical_harmonic_raises_the_reference_error(key, size):
    for x2, y2 in ((series((key, (size, 0.0))), series()),
                   (series(), series((key, (0.0, -size)))),
                   (series(((2, 0, 2, 0), (1.0, 0.5)), (key, (size, size))), series())):
        solved = solve_both(x2, y2)
        assert solved[0] is CriticalTermError
        assert f"critical harmonic {key[2:]}" in solved[1]


def test_a_divisor_below_the_floor_raises_the_reference_error():
    solved = solve_both(series(((0, 2, 0, 2), (1.0, 0.0))), series())
    assert solved[0] is SmallDivisorError
    assert "'factor', 'Delta_(0,2)'" in solved[2]
    # with no floor, that divisor of exactly 0 divides, as the reference does
    x2, y2 = series(((0, 2, 0, 2), (1.0, 0.0))), series()
    with pytest.raises(ZeroDivisionError):
        solve_second_order_oracle(EFG, W, 1.0, pair_of(x2), pair_of(y2), 0.0)
    with pytest.raises(ZeroDivisionError):
        second_order_by_ops(EFG, W, 1.0, x2, y2, 0.0)


def test_the_first_failing_term_in_stored_order_is_reported():
    small, critical = ((0, 2, 0, 2), (1.0, 0.0)), ((1, 0, 1, 0), (1.0, 0.0))
    assert solve_both(series(small, critical), series())[0] is SmallDivisorError
    assert solve_both(series(critical, small), series())[0] is CriticalTermError
    # Y2 alone stores the failing term first: Phi2's order is X2's keys,
    # then Y2's new ones
    first = solve_both(series(small), series(critical, small))
    assert first[0] is SmallDivisorError
    first = solve_both(series(((2, 0, 2, 0), (1.0, 0.0))), series(critical, small))
    assert first[0] is CriticalTermError


def test_a_critical_slot_of_exactly_zero_raises_nothing():
    x2 = series(((1, 0, 1, 0), (0.0, -1.0)), ((2, 0, 2, 0), (1.0, 0.5)))
    y2 = series(((1, 0, 1, 0), (1.0, 0.0)))
    solved = solve_both(x2, y2)
    assert solved[0] == "ok"
    assert solved[1][0].layout.keys == ((2, 0, 2, 0),)
    # the same slot a hair off zero raises
    y2 = series(((1, 0, 1, 0), (1.0 + 2.0**-52, 0.0)))
    assert solve_both(x2, y2)[0] is CriticalTermError


def test_a_slot_of_exactly_zero_on_a_zero_divisor_raises_nothing():
    # at (0, 2) theta = -w1, so the adjugate annihilates (X, Y) = (i, 1)
    # there and the divisor is exactly 0: that slot is neither checked nor
    # divided, with or without a floor
    x2 = series(((0, 2, 0, 2), (0.0, 1.0)), ((2, 0, 2, 0), (1.0, 0.5)))
    y2 = series(((0, 2, 0, 2), (1.0, 0.0)))
    for floor in (1e-8, 0.0):
        solved = solve_both(x2, y2, floor)
        assert solved[0] == "ok"
        assert solved[1][1].layout.keys == ((2, 0, 2, 0),)
    y2 = series(((0, 2, 0, 2), (1.0, 2.0**-52)))
    assert solve_both(x2, y2)[0] is SmallDivisorError


def test_the_forcing_reads_only_the_cubic_terms():
    # the forcing reads the expansion's cubic terms by slot: terms of
    # another degree change no bit, and a polynomial without cubic terms
    # forces nothing; the reference, on a slice, refuses one not homogeneous
    b1 = (1.0 + 0j, 0.5 + 0j, 0.25 + 0.5j, -0.75 + 0.125j)
    cubic = TruncatedPoly(3, {(3, 0, 0, 0): 1.0, (1, 2, 0, 0): -0.5,
                              (0, 1, 1, 1): 2.0, (1, 0, 0, 2): 0.25})
    lower = TruncatedPoly(3, {(2, 0, 0, 0): 1.0, (1, 0, 0, 0): 2.0, (0, 0, 1, 1): 0.5})

    def forced(poly):
        (x2, y2), (x2p, y2p), energy = forcing_x2y2(poly, b1, W)
        return [bits(pair) for pair in (x2, y2, x2p, y2p, energy)]

    assert forced(lower + cubic) == forced(cubic) != forced(lower) == [[]] * 5
    b1x = series(((1, 0, 1, 0), (1.0, 0.0)))
    for l3 in (lower, lower + cubic):
        with pytest.raises(ContractError, match="homogeneous cubic"):
            forcing_by_ops(l3, b1x, b1x, W)


# -- what a chain runs ---------------------------------------------------------


def test_a_chain_runs_no_step_by_step_series_operation(monkeypatch):
    # to h3 and through its gates, the chain applies no D-polynomial,
    # divides by no Delta and adds no series outside the stage kernels
    calls = []

    def spy(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: calls.append(name)
                            or fn(*args, **kwargs))

    for owner in (dalembert, normalform, oracles):
        spy(owner, "apply_poly_in_D")
        spy(owner, "invert_delta")
    spy(objectpath.DAlembertSeries, "__add__")
    for p in (ModelParams(mu=0.01), ModelParams(mu=0.02, q1=0.995, A2=1e-3, cd=5.0)):
        for branch in ("L4", "L5"):
            res = run_pipeline(p, PipelineOptions(branch=branch))
            res.gates()
    assert calls == []
    # the references run each operation on its own
    x2, y2, cubic = forcing_series(res)
    h3_by_ops(cubic, homogeneous_part(res.lagrangian_poly, 2), b1_series(res.b1_values),
              b2_series(res), res.freq)
    second_order_by_ops(res.efg, res.freq, p.n, x2, y2)
    assert {"apply_poly_in_D", "invert_delta", "__add__"} <= set(calls)


def test_no_kernel_is_compiled_after_the_first_cancelling_point(monkeypatch):
    # exact zeros inside a stage, or in the B1 or B2 residuals, never reach
    # a layout: after the first of these points, drag-free or at drag, the
    # others, audited and gated, make no plan-table entry and compile no
    # kernel
    made = []
    compiled = layout.compiled
    monkeypatch.setattr(layout, "compiled", lambda source, name:
                        made.append(name) or compiled(source, name))
    for drag in ({}, {"q1": 0.999, "A2": 1e-4, "cd": 20.0}):
        first, *others = (ModelParams(mu=mu, **drag) for mu in CANCELLING_MUS)
        layout.plan.cache_clear()
        res = run_pipeline(first)
        audit(res)
        res.gates()
        count, misses = len(made), layout.plan.cache_info().misses
        for p in others:
            res = run_pipeline(p)
            audit(res)
            res.gates()
        assert len(made) == count
        assert layout.plan.cache_info().misses == misses


def test_every_kernel_reads_only_builtins_and_the_kernel_names(monkeypatch):
    # the guards' error classes are read only on a failing path, so a name
    # missing from `KERNEL_NAMES` would raise an untyped NameError only
    # there; read every global each kernel loads instead: audited chains
    # on both branches, drag-free and at drag, one series product, and a
    # B2 solve of a forcing with a critical harmonic, which no chain has
    made = []
    compiled = layout.compiled
    monkeypatch.setattr(layout, "compiled", lambda source, name:
                        made.append(compiled(source, name)) or made[-1])
    layout.plan.cache_clear()
    for p in (ModelParams(mu=0.01), ModelParams(mu=0.02, q1=0.995, A2=1e-3, cd=5.0)):
        for branch in ("L4", "L5"):
            audit(run_pipeline(p, PipelineOptions(branch=branch)))
    DAlembertSeries.single(1, 0, 1, 0, c=0.5) * DAlembertSeries.single(0, 1, 0, 1, s=2.0)
    assert solve_both(series(((1, 0, 1, 0), (1e-3, 0.0))), series())[0] is CriticalTermError
    allowed = set(dir(builtins)) | set(layout.KERNEL_NAMES)
    read = {}
    for kernel in made:
        assert kernel.__name__ in ("kernel", "rows", "taylor")
        names = {ins.argval for ins in dis.get_instructions(kernel)
                 if ins.opname == "LOAD_GLOBAL"}
        assert names <= allowed, (kernel.__name__, names - allowed)
        read[kernel.__name__] = read.get(kernel.__name__, set()) | names
    assert set(read) == {"kernel", "rows", "taylor"}
    assert {"CriticalTermError", "SmallDivisorError"} <= read["kernel"]
    assert "atan2" in read["taylor"]


# -- what the kernels form -------------------------------------------------------

# Multiplications in the source of the forcing and H3 kernels at mu 0.01,
# with drag (q1 0.999, A2 1e-4, cd 20) and without: each product prefix that
# two or more products share is formed once, D is complex(0.0, -theta), and
# no constant is scaled by 1 or 1.0.  The sources before these were 578 and
# 380 with drag, 314 and 380 without.
KERNEL_MULTIPLICATIONS = {True: (376, 238), False: (208, 238)}




# sha256 of the generated forcing, solve and H3 sources at the points of
# the test below; the H3 source is the same with and without drag.
KERNEL_SOURCES = {
    True: ("e7930bf594b17604435d8c39e2da8da01978806fdcfda755dd0ee7265fad1435",
           "6ad819c27008c64e0edaf2db0cca76f229a68151d9e9798a33a2c95273ff0dec",
           "62a1db58ac829174184bbccabcb7973d1b4f54c022f64ebff9fc85e0e8cba1de"),
    False: ("47d8ed555758b830b33f892aa934e36c260120754ff385bcb1dd566f1b768e65",
            "6ad819c27008c64e0edaf2db0cca76f229a68151d9e9798a33a2c95273ff0dec",
            "62a1db58ac829174184bbccabcb7973d1b4f54c022f64ebff9fc85e0e8cba1de"),
}


def stage_sources(drag: bool, monkeypatch) -> list:
    """The forcing, solve and H3 sources at mu 0.01, with drag (q1 0.999,
    A2 1e-4, cd 20) or without."""
    p = (ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0) if drag
         else ModelParams(mu=0.01))
    res = run_pipeline(p)
    sources = []
    compiled = layout.compiled
    monkeypatch.setattr(layout, "compiled", lambda source, name:
                        sources.append(source) or compiled(source, name))
    b1 = tuple(layout for layout, _ in normalform._b1_pairs(res.b1_values))
    (x2, y2), _, cubic = res.forcing
    normalform._forcing_kernel(homogeneous_part(res.lagrangian_poly, 3).layout, *b1)
    normalform._solve_kernel(x2[0], y2[0])
    normalform._h3_kernel(homogeneous_part(res.lagrangian_poly, 2).layout, *b1,
                          res.b2_values[0][0], res.b2_values[1][0], cubic[0])
    monkeypatch.undo()
    return sources


@pytest.mark.parametrize("drag", (True, False))
def test_the_stage_kernel_sources_are_pinned(drag, monkeypatch):
    sources = stage_sources(drag, monkeypatch)
    assert tuple(hashlib.sha256(source.encode()).hexdigest()
                 for source in sources) == KERNEL_SOURCES[drag]
@pytest.mark.parametrize("drag", (True, False))
def test_the_stage_kernels_form_each_product_once(drag, monkeypatch):
    forcing, _, h3 = stage_sources(drag, monkeypatch)
    counts = []
    for source in (forcing, h3):
        tree = ast.parse(source)
        counts.append(sum(isinstance(node, ast.Mult) for node in ast.walk(tree)))
        right = [ast.dump(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)]
        assert len(set(right)) == len(right)  # no value is bound twice
        # and no product is formed twice, but for the integer multiples of
        # a frequency that each harmonic's theta spells out
        products = collections.Counter(
            ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult))
        assert {text for text, n in products.items() if n > 1} <= {
            f"{k} * {w}" for k in range(5) for w in ("w1", "w2")}
    assert tuple(counts) == KERNEL_MULTIPLICATIONS[drag]
