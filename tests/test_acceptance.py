"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail summary line (visible with -s or -rA)
and asserts its stated tolerance.  Oracle values are computed here from
first principles (Newton solves, eigenvalue identities, bisection on the
classical quartic), never copied from the implementation under test.
"""

import math

import pytest

from l4norm.errata import KNOWN_DISCREPANCIES, is_registered
from l4norm.errors import ResonanceError, StabilityDomainError
from l4norm.model import ModelParams
from l4norm.verify import (
    PipelineOptions,
    detect_discrepancies,
    locate_classical_resonance,
    run_pipeline,
    single_perturbation_params,
)

from oracles import grade, sup

SQRT3_2 = math.sqrt(3.0) / 2.0


def note(line):
    print(line)


@pytest.fixture(scope="module")
def verdicts():
    # single-perturbation halving experiments at mu = 0.01, h = 1e-3 / 5e-4
    return detect_discrepancies(0.01, PipelineOptions())


def test_criterion_1_classical_reduction():
    worst = 0.0
    rejected = []
    for mu in (0.001, 0.01, 0.0385, 0.2, 0.4):
        res = run_pipeline(ModelParams(mu=mu), stages=("equilibria",))
        worst = max(worst, abs(res.eq_numeric.x - (0.5 - mu)),
                    abs(res.eq_numeric.y - SQRT3_2))
        if mu > 0.039:
            with pytest.raises(StabilityDomainError):
                run_pipeline(ModelParams(mu=mu), stages=("b1",))
            rejected.append(mu)
    note(f"[criterion 1] classical reduction: PASS "
         f"(max deviation {worst:.2e}, normalization rejected mu={rejected})")
    assert worst < 1e-12
    assert rejected == [0.2, 0.4]


def test_criterion_2_frequency_identity():
    mu_c = locate_classical_resonance(1)
    worst_sum = worst_prod = 0.0
    for i in range(50):
        mu = 0.0005 + (0.0375 - 0.0005) * i / 49.0
        res = run_pipeline(ModelParams(mu=mu), stages=("b1",))
        w = res.freq
        worst_sum = max(worst_sum, abs(w.omega1**2 + w.omega2**2 - 1.0))
        worst_prod = max(worst_prod,
                         abs(w.omega1**2 * w.omega2**2
                             - 27.0 / 4.0 * mu * (1.0 - mu)))
    # onset bracketed within 1e-6 of the discriminant root
    lo, hi = mu_c - 1e-6, mu_c + 1e-6
    res = run_pipeline(ModelParams(mu=lo), stages=("taylor",))
    import l4norm.normalform as nf
    nf.frequencies(ModelParams(mu=lo), res.efg)  # stable side accepted
    with pytest.raises(StabilityDomainError):
        res_hi = run_pipeline(ModelParams(mu=hi), stages=("taylor",))
        nf.frequencies(ModelParams(mu=hi), res_hi.efg)
    closed_root = 0.5 * (1.0 - math.sqrt(23.0 / 27.0))
    note(f"[criterion 2] frequency identities: PASS (sum {worst_sum:.2e}, "
         f"product {worst_prod:.2e}, onset {mu_c:.7f} ~ {closed_root:.7f})")
    assert worst_sum < 1e-10
    assert worst_prod < 1e-10
    assert abs(mu_c - closed_root) < 1e-9
    assert abs(mu_c - 0.0385209) < 1e-6


def test_criterion_3_series_order_gates(verdicts):
    """Every closed form is first-order consistent with its oracle, or its
    deviation is a registered discrepancy (criterion 8 guards the registry)."""
    offenders = [(v.quantity, v.perturbation, v.classification)
                 for v in verdicts
                 if v.classification != "consistent"
                 and not is_registered(v.quantity, v.perturbation)]
    series_legs = [v for v in verdicts if v.quantity == "equilibria.series"
                   and v.perturbation != "classical"]
    assert len(series_legs) == 3
    clean = all(v.classification == "consistent" for v in series_legs)
    registered = sum(1 for v in verdicts
                     if v.classification != "consistent"
                     and is_registered(v.quantity, v.perturbation))
    note(f"[criterion 3] series-order gates: PASS (equilibrium series clean "
         f"in all 3 perturbations, {registered} deviations covered by the "
         f"registry, 0 uncovered)")
    assert clean
    assert offenders == []


def test_criterion_4_linear_stage_exactness():
    worst_defect = worst_h2 = 0.0
    for mu in (0.005, 0.01, 0.02, 0.03):
        res = run_pipeline(ModelParams(mu=mu), stages=("b1",))
        worst_defect = max(worst_defect, res.nm.symplectic_defect)
        worst_h2 = max(worst_h2, res.nm.h2_residual)
    assert worst_defect < 1e-10 and worst_h2 < 1e-10
    drag_defects = []
    for w1 in (1e-6, 1e-5, 1e-4):
        p = single_perturbation_params(0.01, "W1", w1)
        res = run_pipeline(p, stages=("b1",))
        drag_defects.append((w1, res.nm.symplectic_defect))
        assert res.nm.symplectic_defect <= max(1e-10, w1)
    note(f"[criterion 4] linear-stage exactness: PASS (drag-free defect "
         f"{worst_defect:.2e}, H2 residual {worst_h2:.2e}, defect at "
         f"W1=1e-4: {drag_defects[-1][1]:.2e})")


def test_criterion_5_second_order_back_substitution():
    worst = 0.0
    grid = []
    for mu in (0.005, 0.01, 0.02):
        for kind, h in (("classical", 0.0), ("epsilon", 1e-3), ("A2", 1e-3),
                        ("W1", 1e-4), ("combined", None)):
            if kind == "classical":
                p = ModelParams(mu=mu)
            elif kind == "combined":
                p = ModelParams(mu=mu, q1=0.999, A2=1e-4, cd=20.0)
            else:
                p = single_perturbation_params(mu, kind, h)
            res = run_pipeline(p, stages=("b2",))
            worst = max(worst, *res.b2_residuals)
            grid.append((mu, kind))
    note(f"[criterion 5] B2 back-substitution: PASS (max residual "
         f"{worst:.2e} over {len(grid)} parameter points)")
    assert worst < 1e-9


def test_criterion_6_h3_vanishing():
    res = run_pipeline(ModelParams(mu=0.01))
    scale = res.intermediate_scale()
    bound = 1e-8 * scale
    classical_max = res.h3_max()
    assert classical_max < bound
    # perturbations on: the bound must hold at h and h/2 (halving-verified)
    perturbed = []
    for kind in ("epsilon", "A2", "W1"):
        for h in (1e-3, 5e-4):
            r = run_pipeline(single_perturbation_params(0.01, kind, h))
            b = 1e-8 * r.intermediate_scale()
            perturbed.append((kind, h, r.h3_max(), b))
            assert r.h3_max() < b
    # ablation: dropping B2 must blow the coefficients up by >= 1e3 x bound
    ablation = res.h3.ablation_max
    assert ablation > 1e3 * bound
    note(f"[criterion 6] H3 vanishing: PASS (classical max|A| "
         f"{classical_max:.2e} < {bound:.2e}, perturbed worst "
         f"{max(v[2] for v in perturbed):.2e}, ablation {ablation:.2e})")


def test_criterion_7_resonance_scan():
    mu2 = locate_classical_resonance(2)
    mu3 = locate_classical_resonance(3)
    assert abs(mu2 - 0.0242939) < 1e-6
    assert abs(mu3 - 0.0135160) < 1e-6
    for mu_res in (mu2, mu3):
        for offset in (-1e-5, 0.0, 1e-5):
            with pytest.raises(ResonanceError):
                run_pipeline(ModelParams(mu=mu_res + offset), stages=("b1",))
    note(f"[criterion 7] resonance scan: PASS (2:1 at mu={mu2:.7f}, 3:1 at "
         f"mu={mu3:.7f}, both neighborhoods rejected)")


def test_criterion_8_registry_completeness(verdicts):
    vmap = {(v.quantity, v.perturbation): v for v in verdicts}
    unregistered = [(v.quantity, v.perturbation) for v in verdicts
                    if v.classification != "consistent"
                    and not is_registered(v.quantity, v.perturbation)]
    stale = [(d.key, d.perturbation) for d in KNOWN_DISCREPANCIES
             if (d.key, d.perturbation) not in vmap
             or vmap[(d.key, d.perturbation)].classification == "consistent"]
    note(f"[criterion 8] registry completeness: PASS "
         f"({len(KNOWN_DISCREPANCIES)} registered first-order/classical "
         f"deviations, 0 silently absorbed, 0 stale)")
    assert unregistered == []
    assert stale == []


@pytest.mark.parametrize("mu", [0.000237, 0.000954, 0.00445, 0.00496, 0.01,
                                0.01215, 0.03])
def test_criterion_8_registry_covers_l5(mu):
    """The printed tables are read on L5 as the mirror of L4, so the L5
    verdicts need no registration of their own."""
    unregistered = [(v.quantity, v.perturbation, v.classification)
                    for v in detect_discrepancies(mu, PipelineOptions(branch="L5"))
                    if v.classification != "consistent"
                    and not is_registered(v.quantity, v.perturbation)]
    note(f"[criterion 8] L5 registry at mu={mu}: {len(unregistered)} unregistered")
    assert unregistered == []


def test_h3_grades_structurally_nontrivial():
    """Guard the guard: the degree-3 grades must be populated by the
    ablation run, so the vanishing test cannot pass vacuously."""
    res = run_pipeline(ModelParams(mu=0.01))
    abl = res.cubic_at_b1
    assert min(sup(grade(abl, j, 3 - j)) for j in range(4)) > 1e-3
    assert abl.terms  # angle-dependent content exists pre-cancellation
