"""Order-of-remainder classification and the registry of known discrepancies.

Every closed-form series in this library is compared against an independent
numeric oracle.  The comparison runs the series at a perturbation strength h
and at h/2 and classifies the remainder:

* ``consistent``   -- remainder shrinks ~4x (or sits at the noise floor):
                      pure truncation, the series is right at first order.
* ``first_order``  -- remainder shrinks ~2x: a first-order coefficient of
                      the series disagrees with the oracle.
* ``zeroth_order`` -- remainder does not shrink: the series disagrees
                      already at zero perturbation strength.

Anything not ``consistent`` must appear in :data:`KNOWN_DISCREPANCIES`;
the acceptance suite fails if a disagreement is detected but unregistered
(silently absorbed) or registered but no longer detected (stale entry).
"""

from __future__ import annotations

from dataclasses import dataclass

HALVING_LOW = 3.5
HALVING_HIGH = 4.5
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class RemainderVerdict:
    quantity: str
    perturbation: str
    gap_h: float
    gap_half: float
    classification: str  # consistent | first_order | zeroth_order


def classify_remainder(quantity: str, perturbation: str, gap_h: float,
                       gap_half: float, scale: float = 1.0) -> RemainderVerdict:
    """Classify a halving experiment; `scale` sets the units of NOISE_FLOOR."""
    noise = NOISE_FLOOR * max(scale, 1.0)
    if gap_h <= noise and gap_half <= noise:
        cls = "consistent"  # remainder below resolution (series may be exact)
    else:
        ratio = gap_h / max(gap_half, 1e-300)
        if HALVING_LOW < ratio < HALVING_HIGH:
            cls = "consistent"
        elif ratio > 1.5:
            cls = "first_order"
        else:
            cls = "zeroth_order"
    return RemainderVerdict(quantity, perturbation, gap_h, gap_half, cls)


@dataclass(frozen=True)
class Discrepancy:
    """A registered disagreement between a printed closed form and its oracle."""

    key: str           # quantity identifier used by the detectors
    perturbation: str  # which single-perturbation run exposes it ("any" = classical)
    order: str         # first_order | zeroth_order
    location: str      # where the offending term sits
    note: str


# Populated from the verification pipeline's detector output; every entry has
# been confirmed by a direct classical comparison or a halving run against
# the independent oracle.  A "classical" entry shadows that key's
# perturbation legs (a zeroth-order error dominates any first-order one).
KNOWN_DISCREPANCIES: tuple = (
    Discrepancy(
        "offset.a", "classical", "zeroth_order",
        "origin-shift a series, leading constant",
        "printed braces lack the leading 1: the series evaluates to 0 at zero "
        "perturbations while a = x* + mu = 1/2; with the 1 restored it equals "
        "the epsilon-form x* + mu"),
    Discrepancy(
        "offset.b", "W1", "first_order",
        "origin-shift b series, drag term",
        "inherits the epsilon-form drag coefficient (see "
        "equilibria.epsilon_form/W1)"),
    Discrepancy(
        "equilibria.epsilon_form", "W1", "first_order",
        "epsilon-form equilibrium, n W1 terms",
        "printed drag displacement is O(1)*W1, but the force-balance response "
        "scales like W1/(mu(1-mu)) (the full series and the Newton oracle "
        "agree on this); coefficient wrong at first order in W1"),
    Discrepancy(
        "cubic.T1", "W1", "first_order",
        "cubic coefficient T1, n W1 terms",
        "drag terms disagree with the Taylor cubic at the true equilibrium"),
    Discrepancy(
        "cubic.T2", "classical", "zeroth_order",
        "cubic coefficient T2, constant bracket",
        "printed bracket 14 evaluates to 21*sqrt(3)/8; the Taylor cubic gives "
        "-3*sqrt(3)/8 (bracket -2)"),
    Discrepancy(
        "cubic.T3", "classical", "zeroth_order",
        "cubic coefficient T3, gamma bracket",
        "printed bracket 2*gamma evaluates to -9*gamma/8; the Taylor cubic "
        "gives -33*gamma/8 (bracket 22*gamma/3)"),
    Discrepancy(
        "cubic.T4", "epsilon", "first_order",
        "cubic coefficient T4, epsilon term",
        "printed -8/3 epsilon term disagrees with the Taylor cubic"),
    Discrepancy(
        "cubic.T4", "W1", "first_order",
        "cubic coefficient T4, n W1 terms",
        "drag terms disagree with the Taylor cubic at the true equilibrium"),
    Discrepancy(
        "cubic.T5_print", "W1", "first_order",
        "drag cubic T5, first brace term",
        "printed 3(ax+by) is degree 2 inside a cubic; squaring it reproduces "
        "the Taylor gauge cubic exactly, the print misses the 3(ax+by)^2 "
        "contribution at first order in W1"),
    Discrepancy(
        "b1.print_weights", "classical", "zeroth_order",
        "first-order y component, last two printed weights",
        "printed omega*sqrt(2 I) weight and the sine on the final term do not "
        "annihilate the linearized equations; the P/Q weights "
        "(sqrt(2 I omega), cosine) do so to machine precision"),
    Discrepancy(
        "forcing.partial_only", "W1", "first_order",
        "second-order forcing definition",
        "taking only the position partial of the cubic (without the "
        "total-derivative counterterm of its velocity part) leaves O(W1) "
        "angle-dependent terms in the substituted degree-3 energy; the "
        "Euler-Lagrange forcing cancels them to round-off"),
) + tuple(
    Discrepancy(
        f"j.{name}", kind, "first_order",
        f"normal-mode entry {name}, {kind} bracket",
        "printed first-order bracket is not a valid mode-shape correction: "
        "the linearized-equation residual of the printed combination scales "
        "linearly in the perturbation (classical parts match exactly)")
    for name in ("J13", "J14", "J21", "J22", "J23", "J24")
    for kind in ("epsilon", "A2", "W1")
) + tuple(
    Discrepancy(
        f"b2.{name}{i}", "classical", "zeroth_order",
        f"second-order coefficient {name}{i}",
        "printed coefficient tables disagree with the oracle solution "
        "already at zero perturbations; neither the verbatim tables nor a "
        "forcing assembled from the printed cubic reproduces them; nor did "
        "the structural corrections (r5/r6 divisors matched to their "
        "harmonics, the F4'' tail of r3, the J24 factor of r6), which at "
        "mu = 0.01 still missed every r_i and s_i by more than 2.4")
    for name in ("r", "s")
    for i in range(1, 11)
)


REGISTERED_KEYS = frozenset((d.key, d.perturbation) for d in KNOWN_DISCREPANCIES)


def is_registered(quantity: str, perturbation: str) -> bool:
    """A (quantity, leg) verdict is covered if that exact leg is registered
    or the quantity carries a classical (zeroth-order) registration."""
    return ((quantity, perturbation) in REGISTERED_KEYS
            or (quantity, "classical") in REGISTERED_KEYS)
