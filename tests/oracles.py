"""Reference physics and evaluators that the tests check the package against.

Nothing in the package reads these.  `eom_rhs` is the full equations of
motion with the velocity-dependent (dissipative) drag; `lagrangian_rhs` is
the flow of the package's Lagrangian, whose drag keeps only the at-rest
term W1 n (y, -(x+mu))/r1^2, because its velocity-dependent drag term is a
total time derivative.  The normal form of the chain follows the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from l4norm.dalembert import apply_poly_in_D
from l4norm.model import ModelParams, State, lagrangian, potential_gradient


@dataclass(frozen=True)
class CanonicalState:
    """Position and canonical momenta."""

    x: float
    y: float
    px: float
    py: float


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


def lagrangian_rhs(s: State, p: ModelParams):
    """Accelerations (xddot, yddot) of the Euler-Lagrange equations of
    `l4norm.model.lagrangian`: Coriolis, the potential gradient and the
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
