"""Planar photogravitational restricted three-body model with dissipative drag.

Ground truth for every other module: parameters, the rotating-frame force
field, the Lagrangian with the velocity-dependent drag terms, and the
canonical momenta.  All quantities are dimensionless (primary separation 1,
total mass 1, gravitational constant 1).

Conventions
-----------
* The radiating primary of mass 1-mu sits at (-mu, 0); its gravity is scaled
  by the mass-reduction factor q1.  The oblate primary of mass mu sits at
  (1-mu, 0) and contributes the A2/(2 r2^3) potential correction.
* The mean motion satisfies n^2 = 1 + 1.5*A2.
* Drag strength W1 = (1-mu)*(1-q1)/cd.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import CollisionError, ParameterError

COLLISION_RADIUS = 1e-9

SQRT3 = math.sqrt(3.0)

# Above this size the first-order series downstream start to degrade visibly.
_SMALLNESS_WARN = 0.1


@dataclass(frozen=True)
class ModelParams:
    """Physical and derived parameters of the model.

    Parameters
    ----------
    mu : float
        Mass ratio of the smaller primary, 0 < mu <= 1/2.
    q1 : float
        Mass-reduction factor of the radiating primary, 0 < q1 <= 1.
    A2 : float
        Oblateness coefficient of the smaller primary, >= 0.
    cd : float
        Drag normalization constant, > 0.

    Derived fields (computed, not passed): epsilon = 1 - q1,
    W1 = (1-mu)(1-q1)/cd, n = sqrt(1 + 1.5*A2), gamma = 1 - 2*mu,
    delta = q1**(1/3).
    """

    mu: float
    q1: float = 1.0
    A2: float = 0.0
    cd: float = 1.0
    epsilon: float = field(init=False)
    W1: float = field(init=False)
    n: float = field(init=False)
    gamma: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.mu <= 0.5:
            raise ParameterError(f"mu must lie in (0, 1/2], got {self.mu}")
        # Each check is written so that NaN fails it.
        if not self.q1 <= 1.0:
            raise ParameterError(f"q1 must not exceed 1, got {self.q1}")
        if not self.q1 > 0.0:
            raise ParameterError(f"q1 must be positive, got {self.q1}")
        if not self.A2 >= 0.0:
            raise ParameterError(f"A2 must be non-negative, got {self.A2}")
        if not self.cd > 0.0:
            raise ParameterError(f"cd must be positive, got {self.cd}")
        object.__setattr__(self, "epsilon", 1.0 - self.q1)
        object.__setattr__(self, "W1", (1.0 - self.mu) * (1.0 - self.q1) / self.cd)
        object.__setattr__(self, "n", math.sqrt(1.0 + 1.5 * self.A2))
        object.__setattr__(self, "gamma", 1.0 - 2.0 * self.mu)
        object.__setattr__(self, "delta", self.q1 ** (1.0 / 3.0))
        for name in ("epsilon", "A2", "W1"):
            value = getattr(self, name)
            if value > _SMALLNESS_WARN:
                warnings.warn(
                    f"{name} = {value:.3g} exceeds {_SMALLNESS_WARN}; "
                    "first-order series lose accuracy",
                    stacklevel=3,
                )


@dataclass(frozen=True)
class State:
    """Rotating-frame position and velocity."""

    x: float
    y: float
    xdot: float = 0.0
    ydot: float = 0.0

    def radii(self, p: ModelParams):
        """Distances to the radiating and oblate primaries, collision-guarded."""
        r1 = math.hypot(self.x + p.mu, self.y)
        r2 = math.hypot(self.x + p.mu - 1.0, self.y)
        if r1 < COLLISION_RADIUS:
            raise CollisionError("first", r1)
        if r2 < COLLISION_RADIUS:
            raise CollisionError("second", r2)
        return r1, r2


@dataclass(frozen=True)
class CanonicalState:
    """Position and canonical momenta."""

    x: float
    y: float
    px: float
    py: float


def effective_potential(s: State, p: ModelParams) -> float:
    """U1 = n^2 (x^2+y^2)/2 + (1-mu) q1 / r1 + mu / r2 + mu A2 / (2 r2^3)."""
    r1, r2 = s.radii(p)
    n2 = p.n * p.n
    return (
        0.5 * n2 * (s.x * s.x + s.y * s.y)
        + (1.0 - p.mu) * p.q1 / r1
        + p.mu / r2
        + 0.5 * p.mu * p.A2 / r2**3
    )


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


def lagrangian(s: State, p: ModelParams) -> float:
    """Lagrangian including the gauge and angle terms of the drag.

    The drag enters as W1*[((x+mu)*xdot + y*ydot)/(2 r1^2) - n*atan2(y, x+mu)];
    the two-argument angle keeps the term continuous away from the radiating
    primary itself.
    """
    r1, _ = s.radii(p)
    x1 = s.x + p.mu
    kinetic = 0.5 * (s.xdot**2 + s.ydot**2)
    coriolis = p.n * (s.x * s.ydot - s.xdot * s.y)
    potential = effective_potential(s, p)
    drag = p.W1 * (
        (x1 * s.xdot + s.y * s.ydot) / (2.0 * r1 * r1)
        - p.n * math.atan2(s.y, x1)
    )
    return kinetic + coriolis + potential + drag


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
