"""Planar photogravitational restricted three-body model with drag.

Ground truth for every other module: parameters, the rotating-frame
potential and its gradient, and the Lagrangian with the drag terms.  All
quantities are dimensionless (primary separation 1, total mass 1,
gravitational constant 1).

Conventions
-----------
* The radiating primary of mass 1-mu sits at (-mu, 0); its gravity is scaled
  by the mass-reduction factor q1.  The oblate primary of mass mu sits at
  (1-mu, 0) and contributes the A2/(2 r2^3) potential correction.
* The mean motion satisfies n^2 = 1 + 1.5*A2.
* Drag strength W1 = (1-mu)*(1-q1)/cd.
"""

from __future__ import annotations

import functools
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

    @classmethod
    def _from_perturbations(cls, mu, epsilon, A2, W1):
        """Parameters with W1 (of either sign) set directly, not through cd,
        which reads nan; q1 = 1 - epsilon."""
        p = cls(mu=mu, q1=1.0 - epsilon, A2=A2, cd=math.inf)
        object.__setattr__(p, "W1", W1)
        object.__setattr__(p, "cd", math.nan)
        return p

    @functools.cached_property
    def mirror(self) -> ModelParams:
        """These parameters with W1 negated, made once per instance: the
        L5 chain at W1 is the L4 chain at -W1 reflected in y (see
        `l4norm.closedforms.MIRROR_ODD`)."""
        return ModelParams._from_perturbations(self.mu, self.epsilon, self.A2,
                                               -self.W1)


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
