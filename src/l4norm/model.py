"""Planar photogravitational restricted three-body model with drag.

Ground truth for every other module: parameters, the rotating-frame
potential and the Lagrangian with the drag terms.  All quantities are
dimensionless (primary separation 1, total mass 1, gravitational
constant 1).

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
from collections import namedtuple

from .errors import CollisionError, ParameterError

COLLISION_RADIUS = 1e-9

SQRT3 = math.sqrt(3.0)

# Above this size the first-order series downstream start to degrade visibly.
_SMALLNESS_WARN = 0.1


class ModelParams(namedtuple("ModelParams", "mu q1 A2 cd epsilon W1 n gamma delta")):
    """Physical and derived parameters of the model, a named tuple.

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

    # No __slots__: the cached `mirror` lives in the instance dict.

    def __new__(cls, mu: float, q1: float = 1.0, A2: float = 0.0, cd: float = 1.0):
        if not 0.0 < mu <= 0.5:
            raise ParameterError(f"mu must lie in (0, 1/2], got {mu}")
        # Each check is written so that NaN fails it.
        if not q1 <= 1.0:
            raise ParameterError(f"q1 must not exceed 1, got {q1}")
        if not q1 > 0.0:
            raise ParameterError(f"q1 must be positive, got {q1}")
        if not A2 >= 0.0:
            raise ParameterError(f"A2 must be non-negative, got {A2}")
        if not cd > 0.0:
            raise ParameterError(f"cd must be positive, got {cd}")
        epsilon, W1 = 1.0 - q1, (1.0 - mu) * (1.0 - q1) / cd
        for name, value in (("epsilon", epsilon), ("A2", A2), ("W1", W1)):
            if value > _SMALLNESS_WARN:
                warnings.warn(
                    f"{name} = {value:.3g} exceeds {_SMALLNESS_WARN}; "
                    "first-order series lose accuracy",
                    stacklevel=2,
                )
        return tuple.__new__(cls, (mu, q1, A2, cd, epsilon, W1,
                                   math.sqrt(1.0 + 1.5 * A2), 1.0 - 2.0 * mu,
                                   q1 ** (1.0 / 3.0)))

    @classmethod
    def _from_perturbations(cls, mu, epsilon, A2, W1):
        """Parameters with W1 (of either sign) set directly, not through cd,
        which reads nan; q1 = 1 - epsilon."""
        return cls(mu=mu, q1=1.0 - epsilon, A2=A2, cd=math.inf)._replace(
            W1=W1, cd=math.nan)

    @functools.cached_property
    def mirror(self) -> ModelParams:
        """These parameters with W1 negated, made once per instance: the
        L5 chain at W1 is the L4 chain at -W1 reflected in y (see
        `l4norm.closedforms.MIRROR_ODD`)."""
        return ModelParams._from_perturbations(self.mu, self.epsilon, self.A2,
                                               -self.W1)


def _radii(x: float, y: float, p: ModelParams):
    """(r1, r2), or `CollisionError` naming the primary within
    `COLLISION_RADIUS`: the one collision guard of the package."""
    r1 = math.hypot(x + p.mu, y)
    r2 = math.hypot(x + p.mu - 1.0, y)
    if r1 < COLLISION_RADIUS:
        raise CollisionError("first", r1)
    if r2 < COLLISION_RADIUS:
        raise CollisionError("second", r2)
    return r1, r2


def _potential(x: float, y: float, r1: float, r2: float, p: ModelParams) -> float:
    return (0.5 * (p.n * p.n) * (x * x + y * y) + (1.0 - p.mu) * p.q1 / r1
            + p.mu / r2 + 0.5 * p.mu * p.A2 / r2**3)


def _lagrangian(x: float, y: float, xdot: float, ydot: float,
                p: ModelParams) -> float:
    """The Lagrangian including the gauge and angle terms of the drag, with
    one radii computation.

    The drag enters as W1*[((x+mu)*xdot + y*ydot)/(2 r1^2) - n*atan2(y, x+mu)];
    the two-argument angle keeps the term continuous away from the radiating
    primary itself.
    """
    r1, r2 = _radii(x, y, p)
    x1 = x + p.mu
    kinetic = 0.5 * (xdot**2 + ydot**2)
    coriolis = p.n * (x * ydot - xdot * y)
    drag = p.W1 * ((x1 * xdot + y * ydot) / (2.0 * r1 * r1)
                   - p.n * math.atan2(y, x1))
    return kinetic + coriolis + _potential(x, y, r1, r2, p) + drag
