"""Triangular equilibrium points: exact root-finding and closed-form series.

Three routes to the same point:

* :func:`solve_triangular_numeric` -- Newton iteration on the printed force
  field with the at-rest drag convention; the oracle.
* :func:`triangular_series` -- the delta/A2/W1 closed-form series.
* :func:`epsilon_form` -- the gamma/epsilon/A2/W1 expansion used by the
  normalization stages, the rows x and y of :data:`l4norm.closedforms.ROWS`.

The series are evaluated verbatim; where a printed coefficient disagrees
with the numeric oracle beyond truncation order, the discrepancy is the
erratum detector's business (see :mod:`l4norm.errata`), not this module's.
Newton's force reads its radii and collision guard from `model._radii`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConvergenceError, ParameterError, SingularJacobianError
from .model import SQRT3, ModelParams, _radii, branch_sign

_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 100


class EquilibriumPoint(namedtuple("EquilibriumPoint", "x y branch method residual")):
    """A point (x, y) on `branch`, "L4" (y > 0) or "L5" (y < 0), found by
    `method`, "numeric", "series" or "epsilon-form"; `residual` is max |Ux|,
    |Uy| at rest there."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, branch: str, method: str,
                residual: float):
        branch_sign(branch)
        return tuple.__new__(cls, (x, y, branch, method, residual))


class OriginShift(namedtuple("OriginShift", "a b")):
    """Offsets a = x* + mu (distance along x from the radiating primary) and
    b = y* of the expansion point."""

    __slots__ = ()


def shift_from_point(point: EquilibriumPoint, p: ModelParams) -> OriginShift:
    return OriginShift(a=point.x + p.mu, b=point.y)


def equilibrium_force(x: float, y: float, p: ModelParams):
    """(Ux, Uy) with the at-rest drag convention N1 = -n y, N2 = n (x+mu):
    the potential gradient plus the angle term's force, on plain floats."""
    mu, n, q1, A2, W1 = p.mu, p.n, p.q1, p.A2, p.W1
    r1, r2 = _radii(x, y, p)
    x1 = x + mu        # offset from the radiating primary
    x2 = x + mu - 1.0  # offset from the oblate primary
    n2 = n * n
    g1 = (1.0 - mu) * q1 / r1**3
    g2 = mu / r2**3
    g2a = 1.5 * mu * A2 / r2**5
    ux = n2 * x - g1 * x1 - g2 * x2 - g2a * x2
    uy = n2 * y - g1 * y - g2 * y - g2a * y
    r1sq = x1 ** 2 + y * y
    fx = ux + W1 * n * y / r1sq
    fy = uy - W1 * n * x1 / r1sq
    return fx, fy


def residual_at(x: float, y: float, p: ModelParams) -> float:
    fx, fy = equilibrium_force(x, y, p)
    return max(abs(fx), abs(fy))


def classical_seed(p: ModelParams, branch: str):
    return 0.5 - p.mu, branch_sign(branch) * SQRT3 / 2.0


def solve_triangular_numeric(p: ModelParams, branch: str = "L4") -> EquilibriumPoint:
    """Newton iteration from the classical seed; residual < 1e-12 or error.

    Each iterate forms the force as :func:`equilibrium_force` does, then
    its analytic Jacobian on sqrt radii, in one pass; every expression keeps
    the operand order of those two calls, so every iterate is theirs."""
    x, y = classical_seed(p, branch)
    mu, A2, n2, wn = p.mu, p.A2, p.n * p.n, p.W1 * p.n
    c1, c2a, wn2 = (1.0 - mu) * p.q1, 1.5 * mu * A2, 2.0 * wn
    d1, d2, d2a = 3.0 * (1.0 - mu) * p.q1, 3.0 * mu, 7.5 * mu * A2
    for _ in range(_NEWTON_MAX_ITER):
        r1, r2 = _radii(x, y, p)
        x1, x2 = x + mu, x + mu - 1.0
        g1, g2, g2a = c1 / r1**3, mu / r2**3, c2a / r2**5
        r1sq = x1 ** 2 + y * y
        fx = n2 * x - g1 * x1 - g2 * x2 - g2a * x2 + wn * y / r1sq
        fy = n2 * y - g1 * y - g2 * y - g2a * y - wn * x1 / r1sq
        residual = max(abs(fx), abs(fy))
        if residual < _NEWTON_TOL:
            break
        r1sq = x1 * x1 + y * y
        r1, r2 = math.sqrt(r1sq), math.sqrt(x2 * x2 + y * y)
        r2_5 = r2**5
        h1, h2, h2a = d1 / r1**5, d2 / r2_5, d2a / r2**7
        diag = n2 - c1 / r1**3 - mu / r2**3 - c2a / r2_5
        uxy = h1 * x1 * y + h2 * x2 * y + h2a * x2 * y
        r1_4, wr = r1sq**2, wn / r1sq
        jxx = diag + h1 * x1 * x1 + h2 * x2 * x2 + h2a * x2 * x2 - wn2 * y * x1 / r1_4
        jxy = uxy + wr - wn2 * y * y / r1_4
        jyx = uxy - wr + wn2 * x1 * x1 / r1_4
        jyy = diag + h1 * y * y + h2 * y * y + h2a * y * y + wn2 * x1 * y / r1_4
        det = jxx * jyy - jxy * jyx
        if abs(det) < 1e-14:
            raise SingularJacobianError(
                f"degenerate force Jacobian at ({x:.6g}, {y:.6g}), det={det:.3e}"
            )
        x -= (fx * jyy - fy * jxy) / det
        y -= (jxx * fy - jyx * fx) / det
    else:
        raise ConvergenceError(
            f"Newton failed after {_NEWTON_MAX_ITER} iterations", last=(x, y)
        )
    if y == 0.0:
        raise ConvergenceError("Newton collapsed onto the axis y = 0", last=(x, y))
    return EquilibriumPoint(x, y, branch, "numeric", residual)


def triangular_series(p: ModelParams, branch: str = "L4") -> EquilibriumPoint:
    """Closed-form x*, y* series with the delta^2, A2 and n W1 corrections."""
    sign = branch_sign(branch)
    mu, A2, W1, n, d2 = p.mu, p.A2, p.W1, p.n, p.delta**2
    x0 = 0.5 * d2 - mu
    # 0 < q1 <= 1 (`ModelParams`) keeps d2 in (0, 1], so y0^2 > 0
    y0 = sign * math.sqrt(d2 * (1.0 - 0.25 * d2))

    xs = x0 * (
        1.0
        - n * W1 * ((1.0 - mu) * (1.0 + 2.5 * A2) + mu * (1.0 - 0.5 * A2) * 0.5 * d2)
        / (3.0 * mu * (1.0 - mu) * y0 * x0)
        - 0.5 * d2 * A2 / x0
    )
    y_brace = (
        1.0
        - n * W1 * d2 * (2.0 * mu - 1.0 - mu * (1.0 - 1.5 * A2) * 0.5 * d2
                         + 7.0 * (1.0 - mu) * 0.5 * A2)
        / (3.0 * mu * (1.0 - mu) * y0**3)
        - d2 * (1.0 - 0.5 * d2) * A2 / y0**2
    )
    if y_brace <= 0.0:
        raise ParameterError("series y-brace non-positive; perturbations too large")
    ys = y0 * math.sqrt(y_brace)
    return EquilibriumPoint(xs, ys, branch, "series", residual_at(xs, ys, p))


def epsilon_form(p: ModelParams, branch: str = "L4") -> EquilibriumPoint:
    """gamma/epsilon/A2/W1 expansion of the equilibrium on `branch`, verbatim."""
    from .closedforms import printed
    x, y = printed(("x", "y"), p, branch=branch)
    return EquilibriumPoint(x, y, branch, "epsilon-form", residual_at(x, y, p))


def offset_ab(p: ModelParams, branch: str = "L4") -> OriginShift:
    """Origin-shift pair (a, b) on `branch` from the printed series, verbatim.

    The printed a-series lacks the leading constant inside its braces, so
    a evaluates to 0 at zero perturbations instead of x* + mu = 1/2
    (erratum ``offset.a``); adding 1/2 gives x(epsilon-form) + mu.
    """
    from .closedforms import printed
    return OriginShift(*printed(("a", "b"), p, branch=branch))
