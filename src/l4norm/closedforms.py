"""Verbatim transcriptions of the closed-form normalization tables.

Everything here evaluates published series exactly as printed, including
terms an independent oracle later contradicts: the normal-mode entries
(`j_closed_form`), the printed y row of B1 (`b1y_print`) and the F/G and
r/s tables of B2 (`fg_tables`, `rs_tables`).  The reconciliation lives in
:func:`l4norm.verify.audit`, the registry of confirmed discrepancies in
:mod:`l4norm.errata`.

Entry naming: primed table entries use a ``p`` suffix (F2p = F2'), double
primes ``pp`` (F2pp = F2'').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dalembert import DIVISOR_FLOOR, DAlembertSeries, FrequencyPair
from .errors import SmallDivisorError
from .model import SQRT3, ModelParams


# -- auxiliary scalars ---------------------------------------------------


def mode_scalars(w: FrequencyPair):
    """(l1, l2, k1, k2) with l_j^2 = 4 w_j^2 + 9, k1^2 = 2 w1^2 - 1,
    k2^2 = 1 - 2 w2^2 (positive roots)."""
    l1 = math.sqrt(4.0 * w.omega1**2 + 9.0)
    l2 = math.sqrt(4.0 * w.omega2**2 + 9.0)
    k1sq = 2.0 * w.omega1**2 - 1.0
    k2sq = 1.0 - 2.0 * w.omega2**2
    if k1sq <= 0.0:
        raise SmallDivisorError("k1^2 = 2 w1^2 - 1", k1sq)
    if k2sq <= 0.0:
        raise SmallDivisorError("k2^2 = 1 - 2 w2^2", k2sq)
    return l1, l2, math.sqrt(k1sq), math.sqrt(k2sq)


# The printed normal-mode entries, attributes of JClosedForm and NormalModeData.
J_ENTRIES = ("J13", "J14", "J21", "J22", "J23", "J24")


@dataclass(frozen=True)
class JClosedForm:
    """The six printed normal-mode matrix entries."""

    J13: float
    J14: float
    J21: float
    J22: float
    J23: float
    J24: float


def j_closed_form(p: ModelParams, w: FrequencyPair) -> JClosedForm:
    """Evaluate the six printed J entries verbatim."""
    eps, A2, g = p.epsilon, p.A2, p.gamma
    nw = p.n * p.W1
    s3 = SQRT3
    w1, w2 = w.omega1, w.omega2
    l1, l2, k1, k2 = mode_scalars(w)

    j13 = (l1 / (2.0 * w1 * k1)) * (
        1.0
        - (1.0 / (2.0 * l1**2)) * (
            eps + 45.0 * A2 / 2.0 - 717.0 * A2 * eps / 36.0
            + (67.0 + 19.0 * g) / (12.0 * s3) * nw
            - (431.0 - 3.0 * g) / (27.0 * s3) * nw * eps)
        + (g / (2.0 * l1**2)) * (
            3.0 * eps - 29.0 * A2 / 36.0
            - (187.0 + 27.0 * g) / (12.0 * s3) * nw
            - 2.0 * (247.0 + 3.0 * g) / (27.0 * s3) * nw * eps)
        - (1.0 / (2.0 * k1**2)) * (
            eps / 2.0 - 3.0 * A2 - 73.0 * A2 * eps / 24.0
            + (1.0 - 9.0 * g) / (24.0 * s3) * nw
            + (53.0 - 39.0 * g) / (54.0 * s3) * nw * eps)
        - (g / (4.0 * k1**2)) * (
            eps - 3.0 * A2 - 299.0 * A2 * eps / 72.0
            - (6.0 - 5.0 * g) / (12.0 * s3) * nw
            - (266.0 - 93.0 * g) / (54.0 * s3) * nw * eps)
        + (eps / (4.0 * l1**2 * k1**2)) * (
            3.0 * A2 / 4.0 + (33.0 + 14.0 * g) / (12.0 * s3) * nw)
        + (g * eps / (8.0 * l1**2 * k1**2)) * (
            347.0 * A2 / 36.0 - (43.0 - 8.0 * g) / (4.0 * s3) * nw)
    )

    j14 = (l2 / (2.0 * w2 * k2)) * (
        1.0
        - (1.0 / (2.0 * l2**2)) * (
            eps + 45.0 * A2 / 2.0 - 717.0 * A2 * eps / 36.0
            + (67.0 + 19.0 * g) / (12.0 * s3) * nw
            - (431.0 - 3.0 * g) / (27.0 * s3) * nw * eps)
        - (g / (2.0 * l2**2)) * (
            3.0 * eps - 293.0 * A2 / 36.0
            + (187.0 + 27.0 * g) / (12.0 * s3) * nw
            - 2.0 * (247.0 + 3.0 * g) / (27.0 * s3) * nw * eps)
        - (1.0 / (2.0 * k2**2)) * (
            eps / 2.0 - 3.0 * A2 - 73.0 * A2 * eps / 24.0
            + (1.0 - 9.0 * g) / (24.0 * s3) * nw
            + (53.0 - 39.0 * g) / (54.0 * s3) * nw * eps)
        + (g / (2.0 * k2**2)) * (
            eps - 3.0 * A2 - 299.0 * A2 * eps / 72.0
            - (6.0 - 5.0 * g) / (12.0 * s3) * nw
            - (268.0 - 9.0 * g) / (54.0 * s3) * nw * eps)
        - (eps / (4.0 * l2**2 * k2**2)) * (
            33.0 * A2 / 4.0 + (1643.0 - 93.0 * g) / (216.0 * s3) * nw)
        + (g * eps / (4.0 * l2**2 * k2**2)) * (
            737.0 * A2 / 72.0 - (13.0 + 2.0 * g) / s3 * nw)
    )

    j21 = (-4.0 * p.n * w1 / (l1 * k1)) * (
        1.0
        + (1.0 / (2.0 * l1**2)) * (
            eps + 45.0 * A2 / 2.0 - 717.0 * A2 * eps / 36.0
            + (67.0 + 19.0 * g) / (12.0 * s3) * nw
            - (413.0 - 3.0 * g) / (27.0 * s3) * nw * eps)
        - (g / (2.0 * l1**2)) * (
            3.0 * eps - 293.0 * A2 / 36.0
            + (187.0 + 27.0 * g) / (12.0 * s3) * nw
            - 2.0 * (247.0 + 3.0 * g) / (27.0 * s3) * nw * eps)
        - (1.0 / (2.0 * k1**2)) * (
            eps / 2.0 - 3.0 * A2 - 73.0 * A2 * eps / 24.0
            + (1.0 - 9.0 * g) / (24.0 * s3) * nw
            + (53.0 - 39.0 * g) / (54.0 * s3) * nw * eps)
        - (g / (4.0 * k1**2)) * (
            eps - 3.0 * A2 - 299.0 * A2 * eps / 72.0
            - (6.0 - 5.0 * g) / (12.0 * s3) * nw
            - (268.0 - 93.0 * g) / (54.0 * s3) * nw * eps)
        + (eps / (8.0 * l1**2 * k1**2)) * (
            33.0 * A2 / 4.0 + (68.0 - 10.0 * g) / (24.0 * s3) * nw)
        + (g * eps / (8.0 * l1**2 * k1**2)) * (
            242.0 * A2 / 9.0 + (43.0 - 8.0 * g) / (4.0 * s3) * nw)
    )

    j22 = (4.0 * p.n * w2 / (l2 * k2)) * (
        1.0
        + (1.0 / (2.0 * l2**2)) * (
            eps + 45.0 * A2 / 2.0 - 717.0 * A2 * eps / 36.0
            + (67.0 + 19.0 * g) / (12.0 * s3) * nw
            - (413.0 - 3.0 * g) / (27.0 * s3) * nw * eps)
        - (g / (2.0 * l2**2)) * (
            3.0 * eps - 293.0 * A2 / 36.0
            + (187.0 + 27.0 * g) / (12.0 * s3) * nw
            - 2.0 * (247.0 + 3.0 * g) / (27.0 * s3) * nw * eps)
        + (1.0 / (2.0 * k2**2)) * (
            eps / 2.0 - 3.0 * A2 - 73.0 * A2 * eps / 24.0
            + (1.0 - 9.0 * g) / (24.0 * s3) * nw
            + (53.0 - 39.0 * g) / (54.0 * s3) * nw * eps)
        - (g / (4.0 * k2**2)) * (
            eps - 3.0 * A2 - 299.0 * A2 * eps / 72.0
            - (6.0 - 5.0 * g) / (12.0 * s3) * nw
            - (268.0 - 93.0 * g) / (54.0 * s3) * nw * eps)
        + (eps / (4.0 * l2**2 * k2**2)) * (
            33.0 * A2 / 4.0 + (34.0 + 5.0 * g) / (12.0 * s3) * nw)
        + (g * eps / (8.0 * l2**2 * k2**2)) * (
            75.0 * A2 / 2.0 + (43.0 - 8.0 * g) / (4.0 * s3) * nw)
    )

    j23 = (s3 / (4.0 * w1 * l1 * k1)) * (
        2.0 * eps + 6.0 * A2 + 37.0 * A2 * eps / 2.0
        - (13.0 + g) / (2.0 * s3) * nw
        + 2.0 * (79.0 - 7.0 * g) / (9.0 * s3) * nw * eps
        - g * (6.0 + 2.0 * eps / 3.0 + 13.0 * A2 - 33.0 * A2 * eps / 2.0
               + (11.0 - g) / (2.0 * s3) * nw
               - (186.0 - g) / (9.0 * s3) * nw * eps)
        + (1.0 / (2.0 * l1**2)) * (
            51.0 * A2 + (14.0 + 8.0 * g) / (3.0 * s3) * nw)
        - (eps / k1**2) * (3.0 * A2 + (19.0 + 6.0 * g) / (6.0 * s3) * nw)
        - (g / (2.0 * l1**2)) * (
            6.0 * eps + 135.0 * A2 - (808.0 / 9.0) * A2 * eps
            - (67.0 + 19.0 * g) / (2.0 * s3) * nw
            - (755.0 + 19.0 * g) / (9.0 * s3) * nw * eps)
        - (g / (2.0 * k1**2)) * (
            3.0 * eps - 18.0 * A2 - 55.0 * A2 * eps / 4.0
            - (1.0 - 9.0 * g) / (4.0 * s3) * nw
            + (923.0 - 60.0 * g) / (12.0 * s3) * nw * eps)
        + (g * eps / (8.0 * l1**2 * k1**2)) * (
            9.0 * A2 / 2.0 + (34.0 - 5.0 * g) / (2.0 * s3) * nw)
    )

    # J24 prints k1/l1 inside its two last brackets where the pattern of the
    # other entries calls for k2/l2; with k2/l2 it misses the oracle by as
    # much, so the printed reading stands.
    j24 = (s3 / (4.0 * w2 * l2 * k2)) * (
        2.0 * eps + 6.0 * A2 + 37.0 * A2 * eps / 2.0
        - (13.0 + g) / (2.0 * s3) * nw
        + 2.0 * (79.0 - 7.0 * g) / (9.0 * s3) * nw * eps
        - g * (6.0 + 2.0 * eps / 3.0 + 13.0 * A2 - 33.0 * A2 * eps / 2.0
               + (11.0 - g) / (2.0 * s3) * nw
               - (186.0 - g) / (9.0 * s3) * nw * eps)
        - (1.0 / (2.0 * l2**2)) * (
            51.0 * A2 + (14.0 + 8.0 * g) / (3.0 * s3) * nw)
        - (eps / k2**2) * (3.0 * A2 + (19.0 + 6.0 * g) / (6.0 * s3) * nw)
        - (g / (2.0 * l2**2)) * (
            6.0 * eps + 135.0 * A2 - (808.0 / 9.0) * A2 * eps
            - (67.0 + 19.0 * g) / (2.0 * s3) * nw
            - (755.0 + 19.0 * g) / (9.0 * s3) * nw * eps)
        - (g / (2.0 * k1**2)) * (
            3.0 * eps - 18.0 * A2 - 55.0 * A2 * eps / 4.0
            - (1.0 - 9.0 * g) / (4.0 * s3) * nw
            + (923.0 - 60.0 * g) / (12.0 * s3) * nw * eps)
        - (g * eps / (4.0 * l1**2 * k1**2)) * (
            99.0 * A2 / 2.0 + (34.0 - 5.0 * g) / (2.0 * s3) * nw)
    )

    return JClosedForm(j13, j14, j21, j22, j23, j24)


def b1y_print(nm) -> DAlembertSeries:
    """B1 for y with the printed weights of its last two terms (omega *
    sqrt(2 I), and a sine on the J24 term); the printed B1 for x is the
    chain's.  `nm` needs J21..J24 attributes and `freq`."""
    w = nm.freq
    iq1, iq2 = math.sqrt(2.0 / w.omega1), math.sqrt(2.0 / w.omega2)
    return (DAlembertSeries.single(1, 0, 1, 0, s=nm.J21 * iq1,
                                   c=nm.J23 * math.sqrt(2.0) * w.omega1)
            + DAlembertSeries.single(0, 1, 0, 1, s=nm.J22 * iq2
                                     + nm.J24 * math.sqrt(2.0) * w.omega2))


# -- coefficient tables for the second-order components -------------------


@dataclass(frozen=True)
class FGTable:
    """The 24 printed scalars feeding the second-order components."""

    F1: float
    F2: float
    F3: float
    F4: float
    F1p: float
    F2p: float
    F3p: float
    F4p: float
    F1pp: float
    F2pp: float
    F3pp: float
    F4pp: float
    G1: float
    G2: float
    G3: float
    G4: float
    G1p: float
    G2p: float
    G3p: float
    G4p: float
    G1pp: float
    G2pp: float
    G3pp: float
    G4pp: float

    def f_triples(self):
        """((F_i, F_i', F_i'') for i = 1..4)."""
        return ((self.F1, self.F1p, self.F1pp), (self.F2, self.F2p, self.F2pp),
                (self.F3, self.F3p, self.F3pp), (self.F4, self.F4p, self.F4pp))

    def g_triples(self):
        return ((self.G1, self.G1p, self.G1pp), (self.G2, self.G2p, self.G2pp),
                (self.G3, self.G3p, self.G3pp), (self.G4, self.G4p, self.G4pp))


def fg_tables(p: ModelParams) -> FGTable:
    """Evaluate all 24 printed table entries verbatim."""
    eps, A2, g = p.epsilon, p.A2, p.gamma
    nw = p.n * p.W1
    s3 = SQRT3

    f1 = -nw * eps / 6.0
    f2 = (3.0 / 32.0) * (
        16.0 * eps / 3.0 + 6.0 * A2 - (979.0 / 18.0) * A2 * eps
        + (143.0 + 9.0 * g) / (6.0 * s3) * nw
        + (555.0 + 376.0 * g) / (27.0 * s3) * nw * eps
        + g * (14.0 + 4.0 * eps / 3.0 + 25.0 * A2 - (1507.0 / 18.0) * A2 * eps
               - (215.0 + 29.0 * g) / (6.0 * s3) * nw
               - 2.0 * (1174.0 + 169.0 * g) / (27.0 * s3) * nw * eps))
    f3 = (3.0 * s3 / 16.0) * (
        14.0 - 16.0 * eps / 3.0 + 23.0 * A2 / 2.0 - (104.0 / 9.0) * A2 * eps
        + 115.0 * (1.0 + g) / (18.0 * s3) * nw
        - 2.0 * (439.0 - 68.0 * g) / (27.0 * s3) * nw * eps
        + g * (32.0 * eps / 3.0 + 40.0 * A2 - (310.0 / 9.0) * A2 * eps
               + (511.0 + 53.0 * g) / (6.0 * s3) * nw
               - (2519.0 - 249.0 * g) / (27.0 * s3) * nw * eps))
    f4 = (-3.0 / 256.0) * (
        364.0 + 420.0 * A2 - (17801.0 / 9.0) * A2 * eps
        + (2821.0 + 189.0 * g) / (3.0 * s3) * nw
        - (23077.0 + 9592.0 * g) / (27.0 * s3) * nw * eps
        + 28.0 * g * (23.0 + 100.0 * eps / 21.0 + 849.0 * A2 / 14.0
                      + (59.0 / 7.0) * A2 * eps
                      - (125.0 + 38.0 * g) / (6.0 * s3) * nw
                      - (87613.0 - 213.0 * g) / (27.0 * s3) * nw * eps))

    f1p = nw * eps / (3.0 * s3)
    f2p = (3.0 * s3 / 16.0) * (
        14.0 - 16.0 * eps / 3.0 + A2 - (1367.0 / 18.0) * A2 * eps
        + 115.0 * (1.0 + g) / (18.0 * s3) * nw
        - (863.0 - 136.0 * g) / (27.0 * s3) * nw * eps
        + g * (32.0 * eps / 3.0 + 40.0 * A2 - (382.0 / 9.0) * A2 * eps
               + (511.0 + 53.0 * g) / (6.0 * s3) * nw
               - (2519.0 - 24.0 * g) / (27.0 * s3) * nw * eps))
    f3p = (-9.0 / 8.0) * (
        8.0 * eps / 3.0 + 203.0 * A2 / 6.0 - (721.0 / 54.0) * A2 * eps
        - (105.0 + 15.0 * g) / (18.0 * s3) * nw
        - (319.0 - 114.0 * g) / (81.0 * s3) * nw * eps
        + g * (2.0 - 4.0 * eps / 9.0 - 173.0 * A2 / 6.0 - (781.0 / 9.0) * A2 * eps
               + (197.0 + 23.0 * g) / (18.0 * s3) * nw
               - (265.0 - 32.0 * g) / (81.0 * s3) * nw * eps))
    f4p = (-3.0 * s3 / 16.0) * (
        392.0 - 532.0 * eps / 3.0 + 1918.0 * A2 / 3.0 - (28582.0 / 9.0) * A2 * eps
        + (203.0 + 1211.0 * g) / (9.0 * s3) * nw
        + (949.0 + 4378.0 * g) / (27.0 * s3) * nw * eps
        + 28.0 * g * (108.0 * eps / 7.0 + 4037.0 * A2 / 84.0
                      - (611.0 / 21.0) * A2 * eps
                      + (8397.0 + 919.0 * g) / (84.0 * s3) * nw
                      - (92266.0 - 1869.0 * g) / (27.0 * s3) * nw * eps))

    f1pp = nw * eps / 6.0
    f2pp = (-9.0 / 32.0) * (
        8.0 * eps / 3.0 + 203.0 * A2 / 6.0 - (625.0 / 54.0) * A2 * eps
        - (105.0 + 15.0 * g) / (18.0 * s3) * nw
        - (307.0 - 114.0 * g) / (81.0 * s3) * nw * eps
        + g * (2.0 - 4.0 * eps / 9.0 + 55.0 * A2 / 2.0 - (797.0 / 54.0) * A2 * eps
               + (197.0 + 23.0 * g) / (18.0 * s3) * nw
               - (211.0 - 32.0 * g) / (81.0 * s3) * nw * eps))
    f3pp = (-9.0 * s3 / 16.0) * (
        2.0 - 8.0 * eps / 3.0 + 55.0 * A2 / 6.0 - (134.0 / 3.0) * A2 * eps
        - (37.0 + g) / (18.0 * s3) * nw
        - (93.0 + 226.0 * g) / (81.0 * s3) * nw * eps
        + g * (4.0 * eps + (169.0 / 27.0) * A2 * eps
               + (241.0 + 45.0 * g) / (18.0 * s3) * nw
               - (1558.0 - 126.0 * g) / (81.0 * s3) * nw * eps))
    f4pp = (9.0 / 256.0) * (
        212.0 * eps / 3.0 + 2950.0 * A2 / 3.0 - (1370.0 / 27.0) * A2 * eps
        - (771.0 + 237.0 * g) / (9.0 * s3) * nw
        - 2.0 * (1907.0 - 984.0 * g) / (81.0 * s3) * nw * eps
        + 28.0 * g * (11.0 / 7.0 + 4.0 * eps / 9.0 - 152.0 * A2 / 7.0
                      - (36965.0 / 504.0) * A2 * eps
                      + (2569.0 + 277.0 * g) / (252.0 * s3) * nw
                      + (22603.0 + 4396.0 * g) / (1134.0 * s3) * nw * eps))

    g1 = -nw * eps / 6.0
    g2 = (3.0 / 32.0) * (
        14.0 - 16.0 * eps / 3.0 + A2 - (1367.0 / 18.0) * A2 * eps
        + 115.0 * (1.0 + g) / (18.0 * s3) * nw
        - (863.0 - 136.0 * g) / (27.0 * s3) * nw * eps
        + g * (32.0 * eps / 3.0 + 40.0 * A2 - (382.0 / 9.0) * A2 * eps
               + (511.0 + 53.0 * g) / (6.0 * s3) * nw
               - (2519.0 - 24.0 * g) / (27.0 * s3) * nw * eps))
    g3 = (3.0 * s3 / 16.0) * (
        16.0 * eps / 3.0 + 6.0 * A2 - (907.0 / 18.0) * A2 * eps
        + (143.0 + 9.0 * g) / (6.0 * s3) * nw
        + (477.0 + 403.0 * g) / (27.0 * s3) * nw * eps
        + g * (14.0 + 4.0 * eps / 3.0 + 71.0 * A2 / 2.0 - (1489.0 / 18.0) * A2 * eps
               - (215.0 + 29.0 * g) / (6.0 * s3) * nw
               - 2.0 * (1174.0 + 169.0 * g) / (27.0 * s3) * nw * eps))
    g4 = (3.0 * s3 / 256.0) * (
        84.0 + 52.0 * eps + 212.0 * A2 - 267.0 * A2 * eps
        + 2.0 * (299.0 + 61.0 * g) / (3.0 * s3) * nw
        - (14854.0 + 225.0 * g) / (27.0 * s3) * nw * eps
        + g * (32.0 * eps + 156.0 * A2 + 649.0 * A2 * eps
               - (562.0 + 8.0 * g) / (3.0 * s3) * nw
               + (13285.0 + 5169.0 * g) / (27.0 * s3) * nw * eps))

    g1p = -nw * eps / s3
    g2p = (9.0 / 16.0) * (
        8.0 * eps / 3.0 + 203.0 * A2 / 6.0 - (625.0 / 54.0) * A2 * eps
        - (105.0 + 15.0 * g) / (18.0 * s3) * nw
        - (307.0 - 114.0 * g) / (81.0 * s3) * nw * eps
        - g * (2.0 - 4.0 * eps / 9.0 - 55.0 * A2 / 2.0 - (797.0 / 54.0) * A2 * eps
               + (197.0 + 23.0 * g) / (18.0 * s3) * nw
               - (211.0 - 32.0 * g) / (81.0 * s3) * nw * eps))
    g3p = (3.0 * s3 / 8.0) * (
        14.0 - 16.0 * eps / 3.0 + 65.0 * A2 / 6.0 - (1439.0 / 18.0) * A2 * eps
        + 115.0 * (1.0 + g) / (18.0 * s3) * nw
        - (941.0 - 118.0 * g) / (27.0 * s3) * nw * eps
        + g * (32.0 * eps / 3.0 - 40.0 * A2 - (310.0 / 9.0) * A2 * eps
               + (511.0 + 53.0 * g) / (6.0 * s3) * nw
               - (251.0 - 24.0 * g) / (27.0 * s3) * nw * eps))
    g4p = (-9.0 / 128.0) * (
        12.0 * eps - 287.0 * A2 + (847.0 / 9.0) * A2 * eps
        - 2.0 * (28.0 + g) / s3 * nw
        - 4.0 * (2210.0 - 69.0 * g) / (27.0 * s3) * nw * eps
        - g * (96.0 + 152.0 * eps / 3.0 + 135.0 * A2 - (2320.0 / 9.0) * A2 * eps
               + (497.0 - 123.0 * g) / (3.0 * s3) * nw
               - 4.0 * (17697.0 + 32.0 * g) / (27.0 * s3) * nw * eps))

    g1pp = -nw * eps / 6.0
    g2pp = (9.0 * s3 / 32.0) * (
        2.0 - 8.0 * eps / 3.0 + 23.0 * A2 / 3.0 - 44.0 * A2 * eps
        - (37.0 + g) / (18.0 * s3) * nw
        - (123.0 + 349.0 * g) / (3.0 * s3) * nw * eps
        + g * (4.0 * eps + 88.0 * A2 / 27.0
               + (421.0 + 45.0 * g) / (18.0 * s3) * nw
               - (1558.0 - 126.0 * g) / (81.0 * s3) * nw * eps))
    g3pp = (-9.0 / 16.0) * (
        8.0 * eps / 9.0 + 203.0 * A2 / 6.0 - (589.0 / 54.0) * A2 * eps
        - 5.0 * (51.0 + 2.0 * g) / (18.0 * s3) * nw
        - (349.0 - 282.0 * g) / (81.0 * s3) * nw * eps
        + g * (2.0 - 4.0 * eps / 9.0 - 26.0 * A2 - (412.0 / 27.0) * A2 * eps
               + (197.0 + 23.0 * g) / (18.0 * s3) * nw
               - (211.0 - 32.0 * g) / (81.0 * s3) * nw * eps))
    g4pp = (-9.0 * s3 / 256.0) * (
        12.0 + 20.0 * eps / 3.0 + 76.0 * A2 - (350.0 / 3.0) * A2 * eps
        + (32.0 * g) / (3.0 * s3) * nw
        - 2.0 * (1529.0 + 450.0 * g) / (27.0 * s3) * nw * eps
        + g * (8.0 * eps - 749.0 * A2 / 3.0 + (808.0 / 9.0) * A2 * eps
               - (109.0 - 40.0 * g) / (3.0 * s3) * nw
               + (35.0 - 1269.0 * g) / (27.0 * s3) * nw * eps))

    return FGTable(
        F1=f1, F2=f2, F3=f3, F4=f4,
        F1p=f1p, F2p=f2p, F3p=f3p, F4p=f4p,
        F1pp=f1pp, F2pp=f2pp, F3pp=f3pp, F4pp=f4pp,
        G1=g1, G2=g2, G3=g3, G4=g4,
        G1p=g1p, G2p=g2p, G3p=g3p, G4p=g4p,
        G1pp=g1pp, G2pp=g2pp, G3pp=g3pp, G4pp=g4pp,
    )


@dataclass(frozen=True)
class RSTable:
    r: tuple  # r1..r10
    s: tuple  # s1..s10


# The (j, m, p, q) term and its cosine (0) or sine (1) slot that each of
# r1..r10 (in B2 for x) and s1..s10 (in B2 for y, negated) multiplies.
RS_SLOTS = (
    ((2, 0, 0, 0), 0), ((0, 2, 0, 0), 0), ((2, 0, 2, 0), 0), ((0, 2, 0, 2), 0),
    ((1, 1, 1, -1), 0), ((1, 1, 1, 1), 0), ((2, 0, 2, 0), 1), ((0, 2, 0, 2), 1),
    ((1, 1, 1, -1), 1), ((1, 1, 1, 1), 1),
)


def _r_values(j: JClosedForm, w: FrequencyPair, triples,
              floor: float) -> tuple:
    """The ten printed coefficient formulas, shared by the r and s tables
    (the s table substitutes the G triples for the F triples)."""
    w1, w2 = w.omega1, w.omega2
    (f1, f1p, f1pp), (f2, f2p, f2pp), (f3, f3p, f3pp), (f4, f4p, f4pp) = triples
    J13, J14, J21, J22, J23, J24 = j.J13, j.J14, j.J21, j.J22, j.J23, j.J24

    for name, value in (
        ("omega1^2 omega2^2", w1**2 * w2**2),
        ("3 w1^2 (4 w1^2 - w2^2)", 3.0 * w1**2 * (4.0 * w1**2 - w2**2)),
        ("3 w2^2 (4 w2^2 - w1^2)", 3.0 * w2**2 * (4.0 * w2**2 - w1**2)),
        ("(2 w1 + w2)(w1 + 2 w2)", (2 * w1 + w2) * (w1 + 2 * w2)),
        ("(2 w1 - w2)(2 w2 - w1)", (2 * w1 - w2) * (2 * w2 - w1)),
    ):
        if abs(value) < floor:
            raise SmallDivisorError(name, value)

    sq12 = math.sqrt(w1 / w2)
    sq21 = math.sqrt(w2 / w1)
    sqp = math.sqrt(w1 * w2)

    r1 = (1.0 / (w1**2 * w2**2)) * (
        J13**2 * w1 * f4 + J13 * J23 * w1 * f4p
        + (J21**2 / w1 + J23**2 * w1) * f4pp)

    r2 = (1.0 / (w1**2 * w2**2)) * (
        J14**2 * w2 * f4 + J14 * J24 * w2 * f4p
        + (J22**2 / w2 + J24**2 * w2) * f4pp)

    r3 = (-1.0 / (3.0 * w1**2 * (4.0 * w1**2 - w2**2))) * (
        8.0 * w1**3 * J21 * (J13 * f1p + 2.0 * J23 * f1pp)
        + 4.0 * w1**2 * ((J13 * f2 + J23 * f2pp) * J13 * w1
                         - (J21**2 / w1 - J23**2 * w1) * f1pp)
        - 2.0 * w1 * J21 * (J13 * f3p + 2.0 * J23 * f3pp)
        - w1 * J13 * (J13 * f4 + J23 * f4pp) * w1
        + (J21**2 / w1 - J23**2 * w1) * f1pp)

    r4 = (1.0 / (3.0 * w2**2 * (4.0 * w2**2 - w1**2))) * (
        8.0 * w2**3 * J22 * (J14 * f1p + 2.0 * J24 * f1pp)
        - 4.0 * w2**2 * ((J14 * f2 + J24 * f2pp) * J14 * w2
                         - (J22**2 / w2 - J24**2 * w2) * f2pp)
        - 2.0 * w2 * J22 * (J14 * f3p + 2.0 * J24 * f3pp)
        - w2 * J14 * (J14 * f4 + J24 * f4pp) * w2
        - (J22**2 / w2 - J24**2 * w2) * f4pp)

    # bracket shapes shared by the mixed-harmonic coefficients
    cross_a = lambda fa: (J13 * J22 * sq12 - J14 * J21 * sq21) * fa
    cross_b = lambda fb: (J21 * J24 * sq21 - J22 * J23 * sq12) * fb
    sym_a = lambda fa, fap: 2.0 * (J13 * J14 * fa + (J13 * J24 + J14 * J23) * fap) * sqp
    sym_b = lambda fb: (J21 * J22 / sqp + J23 * J24 * sqp) * fb
    msym_b = lambda fb: (J21 * J22 / sqp - J23 * J24 * sqp) * fb

    r5 = (1.0 / (w1 * w2 * ((2.0 * w1 + w2) * (4.0 * w1 + 2.0 * w2)))) * (
        (w1 + w2) ** 3 * (cross_a(f1p) - 2.0 * cross_b(f1pp))
        - (w1 + w2) ** 2 * (sym_a(f2, f2p) + sym_b(f2pp))
        - (w1 + w2) * (cross_a(f3p) - 2.0 * cross_b(f3pp))
        + (sym_a(f4, f4p) + 2.0 * sym_b(f4pp)))

    r6 = (-1.0 / (w1 * w2 * ((2.0 * w1 - w2) * (4.0 * w1 - 2.0 * w2)))) * (
        (w1 - w2) ** 3 * (cross_a(f1p)
                          + 2.0 * (J21 * J24 * sq21 + J22 * J23 * sq12) * f1pp)
        + (w1 - w2) ** 2 * (sym_a(f2, f2p) - 2.0 * msym_b(f2pp))
        - (w1 - w2) * (cross_a(f3p)
                       + 2.0 * (J21 * J22 * sq21 + J22 * J23 * sq12) * f3pp)
        - (sym_a(f4, f4p) - 2.0 * msym_b(f4pp)))

    r7 = (1.0 / (3.0 * w1**2 * (4.0 * w1**2 - w2**2))) * (
        8.0 * w1**3 * (J13 * (J13 * f1 + J23 * f1p) * w1
                       - (J21**2 / w1 - J23**2 * w1) * f1pp)
        - 2.0 * w1 * (w1 * J13 * (J13 * f3 + J23 * f3p)
                      - (J21**2 / w1 - J23**2 * w1) * f3pp)
        - 4.0 * w1**2 * J21 * (J13 * f2 + J23 * f2pp) * w1
        + J21 * (J13 * f4p + 2.0 * J23 * f4pp))

    r8 = (-1.0 / (3.0 * w2**2 * (4.0 * w2**2 - w1**2))) * (
        8.0 * w2**3 * (J14 * (J14 * f1 + J24 * f1p) * w2
                       - (J22**2 / w2 - J24**2 * w2) * f1pp)
        + 4.0 * w2**2 * J22 * (J14 * f2 + 2.0 * J24 * f2pp) * w2
        - 2.0 * w2 * (w2 * J14 * (J14 * f3 + J24 * f3p)
                      - (J22**2 / w2 - J24**2 * w2) * f3pp)
        - J22 * (J14 * f4p + 2.0 * J24 * f4pp))

    r9 = (1.0 / (w1 * w2 * (2.0 * w1 + w2) * (w1 + 2.0 * w2))) * (
        (w1 + w2) ** 3 * ((2.0 * J13 * J14 * f1
                           + (J13 * J24 + J14 * J23) * f1p) * sqp
                          + 2.0 * sym_b(f1pp))
        - (w1 + w2) ** 2 * (cross_a(f2p) - 2.0 * cross_b(f2pp))
        - (w1 + w2) * (sym_a(f3, f3p) + 2.0 * sym_b(f3pp))
        - (cross_a(f4p) - 2.0 * cross_b(f4pp)))

    r10 = (1.0 / (w1 * w2 * (2.0 * w1 - w2) * (2.0 * w2 - w1))) * (
        (w1 - w2) ** 3 * ((2.0 * J13 * J14 * f1
                           + (J13 * J24 + J14 * J23) * f1p) * sqp
                          - 2.0 * msym_b(f1pp))
        - (w1 - w2) ** 2 * (cross_a(f2p)
                            + 2.0 * (J21 * J24 * sq21 + J22 * J23 * sq12) * f2pp)
        - (w1 - w2) * (sym_a(f3, f3p) - 2.0 * msym_b(f3pp))
        + (cross_a(f4p) - 2.0 * cross_b(f4pp)))

    return r1, r2, r3, r4, r5, r6, r7, r8, r9, r10


def rs_tables(j: JClosedForm, w: FrequencyPair, fg: FGTable,
              floor: float = DIVISOR_FLOOR) -> RSTable:
    """r1..r10 per the printed formulas; s1..s10 by the F -> G substitution."""
    r = _r_values(j, w, fg.f_triples(), floor)
    s = _r_values(j, w, fg.g_triples(), floor)
    return RSTable(r=r, s=s)
