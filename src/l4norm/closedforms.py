"""Verbatim transcriptions of the closed-form normalization tables.

Everything here evaluates published series exactly as printed, including
terms an independent oracle later contradicts.  The reconciliation lives in
:func:`l4norm.verify.audit`, the registry of confirmed discrepancies in
:mod:`l4norm.errata`.

Every printed form of one shape is a row of :data:`ROWS`, and
:func:`evaluate` evaluates them all, in one kernel per tuple of row names
that :class:`l4norm.layout.KernelSource` writes: the equilibrium point
(x, y) and the origin shift (a, b), the cubic coefficients T1..T4, the
normal-mode entries J13..J24 and the 24 F/G entries of the second-order
tables.  :func:`printed` reads them by name.

* A *brace* is linear in (1, eps, A2, A2 eps, n W1, n W1 eps).  Its first
  four coefficients are rationals; each n W1 coefficient is a triple
  (a, b, d) that reads (a + b gamma) / (d sqrt 3), and 0 stands for none.
* A row is a prefactor followed by its terms, each a brace under a
  weight: ``(coef, spec, brace)``.  Prefactors and weights are monomials
  ``(coef, spec)`` in sqrt 3 (``s3``), gamma (``g``), eps (``e``), n and,
  for the J entries, the frequencies and the mode scalars of
  :func:`mode_scalars`: ``(1/4, "g e l1^-2 k1^-2")`` reads
  gamma eps / (4 l1^2 k1^2).
* Most rows are brace + gamma brace; a J entry sums up to seven braces
  under its mode prefactor.

The rows transcribe the print, quirks included (J13's 29/36 where its
siblings print 293/36, J24's k1/l1, T2's constant 14): the audit measures
them, it does not mend them.  They are written for L4, and L5 reads them
as its mirror: at -W1, the :data:`MIRROR_ODD` values negated through a
mask planned per tuple of names (:func:`on_branch`).  Forms of another
shape stay code: the printed y row of B1 (`b1y_print`) and the r/s tables
of B2 (`rs_values`, on L4-form values), nonlinear in J and the frequencies.

Entry naming: primed table entries use a ``p`` suffix (F2p = F2'), double
primes ``pp`` (F2pp = F2'').  The J entries and the r/s slots are named by
the chain module that computes them, :data:`l4norm.normalform.J_ENTRIES`
and :data:`l4norm.normalform.RS_NAMES`, and read from there.

No chain stage imports this module; its readers import it on first use,
so it loads with the first audit.  `verify.report_audit` reads the point,
the J entries and r1..s10 in one row-kernel call (:func:`report_values`);
`audit` reads (a, b) and T1..T4 by name, through `equilibria.offset_ab`
and `polyalg.t_coefficients_closed_form`.  `equilibria.epsilon_form`,
`j_closed_form`, `fg_tables` and `rs_tables` read by name for the library.
"""

from __future__ import annotations

import math

from .dalembert import DIVISOR_FLOOR, DAlembertSeries, FrequencyPair
from .errors import SmallDivisorError
from .layout import KernelSource, plan
from .model import SQRT3, ModelParams, branch_sign
from .normalform import J_ENTRIES, RS_NAMES


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


# -- the printed rows -------------------------------------------------------


ONE = (1, 0, 0, 0, 0, 0)

ROWS = {
    # the epsilon-form equilibrium point and the origin shift; the printed
    # a-series lacks the leading 1/2 of x* + mu (erratum ``offset.a``)
    "x": ((1, ""), (1, "", (0, -1/3, -1/2, 1/3, (-9, -1, 6), (0, -4, 27))),
          (1, "g", (1/2, 0, 0, 0, 0, 0))),
    "y": ((1/2, "s3"), (1, "", (1, -2/9, -1/3, -2/9, (1, 1, 9), (0, -4, 27)))),
    "a": ((1/2, ""), (1, "", (0, -2/3, -1, 2/3, (-9, -1, 3), (0, -8, 27)))),
    "b": ((1/2, "s3"), (1, "", (1, -2/9, -1/3, -2/9, (1, 1, 9), (0, -4, 27)))),
    # the cubic coefficients
    "T1": ((3/16, ""),
           (1, "", (0, 16/3, 6, -979/18, (143, 9, 6), (459, 376, 27))),
           (1, "g", (14, 4/3, 25, -1507/18, (-215, -29, 6), (-2348, -338, 27)))),
    "T2": ((3/16, "s3"),
           (1, "", (14, -16/3, 1/3, -367/18, (115, 115, 18), (-959, 136, 27))),
           (1, "g", (0, 32/3, 40, -382/9, (511, 53, 6), (-2519, 24, 27)))),
    "T3": ((-9/16, ""),
           (1, "", (0, 8/3, 203/6, -625/54, (-105, -15, 18), (-403, 114, 81))),
           (1, "g", (2, -4/9, 55/2, -797/54, (197, 23, 18), (-211, 32, 81)))),
    "T4": ((-9/16, "s3"),
           (1, "", (2, -8/3, 23/3, -44, (-37, -1, 18), (-219, -253, 81))),
           (1, "g", (0, 4, 0, 88/27, (241, 45, 18), (-1558, 126, 81)))),
    # the normal-mode entries
    "J13": ((1/2, "l1 w1^-1 k1^-1"), (1, "", ONE),
            (-1/2, "l1^-2", (0, 1, 45/2, -717/36, (67, 19, 12), (-431, 3, 27))),
            (1/2, "g l1^-2", (0, 3, -29/36, 0, (-187, -27, 12), (-494, -6, 27))),
            (-1/2, "k1^-2", (0, 1/2, -3, -73/24, (1, -9, 24), (53, -39, 54))),
            (-1/4, "g k1^-2", (0, 1, -3, -299/72, (-6, 5, 12), (-266, 93, 54))),
            (1/4, "e l1^-2 k1^-2", (0, 0, 3/4, 0, (33, 14, 12), 0)),
            (1/8, "g e l1^-2 k1^-2", (0, 0, 347/36, 0, (-43, 8, 4), 0))),
    "J14": ((1/2, "l2 w2^-1 k2^-1"), (1, "", ONE),
            (-1/2, "l2^-2", (0, 1, 45/2, -717/36, (67, 19, 12), (-431, 3, 27))),
            (-1/2, "g l2^-2", (0, 3, -293/36, 0, (187, 27, 12), (-494, -6, 27))),
            (-1/2, "k2^-2", (0, 1/2, -3, -73/24, (1, -9, 24), (53, -39, 54))),
            (1/2, "g k2^-2", (0, 1, -3, -299/72, (-6, 5, 12), (-268, 9, 54))),
            (-1/4, "e l2^-2 k2^-2", (0, 0, 33/4, 0, (1643, -93, 216), 0)),
            (1/4, "g e l2^-2 k2^-2", (0, 0, 737/72, 0, (-13, -2, 1), 0))),
    "J21": ((-4, "n w1 l1^-1 k1^-1"), (1, "", ONE),
            (1/2, "l1^-2", (0, 1, 45/2, -717/36, (67, 19, 12), (-413, 3, 27))),
            (-1/2, "g l1^-2", (0, 3, -293/36, 0, (187, 27, 12), (-494, -6, 27))),
            (-1/2, "k1^-2", (0, 1/2, -3, -73/24, (1, -9, 24), (53, -39, 54))),
            (-1/4, "g k1^-2", (0, 1, -3, -299/72, (-6, 5, 12), (-268, 93, 54))),
            (1/8, "e l1^-2 k1^-2", (0, 0, 33/4, 0, (68, -10, 24), 0)),
            (1/8, "g e l1^-2 k1^-2", (0, 0, 242/9, 0, (43, -8, 4), 0))),
    "J22": ((4, "n w2 l2^-1 k2^-1"), (1, "", ONE),
            (1/2, "l2^-2", (0, 1, 45/2, -717/36, (67, 19, 12), (-413, 3, 27))),
            (-1/2, "g l2^-2", (0, 3, -293/36, 0, (187, 27, 12), (-494, -6, 27))),
            (1/2, "k2^-2", (0, 1/2, -3, -73/24, (1, -9, 24), (53, -39, 54))),
            (-1/4, "g k2^-2", (0, 1, -3, -299/72, (-6, 5, 12), (-268, 93, 54))),
            (1/4, "e l2^-2 k2^-2", (0, 0, 33/4, 0, (34, 5, 12), 0)),
            (1/8, "g e l2^-2 k2^-2", (0, 0, 75/2, 0, (43, -8, 4), 0))),
    "J23": ((1/4, "s3 w1^-1 l1^-1 k1^-1"),
            (1, "", (0, 2, 6, 37/2, (-13, -1, 2), (158, -14, 9))),
            (-1, "g", (6, 2/3, 13, -33/2, (11, -1, 2), (-186, 1, 9))),
            (1/2, "l1^-2", (0, 0, 51, 0, (14, 8, 3), 0)),
            (-1, "e k1^-2", (0, 0, 3, 0, (19, 6, 6), 0)),
            (-1/2, "g l1^-2", (0, 6, 135, -808/9, (-67, -19, 2), (-755, -19, 9))),
            (-1/2, "g k1^-2", (0, 3, -18, -55/4, (-1, 9, 4), (923, -60, 12))),
            (1/8, "g e l1^-2 k1^-2", (0, 0, 9/2, 0, (34, -5, 2), 0))),
    # J24 prints k1/l1 inside its two last brackets where the pattern of the
    # other entries calls for k2/l2; with k2/l2 it misses the oracle by as
    # much, so the printed reading stands.
    "J24": ((1/4, "s3 w2^-1 l2^-1 k2^-1"),
            (1, "", (0, 2, 6, 37/2, (-13, -1, 2), (158, -14, 9))),
            (-1, "g", (6, 2/3, 13, -33/2, (11, -1, 2), (-186, 1, 9))),
            (-1/2, "l2^-2", (0, 0, 51, 0, (14, 8, 3), 0)),
            (-1, "e k2^-2", (0, 0, 3, 0, (19, 6, 6), 0)),
            (-1/2, "g l2^-2", (0, 6, 135, -808/9, (-67, -19, 2), (-755, -19, 9))),
            (-1/2, "g k1^-2", (0, 3, -18, -55/4, (-1, 9, 4), (923, -60, 12))),
            (-1/4, "g e l1^-2 k1^-2", (0, 0, 99/2, 0, (34, -5, 2), 0))),
    # the F and G tables of the second-order components
    "F1": ((-1/6, "s3"), (1, "", (0, 0, 0, 0, 0, (1, 0, 1)))),
    "F2": ((3/32, ""),
           (1, "", (0, 16/3, 6, -979/18, (143, 9, 6), (555, 376, 27))),
           (1, "g", (14, 4/3, 25, -1507/18, (-215, -29, 6), (-2348, -338, 27)))),
    "F3": ((3/16, "s3"),
           (1, "", (14, -16/3, 23/2, -104/9, (115, 115, 18), (-878, 136, 27))),
           (1, "g", (0, 32/3, 40, -310/9, (511, 53, 6), (-2519, 249, 27)))),
    "F4": ((-3/256, ""),
           (1, "", (364, 0, 420, -17801/9, (2821, 189, 3), (-23077, -9592, 27))),
           (28, "g", (23, 100/21, 849/14, 59/7, (-125, -38, 6), (-87613, 213, 27)))),
    "F1p": ((1/3, ""), (1, "", (0, 0, 0, 0, 0, (1, 0, 1)))),
    "F2p": ((3/16, "s3"),
            (1, "", (14, -16/3, 1, -1367/18, (115, 115, 18), (-863, 136, 27))),
            (1, "g", (0, 32/3, 40, -382/9, (511, 53, 6), (-2519, 24, 27)))),
    "F3p": ((-9/8, ""),
            (1, "", (0, 8/3, 203/6, -721/54, (-105, -15, 18), (-319, 114, 81))),
            (1, "g", (2, -4/9, -173/6, -781/9, (197, 23, 18), (-265, 32, 81)))),
    "F4p": ((-3/16, "s3"),
            (1, "", (392, -532/3, 1918/3, -28582/9, (203, 1211, 9), (949, 4378, 27))),
            (28, "g", (0, 108/7, 4037/84, -611/21, (8397, 919, 84),
                       (-92266, 1869, 27)))),
    "F1pp": ((1/6, "s3"), (1, "", (0, 0, 0, 0, 0, (1, 0, 1)))),
    "F2pp": ((-9/32, ""),
             (1, "", (0, 8/3, 203/6, -625/54, (-105, -15, 18), (-307, 114, 81))),
             (1, "g", (2, -4/9, 55/2, -797/54, (197, 23, 18), (-211, 32, 81)))),
    "F3pp": ((-9/16, "s3"),
             (1, "", (2, -8/3, 55/6, -134/3, (-37, -1, 18), (-93, -226, 81))),
             (1, "g", (0, 4, 0, 169/27, (241, 45, 18), (-1558, 126, 81)))),
    "F4pp": ((9/256, ""),
             (1, "", (0, 212/3, 2950/3, -1370/27, (-771, -237, 9), (-3814, 1968, 81))),
             (28, "g", (11/7, 4/9, -152/7, -36965/504, (2569, 277, 252),
                        (22603, 4396, 1134)))),
    "G1": ((-1/6, "s3"), (1, "", (0, 0, 0, 0, 0, (1, 0, 1)))),
    "G2": ((3/32, ""),
           (1, "", (14, -16/3, 1, -1367/18, (115, 115, 18), (-863, 136, 27))),
           (1, "g", (0, 32/3, 40, -382/9, (511, 53, 6), (-2519, 24, 27)))),
    "G3": ((3/16, "s3"),
           (1, "", (0, 16/3, 6, -907/18, (143, 9, 6), (477, 403, 27))),
           (1, "g", (14, 4/3, 71/2, -1489/18, (-215, -29, 6), (-2348, -338, 27)))),
    "G4": ((3/256, "s3"),
           (1, "", (84, 52, 212, -267, (598, 122, 3), (-14854, -225, 27))),
           (1, "g", (0, 32, 156, 649, (-562, -8, 3), (13285, 5169, 27)))),
    "G1p": ((-1, ""), (1, "", (0, 0, 0, 0, 0, (1, 0, 1)))),
    "G2p": ((9/16, ""),
            (1, "", (0, 8/3, 203/6, -625/54, (-105, -15, 18), (-307, 114, 81))),
            (-1, "g", (2, -4/9, -55/2, -797/54, (197, 23, 18), (-211, 32, 81)))),
    "G3p": ((3/8, "s3"),
            (1, "", (14, -16/3, 65/6, -1439/18, (115, 115, 18), (-941, 118, 27))),
            (1, "g", (0, 32/3, -40, -310/9, (511, 53, 6), (-251, 24, 27)))),
    "G4p": ((-9/128, ""),
            (1, "", (0, 12, -287, 847/9, (-56, -2, 1), (-8840, 276, 27))),
            (-1, "g", (96, 152/3, 135, -2320/9, (497, -123, 3), (-70788, -128, 27)))),
    "G1pp": ((-1/6, "s3"), (1, "", (0, 0, 0, 0, 0, (1, 0, 1)))),
    "G2pp": ((9/32, "s3"),
             (1, "", (2, -8/3, 23/3, -44, (-37, -1, 18), (-123, -349, 3))),
             (1, "g", (0, 4, 88/27, 0, (421, 45, 18), (-1558, 126, 81)))),
    "G3pp": ((-9/16, ""),
             (1, "", (0, 8/9, 203/6, -589/54, (-255, -10, 18), (-349, 282, 81))),
             (1, "g", (2, -4/9, -26, -412/27, (197, 23, 18), (-211, 32, 81)))),
    "G4pp": ((-9/256, "s3"),
             (1, "", (12, 20/3, 76, -350/3, (0, 32, 3), (-3058, -900, 27))),
             (1, "g", (0, 8, -749/3, 808/9, (-109, 40, 3), (35, -1269, 27)))),
}

# Reflecting y -> -y and reversing time maps the equations of motion at drag
# W1 onto themselves at -W1: the Coriolis and both drag terms change sign
# together.  So the L5 chain at W1 is the L4 chain at -W1 with y and the
# sines of the angles negated, and the printed rows, written for L4, read on
# L5 the same way: evaluated at -W1, with the entries odd under the
# reflection negated.  Those carry an odd count of factors y and sine: the
# point's y and the offset b, T2 (x^2 y) and T4 (y^3), J23 and J24 (cosines
# in y), r7..r10 (sines in x) and s1..s6 (cosines in y).
MIRROR_ODD = frozenset(("y", "b", "T2", "T4", "J23", "J24")
                       + tuple(f"r{i}" for i in range(7, 11))
                       + tuple(f"s{i}" for i in range(1, 7)))

FG_ENTRIES = tuple(f"{table}{i}{prime}" for table in "FG"
                   for prime in ("", "p", "pp") for i in range(1, 5))


# The exponents (i, j, k, m) of the monomials eps^i A2^j gamma^k u^m,
# u = n W1 / sqrt 3, that the rows span, in the order `printed` forms them.
BASIS = ((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0),
         (1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0),
         (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 2, 1),
         (1, 0, 0, 1), (1, 0, 1, 1), (1, 0, 2, 1))


def _expand(modes: dict, prefactor, *terms):
    """A row as (mode index of its prefactor, groups).  Each group holds the
    mode index of some weights and the sum of their weighted braces, times
    the rest of the prefactor, as coefficients over BASIS; the powers of
    sqrt 3, eps and gamma are folded in.  `modes` numbers the distinct
    monomials in the mode scalars (n, the frequencies, l and k)."""
    def split(coef, spec):
        mode, e, g = [], 0, 0
        for factor in spec.split():
            name, _, power = factor.partition("^")
            power = int(power or 1)
            if name == "s3":
                coef *= SQRT3 ** power
            elif name == "e":
                e += power
            elif name == "g":
                g += power
            else:
                mode.append((name, power))
        return coef, e, g, modes.setdefault(tuple(mode), len(modes))

    coef, _, _, mode = split(*prefactor)
    groups = {}
    for weight, spec, (c1, ce, ca, cae, nw, nwe) in terms:
        w, e, g, weight_mode = split(coef * weight, spec)
        sums = groups.setdefault(weight_mode, dict.fromkeys(BASIS, 0.0))
        (a, b, d), (ae, be, de) = nw or (0, 0, 1), nwe or (0, 0, 1)
        for (i, j, k, m), c in (((0, 0, 0, 0), c1), ((1, 0, 0, 0), ce),
                                ((0, 1, 0, 0), ca), ((1, 1, 0, 0), cae),
                                ((0, 0, 0, 1), a / d), ((0, 0, 1, 1), b / d),
                                ((1, 0, 0, 1), ae / de), ((1, 0, 1, 1), be / de)):
            if c:
                sums[(i + e, j, k + g, m)] += w * c
    return mode, tuple((key, tuple(sums.values())) for key, sums in groups.items())


# The mode-scalar monomials of the rows by index; the empty one, 1, is 0.
_MODES = {(): 0}
_EXPANDED = {name: _expand(_MODES, *row) for name, row in ROWS.items()}
# The source of each monomial but 1: its factors' powers multiplied left
# to right.
_MODE_SOURCE = {index: " * ".join(f"{factor} ** {power}" for factor, power in mode)
                for mode, index in _MODES.items() if index}

# The kernel's locals for BASIS, formed from p in the order `printed` always
# formed them; the first monomial, 1, is no local.
_BASIS_LOCALS = ("1.0", "g", "A2", "A2g", "eps", "epsg", "ea", "eag",
                 "u", "ug", "ugg", "ue", "ueg", "uegg")


def evaluate(names: tuple, p: ModelParams, w: FrequencyPair | None = None,
             branch: str = "L4") -> tuple:
    """The rows `names` at p in order, in their L4 form (on L5 at -W1); the
    J rows read the mode scalars of `w`.  One kernel per tuple of names."""
    sign = branch_sign(branch)
    scalars = () if w is None else (w.omega1, w.omega2, *mode_scalars(w))
    return plan(_row_kernel, names)(p, sign * p.W1, scalars)


def on_branch(names: tuple, values: tuple, branch: str) -> tuple:
    """L4-form `values` of the rows or r/s slots `names` on `branch`, or
    back: on L5 the MIRROR_ODD slots negated, by a mask planned per names."""
    if branch_sign(branch) > 0.0:
        return values
    return tuple(-v if odd else v for v, odd in zip(values, plan(_odd_slots, names)))


def _odd_slots(names: tuple) -> tuple:
    return tuple(name in MIRROR_ODD for name in names)


def printed(names, p: ModelParams, w: FrequencyPair | None = None,
            branch: str = "L4") -> dict:
    """The rows `names` at p on `branch`, by name."""
    names = tuple(names)
    return dict(zip(names, on_branch(names, evaluate(names, p, w, branch), branch)))


def _row_kernel(names: tuple):
    """The rows `names` compiled into ``rows(p, W1, (w1, w2, l1, l2, k1,
    k2))``, which returns their values at p with drag W1, in order.  A row
    is its mode prefactor times ``0.0`` plus, per group, the group's mode
    times ``(0.0 + c * b + ...)`` over the nonzero coefficients c of BASIS,
    added left to right: float `sum` adds that way from 0.0, and a running
    sum that starts at +0.0 is left unchanged by an exact-zero term, so the
    values are those of a sum over every coefficient, bit for bit.  A mode
    monomial is formed once, on first use; the empty one, 1.0, is left out.
    Only names, ints and the reprs of the rows' floats enter the source."""
    rows = [_EXPANDED[name] for name in names]
    k = KernelSource()
    k.lines += ["eps, A2, g = p.epsilon, p.A2, p.gamma",
                f"u = p.n * W1 / {SQRT3!r}",
                "ea, ug, ue = eps * A2, u * g, u * eps",
                "A2g, epsg, eag, ugg, ueg = A2 * g, eps * g, ea * g, ug * g, ue * g",
                "uegg = ueg * g"]
    if any(mode or any(m for m, _ in groups) for mode, groups in rows):
        k.lines += ["w1, w2, l1, l2, k1, k2 = scalars", "n = p.n"]

    def times(mode):
        return f"{k.let(_MODE_SOURCE[mode])} * " if mode else ""

    values = []
    for mode, groups in rows:
        total = "0.0"
        for weight_mode, sums in groups:
            terms = "".join(f" + {c!r}" + (f" * {_BASIS_LOCALS[b]}" if b else "")
                            for b, c in enumerate(sums) if c)
            total += f" + {times(weight_mode)}(0.0{terms})"
        values.append(k.let(f"{times(mode)}({total})"))
    return k.compile("p, W1, scalars", values, "rows")


def j_closed_form(p: ModelParams, w: FrequencyPair, branch: str = "L4") -> dict:
    """The six printed J entries on `branch`, by name."""
    return printed(J_ENTRIES, p, w, branch)


def fg_tables(p: ModelParams, branch: str = "L4") -> dict:
    """The 24 printed F/G entries on `branch`, by name."""
    return printed(FG_ENTRIES, p, branch=branch)


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


# -- the r/s tables of the second-order components --------------------------


# The rows the report reads, by the stages a result holds: the point, from
# b1 on the J entries, from b2 on the F/G entries, which it reads as r1..s10.
REPORT_ROWS = (("x", "y"), ("x", "y", *J_ENTRIES), ("x", "y", *J_ENTRIES, *FG_ENTRIES))
_REPORTED = ("x", "y", *J_ENTRIES, *RS_NAMES)


def report_values(p: ModelParams, branch: str, w: FrequencyPair | None = None,
                  floor: float | None = None) -> tuple:
    """What the report prints on `branch`, in its order, from one row kernel:
    the point (x, y), with `w` the J entries, and with `floor` r1..s10 too,
    their divisors checked against it; on L5 the tables read the L4-form J."""
    names = REPORT_ROWS[(w is not None) + (floor is not None)]
    values = evaluate(names, p, w, branch)
    if floor is not None:
        names, values = _REPORTED, values[:8] + rs_values(values[2:8], w, values[8:], floor)
    return on_branch(names, values, branch)


def rs_tables(j: dict, w: FrequencyPair, fg: dict,
              floor: float = DIVISOR_FLOOR, branch: str = "L4") -> dict:
    """:func:`rs_values` on `branch` by name, from J and F/G by name (on L5,
    J read back to the L4 form)."""
    j = on_branch(J_ENTRIES, tuple(j[name] for name in J_ENTRIES), branch)
    values = rs_values(j, w, tuple(fg[name] for name in FG_ENTRIES), floor)
    return dict(zip(RS_NAMES, on_branch(RS_NAMES, values, branch)))


def rs_values(j: tuple, w: FrequencyPair, fg: tuple,
              floor: float = DIVISOR_FLOOR) -> tuple:
    """r1..r10 per the printed formulas and s1..s10 by the F -> G
    substitution, in L4 form, from J's six values and the 24 F/G values in
    `FG_ENTRIES` order (F the first twelve).  The five divisors are checked,
    and the powers, prefactors and J brackets the tables share formed, once."""
    w1, w2 = w.omega1, w.omega2
    w1sq, w2sq = w1**2, w2**2
    for name, value in (
        ("omega1^2 omega2^2", w1sq * w2sq),
        ("3 w1^2 (4 w1^2 - w2^2)", 3.0 * w1sq * (4.0 * w1sq - w2sq)),
        ("3 w2^2 (4 w2^2 - w1^2)", 3.0 * w2sq * (4.0 * w2sq - w1sq)),
        ("(2 w1 + w2)(w1 + 2 w2)", (2 * w1 + w2) * (w1 + 2 * w2)),
        ("(2 w1 - w2)(2 w2 - w1)", (2 * w1 - w2) * (2 * w2 - w1)),
    ):
        if abs(value) < floor:
            raise SmallDivisorError(name, value)
    J13, J14, J21, J22, J23, J24 = j
    sq12 = math.sqrt(w1 / w2)
    sq21 = math.sqrt(w2 / w1)
    sqp = math.sqrt(w1 * w2)

    # the prefactors of r1..r10 (r1 and r2 share one)
    k12 = 1.0 / (w1sq * w2sq)
    k3 = -1.0 / (3.0 * w1sq * (4.0 * w1sq - w2sq))
    k4 = 1.0 / (3.0 * w2sq * (4.0 * w2sq - w1sq))
    k5 = 1.0 / (w1 * w2 * ((2.0 * w1 + w2) * (4.0 * w1 + 2.0 * w2)))
    k6 = -1.0 / (w1 * w2 * ((2.0 * w1 - w2) * (4.0 * w1 - 2.0 * w2)))
    k7 = 1.0 / (3.0 * w1sq * (4.0 * w1sq - w2sq))
    k8 = -1.0 / (3.0 * w2sq * (4.0 * w2sq - w1sq))
    k9 = 1.0 / (w1 * w2 * (2.0 * w1 + w2) * (w1 + 2.0 * w2))
    k10 = 1.0 / (w1 * w2 * (2.0 * w1 - w2) * (2.0 * w2 - w1))
    p2, p3 = (w1 + w2) ** 2, (w1 + w2) ** 3
    m2, m3 = (w1 - w2) ** 2, (w1 - w2) ** 3
    c1, c2 = 8.0 * w1**3, 8.0 * w2**3
    e1, e2 = 4.0 * w1sq, 4.0 * w2sq

    # the J brackets the formulas share
    d1, d2 = J21**2 / w1 - J23**2 * w1, J22**2 / w2 - J24**2 * w2
    n1, n2 = J21**2 / w1 + J23**2 * w1, J22**2 / w2 + J24**2 * w2
    a11, a13, a14, a24 = J13**2 * w1, J13 * J23 * w1, J14**2 * w2, J14 * J24 * w2
    ca = J13 * J22 * sq12 - J14 * J21 * sq21
    cb = J21 * J24 * sq21 - J22 * J23 * sq12
    pb = J21 * J24 * sq21 + J22 * J23 * sq12
    pb3 = J21 * J22 * sq21 + J22 * J23 * sq12
    sa1, sa2 = J13 * J14, J13 * J24 + J14 * J23
    sb = J21 * J22 / sqp + J23 * J24 * sqp
    msb = J21 * J22 / sqp - J23 * J24 * sqp
    t9 = 2.0 * J13 * J14

    def table(f1, f2, f3, f4, f1p, f2p, f3p, f4p, f1pp, f2pp, f3pp, f4pp) -> tuple:
        """r1..r10 read at the F (or G) entries."""
        sym_a = lambda fa, fap: 2.0 * (sa1 * fa + sa2 * fap) * sqp

        r1 = k12 * (a11 * f4 + a13 * f4p + n1 * f4pp)
        r2 = k12 * (a14 * f4 + a24 * f4p + n2 * f4pp)
        r3 = k3 * (
            c1 * J21 * (J13 * f1p + 2.0 * J23 * f1pp)
            + e1 * ((J13 * f2 + J23 * f2pp) * J13 * w1 - d1 * f1pp)
            - 2.0 * w1 * J21 * (J13 * f3p + 2.0 * J23 * f3pp)
            - w1 * J13 * (J13 * f4 + J23 * f4pp) * w1
            + d1 * f1pp)
        r4 = k4 * (
            c2 * J22 * (J14 * f1p + 2.0 * J24 * f1pp)
            - e2 * ((J14 * f2 + J24 * f2pp) * J14 * w2 - d2 * f2pp)
            - 2.0 * w2 * J22 * (J14 * f3p + 2.0 * J24 * f3pp)
            - w2 * J14 * (J14 * f4 + J24 * f4pp) * w2
            - d2 * f4pp)
        r5 = k5 * (
            p3 * (ca * f1p - 2.0 * (cb * f1pp))
            - p2 * (sym_a(f2, f2p) + sb * f2pp)
            - (w1 + w2) * (ca * f3p - 2.0 * (cb * f3pp))
            + (sym_a(f4, f4p) + 2.0 * (sb * f4pp)))
        r6 = k6 * (
            m3 * (ca * f1p + 2.0 * pb * f1pp)
            + m2 * (sym_a(f2, f2p) - 2.0 * (msb * f2pp))
            - (w1 - w2) * (ca * f3p + 2.0 * pb3 * f3pp)
            - (sym_a(f4, f4p) - 2.0 * (msb * f4pp)))
        r7 = k7 * (
            c1 * (J13 * (J13 * f1 + J23 * f1p) * w1 - d1 * f1pp)
            - 2.0 * w1 * (w1 * J13 * (J13 * f3 + J23 * f3p) - d1 * f3pp)
            - e1 * J21 * (J13 * f2 + J23 * f2pp) * w1
            + J21 * (J13 * f4p + 2.0 * J23 * f4pp))
        r8 = k8 * (
            c2 * (J14 * (J14 * f1 + J24 * f1p) * w2 - d2 * f1pp)
            + e2 * J22 * (J14 * f2 + 2.0 * J24 * f2pp) * w2
            - 2.0 * w2 * (w2 * J14 * (J14 * f3 + J24 * f3p) - d2 * f3pp)
            - J22 * (J14 * f4p + 2.0 * J24 * f4pp))
        r9 = k9 * (
            p3 * ((t9 * f1 + sa2 * f1p) * sqp + 2.0 * (sb * f1pp))
            - p2 * (ca * f2p - 2.0 * (cb * f2pp))
            - (w1 + w2) * (sym_a(f3, f3p) + 2.0 * (sb * f3pp))
            - (ca * f4p - 2.0 * (cb * f4pp)))
        r10 = k10 * (
            m3 * ((t9 * f1 + sa2 * f1p) * sqp - 2.0 * (msb * f1pp))
            - m2 * (ca * f2p + 2.0 * pb * f2pp)
            - (w1 - w2) * (sym_a(f3, f3p) - 2.0 * (msb * f3pp))
            + (ca * f4p - 2.0 * (cb * f4pp)))
        return r1, r2, r3, r4, r5, r6, r7, r8, r9, r10

    return table(*fg[:12]) + table(*fg[12:])
