"""The dict constructors and the sum of the object algebra, for the tests.

The package builds each series and polynomial one way, by ``_new`` on a
planned layout and its values.  The classes here are its classes under
the same names, with a dict constructor, `DAlembertSeries.single` and
``+``; ``_new`` keeps the caller's class, so what they form stays theirs.
The dict constructors check each key (a series' parity, a polynomial's
exponent tuple), so rebuilding what an operation formed revalidates it.
"""

import operator

from l4norm import dalembert, polyalg
from l4norm.dalembert import _canonical
from l4norm.errors import ContractError
from l4norm.layout import intern, plan, pruned, sum_plan


def merged(a, b, op=operator.add):
    """``op`` of two stores along their sum plan, as `a`'s class: their
    sum, or with ``x + -y`` their difference."""
    layout, shared, new = plan(sum_plan, a.layout, b.layout)
    values = a.values.copy()
    for n, k in shared:
        values[n] = op(values[n], b.values[k])
    return a._new(layout, values + [op(a._zero, b.values[k]) for k in new])


def check_parity(j, m, p, q):
    """`ContractError` unless 0 <= p <= j, -m <= q <= m, p = j and q = m
    (mod 2)."""
    if j < 0 or m < 0:
        raise ContractError(f"negative action powers in key {(j, m, p, q)}")
    if not (0 <= p <= j and (p - j) % 2 == 0):
        raise ContractError(f"harmonic p={p} violates parity for j={j}")
    if not (-m <= q <= m and (q - m) % 2 == 0):
        raise ContractError(f"harmonic q={q} violates parity for m={m}")


class DAlembertSeries(dalembert.DAlembertSeries):
    """A series from terms (j, m, p, q) -> (cos, sin): each key made
    canonical (negating it flips the sine) and checked for parity, the
    sine of the (0, 0) harmonic dropped, the terms of one key added and
    exact zeros dropped."""

    __slots__ = ()
    __add__ = merged

    def __init__(self, terms=None):
        acc = {}
        for (j, m, p, q), (c, s) in (terms or {}).items():
            p, q, flip = _canonical(p, q)
            s = 0.0 if p == q == 0 else -s if flip else s
            acc[j, m, p, q] = acc.get((j, m, p, q), 0j) + complex(c, s)
        for key in acc:
            check_parity(*key)
        self.layout, self.values = pruned(intern(tuple(acc)), list(acc.values()), 0j)

    @classmethod
    def single(cls, j, m, p, q, c=0.0, s=0.0):
        return cls({(j, m, p, q): (c, s)})


class TruncatedPoly(polyalg.TruncatedPoly):
    """A polynomial of degree cap `cap` from monomial -> value: each key
    checked for an exponent 4-tuple, keys past the cap and exact zeros
    dropped."""

    __slots__ = ()
    __add__ = merged

    def __init__(self, cap: int, coeffs=None):
        for mono in coeffs or ():
            if len(mono) != 4 or min(mono) < 0:
                raise ContractError(f"bad exponent tuple {mono}")
        kept = {m: c for m, c in (coeffs or {}).items() if sum(m) <= cap and c != 0.0}
        self.cap, self.layout, self.values = cap, intern(tuple(kept)), list(kept.values())
