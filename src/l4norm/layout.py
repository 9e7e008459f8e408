"""Key layouts and the store both algebras run on.

A series (:mod:`l4norm.dalembert`) or a polynomial (:mod:`l4norm.polyalg`)
is a :class:`Store`: a *layout* -- its keys in stored order, with each
key's slot -- plus a list of values, one per slot, real or complex.  The
base holds what the two share: the sum and the difference, the slices,
the key lookup and the sup norms.  The key work of every operation the
program runs (output keys, their order, which slots meet) depends only
on the layouts, which repeat from one parameter point to the next, so it
is planned once per layout, or tuple of layouts, and kept in one bounded
table (the Taylor expansion's once per degree cap and drag on/off); the
operation itself is arithmetic along the plan and builds no dict.  A sum
(or a difference) appends the right operand's new keys in its order, so
it is bit-identical to a plain loop over the terms, key order included.
A product kernel, the substitution of series into a polynomial
(:func:`l4norm.dalembert.substitute`), forms each product of up to three
factors in one step, so it matches multiplying out one pair at a time to
round-off; its plan holds the rows compiled into one straight-line
function (:func:`compiled`), which a call runs.  The second-order stages
of :mod:`l4norm.normalform` compile one such function each, which runs
their substitution between the sums, D-polynomials and guards around it,
and the Taylor expansion (:func:`l4norm.polyalg.taylor_lagrangian`)
compiles one per degree cap and drag on/off, which runs all of it.

Layouts are interned by key tuple, so results of the same shape share
plans.  Nothing depends on that: a layout evicted from the table and
interned again is a new object with plans of its own.
"""

from __future__ import annotations

import functools
import operator

# Entries kept in the plan table: interned layouts and the plans made on
# them, each substitution, stage or Taylor plan with its compiled kernel.  50
# seeded chains with their audits and the detector make 48 (12 kernels).
PLAN_TABLE_SIZE = 1024


class Layout:
    """Keys in stored order and the slot of each key."""

    __slots__ = ("keys", "index")

    def __init__(self, keys: tuple):
        self.keys = keys
        self.index = {key: n for n, key in enumerate(keys)}


@functools.lru_cache(maxsize=PLAN_TABLE_SIZE)
def plan(build, *args):
    """``build(*args)``, made on the first call with these arguments and
    kept in the plan table, which evicts the least recently used entry."""
    return build(*args)


def compiled(source: str, name: str, **names):
    """The function `name` defined by generated `source`, with `names` as
    its globals, as `dataclasses` and `namedtuple` make theirs; a plan
    holding one compiles it once."""
    namespace = dict(names)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def intern(keys: tuple) -> Layout:
    return plan(Layout, keys)


def pruned(layout: Layout, values: list, zero):
    """``(layout, values)`` without the slots whose value equals `zero`."""
    if zero not in values:
        return layout, values
    keep = tuple(n for n, v in enumerate(values) if v != zero)
    return plan(_kept_slots, layout, keep), [values[n] for n in keep]


def _kept_slots(layout: Layout, keep: tuple) -> Layout:
    return intern(tuple(layout.keys[n] for n in keep))


def sliced(layout: Layout, values: list, measure, low, high):
    """``(sub-layout, values)`` of the keys with ``low <= measure(key) <=
    high``; the slots kept are planned once per (layout, measure, low,
    high), so `measure` is a module-level function."""
    sub, keep = plan(_slice_plan, layout, measure, low, high)
    return sub, [values[n] for n in keep]


def _slice_plan(layout: Layout, measure, low, high):
    keep = tuple(n for n, key in enumerate(layout.keys)
                 if low <= measure(key) <= high)
    return _kept_slots(layout, keep), keep


def sum_plan(left: Layout, right: Layout):
    """Plan of a sum: ``(layout, shared, new)``.  The layout is left's keys
    followed by right's keys that left lacks, in right's order; `shared`
    pairs each left slot with the right slot of the same key, and `new`
    lists the right slots appended."""
    index = left.index
    shared = tuple((index[key], k) for k, key in enumerate(right.keys)
                   if key in index)
    new = tuple(k for k, key in enumerate(right.keys) if key not in index)
    out = intern(left.keys + tuple(right.keys[k] for k in new)) if new else left
    return out, shared, new


def _add_negated(x, y):
    """``x - y`` as a sum: where a complex value meets a real one, ``x - y``
    can give a zero imaginary part the other sign."""
    return x + -y


def _sup(value) -> float:  # max(|real|, |imag|) without calling `max`
    re, im = abs(value.real), abs(value.imag)
    return im if im > re else re


class Store:
    """A layout plus one value per slot; `_zero` is the value a subclass
    accumulates from and normalises with (0.0 + x turns -0.0 into 0.0)."""

    __slots__ = ("layout", "values")

    _zero = 0.0

    @classmethod
    def _new(cls, layout: Layout, values: list):
        """This kind of store on a layout of stored keys, zeros dropped."""
        out = object.__new__(cls)
        out.layout, out.values = pruned(layout, values, cls._zero)
        return out

    def __add__(self, other):
        return self._merge(other, operator.add)

    def __sub__(self, other):
        return self._merge(other, _add_negated)

    def _merge(self, other, op):
        """``op`` (a sum, or a sum with the negation) of the two stores
        along their sum plan."""
        layout, shared, new = plan(sum_plan, self.layout, other.layout)
        values = self.values.copy()
        right = other.values
        for n, k in shared:
            values[n] = op(values[n], right[k])
        zero = self._zero
        values += [op(zero, right[k]) for k in new]
        return self._new(layout, values)

    def _slice(self, measure, low, high):
        return self._new(*sliced(self.layout, self.values, measure, low, high))

    def _value(self, key):
        n = self.layout.index.get(key)
        return self._zero if n is None else self.values[n]

    def max_abs(self) -> float:
        """Sup over the real and imaginary parts of the values."""
        return max(map(_sup, self.values), default=0.0)

    def norm_of_difference(self, other) -> float:
        """Sup over the real and imaginary parts of the differences."""
        keys = set(self.layout.keys) | set(other.layout.keys)
        return max((_sup(self._value(k) - other._value(k)) for k in keys),
                   default=0.0)
