"""Key layouts, the store both algebras run on, and the kernel emitter.

A series (:mod:`l4norm.dalembert`) or a polynomial
(:mod:`l4norm.polyalg`) is a :class:`Store`: a *layout* -- its keys in
stored order, with each key's slot -- plus a list of values, one per
slot, real or complex, built one way: ``_new(layout, values)`` on a
planned layout.  The base holds what the two share, the key lookup; a
slice (:func:`sliced`) and the sup norm of a difference
(:func:`sup_of_difference`) run on ``(layout, values)`` pairs and build
no store.  The key work of every operation the program runs (output
keys, their order, which slots meet) depends only on the layouts, which
repeat from one parameter point to the next, so it is planned once per
layout, or tuple of layouts, and kept in one bounded table (the Taylor
expansion's once per degree cap and drag on/off); the operation itself
is arithmetic along the plan and builds no dict.  A sum plan appends the
right operand's new keys in its order, so a sum along it is
bit-identical to a plain loop over the terms, key order included.

Where a plan runs arithmetic, :class:`KernelSource` writes it as one
straight-line function, and :func:`compiled` compiles it once, with
:data:`KERNEL_NAMES` as its globals: the substitution of series into a
polynomial (:func:`l4norm.dalembert.substitute`), which forms each
product of up to three factors in one step, so it matches multiplying
out one pair at a time to round-off; the second-order stages of
:mod:`l4norm.normalform`, which run such a substitution between the
sums, D-polynomials and guards around it; the Taylor expansion
(:func:`l4norm.polyalg.taylor_lagrangian`), one kernel per degree cap and
drag on/off; and the printed rows (:func:`l4norm.closedforms.printed`),
one per tuple of row names.

Layouts are interned by key tuple, so results of the same shape share
plans.  Nothing depends on that: a layout evicted from the table and
interned again is a new object with plans of its own.
"""

from __future__ import annotations

import functools
import math

from .errors import CriticalTermError, SmallDivisorError

# Entries kept in the plan table: interned layouts and the plans made on
# them, each substitution, stage or Taylor plan with its compiled kernel.  50
# seeded chains, audited and reported, and the detector make 67 (12 kernels).
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


# The globals of every kernel, besides the builtins.
KERNEL_NAMES = {"atan2": math.atan2, "CriticalTermError": CriticalTermError,
                "SmallDivisorError": SmallDivisorError}


@functools.lru_cache(maxsize=PLAN_TABLE_SIZE)
def compiled(source: str, name: str):
    """The function `name` defined by generated `source`, with
    `KERNEL_NAMES` as its globals, compiled once per source text: plans on
    different layouts that write the same kernel (the H3 stage with and
    without drag, whose layouts differ only in terms it drops) share one
    function, which keeps no state.  Kept as the plan table keeps plans."""
    namespace = dict(KERNEL_NAMES)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


class kept:
    """`functools.cached_property` without the lock of its first read."""

    def __init__(self, form):
        self.form, self.name, self.__doc__ = form, form.__name__, form.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.form(obj)
        return value


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


class Store:
    """A layout plus one value per slot; `_zero` is the value a subclass
    prunes and reads where a key is missing."""

    __slots__ = ("layout", "values")

    _zero = 0.0

    @classmethod
    def _new(cls, layout: Layout, values: list):
        """This kind of store on a layout of stored keys, zeros dropped."""
        out = object.__new__(cls)
        out.layout, out.values = pruned(layout, values, cls._zero)
        return out

    def _value(self, key):
        n = self.layout.index.get(key)
        return self._zero if n is None else self.values[n]


def sup_of_difference(layout: Layout, parts: list, other: tuple) -> float:
    """Sup over the real and imaginary parts of the values on `layout`,
    given as their (real, imag) parts key after key, minus the values of
    the ``(layout, values)`` pair `other`, key by key along their sum plan;
    a key one side lacks reads zero there."""
    _, shared, new = plan(sum_plan, layout, other[0])
    right = other[1]
    parts = parts.copy()
    for n, k in shared:
        z = right[k]
        parts[2 * n] -= z.real
        parts[2 * n + 1] -= z.imag
    for k in new:
        parts += (right[k].real, right[k].imag)
    return max(map(abs, parts), default=0.0)


class KernelSource:
    """A kernel being generated: the statements of its body.  A series is
    ``(layout, names)``, one local per slot; each expression is bound to
    one local ``t<n>`` on first use (:meth:`let`), so a harmonic's theta or
    multiplier, met on several slots, is formed once.  The series methods
    read the frequencies `w1` and `w2`.  Series are never pruned inside a
    kernel: a layout is structural, and only the caller prunes what it
    returns."""

    def __init__(self):
        self.lines = []
        self._locals = {}

    def let(self, expression: str) -> str:
        name = self._locals.get(expression)
        if name is None:
            name = self._locals[expression] = f"t{len(self._locals)}"
            self.lines.append(f"{name} = {expression}")
        return name

    def unpack(self, argument: str, layout: Layout) -> tuple:
        """The series of `layout` whose values the kernel takes as `argument`."""
        names = [f"{argument}_{n}" for n in range(len(layout.keys))]
        if names:
            self.lines.append(f"{', '.join(names)}, = {argument}")
        return layout, names

    def multiplier(self, p: int, q: int, c0: str, c1: str, c2: str) -> str:
        """The local holding c2 D^2 + c1 D + c0 at harmonic (p, q), as
        :func:`l4norm.dalembert.apply_poly_in_D` evaluates it; D itself as
        ``complex(0.0, -t)``, which that form equals for every finite t."""
        t = self.let(f"{p} * w1 - {q} * w2")
        if (c0, c1, c2) == ("0.0", "1.0", "0.0"):
            return self.let(f"complex(0.0, -{t})")
        return self.let(f"complex({c0} - {c2} * {t} * {t}, -({c1} * {t}))")

    def apply_D(self, series: tuple) -> tuple:
        """D of a series, as :func:`l4norm.dalembert.apply_D`; its theta = 0
        keys, which D maps to 0, are dropped."""
        layout, names = series
        kept = [(key, z) for key, z in zip(layout.keys, names) if key[2] or key[3]]
        return intern(tuple(key for key, _ in kept)), [
            self.let(f"0j + {self.multiplier(p, q, '0.0', '1.0', '0.0')} * {z}")
            for (_, _, p, q), z in kept]

    def merge(self, left: tuple, right: tuple, negate: bool = False) -> tuple:
        """``left + right`` (``left - right`` if `negate`) along their sum
        plan: a shared key's values added, a new key's as ``0j`` plus it."""
        layout, shared, new = sum_plan(left[0], right[0])
        sign = "-" if negate else ""
        names = left[1].copy()
        for n, k in shared:
            names[n] = self.let(f"{names[n]} + {sign}{right[1][k]}")
        return layout, names + [self.let(f"0j + {sign}{right[1][k]}") for k in new]

    def substitute(self, outputs, args) -> list:
        """The series of each :func:`l4norm.dalembert.substitution_rows`
        output at `args`, the kernel's `coefficients` argument holding the
        coefficients: the constants ``coefficients[n] (* e) * scale``, the
        factors 1 and 1.0 left out, and the conjugates, each formed once;
        per slot ``0j`` plus its rows' products, pass after pass, in the
        order ``acc[slot] +=`` would add them, each product left to right
        with every prefix that two or more products share bound once.  One
        kernel holds one substitution."""
        names = ["1.0", *(z for a in args for z in a[1])]
        # a prefix is known by the id of the prefix one factor shorter and its
        # last factor; `shared[id]`: two or more products have that prefix
        size, ids, shared, outs = len(names), {}, [], []
        for layout, scales, passes, zero_slots in outputs:
            c = []
            for (n, e), scale in scales:
                value = self.let(f"coefficients[{n}]")
                value = value if e in (None, 1) else self.let(f"{value} * {e}")
                c.append(value if scale == 1.0 else self.let(f"{value} * {scale!r}"))
            terms = [[] for _ in layout.keys]
            for rows in passes:
                for slot, k, *row in rows:
                    factors = [names[a] if a < size else
                               self.let(f"{names[a - size]}.conjugate()") for a in row]
                    prefix, prefixes = c[k], []
                    for factor in factors:
                        n = ids.get((prefix, factor))
                        if n is None:
                            n = ids[prefix, factor] = len(shared)
                            shared.append(False)
                        else:
                            shared[n] = True
                        prefixes.append(prefix := n)
                    terms[slot].append((c[k], factors, prefixes))
            outs.append((layout, terms, zero_slots))
        results = []
        for o, (layout, terms, zero_slots) in enumerate(outs):
            v = [f"v{o}_{slot}" for slot in range(len(terms))]
            for slot, products in enumerate(terms):
                formed = []
                for value, factors, prefixes in products:
                    for factor, n in zip(factors, prefixes):
                        value = f"{value} * {factor}"
                        value = self.let(value) if shared[n] else value
                    formed.append(value)
                # 100 products a statement: a `+` chain of 3,000 overflows compile
                self.lines += [f"{v[slot]} = {v[slot] if k else '0j'} + "
                               + " + ".join(formed[k:k + 100])
                               for k in range(0, len(formed), 100)]
                if slot in zero_slots:
                    self.lines.append(f"{v[slot]} = complex({v[slot]}.real)")
            results.append((layout, v))
        return results

    @staticmethod
    def sup(*series) -> str:
        """Sup over the real and imaginary parts of the values of every
        series, 0.0 for none."""
        parts = ["0.0", *(f"abs({z}.{part})" for _, names in series
                          for z in names for part in ("real", "imag"))]
        return f"max(({', '.join(parts)},))"

    def compile(self, arguments: str, results: list, name: str = "kernel"):
        """The kernel `name` of these statements, returning the tuple of
        `results` (a series as the list of its values, or an expression)."""
        values = "".join(f"[{', '.join(r[1])}], " if isinstance(r, tuple) else f"{r}, "
                         for r in results)
        return compiled("\n    ".join([f"def {name}({arguments}):", *self.lines,
                                     f"return ({values})\n"]), name)
