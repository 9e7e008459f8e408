"""Timing wrappers around l4norm's module boundaries, for the traced run.

Nothing in `src/` is touched: every wrapper is installed from here, on the
name where the caller looks it up, only for the duration of one traced
program call, and removed again by `uninstall`.

* Module attributes the callers reach through the module
  (`verify.run_pipeline`, `normalform.forcing_x2y2`, ...).  Patching
  `verify.run_pipeline` also covers the detector's calls, which look the
  name up in the same module namespace; `l4norm.run_pipeline` is the
  package-level binding the library path uses.
* Names imported into a caller's namespace (`invert_delta`, `apply_D` and
  `apply_poly_in_D` inside `normalform`, `classify_remainder` and
  `moser_check` inside `verify`).
* Class methods together with their `__rmul__` alias
  (`DAlembertSeries.__mul__`, `TruncatedPoly.__mul__`).

Each call becomes a span (name, start, end, parent, op id) kept in flat
arrays; `write` saves them when the run ends.  A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array

import numpy as np

import l4norm
from l4norm import cli, closedforms, dalembert, equilibria, normalform
from l4norm import polyalg, verify

OP = "op"

# (owner, attribute, span name); one wrapper per (owner's function, name).
SPANS = (
    (cli, "main", "cli.main"),
    (l4norm, "run_pipeline", "verify.run_pipeline"),
    (verify, "run_pipeline", "verify.run_pipeline"),
    (verify, "detect_discrepancies", "verify.detect_discrepancies"),
    (verify, "render_report", "verify.render_report"),
    (verify, "classify_remainder", "errata.classify_remainder"),
    (verify, "moser_check", "dalembert.moser_check"),
    (equilibria, "solve_triangular_numeric", "equilibria.newton"),
    (equilibria, "triangular_series", "equilibria.series"),
    (equilibria, "epsilon_form", "equilibria.series"),
    (equilibria, "offset_ab", "equilibria.series"),
    (polyalg, "taylor_lagrangian", "polyalg.taylor_lagrangian"),
    (polyalg, "t_coefficients_closed_form", "polyalg.cubic_audit"),
    (polyalg, "compare_h3", "polyalg.cubic_audit"),
    (polyalg, "extract_EFG", "polyalg.cubic_audit"),
    (normalform, "invert_delta", "dalembert.invert_delta"),
    (normalform, "apply_D", "dalembert.apply_D"),
    (normalform, "apply_poly_in_D", "dalembert.apply_poly_in_D"),
    (normalform, "frequencies", "normalform.frequencies"),
    (normalform, "j_numeric", "normalform.j_numeric"),
    (normalform, "forcing_x2y2", "normalform.forcing_x2y2"),
    (normalform, "solve_second_order_oracle",
     "normalform.solve_second_order_oracle"),
    (closedforms, "j_closed_form", "closedforms"),
    (closedforms, "fg_tables", "closedforms"),
    (closedforms, "rs_tables", "closedforms"),
)

# Products inside h3_normal_coefficients are pruned at degree 3.
H3_CAP = 3


class Tracer:
    """Spans and counters of one traced pass; single-threaded."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self._caps = []
        self._op = -1
        self.counts = {"equilibria.force_evals": 0,
                       "polyalg.poly_mul.pairs": 0,
                       "dalembert.series_mul.pairs": 0,
                       "dalembert.series_mul.out_terms": 0,
                       "dalembert.series_mul.over_cap_terms": 0}
        self._patches = self._build()

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self._open(self._id(OP))

    def end_op(self, idx: int):
        self._close(idx)
        self._op = -1

    def _span(self, name: str, fn, cap_of=None):
        nid = self._id(name)
        opened, closed, caps = self._open, self._close, self._caps

        def wrapper(*args, **kwargs):
            if cap_of is not None:
                caps.append(cap_of(args, kwargs))
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)
                if cap_of is not None:
                    caps.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- kernels with counters -------------------------------------------

    def _series_mul(self, fn):
        nid = self._id("dalembert.series_mul")
        counts, caps = self.counts, self._caps
        series = dalembert.DAlembertSeries

        def wrapper(a, b):
            idx = self._open(nid)
            try:
                out = fn(a, b)
            finally:
                self._close(idx)
            if isinstance(b, series):
                counts["dalembert.series_mul.pairs"] += len(a.terms) * len(b.terms)
                counts["dalembert.series_mul.out_terms"] += len(out.terms)
                if caps:
                    cap = caps[-1]
                    counts["dalembert.series_mul.over_cap_terms"] += sum(
                        1 for k in out.terms if k[0] + k[1] > cap)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _poly_mul(self, fn):
        nid = self._id("polyalg.poly_mul")
        counts = self.counts
        poly = polyalg.TruncatedPoly

        def wrapper(a, b):
            idx = self._open(nid)
            try:
                return fn(a, b)
            finally:
                self._close(idx)
                other = len(b.coeffs) if isinstance(b, poly) else 1
                counts["polyalg.poly_mul.pairs"] += len(a.coeffs) * other

        wrapper.__wrapped__ = fn
        return wrapper

    def _force_counter(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["equilibria.force_evals"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _build(self):
        """(owner, attribute, original, wrapper) for every patched name."""
        patches, wrapped = [], {}
        for owner, attr, name in SPANS:
            fn = getattr(owner, attr)
            if fn not in wrapped:
                wrapped[fn] = self._span(name, fn)
            patches.append((owner, attr, fn, wrapped[fn]))
        for attr, cap_of in (
                ("poly_at_series", lambda a, k: k["cap"] if "cap" in k else a[5]),
                ("h3_normal_coefficients", lambda a, k: H3_CAP)):
            fn = getattr(normalform, attr)
            patches.append((normalform, attr, fn, self._span(
                f"normalform.{attr}", fn, cap_of=cap_of)))
        fn = equilibria.equilibrium_force
        patches.append((equilibria, "equilibrium_force", fn,
                        self._force_counter(fn)))
        for cls, make in ((dalembert.DAlembertSeries, self._series_mul),
                          (polyalg.TruncatedPoly, self._poly_mul)):
            fn = cls.__mul__
            wrapper = make(fn)
            patches.append((cls, "__mul__", fn, wrapper))
            patches.append((cls, "__rmul__", fn, wrapper))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def measuring(self, op_id: int, out):
        """Trace one program call; output checks stay outside it."""
        self.install()
        idx = self.begin_op(op_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            out.seconds = time.perf_counter() - start
            self.end_op(idx)
            self.uninstall()

    # -- results -------------------------------------------------------------

    def arrays(self):
        """(name ids, durations in ms, self times in ms, op ids)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) * 1e3
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        return name, dur, dur - child, np.frombuffer(self.op, dtype=np.int32)

    def write(self, path: str, meta: dict):
        """Save every span and the run's metadata in one .npz file."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 names=np.array(self.names),
                 meta=np.array(json.dumps(meta, sort_keys=True)))
