"""Write the oracle chain's values at seeded parameter points to one file.

For each point the script runs every stage of `run_pipeline` and the
printed-table `audit`, and writes one `repr` line: the Taylor
coefficients in stored order, E/F/G, the frequencies, the normal-mode
matrix J and the Hessian of the quadratic Hamiltonian as hex floats row
by row, J's symplectic defect and diagonalisation residual, B1 and its
residual under the linearized equations, the forcing X2/Y2, B2 and its
residuals, H3 and its ablation with their series, the gates, the printed
cubic on the point's branch (T1..T4, and the T5 and T5_print coefficients
in stored order), the other printed values by name (the epsilon-form
point x, y, the offsets a, b, J13..J24, the F/G entries and r1..s10), the
sorted audit gaps, and the partial-forcing gap of a chain stopped at b2
(the detector's path, where the gap reads the b2 stage's forcing and
cubic at B1).  The series come from the result's plain ``(layout, values)``
pairs through ``DAlembertSeries._new(layout, values)``, and the printed J
entries and r1..s10 from the audit's rows, by `J_ENTRIES` and `RS_NAMES`.
A point that raises gets its exception class and message instead.  The points
(mu in [0.001, 0.037], both branches, every other one drag-free) come
from a fixed seed, so two snapshots that compare equal mean the chain
computed the same values, bit for bit and in the same order.  The package
is imported from whatever `PYTHONPATH` names, so one tree can be compared
with another:

    PYTHONPATH=old/src python scripts/chain_snapshot.py old.txt
    PYTHONPATH=src python scripts/chain_snapshot.py new.txt
    diff old.txt new.txt

A change meant to move values only at round-off is checked with the
numeric mode instead of `diff`:

    python scripts/chain_snapshot.py --compare old.txt new.txt

It prints, per field, the worst change over the points relative to the
field's largest magnitude at that point, the worst absolute change, and
the point of the worst relative one.  A term that one side stores and
the other has pruned as an exact zero reads as 0.0 there.  Everything
else that is not a float (gates, audit names, the class of a point's
error, not its message) must match exactly; the mode lists each point
where it does not and then exits 1.
"""

from __future__ import annotations

import ast
import random
import sys

POINTS = 300


def random_points(count: int, seed: int = 1):
    """(mu, epsilon, A2, cd, branch); every other point has epsilon = 0."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        epsilon = 0.0 if i % 2 else rng.uniform(0.0, 0.01)
        out.append((rng.uniform(0.001, 0.037), epsilon, rng.uniform(0.0, 0.005),
                    rng.uniform(1.0, 100.0), rng.choice(("L4", "L5"))))
    return out


def series_terms(series):
    return [(key, (float(c), float(s))) for key, (c, s) in series.terms.items()]


def h3_values(grade_norms, series, h2_residual):
    return ([float(a) for a in grade_norms], series_terms(series),
            float(h2_residual))


def grade_norms(series):
    """The sup norm of each degree-3 action grade, (3, 0) to (0, 3), read
    off the terms here and not through the package."""
    norms = dict.fromkeys(((3, 0), (2, 1), (1, 2), (0, 3)), 0.0)
    for key, z in zip(series.layout.keys, series.values):
        if key[:2] in norms:
            norms[key[:2]] = max(norms[key[:2]], abs(z.real), abs(z.imag))
    return norms.values()


def chain_record(mu, epsilon, a2, cd, branch):
    """Every value the chain and the audit compute at one point."""
    from l4norm.closedforms import fg_tables
    from l4norm.dalembert import DAlembertSeries
    from l4norm.equilibria import offset_ab
    from l4norm.model import ModelParams
    from l4norm.normalform import J_ENTRIES, RS_NAMES, _b1_pairs, hamiltonian_matrix
    from l4norm.polyalg import T5_KEYS, t_coefficients_closed_form
    from l4norm.verify import (
        PipelineOptions,
        audit,
        partial_forcing_gap,
        run_pipeline,
    )

    p = ModelParams(mu=mu, q1=1.0 - epsilon, A2=a2, cd=cd)
    options = PipelineOptions(branch=branch)
    res = run_pipeline(p, options)
    at_b2 = run_pipeline(p, options, stages=("b2",))
    efg, w, h3 = res.efg, res.freq, res.h3
    # the stages' (layout, values) pairs, each viewed as a series
    b1x, b1y, x2, y2, cubic_at_b1, b2x, b2y = (DAlembertSeries._new(*pair) for pair in (
        *_b1_pairs(res.b1_values), *res.forcing[0], res.forcing[2], *res.b2_values[:2]))
    cubic = t_coefficients_closed_form(p, res.shift, branch)
    printed = audit(res)
    shift = offset_ab(p, branch)
    values = {"x": printed.eq_epsform.x, "y": printed.eq_epsform.y,
              "a": shift.a, "b": shift.b, **dict(zip(J_ENTRIES, printed.j_rows[1::3])),
              **fg_tables(p, branch), **dict(zip(RS_NAMES, printed.rs_rows[0::3]))}
    return (
        ("taylor", [(m, float(c)) for m, c in res.lagrangian_poly.coeffs.items()]),
        ("efg", (float(efg.E), float(efg.F), float(efg.G))),
        ("freq", (float(w.omega1), float(w.omega2))),
        ("J", [float(v).hex() for row in res.nm.J for v in row]),
        ("hessian", [float(v).hex() for row in hamiltonian_matrix(res.nm.K, res.nm.C)
                     for v in row]),
        ("nm", float(res.nm.symplectic_defect), float(res.nm.h2_residual)),
        ("b1", series_terms(b1x), series_terms(b1y), float(res.b1_residual)),
        ("x2", series_terms(x2)),
        ("y2", series_terms(y2)),
        ("b2", series_terms(b2x), series_terms(b2y),
         *map(float, res.b2_residuals)),
        ("h3", h3_values((h3.A30, h3.A21, h3.A12, h3.A03), h3.series,
                         h3.h2_residual)),
        # H3 with B2 = 0: the cubic at B1, with H3's degree-2 residual
        ("ablation", h3_values(grade_norms(cubic_at_b1), cubic_at_b1,
                               h3.h2_residual)),
        ("gates", sorted(res.gates().items())),
        # T5 and T5_print without their exact zeros, in `T5_KEYS` order
        ("cubic", [float(c) for c in cubic[:4]],
         *([(m, float(c)) for m, c in zip(T5_KEYS, t5) if c] for t5 in cubic[4:])),
        ("printed", sorted((k, float(v)) for k, v in values.items())),
        ("audit", sorted((k, float(v)) for k, v in printed.gaps.items())),
        ("partial_at_b2", float(partial_forcing_gap(at_b2))),
    )


def snapshot(points) -> str:
    lines = []
    for index, point in enumerate(points):
        try:
            record = chain_record(*point)
        except Exception as err:  # the error is the point's record
            record = (type(err).__name__, str(err))
        lines.append(repr((index, point, record)) + "\n")
    return "".join(lines)


def _is_keyed(value) -> bool:
    """A list of (key, value) terms keyed by four ints: a series, as
    `series_terms` writes it, or the Taylor polynomial."""
    return isinstance(value, list) and bool(value) and all(
        isinstance(t, tuple) and len(t) == 2 and isinstance(t[0], tuple)
        and len(t[0]) == 4 and all(isinstance(k, int) for k in t[0])
        for t in value)


def flatten(value, path: tuple, floats: dict, other: dict):
    """Fill `floats` with every float of `value` (hex strings, as in J,
    read back) and `other` with every other leaf, both by path.  A term's
    path holds its key, so a term pruned to an exact zero on one side
    reads as 0.0 there."""
    if _is_keyed(value):
        for key, term in value:
            flatten(term, path + (key,), floats, other)
    elif isinstance(value, (tuple, list)):
        for n, item in enumerate(value):
            flatten(item, path + (n,), floats, other)
    elif isinstance(value, str) and value.lstrip("-").startswith("0x"):
        floats[path] = float.fromhex(value)
    elif isinstance(value, float):
        floats[path] = value
    else:
        other[path] = value


def compare(old_lines, new_lines) -> tuple:
    """``(worst, mismatches)``: per field name, the worst (relative,
    absolute) change and the point it is at; and the points whose
    non-float content differs."""
    worst, mismatches = {}, []
    if len(old_lines) != len(new_lines):
        mismatches.append(f"{len(old_lines)} points against {len(new_lines)}")
    for old_line, new_line in zip(old_lines, new_lines):
        index, _, old_record = ast.literal_eval(old_line)
        _, _, new_record = ast.literal_eval(new_line)
        if isinstance(old_record[1], str) or isinstance(new_record[1], str):
            if old_record[0] != new_record[0]:  # error class, or a record
                mismatches.append(f"point {index}: {old_record[0]} against "
                                  f"{new_record[0]}")
            continue
        for old_field, new_field in zip(old_record, new_record):
            a, b, a_other, b_other = {}, {}, {}, {}
            flatten(old_field, (), a, a_other)
            flatten(new_field, (), b, b_other)
            if a_other != b_other:
                mismatches.append(f"point {index}: field {old_field[0]}")
                continue
            scale = max(map(abs, a.values()), default=0.0)
            change = max((abs(a.get(k, 0.0) - b.get(k, 0.0))
                          for k in a.keys() | b.keys()), default=0.0)
            rel = change / scale if scale else change
            prev = worst.get(old_field[0], (0.0, 0.0, None))
            worst[old_field[0]] = (max(prev[0], rel), max(prev[1], change),
                                   index if rel > prev[0] else prev[2])
    return worst, mismatches


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        old, new = ([*open(path, encoding="utf-8")] for path in args[1:])
        worst, mismatches = compare(old, new)
        print("field relative absolute worst_point")
        for name, (rel, change, index) in worst.items():
            print(f"{name} {rel:.3g} {change:.3g} {index}")
        for line in mismatches:
            print(f"differs: {line}")
        return 1 if mismatches else 0
    if len(args) != 1:
        print("usage: chain_snapshot.py OUTPUT | --compare OLD NEW",
              file=sys.stderr)
        return 2
    with open(args[0], "w", encoding="utf-8", newline="\n") as handle:
        handle.write(snapshot(random_points(POINTS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
