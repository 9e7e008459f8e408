"""Write the oracle chain's values at seeded parameter points to one file.

For each point the script runs every stage of `run_pipeline` and the
printed-table `audit`, and writes one `repr` line: the Taylor
coefficients in stored order, E/F/G, the frequencies, the normal-mode
matrix J as hex floats, the forcing X2/Y2, B2 and its residuals, H3 and
its ablation with their series, the gates, the sorted audit gaps, and
the partial-forcing gap of a chain stopped at b2 (the detector's path,
where the gap reads the b2 stage's forcing and cubic at B1).  A point
that raises gets its exception class and message instead.  The points
(mu in [0.001, 0.037], both branches, every other one drag-free) come
from a fixed seed, so two snapshots that compare equal mean the chain
computed the same values, bit for bit and in the same order.  The package
is imported from whatever `PYTHONPATH` names, so one tree can be compared
with another:

    PYTHONPATH=old/src python scripts/chain_snapshot.py old.txt
    PYTHONPATH=src python scripts/chain_snapshot.py new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import random
import sys

from l4norm.model import ModelParams
from l4norm.verify import (
    PipelineOptions,
    audit,
    partial_forcing_gap,
    run_pipeline,
)

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


def h3_values(h3):
    return ([float(a) for a in (h3.A30, h3.A21, h3.A12, h3.A03)],
            series_terms(h3.series), float(h3.h2_residual))


def chain_record(mu, epsilon, a2, cd, branch):
    """Every value the chain and the audit compute at one point."""
    p = ModelParams(mu=mu, q1=1.0 - epsilon, A2=a2, cd=cd)
    options = PipelineOptions(branch=branch)
    res = run_pipeline(p, options)
    at_b2 = run_pipeline(p, options, stages=("b2",))
    efg, w, b2 = res.efg, res.freq, res.b2
    return (
        ("taylor", [(m, float(c)) for m, c in res.lagrangian_poly.coeffs.items()]),
        ("efg", (float(efg.E), float(efg.F), float(efg.G))),
        ("freq", (float(w.omega1), float(w.omega2))),
        ("J", [float(v).hex() for v in res.nm.J.ravel()]),
        ("x2", series_terms(res.x2)),
        ("y2", series_terms(res.y2)),
        ("b2", series_terms(b2.b2x), series_terms(b2.b2y),
         float(b2.residual_x), float(b2.residual_y)),
        ("h3", h3_values(res.h3)),
        ("ablation", h3_values(res.h3_ablation)),
        ("gates", sorted(res.gates().items())),
        ("audit", sorted((k, float(v)) for k, v in audit(res).gaps.items())),
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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: chain_snapshot.py OUTPUT", file=sys.stderr)
        return 2
    with open(args[0], "w", encoding="utf-8", newline="\n") as handle:
        handle.write(snapshot(random_points(POINTS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
