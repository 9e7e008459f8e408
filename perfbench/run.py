"""The l4norm benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chain-h3 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Workloads (see gen.py for the inputs):

* chain-h3      -- `l4norm.run_pipeline` with all five stages at one
                   random point per op; d'Alembert and normal-form layers.
* verify-report -- `l4norm verify --stages h3` in-process over real mass
                   ratios; verify, errata and repeated-mu work.
* sweep-b1      -- `l4norm sweep --stages b1` over a seeded mu range;
                   Newton, Taylor composition, eig and CSV writing.

A run attempts a fixed, seeded number of points, about `--seconds` of
work at the seed commit's speed (worker.py), so `attempted` and `failed`
repeat exactly for a given seed.

With `--trace 0` the last line carries the end-to-end metrics:

* setup_s         -- import l4norm in a fresh interpreter and finish one
                     warm-up op; median over SETUP_REPEATS interpreters;
* points_per_s    -- parameter points attempted per second of op time,
                     the median over the run's input blocks;
* latency_p50_ms  -- median op latency over ops that complete;
* latency_tail_ms -- a high percentile of the same (printed beside it);
* answered_share  -- points that end ok or refused, over points
                     attempted: 1 - failed_share, which is printed too;
* peak_rss_mib    -- peak resident memory of the measuring process.

Every time is rescaled by a reference kernel timed next to it (calib.py),
because the speed of a shared host drifts by up to a factor of two for
minutes at a time; the unscaled figures are printed as well.

With `--trace 1` it carries the per-layer metrics of a traced run (see
spans.py and worker.py), and the spans are written under perfbench/out/.

This runner starts every interpreter itself, with BLAS and OpenMP pinned
to one thread, and waits for each to end.  The exit code is 0 when every
output check passed, 1 when one failed (the result line then says
"correct": false), and 2 without a result line when the run could not be
made, for instance without an l4norm source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
# The whole run, children included, ends within this many seconds.
RUN_BUDGET_S = 170.0

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, deadline: float) -> tuple:
    """Run worker.py to completion; (stdout lines, parsed last line).

    A child still running at the deadline is killed and waited for."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0), check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain-h3", "verify-report", "sweep-b1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(SRC, "l4norm", "__init__.py")):
        print(f"no l4norm source tree under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--src", SRC, "--out", OUT]
    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"threads {' '.join(f'{n}=1' for n in PINNED_THREADS)}")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                _, result = run_child([*common, "--setup-only"], deadline)
                setups.append(result["metrics"]["setup_s"]["value"])
        lines, result = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if setups:
        print(f"setup_s runs {' '.join(f'{s:.4f}' for s in setups)}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
