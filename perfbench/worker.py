"""Measuring process, started by run.py; prints one JSON object last.

    worker.py --workload W --seed N --src DIR --out DIR --setup-only
    worker.py --workload W --seed N --src DIR --out DIR --seconds S --trace 0|1

The set-up phase imports l4norm and finishes one warm-up op; its time is
`setup_s`.  Then the workload runs as a closed loop: one caller, one
thread, the next op sent only after the previous one returned.

* trace 0: a fixed prefix of the op stream, sized from `--seconds` (see
  NOMINAL_POINTS_PER_S), runs once and the end-to-end metrics are
  reported.  The work, and so every outcome count, is a function of the
  seed alone; a faster program finishes it sooner.
* trace 1: a fixed prefix of the op stream runs twice, untraced and then
  traced, so every per-layer count repeats exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

# Nothing here imports numpy or l4norm at module level: their import time
# belongs to setup_s, which main() starts timing before importing them.
import calib
import gen

# Warm-up ops after set-up and before anything is timed.
WARMUP_OPS = 3

# Fixed tail percentile per workload, with at least ten completed ops
# beyond it.  It is lower than the highest percentile that keeps ten
# beyond, because the cost of a chain-h3 or sweep-b1 op hardly depends on
# its inputs (within 25% of the median on chain-h3, all drag sweeps alike
# on sweep-b1), so above some percentile a shared host's noise, not the
# program, decides the value: p98 of one chain-h3 seed moved by 10% from
# run to run, and over 15-second spans of one repeated sweep op p90
# spread by 5 to 12% and p75 by 3 to 4%.  A faster program keeps the same
# percentile, so runs of two commits stay comparable; a run with fewer
# samples steps down the ladder and says so.
TAIL_PERCENTILE = {"chain-h3": 95.0, "verify-report": 75.0, "sweep-b1": 75.0}
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Points a run attempts per second of `--seconds`: the seed commit's
# rescaled throughput (see calib.py), so one run takes about `--seconds`
# there; verify-report gets 1.4 times its throughput, because only 3 in
# 10 of its ops complete and its latencies need about 60 of them.  The work is fixed rather than the
# time, because the workloads fail on known defects at a fixed share of
# their inputs, and a run that stopped on the clock would count a
# different number of them each time.
NOMINAL_POINTS_PER_S = {"chain-h3": 70.0, "verify-report": 14.0,
                        "sweep-b1": 400.0}
# On a host that stays far slower than nominal, no new block starts once
# this many times `--seconds` have passed, so the run still ends in time.
SLOW_HOST_STOP = 3.0

# Blocks run in the traced pass (fixed work, so counts repeat exactly).
TRACE_BLOCKS = {"chain-h3": 12, "verify-report": 4, "sweep-b1": 8}

UNITS = {"points_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    return "count"


def emit(correct: bool, attempted: int, failed: int, metrics: dict):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))


def tail(latencies: list, workload: str):
    """(value, percentile, samples beyond it) by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    wanted = TAIL_PERCENTILE[workload]
    for p in TAIL_LADDER:
        if p > wanted:
            continue
        rank = max(math.ceil(p / 100.0 * n), 1)
        if n - rank >= TAIL_MIN_BEYOND or p == TAIL_LADDER[-1]:
            return ordered[rank - 1], p, n - rank
    raise AssertionError("unreachable")


def mu_repeat_share(op_list: list) -> float:
    """Share of ops whose mu (any grid mu, for a sweep) was seen before."""
    seen, repeats = set(), 0
    for op in op_list:
        mus = gen.mus_of(op)
        repeats += any(mu in seen for mu in mus)
        seen.update(mus)
    return repeats / len(op_list)


class Tally:
    """Ops run so far with their results and a reference time after each."""

    def __init__(self):
        self.ops, self.results, self.reference = [], [], []
        self.block_ends = []

    def add(self, op, result):
        self.ops.append(op)
        self.results.append(result)
        self.reference.append(calib.reference_ms())

    def outcome(self, kind: str) -> int:
        return sum(r.outcomes.count(kind) for r in self.results)

    @property
    def attempted(self) -> int:
        return sum(gen.points_of(op) for op in self.ops)

    def seconds(self) -> list:
        """Op times rescaled to the reference speed (see calib.py)."""
        return [r.seconds * f for r, f in
                zip(self.results, calib.factors(self.reference))]

    def points_per_s(self) -> float:
        return self.attempted / sum(self.seconds())

    def block_rates(self) -> list:
        seconds, rates, begin = self.seconds(), [], 0
        for end in self.block_ends:
            points = sum(gen.points_of(op) for op in self.ops[begin:end])
            rates.append(points / sum(seconds[begin:end]))
            begin = end
        return rates

    @property
    def problems(self) -> list:
        return [p for r in self.results for p in r.problems]

    def failure_kinds(self) -> dict:
        kinds = {}
        for r in self.results:
            if "failed" in r.outcomes:
                kinds[r.detail] = kinds.get(r.detail, 0) + 1
        return kinds


def run_ops(runner, op_list, workdir, tally, measure_for=None):
    for i, op in enumerate(op_list):
        if measure_for is None:
            tally.add(op, runner(op, workdir))
        else:
            tally.add(op, runner(op, workdir, measure_for(i)))


def timed_phase(args, runner, workdir):
    tally = Tally()
    stream = gen.blocks(args.workload, args.seed)
    target = math.ceil(args.seconds * NOMINAL_POINTS_PER_S[args.workload])
    start = time.perf_counter()
    while tally.attempted < target:
        if time.perf_counter() - start > SLOW_HOST_STOP * args.seconds:
            print(f"stopped early: {tally.attempted} of {target} points after "
                  f"{SLOW_HOST_STOP:g} x {args.seconds:g} s")
            break
        run_ops(runner, next(stream), workdir, tally)
        tally.block_ends.append(len(tally.ops))
    seconds = tally.seconds()
    latencies = [t * 1e3 for t, r in zip(seconds, tally.results) if r.completed]
    if not latencies:
        sys.exit(f"no op completed in {len(tally.ops)} attempts")
    failed = tally.outcome("failed")
    value, pct, beyond = tail(latencies, args.workload)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "points_per_s": statistics.median(tally.block_rates()),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": value,
        "answered_share": 1.0 - failed / tally.attempted,
        "peak_rss_mib": rss_mib,
    }
    raw = [r.seconds * 1e3 for r in tally.results if r.completed]
    print(f"ops {len(tally.ops)} points {tally.attempted} blocks "
          f"{len(tally.block_ends)} wall_s {time.perf_counter() - start:.3f}")
    print(f"reference_ms median {statistics.median(tally.reference):.4g} "
          f"min {min(tally.reference):.4g} max {max(tally.reference):.4g}; "
          f"unscaled points_per_s "
          f"{tally.attempted / sum(r.seconds for r in tally.results):.6g} "
          f"latency_p50_ms {statistics.median(raw):.6g}")
    print(f"latency_tail_ms is p{pct:g} of {len(latencies)} completed ops, "
          f"{beyond} beyond it")
    print(f"outcomes ok {tally.outcome('ok')} refused "
          f"{tally.outcome('refused')} failed {failed} of {tally.attempted} "
          f"points; failed_share {failed / tally.attempted:.6g}")
    print(f"failures by kind {json.dumps(tally.failure_kinds(), sort_keys=True)}")
    print(f"mu_repeat_share {mu_repeat_share(tally.ops):.6g}")
    return tally, metrics


def traced_phase(args, runner, workdir):
    import spans

    stream = gen.blocks(args.workload, args.seed)
    op_list = [op for _ in range(TRACE_BLOCKS[args.workload])
               for op in next(stream)]
    plain = Tally()
    run_ops(runner, op_list, workdir, plain)
    tracer = spans.Tracer()
    tally = Tally()
    run_ops(runner, op_list, workdir, tally,
            measure_for=lambda i: lambda out: tracer.measuring(i, out))
    metrics = layer_metrics(tracer, tally)
    metrics["trace.overhead_share"] = tally.points_per_s() / plain.points_per_s()
    metrics["workload.mu_repeat_share"] = mu_repeat_share(op_list)
    path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.npz")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "ops": len(op_list), "counts": tracer.counts,
                        "outcomes": [r.outcomes for r in tally.results]})
    print(f"spans {len(tracer.name)} written to {os.path.relpath(path)}")
    print(f"traced ops {len(op_list)}; per op:")
    for name, value in metrics.items():
        if unit_of(name) in ("ms", "count") and not name.startswith(
                ("outcome.", "trace.ops")) and not name.endswith("per_ok_op"):
            print(f"  {name} {value / len(op_list):.6g}")
    return tally, metrics


def layer_metrics(tracer, tally) -> dict:
    import numpy as np

    name, dur, self_ms, op = tracer.arrays()
    ids = tracer.ids

    def select(layer):
        return name == ids[layer] if layer in ids else np.zeros(len(name), bool)

    def calls(layer):
        return int(select(layer).sum())

    def ms(layer):
        return float(dur[select(layer)].sum())

    def self_time(layer):
        return float(self_ms[select(layer)].sum())

    ok_ops = [i for i, r in enumerate(tally.results)
              if r.outcomes and all(o == "ok" for o in r.outcomes)]

    def calls_per_ok_op(layer):
        if not ok_ops:
            return 0.0
        return float(np.isin(op[select(layer)], ok_ops).sum()) / len(ok_ops)

    counts = tracer.counts
    out_terms = counts["dalembert.series_mul.out_terms"]
    return {
        "cli.main.calls": calls("cli.main"),
        "cli.self_ms": self_time("cli.main"),
        "verify.run_pipeline.calls": calls("verify.run_pipeline"),
        "verify.run_pipeline.calls_per_ok_op":
            calls_per_ok_op("verify.run_pipeline"),
        "verify.run_pipeline.self_ms": self_time("verify.run_pipeline"),
        "verify.detect_discrepancies.ms": ms("verify.detect_discrepancies"),
        "verify.render_report.ms": ms("verify.render_report"),
        "errata.classify_remainder.calls": calls("errata.classify_remainder"),
        "equilibria.newton.ms": ms("equilibria.newton"),
        "equilibria.force_evals": counts["equilibria.force_evals"],
        "equilibria.series.ms": ms("equilibria.series"),
        "polyalg.taylor_lagrangian.calls": calls("polyalg.taylor_lagrangian"),
        "polyalg.taylor_lagrangian.ms": ms("polyalg.taylor_lagrangian"),
        "polyalg.poly_mul.calls": calls("polyalg.poly_mul"),
        "polyalg.poly_mul.pairs": counts["polyalg.poly_mul.pairs"],
        "polyalg.poly_mul.self_ms": self_time("polyalg.poly_mul"),
        "polyalg.cubic_audit.ms": ms("polyalg.cubic_audit"),
        "dalembert.series_mul.calls": calls("dalembert.series_mul"),
        "dalembert.series_mul.pairs": counts["dalembert.series_mul.pairs"],
        "dalembert.series_mul.self_ms": self_time("dalembert.series_mul"),
        "dalembert.series_mul.over_cap_share":
            counts["dalembert.series_mul.over_cap_terms"] / out_terms
            if out_terms else 0.0,
        "dalembert.invert_delta.ms": ms("dalembert.invert_delta"),
        "dalembert.apply_D.ms": ms("dalembert.apply_D"),
        "dalembert.apply_poly_in_D.ms": ms("dalembert.apply_poly_in_D"),
        "dalembert.moser_check.ms": ms("dalembert.moser_check"),
        "normalform.frequencies.ms": ms("normalform.frequencies"),
        "normalform.j_numeric.ms": ms("normalform.j_numeric"),
        "normalform.forcing_x2y2.ms": ms("normalform.forcing_x2y2"),
        "normalform.solve_second_order_oracle.calls":
            calls("normalform.solve_second_order_oracle"),
        "normalform.solve_second_order_oracle.ms":
            ms("normalform.solve_second_order_oracle"),
        "normalform.h3_normal_coefficients.calls":
            calls("normalform.h3_normal_coefficients"),
        "normalform.h3_normal_coefficients.calls_per_ok_op":
            calls_per_ok_op("normalform.h3_normal_coefficients"),
        "normalform.h3_normal_coefficients.self_ms":
            self_time("normalform.h3_normal_coefficients"),
        "normalform.poly_at_series.calls": calls("normalform.poly_at_series"),
        "normalform.poly_at_series.self_ms":
            self_time("normalform.poly_at_series"),
        "closedforms.ms": ms("closedforms"),
        "outcome.ok": tally.outcome("ok"),
        "outcome.refused": tally.outcome("refused"),
        "outcome.failed": tally.outcome("failed"),
        "trace.ops": len(tally.ops),
        "trace.unattributed_ms": self_time("op"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import l4norm
    import l4norm.cli
    if os.path.dirname(os.path.abspath(l4norm.__file__)) != \
            os.path.join(os.path.abspath(args.src), "l4norm"):
        sys.exit(f"imported l4norm from {l4norm.__file__}, not from {args.src}")
    import ops

    runner = ops.RUNNERS[args.workload]
    workdir = tempfile.mkdtemp(prefix="ops-", dir=args.out)
    try:
        setup_op = gen.setup_op(args.workload)
        first = runner(setup_op, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            reference = statistics.median(
                calib.reference_ms() for _ in range(calib.WINDOW))
            print(f"setup_s unscaled {setup_s!r} reference_ms {reference!r}")
            emit(not first.problems, gen.points_of(setup_op),
                 first.outcomes.count("failed"),
                 {"setup_s": setup_s * calib.REFERENCE_MS / reference})
            return
        import numpy
        print(f"python {platform.python_version()} numpy {numpy.__version__} "
              f"cpu {cpu_model()!r} nproc {os.cpu_count()}")
        for op in gen.warmup_ops(args.workload, args.seed, WARMUP_OPS):
            runner(op, workdir)
        phase = traced_phase if args.trace else timed_phase
        tally, metrics = phase(args, runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    emit(not tally.problems, tally.attempted, tally.outcome("failed"), metrics)


if __name__ == "__main__":
    main()
