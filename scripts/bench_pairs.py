"""Run perfbench on two source checkouts in alternating pairs and record
every run in one JSON file.

    python scripts/bench_pairs.py --parent OLD --change NEW \\
        --workload verify-report --seed 1 --pairs 10 --seconds 15 \\
        --record BENCH.json

OLD and NEW are checkouts (`git archive` or `git clone`) whose own
`perfbench/run.py` is run from their root, so both sides run the benchmark
code they carry.  Pair i runs the parent first when i is even and the
change first when it is odd (a run's ``order`` is 0 where the parent ran
first).  Each run's result line is appended to the record under ``runs``,
keyed by workload, seed, run length, trace flag and side; then ``summary``
is recomputed for every key with both sides: per metric, each side's
median and quartiles, and for each metric that the change's
`BENCHMARK.json` lists, the pairs the change wins by the metric's
direction (ties count for neither) and ``claim_met``: whether the change
wins at least 9 in 10 of the pairs, the medians differ by more than the
parent's interquartile range, the change fails no more points per run
than the parent, and every run on both sides checked its outputs
correct.  The summary counts each side's incorrect runs, and one line
per key and metric is printed at the end.  `--pairs 0` only recomputes
the summary.  The
record also holds both checkouts' git revisions when given
(`--revisions`), the interpreter's version, whether
`PYTHONDONTWRITEBYTECODE` was set, and each command run.  Runs go one at
a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(command)} in {root} exited {proc.returncode}")
    result = json.loads(lines[-1])
    return {"exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def claim_met(row: dict, failed: dict, incorrect: dict) -> bool:
    """A claimed gain holds: 9 in 10 pairs won, the median moved by more than
    the parent's IQR, no more failed points per run than the parent, and no
    incorrect run on either side."""
    moved = abs(row["change"]["median"] - row["parent"]["median"])
    return (row["wins"] >= 0.9 * row["pairs"] and moved > row["parent"]["iqr"]
            and statistics.mean(failed["change"]) <= statistics.mean(failed["parent"])
            and not any(incorrect.values()))


def summarise(record: dict, directions: dict) -> dict:
    out = {}
    for key, sides in record["runs"].items():
        parent, change = sides.get("parent", []), sides.get("change", [])
        if not parent or not change:
            continue
        failed = {"parent": [r["failed"] for r in parent],
                  "change": [r["failed"] for r in change]}
        # a run whose outputs were not checked correct counts as incorrect
        incorrect = {"parent": sum(r.get("correct") is not True for r in parent),
                     "change": sum(r.get("correct") is not True for r in change)}
        rows = {}
        for name in parent[0]["metrics"]:
            old = [run["metrics"][name] for run in parent]
            new = [run["metrics"][name] for run in change]
            row = {}
            for side, values in (("parent", old), ("change", new)):
                q1, median, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
                row[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
            better = directions.get(name)
            if better:
                pairs = list(zip(old, new))
                row["wins"] = sum((b > a) if better == "higher" else (b < a)
                                  for a, b in pairs)
                row["pairs"] = len(pairs)
                row["claim_met"] = claim_met(row, failed, incorrect)
            if row["parent"]["median"]:
                row["change_vs_parent"] = row["change"]["median"] / row["parent"]["median"] - 1.0
            rows[name] = row
        out[key] = {"attempted": sorted({r["attempted"] for r in parent + change}),
                    "failed": failed, "incorrect": incorrect, "metrics": rows}
    return out


def summary_lines(summary: dict) -> list:
    """Per key, a line counting each side's incorrect runs, then one line
    per metric: the medians, their change, and for a metric with a
    direction the pairs won and ``claim_met``."""
    lines = []
    for key, entry in sorted(summary.items()):
        incorrect = entry["incorrect"]
        lines.append(f"{key} incorrect runs: parent {incorrect['parent']}, "
                     f"change {incorrect['change']}")
        for name, row in sorted(entry["metrics"].items()):
            line = (f"{key} {name}: {row['parent']['median']:.6g} -> "
                    f"{row['change']['median']:.6g}")
            if "change_vs_parent" in row:
                line += f" ({row['change_vs_parent']:+.1%})"
            if "wins" in row:
                line += f", {row['wins']} of {row['pairs']} pairs won, claim_met {row['claim_met']}"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--revisions", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--record", required=True)
    args = parser.parse_args(argv)

    record = {"runs": {}, "commands": []}
    if os.path.exists(args.record):
        with open(args.record, encoding="utf-8") as handle:
            record = json.load(handle)
    record.update({
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs"})
    if args.revisions:
        record["revisions"] = dict(zip(("parent", "change"), args.revisions))
    record["commands"].append(" ".join(["python", "scripts/bench_pairs.py",
                                        *(argv if argv is not None else sys.argv[1:])]))
    key = f"{args.workload}/seed{args.seed}/{args.seconds:g}s/trace{args.trace}"
    runs = record["runs"].setdefault(key, {"parent": [], "change": []})
    roots = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run_once(roots[side], args.workload, args.seed, args.seconds,
                              args.trace)
            result["pair"], result["order"] = len(runs[side]), i % 2
            runs[side].append(result)
            print(key, side, len(runs[side]), json.dumps(result["metrics"]), flush=True)
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    directions = {m["name"]: m["better"]
                  for m in declared["end_to_end"] + declared["per_layer"]}
    record["summary"] = summarise(record, directions)
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("\n".join(summary_lines(record["summary"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
