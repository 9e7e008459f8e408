"""`scripts/bench_pairs.py` summarises a record of alternating runs into
the verdict on a claimed gain, with no benchmark run: ``claim_met`` holds
only when the change wins at least 9 in 10 pairs, the medians differ by
more than the parent's interquartile range, the change fails no more
points per run than the parent, and every run on both sides checked its
outputs correct; the summary counts each side's incorrect runs and prints
one line per key and metric."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
DIRECTIONS = {"points_per_s": "higher", "latency_p50_ms": "lower"}


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(rates, latencies=None, failed=0):
    latencies = latencies or [1.0] * len(rates)
    return [{"attempted": 100, "failed": failed, "correct": True,
             "metrics": {"points_per_s": r, "latency_p50_ms": t, "setup_s": 0.1}}
            for r, t in zip(rates, latencies)]


def summarised(parent, change):
    record = {"runs": {"sweep-b1/seed1/15s/trace0": {"parent": parent,
                                                     "change": change}}}
    return load().summarise(record, DIRECTIONS)


def summary(parent, change):
    (entry,) = summarised(parent, change).values()
    return entry["metrics"]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


def test_a_clear_gain_meets_the_claim():
    metrics = summary(runs(PARENT), runs([r + 6.0 for r in PARENT]))
    row = metrics["points_per_s"]
    assert row["wins"] == row["pairs"] == 10 and row["claim_met"] is True
    # an unchanged metric with a direction holds no claim; one without none
    assert metrics["latency_p50_ms"]["claim_met"] is False
    assert "claim_met" not in metrics["setup_s"]


def test_eight_of_ten_pairs_fall_short():
    change = [r + 6.0 for r in PARENT]
    change[3] = change[7] = 90.0
    row = summary(runs(PARENT), runs(change))["points_per_s"]
    assert row["wins"] == 8 and row["claim_met"] is False


def test_a_median_shift_inside_the_parent_iqr_falls_short():
    change = [r + 0.6 for r in PARENT]
    row = summary(runs(PARENT), runs(change))["points_per_s"]
    assert row["wins"] == 10 and row["parent"]["iqr"] > 0.6
    assert row["claim_met"] is False


def test_more_failed_points_fall_short():
    change = [r + 6.0 for r in PARENT]
    row = summary(runs(PARENT, failed=2), runs(change, failed=3))["points_per_s"]
    assert row["wins"] == 10 and row["claim_met"] is False
    row = summary(runs(PARENT, failed=3), runs(change, failed=2))["points_per_s"]
    assert row["claim_met"] is True


def test_lower_is_better_and_a_single_run_side():
    # one parent run: its IQR is 0 and one pair is compared
    metrics = summary(runs([100.0], [2.0]), runs([101.0, 99.0, 102.0], [1.0, 1.2, 0.9]))
    row = metrics["latency_p50_ms"]
    assert row["pairs"] == 1 and row["parent"]["iqr"] == 0.0
    assert row["wins"] == 1 and row["claim_met"] is True
    assert metrics["points_per_s"]["claim_met"] is True  # 101 > 100, and median 101


def test_an_incorrect_run_on_either_side_falls_short():
    for side in ("parent", "change"):
        sides = {"parent": runs(PARENT), "change": runs([r + 6.0 for r in PARENT])}
        sides[side][4]["correct"] = False
        del sides[side][7]["correct"]  # a run with no check counts as incorrect
        (entry,) = summarised(sides["parent"], sides["change"]).values()
        row = entry["metrics"]["points_per_s"]
        assert row["wins"] == 10 and row["claim_met"] is False
        assert entry["incorrect"] == {"parent": 0, "change": 0, side: 2}


def test_one_summary_line_per_key_and_metric():
    lines = load().summary_lines(summarised(runs(PARENT), runs([r + 6.0 for r in PARENT])))
    key = "sweep-b1/seed1/15s/trace0"
    assert lines == [
        f"{key} incorrect runs: parent 0, change 0",
        f"{key} latency_p50_ms: 1 -> 1 (+0.0%), 0 of 10 pairs won, claim_met False",
        f"{key} points_per_s: 100 -> 106 (+6.0%), 10 of 10 pairs won, claim_met True",
        f"{key} setup_s: 0.1 -> 0.1 (+0.0%)"]
