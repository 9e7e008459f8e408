"""The report as one `%` template per shape: the floats it writes with
`%.17g` read as `fmt` writes them, the header keeps `fmt`'s rules, every
cell prints its own value, the report is the bytes that
`oracles.render_report_by_fields` writes field by field, a report's bytes
do not depend on what the process rendered before it, and every command's
`--out` file holds the bytes the command prints without it."""

import contextlib
import importlib
import io
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from l4norm import layout, verify
from l4norm.cli import EXIT_CONFIG, main
from l4norm.dalembert import FrequencyPair, MoserReport
from l4norm.equilibria import EquilibriumPoint
from l4norm.layout import plan
from l4norm.model import ModelParams
from l4norm.verify import (PipelineOptions, detect_discrepancies, fmt, render_report,
                           report_audit, run_pipeline)
from oracles import render_report_by_fields

SRC = Path(layout.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-2.225073858507201e-308)
@example(1e16)
@example(1e17)
def test_a_float_in_the_template_reads_as_fmt_writes_it(x):
    assert "%.17g" % x == fmt(x)


def test_the_header_keeps_fmt_for_ints():
    # a library caller may pass ints; the header prints them as `fmt` does
    res = run_pipeline(ModelParams(mu=0.01, q1=1, A2=0, cd=10**20))
    lines = render_report(res, report_audit(res), res.gates()).splitlines()
    assert "q1: 1" in lines and "cd: 100000000000000000000" in lines


def same_as_by_fields(res, verdicts=None) -> str:
    printed, gates = report_audit(res), res.gates()
    text = render_report(res, printed, gates, verdicts)
    assert text == render_report_by_fields(res, printed, gates, verdicts)
    return text


@pytest.mark.parametrize("branch", ["L4", "L5"])
def test_the_report_with_verdicts_matches_the_field_by_field_path(monkeypatch, branch):
    # at the mass ratios of the verify-report workload, with the verdicts
    # the report prints
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    options = PipelineOptions(branch=branch)
    for _, mu in gen.MASS_RATIOS:
        res = run_pipeline(ModelParams(mu=mu, q1=0.9995, A2=2e-5, cd=12.0), options)
        verdicts = detect_discrepancies(mu, options)
        assert "\n[series-vs-oracle]\n" in same_as_by_fields(res, verdicts)


def test_the_reports_off_the_common_path_match_the_field_by_field_path():
    # the golden point whose printed series leaves its domain, with its nan
    # row; int and bool header and tolerance fields; and a bound that
    # leaves every H3 term in the listing
    outside = run_pipeline(ModelParams(mu=0.002552385680036853, q1=1 - 0.007387079964007413,
                                       A2=0.0004271000842634082, cd=1.0924737782103944),
                           PipelineOptions(branch="L5"))
    text = same_as_by_fields(outside, detect_discrepancies(outside.params.mu, outside.options))
    assert "series.outside_domain: " in text and "\nseries,nan,nan,nan,nan\n" in text
    ints = PipelineOptions(residual_tol=1, linear_tol=1, h3_tol_factor=1, moser_tol=1e-3)
    for p in (ModelParams(mu=0.01, q1=1, A2=0, cd=10**20), ModelParams(mu=0.01, cd=True)):
        for stage in ("equilibria", "b1", "h3"):
            text = same_as_by_fields(run_pipeline(p, ints, stages=(stage,)))
            assert "tol.residual: 1\n" in text
    assert "cd: pass\n" in text
    res = run_pipeline(ModelParams(mu=0.01), PipelineOptions(h3_tol_factor=1e-30))
    text = same_as_by_fields(res, detect_discrepancies(0.01, res.options))
    assert "h3_series_above_h3_factor_x_scale:\n  I1^" in text


def test_each_cell_prints_its_own_value():
    # distinct values in every header field, [equilibria] cell and
    # [frequencies] line, and gates that alternate: each prints in its own
    # place, so a swap of two placeholders fails here
    res = run_pipeline(ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0), stages=("b1",))
    printed = report_audit(res)
    cells = iter(k + 0.5 for k in range(1, 40))
    header = {key: next(cells) for key in verify.HEADER}
    res.params = SimpleNamespace(**header)
    res.options = PipelineOptions("L5", *(next(cells) * 1e-9 for _ in range(5)))
    points = [(next(cells), next(cells), next(cells)) for _ in range(3)]
    res.eq_numeric = EquilibriumPoint(*points[0][:2], "L5", "numeric", points[0][2])
    printed.eq_series = EquilibriumPoint(*points[1][:2], "L5", "series", points[1][2])
    printed.eq_epsform = EquilibriumPoint(*points[2][:2], "L5", "epsilon-form",
                                          points[2][2])
    printed.eq_gaps = next(cells), next(cells)
    omega2 = next(cells)
    res.freq = FrequencyPair(next(cells), omega2)
    res.moser = MoserReport(next(cells), (-3, 2), False)
    gates = {"first": True, "second": False, "third": True, "fourth": False}

    text = render_report(res, printed, gates)
    head, _, rest = text.partition("\n\n[equilibria]\n")
    assert head.splitlines() == [
        "# verification report", *(f"{key}: {fmt(value)}" for key, value in header.items()),
        "branch: L5", "stages: equilibria,taylor,b1",
        *(f"tol.{name}: {fmt(getattr(res.options, field))}"
          for name, field in verify.TOLERANCES.items()),
        "gate.first: pass", "gate.second: FAIL", "gate.third: pass", "gate.fourth: FAIL"]
    block, _, rest = rest.partition("\n\n[frequencies]\n")
    gaps = (0.0, *printed.eq_gaps)
    assert block.splitlines() == ["method,x,y,residual,gap_vs_numeric", *(
        f"{method},{fmt(x)},{fmt(y)},{fmt(residual)},{fmt(gap)}"
        for method, (x, y, residual), gap in zip(
            ("numeric", "series", "epsilon-form"), points, gaps))]
    # the equilibria command prints the same rows
    assert verify.EQUILIBRIA_CSV % verify.equilibria_values(res, printed) == block
    lines = rest.partition("\n\n[normal-modes]\n")[0]
    assert lines.splitlines() == [
        f"omega1: {fmt(res.freq.omega1)}", f"omega2: {fmt(res.freq.omega2)}",
        f"moser.min_combination: {fmt(res.moser.min_combination)}",
        "moser.worst_pair: -3,2", "moser.passed: FAIL"]
    assert verify.FREQUENCY_LINES % verify.frequency_values(res.freq, res.moser) == lines


DRAG = ("--epsilon", "0.001", "--a2", "1e-4", "--cd", "20")
# Both branches, with and without drag, at each stage that prints a new
# block; the golden point whose printed series leaves its domain; and a
# bound that leaves every H3 term in the listing.
REPORTS = [
    ("verify", "--mu", "0.01", *drag, "--branch", branch, "--stages", stage)
    for branch in ("L4", "L5") for drag in ((), DRAG) for stage in ("b1", "b2", "h3")
] + [
    ("verify", "--mu", "0.002552385680036853", "--epsilon", "0.007387079964007413",
     "--a2", "0.0004271000842634082", "--cd", "1.0924737782103944", "--branch", "L5"),
    ("verify", "--mu", "0.01", "--stages", "h3", "--tol", "h3_factor=1e-30"),
]


def in_process(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def fresh(argv) -> tuple:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from l4norm.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(SRC), *argv],
                         capture_output=True, text=True, check=False)
    return run.returncode, run.stdout


def test_a_report_is_the_same_bytes_whatever_ran_before_it():
    forward = {argv: in_process(argv) for argv in REPORTS}
    backward = {argv: in_process(argv) for argv in reversed(REPORTS)}
    for argv in REPORTS:
        assert forward[argv] == backward[argv] == fresh(argv), argv
    assert "series.outside_domain: " in forward[REPORTS[-2]][1]
    assert "h3_series_above_h3_factor_x_scale:\n  I1^" in forward[REPORTS[-1]][1]
    # every plan a report reads is made on its first shape
    misses = plan.cache_info().misses
    for argv in REPORTS:
        in_process(argv)
    assert plan.cache_info().misses == misses


DRAG_AT_B1 = ("--mu", "0.01", *DRAG)
# Each command, and the suffix of the file its --out writes.
COMMANDS = [
    (("equilibria", *DRAG_AT_B1), "equilibria.csv"),
    (("frequencies", *DRAG_AT_B1), "frequencies.txt"),
    (("verify", *DRAG_AT_B1, "--stages", "h3"), "verify.txt"),
    (("verify", *DRAG_AT_B1, "--stages", "h3", "--format", "csv"), "verify.csv"),
    (("resonance-scan", "--mu-min", "0.001", "--mu-max", "0.05", "--steps", "7"),
     "resonance-scan.csv"),
    (("sweep", "--mu-min", "0.01", "--mu-max", "0.012", "--steps", "3", *DRAG,
      "--stages", "b2"), "sweep.csv"),
]


def with_stderr(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, suffix", COMMANDS,
                         ids=[suffix for _, suffix in COMMANDS])
def test_the_out_file_holds_the_printed_bytes(tmp_path, argv, suffix):
    code, printed, err = with_stderr(argv)
    path = tmp_path / f"run-{suffix}"
    path.write_bytes(b"x" * 3 * len(printed))  # a longer file is truncated
    out = with_stderr([*argv, "--out", str(tmp_path / "run")])
    assert out == (code, f"{path}\n", err)
    assert path.read_bytes() == printed.encode("utf-8")
    # an --out the command cannot write exits 2 with open's own error
    missing = tmp_path / "missing" / "run"
    with pytest.raises(OSError) as refused:
        open(f"{missing}-{suffix}", "w", encoding="utf-8")
    assert with_stderr([*argv, "--out", str(missing)]) == (
        EXIT_CONFIG, "", f"error: {refused.value}\n")
