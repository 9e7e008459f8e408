"""The report as one `%` template per shape: the floats it writes with
`%.17g` read as `fmt` writes them, the header keeps `fmt`'s rules, and a
report's bytes do not depend on what the process rendered before it."""

import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from l4norm import layout
from l4norm.cli import main
from l4norm.layout import plan
from l4norm.model import ModelParams
from l4norm.verify import fmt, render_report, report_audit, run_pipeline

SRC = Path(layout.__file__).resolve().parents[1]


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
