"""One operation per workload, its outcome, and the check of its output.

Outcomes follow the README's exit-code contract:

* ok      -- every gate passes, or exit 0;
* refused -- a typed domain error (ResonanceError, SmallDivisorError,
             StabilityDomainError, CriticalTermError), as an exception,
             exit 4 or a sweep row: a correct answer for that input;
* failed  -- anything else: exit 2 or 3, ConvergenceError or
             ParameterError in the chain, a failed gate, a FAIL row or
             another error row in a sweep, an untyped exception.

Every output is checked, so that a fast wrong result never passes as a
fast right one.  Two kinds of finding:

* a wrong answer at a point (the benchmark's own force field says the
  equilibrium is not a root or lies on the other branch, a discrepancy
  the registry does not cover): the point counts as failed;
* an output that breaks the program's own contract (exit code against
  the report's gate lines, a sweep CSV with a missing or malformed row, a
  sweep row that the scalar library path contradicts): the point counts
  as failed and the run is marked incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time

import l4norm
import l4norm.cli
from l4norm import errata, errors, verify

from gen import Point, Sweep

OK, REFUSED, FAILED = "ok", "refused", "failed"

DOMAIN_ERRORS = (errors.ResonanceError, errors.SmallDivisorError,
                 errors.StabilityDomainError, errors.CriticalTermError)
DOMAIN_NAMES = frozenset(cls.__name__ for cls in DOMAIN_ERRORS)

SWEEP_HEADER = "mu,omega1,omega2,b1_residual,b2_residual,h3_max,scale,gates"

# Independent equilibrium check: the benchmark's own force field.
EQ_RESIDUAL_MAX = 1e-10
# A batched or vectorised sweep may differ from the scalar path by round-off.
SWEEP_REL_TOL = 1e-9


class OpResult:
    """Timing, per-point outcomes and check findings of one operation."""

    __slots__ = ("seconds", "outcomes", "problems", "detail", "swept")

    def __init__(self):
        self.seconds = 0.0
        self.outcomes = []   # one per parameter point
        self.problems = []   # output-check failures
        self.detail = ""
        self.swept = False   # a sweep that exited 0 with a valid CSV

    @property
    def completed(self) -> bool:
        """The op returned an answer: ok or refused, or a checked sweep."""
        if self.problems:
            return False
        return self.swept or FAILED not in self.outcomes

    def fail(self, message: str, points: int):
        """The output breaks the program's contract."""
        self.problems.append(message)
        self.outcomes = [FAILED] * points

    def wrong(self, reason: str):
        """The single point's answer is wrong."""
        self.outcomes = [FAILED]
        self.detail = "wrong:" + reason


def classify(exc: BaseException) -> str:
    return REFUSED if isinstance(exc, DOMAIN_ERRORS) else FAILED


def _quiet():
    """Swallow the CLI's stdout and stderr for the duration of one op."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


@contextlib.contextmanager
def stopwatch(out: OpResult):
    """Time the program call alone; checks run outside it."""
    start = time.perf_counter()
    try:
        yield
    finally:
        out.seconds = time.perf_counter() - start


def _params(op):
    return l4norm.ModelParams(mu=op.mu, q1=1.0 - op.epsilon, A2=op.a2,
                              cd=op.cd)


# -- chain-h3 ---------------------------------------------------------------


def force_residual(x: float, y: float, op: Point) -> float:
    """max(|Fx|, |Fy|) of the at-rest force field at (x, y)."""
    mu, q1, w1 = op.mu, 1.0 - op.epsilon, op.W1
    n2 = 1.0 + 1.5 * op.a2
    n = math.sqrt(n2)
    x1, x2 = x + mu, x + mu - 1.0
    r1sq, r2sq = x1 * x1 + y * y, x2 * x2 + y * y
    r1, r2 = math.sqrt(r1sq), math.sqrt(r2sq)
    g = (1.0 - mu) * q1 / r1 ** 3
    h = mu / r2 ** 3 + 1.5 * mu * op.a2 / r2 ** 5
    fx = n2 * x - g * x1 - h * x2 + w1 * n * y / r1sq
    fy = n2 * y - g * y - h * y - w1 * n * x1 / r1sq
    return max(abs(fx), abs(fy))


def run_chain(op: Point, workdir: str, measure=stopwatch) -> OpResult:
    out = OpResult()
    options = l4norm.PipelineOptions(branch=op.branch)
    res = None
    with measure(out):
        try:
            res = l4norm.run_pipeline(_params(op), options)
        except Exception as exc:  # every exception is an outcome to count
            out.outcomes = [classify(exc)]
            out.detail = type(exc).__name__
    if res is None:
        return out
    gates = res.gates()
    failed = [name for name, passed in gates.items() if not passed]
    if failed:
        out.outcomes = [FAILED]
        out.detail = "gate:" + ",".join(failed)
        return out
    out.outcomes = [OK]
    eq = res.eq_numeric
    if (eq.y > 0.0) != (op.branch == "L4"):
        out.wrong("equilibrium-branch")
    elif not force_residual(eq.x, eq.y, op) < EQ_RESIDUAL_MAX:
        out.wrong("equilibrium-root")
    elif "h3-vanishing" not in gates or "h3-test-power" not in gates:
        out.wrong("h3-gates-missing")
    return out


# -- verify-report ----------------------------------------------------------


def _float_arg(value: float) -> str:
    return repr(float(value))


def _physics_args(op) -> list:
    return ["--epsilon", _float_arg(op.epsilon), "--a2", _float_arg(op.a2),
            "--cd", _float_arg(op.cd), "--branch", op.branch]


def _call_cli(argv: list, out: OpResult, measure):
    """Run l4norm.cli.main in-process; returns the exit code or None."""
    code = None
    with _quiet(), measure(out):
        try:
            code = l4norm.cli.main(argv)
        except Exception as exc:  # untyped escape: a failed point
            out.detail = type(exc).__name__
    return code


def run_verify(op: Point, workdir: str, measure=stopwatch) -> OpResult:
    out = OpResult()
    prefix = os.path.join(workdir, "verify")
    report = prefix + "-verify.txt"
    if os.path.exists(report):
        os.remove(report)
    argv = ["verify", "--mu", _float_arg(op.mu), *_physics_args(op),
            "--stages", "h3", "--out", prefix]
    code = _call_cli(argv, out, measure)
    out.outcomes = [OK if code == 0 else REFUSED if code == 4 else FAILED]
    if code is not None and not out.detail:
        out.detail = f"exit {code}"
    if code in (0, 3):
        _check_report(report, op, code, out)
    elif code in (2, 4) and os.path.exists(report):
        out.fail(f"exit {code} but a report was written for {op}", 1)
    return out


def _check_report(path: str, op: Point, code: int, out: OpResult):
    if not os.path.exists(path):
        out.fail(f"exit {code} without a report for {op}", 1)
        return
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = {}
    for line in lines:
        if not line:
            break
        key, _, value = line.partition(": ")
        header[key] = value
    gates = {k: v for k, v in header.items() if k.startswith("gate.")}
    if header.get("mu") is None or float(header["mu"]) != op.mu:
        out.fail(f"report mu {header.get('mu')} is not the input {op.mu}", 1)
        return
    if not gates or any(v not in ("pass", "FAIL") for v in gates.values()):
        out.fail(f"report gate lines malformed for {op}", 1)
        return
    all_pass = all(v == "pass" for v in gates.values())
    if all_pass != (code == 0):
        out.fail(f"exit {code} disagrees with the report gates for {op}", 1)
        return
    try:
        start = lines.index("[series-vs-oracle]") + 2
    except ValueError:
        out.fail(f"report has no [series-vs-oracle] block for {op}", 1)
        return
    rows = [line.split(",") for line in lines[start:] if line]
    if len(rows) != 4 * len(verify.GATING_KEYS):
        out.fail(f"[series-vs-oracle] has {len(rows)} rows for {op}", 1)
        return
    for row in rows:
        quantity, perturbation, classification = row[0], row[1], row[-1]
        if classification != "consistent" and \
                not errata.is_registered(quantity, perturbation):
            out.wrong("unregistered-discrepancy")
            return


# -- sweep-b1 ---------------------------------------------------------------


def run_sweep(op: Sweep, workdir: str, measure=stopwatch) -> OpResult:
    out = OpResult()
    prefix = os.path.join(workdir, "sweep")
    csv_path = prefix + "-sweep.csv"
    if os.path.exists(csv_path):
        os.remove(csv_path)
    argv = ["sweep", "--mu-min", _float_arg(op.mu_min),
            "--mu-max", _float_arg(op.mu_max), "--steps", str(op.steps),
            "--stages", "b1", *_physics_args(op), "--out", prefix]
    code = _call_cli(argv, out, measure)
    if code != 0:
        out.outcomes = [FAILED] * op.steps
        out.detail = out.detail or f"exit {code}"
        return out
    _check_sweep(csv_path, op, out)
    return out


def _check_sweep(path: str, op: Sweep, out: OpResult):
    if not os.path.exists(path):
        out.fail(f"sweep wrote no CSV for {op}", op.steps)
        return
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        out.fail(f"sweep CSV header or line ending malformed for {op}",
                 op.steps)
        return
    rows = [line.split(",") for line in lines[1:-1]]
    grid = op.grid()
    if len(rows) != op.steps:
        out.fail(f"sweep CSV has {len(rows)} rows, expected {op.steps}",
                 op.steps)
        return
    outcomes = []
    for row, mu in zip(rows, grid):
        if float(row[0]) != mu:
            out.fail(f"sweep row mu {row[0]} is not the grid value {mu!r}",
                     op.steps)
            return
        if row[1].startswith("error:"):
            name = row[1][len("error:"):]
            cls = getattr(errors, name, None)
            if len(row) != 7 or not (isinstance(cls, type) and
                                     issubclass(cls, errors.L4NormError)):
                out.fail(f"sweep row {row} is not an error:<TypedClass> row",
                         op.steps)
                return
            outcomes.append(REFUSED if name in DOMAIN_NAMES else FAILED)
        elif len(row) == 8 and row[7] in ("pass", "FAIL"):
            outcomes.append(OK if row[7] == "pass" else FAILED)
        else:
            out.fail(f"sweep row {row} is neither pass/FAIL nor an error row",
                     op.steps)
            return
    out.outcomes = outcomes
    out.swept = True
    out.detail = ",".join(sorted({row[1] if row[1].startswith("error:") else row[7]
                                  for row, kind in zip(rows, outcomes)
                                  if kind == FAILED}))
    # One seeded row per sweep is recomputed through the scalar library path.
    index = random.Random(repr(op)).randrange(op.steps)
    problem = _compare_scalar(rows[index], grid[index], op)
    if problem:
        out.fail(problem, op.steps)


def _compare_scalar(row: list, mu: float, op: Sweep):
    point = Point(mu, op.epsilon, op.a2, op.cd, op.branch)
    try:
        res = l4norm.run_pipeline(_params(point),
                                  l4norm.PipelineOptions(branch=op.branch),
                                  stages=("b1",))
    except errors.L4NormError as exc:
        if row[1] != f"error:{type(exc).__name__}":
            return f"sweep row {row} but the scalar path raises {exc!r}"
        return None
    if row[1].startswith("error:"):
        return f"sweep row {row} but the scalar path succeeds at mu={mu!r}"
    for got, want in ((float(row[1]), res.freq.omega1),
                      (float(row[2]), res.freq.omega2)):
        if not abs(got - want) <= SWEEP_REL_TOL * abs(want):
            return f"sweep row {row} differs from the scalar path at mu={mu!r}"
    verdict = "pass" if all(res.gates().values()) else "FAIL"
    if row[7] != verdict:
        return f"sweep row {row} gates disagree with the scalar path ({verdict})"
    return None


RUNNERS = {"chain-h3": run_chain, "verify-report": run_verify,
           "sweep-b1": run_sweep}
