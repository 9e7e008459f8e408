"""Smoke test of the benchmark's timing hooks.

The traced benchmark run (perfbench/spans.py) wraps l4norm functions by
looking them up by name; building its Tracer resolves every such name, so
a rename inside the package fails here and not only in the benchmark.
"""

import importlib
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    importlib.import_module("ops")
    spans.Tracer()  # raises AttributeError on a name l4norm no longer has


def test_traced_chain_point_counts_products(monkeypatch):
    # the product counters read `terms` and `coeffs`; tracing must neither
    # lose them nor change what the chain and its audit compute.  Neither
    # multiplies polynomials (the Taylor stage and the drag cubic work on
    # coefficient dicts), so one explicit product feeds the counter
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    import l4norm
    from l4norm import verify
    from oracles import variable

    p = l4norm.ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
    res = l4norm.run_pipeline(p)
    # `audit` computes every gap, the report's and the others
    untraced = res.gates(), verify.audit(res).gaps
    xi, eta = variable(0, 3), variable(1, 3)
    tracer = spans.Tracer()
    with tracer.measuring(0, SimpleNamespace()):
        res = l4norm.run_pipeline(p)
        traced = res.gates(), verify.audit(res).gaps
        (xi + eta) * xi
    assert tracer.counts["polyalg.poly_mul.pairs"] == 2
    assert traced == untraced


def test_traced_sweep_opens_each_hooked_front_span_once_per_point(monkeypatch, capsys):
    # the b1 front reaches each of these through its module, so the traced
    # benchmark sees it: a change that bypasses one fails here rather than
    # reading 0 in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from l4norm import cli

    tracer = spans.Tracer()
    with tracer.measuring(0, SimpleNamespace()):
        assert cli.main(["sweep", "--mu-min", "0.005", "--mu-max", "0.02",
                         "--steps", "5", "--q1", "0.999", "--cd", "20",
                         "--stages", "b1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",pass") for row in rows)
    opened = Counter(tracer.names[n] for n in tracer.name)
    for name in ("polyalg.taylor_lagrangian", "polyalg.cubic_audit",
                 "normalform.frequencies", "dalembert.moser_check",
                 "normalform.j_numeric"):
        assert opened[name] == 5, name
