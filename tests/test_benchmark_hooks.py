"""Smoke test of the benchmark's timing hooks.

The traced benchmark run (perfbench/spans.py) wraps l4norm functions by
looking them up by name; building its Tracer resolves every such name, so
a rename inside the package fails here and not only in the benchmark.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    importlib.import_module("ops")
    spans.Tracer()  # raises AttributeError on a name l4norm no longer has
