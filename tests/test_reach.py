"""Reach gate: every function in the package runs on some program path, or
the benchmark holds it by name.

A fresh interpreter (this file run as a script) sets a profile hook
before it imports `l4norm`, so what runs at import counts, then runs
every command of the golden CLI corpus (`scripts/golden.py`) in process,
and prints the functions of the package that were called.  Each `def`
that `ast` finds in the package and the run did not call must be in
`HELD`, and each name in `HELD` must be unreached: a new function that no
command runs fails here, and so does a held one that a command starts to
call.  `errors.py` is exempt: its constructors run only when a check
fails.

A function is held because `perfbench/` wraps it or reads it by name, or
because a held function is its one caller.  The second test checks each
reason, so when the benchmark drops a hook it names what to delete next.

    python tests/test_reach.py   # print the reached names
"""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "l4norm"
PERFBENCH = ROOT / "perfbench"
EXEMPT = {"errors"}

# module.qualname -> what holds it: a perfbench file, which wraps the
# function through `spans.Tracer` or names it in its text, or the held
# function that calls it.
HELD = {
    "dalembert.apply_D": "spans.py",  # wrapped on normalform
    "dalembert.apply_poly_in_D": "spans.py",  # wrapped on normalform
    "dalembert.invert_delta": "spans.py",  # wrapped on normalform
    "normalform.poly_at_series": "spans.py",
    "dalembert.DAlembertSeries.__mul__": "spans.py",
    "polyalg.TruncatedPoly.__mul__": "spans.py",
    "polyalg.TruncatedPoly._new": "polyalg.TruncatedPoly.__mul__",
    "polyalg.TruncatedPoly.coeffs": "spans.py",  # its product counter reads it
    "dalembert.DAlembertSeries.terms": "spans.py",  # its product counter reads it
    "errata.is_registered": "ops.py",
    # the report reads the printed values through `closedforms.report_values`
    "closedforms.j_closed_form": "spans.py",
    "closedforms.fg_tables": "spans.py",
    "closedforms.rs_tables": "spans.py",
    "equilibria.epsilon_form": "spans.py",
    "dalembert.substitute": "dalembert.DAlembertSeries.__mul__",
    "dalembert._substitution_kernel": "dalembert.substitute",
    "dalembert.small_divisor": "dalembert.invert_delta",
}


def definitions(paths) -> dict:
    """``module.qualname -> def node`` of every function defined in
    `paths`, qualified as the interpreter qualifies its code object."""
    out = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[f"{module}.{prefix}{child.name}"] = child
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "")
    return out


def collect(run, directory: Path) -> set:
    """``module.qualname`` of every function in `directory` that is called
    while `run()` runs under a profile hook."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    prefix = str(directory.resolve())
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
            if code.co_filename.startswith(prefix)}


def unreached(paths, reached) -> set:
    """The functions defined in `paths` that `reached` lacks."""
    return definitions(paths).keys() - set(reached)


def golden_corpus():
    """Import the package, then run every golden CLI command in process."""
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "scripts")]
    golden = importlib.import_module("golden")
    for argv in golden.commands():
        golden.run_in_process(argv)


def reached_by_corpus() -> set:
    """The reached names, from this file run in a fresh interpreter."""
    run = subprocess.run([sys.executable, __file__], capture_output=True,
                         text=True, check=True, cwd=ROOT)
    return set(json.loads(run.stdout))


def package_modules():
    return sorted(path for path in PACKAGE.glob("*.py") if path.stem not in EXEMPT)


def names(text: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_unreached_functions_are_exactly_the_held_ones():
    missing = unreached(package_modules(), reached_by_corpus())
    assert sorted(missing - HELD.keys()) == []  # unreached and not held
    assert sorted(HELD.keys() - missing) == []  # held but reached


def test_each_held_function_has_its_holder(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    importlib.import_module("ops")
    wrapped = {f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
               for _, _, fn, _ in spans.Tracer()._patches}
    defs = definitions(package_modules())
    sources = {path.stem: path.read_text() for path in package_modules()}
    for name, holder in HELD.items():
        short = name.rpartition(".")[2]
        if holder.endswith(".py"):
            text = (PERFBENCH / holder).read_text()
            assert name in wrapped or names(text, short), (name, holder)
        else:
            # a held caller whose source names the callee
            assert holder in HELD, (name, holder)
            source = ast.get_source_segment(sources[holder.partition(".")[0]],
                                            defs[holder])
            assert names(source, short), (name, holder)


def test_unreached_def_is_caught(tmp_path, monkeypatch):
    module = tmp_path / "reachmodule.py"
    module.write_text("def used():\n"
                      "    def inner():\n"
                      "        return 1\n"
                      "    return inner()\n"
                      "def unused():\n"
                      "    return used()\n"
                      "class Box:\n"
                      "    @property\n"
                      "    def size(self):\n"
                      "        return 0\n"
                      "    def __repr__(self):\n"
                      "        return 'Box'\n"
                      "SIZE = Box().size\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "reachmodule", raising=False)

    def run():
        importlib.import_module("reachmodule").used()

    assert unreached([module], collect(run, tmp_path)) == {
        "reachmodule.unused", "reachmodule.Box.__repr__"}


if __name__ == "__main__":
    print(json.dumps(sorted(collect(golden_corpus, PACKAGE))))
