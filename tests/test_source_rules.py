"""Rules on the package's source, read with `ast`: every import is read
but the benchmark's hooks, one module owns the collision guard, one the
branch names, one the L5 reading of the printed rows, and one emitter
writes, binds and compiles every generated kernel.  No module imports `dataclasses`, and
importing the command line loads neither it nor `inspect`: the records
are named tuples and plain classes, which write no methods at import.

No linter ships with the test tools, so the first test stands in for
pyflakes' F401: a name that moves into generated source leaves its
import behind, and nothing else would notice."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import l4norm
from l4norm import layout

PACKAGE = Path(l4norm.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(path):
    """``(line, name, marked)`` of every name `path` binds by import, but
    for `__future__`'s; `marked` if its line carries ``# noqa: F401``."""
    lines = path.read_text().splitlines()
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.lineno, alias.asname or alias.name.partition(".")[0],
                       "# noqa: F401" in lines[alias.lineno - 1])


def unread_imports(path) -> list:
    """The names `path` imports and never reads: no load of the name, no
    attribute read off it, no entry of `__all__`.  An import line marked
    ``# noqa: F401`` is exempt."""
    tree = parse(path)
    bound = {}
    for line, name, marked in imported_names(path):
        if not marked:
            bound.setdefault(name, line)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def imported_modules(path) -> set:
    """The top-level modules `path` imports, or imports from."""
    out = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            out |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path) == []


def test_unread_import_is_caught(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import math, os.path\n"
                      "from .errors import (CriticalTermError,\n"
                      "                     SmallDivisorError)  # noqa: F401\n"
                      "from .layout import plan as p\n"
                      "__all__ = ['p']\n"
                      "SOURCE = 'raise CriticalTermError()'\n"
                      "x = os.path.join\n")
    assert unread_imports(module) == [(2, "math"), (3, "CriticalTermError")]


def test_no_module_imports_dataclasses(tmp_path):
    assert {path.stem for path in MODULES
            if "dataclasses" in imported_modules(path)} == set()
    module = tmp_path / "module.py"
    for line in ("import dataclasses as dc", "from dataclasses import field"):
        module.write_text(f"from . import layout\n{line}\n")
        assert imported_modules(module) == {"dataclasses"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # what every command pays at cold start, in a fresh interpreter
    # without site hooks; the command line is read without argparse
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import l4norm.cli; "
            "print(sorted({'argparse', 'dataclasses', 'inspect'} "
            "& sys.modules.keys()))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_noqa_imports_are_benchmark_hooks(monkeypatch):
    # The only import kept unread is one that perfbench/spans.py wraps on
    # that module; when the benchmark drops a hook, this names the import
    # to drop with it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    hooked = {(owner.__name__, name) for owner, name, _ in spans.SPANS}
    marked = {("l4norm" if path.stem == "__init__" else f"l4norm.{path.stem}",
               name)
              for path in MODULES for _, name, flag in imported_names(path) if flag}
    assert marked - hooked == set()


def naming(names) -> set:
    """The modules that name any of `names`: as a name, an attribute read
    off another object, or an import."""
    def named(path):
        tree = parse(path)
        return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                | {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)}
                | {name for _, name, _ in imported_names(path)})

    return {path.stem for path in MODULES if set(names) & named(path)}


def test_one_collision_guard():
    # `model._radii` owns the guard: no other module reads its radius or
    # imports its error
    assert naming({"COLLISION_RADIUS", "CollisionError"}) == {"model"}


def branch_owners(paths) -> set:
    """The modules that compare a string with "L4" or "L5", or bind
    `BRANCHES`."""
    def owns(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(leaf, ast.Constant) and leaf.value in ("L4", "L5")
                    for side in (node.left, *node.comparators)
                    for leaf in ast.walk(side)):
                return True
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                    isinstance(leaf, ast.Name) and leaf.id == "BRANCHES"
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])
                    for leaf in ast.walk(target)):
                return True
        return False

    return {path.stem for path in paths if owns(parse(path))}


def test_one_owner_of_the_branch_names(tmp_path):
    # `model.branch_sign` is the one branch check; every other module reads
    # the branch through it
    assert branch_owners(MODULES) == {"model"}
    for line in ("y = 1.0 if branch == 'L4' else -1.0",
                 "ok = branch in ('L4', 'L5')", "BRANCHES = ()"):
        module = tmp_path / "module.py"
        module.write_text(f"branch = 'L5'\n{line}\n")
        assert branch_owners([module]) == {"module"}
    module.write_text("default = 'L4'\n")
    assert branch_owners([module]) == set()


def test_one_reading_of_the_printed_rows_on_l5():
    # the rows are printed for L4; `closedforms` alone reads them on L5, so
    # no other module builds the mirror parameters or negates an entry
    assert naming({"reflect", "MIRROR_ODD", "on_branch", "mirror"}) == {
        "closedforms"}


def calls(tree):
    """``(qualified name of the enclosing def, or None, call node)`` of
    every call in a module."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                if isinstance(child, ast.Call):
                    out.append((owner, child))
                visit(child, owner)

    visit(tree, None)
    return out


def called_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def test_one_emitter():
    # `exec` and `compile` run only in `layout.compiled`, and only
    # `KernelSource.compile` calls that
    sites = {"exec": set(), "compile": set(), "compiled": set()}
    for path in MODULES:
        for owner, call in calls(parse(path)):
            name = called_name(call)
            builtin = isinstance(call.func, ast.Name) and name in ("exec", "compile")
            if builtin or name == "compiled":
                sites[name].add(f"{path.stem}.{owner}")
    assert sites == {"exec": {"layout.compiled"}, "compile": {"layout.compiled"},
                     "compiled": {"layout.KernelSource.compile"}}
    # and every kernel's globals are `KERNEL_NAMES`, not the caller's
    assert list(inspect.signature(layout.compiled).parameters) == ["source", "name"]
