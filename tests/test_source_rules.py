"""Rules on the package's source, read with `ast`: every import is read
but the benchmark's hooks, one module owns the collision guard, and one
emitter writes, binds and compiles every generated kernel.

No linter ships with the test tools, so the first test stands in for
pyflakes' F401: a name that moves into generated source leaves its
import behind, and nothing else would notice."""

import ast
import importlib
import inspect
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


def test_one_collision_guard():
    # `model._radii` owns the guard: no other module reads its radius or
    # imports its error
    guard = {"COLLISION_RADIUS", "CollisionError"}
    readers = {path.stem for path in MODULES if guard & (
        {node.id for node in ast.walk(parse(path)) if isinstance(node, ast.Name)}
        | {name for _, name, _ in imported_names(path)})}
    assert readers == {"model"}


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
