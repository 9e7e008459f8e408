"""Byte identity as a gate: both snapshot scripts' output, recomputed in
process, against the digests committed in `tests/golden`.

A change that moves an entry on purpose rewrites the files with
``PYTHONPATH=src python scripts/golden.py`` and lists the moved entries in
CHANGES.md; see that script for the file format.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = load_golden()


def check(name, lines):
    written_by, _ = golden.read(name)
    moved = golden.moved(name, lines)
    assert not moved, (f"{len(moved)} entries moved against {written_by!r} "
                       f"on {golden.header()!r}:\n" + "\n".join(moved))


def test_chain_snapshot_matches_its_digests():
    check("chain", golden.chain_lines())


def test_cli_snapshot_matches_its_digests():
    check("cli", golden.cli_lines(golden.cli_runs()))


def test_every_moved_entry_is_named():
    _, lines = golden.read("cli")
    code, out, err, argv = lines[3].split(" ", 3)
    *_, last = lines[-1].split(" ", 3)
    lines = [*lines[:3], f"{code} {err} {out} {argv}", *lines[4:-1],
             f"{code} {out} {err} verify --mu 0.5"]
    assert golden.moved("cli", lines) == [
        f"cli {argv}", "cli verify --mu 0.5: new", f"cli {last}: gone"]
    _, points = golden.read("chain")
    assert golden.moved("chain", [points[0].replace(" ", " 0", 1), *points[1:]]) == [
        "chain 0"]
