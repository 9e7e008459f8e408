"""Write or check the committed digests of both snapshot scripts' output.

`tests/golden/chain.sha256` holds one line per `chain_snapshot.py`
point: its index and the sha256 of its line.  `tests/golden/cli.sha256`
holds one line per `cli_snapshot.py` entry: its exit code, the sha256 of
its stdout and of its stderr, and its argv, with the config file's path
written as ``{config}`` so that the digests do not depend on the
temporary directory.  A point is known by its index and an entry by its
argv, so an entry added to the list moves no other.  Both are recomputed
in process, the CLI entries through `l4norm.cli.main`, so the tier-1 test
that compares them runs in a second or so.

    PYTHONPATH=src python scripts/golden.py          # write both files
    PYTHONPATH=src python scripts/golden.py --check  # list moved entries

Writing also runs every CLI entry in its own interpreter, as
`cli_snapshot.py` does, and refuses to write if that output differs from
the in-process one.  A change that moves an entry on purpose rewrites both
files with the first command and lists the moved entries.  Each file's
header records the Python version and platform that wrote it: the bytes
depend on CPython's float repr, which is exact, and on the platform's libm
(`atan2`, `hypot`, `exp`), so a mismatch on another platform is a failure
to look into.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import sys
import warnings
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
GOLDEN = SCRIPTS.parent / "tests" / "golden"
sys.path.insert(0, str(SCRIPTS))

import chain_snapshot  # noqa: E402
import cli_snapshot  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def chain_lines() -> list:
    """``index sha256`` of each point's snapshot line."""
    text = chain_snapshot.snapshot(chain_snapshot.random_points(chain_snapshot.POINTS))
    return [f"{index} {digest(line)}"
            for index, line in enumerate(text.splitlines())]


def commands() -> list:
    """The snapshot's commands, with its config file written first."""
    with open(cli_snapshot.CONFIG_PATH, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(cli_snapshot.CONFIG_TEXT)
    return cli_snapshot.FIXED + cli_snapshot.random_points(30)


def run_in_process(argv) -> tuple:
    """``(exit code, stdout, stderr)`` of `main(argv)`, each warning shown
    once per location as in a fresh interpreter."""
    from l4norm.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_runs() -> list:
    """``(argv, exit code, stdout, stderr)`` of each entry, in process."""
    return [(argv, *run_in_process(argv)) for argv in commands()]


def cli_lines(runs) -> list:
    """``exit sha256(stdout) sha256(stderr) argv`` of each entry."""
    return [f"{code} {digest(out)} {digest(err)} "
            + " ".join(argv).replace(cli_snapshot.CONFIG_PATH, "{config}")
            for argv, code, out, err in runs]


def header() -> str:
    return (f"# {platform.python_implementation()} {platform.python_version()} "
            f"{sys.platform} {platform.machine()}; written by scripts/golden.py")


def read(name: str) -> tuple:
    """``(header, lines)`` of the committed file `name`.sha256."""
    lines = (GOLDEN / f"{name}.sha256").read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


def by_entry(name: str, lines: list) -> dict:
    """Digest lines by entry: a chain point by its index, a CLI entry by
    its argv."""
    return {line.split(" ", 1)[0] if name == "chain" else line.split(" ", 3)[3]:
            line for line in lines}


def moved(name: str, lines: list) -> list:
    """Each entry whose digests in `lines` differ from the committed file's,
    then each entry only one side has."""
    old, new = by_entry(name, read(name)[1]), by_entry(name, lines)
    return ([f"{name} {key}" for key in new if key in old and old[key] != new[key]]
            + [f"{name} {key}: new" for key in new if key not in old]
            + [f"{name} {key}: gone" for key in old if key not in new])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--check"]):
        print("usage: golden.py [--check]", file=sys.stderr)
        return 2
    runs = cli_runs()
    current = {"chain": chain_lines(), "cli": cli_lines(runs)}
    if args:
        found = [line for name, lines in current.items()
                 for line in moved(name, lines)]
        for line in found:
            print(f"moved: {line}")
        return 1 if found else 0
    in_process = "".join(cli_snapshot.entry(*run) for run in runs)
    if cli_snapshot.snapshot([run[0] for run in runs]) != in_process:
        print("in-process and subprocess CLI output differ; nothing written",
              file=sys.stderr)
        return 1
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, lines in current.items():
        with open(GOLDEN / f"{name}.sha256", "w", encoding="utf-8",
                  newline="\n") as handle:
            handle.write("\n".join([header(), *lines]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
