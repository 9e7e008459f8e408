"""Write the output of a fixed list of `l4norm` commands to one file.

Each command runs in its own interpreter; its argv, exit code, stdout and
stderr go to the snapshot in list order.  The list covers every
subcommand, both branches, the report and CSV formats, a config file
and a flag over it, each tolerance override, a malformed value, a NaN
parameter, refused keys, a value that starts with '-', an abbreviated
flag, malformed command lines, the help texts, sweeps, and seeded random
`verify` points, so two snapshots that compare equal mean byte-identical
command-line behaviour.  The config file is written to the same path in
the temporary directory on every run, so both snapshots print the same
argv.  The package is imported from whatever `PYTHONPATH` names, so one
tree can be compared with another:

    PYTHONPATH=old/src python scripts/cli_snapshot.py old.txt
    PYTHONPATH=src python scripts/cli_snapshot.py new.txt
    diff old.txt new.txt

A change meant to move printed numbers only at round-off is checked with
the numeric mode instead of `diff`:

    python scripts/cli_snapshot.py --compare old.txt new.txt

Entries must match on argv, exit code and every token that is not a
number (see `NUMBER`).  The mode prints, per entry, the worst
relative change of its numbers, with that number's old and new text,
and then the count of entries whose numbers moved.  It lists each entry
that does not match and then exits 1.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import tempfile

RUN = "import sys; from l4norm.cli import main; sys.exit(main(sys.argv[1:]))"

HEADER = "$ l4norm "
# A number: a literal with a point or an exponent, not glued to a word, or
# an integer that is a whole field.  Digits inside labels such as `J13`,
# `(0,2)` or `I1^0/2` are text.
NUMBER = re.compile(r"((?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))"
                    r"(?:[eE][-+]?\d+)?(?!\w)|(?<![^\s,:=])[-+]?\d+(?![^\s,]))")

DRAG = ["--q1", "0.999", "--a2", "1e-4", "--cd", "20"]

CONFIG_PATH = os.path.join(tempfile.gettempdir(), "l4norm-snapshot.cfg")
CONFIG_TEXT = ("# drag point on L5\nmu=0.01\nq1 = 0.999\na2=1e-4\ncd=20\n"
               "branch=L5\nstages=b2\nformat=report\ntol.linear=1e-9\n")

FIXED = [
    ["equilibria", "--mu", "0.01", "--epsilon", "1e-3", "--cd", "100"],
    ["equilibria", "--mu", "0.01", "--epsilon", "1e-3", "--a2", "1e-4", "--cd", "7"],
    ["equilibria", "--mu", "0.01", *DRAG, "--branch", "L5"],
    ["frequencies", "--mu", "0.01"],
    ["frequencies", "--mu", "0.01", "--q1", "0.999", "--cd", "5"],
    ["frequencies", "--mu", "0.01", "--q1", "0.999", "--cd", "5", "--branch", "L5"],
    ["frequencies", "--mu", "0.03801188225385845", "--q1", "0.958270325691658",
     "--a2", "0.004089653412809712", "--cd", "74.71843115613443"],
    ["frequencies", "--mu", "0.0242939"],
    ["resonance-scan", "--mu-min", "0.001", "--mu-max", "0.038", "--steps", "40"],
    ["resonance-scan", "--mu-min", "0.001", "--mu-max", "0.02", "--steps", "5"],
    # across the critical mass ratio: unstable rows and the stderr warning
    ["resonance-scan", "--mu-min", "0.03", "--mu-max", "0.045", "--steps", "4"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "h3"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "h3", "--branch", "L5"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "h3", "--format", "csv"],
    # every gap of the audit, on the L5 mirror and on a cubic that the
    # audit expands itself (a chain stopped at b1 expands the quadratic only)
    ["verify", "--mu", "0.01", *DRAG, "--stages", "h3", "--branch", "L5",
     "--format", "csv"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "b1", "--format", "csv"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "b1"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "equilibria"],
    # the audit of a chain without a Taylor stage returns after the offsets
    ["verify", "--mu", "0.01", "--stages", "equilibria", "--format", "csv"],
    ["verify", "--mu", "0.01", "--epsilon", "1e-3", "--a2", "1e-4", "--cd", "7",
     "--stages", "equilibria"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "taylor", "--format", "csv"],
    # Newton's L4 root lies below the axis here; the audit reads every
    # printed row, the cubic included, on the options' branch
    ["verify", "--mu", "0.0014963148361835633", "--epsilon",
     "0.008553474090590698", "--a2", "7.443163613939597e-05", "--cd",
     "4.162845601367141", "--stages", "h3", "--format", "csv"],
    ["verify", "--mu", "0.01215", "--stages", "b2"],
    ["verify", "--mu", "0.01215", "--stages", "b2", "--format", "csv"],
    # low mu, where the detector's W1 leg runs below HALVING_STRENGTH; the
    # report prints the verdicts, CSV none
    ["verify", "--mu", "0.000954", "--stages", "h3"],
    ["verify", "--mu", "0.000954", "--stages", "h3", "--format", "csv"],
    ["verify", "--mu", "0.0242939", "--stages", "h3"],
    ["verify", "--mu", "0.01", "--stages", "h3", "--tol", "h3_factor=1e-30"],
    ["verify", "--config", CONFIG_PATH],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "b2", "--tol", "residual=1e-20"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "b1", "--tol", "linear=1e-6"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "h3", "--tol", "h3_factor=1e-6"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "b1", "--tol", "moser=0.2"],
    ["verify", "--mu", "0.01", *DRAG, "--stages", "b2", "--tol", "divisor_floor=1"],
    ["verify", "--mu", "0.01", "--tol", "residual=abc"],
    ["verify", "--mu", "0.01", "--q1", "nan", "--stages", "b1"],
    ["sweep", "--mu-min", "0.005", "--mu-max", "0.02", "--steps", "4",
     "--q1", "0.999", "--cd", "20", "--stages", "b1"],
    # drag-free Taylor expansions at degree 2, beside the drag ones above
    ["verify", "--mu", "0.01", "--stages", "b1"],
    ["sweep", "--mu-min", "0.005", "--mu-max", "0.02", "--steps", "4",
     "--stages", "b1"],
    ["sweep", "--mu-min", "0.005", "--mu-max", "0.02", "--steps", "4",
     "--q1", "0.999", "--cd", "20", "--stages", "h3"],
    # every other stage tuple's row, with drag
    *(["sweep", "--mu-min", "0.005", "--mu-max", "0.02", "--steps", "4",
       "--q1", "0.999", "--cd", "20", "--stages", stage]
      for stage in ("equilibria", "taylor", "b2")),
    ["sweep", "--mu-min", "0.0242", "--mu-max", "0.0244", "--steps", "5",
     "--q1", "0.999", "--cd", "20", "--stages", "h3"],
    ["sweep", "--mu-min", "0.001", "--mu-max", "0.037", "--steps", "12",
     "--epsilon", "0.01", "--a2", "0.002", "--cd", "3", "--branch", "L5",
     "--stages", "h3"],
    ["sweep", "--mu-min", "0.038", "--mu-max", "0.0386", "--steps", "7",
     "--stages", "h3", "--q1", "0.999", "--a2", "0.004", "--cd", "5"],
    # a valid L5 point past the printed series' own domain: its row reads
    # nan, the report says why, and the gates decide the exit code
    ["verify", "--mu", "0.000237", "--q1", "0.995", "--cd", "5", "--branch", "L5",
     "--stages", "h3"],
    ["equilibria", "--mu", "0.000237", "--q1", "0.995", "--cd", "5", "--branch", "L5"],
    # each command takes only the keys it reads: a flag it does not read,
    # a tolerance included, is refused as the same config file line is
    ["resonance-scan", "--mu-min", "0.01", "--mu-max", "0.02", "--steps", "2",
     "--q1", "0.9"],
    ["frequencies", "--mu", "0.01", "--tol", "residual=1e-8"],
    ["sweep", "--mu-min", "0.005", "--mu-max", "0.02", "--steps", "4",
     "--stages", "b1", "--format", "report"],
    # a flag for epsilon replaces the config file's q1
    ["verify", "--config", CONFIG_PATH, "--epsilon", "0.002"],
    # a value that starts with '-' is the flag's, and reaches the model's check
    ["verify", "--mu", "0.01", "--a2", "-1e-3", "--stages", "b1"],
    # a flag is matched exactly: an abbreviation or the key's own spelling
    # is an unknown flag
    ["verify", "--mu", "0.01", "--stages", "b1", "--form", "csv"],
    ["sweep", "--mu_min", "0.01", "--mu-max", "0.02", "--steps", "2",
     "--stages", "b1"],
    # a setting wrong at every mu exits 2 before the sweep's first row
    ["sweep", "--mu-min", "0.01", "--mu-max", "0.02", "--steps", "2",
     "--q1", "0.99", "--epsilon", "0.01", "--stages", "b1"],
    # the model owns the branch names
    ["verify", "--mu", "0.01", "--stages", "b1", "--branch", "l4"],
    # the help texts on stdout, exit 0; no command, an unknown one and a
    # flag without its value exit 2 with one line on stderr
    ["--help"],
    ["verify", "--help"],
    ["sweep", "-h"],
    [],
    ["bogus"],
    ["verify", "--mu"],
]


def random_points(count: int, seed: int = 1):
    """Seeded `verify` commands over the stable mass-ratio range."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cmd = ["verify", "--mu", repr(rng.uniform(0.001, 0.037)),
               "--q1", repr(1.0 - rng.uniform(0.0, 0.01)),
               "--a2", repr(rng.uniform(0.0, 0.005)),
               "--cd", repr(rng.uniform(2.0, 100.0)),
               "--branch", rng.choice(("L4", "L5")),
               "--stages", rng.choice(("b1", "b2", "h3")),
               "--format", rng.choice(("report", "csv"))]
        out.append(cmd)
    return out


def entry(argv, returncode: int, stdout: str, stderr: str) -> str:
    """One command's record, as the snapshot holds it."""
    return (f"{HEADER}{' '.join(argv)}\nexit: {returncode}\n"
            f"--- stdout\n{stdout}--- stderr\n{stderr}\n")


def snapshot(commands) -> str:
    parts = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", RUN, *argv],
                              capture_output=True, text=True, check=False)
        parts.append(entry(argv, proc.returncode, proc.stdout, proc.stderr))
    return "".join(parts)


def split_entries(text: str) -> list:
    """The records of a snapshot, each from its header line on."""
    return [HEADER + part for part in
            re.split("(?m)^" + re.escape(HEADER), text)[1:]]


def relative_change(x: str, y: str) -> float:
    u, v = float(x), float(y)
    scale = max(abs(u), abs(v))
    return abs(u - v) / scale if scale else 0.0


def compare(old_text: str, new_text: str) -> tuple:
    """``(rows, mismatches)``: per entry, its command line, the worst
    relative change of its numbers and that number's old and new text
    (empty where no number changed); and the entries whose argv, exit
    code or words differ."""
    rows, mismatches = [], []
    old, new = split_entries(old_text), split_entries(new_text)
    if len(old) != len(new):
        mismatches.append(f"{len(old)} entries against {len(new)}")
    for index, (a, b) in enumerate(zip(old, new)):
        *head_a, body_a = a.split("\n", 2)   # argv, exit code, output
        *head_b, body_b = b.split("\n", 2)
        command = head_a[0][len(HEADER):]
        parts_a, parts_b = NUMBER.split(body_a), NUMBER.split(body_b)
        if head_a != head_b or parts_a[0::2] != parts_b[0::2]:
            mismatches.append(f"entry {index}: {command}")
            continue
        changes = [(relative_change(x, y), x, y)
                   for x, y in zip(parts_a[1::2], parts_b[1::2]) if x != y]
        rows.append((command, *max(changes, key=lambda c: c[0],
                                   default=(0.0, "", ""))))
    return rows, mismatches


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        old, new = (open(path, encoding="utf-8").read() for path in args[1:])
        rows, mismatches = compare(old, new)
        print("relative old new command")
        for command, rel, x, y in rows:
            print(f"{rel:.3g} {x or '-'} {y or '-'} {command}")
        moved = sum(1 for row in rows if row[2])
        print(f"moved: {moved} of {len(rows)} entries")
        for line in mismatches:
            print(f"differs: {line}")
        return 1 if mismatches else 0
    if len(args) != 1:
        print("usage: cli_snapshot.py OUTPUT | --compare OLD NEW",
              file=sys.stderr)
        return 2
    with open(CONFIG_PATH, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CONFIG_TEXT)
    with open(args[0], "w", encoding="utf-8", newline="\n") as handle:
        handle.write(snapshot(FIXED + random_points(30)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
