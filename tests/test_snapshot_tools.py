"""The bit-identity tooling under scripts/ stays runnable.

`scripts/chain_snapshot.py` records an exception per point instead of
failing, so a broken accessor would show only as a diff between two
snapshots; here its record of a point must build without raising.
Its `--compare` mode must report a moved float by its relative change
and a changed error class as a mismatch.  `scripts/cli_snapshot.py`
records a command's exit code, so a renamed flag would turn its entries
into exit-2 records; here every command it runs must read as `main`
reads it, but those that show a refusal or the help.  Its
`--compare` mode must report a moved number by its relative change and a
changed exit code or word, label digits included, as a mismatch.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from l4norm.cli import COMMANDS, config_from_argv
from l4norm.errors import ConfigError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_chain_snapshot():
    return load_script("chain_snapshot")


@pytest.mark.parametrize("point", [
    (0.01, 0.0, 0.0, 1.0, "L4"),       # drag-free
    (0.01, 0.001, 1e-4, 20.0, "L5"),   # with drag
], ids=["L4-drag-free", "L5-drag"])
def test_chain_record_builds(point):
    record = dict((entry[0], entry[1:]) for entry in
                  load_chain_snapshot().chain_record(*point))
    series = [*record["b1"][:2], *record["x2"], *record["y2"], *record["b2"][:2],
              record["h3"][0][1], record["ablation"][0][1]]
    assert all(series)
    # J and the Hessian bit for bit, the linear stage's residuals as floats
    assert len(record["J"][0]) == len(record["hessian"][0]) == 16
    assert all(type(v) is float for v in (*record["nm"], record["b1"][2]))
    scalars, t5, t5_print = record["cubic"]
    assert len(scalars) == 4
    # the drag cubic in both readings, present exactly with drag
    assert bool(t5) == bool(t5_print) == (point[1] > 0.0)
    assert all(len(key) == 4 and type(c) is float for key, c in t5 + t5_print)
    # every other printed value by name: x, y, a, b, J, F/G and r/s
    (printed,) = record["printed"]
    assert len(printed) == 54 and {"x", "b", "J24", "G4pp", "s10"} <= dict(printed).keys()
    assert all(type(value) is float for _, value in printed)
    for terms in series:
        for key, value in terms:
            assert len(key) == 4
            c, s = value
            assert type(c) is float and type(s) is float


def test_chain_snapshot_compare_reports_changes():
    tool = load_chain_snapshot()
    old = tool.snapshot([(0.01, 0.001, 1e-4, 20.0, "L5"),
                         (0.5, 0.0, 0.0, 1.0, "L4")]).splitlines()
    worst, mismatches = tool.compare(old, old)
    assert mismatches == [] and set(worst) >= {"freq", "J", "b2", "gates"}
    assert all(rel == change == 0.0 for rel, change, _ in worst.values())
    # one frequency moved by 1e-13 relative; the unstable point's error
    # class replaced by another
    index, point, record = ast.literal_eval(old[0])
    (name, (w1, w2)), = [entry for entry in record if entry[0] == "freq"]
    record = tuple((name, (w1 * (1.0 + 1e-13), w2)) if entry[0] == "freq"
                   else entry for entry in record)
    new = [repr((index, point, record)), old[1].replace("StabilityDomainError",
                                                      "ConvergenceError")]
    worst, mismatches = tool.compare(old, new)
    assert 0.5e-13 < worst["freq"][0] < 2e-13 and worst["J"][0] == 0.0
    assert mismatches == ["point 1: StabilityDomainError against ConvergenceError"]


def test_cli_snapshot_commands_parse():
    # every command reads as `main` reads it but those that show the
    # reader refusing a flag, the help, or no command at all
    snapshot = load_script("cli_snapshot")
    with open(snapshot.CONFIG_PATH, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(snapshot.CONFIG_TEXT)
    commands = snapshot.FIXED + snapshot.random_points(30)
    assert len(commands) == 93
    outcomes = {}
    for argv in commands:
        if argv[:1] and argv[0] in COMMANDS:
            try:
                read = config_from_argv(argv[0], argv[1:])
            except ConfigError as refused:
                read = str(refused)
            outcomes[" ".join(argv)] = "help" if read is None else read
    unread = {key: value for key, value in outcomes.items()
              if isinstance(value, str)}
    assert unread == {
        "verify --mu 0.01 --tol residual=abc":
            "tol.residual: could not convert string to float: 'abc'",
        "resonance-scan --mu-min 0.01 --mu-max 0.02 --steps 2 --q1 0.9":
            "resonance-scan does not read q1",
        "frequencies --mu 0.01 --tol residual=1e-8":
            "frequencies does not read tol.residual",
        "sweep --mu-min 0.005 --mu-max 0.02 --steps 4 --stages b1 --format report":
            "sweep does not read format",
        "verify --mu 0.01 --stages b1 --form csv": "unknown flag '--form'",
        "sweep --mu_min 0.01 --mu-max 0.02 --steps 2 --stages b1":
            "unknown flag '--mu_min'",
        "verify --help": "help", "sweep -h": "help",
        "verify --mu": "--mu expects a value"}
    assert len(commands) - len(outcomes) == 3  # --help, no command, bogus


def test_cli_snapshot_compare_reports_changes(tmp_path, capsys):
    tool = load_script("cli_snapshot")
    report = ("omega1: 0.96362463344830884\nJ13,2.0006594173176917,0\n"
              "  I1^0/2 I2^2/2 (0,2) cos -17.629184108781935 sin 0\n")
    error = "pipeline error [SmallDivisorError]: small divisor Delta_(0,0) = 6.649e-02\n"
    old = (tool.entry(["frequencies", "--mu", "0.01"], 0, report, "")
           + tool.entry(["verify", "--mu", "0.01"], 4, "", error))
    rows, mismatches = tool.compare(old, old)
    assert mismatches == [] and [row[1:] for row in rows] == [(0.0, "", "")] * 2
    # one number moved by 1e-13 relative; then a zero moved by round-off
    new = old.replace("0.96362463344830884",
                      repr(0.96362463344830884 * (1.0 + 1e-13)))
    rows, mismatches = tool.compare(old, new)
    assert mismatches == [] and 0.5e-13 < rows[0][1] < 2e-13 and rows[1][1] == 0.0
    new = new.replace("2.0006594173176917,0", "2.0006594173176917,2.2e-16")
    rows, mismatches = tool.compare(old, new)
    assert mismatches == [] and rows[0][1:] == (1.0, "0", "2.2e-16")
    paths = [tmp_path / "old.txt", tmp_path / "new.txt"]
    for path, text in zip(paths, (old, new)):
        path.write_text(text, encoding="utf-8")
    assert tool.main(["--compare", *map(str, paths)]) == 0
    assert "moved: 1 of 2 entries" in capsys.readouterr().out
    # argv, the exit code, a harmonic label and a series exponent must match
    for before, after in (("verify --mu 0.01", "verify --mu 0.02"),
                          ("\nexit: 4", "\nexit: 2"),
                          ("Delta_(0,0)", "Delta_(1,1)"), ("I1^0/2", "I1^2/2")):
        rows, mismatches = tool.compare(old, old.replace(before, after))
        assert len(mismatches) == 1 and len(rows) == 1
    paths[1].write_text(old.replace("Delta_(0,0)", "Delta_(1,1)"), encoding="utf-8")
    assert tool.main(["--compare", *map(str, paths)]) == 1
    assert "differs: entry 1: verify --mu 0.01" in capsys.readouterr().out
