import ast
import inspect
import math

import pytest

from l4norm import cli, errors, verify
from l4norm.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_GATE,
    EXIT_OK,
    EXIT_PIPELINE,
    FLAGS,
    KEYS,
    RANGE,
    SETTINGS,
    RunConfig,
    config_from_argv,
    help_text,
    main,
    parse_config_text,
)
from l4norm.errors import ConfigError
from l4norm.model import ModelParams
from l4norm.verify import (
    TOLERANCES,
    PipelineOptions,
    detect_discrepancies,
    fmt,
    partial_forcing_gap,
    run_pipeline,
)


def run_cli(capsys, *argv):
    """``(exit code, stdout, stderr)``; every refusal is an exit code, so
    any exception that escapes `main`, `SystemExit` included, fails."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flag_of(key):
    return "--" + key.replace("_", "-")


# Every tolerance must be finite and positive: a NaN divisor floor would
# switch the small-divisor guard off, a NaN residual bound fail its gate.
BAD_TOLERANCES = [(name, bad, where) for name in TOLERANCES
                  for bad in ("nan", "inf", "-1", "0")
                  for where in ("flag", "file")]


def bad_tolerance(name, bad, where):
    """(argv, config text) of an h3 verify setting `name` to `bad`."""
    if where == "flag":
        return ("--mu", "0.01", "--stages", "h3", "--tol", f"{name}={bad}"), None
    return (), f"mu=0.01\nstages=h3\ntol.{name}={bad}\n"


class TestConfig:
    FILE = ("mu=0.01\nq1=0.999\na2=0.0001\ncd=10\nbranch=L5\n"
            "stages=equilibria,b1\nformat=csv\ntol.residual=1e-8\n"
            "tol.moser=0.002\n")
    FLAGS = ("--mu", "0.01", "--q1", "0.999", "--a2", "0.0001", "--cd", "10",
             "--branch", "L5", "--stages", "equilibria,b1", "--format", "csv",
             "--tol", "residual=1e-8", "--tol", "moser=0.002")

    def test_config_file_equals_flags(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(self.FILE)
        from_file = config_from_argv("verify", ["--config", str(path)])
        from_flags = config_from_argv("verify", self.FLAGS)
        assert vars(from_file) == vars(from_flags)
        assert from_file.params() == from_flags.params()
        assert from_file.options() == from_flags.options()
        code, out_file, err_file = run_cli(capsys, "verify", "--config",
                                           str(path))
        assert code == EXIT_OK
        assert run_cli(capsys, "verify", *self.FLAGS) == \
            (code, out_file, err_file)

    @pytest.mark.parametrize("argv, text", [
        (("--mu", "0.01", "--tol", "residual=abc"), None),
        (("--mu", "abc"), None),
        ((), "mu=abc\n"),
        ((), "mu=0.01\nbranch=L6\n"),
    ] + [bad_tolerance(*case) for case in BAD_TOLERANCES],
        ids=["tol-flag", "mu-flag", "mu-file", "branch-file"]
        + ["tol-{}-{}-{}".format(*case) for case in BAD_TOLERANCES])
    def test_malformed_value_exits_2(self, tmp_path, capsys, argv, text):
        if text is not None:
            path = tmp_path / "run.cfg"
            path.write_text(text)
            argv = ("--config", str(path))
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"mu=0.01\n\xff\n")
        assert run_cli(capsys, "verify", "--config", str(path)) == (
            EXIT_CONFIG, "", f"error: {path}: 'utf-8' codec can't decode byte "
                             "0xff in position 8: invalid start byte\n")

    @pytest.mark.parametrize("branch", ["L6", "l4"])
    def test_branch_takes_the_printed_readers_names(self, capsys, branch):
        # the CLI reads the branch as a string; the model's check refuses it
        assert run_cli(capsys, "verify", "--mu", "0.01", "--stages", "b1",
                       "--branch", branch) == (
            EXIT_CONFIG, "", f"error: branch must be L4 or L5, got {branch}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("mu=0.01\nwhatever=3\n")
        with pytest.raises(ConfigError):
            parse_config_text("tol.bogus=1\n")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("stages=equilibria,warp\n")

    @pytest.mark.parametrize("value, message", [
        ("equilibria,warp", f"unknown stage 'warp' (valid: {verify.STAGES})"),
        (" , ", "empty stage list")], ids=["unknown", "empty"])
    def test_stage_check_is_the_pipeline_one(self, capsys, value, message):
        # the flag and the config line read the check `run_pipeline` makes
        code, out, err = run_cli(capsys, "verify", "--mu", "0.01",
                                 "--stages", value)
        assert (code, out, err) == (EXIT_CONFIG, "",
                                    f"error: stages: {message}\n")
        with pytest.raises(ConfigError, match=r"^line 1: stages: ") as error:
            parse_config_text(f"stages={value}\n")
        assert str(error.value).endswith(message)

    def test_q1_epsilon_exclusive(self):
        cfg = RunConfig(mu=0.1, q1=0.99, epsilon=0.01)
        with pytest.raises(ConfigError):
            cfg.params()

    def test_epsilon_accepted(self):
        cfg = RunConfig(mu=0.1, epsilon=1e-3)
        assert cfg.params().q1 == pytest.approx(0.999, rel=1e-12)

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("mu=0.2\nbranch=L4\n")
        code, out, _ = run_cli(capsys, "equilibria", "--config", str(path),
                               "--mu", "0.25")
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("numeric,0.25,")

    @pytest.mark.parametrize("file_key, flag", [
        ("q1=0.999", ("--epsilon", "0.002")), ("epsilon=0.001", ("--q1", "0.998")),
        ("q1=0.999", ("--q1", "0.998"))])
    def test_flag_overrides_the_files_other_name(self, tmp_path, capsys,
                                                 file_key, flag):
        # q1 and epsilon name one quantity: a flag for either replaces the
        # file's value of either
        path = tmp_path / "run.cfg"
        path.write_text(f"mu=0.01\n{file_key}\ncd=20\n")
        overridden = run_cli(capsys, "equilibria", "--config", str(path), *flag)
        assert overridden[0] == EXIT_OK
        assert overridden == run_cli(capsys, "equilibria", "--mu", "0.01",
                                     "--cd", "20", *flag)

    def test_q1_and_epsilon_from_one_source_exit_2(self, tmp_path, capsys):
        both = ("error: give q1 or epsilon, not both\n",)
        assert run_cli(capsys, "equilibria", "--mu", "0.01", "--q1", "0.999",
                       "--epsilon", "0.002") == (EXIT_CONFIG, "", *both)
        path = tmp_path / "run.cfg"
        path.write_text("mu=0.01\nq1=0.999\nepsilon=0.002\n")
        assert run_cli(capsys, "equilibria", "--config", str(path)) == (
            EXIT_CONFIG, "", *both)


class TestEquilibriaCommand:
    def test_classical_row(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--mu", "0.25")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "method,x,y,residual,gap_vs_numeric"
        fields = lines[1].split(",")
        assert fields[0] == "numeric"
        assert float(fields[1]) == pytest.approx(0.25, abs=1e-12)
        assert float(fields[2]) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert float(fields[3]) < 1e-12

    def test_three_rows_with_order_consistent_gaps(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--mu", "0.01",
                               "--epsilon", "1e-3", "--cd", "1e30")
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == \
            ["numeric", "series", "epsilon-form"]
        gaps = [float(r.split(",")[4]) for r in rows]
        assert gaps[0] == 0.0
        assert gaps[1] < 1e-12          # the radiation-only series is exact
        assert 1e-8 < gaps[2] < 1e-6    # epsilon-form truncates at O(eps^2)

    def test_matches_verify_block(self, capsys):
        point = ("--mu", "0.01", "--epsilon", "1e-3", "--a2", "1e-4",
                 "--cd", "7")
        code, out, _ = run_cli(capsys, "equilibria", *point)
        assert code == EXIT_OK
        code, report, _ = run_cli(capsys, "verify", *point,
                                  "--stages", "equilibria")
        assert code == EXIT_OK
        lines = report.splitlines()
        start = lines.index("[equilibria]") + 1
        assert out.splitlines() == lines[start:start + 4]

    def test_bad_config_exit(self, capsys):
        code, _, err = run_cli(capsys, "equilibria", "--mu", "0.7")
        assert code == EXIT_CONFIG
        assert "mu must lie in (0, 1/2]" in err

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "equilibria", "--mu", "0.0123")
        _, out2, _ = run_cli(capsys, "equilibria", "--mu", "0.0123")
        assert out1 == out2

    def test_out_prefix_writes_file(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code, out, _ = run_cli(capsys, "equilibria", "--mu", "0.25",
                               "--out", prefix)
        assert code == EXIT_OK
        path = tmp_path / "run-equilibria.csv"
        assert path.exists()
        assert path.read_text().startswith("method,")


class TestFrequenciesCommand:
    @pytest.mark.parametrize("point", [
        # the L5 frequencies differ from the L4 ones under drag
        ("--mu", "0.01", "--q1", "0.999", "--cd", "5", "--branch", "L5"),
        # strong radiation and oblateness near the critical mass ratio
        ("--mu", "0.03801188225385845", "--q1", "0.958270325691658",
         "--a2", "0.004089653412809712", "--cd", "74.71843115613443"),
    ])
    def test_same_labels_as_verify(self, capsys, point):
        code, out, _ = run_cli(capsys, "frequencies", *point)
        assert code == EXIT_OK
        code, report, _ = run_cli(capsys, "verify", *point, "--stages", "b1")
        assert code == EXIT_OK
        lines = report.splitlines()
        start = lines.index("[frequencies]") + 1
        assert out.splitlines() == lines[start:start + 5]


class TestVerifyCommand:
    def test_classical_h3_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mu", "0.01",
                               "--stages", "h3")
        assert code == EXIT_OK
        assert "gate.h3-vanishing: pass" in out
        assert "[series-vs-oracle]" in out  # halving table present

    def test_gate_failure_exit(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--mu", "0.01",
                               "--stages", "h3", "--tol", "h3_factor=1e-30")
        assert code == EXIT_GATE
        assert "h3-vanishing" in err

    def test_resonant_mu_exit(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--mu", "0.0242939",
                               "--stages", "h3")
        assert code == EXIT_PIPELINE
        assert "ResonanceError" in err

    def test_repeat_in_one_process(self, capsys, monkeypatch):
        # Physics B shares mu and options with A, so it reads A's cached
        # verdicts; C sets other tolerances and the reader rejects D after
        # reading its --tol.  Every later run of A must still print what
        # the first did.  A repeat reuses the cached verdict rows and
        # formats none of their floats; after cache_clear the rows are
        # built again.
        a = ("verify", "--mu", "0.01215", "--q1", "0.999", "--a2", "1e-4",
             "--cd", "20", "--stages", "h3", "--tol", "residual=1e-8")
        b = ("verify", "--mu", "0.01215", "--epsilon", "1e-3", "--cd", "7",
             "--stages", "h3", "--tol", "residual=1e-8")
        c = ("verify", "--mu", "0.01215", "--stages", "b1",
             "--tol", "moser=0.002", "--tol", "linear=1e-9")
        d = ("verify", "--mu", "0.01215", "--tol", "moser=0.5", "--steps", "3")
        default = PipelineOptions()
        first = run_cli(capsys, *a)
        assert first[0] == EXIT_OK
        assert f"tol.residual: {fmt(1e-8)}\n" in first[1]
        assert f"tol.moser: {fmt(default.moser_tol)}\n" in first[1]
        assert run_cli(capsys, *b)[0] == EXIT_OK
        code, out, _ = run_cli(capsys, *c)
        assert code == EXIT_OK
        assert f"tol.residual: {fmt(default.residual_tol)}\n" in out
        assert "tol.moser: 0.002\n" in out
        assert f"tol.linear: {fmt(1e-9)}\n" in out
        assert run_cli(capsys, *d) == (
            EXIT_CONFIG, "", "error: verify does not read steps\n")
        options = PipelineOptions(residual_tol=1e-8)
        verdicts = detect_discrepancies(0.01215, options)
        rows = verdicts.rows
        formatted = []
        monkeypatch.setattr(verify, "fmt",
                            lambda x: formatted.append(x) or fmt(x))
        assert run_cli(capsys, *a) == first
        repeat = len(formatted)
        assert detect_discrepancies(0.01215, options).rows is rows
        detect_discrepancies.cache_clear()
        formatted.clear()
        assert run_cli(capsys, *a) == first
        assert len(formatted) == repeat + 2 * len(verdicts)
        rebuilt = detect_discrepancies(0.01215, options)
        assert rebuilt.rows is not rows and rebuilt.rows == rows

    def test_library_call_reads_the_cli_entry(self, capsys):
        # verify and a library call at the same (mu, options) share one
        # cache entry; the detector takes no keywords, so no other
        # spelling of the arguments can make a second one.
        detect_discrepancies.cache_clear()
        code, _, _ = run_cli(capsys, "verify", "--mu", "0.01215",
                             "--stages", "h3")
        assert code == EXIT_OK
        detect_discrepancies(0.01215, PipelineOptions())
        info = detect_discrepancies.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        with pytest.raises(TypeError):
            detect_discrepancies(mu=0.01215, options=PipelineOptions())

    @pytest.mark.parametrize("flag, field", [
        ("--q1", "q1"), ("--a2", "A2"), ("--cd", "cd")])
    def test_nan_parameter_is_refused(self, capsys, flag, field):
        code, out, err = run_cli(capsys, "verify", "--mu", "0.01",
                                 flag, "nan", "--stages", "b1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: {field} ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_a2_is_refused_by_its_check(self, capsys, value):
        # not a warning and a Newton failure further down the chain
        assert run_cli(capsys, "verify", "--mu", "0.01", "--a2", value,
                       "--stages", "b1") == (
            EXIT_CONFIG, "", f"error: A2 must be finite and non-negative, "
                             f"got {value}\n")

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_epsilon_is_refused_in_its_own_words(self, capsys, value):
        # not as the q1 = 1 - epsilon it would give, a key nobody set
        assert run_cli(capsys, "verify", "--mu", "0.01", "--epsilon", value,
                       "--stages", "b1") == (
            EXIT_CONFIG, "", f"error: epsilon must lie in [0, 1), got {value}\n")

    @pytest.mark.parametrize("form", ["report", "csv"])
    def test_gates_evaluated_once(self, capsys, monkeypatch, form):
        # One gates dict serves the gate lines and the exit code.
        calls = []
        gates = verify.PipelineResult.gates
        monkeypatch.setattr(verify.PipelineResult, "gates",
                            lambda self: calls.append(self) or gates(self))
        code, out, _ = run_cli(capsys, "verify", "--mu", "0.01", "--stages",
                               "b1", "--format", form)
        assert code == EXIT_OK and "b1-residual" in out
        assert len(calls) == 1

    def test_b1_stage_skips_detector(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mu", "0.01",
                               "--stages", "b1")
        assert code == EXIT_OK
        assert "[series-vs-oracle]" not in out


# L5 point where the printed equilibrium series has no real value while the
# oracle chain passes every gate.
BRACE_ARGS = ("--epsilon", "0.007387079964007413",
              "--a2", "0.0004271000842634082", "--cd", "1.0924737782103944",
              "--branch", "L5")


class TestPrintedSeriesFailure:
    def test_sweep_rows_carry_the_oracle_result(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--mu-min", "0.0025",
                               "--mu-max", "0.0026", "--steps", "3",
                               *BRACE_ARGS, "--stages", "b1")
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert len(rows) == 3
        assert all(r.endswith(",pass") for r in rows)

    def test_verify_reports_the_series_outside_its_domain(self, capsys):
        # every gate passes, so the printed series' own domain does not
        # decide the exit code: its row reads nan and the report says why
        code, out, err = run_cli(capsys, "verify",
                                 "--mu", "0.002552385680036853", *BRACE_ARGS)
        assert code == EXIT_OK and err == ""
        assert ("series.outside_domain: series y-brace non-positive; "
                "perturbations too large\n\n[equilibria]\n") in out
        assert "\nseries,nan,nan,nan,nan\n" in out
        code, out, err = run_cli(capsys, "equilibria",
                                 "--mu", "0.002552385680036853", *BRACE_ARGS)
        assert code == EXIT_OK and "series,nan,nan,nan,nan" in out.splitlines()
        assert err == ("series.outside_domain: series y-brace non-positive; "
                       "perturbations too large\n")


class TestResonanceScan:
    def test_locates_classical_resonances(self, capsys):
        code, out, err = run_cli(capsys, "resonance-scan", "--mu-min", "0.001",
                                 "--mu-max", "0.038", "--steps", "40")
        assert code == EXIT_OK
        block = out.split("\n\n")[1].splitlines()
        assert block[0] == "resonance,k,mu"
        two = float(block[1].split(",")[2])
        three = float(block[2].split(",")[2])
        assert two == pytest.approx(0.0242939, abs=1e-6)
        assert three == pytest.approx(0.0135160, abs=1e-6)

    def test_root_outside_the_range_prints_no_row(self, capsys):
        code, out, _ = run_cli(capsys, "resonance-scan", "--mu-min", "0.001",
                               "--mu-max", "0.02", "--steps", "5")
        assert code == EXIT_OK
        block = out.split("\n\n")[1].splitlines()
        assert [row.split(",")[1] for row in block[1:]] == ["3"]

    def test_empty_range(self, capsys):
        code, out, _ = run_cli(capsys, "resonance-scan", "--mu-min", "0.01",
                               "--mu-max", "0.01", "--steps", "0")
        assert code == EXIT_OK
        assert out.splitlines()[0] == \
            "mu,omega1,omega2,min_combination,worst_pair,pass"

    def test_unstable_range_warns(self, capsys):
        code, out, err = run_cli(capsys, "resonance-scan", "--mu-min", "0.035",
                                 "--mu-max", "0.045", "--steps", "5")
        assert code == EXIT_OK
        assert "unstable" in out
        assert "critical mass" in err

    def test_scan_past_one_half_keeps_its_unstable_rows(self, capsys):
        code, out, err = run_cli(capsys, "resonance-scan", "--mu-min", "0.4",
                                 "--mu-max", "0.6", "--steps", "3")
        assert code == EXIT_OK
        assert [row.split(",")[1] for row in out.splitlines()[1:4]] == \
            ["unstable"] * 3
        assert "critical mass" in err


def stages_of(command):
    """`--stages b1` where the range command reads it (sweep)."""
    return ("--stages", "b1") if command == "sweep" else ()


@pytest.mark.parametrize("mu_min", ["-0.01", "0", "-1e300"])
@pytest.mark.parametrize("command", ["sweep", "resonance-scan"])
def test_non_positive_mu_min_is_refused(capsys, command, mu_min):
    # both commands refuse it before any row, as a non-finite bound
    code, out, err = run_cli(capsys, command, "--mu-min", mu_min, "--mu-max",
                             "0.01", "--steps", "3", *stages_of(command))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: mu range must be positive") \
        and len(err.splitlines()) == 1


@pytest.mark.parametrize("bound", ["min", "max"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["sweep", "resonance-scan"])
def test_non_finite_mu_bound_is_refused(capsys, command, bad, bound):
    # NaN and inf pass the ordering check; both commands must refuse the
    # range before writing any row.
    given = {"min": "0.01", "max": "0.02", bound: bad}
    code, out, err = run_cli(capsys, command, f"--mu-min={given['min']}",
                             f"--mu-max={given['max']}", "--steps", "3",
                             *stages_of(command))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: mu range must be finite") \
        and len(err.splitlines()) == 1


@pytest.mark.parametrize("joined", [True, False], ids=["equals", "token"])
@pytest.mark.parametrize("bound", ["min", "max"])
@pytest.mark.parametrize("bad", ["-inf", "-nan"])
@pytest.mark.parametrize("command", ["sweep", "resonance-scan"])
def test_negative_non_finite_mu_bound_reaches_the_range_check(
        capsys, command, bad, bound, joined):
    # '-inf' and '-nan' start like an option; given as the next token they
    # must still reach the mu-range check, as they do after '='.
    given = {"min": "0.01", "max": "0.02", bound: bad}
    bounds = []
    for flag in ("min", "max"):
        bounds += ([f"--mu-{flag}={given[flag]}"] if joined
                   else [f"--mu-{flag}", given[flag]])
    code, out, err = run_cli(capsys, command, *bounds, "--steps", "3",
                             *stages_of(command))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: mu range must be finite") \
        and len(err.splitlines()) == 1


@pytest.mark.parametrize("mu_min, message", [
    ("inf", "mu range must be finite, got mu_min=inf mu_max=0.02"),
    ("-0.01", "mu range must be positive, got mu_min=-0.01")],
    ids=["inf", "negative"])
@pytest.mark.parametrize("command", ["sweep", "resonance-scan"])
def test_a_bad_range_reads_the_same_from_a_config_file(tmp_path, capsys,
                                                       command, mu_min,
                                                       message):
    # the message names the range by its keys, however they were set
    path = tmp_path / "run.cfg"
    path.write_text(f"mu_min={mu_min}\nmu_max=0.02\nsteps=3\n")
    refused = (EXIT_CONFIG, "", f"error: {message}\n")
    assert run_cli(capsys, command, "--mu-min", mu_min, "--mu-max", "0.02",
                   "--steps", "3", *stages_of(command)) == refused
    assert run_cli(capsys, command, "--config", str(path),
                   *stages_of(command)) == refused


@pytest.mark.parametrize("command", ["sweep", "resonance-scan"])
def test_range_from_a_config_file_equals_the_flags(tmp_path, capsys, command):
    path = tmp_path / "run.cfg"
    path.write_text("mu_min=0.005\nmu_max=0.02\nsteps=3\n")
    flags = run_cli(capsys, command, "--mu-min", "0.005", "--mu-max", "0.02",
                    "--steps", "3", *stages_of(command))
    assert flags[0] == EXIT_OK and len(flags[1].splitlines()) > 3
    assert run_cli(capsys, command, "--config", str(path),
                   *stages_of(command)) == flags


@pytest.mark.parametrize("missing", RANGE)
@pytest.mark.parametrize("command", ["sweep", "resonance-scan"])
def test_a_missing_range_value_exits_2(capsys, command, missing):
    given = {"mu_min": "0.01", "mu_max": "0.02", "steps": "2"}
    argv = [arg for key, value in given.items() if key != missing
            for arg in (flag_of(key), value)]
    assert run_cli(capsys, command, *argv, *stages_of(command)) == (
        EXIT_CONFIG, "", f"error: {missing} is required\n")
    with pytest.raises(ConfigError, match=f"^{missing} is required$"):
        RunConfig(**{key: float(value) for key, value in given.items()
                     if key != missing}).grid(0)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_flag_reads_a_value_that_starts_with_a_dash(command,
                                                          monkeypatch):
    # every flag takes the next token, so '-1e-3', '-inf' or '--help' is
    # its value and not a flag of its own
    read = []
    monkeypatch.setattr(cli, "set_value",
                        lambda config, key, value, command: read.append(
                            (key, value)))
    for flag, key in FLAGS.items():
        if key in COMMANDS[command][2]:
            for value in ("-1e-3", "-inf", "--help", "-h"):
                read.clear()
                assert config_from_argv(command, [flag, value]) is not None
                assert read == [(key, value)]
    if "tol.moser" in COMMANDS[command][2]:
        read.clear()
        config_from_argv(command, ["--tol", "moser=-1e-3"])
        assert read == [("tol.moser", "-1e-3")]


@pytest.mark.parametrize("argv, message", [
    (("verify", "--mu", "0.01", "--a2", "-1e-3", "--stages", "b1"),
     "A2 must be finite and non-negative, got -0.001"),
    (("verify", "--mu", "-inf", "--stages", "b1"),
     "mu must lie in (0, 1/2], got -inf"),
    (("sweep", "--mu-min", "-inf", "--mu-max", "0.02", "--steps", "2",
      "--stages", "b1"), "mu range must be finite, got mu_min=-inf "
                         "mu_max=0.02"),
], ids=["a2", "mu", "mu-min"])
def test_a_dash_value_reaches_the_settings_check(capsys, argv, message):
    assert run_cli(capsys, *argv) == (EXIT_CONFIG, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--mu", "0.01", "--stages", "b1", "--form", "csv"), "--form"),
    (("sweep", "--mu-min", "0.01", "--mu-max", "0.02", "--step", "2",
      "--stages", "b1"), "--step"),
    (("sweep", "--mu_min=0.01", "--mu-max", "0.02", "--steps", "2",
      "--stages", "b1"), "--mu_min"),
], ids=["form", "sweep-step", "sweep-mu_min"])
def test_an_abbreviated_flag_is_refused(capsys, argv, flag):
    # a flag is matched exactly, as a config file key is
    assert run_cli(capsys, *argv) == (
        EXIT_CONFIG, "", f"error: unknown flag {flag!r}\n")


@pytest.mark.parametrize("argv, message", [
    ((), "expected a command or --help, got ''"),
    (("bogus",), "expected a command or --help, got 'bogus'"),
    (("verify", "--mu"), "--mu expects a value"),
    (("verify", "0.01"), "unexpected argument '0.01'"),
    (("verify", "--mu_min", "1"), "unknown flag '--mu_min'"),
    (("verify", "--"), "unknown flag '--'"),
    (("verify", "--mu", "0.01", "-h1"), "unexpected argument '-h1'"),
    (("verify", "--tol", "residual"), "--tol expects name=value, got 'residual'"),
], ids=["empty", "bogus", "no-value", "positional", "underscore", "dashes",
        "short", "tol-no-name"])
def test_a_malformed_command_line_exits_2(capsys, argv, message):
    # one line on stderr, nothing on stdout, and no exception escapes
    assert run_cli(capsys, *argv) == (EXIT_CONFIG, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, command", [
    (("--help",), ""), (("-h",), ""), (("verify", "--help"), "verify"),
    (("sweep", "-h"), "sweep"),
    (("equilibria", "--mu", "0.01", "--help", "--bogus"), "equilibria")],
    ids=["help", "h", "verify", "sweep", "after-a-flag"])
def test_help_prints_on_stdout_and_exits_0(capsys, argv, command):
    # read where a flag can stand, before anything after it
    assert run_cli(capsys, *argv) == (EXIT_OK, help_text(command), "")


def test_help_as_a_value_is_the_flags(tmp_path, monkeypatch, capsys):
    # where a value stands, --help is that value: here the output prefix
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "equilibria", "--mu", "0.01", "--out", "--help") \
        == (EXIT_OK, "--help-equilibria.csv\n", "")
    assert (tmp_path / "--help-equilibria.csv").read_text().startswith("method,")


def _out_of_domain_argv():
    """Each subcommand at negative, zero and huge mass ratios, at a tiny
    drag constant (which resonance-scan, reading no physics, refuses), and
    the two range commands at empty and negative step counts."""
    drag = ("--q1", "0.999", "--cd")
    for command in ("equilibria", "frequencies", "verify"):
        stages = ("--stages", "b1") if command == "verify" else ()
        for mu in ("-0.01", "0", "1e300"):
            yield (command, "--mu", mu, *stages)
        for cd in ("1e-300", "1e-12"):
            yield (command, "--mu", "0.01", *drag, cd, *stages)
    for command in ("resonance-scan", "sweep"):
        stages = ("--stages", "b1") if command == "sweep" else ()
        for low, high in (("-0.01", "0.01"), ("0", "0.01"), ("0.01", "1e300"),
                          ("-1e300", "1e300")):
            yield (command, "--mu-min", low, "--mu-max", high, "--steps", "3",
                   *stages)
        for steps in ("0", "-3"):
            yield (command, "--mu-min", "0.01", "--mu-max", "0.02",
                   "--steps", steps, *stages)
        yield (command, "--mu-min", "0.01", "--mu-max", "0.02", "--steps",
               "3", *drag, "1e-300", *stages)


@pytest.mark.filterwarnings("ignore:.*first-order series lose accuracy")
@pytest.mark.parametrize("argv", list(_out_of_domain_argv()), ids=" ".join)
def test_out_of_domain_numbers_end_in_an_exit_code(capsys, argv):
    # no exception escapes `main`: each run succeeds or ends in a typed
    # refusal that the exit code names
    code, out, _ = run_cli(capsys, *argv)
    if argv[0] == "resonance-scan" and "--cd" in argv:
        assert (code, out) == (EXIT_CONFIG, "")
    else:
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_GATE, EXIT_PIPELINE)


# A value each key parses, and a run of each command that reads no key.
KEY_VALUES = {"mu": "0.01", "q1": "0.999", "epsilon": "0.001", "a2": "1e-4",
              "cd": "20", "branch": "L5", "stages": "b1", "out": "run",
              "format": "csv", "mu_min": "0.01", "mu_max": "0.02", "steps": "2",
              **{key: "0.002" for key in KEYS if "." in key}}
BARE_RUNS = {"equilibria": (), "frequencies": (), "verify": (),
             "resonance-scan": ("--mu-min", "0.01", "--mu-max", "0.02",
                                "--steps", "2"),
             "sweep": ("--mu-min", "0.01", "--mu-max", "0.02", "--steps", "2")}
UNREAD = [(command, key) for command, (_, _, reads) in COMMANDS.items()
          for key in KEYS if key not in reads]


def as_flag(key):
    _, _, tol = key.partition(".")
    return ("--tol", f"{tol}={KEY_VALUES[key]}") if tol else (
        flag_of(key), KEY_VALUES[key])


def test_each_command_reads_its_row():
    physics = {"q1", "epsilon", "a2", "cd", "branch"}
    tolerances = {key for key in KEYS if key.startswith("tol.")}
    assert {command: set(reads) for command, (_, _, reads)
            in COMMANDS.items()} == {
        "equilibria": {"mu", *physics, "out"},
        "frequencies": {"mu", *physics, "tol.moser", "out"},
        "verify": set(KEYS) - set(RANGE),
        "resonance-scan": {*RANGE, "tol.moser", "out"},
        "sweep": {*physics, *RANGE, "stages", *tolerances, "out"}}
    # 49 settable values of 85, 36 refused; the range was settable by flag
    # before it joined the settings
    assert len(KEYS) == 17 and len(UNREAD) == 36


def test_each_flag_is_a_key_the_command_reads():
    # one flag per setting, --tol for the tol.* keys, and --config; the
    # help lists each of them where the command reads the key and no other
    assert FLAGS == {flag_of(key): key for key in SETTINGS}
    for command, (_, _, reads) in COMMANDS.items():
        listed = [line.split()[:2] for line in help_text(command).splitlines()[1:]]
        assert listed == [*([flag, "VALUE"] for flag, key in FLAGS.items()
                            if key in reads),
                          *(["--tol", f"{key[len('tol.'):]}=VALUE"]
                            for key in reads if key.startswith("tol.")),
                          ["--config", "FILE"]]
    listed = [line.split()[0] for line in help_text().splitlines()[1:]]
    assert listed == list(COMMANDS)


@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("command, key", UNREAD)
def test_a_key_the_command_does_not_read_exits_2(tmp_path, capsys, command,
                                                 key, where):
    # one reader refuses it, by the same words: a config line's error
    # names its line
    if where == "flag":
        argv, line = as_flag(key), ""
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={KEY_VALUES[key]}\n")
        argv, line = ("--config", str(path)), "line 1: "
    assert run_cli(capsys, command, *BARE_RUNS[command], *argv) == (
        EXIT_CONFIG, "", f"error: {line}{command} does not read {key}\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_key_the_command_reads_is_taken(command):
    for key in COMMANDS[command][2]:
        for config in (config_from_argv(command, as_flag(key)),
                       parse_config_text(f"{key}={KEY_VALUES[key]}\n",
                                         command=command)):
            _, _, tol = key.partition(".")
            assert {*config.tol, *vars(config)} - {"tol"} == {tol or key}


def test_each_setting_default_has_one_owner():
    # SETTINGS holds each setting's parser, default and help; RunConfig's
    # class body assigns no setting, and a fresh config reads each default
    # from the table while its instance holds only what a run set
    (body,) = ast.parse(inspect.getsource(RunConfig)).body
    assigned = {target.id for node in body.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in getattr(node, "targets", [node.target])
                if isinstance(target, ast.Name)}
    assert assigned & SETTINGS.keys() == set()
    config = RunConfig()
    assert vars(config) == {"tol": {}}
    for key, (parse, default, text) in SETTINGS.items():
        assert callable(parse) and isinstance(text, str)
        assert getattr(config, key) is default


class TestSweep:
    def test_typed_error_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--mu-min", "0.0242",
                               "--mu-max", "0.0244", "--steps", "5",
                               "--stages", "b1")
        assert code == EXIT_OK
        errors = [r.split(",") for r in out.splitlines()[1:] if ",error:" in r]
        assert len(errors) == 1
        assert errors[0][1:] == ["error:ResonanceError"] + [""] * 5

    def test_grid_mu_outside_the_model_is_a_config_error_row(self, capsys):
        # each grid point builds its parameters from the config at its own
        # mu: past 1/2 the row names the config error; a setting that is
        # wrong at every mu, as q1 and epsilon both given, exits 2 before
        # the first row
        code, out, _ = run_cli(capsys, "sweep", "--mu-min", "0.49",
                               "--mu-max", "0.51", "--steps", "3",
                               "--stages", "b1")
        assert code == EXIT_OK
        assert [r.split(",")[1] for r in out.splitlines()[1:]] == [
            "error:StabilityDomainError"] * 2 + ["error:ConfigError"]
        assert run_cli(capsys, "sweep", "--mu-min", "0.01", "--mu-max", "0.02",
                       "--steps", "2", "--q1", "0.99", "--epsilon", "0.01",
                       "--stages", "b1") == (
            EXIT_CONFIG, "", "error: give q1 or epsilon, not both\n")

    @pytest.mark.parametrize("setting, message", [
        (("--q1", "0.99", "--epsilon", "0.01"), "give q1 or epsilon, not both"),
        (("--cd", "0"), "cd must be positive, got 0.0"),
        (("--q1", "nan"), "q1 must lie in (0, 1], got nan"),
        (("--mu-min", "0.6", "--mu-max", "0.7"),
         "mu must lie in (0, 1/2], got 0.6"),
    ], ids=["q1-and-epsilon", "cd-zero", "q1-nan", "mu-past-one-half"])
    def test_a_setting_wrong_at_every_mu_exits_before_any_row(
            self, capsys, setting, message):
        # the same refusal as verify's at one point, and no row
        code, out, err = run_cli(capsys, "sweep", "--mu-min", "0.01",
                                 "--mu-max", "0.02", "--steps", "2",
                                 "--stages", "b1", *setting)
        assert (code, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")

    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--mu-min", "0.005",
                               "--mu-max", "0.02", "--steps", "3",
                               "--stages", "b1")
        assert code == EXIT_OK
        rows = out.splitlines()
        assert rows[0].startswith("mu,omega1")
        assert len(rows) == 4
        assert all(r.endswith("pass") for r in rows[1:])


class TestVerifyCsvFormat:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mu", "0.01",
                               "--stages", "b1", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(l.startswith("gate.b1-residual,pass") for l in lines)
        assert any(l.startswith("gap.j.J13,") for l in lines)

    @pytest.mark.parametrize("branch", ["L4", "L5"])
    def test_csv_runs_no_detector(self, capsys, branch):
        # The detector's W1 leg fails Newton at this mu; CSV prints no
        # verdicts, so the call ends on the chain's gates alone.
        detect_discrepancies.cache_clear()
        code, out, err = run_cli(capsys, "verify", "--mu", "0.000954",
                                 "--stages", "h3", "--branch", branch,
                                 "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert "gate.h3-vanishing,pass" in out.splitlines()
        assert "gap.forcing.partial_only" in out
        info = detect_discrepancies.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
        code, out, _ = run_cli(capsys, "verify", "--mu", "0.01215",
                               "--stages", "h3", "--branch", branch)
        assert code == EXIT_OK and "[series-vs-oracle]" in out
        assert detect_discrepancies.cache_info().currsize == 1

    @pytest.mark.parametrize("branch,drag", [("L4", False), ("L5", True)])
    def test_b2_csv_prints_the_partial_forcing_gap(self, capsys, branch, drag):
        # The audit owns the gap from the b2 stage on, so a b2 run prints it.
        p = (ModelParams(mu=0.01215, q1=0.999, A2=1e-4, cd=20.0) if drag
             else ModelParams(mu=0.01215))
        argv = ["verify", "--mu", "0.01215", "--stages", "b2",
                "--branch", branch, "--format", "csv"]
        if drag:
            argv += ["--q1", "0.999", "--a2", "1e-4", "--cd", "20"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        gap = partial_forcing_gap(run_pipeline(
            p, PipelineOptions(branch=branch), stages=("b2",)))
        assert f"gap.forcing.partial_only,{fmt(gap)}" in out.splitlines()

    def test_bad_format_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--mu", "0.01",
                               "--config", "/nonexistent/x.cfg")
        assert code == EXIT_CONFIG


def test_domain_errors_share_the_exit_4_class():
    for cls in (errors.ResonanceError, errors.SmallDivisorError,
                errors.StabilityDomainError, errors.CriticalTermError):
        assert issubclass(cls, errors.DomainError)
    for cls in (errors.ConvergenceError, errors.ParameterError,
                errors.ConfigError):
        assert not issubclass(cls, errors.DomainError)
