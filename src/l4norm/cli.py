"""Batch front door: parameter configs, pipeline runs, sweeps, CSV output.

Exit codes: 0 success, 2 configuration or solver failure, 3 verification
gate failure, 4 domain error (`DomainError`: resonance, small divisor,
stability domain, critical term).  All numbers are serialized with 17
significant digits; row order is deterministic.
"""

from __future__ import annotations

import math
import os
import sys

from . import verify
from .dalembert import moser_check
from .errors import ConfigError, DomainError, L4NormError, StabilityDomainError
from .model import BRANCHES, ModelParams
from .normalform import classical_frequencies, frequencies
from .verify import PipelineOptions, fmt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_PIPELINE = 4


class RunConfig:
    """A run's settings: the keys of `SETTINGS` and the tolerance
    overrides `tol`, by `verify.TOLERANCES` name.  The instance holds only
    the settings a run set; the class holds each default of `SETTINGS`."""

    def __init__(self, **settings):
        unknown = settings.keys() - {*SETTINGS, "tol"}
        if unknown:
            raise TypeError(f"unknown settings {sorted(unknown)}")
        self.tol = {}
        vars(self).update(settings)

    def params(self, mu: float | None = None) -> ModelParams:
        """The model parameters, at `mu` in place of the config's if given."""
        mu = self.mu if mu is None else mu
        if mu is None:
            raise ConfigError("mu is required")
        if self.q1 is not None and self.epsilon is not None:
            raise ConfigError("give q1 or epsilon, not both")
        q1 = 1.0 if self.q1 is None else self.q1
        if self.epsilon is not None:
            # refused in its own words, not as the q1 it gives
            if not 0.0 <= self.epsilon < 1.0:  # NaN fails this too
                raise ConfigError(f"epsilon must lie in [0, 1), got {self.epsilon}")
            q1 = 1.0 - self.epsilon
        try:
            return ModelParams(mu=mu, q1=q1, A2=self.a2, cd=self.cd)
        except L4NormError as err:
            raise ConfigError(str(err)) from err

    def options(self) -> PipelineOptions:
        return PipelineOptions(branch=self.branch, **{
            verify.TOLERANCES[name]: value for name, value in self.tol.items()})

    def grid(self, least_steps: int) -> list:
        """`steps` evenly spaced mass ratios from mu_min to mu_max;
        ConfigError, before any row, unless the range is given, finite and
        positive, in order, and has at least `least_steps` steps."""
        for key in RANGE:
            if getattr(self, key) is None:
                raise ConfigError(f"{key} is required")
        mu_min, mu_max, steps = self.mu_min, self.mu_max, self.steps
        if not (math.isfinite(mu_min) and math.isfinite(mu_max)):
            raise ConfigError(f"mu range must be finite, got mu_min={mu_min!r} "
                              f"mu_max={mu_max!r}")
        if not mu_min > 0.0:
            raise ConfigError(f"mu range must be positive, got mu_min={mu_min!r}")
        if steps < least_steps or mu_max < mu_min:
            raise ConfigError("need mu_max >= mu_min and "
                              + ("steps > 0" if least_steps else "steps >= 0"))
        return [mu_min + (mu_max - mu_min) * i / max(steps - 1, 1)
                for i in range(steps)]


def _parse_stages(value: str) -> tuple:
    return verify.check_stages(s.strip() for s in value.split(",") if s.strip())


def _parse_format(value: str) -> str:
    if value not in ("csv", "report"):
        raise ValueError(f"must be csv or report, got {value!r}")
    return value


# Every key a config file line or a command-line flag sets: each setting's
# parser, default and flag help, then `tol.NAME` for the names in
# verify.TOLERANCES.
SETTINGS = {
    "mu": (float, None, "mass ratio of the smaller primary"),
    "q1": (float, None, "mass-reduction factor of the radiating primary"),
    "epsilon": (float, None, "1 - q1 (give q1 or epsilon)"),
    "a2": (float, 0.0, "oblateness coefficient of the smaller primary"),
    "cd": (float, 1.0, "drag normalization constant"),
    "branch": (str, "L4", " or ".join(BRANCHES)),
    "stages": (_parse_stages, verify.STAGES,
               "comma list from " + ",".join(verify.STAGES)),
    "out": (str, None, "output path prefix"),
    "format": (_parse_format, "report", "csv or report"),
    "mu_min": (float, None, "smallest mass ratio of the range"),
    "mu_max": (float, None, "largest mass ratio of the range"),
    "steps": (int, None, "number of mass ratios in the range"),
}
# A run reads each setting it did not set from here, through the class.
for key, (_, default, _) in SETTINGS.items():
    setattr(RunConfig, key, default)
RANGE = ("mu_min", "mu_max", "steps")
KEYS = (*SETTINGS, *(f"tol.{name}" for name in verify.TOLERANCES))
# A setting's flag, `--` and its key with `_` written as `-`, and every flag.
FLAGS = {"--" + key.replace("_", "-"): key for key in SETTINGS}
FLAG_NAMES = frozenset((*FLAGS, "--tol", "--config"))
HELP = ("-h", "--help")


def set_value(config: RunConfig, key: str, value: str,
              command: str = "verify") -> None:
    """Parse one key=value setting onto the config; ConfigError if the key
    is unknown or not read by `command`, or the value malformed."""
    if key not in READS[command]:
        raise ConfigError(f"{command} does not read {key}" if key in KEYS
                          else f"unknown key {key!r}")
    tol = key.startswith("tol.")
    try:
        parsed = (float if tol else SETTINGS[key][0])(value)
    except (ValueError, L4NormError) as err:
        raise ConfigError(f"{key}: {err}") from err
    if tol:
        config.tol[key[len("tol."):]] = parsed
    else:
        setattr(config, key, parsed)


def parse_config_text(text: str, config: RunConfig | None = None,
                      command: str = "verify") -> RunConfig:
    config = config or RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        try:
            set_value(config, key.strip(), value.strip(), command)
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: {err}") from err
    return config


def config_from_argv(command: str, tokens) -> RunConfig | None:
    """The settings of `--flag VALUE` and `--flag=VALUE` tokens, each pair
    read by `set_value` as a config file line is, over those of the
    `--config` file: a flag for q1 or epsilon, one quantity, replaces the
    file's of either.  None if `-h` or `--help` stands where a flag can."""
    pairs, path, rest = [], None, iter(tokens)
    for token in rest:
        if token in HELP:
            return None
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        flag, joined, value = token.partition("=")
        if flag not in FLAG_NAMES:
            raise ConfigError(f"unknown flag {flag!r}")
        if not joined and (value := next(rest, None)) is None:
            raise ConfigError(f"{flag} expects a value")
        if flag == "--config":
            path = value
        elif flag == "--tol":
            name, joined, value = value.partition("=")
            if not joined:
                raise ConfigError(f"--tol expects name=value, got {name!r}")
            pairs.append((f"tol.{name}", value))
        else:
            pairs.append((FLAGS[flag], value))
    config = RunConfig()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                parse_config_text(handle.read(), config, command)
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: {err}") from err
    if any(key in ("q1", "epsilon") for key, _ in pairs):
        vars(config).pop("q1", None)
        vars(config).pop("epsilon", None)
    for key, value in pairs:
        set_value(config, key, value, command)
    return config


# A new or truncated output file, its bytes written untranslated.
WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _emit(text: str, config: RunConfig, suffix: str) -> None:
    if config.out:
        path = f"{config.out}-{suffix}"
        data = memoryview(text.encode("utf-8"))
        fd = os.open(path, WRITE_FLAGS, 0o666)
        try:
            while data:  # a short write leaves the rest for the next
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        print(path)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------


def cmd_equilibria(config: RunConfig) -> int:
    result = verify.run_pipeline(config.params(), config.options(),
                                 stages=("equilibria",))
    printed = verify.report_audit(result)
    _emit(verify.EQUILIBRIA_CSV % verify.equilibria_values(result, printed) + "\n",
          config, "equilibria.csv")
    if printed.series_outside_domain:
        print(f"series.outside_domain: {printed.series_outside_domain}",
              file=sys.stderr)
    return EXIT_OK


def cmd_frequencies(config: RunConfig) -> int:
    p = config.params()
    options = config.options()
    efg = verify.run_pipeline(p, options, stages=("taylor",)).efg
    w = frequencies(p, efg)
    values = verify.frequency_values(w, moser_check(w, tol=options.moser_tol))
    _emit(verify.FREQUENCY_LINES % values + "\n", config, "frequencies.txt")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    p = config.params()
    options = config.options()
    result = verify.run_pipeline(p, options, stages=config.stages)
    audited = verify.audit if config.format == "csv" else verify.report_audit
    printed = audited(result)
    verdicts = None
    if config.format == "report" and "b2" in result.stages:
        verdicts = verify.detect_discrepancies(p.mu, options)
    gates = result.gates()
    if config.format == "csv":
        lines = ["key,value"]
        for name, ok in gates.items():
            lines.append(f"gate.{name},{fmt(ok)}")
        for key in sorted(printed.gaps):
            lines.append(f"gap.{key},{fmt(printed.gaps[key])}")
        _emit("\n".join(lines) + "\n", config, "verify.csv")
    else:
        text = verify.render_report(result, printed, gates, verdicts)
        _emit(text, config, "verify.txt")
    for name, passed in gates.items():
        if not passed:
            print(f"gate failed: {name}", file=sys.stderr)
            return EXIT_GATE
    return EXIT_OK


def cmd_resonance_scan(config: RunConfig) -> int:
    grid = config.grid(0)
    lines = ["mu,omega1,omega2,min_combination,worst_pair,pass"]
    unstable = 0
    tol = config.options().moser_tol
    for mu in grid:
        try:
            w = classical_frequencies(mu)
        except StabilityDomainError:
            unstable += 1
            lines.append(f"{fmt(mu)},unstable,unstable,,,")
            continue
        rep = moser_check(w, tol=tol)
        pair = f"{rep.worst_pair[0]}:{rep.worst_pair[1]}"
        lines.append(f"{fmt(mu)},{fmt(w.omega1)},{fmt(w.omega2)},"
                     f"{fmt(rep.min_combination)},{pair},{fmt(rep.passed)}")
    lines.append("")
    lines.append("resonance,k,mu")
    critical = verify.locate_classical_resonance(1)
    for k in (2, 3):
        mu_k = verify.locate_classical_resonance(k)
        if max(config.mu_min, 1e-4) <= mu_k <= min(config.mu_max, critical):
            lines.append(f"omega1={k}omega2,{k},{fmt(mu_k)}")
    _emit("\n".join(lines) + "\n", config, "resonance-scan.csv")
    if unstable:
        print(f"warning: {unstable} scan points beyond the critical mass "
              "ratio", file=sys.stderr)
    return EXIT_OK


def _sweep_row(stages: tuple) -> str:
    """The `%` template of a sweep row after `stages`: `%.17g` (`fmt` of a
    float) for mu, each value those stages form and the scale, an empty
    field for each value they do not form, `%s` for the verdict."""
    fields = [("%.17g" if stage in stages else "")
              for stage in ("b1", "b1", "b1", "b2", "h3")]
    return ",".join(["%.17g", *fields, "%.17g", "%s"])


def cmd_sweep(config: RunConfig) -> int:
    grid = config.grid(1)
    options = config.options()
    config.params(grid[0])  # a setting wrong at every mu exits before any row
    lines = ["mu,omega1,omega2,b1_residual,b2_residual,h3_max,scale,gates"]
    stages = verify.stages_through(config.stages)
    row = _sweep_row(stages)
    for mu in grid:
        try:
            res = verify.run_pipeline(config.params(mu), options,
                                      stages=config.stages)
        except L4NormError as err:
            lines.append(f"{fmt(mu)},error:{type(err).__name__},,,,,")
            continue
        values = [mu]
        if "b1" in stages:
            values += (*res.freq, res.b1_residual)
        if "b2" in stages:
            values.append(max(res.b2_residuals))
        if "h3" in stages:
            values.append(res.h3_max())
        values += (res.intermediate_scale(),
                   "pass" if all(res.gates().values()) else "FAIL")
        lines.append(row % tuple(values))
    _emit("\n".join(lines) + "\n", config, "sweep.csv")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------

PHYSICS = ("q1", "epsilon", "a2", "cd", "branch")

# Each command: its function, its help text and the keys of KEYS it reads.
# Its flags and its config file may set only those.
COMMANDS = {
    "equilibria": (cmd_equilibria, "triangular points three ways",
                   ("mu", *PHYSICS, "out")),
    "frequencies": (cmd_frequencies, "basic frequencies and the non-resonance "
                    "check", ("mu", *PHYSICS, "tol.moser", "out")),
    "verify": (cmd_verify, "run pipeline stages and gate on the verification "
               "criteria", tuple(key for key in KEYS if key not in RANGE)),
    "resonance-scan": (cmd_resonance_scan, "scan the classical frequency ratio "
                       "over mu", (*RANGE, "tol.moser", "out")),
    "sweep": (cmd_sweep, "pipeline sweep over a mu range",
              tuple(key for key in KEYS if key not in ("mu", "format"))),
}
# The keys each command reads, as a set.
READS = {command: frozenset(reads) for command, (_, _, reads) in COMMANDS.items()}


def help_text(command: str = "") -> str:
    """The commands with their help, or `command`'s flags with theirs."""
    rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
    if command:
        reads = COMMANDS[command][2]
        rows = [(f"{flag} VALUE", SETTINGS[key][2])
                for flag, key in FLAGS.items() if key in reads]
        rows += [(f"--tol {key[len('tol.'):]}=VALUE", "tolerance override")
                 for key in reads if key.startswith("tol.")]
        rows.append(("--config FILE", "key=value config file"))
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([f"usage: l4norm {command or 'COMMAND'} [--FLAG VALUE ...] [-h]",
                      *(f"  {name:<{width}}{text}" for name, text in rows)]) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else ""
    try:
        if command in HELP:
            sys.stdout.write(help_text())
            return EXIT_OK
        if command not in COMMANDS:
            raise ConfigError(f"expected a command or --help, got {command!r}")
        config = config_from_argv(command, argv[1:])
        if config is None:
            sys.stdout.write(help_text(command))
            return EXIT_OK
        return COMMANDS[command][0](config)
    except DomainError as err:
        print(f"pipeline error [{type(err).__name__}]: {err}", file=sys.stderr)
        return EXIT_PIPELINE
    except (L4NormError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
