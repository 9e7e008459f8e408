"""Batch front door: parameter configs, pipeline runs, sweeps, CSV output.

Exit codes: 0 success, 2 configuration or solver failure, 3 verification
gate failure, 4 domain error (`DomainError`: resonance, small divisor,
stability domain, critical term).  All numbers are serialized with 17
significant digits; row order is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import verify
from .closedforms import BRANCHES
from .dalembert import moser_check
from .errors import ConfigError, DomainError, L4NormError, StabilityDomainError
from .model import ModelParams
from .normalform import classical_frequencies, frequencies
from .verify import PipelineOptions, fmt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_PIPELINE = 4


class RunConfig:
    """A run's settings: the keys of `SETTINGS` and the tolerance
    overrides `tol`, by `verify.TOLERANCES` name."""

    mu: float | None = None
    q1: float | None = None
    epsilon: float | None = None
    a2: float = 0.0
    cd: float = 1.0
    branch: str = "L4"
    stages: tuple = verify.STAGES
    out: str | None = None
    format: str = "report"

    def __init__(self, **settings):
        unknown = settings.keys() - {*SETTINGS, "tol"}
        if unknown:
            raise TypeError(f"unknown settings {sorted(unknown)}")
        self.tol = {}
        vars(self).update(settings)

    def __eq__(self, other):
        return type(other) is RunConfig and all(
            getattr(self, key) == getattr(other, key) for key in (*SETTINGS, "tol"))

    def params(self, mu: float | None = None) -> ModelParams:
        """The model parameters, at `mu` in place of the config's if given."""
        mu = self.mu if mu is None else mu
        if mu is None:
            raise ConfigError("mu is required")
        if self.q1 is not None and self.epsilon is not None:
            raise ConfigError("give q1 or epsilon, not both")
        q1 = self.q1 if self.q1 is not None else \
            (1.0 - self.epsilon if self.epsilon is not None else 1.0)
        try:
            return ModelParams(mu=mu, q1=q1, A2=self.a2, cd=self.cd)
        except L4NormError as err:
            raise ConfigError(str(err)) from err

    def options(self) -> PipelineOptions:
        return PipelineOptions(branch=self.branch, **{
            verify.TOLERANCES[name]: value for name, value in self.tol.items()})


def _parse_stages(value: str) -> tuple:
    return verify.check_stages(s.strip() for s in value.split(",") if s.strip())


def _choice(*allowed):
    """Parser and help text of a setting that takes one of `allowed`."""
    text = " or ".join(allowed)

    def parse(value: str) -> str:
        if value not in allowed:
            raise ValueError(f"must be {text}, got {value!r}")
        return value

    return parse, text


# Every key a config file line or a command-line flag sets: its parser and
# its flag help.  `tol.NAME` keys take the names in verify.TOLERANCES.
SETTINGS = {
    "mu": (float, "mass ratio of the smaller primary"),
    "q1": (float, "mass-reduction factor of the radiating primary"),
    "epsilon": (float, "1 - q1 (give q1 or epsilon)"),
    "a2": (float, "oblateness coefficient of the smaller primary"),
    "cd": (float, "drag normalization constant"),
    "branch": _choice(*BRANCHES),
    "stages": (_parse_stages, "comma list from " + ",".join(verify.STAGES)),
    "out": (str, "output path prefix"),
    "format": _choice("csv", "report"),
}


def set_value(config: RunConfig, key: str, value: str) -> None:
    """Parse one key=value setting onto the config; ConfigError if the key
    is unknown or the value malformed."""
    name = key[len("tol."):] if key.startswith("tol.") else None
    if name is not None:
        if name not in verify.TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}")
        parse = float
    elif key in SETTINGS:
        parse = SETTINGS[key][0]
    else:
        raise ConfigError(f"unknown key {key!r}")
    try:
        parsed = parse(value)
    except (ValueError, L4NormError) as err:
        raise ConfigError(f"{key}: {err}") from err
    if name is None:
        setattr(config, key, parsed)
    elif 0.0 < parsed < float("inf"):  # NaN fails this too
        config.tol[name] = parsed
    else:
        raise ConfigError(f"tolerance {name} must be finite and positive, "
                          f"got {value!r}")


def parse_config_text(text: str, config: RunConfig | None = None) -> RunConfig:
    config = config or RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        try:
            set_value(config, key.strip(), value.strip())
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: {err}") from err
    return config


def config_from_args(args) -> RunConfig:
    """The config file's settings, then each flag given on top of them."""
    config = RunConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config = parse_config_text(handle.read(), config)
    for key in SETTINGS:
        value = getattr(args, key)
        if value is not None:
            set_value(config, key, value)
    for item in args.tol or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        set_value(config, f"tol.{name}", value)
    return config


def _emit(text: str, config: RunConfig, suffix: str) -> None:
    if config.out:
        path = f"{config.out}-{suffix}"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(path)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------


def cmd_equilibria(config: RunConfig) -> int:
    result = verify.run_pipeline(config.params(), config.options(),
                                 stages=("equilibria",))
    printed = verify.report_audit(result)
    _emit("\n".join(verify.equilibria_csv(result, printed)) + "\n", config,
          "equilibria.csv")
    if printed.series_outside_domain:
        print(f"series.outside_domain: {printed.series_outside_domain}",
              file=sys.stderr)
    return EXIT_OK


def cmd_frequencies(config: RunConfig) -> int:
    p = config.params()
    options = config.options()
    efg = verify.run_pipeline(p, options, stages=("taylor",)).efg
    w = frequencies(p, efg)
    lines = verify.frequency_lines(w, moser_check(w, tol=options.moser_tol))
    _emit("\n".join(lines) + "\n", config, "frequencies.txt")
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


def _check_mu_range(mu_min: float, mu_max: float) -> None:
    """ConfigError unless both bounds of the mu range are finite and mu_min
    is positive; both range commands check here, before any row."""
    if not (math.isfinite(mu_min) and math.isfinite(mu_max)):
        raise ConfigError(f"mu range must be finite, got --mu-min {mu_min!r} "
                          f"--mu-max {mu_max!r}")
    if not mu_min > 0.0:
        raise ConfigError(f"mu range must be positive, got --mu-min {mu_min!r}")


def _mu_grid(mu_min: float, mu_max: float, steps: int) -> list:
    """`steps` evenly spaced mass ratios from mu_min to mu_max."""
    return [mu_min + (mu_max - mu_min) * i / max(steps - 1, 1)
            for i in range(steps)]


def cmd_resonance_scan(config: RunConfig, mu_min: float, mu_max: float,
                       steps: int) -> int:
    _check_mu_range(mu_min, mu_max)
    if steps < 0 or mu_max < mu_min:
        raise ConfigError("need mu_max >= mu_min and steps >= 0")
    lines = ["mu,omega1,omega2,min_combination,worst_pair,pass"]
    unstable = 0
    tol = config.options().moser_tol
    for mu in _mu_grid(mu_min, mu_max, steps):
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
        if max(mu_min, 1e-4) <= mu_k <= min(mu_max, critical):
            lines.append(f"omega1={k}omega2,{k},{fmt(mu_k)}")
    _emit("\n".join(lines) + "\n", config, "resonance-scan.csv")
    if unstable:
        print(f"warning: {unstable} scan points beyond the critical mass "
              "ratio", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(config: RunConfig, mu_min: float, mu_max: float,
              steps: int) -> int:
    _check_mu_range(mu_min, mu_max)
    if steps <= 0 or mu_max < mu_min:
        raise ConfigError("need mu_max >= mu_min and steps > 0")
    options = config.options()
    lines = ["mu,omega1,omega2,b1_residual,b2_residual,h3_max,scale,gates"]
    for mu in _mu_grid(mu_min, mu_max, steps):
        try:
            res = verify.run_pipeline(config.params(mu), options,
                                      stages=config.stages)
        except L4NormError as err:
            lines.append(f"{fmt(mu)},error:{type(err).__name__},,,,,")
            continue
        gates = res.gates()
        fields = [fmt(mu)]
        fields.append(fmt(res.freq.omega1) if res.freq else "")
        fields.append(fmt(res.freq.omega2) if res.freq else "")
        fields.append(fmt(res.b1_residual) if res.b1_residual is not None else "")
        fields.append(fmt(max(res.b2_residuals)) if res.b2 else "")
        fields.append(fmt(res.h3.max_abs()) if res.h3 else "")
        fields.append(fmt(res.intermediate_scale()))
        fields.append("pass" if all(gates.values()) else "FAIL")
        lines.append(",".join(fields))
    _emit("\n".join(lines) + "\n", config, "sweep.csv")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------

MU_BOUNDS = ("--mu-min", "--mu-max")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and the
    `--tol` list is made anew by every parse."""
    parser = argparse.ArgumentParser(
        prog="l4norm",
        description="Second-order normalization at the triangular points "
                    "with radiation pressure, oblateness and drag.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        for key, (_, text) in SETTINGS.items():
            sp.add_argument(f"--{key}", help=text)
        sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="tolerance override "
                             f"({', '.join(verify.TOLERANCES)})")
        sp.add_argument("--config", help="key=value config file")

    def mu_range(sp):
        for flag in MU_BOUNDS:
            sp.add_argument(flag, type=float, required=True)
        sp.add_argument("--steps", type=int, required=True)

    common(sub.add_parser("equilibria", help="triangular points three ways"))
    common(sub.add_parser("frequencies", help="basic frequencies and the "
                                              "non-resonance check"))
    common(sub.add_parser("verify", help="run pipeline stages and gate on "
                                         "the verification criteria"))
    scan = sub.add_parser("resonance-scan", help="scan the classical "
                                                 "frequency ratio over mu")
    common(scan)
    mu_range(scan)
    sweep = sub.add_parser("sweep", help="pipeline sweep over a mu range")
    common(sweep)
    mu_range(sweep)
    return parser


def _attach_bounds(argv: list) -> list:
    """`--mu-min -inf` as `--mu-min=-inf`: argparse reads a bound that
    starts with '-' and is no plain negative number, such as '-inf' or
    '-nan', as an option of its own."""
    out = []
    for token in argv:
        if out and out[-1] in MU_BOUNDS and token.startswith("-"):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_bounds(sys.argv[1:] if argv is None else argv))
    try:
        config = config_from_args(args)
        if args.command == "equilibria":
            return cmd_equilibria(config)
        if args.command == "frequencies":
            return cmd_frequencies(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "resonance-scan":
            return cmd_resonance_scan(config, args.mu_min, args.mu_max,
                                      args.steps)
        if args.command == "sweep":
            return cmd_sweep(config, args.mu_min, args.mu_max, args.steps)
        raise ConfigError(f"unknown command {args.command}")
    except DomainError as err:
        print(f"pipeline error [{type(err).__name__}]: {err}", file=sys.stderr)
        return EXIT_PIPELINE
    except L4NormError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
