"""Batch front door: parameter configs, pipeline runs, sweeps, CSV output.

Exit codes: 0 success, 2 configuration or solver failure, 3 verification
gate failure, 4 typed pipeline error (resonance, small divisor, stability
domain, critical term).  All numbers are serialized with 17 significant
digits; row order is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace

from . import verify
from .dalembert import moser_check
from .errors import (
    ConfigError,
    CriticalTermError,
    L4NormError,
    ResonanceError,
    SmallDivisorError,
    StabilityDomainError,
)
from .model import ModelParams
from .normalform import classical_frequencies, frequencies
from .verify import PipelineOptions, fmt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_PIPELINE = 4

_CONFIG_KEYS = {"mu", "q1", "epsilon", "a2", "cd", "branch", "stages",
                "out", "format"}
_TOL_KEYS = {"residual", "linear", "h3_factor", "moser", "divisor_floor"}


@dataclass
class RunConfig:
    mu: float | None = None
    q1: float | None = None
    epsilon: float | None = None
    a2: float = 0.0
    cd: float = 1.0
    branch: str = "L4"
    stages: tuple = ("equilibria", "taylor", "b1", "b2", "h3")
    out: str | None = None
    format: str = "report"
    tol: dict = field(default_factory=dict)

    def normalized(self) -> str:
        """Canonical key=value text; parsing it back reproduces the config."""
        lines = []
        for key in ("mu", "q1", "epsilon", "a2", "cd", "branch", "stages",
                    "out", "format"):
            value = getattr(self, "a2" if key == "a2" else key)
            if value is None:
                continue
            if key == "stages":
                value = ",".join(value)
            lines.append(f"{key}={fmt(value) if isinstance(value, float) else value}")
        for name in sorted(self.tol):
            lines.append(f"tol.{name}={fmt(self.tol[name])}")
        return "\n".join(lines) + "\n"

    def params(self) -> ModelParams:
        if self.mu is None:
            raise ConfigError("mu is required")
        if self.q1 is not None and self.epsilon is not None:
            raise ConfigError("give q1 or epsilon, not both")
        q1 = self.q1 if self.q1 is not None else \
            (1.0 - self.epsilon if self.epsilon is not None else 1.0)
        try:
            return ModelParams(mu=self.mu, q1=q1, A2=self.a2, cd=self.cd)
        except L4NormError as err:
            raise ConfigError(str(err)) from err

    def options(self) -> PipelineOptions:
        opts = PipelineOptions(branch=self.branch)
        mapping = {"residual": "residual_tol", "linear": "linear_tol",
                   "h3_factor": "h3_tol_factor", "moser": "moser_tol",
                   "divisor_floor": "divisor_floor"}
        overrides = {mapping[k]: v for k, v in self.tol.items()}
        return replace(opts, **overrides) if overrides else opts


def parse_config_text(text: str, config: RunConfig | None = None) -> RunConfig:
    config = config or RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("tol."):
            name = key[4:]
            if name not in _TOL_KEYS:
                raise ConfigError(f"line {lineno}: unknown tolerance {name!r}")
            config.tol[name] = float(value)
        elif key in _CONFIG_KEYS:
            if key in ("mu", "q1", "epsilon", "a2", "cd"):
                setattr(config, key, float(value))
            elif key == "stages":
                config.stages = _parse_stages(value)
            else:
                setattr(config, key, value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return config


def _parse_stages(value: str) -> tuple:
    stages = tuple(s.strip() for s in value.split(",") if s.strip())
    for s in stages:
        if s not in verify.STAGES:
            raise ConfigError(f"unknown stage {s!r} (valid: {verify.STAGES})")
    if not stages:
        raise ConfigError("empty stage list")
    return stages


def config_from_args(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            config = parse_config_text(handle.read(), config)
    for key in ("mu", "q1", "epsilon", "a2", "cd", "branch", "out", "format"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "stages", None):
        config.stages = _parse_stages(args.stages)
    for item in getattr(args, "tol", None) or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in _TOL_KEYS:
            raise ConfigError(f"unknown tolerance {name!r}")
        config.tol[name] = float(value)
    if config.branch not in ("L4", "L5"):
        raise ConfigError(f"branch must be L4 or L5, got {config.branch}")
    if config.format not in ("csv", "report"):
        raise ConfigError(f"format must be csv or report, got {config.format}")
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
    lines = verify.equilibria_csv(result, verify.audit(result))
    _emit("\n".join(lines) + "\n", config, "equilibria.csv")
    return EXIT_OK


def cmd_frequencies(config: RunConfig) -> int:
    p = config.params()
    options = config.options()
    efg = verify.run_pipeline(p, options, stages=("taylor",)).efg
    w = frequencies(p, efg)
    rep = moser_check(w, tol=options.moser_tol)
    lines = [
        f"omega1: {fmt(w.omega1)}",
        f"omega2: {fmt(w.omega2)}",
        f"moser.min_combination: {fmt(rep.min_combination)}",
        f"moser.worst_pair: {rep.worst_pair[0]},{rep.worst_pair[1]}",
        f"moser.passed: {fmt(rep.passed)}",
    ]
    _emit("\n".join(lines) + "\n", config, "frequencies.txt")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    p = config.params()
    options = config.options()
    result = verify.run_pipeline(p, options, stages=config.stages)
    printed = verify.audit(result)
    verdicts = None
    if "b2" in result.stages or "h3" in result.stages:
        verdicts = verify.detect_discrepancies(mu=p.mu, options=options)
    if config.format == "csv":
        lines = ["key,value"]
        for name, ok in result.gates().items():
            lines.append(f"gate.{name},{fmt(ok)}")
        for key in sorted(printed.gaps):
            lines.append(f"gap.{key},{fmt(printed.gaps[key])}")
        _emit("\n".join(lines) + "\n", config, "verify.csv")
    else:
        text = verify.render_report(result, printed, verdicts)
        _emit(text, config, "verify.txt")
    gates = result.gates()
    for name, passed in gates.items():
        if not passed:
            print(f"gate failed: {name}", file=sys.stderr)
            return EXIT_GATE
    return EXIT_OK


def cmd_resonance_scan(config: RunConfig, mu_min: float, mu_max: float,
                       steps: int) -> int:
    if steps < 0 or mu_max < mu_min:
        raise ConfigError("need mu_max >= mu_min and steps >= 0")
    lines = ["mu,omega1,omega2,min_combination,worst_pair,pass"]
    unstable = 0
    tol = config.options().moser_tol
    for i in range(steps):
        mu = mu_min + (mu_max - mu_min) * i / max(steps - 1, 1)
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
    for k in (2, 3):
        try:
            mu_k = verify.locate_classical_resonance(k, max(mu_min, 1e-4),
                                                     min(mu_max, 0.0385))
        except L4NormError:
            continue
        lines.append(f"omega1={k}omega2,{k},{fmt(mu_k)}")
    _emit("\n".join(lines) + "\n", config, "resonance-scan.csv")
    if unstable:
        print(f"warning: {unstable} scan points beyond the critical mass "
              "ratio", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(config: RunConfig, mu_min: float, mu_max: float,
              steps: int) -> int:
    if steps <= 0 or mu_max < mu_min:
        raise ConfigError("need mu_max >= mu_min and steps > 0")
    options = config.options()
    lines = ["mu,omega1,omega2,b1_residual,b2_residual,h3_max,scale,gates"]
    for i in range(steps):
        mu = mu_min + (mu_max - mu_min) * i / max(steps - 1, 1)
        cfg = replace(config, mu=mu)
        try:
            res = verify.run_pipeline(cfg.params(), options,
                                      stages=config.stages)
        except L4NormError as err:
            lines.append(f"{fmt(mu)},error:{type(err).__name__},,,,,")
            continue
        gates = res.gates()
        fields = [fmt(mu)]
        fields.append(fmt(res.freq.omega1) if res.freq else "")
        fields.append(fmt(res.freq.omega2) if res.freq else "")
        fields.append(fmt(res.b1_residual) if res.b1_residual is not None else "")
        fields.append(fmt(max(res.b2.residual_x, res.b2.residual_y))
                      if res.b2 else "")
        fields.append(fmt(res.h3.max_abs()) if res.h3 else "")
        fields.append(fmt(res.intermediate_scale()))
        fields.append("pass" if all(gates.values()) else "FAIL")
        lines.append(",".join(fields))
    _emit("\n".join(lines) + "\n", config, "sweep.csv")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l4norm",
        description="Second-order normalization at the triangular points "
                    "with radiation pressure, oblateness and drag.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--mu", type=float)
        sp.add_argument("--q1", type=float)
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--a2", type=float)
        sp.add_argument("--cd", type=float)
        sp.add_argument("--branch", choices=("L4", "L5"))
        sp.add_argument("--stages",
                        help="comma list from equilibria,taylor,b1,b2,h3")
        sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="tolerance override (residual, linear, "
                             "h3_factor, moser, divisor_floor)")
        sp.add_argument("--out", help="output path prefix")
        sp.add_argument("--format", choices=("csv", "report"))
        sp.add_argument("--config", help="key=value config file")

    common(sub.add_parser("equilibria", help="triangular points three ways"))
    common(sub.add_parser("frequencies", help="basic frequencies and the "
                                              "non-resonance check"))
    common(sub.add_parser("verify", help="run pipeline stages and gate on "
                                         "the verification criteria"))
    scan = sub.add_parser("resonance-scan", help="scan the classical "
                                                 "frequency ratio over mu")
    common(scan)
    scan.add_argument("--mu-min", type=float, required=True)
    scan.add_argument("--mu-max", type=float, required=True)
    scan.add_argument("--steps", type=int, required=True)
    sweep = sub.add_parser("sweep", help="pipeline sweep over a mu range")
    common(sweep)
    sweep.add_argument("--mu-min", type=float, required=True)
    sweep.add_argument("--mu-max", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    except (ResonanceError, SmallDivisorError, StabilityDomainError,
            CriticalTermError) as err:
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
