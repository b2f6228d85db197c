"""Command-line interface.

Subcommands reproduce every shipped dataset: topology, the four loss
sweeps, curve fitting, packet-size prediction, and the adaptation trace.
Exit codes: 0 success, 2 configuration error, 3 domain/math error,
4 non-termination.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from fanetsim.adaptation import NonTerminationError, run_adaptation
from fanetsim.config import (
    ConfigError,
    RunConfig,
    adaptation_policy,
    area_spec,
    config_to_dict,
    curve_family,
    parse_config,
    sweep_spec,
)
from fanetsim.curves import fit_family_from_power_sweep, predict_with_oracle
from fanetsim.output import OutputFormat, emit_table, write_document
from fanetsim.sweeps import SweepAxis, run_sweep
from fanetsim.topology import generate_topology, serialize_topology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NONTERMINATION = 4

_SUBCOMMANDS = (
    ("topology", "generate the UAV constellation document"),
    ("sweep-power", "loss vs packet size for each transmit power"),
    ("sweep-frequency", "loss vs packet size for each carrier frequency"),
    ("sweep-area", "loss vs packet size for each flight-area side length"),
    ("sweep-count", "loss vs packet size for each swarm size"),
    ("fit", "fit log-loss curves to the power sweep"),
    ("predict", "packet size for a target loss and power"),
    ("adapt", "run the adaptive-transmission controller"),
)
_SWEEP_AXES = {
    "sweep-power": SweepAxis.POWER_DBM,
    "sweep-frequency": SweepAxis.FREQUENCY_HZ,
    "sweep-area": SweepAxis.AREA_SIDE_M,
    "sweep-count": SweepAxis.UAV_COUNT,
}


def _comma_list(item: type):
    def parse(text: str) -> list:
        try:
            return [item(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {item.__name__} values, got {text!r}")

    return parse


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections exit 2 with one line, like every other config error."""

    def error(self, message: str):
        # An unrecognised argument is echoed raw and may itself hold a newline.
        self.exit(EXIT_CONFIG, "configuration error: " + message.replace("\n", "\\n") + "\n")


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    """--config, --print-config, and one --kebab-case flag per config key.

    A flag parses its key's default type (str when the default is None), or a
    comma list of the type of the default's items. Keys whose items are
    records (curves, rungs) have no flag and are set in a config file.
    """
    sub.add_argument("--config", metavar="PATH", help="JSON config file (flags take precedence)")
    sub.add_argument("--print-config", action="store_true",
                     help="print the merged effective configuration and exit")
    for key, default in RunConfig._field_defaults.items():
        flag = "--" + key.replace("_", "-")
        if not isinstance(default, tuple):
            sub.add_argument(flag, type=str if default is None else type(default))
        elif isinstance(default[0], (int, float)):
            sub.add_argument(flag, type=_comma_list(type(default[0])), metavar="V,V,...")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fanetsim",
        allow_abbrev=False,
        description="Deterministic packet-loss datasets and adaptive transmission for UAV ad-hoc networks.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        _add_config_flags(sub)
        if name == "predict":
            sub.add_argument("--loss", type=float, required=True,
                             help="target loss in percent")
            sub.add_argument("--power", type=float, required=True,
                             help="transmit power in dBm (within the curve family range)")
    return parser


def _execute(command: str, cfg: RunConfig, args: argparse.Namespace) -> str:
    if command == "topology":
        if cfg.format not in (None, "json"):
            raise ConfigError("format: topology documents are json only")
        t = generate_topology(cfg.seed, cfg.num_uavs, area_spec(cfg), cfg.num_pairs)
        return serialize_topology(t)
    fmt = OutputFormat(cfg.format or "csv")
    if command in _SWEEP_AXES:
        return emit_table(run_sweep(sweep_spec(cfg, _SWEEP_AXES[command])), fmt)
    if command == "fit":
        result = run_sweep(sweep_spec(cfg, SweepAxis.POWER_DBM))
        return emit_table(fit_family_from_power_sweep(result), fmt)
    if command == "predict":
        for flag in ("loss", "power"):
            if not math.isfinite(getattr(args, flag)):
                raise ConfigError(f"{flag}: must be a finite number")
        return emit_table(predict_with_oracle(args.loss, args.power, curve_family(cfg)), fmt)
    if command == "adapt":
        return emit_table(run_adaptation(adaptation_policy(cfg), curve_family(cfg)), fmt)
    raise AssertionError(f"unreachable subcommand {command}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_text = None
        if args.config is not None:
            try:
                file_text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        overrides = {key: getattr(args, key, None) for key in RunConfig._fields}
        cfg = parse_config(file_text, overrides)
        if args.print_config:
            sys.stdout.write(json.dumps(config_to_dict(cfg), indent=2) + "\n")
            return EXIT_OK
        document = _execute(args.command, cfg, args)
        try:
            write_document(document, cfg.out)
        except OSError as exc:
            raise ConfigError(f"out: cannot write {cfg.out or 'stdout'}: {exc}") from exc
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonTerminationError as exc:
        print(f"non-termination: {exc}", file=sys.stderr)
        return EXIT_NONTERMINATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
