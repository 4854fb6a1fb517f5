"""Command-line interface.

Subcommands:
  spectrum  relative energy levels of the cold Hamiltonian across a sweep
  cycle     a single Otto cycle: one summary row, optional per-level file
  sweep     cycle observables across a sweep (per the config's discord flag)
  discord   sweep with discord differences forced on
  approx    numeric W_1 against the two-level closed form and its bound
  preset    print the fully resolved config for a named figure preset

All subcommands accept --config/--preset plus output and override flags.
Environment variables with the RABIOTTO_ prefix override any config key.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cycle import run_cycle
from .spectral import ConvergenceError
from .spectral import converged_cutoff  # noqa: F401  (bench/tracing.py wraps this name)
from .sweep import (
    ConfigError,
    SweepConfig,
    SweepResult,
    apply_env_overrides,
    build_protocol,
    config_from_dict,
    figure_preset,
    run_sweep,
    write_output,
)

NUMERICAL_ERRORS = (np.linalg.LinAlgError, ConvergenceError, ArithmeticError, FloatingPointError)

CYCLE_SUMMARY_COLUMNS = [
    "g_over_omega_c", "theta", "variant", "W", "Q_h", "Q_c", "eta", "regime", "config_hash",
]
PER_LEVEL_COLUMNS = ["n", "E_n_h", "E_n_c", "P_n_h", "P_n_c", "W_n", "config_hash"]
# what each subcommand sets in the config document
COMMAND_OVERRIDES = {
    "cycle": {"kind": "cycle"},
    "spectrum": {"kind": "spectrum"},
    "approx": {"kind": "approx"},
    "discord": {"discord": {"enabled": True}},
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--preset", help="figure preset name (fig2 ... fig10)")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--workers", type=int, help="parallel workers (0 = all cores)")
    parser.add_argument("--omega-ref", type=float, dest="omega_ref",
                        help="reference angular frequency in rad/s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabiotto",
        description="Quantum Otto engine with a generalized-Rabi working substance",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("spectrum", "relative energy levels across a coupling sweep"),
        ("sweep", "Otto-cycle observables across a sweep"),
        ("discord", "sweep with quantum-discord differences"),
        ("approx", "numeric W_1 vs the two-level approximation"),
    ):
        p = sub.add_parser(name, help=descr)
        _add_common(p)
    p_cycle = sub.add_parser("cycle", help="a single Otto cycle")
    _add_common(p_cycle)
    p_cycle.add_argument("--per-level", dest="per_level",
                         help="also write a per-level table (n, E_n_h, E_n_c, P_n_h, P_n_c, W_n)"
                              " in the output format")
    p_preset = sub.add_parser("preset", help="print a resolved figure-preset config")
    p_preset.add_argument("name", help="preset name (fig2 ... fig10)")
    p_preset.add_argument("--out", help="output file (default: stdout)")
    return parser


def _overlay(data: dict, overrides: dict) -> None:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            _overlay(data[key], value)
        else:
            data[key] = value


def _load_config(args: argparse.Namespace) -> SweepConfig:
    """The config document with env, subcommand and flag overrides, in that order."""
    if args.config and args.preset:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.preset:
        data = figure_preset(args.preset).resolved_dict()
    elif args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config document is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
    else:
        data = {}
    apply_env_overrides(data)
    _overlay(data, COMMAND_OVERRIDES.get(args.command, {}))
    flags = {"workers": args.workers, "omega_ref": args.omega_ref,
             "out_format": args.format, "out_path": args.out or None}
    _overlay(data, {key: value for key, value in flags.items() if value is not None})
    return config_from_dict(data)


def _emit(result: SweepResult, path: str | None, fmt: str) -> None:
    text = write_output(result, path, fmt)
    if not path:
        sys.stdout.write(text)


def _run_single_cycle(args: argparse.Namespace) -> int:
    config = _load_config(args)
    protocol = build_protocol(config, None, getattr(config, config.sweep.parameter))
    cutoff = config.cutoff.resolve([[protocol.cold, protocol.hot]], config.n_levels)[0]
    states, report = run_cycle(protocol, cutoff=cutoff)
    config_hash = config.config_hash()

    def table(columns: list[str], rows: list[tuple]) -> SweepResult:
        rows = tuple(row + (config_hash,) for row in rows)
        return SweepResult(tuple(columns), rows, config, config_hash)

    summary = (
        config.g_over_omega_c, config.theta, config.variant,
        report.work, report.q_hot, report.q_cold, report.eta, report.regime,
    )
    _emit(table(CYCLE_SUMMARY_COLUMNS, [summary]), config.out_path, config.out_format)
    for warning in report.warnings:
        sys.stderr.write(f"rabiotto: warning: {warning}\n")
    if getattr(args, "per_level", None):
        eh = states.hot.ground_referenced()
        ec = states.cold.ground_referenced()
        rows = [
            (n, float(eh[n]), float(ec[n]),
             float(states.populations_hot[n]), float(states.populations_cold[n]),
             float(report.work_per_level[n]))
            for n in range(len(report.work_per_level))
        ]
        _emit(table(PER_LEVEL_COLUMNS, rows), args.per_level, config.out_format)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "preset":
            config = figure_preset(args.name)
            text = json.dumps(config.resolved_dict(), indent=1, sort_keys=True) + "\n"
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                sys.stdout.write(text)
            return 0
        if args.command == "cycle":
            return _run_single_cycle(args)
        config = _load_config(args)
        result = run_sweep(config)
        _emit(result, config.out_path, config.out_format)
        error_col = result.columns.index("error")
        if result.rows and all(row[error_col] for row in result.rows):
            sys.stderr.write("rabiotto: every sweep point failed\n")
            return 3
        return 0
    except ConfigError as exc:
        sys.stderr.write(f"rabiotto: config error: {exc}\n")
        return 2
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"rabiotto: numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
