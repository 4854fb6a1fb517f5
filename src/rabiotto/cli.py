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
import functools
import json
import os
import sys

# One BLAS thread per process, unless the user set another: every solve is a
# small matrix, and a sweep's parallelism is its pool, whose processes inherit
# these. BLAS reads them when numpy loads, which the package __init__ does not.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import sweep  # noqa: E402
from .config import ConfigError, SweepConfig, figure_preset, parse_config  # noqa: E402
from .cycle import run_cycle  # noqa: E402
from .spectral import ConvergenceError  # noqa: E402
from .spectral import converged_cutoff  # noqa: E402, F401  (bench/tracing.py wraps this name)
from .sweep import SweepResult, build_protocol, resolve_cutoffs, run_sweep  # noqa: E402

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
    "discord": {"discord": True},
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--preset", help="figure preset name (fig2 ... fig10)")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--workers", type=int, help="parallel workers (0 = all cores)")
    parser.add_argument("--omega-ref", type=float, dest="omega_ref",
                        help="reference angular frequency in rad/s")


@functools.cache  # one parser per process: parse_args leaves it as it was
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


def _load_config(args: argparse.Namespace) -> SweepConfig:
    """The config document with env, subcommand and flag overrides, in that order."""
    if args.config and args.preset:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.preset:
        text = json.dumps(figure_preset(args.preset).resolved_dict())
    elif args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    else:
        text = "{}"
    flags = {"workers": args.workers, "omega_ref": args.omega_ref,
             "out_format": args.format, "out_path": args.out or None}
    flags = {key: value for key, value in flags.items() if value is not None}
    return parse_config(text, overrides=COMMAND_OVERRIDES.get(args.command, {}) | flags)


def _write(text: str, path: str | None) -> None:
    """Every output of the CLI: ``text`` to ``path``, or to stdout without one.

    A path that cannot be written is a config error. It is found only here,
    after the run: probing it first would create or truncate the file early.
    """
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def write_output(result: SweepResult, path: str | None) -> None:
    """Write the table in its config's out_format (see ``_write``), then its warnings to stderr."""
    _write(sweep.write_output(result, None), path)
    for warning in result.warnings:
        sys.stderr.write(f"rabiotto: warning: {warning}\n")


def _run_single_cycle(args: argparse.Namespace) -> int:
    config = _load_config(args)
    protocol = build_protocol(config, None, getattr(config, config.sweep.parameter))
    cutoff = tuple(resolve_cutoffs(config.cutoff, [[protocol.cold], [protocol.hot]], config.n_levels))
    states, report = run_cycle(protocol, cutoff=cutoff)
    config_hash = config.config_hash()

    def table(columns: list[str], rows: list[tuple], warnings: tuple = ()) -> SweepResult:
        rows = tuple(row + (config_hash,) for row in rows)
        return SweepResult(tuple(columns), rows, config, warnings)

    summary = (
        config.g_over_omega_c, config.theta, config.variant,
        report.work, report.q_hot, report.q_cold, report.eta, report.regime,
    )
    summary_table = table(CYCLE_SUMMARY_COLUMNS, [summary], report.warnings)
    write_output(summary_table, config.out_path)
    if getattr(args, "per_level", None):
        eh = states.hot.ground_referenced()
        ec = states.cold.ground_referenced()
        rows = [
            (n, float(eh[n]), float(ec[n]),
             float(states.populations_hot[n]), float(states.populations_cold[n]),
             float(report.work_per_level[n]))
            for n in range(len(report.work_per_level))
        ]
        write_output(table(PER_LEVEL_COLUMNS, rows), args.per_level)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "preset":
            config = figure_preset(args.name)
            _write(json.dumps(config.resolved_dict(), indent=1, sort_keys=True) + "\n", args.out)
            return 0
        if args.command == "cycle":
            return _run_single_cycle(args)
        config = _load_config(args)
        result = run_sweep(config)
        write_output(result, config.out_path)
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
