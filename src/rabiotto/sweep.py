"""Parameter sweeps and deterministic data export.

A sweep runs a SweepConfig. The config document, its environment overrides,
its checks and the figure presets are ``rabiotto.config``'s; this module
imports their names too, so ``rabiotto.sweep.SweepConfig`` and the others
resolve here as well.

Output is CSV (header row, UTF-8, 12-significant-digit floats, cells quoted
only where needed) or a JSON mirror of the same table, as the result's
config sets in ``out_format``. Identical configs produce bit-identical files
on one machine and numpy/BLAS build; rows are ordered by (series value,
swept value) regardless of worker count, and every row echoes a hash of the
fully resolved config without its run keys (workers, out_path, out_format),
so one computation carries one hash however it is run or written.

Sweep kinds:
  cycle    -- Otto-cycle observables per grid point (optionally with discord)
  spectrum -- lowest relative energy levels of the cold Hamiltonian
  levels   -- first-excited energies/populations vs the thermal energies
  approx   -- numeric W_1 against the two-level closed form and its bound
Only cycle sweeps a parameter other than g_over_omega_c.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import functools
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .approx import approx_w1, positive_work_bound
from .config import (  # noqa: F401  (callers read the config layer's names here too)
    KINDS, PARAMETER_VARIANT, SWEEPABLE, ConfigError, CutoffPolicy, SeriesSpec, SweepAxis, SweepConfig,
    figure_preset, parse_config,
)
from .correlations import discord_differences
from .cycle import (
    CycleProtocol,
    ReservoirSpec,
    coupled_coupling_protocol,
    qubit_frequency_protocol,
    resonator_frequency_protocol,
    run_cycle,  # noqa: F401  (bench/tracing.py wraps this name)
    run_cycles,
)
from .hamiltonian import RabiParams, build_hamiltonian  # noqa: F401  (bench/tracing.py wraps this name)
from .spectral import SpectralDecomposition, converged_cutoff, relative_spectrum, solve_hamiltonians
eigendecompose = None  # never called: bench/tracing.py TARGETS sets this name until ROADMAP item 13

__all__ = [
    "ConfigError",
    "SweepConfig",
    "SweepResult",
    "figure_preset",
    "parse_config",
    "resolve_cutoffs",
    "run_sweep",
    "write_output",
]

# ---------------------------------------------------------------------------
# sweep execution

# bytes of dense eigenvectors that the points of one stacked solve may hold: the full
# fig2 preset on two threads peaked at 40.7 MiB RSS with 2**20 and at 44 MiB with
# 2**21, against 38.4 MiB when each point was solved alone
STACK_BYTES = 2**20


def resolve_cutoffs(
    policy: CutoffPolicy, groups: list[list[RabiParams]], n_levels: int, mapper=map
) -> list[int]:
    """Fock cutoff per group of Hamiltonian sides: the policy's n_max, or the largest certified.

    In auto mode a group's cutoff is the largest ``converged_cutoff`` of its
    sides: the smallest cutoff on that scan's 3/2-step ladder (s, 3s/2, 2s,
    3s, ...) whose doubling moves the lowest n_levels by less than the
    fixed CUTOFF_TOL (1e-8), scanned up to the fixed CUTOFF_CEILING (512).
    A group holds the sides that are solved at one cutoff: sweeps and
    ``rabiotto cycle`` pass one group per cycle side, so the cold and hot
    sides each get their own. Each distinct side is scanned once per call,
    through ``mapper`` (the builtin ``map``, or an executor's). The policy
    is checked where the SweepConfig that holds it is built.
    """
    if policy.mode == "fixed":
        return [policy.n_max] * len(groups)
    sides = list(dict.fromkeys(side for group in groups for side in group))
    scan = functools.partial(converged_cutoff, n_levels=n_levels)
    cutoffs = dict(zip(sides, mapper(scan, sides)))
    return [max(cutoffs[side] for side in group) for group in groups]


def _series_values(config: SweepConfig) -> list[float | None]:
    return list(config.series.values) if config.series is not None else [None]


DISCORD_COLUMNS = [
    "D_rho1", "D_rho3", "D_rho4", "diff_41", "diff_31", "diff_34",
    "theta_m_opt", "phi_m_opt",
]


@dataclass(frozen=True)
class SweepResult:
    """The output table; ``warnings`` are "<grid point>: <message>" and stay out of it."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    config: SweepConfig
    warnings: tuple[str, ...] = ()


def _field_values(config: SweepConfig, series_value: float | None, swept_value: float) -> dict:
    values = {name: getattr(config, name) for name in SWEEPABLE}
    if config.series is not None and series_value is not None:
        values[config.series.parameter] = series_value
    values[config.sweep.parameter] = swept_value
    return values


def build_protocol(config: SweepConfig, series_value: float | None, swept_value: float) -> CycleProtocol:
    """CycleProtocol for one grid point; out-of-range physics is a ConfigError naming it."""
    f = _field_values(config, series_value, swept_value)
    g = f["g_over_omega_c"] * config.omega_c
    try:
        reservoirs = ReservoirSpec(config.t_cold, config.t_hot, config.omega_ref)
        if config.variant == "resonator-frequency":
            return resonator_frequency_protocol(
                g=g, theta=f["theta"], omega_c=config.omega_c, ratio=config.ratio,
                reservoirs=reservoirs, n_levels=config.n_levels,
            )
        if config.variant == "coupled-coupling":
            return coupled_coupling_protocol(
                g_c=g, alpha=f["alpha"], theta=f["theta"], omega_c=config.omega_c,
                ratio=config.ratio, reservoirs=reservoirs, n_levels=config.n_levels,
            )
        return qubit_frequency_protocol(
            g=g, omega_qc=config.omega_qc, omega_qh=f["omega_qh"],
            omega_cav=config.omega_c, theta=f["theta"],
            reservoirs=reservoirs, n_levels=config.n_levels,
        )
    except ValueError as exc:
        point = _point_name(config, series_value, swept_value)
        raise ConfigError(f"invalid physical parameters at {point}: {exc}") from exc


def _point_name(config: SweepConfig, series_value: float | None, swept_value: float) -> str:
    point = f"{config.sweep.parameter} = {swept_value}"
    if series_value is not None:
        point = f"{config.series.parameter} = {series_value}, {point}"
    return point


def _series_cutoffs(config: SweepConfig, mapper=map) -> dict[float | None, tuple[int, ...]]:
    """Fock cutoff per series value and side: fixed, or certified at the sweep endpoints.

    Each series value maps to one cutoff per side the kind solves, in the
    order of ``_KINDS``: (cold, hot), or (cold,) for a spectrum. In auto mode
    a side's cutoff is the larger of its two endpoint scans, so the hot side,
    at a smaller g/omega, need not take the cold side's cutoff. Building the
    endpoint protocols validates the sweep: every protocol constraint is an
    interval in the swept parameter, and Fock support grows monotonically
    with (g/omega)^2, so the endpoints cover the whole grid. Series values
    that leave a side's RabiParams unchanged share its scan. The scans run
    through ``mapper``.
    """
    series_values = _series_values(config)
    sides = _KINDS[config.kind][2]
    endpoints = (config.sweep.start, config.sweep.stop)
    protocols = [[build_protocol(config, sv, x) for x in endpoints] for sv in series_values]
    groups = [[getattr(p, side) for p in group] for group in protocols for side in sides]
    cutoffs = resolve_cutoffs(config.cutoff, groups, config.n_levels, mapper)
    return {sv: tuple(cutoffs[i * len(sides):(i + 1) * len(sides)]) for i, sv in enumerate(series_values)}


# A chunk of one series' grid points is solved together at the series'
# cutoffs (see _series_cutoffs) by _solve; point functions take one point's
# share of that solve and return the rows of columns they compute and the
# warnings of the cycle they ran; run_sweep fills the columns that the grid
# point itself fixes (_point_columns).

def _cycle_rows(config: SweepConfig, protocol: CycleProtocol, cycle: tuple) -> tuple[list[dict], tuple]:
    states, report = cycle
    wn = report.work_per_level
    row = {
        "W": report.work,
        "Q_h": report.q_hot,
        "Q_c": report.q_cold,
        "eta": report.eta,
        "regime": report.regime,
        # a level outside the n_levels sums was never evaluated, so its cell stays blank
        **{f"W_{n}": float(wn[n]) if n < len(wn) else None for n in (1, 2, 3)},
        "tail_mass_hot": report.tail_mass_hot,
    }
    if config.discord:
        diffs = discord_differences(states)
        row.update(
            {
                "D_rho1": diffs.rho1.discord,
                "D_rho3": diffs.rho3.discord,
                "D_rho4": diffs.rho4.discord,
                "diff_41": diffs.d41,
                "diff_31": diffs.d31,
                "diff_34": diffs.d34,
                "theta_m_opt": diffs.rho1.optimal_basis.theta_m,
                "phi_m_opt": diffs.rho1.optimal_basis.phi_m,
            }
        )
    return [row], report.warnings


def _spectrum_rows(
    config: SweepConfig, protocol: CycleProtocol, decomposition: SpectralDecomposition
) -> tuple[list[dict], tuple]:
    rel = relative_spectrum(decomposition, config.n_levels)
    return [{"level_index": k, "energy_relative": float(rel[k])} for k in range(len(rel))], ()


def _levels_rows(config: SweepConfig, protocol: CycleProtocol, cycle: tuple) -> tuple[list[dict], tuple]:
    states, report = cycle
    return [{
        "E1_h": float(states.hot.ground_referenced()[1]),
        "E1_c": float(states.cold.ground_referenced()[1]),
        "kT_h": protocol.reservoirs.kt_hot,
        "kT_c": protocol.reservoirs.kt_cold,
        "P1_h": float(states.populations_hot[1]),
        "P1_c": float(states.populations_cold[1]),
    }], report.warnings


def _approx_rows(config: SweepConfig, protocol: CycleProtocol, cycle: tuple) -> tuple[list[dict], tuple]:
    _, report = cycle
    return [{
        "W1_numeric": float(report.work_per_level[1]),
        "W1_approx": approx_w1(
            config.omega_c, config.ratio, config.t_cold, config.t_hot, protocol.cold.g, config.omega_ref
        ),
        "bound": positive_work_bound(config.ratio, config.t_hot / config.t_cold),
    }], report.warnings


# kind -> (columns, point function, protocol sides it solves), one entry per
# config.KINDS name in its order; the discord columns show only when discord is on
_KINDS = dict(zip(KINDS, [
    (  # cycle
        ["g_over_omega_c", "theta", "alpha", "omega_qh", "variant", "W", "Q_h", "Q_c", "eta",
         "regime", "W_1", "W_2", "W_3", "tail_mass_hot", *DISCORD_COLUMNS],
        _cycle_rows, ("cold", "hot"),
    ),
    (["g_over_omega", "level_index", "energy_relative"], _spectrum_rows, ("cold",)),  # spectrum
    (["g_over_omega_c", "E1_h", "E1_c", "kT_h", "kT_c", "P1_h", "P1_c"], _levels_rows,  # levels
     ("cold", "hot")),
    (["g_over_omega", "W1_numeric", "W1_approx", "bound"], _approx_rows, ("cold", "hot")),  # approx
], strict=True))


def _solve(config: SweepConfig, protocols: list[CycleProtocol], cutoff: tuple) -> list:
    """Each point's share of one stacked solve: its cold side's decomposition for a spectrum, else its cycle."""
    if config.kind == "spectrum":
        return solve_hamiltonians([p.cold for p in protocols], *cutoff)
    return run_cycles(protocols, cutoff)


def _failure(exc: Exception) -> tuple[list[dict], tuple, str]:
    return [], (), f"{type(exc).__name__}: {exc}"


def _solved_together(
    config: SweepConfig, series_value: float | None, swept_values: list[float], cutoff: tuple
) -> list[tuple[list[dict], tuple, str | None]]:
    """Outcomes of points solved in one ``_solve``; if it raises, of each point solved alone."""
    try:
        protocols = [build_protocol(config, series_value, x) for x in swept_values]
        solved = _solve(config, protocols, cutoff)
    except Exception as exc:  # per-point failure: recorded, sweep continues
        if len(swept_values) == 1:
            return [_failure(exc)]
        return [
            outcome for x in swept_values for outcome in _solved_together(config, series_value, [x], cutoff)
        ]
    outcomes = []
    for protocol, share in zip(protocols, solved):
        try:
            outcomes.append((*_KINDS[config.kind][1](config, protocol, share), None))
        except Exception as exc:  # per-point failure: recorded, sweep continues
            outcomes.append(_failure(exc))
    return outcomes


def _chunk_task(args: tuple) -> list[tuple[list[dict], tuple, str | None]]:
    """(rows, warnings, error) of each point of a contiguous chunk of one series' grid.

    The chunk's points are solved together, in runs of at most STACK_BYTES of
    dense eigenvectors, so that a run's stacked solve and the states it holds
    stay bounded however many points a chunk has.
    """
    config, series_value, swept_values, cutoff = args
    point_bytes = sum(8 * (2 * n) ** 2 for n in cutoff)
    runs = min(len(swept_values), -(-len(swept_values) * point_bytes // STACK_BYTES))  # ceiling division
    return [
        outcome
        for run in np.array_split(np.array(swept_values), runs)
        for outcome in _solved_together(config, series_value, run.tolist(), cutoff)
    ]


def _columns_for(config: SweepConfig) -> list[str]:
    columns = [c for c in _KINDS[config.kind][0] if config.discord or c not in DISCORD_COLUMNS]
    series = [f"series_{config.series.parameter}"] if config.series is not None else []
    return series + columns + ["error", "config_hash"]


def _point_columns(config: SweepConfig, series_value: float | None, swept_value: float) -> dict:
    """The columns a grid point fixes before anything is computed at it."""
    fixed = {
        name: value if PARAMETER_VARIANT.get(name, config.variant) == config.variant else None
        for name, value in _field_values(config, series_value, swept_value).items()
    }
    fixed["g_over_omega"] = fixed["g_over_omega_c"]
    fixed["variant"] = config.variant
    if config.series is not None:
        fixed[f"series_{config.series.parameter}"] = series_value
    return fixed


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(config: SweepConfig, n_points: int) -> int:
    """Workers the sweep uses, and so chunks per series: --workers (0: all CPUs), at most n_points."""
    return min(config.workers or _available_cpus(), n_points)


def _executor(config: SweepConfig, n_tasks: int):
    """The sweep's one executor, or a null context when it runs serially.

    Processes when the points compute discord, whose batched small eigensolves
    and Nelder-Mead steps hold the GIL: fig4 at 4 points per series (the
    fig4-discord benchmark, seed 1, three 30 s runs each) ran 60.3-64.8
    points/s on two processes against 45.1-48.9 on two threads, with
    39.2-39.3 against 49.3-49.6 MiB peak RSS (2 vCPUs, one BLAS thread),
    measured after the refinement's objective moved to Python floats.
    Threads otherwise. A task is a contiguous chunk of one series' grid
    points, ``_worker_count`` chunks per series, and each chunk's sides are
    solved by stacked ``symmetric_eigh`` calls, which release the GIL for
    their whole stack: a fig2-work request (10 points) is two tasks of five
    points, and their stacked solves overlap on two threads. Solved one
    point at a time, with GIL-held Python between each point's four small
    eigh calls, they overlapped less: the points of fig2-work requests took
    22.6-22.9 ms serially and 17.3-18.2 ms on two threads, against
    20.4-20.7 ms and 15.2-15.3 ms stacked by chunk (seed 7, medians of 300
    requests in two rounds; 2 vCPUs, one BLAS thread). numpy's eigvalsh
    holds the GIL outright (a pure-Python loop took 0.164 s alone, 0.339 s
    beside an eigvalsh loop and 0.168 s beside an eigh loop; numpy 2.4.6),
    so under threads the endpoint cutoff scans run in the calling thread,
    before the chunks: 7.1 ms per fig2-work request there, against
    7.8-8.1 ms on the pool.
    """
    workers = _worker_count(config, n_tasks)
    if workers <= 1:
        return contextlib.nullcontext()
    # looked up here, so that only a process pool loads multiprocessing
    pool = concurrent.futures.ProcessPoolExecutor if config.discord else ThreadPoolExecutor
    return pool(max_workers=workers)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute a sweep; rows ordered by (series, swept value), failures and warnings recorded.

    Each series' grid is cut into ``_worker_count`` contiguous chunks, as
    even as they go (sizes differ by at most one point), and each chunk is
    one task (``_chunk_task``). The endpoint cutoff scans run on a process
    pool when the points do, and in the calling thread otherwise.
    """
    grid = np.linspace(config.sweep.start, config.sweep.stop, config.sweep.n_points)
    chunks = np.array_split(grid, _worker_count(config, len(grid)))
    tasks = [(sv, chunk.tolist()) for sv in _series_values(config) for chunk in chunks]
    with _executor(config, len(tasks)) as pool:
        mapper = map if pool is None else pool.map  # both keep input order
        # scans on threads would contend for the GIL that numpy's eigvalsh holds
        cutoffs = _series_cutoffs(config, mapper if config.discord else map)
        chunk_outcomes = mapper(_chunk_task, [(config, sv, xs, cutoffs[sv]) for sv, xs in tasks])
        outcomes = [outcome for chunk in chunk_outcomes for outcome in chunk]

    columns = _columns_for(config)
    config_hash = config.config_hash()
    rows: list[tuple] = []
    warnings: list[str] = []
    points = [(sv, gv) for sv, xs in tasks for gv in xs]
    for (point_rows, point_warnings, error), (sv, gv) in zip(outcomes, points):
        fixed = _point_columns(config, sv, gv)
        fixed.update(error=error or "", config_hash=config_hash)
        for data in [{}] if error is not None else point_rows:
            rows.append(tuple(fixed[c] if c in fixed else data.get(c) for c in columns))
        warnings += [f"{_point_name(config, sv, gv)}: {w}" for w in point_warnings]
    return SweepResult(tuple(columns), tuple(rows), config, tuple(warnings))


# ---------------------------------------------------------------------------
# deterministic serialization

def _cell(value, text: bool = False):
    """A table cell: None, a str, an int, or a float formatted once to 12 significant digits.

    CSV takes the digits as ``text``; JSON takes the float they read back to, NaN as None.
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    digits = f"{float(value):.12g}"
    if text:
        return digits
    return None if digits == "nan" else float(digits)


def render_csv(result: SweepResult) -> str:
    """CSV with 12-significant-digit floats; cells are quoted only where they must be."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_cell(v, text=True) for v in row])
    return buffer.getvalue()


def render_json(result: SweepResult) -> str:
    doc = {
        "config": result.config.resolved_dict(),
        "config_hash": result.config.config_hash(),
        "columns": list(result.columns),
        "rows": [list(map(_cell, row)) for row in result.rows],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_output(result: SweepResult, path: str | None) -> str:
    """Render the result in its config's ``out_format``, write it to ``path`` if
    given, and return the rendered text."""
    text = render_csv(result) if result.config.out_format == "csv" else render_json(result)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
