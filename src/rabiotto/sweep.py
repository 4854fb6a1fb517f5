"""Parameter sweeps, figure presets, and deterministic data export.

A sweep is described by a JSON config document (all keys optional; defaults
reproduce the resonator-frequency work curve of the engine/refrigerator
transition analysis). Every config key can be overridden through environment
variables with the RABIOTTO_ prefix, nested keys joined by double underscores
(e.g. RABIOTTO_SWEEP__N_POINTS=50).

Output is CSV (header row, UTF-8, 12-significant-digit floats) or a JSON
mirror of the same table. Identical configs produce bit-identical files on
one machine and numpy/BLAS build; rows are ordered by (series value, swept
value) regardless of worker count, and every row echoes a hash of the fully
resolved config.

Sweep kinds:
  cycle    -- Otto-cycle observables per grid point (optionally with discord)
  spectrum -- lowest relative energy levels of the cold Hamiltonian
  levels   -- first-excited energies/populations vs the thermal energies
  approx   -- numeric W_1 against the two-level closed form and its bound
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .approx import approx_w1, positive_work_bound
from .correlations import discord_differences
from .cycle import (
    CycleProtocol,
    ReservoirSpec,
    certified_cutoffs,
    coupled_coupling_protocol,
    qubit_frequency_protocol,
    resonator_frequency_protocol,
    run_cycle,
)
from .hamiltonian import RabiParams, build_hamiltonian
from .spectral import CUTOFF_CEILING, CUTOFF_TOL, eigendecompose, relative_spectrum
from .spectral import converged_cutoff  # noqa: F401  (bench/tracing.py wraps this name)
from .units import DEFAULT_OMEGA_REF

__all__ = [
    "ConfigError",
    "SweepConfig",
    "SweepResult",
    "config_from_dict",
    "figure_preset",
    "parse_config",
    "run_sweep",
    "write_output",
]

ENV_PREFIX = "RABIOTTO_"

SWEEPABLE = ("g_over_omega_c", "theta", "alpha", "omega_qh")
KINDS = ("cycle", "spectrum", "levels", "approx")
FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


@dataclass(frozen=True)
class CutoffPolicy:
    mode: str = "auto"  # "auto" | "fixed"
    n_max: int | None = None
    tol: float = CUTOFF_TOL
    ceiling: int = CUTOFF_CEILING


@dataclass(frozen=True)
class SweepAxis:
    parameter: str = "g_over_omega_c"
    start: float = 0.0
    stop: float = 3.5
    n_points: int = 100


@dataclass(frozen=True)
class SeriesSpec:
    parameter: str = "theta"
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class DiscordOptions:
    enabled: bool = False
    n_theta: int = 64
    n_phi: int = 128
    refine: bool = True


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep configuration (see module docstring for defaults)."""

    kind: str = "cycle"
    variant: str = "resonator-frequency"
    omega_c: float = 1.0
    ratio: float = 2.0
    g_over_omega_c: float = 0.0
    theta: float = 0.0
    alpha: float = 1.0
    omega_qc: float = 0.5
    omega_qh: float = 1.0
    t_cold: float = 0.019
    t_hot: float = 9 * 0.019
    omega_ref: float = DEFAULT_OMEGA_REF
    n_levels: int = 24
    cutoff: CutoffPolicy = field(default_factory=CutoffPolicy)
    sweep: SweepAxis = field(default_factory=SweepAxis)
    series: SeriesSpec | None = None
    discord: DiscordOptions = field(default_factory=DiscordOptions)
    workers: int = 0
    out_path: str | None = None
    out_format: str = "csv"

    def resolved_dict(self) -> dict:
        """The config as a JSON-shaped dict that parses back to the same config.

        ``series.values`` is a list here, as the config schema requires, so
        the dict can go back through the parser (``--preset`` does so).
        """
        data = asdict(self)
        if data["series"] is not None:
            data["series"]["values"] = list(data["series"]["values"])
        return data

    def config_hash(self) -> str:
        payload = json.dumps(self.resolved_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


_SCHEMA = {
    "kind": str,
    "variant": str,
    "omega_c": float,
    "ratio": float,
    "g_over_omega_c": float,
    "theta": float,
    "alpha": float,
    "omega_qc": float,
    "omega_qh": float,
    "t_cold": float,
    "t_hot": float,
    "omega_ref": float,
    "n_levels": int,
    "cutoff": {"mode": str, "n_max": int, "tol": float, "ceiling": int},
    "sweep": {"parameter": str, "start": float, "stop": float, "n_points": int},
    "series": {"parameter": str, "values": list},
    "discord": {"enabled": bool, "n_theta": int, "n_phi": int, "refine": bool},
    "workers": int,
    "out_path": str,
    "out_format": str,
}


def _check_keys(data: dict, schema: dict, path: str = "") -> None:
    for key, value in data.items():
        where = f"{path}{key}"
        if key not in schema:
            raise ConfigError(f"{where}: unknown configuration key")
        expected = schema[key]
        if value is None:
            continue  # null means "use the default"
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object")
            _check_keys(value, expected, where + ".")
        elif expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{where}: expected a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{where}: expected a finite number, got {value!r}")
        elif expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{where}: expected an integer, got {value!r}")
        elif expected is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"{where}: expected a boolean, got {value!r}")
        elif expected is str:
            if not isinstance(value, str):
                raise ConfigError(f"{where}: expected a string, got {value!r}")
        elif expected is list:
            if not isinstance(value, list):
                raise ConfigError(f"{where}: expected a list, got {value!r}")


def _strip_nones(data: dict) -> dict:
    """Drop null values (meaning 'use default'); a null sub-object stays absent."""
    cleaned = {}
    for key, value in data.items():
        if value is None:
            continue
        cleaned[key] = _strip_nones(value) if isinstance(value, dict) else value
    return cleaned


def apply_env_overrides(data: dict, environ: dict | None = None) -> dict:
    """Overlay RABIOTTO_* environment variables onto a raw config dict."""
    environ = os.environ if environ is None else environ

    def visit(schema: dict, target: dict, prefix: str) -> None:
        for key, expected in schema.items():
            env_key = (prefix + key).upper()
            if isinstance(expected, dict):
                sub = target.get(key)
                if not isinstance(sub, dict):
                    sub = {}
                visit(expected, sub, prefix + key + "__")
                if sub:
                    target[key] = sub
                continue
            raw = environ.get(ENV_PREFIX + env_key)
            if raw is None:
                continue
            try:
                target[key] = json.loads(raw)
            except json.JSONDecodeError:
                target[key] = raw

    visit(_SCHEMA, data, "")
    return data


def config_from_dict(data: dict) -> SweepConfig:
    """Validate a raw config dict (no environment overrides) and fill defaults."""
    _check_keys(data, _SCHEMA)
    base = _strip_nones(data)
    cutoff = CutoffPolicy(**base.pop("cutoff")) if "cutoff" in base else CutoffPolicy()
    sweep = SweepAxis(**base.pop("sweep")) if "sweep" in base else SweepAxis()
    series = None
    if base.get("series") is not None:
        raw = dict(base.pop("series"))
        values = raw.get("values", ())
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in values
        ):
            raise ConfigError(f"series.values: expected finite numbers, got {values!r}")
        raw["values"] = tuple(float(v) for v in values)
        series = SeriesSpec(**raw)
    else:
        base.pop("series", None)
    discord = DiscordOptions(**base.pop("discord")) if "discord" in base else DiscordOptions()
    if "t_cold" in base and "t_hot" not in base:
        # preserve the default T_h = 9 T_c ratio when only T_c is given
        base["t_hot"] = 9 * float(base["t_cold"])
    config = SweepConfig(cutoff=cutoff, sweep=sweep, series=series, discord=discord, **base)
    _validate(config)
    return config


def _series_values(config: SweepConfig) -> list[float | None]:
    return list(config.series.values) if config.series is not None else [None]


def _validate(config: SweepConfig) -> None:
    if config.kind not in KINDS:
        raise ConfigError(f"kind: must be one of {KINDS}, got {config.kind!r}")
    if config.out_format not in FORMATS:
        raise ConfigError(f"out_format: must be one of {FORMATS}, got {config.out_format!r}")
    if config.sweep.n_points < 2:
        raise ConfigError(f"sweep.n_points: must be >= 2, got {config.sweep.n_points}")
    if config.sweep.start > config.sweep.stop:
        raise ConfigError(
            f"sweep.start: must not exceed sweep.stop ({config.sweep.start} > {config.sweep.stop})"
        )
    if config.sweep.parameter not in SWEEPABLE:
        raise ConfigError(
            f"sweep.parameter: must be one of {SWEEPABLE}, got {config.sweep.parameter!r}"
        )
    if config.variant not in ("resonator-frequency", "coupled-coupling", "qubit-frequency"):
        raise ConfigError(f"variant: unknown variant {config.variant!r}")
    if config.sweep.parameter == "alpha" and config.variant != "coupled-coupling":
        raise ConfigError("sweep.parameter: alpha is only swept in the coupled-coupling variant")
    if config.sweep.parameter == "omega_qh" and config.variant != "qubit-frequency":
        raise ConfigError("sweep.parameter: omega_qh is only swept in the qubit-frequency variant")
    if config.series is not None:
        if config.series.parameter not in SWEEPABLE:
            raise ConfigError(
                f"series.parameter: must be one of {SWEEPABLE}, got {config.series.parameter!r}"
            )
        if config.series.parameter == config.sweep.parameter:
            raise ConfigError("series.parameter: must differ from sweep.parameter")
        if len(config.series.values) == 0:
            raise ConfigError("series.values: must not be empty")
    if not 0.0 < config.t_cold < config.t_hot:
        raise ConfigError(f"t_cold: require 0 < t_cold < t_hot, got {config.t_cold}, {config.t_hot}")
    if config.omega_ref <= 0.0:
        raise ConfigError(f"omega_ref: must be > 0, got {config.omega_ref}")
    if config.n_levels < 1:
        raise ConfigError(f"n_levels: must be >= 1, got {config.n_levels}")
    if config.cutoff.mode not in ("auto", "fixed"):
        raise ConfigError(f"cutoff.mode: must be 'auto' or 'fixed', got {config.cutoff.mode!r}")
    if config.cutoff.mode == "fixed" and (config.cutoff.n_max is None or config.cutoff.n_max < 2):
        raise ConfigError("cutoff.n_max: fixed cutoff requires n_max >= 2")
    if config.cutoff.tol <= 0.0:
        raise ConfigError(f"cutoff.tol: must be > 0, got {config.cutoff.tol}")
    if config.kind == "approx":
        if config.variant != "resonator-frequency":
            raise ConfigError("kind: approx comparison requires the resonator-frequency variant")
        if config.t_hot / config.t_cold <= config.ratio:
            raise ConfigError("t_hot: approx bound requires T_h/T_c > ratio")
    if config.workers < 0:
        raise ConfigError(f"workers: must be >= 0, got {config.workers}")
    # every protocol constraint is an interval in the swept parameter, so
    # valid endpoints mean a valid grid
    for series_value in _series_values(config):
        for endpoint in (config.sweep.start, config.sweep.stop):
            try:
                build_protocol(config, series_value, endpoint)
            except ValueError as exc:
                raise ConfigError(
                    f"sweep: invalid physical parameters at {config.sweep.parameter} = {endpoint}: {exc}"
                ) from exc


def parse_config(text: str, environ: dict | None = None) -> SweepConfig:
    """Parse a JSON config document, apply env overrides, validate, default."""
    text = text.strip() or "{}"
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config document is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(apply_env_overrides(data, environ))


# ---------------------------------------------------------------------------
# figure presets

_PRESETS: dict[str, dict] = {
    # total work and per-level contributions across the engine/refrigerator
    # transitions; theta = 0, R = 2, T_h = 9 T_c
    "fig2": {},
    # first-excited energies and populations against the thermal energies
    "fig3": {"kind": "levels", "sweep": {"n_points": 141}},
    # discord differences D(rho4)-D(rho1), D(rho3)-D(rho1) per mixing angle
    "fig4": {
        "series": {"parameter": "theta", "values": [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8]},
        "discord": {"enabled": True},
        "sweep": {"n_points": 71},
    },
    # work output per mixing angle
    "fig5": {
        "series": {"parameter": "theta", "values": [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8]},
        "sweep": {"n_points": 71},
    },
    # efficiency under the coupled-coupling protocol per alpha
    "fig6": {
        "variant": "coupled-coupling",
        "series": {"parameter": "alpha", "values": [0.8, 1.0, 1.2]},
        "sweep": {"parameter": "g_over_omega_c", "start": 0.0, "stop": 2.0, "n_points": 50},
    },
    # qubit-frequency protocol work output per hot qubit frequency
    "fig7": {
        "variant": "qubit-frequency",
        "t_hot": 4 * 0.019,
        "omega_qc": 0.5,
        "series": {"parameter": "omega_qh", "values": [1.0, 1.5, 2.0]},
        "sweep": {"parameter": "g_over_omega_c", "start": 0.0, "stop": 3.0, "n_points": 61},
    },
    # same protocol with the discord differences
    "fig8": {
        "variant": "qubit-frequency",
        "t_hot": 4 * 0.019,
        "omega_qc": 0.5,
        "series": {"parameter": "omega_qh", "values": [1.0, 1.5, 2.0]},
        "sweep": {"parameter": "g_over_omega_c", "start": 0.0, "stop": 3.0, "n_points": 61},
        "discord": {"enabled": True},
    },
    # energy spectrum of the quantum Rabi model relative to the ground state
    "fig9": {"kind": "spectrum", "n_levels": 10, "sweep": {"n_points": 71}},
    # numeric W_1 against the two-level approximation and its sign bound
    "fig10": {"kind": "approx"},
}


def figure_preset(name: str) -> SweepConfig:
    """The sweep configuration reproducing one figure's underlying data."""
    if name not in _PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}; known: {sorted(_PRESETS)}")
    return config_from_dict(json.loads(json.dumps(_PRESETS[name])))


# ---------------------------------------------------------------------------
# sweep execution

CYCLE_COLUMNS = [
    "g_over_omega_c", "theta", "alpha", "omega_qh", "variant",
    "W", "Q_h", "Q_c", "eta", "regime",
    "W_1", "W_2", "W_3", "tail_mass_hot",
]
DISCORD_COLUMNS = [
    "D_rho1", "D_rho3", "D_rho4", "diff_41", "diff_31", "diff_34",
    "theta_m_opt", "phi_m_opt",
]
SPECTRUM_COLUMNS = ["g_over_omega", "level_index", "energy_relative"]
LEVELS_COLUMNS = ["g_over_omega_c", "E1_h", "E1_c", "kT_h", "kT_c", "P1_h", "P1_c"]
APPROX_COLUMNS = ["g_over_omega", "W1_numeric", "W1_approx", "bound"]


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    config: SweepConfig
    config_hash: str


def _field_values(config: SweepConfig, series_value: float | None, swept_value: float) -> dict:
    fields = {name: getattr(config, name) for name in SWEEPABLE}
    if config.series is not None and series_value is not None:
        fields[config.series.parameter] = series_value
    fields[config.sweep.parameter] = swept_value
    return fields


def build_protocol(config: SweepConfig, series_value: float | None, swept_value: float) -> CycleProtocol:
    """CycleProtocol for one grid point of a sweep."""
    f = _field_values(config, series_value, swept_value)
    reservoirs = ReservoirSpec(config.t_cold, config.t_hot, config.omega_ref)
    g = f["g_over_omega_c"] * config.omega_c
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


def protocol_from_config(config: SweepConfig) -> CycleProtocol:
    """CycleProtocol at the config's template values (no sweep applied)."""
    return build_protocol(config, None, getattr(config, config.sweep.parameter))


def _series_cutoffs(config: SweepConfig) -> dict[float | None, int]:
    """Fock cutoff per series value: fixed, or certified at the sweep endpoints.

    Fock support grows monotonically with (g/omega)^2, so certifying the
    endpoints covers the whole grid. Series values that leave a side's
    RabiParams unchanged share its scan.
    """
    series_values = _series_values(config)
    if config.cutoff.mode == "fixed":
        return {sv: int(config.cutoff.n_max) for sv in series_values}
    endpoints = (config.sweep.start, config.sweep.stop)
    groups = [[build_protocol(config, sv, g) for g in endpoints] for sv in series_values]
    found = certified_cutoffs(groups, config.cutoff.tol, config.cutoff.ceiling)
    return {sv: cutoff.n_max for sv, cutoff in zip(series_values, found)}


def _cycle_row(config: SweepConfig, series_value: float | None, swept_value: float, cutoff: int) -> dict:
    f = _field_values(config, series_value, swept_value)
    protocol = build_protocol(config, series_value, swept_value)
    states, report = run_cycle(protocol, cutoff=cutoff)
    wn = report.work_per_level
    row = {
        "g_over_omega_c": f["g_over_omega_c"],
        "theta": f["theta"],
        "alpha": f["alpha"] if config.variant == "coupled-coupling" else None,
        "omega_qh": f["omega_qh"] if config.variant == "qubit-frequency" else None,
        "variant": config.variant,
        "W": report.work,
        "Q_h": report.q_hot,
        "Q_c": report.q_cold,
        "eta": report.eta,
        "regime": report.regime,
        "W_1": float(wn[1]) if len(wn) > 1 else 0.0,
        "W_2": float(wn[2]) if len(wn) > 2 else 0.0,
        "W_3": float(wn[3]) if len(wn) > 3 else 0.0,
        "tail_mass_hot": report.tail_mass_hot,
    }
    if config.discord.enabled:
        diffs = discord_differences(
            states,
            grid=(config.discord.n_theta, config.discord.n_phi),
            refine=config.discord.refine,
        )
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
    return row


def _spectrum_rows(config: SweepConfig, series_value: float | None, swept_value: float, cutoff: int) -> list[dict]:
    protocol = build_protocol(config, series_value, swept_value)
    decomposition = eigendecompose(build_hamiltonian(protocol.cold, cutoff))
    rel = relative_spectrum(decomposition, config.n_levels)
    return [
        {"g_over_omega": swept_value, "level_index": k, "energy_relative": float(rel[k])}
        for k in range(len(rel))
    ]


def _levels_row(config: SweepConfig, series_value: float | None, swept_value: float, cutoff: int) -> dict:
    protocol = build_protocol(config, series_value, swept_value)
    states, _ = run_cycle(protocol, cutoff=cutoff)
    return {
        "g_over_omega_c": swept_value,
        "E1_h": float(states.hot.ground_referenced()[1]),
        "E1_c": float(states.cold.ground_referenced()[1]),
        "kT_h": protocol.reservoirs.kt_hot,
        "kT_c": protocol.reservoirs.kt_cold,
        "P1_h": float(states.populations_hot[1]),
        "P1_c": float(states.populations_cold[1]),
    }


def _approx_row(config: SweepConfig, series_value: float | None, swept_value: float, cutoff: int) -> dict:
    protocol = build_protocol(config, series_value, swept_value)
    _, report = run_cycle(protocol, cutoff=cutoff)
    w1_approx = approx_w1(
        config.omega_c, config.ratio, config.t_cold, config.t_hot,
        swept_value * config.omega_c, config.omega_ref,
    )
    return {
        "g_over_omega": swept_value,
        "W1_numeric": float(report.work_per_level[1]),
        "W1_approx": w1_approx,
        "bound": positive_work_bound(config.ratio, config.t_hot / config.t_cold),
    }


def _compute_point(config: SweepConfig, series_value: float | None, swept_value: float, cutoff: int) -> list[dict]:
    if config.kind == "cycle":
        return [_cycle_row(config, series_value, swept_value, cutoff)]
    if config.kind == "spectrum":
        return _spectrum_rows(config, series_value, swept_value, cutoff)
    if config.kind == "levels":
        return [_levels_row(config, series_value, swept_value, cutoff)]
    return [_approx_row(config, series_value, swept_value, cutoff)]


def _point_task(args: tuple) -> tuple[int, list[dict], str | None]:
    index, config, series_value, swept_value, cutoff = args
    try:
        return index, _compute_point(config, series_value, swept_value, cutoff), None
    except Exception as exc:  # per-point failure: recorded, sweep continues
        return index, [], f"{type(exc).__name__}: {exc}"


def _columns_for(config: SweepConfig) -> list[str]:
    if config.kind == "cycle":
        cols = list(CYCLE_COLUMNS)
        if config.discord.enabled:
            cols += DISCORD_COLUMNS
    elif config.kind == "spectrum":
        cols = list(SPECTRUM_COLUMNS)
    elif config.kind == "levels":
        cols = list(LEVELS_COLUMNS)
    else:
        cols = list(APPROX_COLUMNS)
    if config.series is not None:
        series_col = f"series_{config.series.parameter}"
        cols.insert(0, series_col)
    return cols + ["error", "config_hash"]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute a sweep; rows ordered by (series, swept value), failures recorded."""
    grid = np.linspace(config.sweep.start, config.sweep.stop, config.sweep.n_points)
    cutoffs = _series_cutoffs(config)
    points = [(sv, float(gv)) for sv in _series_values(config) for gv in grid]
    tasks = [(index, config, sv, gv, cutoffs[sv]) for index, (sv, gv) in enumerate(points)]

    workers = config.workers if config.workers > 0 else (os.cpu_count() or 1)
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_point_task, tasks, chunksize=1))
    else:
        outcomes = [_point_task(t) for t in tasks]
    outcomes.sort(key=lambda item: item[0])

    columns = _columns_for(config)
    config_hash = config.config_hash()
    rows: list[tuple] = []
    for (task_index, point_rows, error), task in zip(outcomes, tasks):
        _, _, sv, gv, _ = task
        if error is not None:
            point_rows = [{}]
        for data in point_rows:
            row = []
            for col in columns:
                if col == "error":
                    row.append(error or "")
                elif col == "config_hash":
                    row.append(config_hash)
                elif config.series is not None and col == f"series_{config.series.parameter}":
                    row.append(sv)
                elif col in data:
                    row.append(data[col])
                elif error is not None and col in ("g_over_omega", "g_over_omega_c"):
                    row.append(gv)  # keep the grid location on failed points
                else:
                    row.append(None)
            rows.append(tuple(row))
    return SweepResult(
        columns=tuple(columns), rows=tuple(rows), config=config, config_hash=config_hash
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"


def render_csv(result: SweepResult) -> str:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(result: SweepResult) -> str:
    def jsonify(value):
        if value is None or isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return int(value)
        v = float(value)
        if math.isnan(v):
            return None
        return float(f"{v:.12g}")  # 12 significant digits, like the CSV

    doc = {
        "config": result.config.resolved_dict(),
        "config_hash": result.config_hash,
        "columns": list(result.columns),
        "rows": [[jsonify(v) for v in row] for row in result.rows],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_output(result: SweepResult, path: str | None, fmt: str) -> str:
    """Render and optionally write the result; returns the rendered text."""
    if fmt not in FORMATS:
        raise ConfigError(f"out_format: must be one of {FORMATS}, got {fmt!r}")
    text = render_csv(result) if fmt == "csv" else render_json(result)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
