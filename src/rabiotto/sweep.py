"""Parameter sweeps, figure presets, and deterministic data export.

A sweep is described by a JSON config document whose keys are the fields of
SweepConfig and its sub-objects (all optional; defaults reproduce the
resonator-frequency work curve of the engine/refrigerator transition
analysis). Every config key can be overridden through environment
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
Only cycle sweeps a parameter other than g_over_omega_c.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from types import UnionType

import numpy as np

from .approx import approx_w1, positive_work_bound
from .correlations import discord_differences
from .cycle import (
    VARIANTS,
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
FORMATS = ("csv", "json")
# the variant that varies each variant-specific parameter; a cycle row leaves
# the parameter blank under every other variant
PARAMETER_VARIANT = {"alpha": "coupled-coupling", "omega_qh": "qubit-frequency"}


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


@dataclass(frozen=True)
class CutoffPolicy:
    mode: str = "auto"  # "auto" | "fixed"
    n_max: int | None = None
    tol: float = CUTOFF_TOL
    ceiling: int = CUTOFF_CEILING

    def resolve(self, groups: list[list[RabiParams]], n_levels: int) -> list[int]:
        """Fock cutoff per group of Hamiltonian sides: n_max, or the largest certified.

        With no groups it scans nothing and only validates the policy.
        """
        if self.mode not in ("auto", "fixed"):
            raise ConfigError(f"cutoff.mode: must be 'auto' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed" and (self.n_max is None or self.n_max < 2):
            raise ConfigError("cutoff.n_max: fixed cutoff requires n_max >= 2")
        if self.tol <= 0.0:
            raise ConfigError(f"cutoff.tol: must be > 0, got {self.tol}")
        if self.mode == "fixed":
            return [self.n_max] * len(groups)
        return [found.n_max for found in certified_cutoffs(groups, n_levels, self.tol, self.ceiling)]


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


@functools.cache
def _field_types(cls) -> dict[str, type]:
    """Config key -> type for a config dataclass; ``X | None`` reads as X."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in fields(cls):
        options = [t for t in typing.get_args(hints[f.name]) if t is not type(None)]
        types[f.name] = options[0] if isinstance(hints[f.name], UnionType) else hints[f.name]
    return types


# type -> (accepted JSON types, name in the error message)
_ACCEPTS = {
    bool: (bool, "a boolean"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    tuple: (list, "a list"),
}


def _build(cls, data: dict, path: str = ""):
    """Instance of a config dataclass from its raw dict; null means "use the default"."""
    types = _field_types(cls)
    values = {}
    for key, value in data.items():
        where = f"{path}{key}"
        if key not in types:
            raise ConfigError(f"{where}: unknown configuration key")
        if value is not None:
            values[key] = _check_value(types[key], value, where)
    return cls(**values)


def _check_value(expected, value, where: str):
    if is_dataclass(expected):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object")
        return _build(expected, value, where + ".")
    base = typing.get_origin(expected) or expected  # tuple[float, ...] -> tuple
    accepted, name = _ACCEPTS[base]
    if not isinstance(value, accepted) or (base is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    if base is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if base is tuple:
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in value
        ):
            raise ConfigError(f"{where}: expected finite numbers, got {value!r}")
        return tuple(float(v) for v in value)
    return value


def apply_env_overrides(data: dict, environ: dict | None = None) -> dict:
    """Overlay RABIOTTO_* environment variables onto a raw config dict."""
    environ = os.environ if environ is None else environ

    def visit(cls, target: dict, prefix: str) -> None:
        for key, expected in _field_types(cls).items():
            if is_dataclass(expected):
                sub = target.get(key)
                if not isinstance(sub, dict):
                    sub = {}
                visit(expected, sub, prefix + key + "__")
                if sub:
                    target[key] = sub
                continue
            raw = environ.get(ENV_PREFIX + (prefix + key).upper())
            if raw is None:
                continue
            try:
                target[key] = json.loads(raw)
            except json.JSONDecodeError:
                target[key] = raw

    visit(SweepConfig, data, "")
    return data


def config_from_dict(data: dict) -> SweepConfig:
    """Validate a raw config dict (no environment overrides) and fill defaults."""
    config = _build(SweepConfig, data)
    if data.get("t_cold") is not None and data.get("t_hot") is None:
        # preserve the default T_h = 9 T_c ratio when only T_c is given
        config = replace(config, t_hot=9 * float(config.t_cold))
    _validate(config)
    return config


def _series_values(config: SweepConfig) -> list[float | None]:
    return list(config.series.values) if config.series is not None else [None]


def _validate(config: SweepConfig) -> None:
    if config.kind not in _KINDS:
        raise ConfigError(f"kind: must be one of {tuple(_KINDS)}, got {config.kind!r}")
    if config.out_format not in FORMATS:
        raise ConfigError(f"out_format: must be one of {FORMATS}, got {config.out_format!r}")
    if config.sweep.n_points < 2:
        raise ConfigError(f"sweep.n_points: must be >= 2, got {config.sweep.n_points}")
    if config.sweep.start > config.sweep.stop:
        raise ConfigError(
            f"sweep.start: must not exceed sweep.stop ({config.sweep.start} > {config.sweep.stop})"
        )
    if config.variant not in VARIANTS:
        raise ConfigError(f"variant: unknown variant {config.variant!r}")
    axes = [("sweep", config.sweep.parameter)]
    if config.series is not None:
        axes.append(("series", config.series.parameter))
    for axis, parameter in axes:
        if parameter not in SWEEPABLE:
            raise ConfigError(f"{axis}.parameter: must be one of {SWEEPABLE}, got {parameter!r}")
        owner = PARAMETER_VARIANT.get(parameter, config.variant)
        if owner != config.variant:
            raise ConfigError(f"{axis}.parameter: {parameter} is only swept in the {owner} variant")
    if config.kind != "cycle" and config.sweep.parameter != "g_over_omega_c":
        raise ConfigError(
            f"sweep.parameter: kind {config.kind} sweeps only g_over_omega_c (use a theta series)"
        )
    if config.series is not None:
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
    if config.discord.n_theta < 2:
        raise ConfigError(f"discord.n_theta: must be >= 2, got {config.discord.n_theta}")
    if config.discord.n_phi < 2 or config.discord.n_phi % 2:
        raise ConfigError(f"discord.n_phi: must be even and >= 2, got {config.discord.n_phi}")
    config.cutoff.resolve([], config.n_levels)  # checks the policy, scans nothing
    if config.kind == "approx":
        if config.variant != "resonator-frequency":
            raise ConfigError("kind: approx comparison requires the resonator-frequency variant")
        if config.theta != 0.0 or config.series is not None:
            raise ConfigError("theta: approx is the theta = 0 closed form; set no theta or series")
        if config.t_hot / config.t_cold <= config.ratio:
            raise ConfigError("t_hot: approx bound requires T_h/T_c > ratio")
    if config.workers < 0:
        raise ConfigError(f"workers: must be >= 0, got {config.workers}")


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

DISCORD_COLUMNS = [
    "D_rho1", "D_rho3", "D_rho4", "diff_41", "diff_31", "diff_34",
    "theta_m_opt", "phi_m_opt",
]


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    config: SweepConfig
    config_hash: str


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
        point = f"{config.sweep.parameter} = {swept_value}"
        if series_value is not None:
            point = f"{config.series.parameter} = {series_value}, {point}"
        raise ConfigError(f"invalid physical parameters at {point}: {exc}") from exc


def _series_cutoffs(config: SweepConfig) -> dict[float | None, int]:
    """Fock cutoff per series value: fixed, or certified at the sweep endpoints.

    Building the endpoint protocols validates the sweep: every protocol
    constraint is an interval in the swept parameter, and Fock support grows
    monotonically with (g/omega)^2, so the endpoints cover the whole grid.
    Only the sides the kind solves are certified; series values that leave a
    side's RabiParams unchanged share its scan.
    """
    series_values = _series_values(config)
    endpoints = (config.sweep.start, config.sweep.stop)
    protocols = [[build_protocol(config, sv, x) for x in endpoints] for sv in series_values]
    groups = [[getattr(p, side) for p in group for side in _KINDS[config.kind][2]] for group in protocols]
    return dict(zip(series_values, config.cutoff.resolve(groups, config.n_levels)))


# Point functions return the columns they compute; run_sweep fills the
# columns that the grid point itself fixes (_point_columns).

def _cycle_rows(config: SweepConfig, protocol: CycleProtocol, cutoff: int) -> list[dict]:
    states, report = run_cycle(protocol, cutoff=cutoff)
    wn = report.work_per_level
    row = {
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
    return [row]


def _spectrum_rows(config: SweepConfig, protocol: CycleProtocol, cutoff: int) -> list[dict]:
    decomposition = eigendecompose(build_hamiltonian(protocol.cold, cutoff))
    rel = relative_spectrum(decomposition, config.n_levels)
    return [{"level_index": k, "energy_relative": float(rel[k])} for k in range(len(rel))]


def _levels_rows(config: SweepConfig, protocol: CycleProtocol, cutoff: int) -> list[dict]:
    states, _ = run_cycle(protocol, cutoff=cutoff)
    return [{
        "E1_h": float(states.hot.ground_referenced()[1]),
        "E1_c": float(states.cold.ground_referenced()[1]),
        "kT_h": protocol.reservoirs.kt_hot,
        "kT_c": protocol.reservoirs.kt_cold,
        "P1_h": float(states.populations_hot[1]),
        "P1_c": float(states.populations_cold[1]),
    }]


def _approx_rows(config: SweepConfig, protocol: CycleProtocol, cutoff: int) -> list[dict]:
    _, report = run_cycle(protocol, cutoff=cutoff)
    return [{
        "W1_numeric": float(report.work_per_level[1]),
        "W1_approx": approx_w1(
            config.omega_c, config.ratio, config.t_cold, config.t_hot, protocol.cold.g, config.omega_ref
        ),
        "bound": positive_work_bound(config.ratio, config.t_hot / config.t_cold),
    }]


# kind -> (columns, point function, protocol sides it solves); the discord
# columns show only when enabled
_KINDS = {
    "cycle": (
        ["g_over_omega_c", "theta", "alpha", "omega_qh", "variant", "W", "Q_h", "Q_c", "eta",
         "regime", "W_1", "W_2", "W_3", "tail_mass_hot", *DISCORD_COLUMNS],
        _cycle_rows, ("cold", "hot"),
    ),
    "spectrum": (["g_over_omega", "level_index", "energy_relative"], _spectrum_rows, ("cold",)),
    "levels": (["g_over_omega_c", "E1_h", "E1_c", "kT_h", "kT_c", "P1_h", "P1_c"], _levels_rows,
               ("cold", "hot")),
    "approx": (["g_over_omega", "W1_numeric", "W1_approx", "bound"], _approx_rows, ("cold", "hot")),
}


def _point_task(args: tuple) -> tuple[int, list[dict], str | None]:
    index, config, series_value, swept_value, cutoff = args
    try:
        protocol = build_protocol(config, series_value, swept_value)
        return index, _KINDS[config.kind][1](config, protocol, cutoff), None
    except Exception as exc:  # per-point failure: recorded, sweep continues
        return index, [], f"{type(exc).__name__}: {exc}"


def _columns_for(config: SweepConfig) -> list[str]:
    columns = [c for c in _KINDS[config.kind][0] if config.discord.enabled or c not in DISCORD_COLUMNS]
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
    for (_, point_rows, error), (sv, gv) in zip(outcomes, points):
        fixed = _point_columns(config, sv, gv)
        fixed.update(error=error or "", config_hash=config_hash)
        for data in [{}] if error is not None else point_rows:
            rows.append(tuple(fixed[c] if c in fixed else data.get(c) for c in columns))
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
