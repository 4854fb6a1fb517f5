"""Parameter sweeps, figure presets, and deterministic data export.

A sweep is described by a JSON config document whose keys are the fields of
SweepConfig and its sub-objects (all optional; defaults reproduce the
resonator-frequency work curve of the engine/refrigerator transition
analysis). Every config key can be overridden through environment
variables with the RABIOTTO_ prefix, nested keys joined by double underscores
(e.g. RABIOTTO_SWEEP__N_POINTS=50); a name that matches no key is an error.
Every config object checks its fields' types when it is built, and
SweepConfig checks the value rules too, whether it is built by
``parse_config``, directly or by ``dataclasses.replace``, so every
SweepConfig that exists passes them.

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

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from types import UnionType

import numpy as np

from .approx import approx_w1, positive_work_bound
from .correlations import discord_differences
from .cycle import (
    DEFAULT_N_LEVELS,
    DEFAULT_T_COLD,
    DEFAULT_T_RATIO,
    CycleProtocol,
    ReservoirSpec,
    coupled_coupling_protocol,
    qubit_frequency_protocol,
    resonator_frequency_protocol,
    run_cycle,  # noqa: F401  (bench/tracing.py wraps this name)
    run_cycles,
)
from .hamiltonian import RabiParams, build_hamiltonian  # noqa: F401  (bench/tracing.py wraps this name)
from .spectral import (
    CUTOFF_CEILING, SpectralDecomposition, converged_cutoff, relative_spectrum, scan_start, solve_hamiltonians,
)
from .units import DEFAULT_OMEGA_REF
eigendecompose = None  # never called: bench/tracing.py TARGETS sets this name until ROADMAP item 13

__all__ = [
    "ConfigError",
    "SweepConfig",
    "SweepResult",
    "figure_preset",
    "parse_config",
    "run_sweep",
    "write_output",
]

ENV_PREFIX = "RABIOTTO_"
# bytes of dense eigenvectors that the points of one stacked solve may hold: the full
# fig2 preset on two threads peaked at 40.7 MiB RSS with 2**20 and at 44 MiB with
# 2**21, against 38.4 MiB when each point was solved alone
STACK_BYTES = 2**20

VARIANTS = ("resonator-frequency", "coupled-coupling", "qubit-frequency")
SWEEPABLE = ("g_over_omega_c", "theta", "alpha", "omega_qh")
FORMATS = ("csv", "json")
# keys that change how a run executes or where its table goes, never a cell
_RUN_KEYS = ("workers", "out_path", "out_format")
# the variant that varies each variant-specific parameter; a cycle row leaves
# the parameter blank under every other variant
PARAMETER_VARIANT = {"alpha": "coupled-coupling", "omega_qh": "qubit-frequency"}


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


class _Typed:
    """A config object whose fields are type-checked when it is built (see ``_check_value``)."""

    def __post_init__(self) -> None:
        for name, (expected, nullable) in _field_types(type(self)).items():
            value = getattr(self, name)
            if value is not None or not nullable:
                object.__setattr__(self, name, _check_value(expected, value, name))


@dataclass(frozen=True)
class CutoffPolicy(_Typed):
    mode: str = "auto"  # "auto" | "fixed"
    n_max: int | None = None

    def resolve(self, groups: list[list[RabiParams]], n_levels: int, mapper=map) -> list[int]:
        """Fock cutoff per group of Hamiltonian sides: n_max, or the largest certified.

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
        if self.mode == "fixed":
            return [self.n_max] * len(groups)
        sides = list(dict.fromkeys(side for group in groups for side in group))
        scan = functools.partial(converged_cutoff, n_levels=n_levels)
        cutoffs = dict(zip(sides, mapper(scan, sides)))
        return [max(cutoffs[side] for side in group) for group in groups]


@dataclass(frozen=True)
class SweepAxis(_Typed):
    parameter: str = "g_over_omega_c"
    start: float = 0.0
    stop: float = 3.5
    n_points: int = 100


@dataclass(frozen=True)
class SeriesSpec(_Typed):
    parameter: str = "theta"
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class SweepConfig(_Typed):
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
    t_cold: float = DEFAULT_T_COLD
    t_hot: float = DEFAULT_T_RATIO * DEFAULT_T_COLD
    omega_ref: float = DEFAULT_OMEGA_REF
    n_levels: int = DEFAULT_N_LEVELS
    cutoff: CutoffPolicy = field(default_factory=CutoffPolicy)
    sweep: SweepAxis = field(default_factory=SweepAxis)
    series: SeriesSpec | None = None
    discord: bool = False
    workers: int = 0
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self) -> None:
        """Check the types, then the value rules, so a config passes them however it was built."""
        super().__post_init__()
        if self.kind not in _KINDS:
            raise ConfigError(f"kind: must be one of {tuple(_KINDS)}, got {self.kind!r}")
        if self.out_format not in FORMATS:
            raise ConfigError(f"out_format: must be one of {FORMATS}, got {self.out_format!r}")
        if self.sweep.n_points < 2:
            raise ConfigError(f"sweep.n_points: must be >= 2, got {self.sweep.n_points}")
        if self.sweep.start > self.sweep.stop:
            raise ConfigError(
                f"sweep.start: must not exceed sweep.stop ({self.sweep.start} > {self.sweep.stop})"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant: unknown variant {self.variant!r}")
        axes = [("sweep", self.sweep.parameter)]
        if self.series is not None:
            axes.append(("series", self.series.parameter))
        for axis, parameter in axes:
            if parameter not in SWEEPABLE:
                raise ConfigError(f"{axis}.parameter: must be one of {SWEEPABLE}, got {parameter!r}")
            owner = PARAMETER_VARIANT.get(parameter, self.variant)
            if owner != self.variant:
                raise ConfigError(f"{axis}.parameter: {parameter} is only swept in the {owner} variant")
        if self.kind != "cycle" and self.sweep.parameter != "g_over_omega_c":
            raise ConfigError(
                f"sweep.parameter: kind {self.kind} sweeps only g_over_omega_c (use a theta series)"
            )
        if self.series is not None:
            if self.series.parameter == self.sweep.parameter:
                raise ConfigError("series.parameter: must differ from sweep.parameter")
            if len(self.series.values) == 0:
                raise ConfigError("series.values: must not be empty")
        if not 0.0 < self.t_cold < self.t_hot:
            raise ConfigError(f"t_cold: require 0 < t_cold < t_hot, got {self.t_cold}, {self.t_hot}")
        if self.omega_ref <= 0.0:
            raise ConfigError(f"omega_ref: must be > 0, got {self.omega_ref}")
        if self.n_levels < 1:
            raise ConfigError(f"n_levels: must be >= 1, got {self.n_levels}")
        if self.discord and self.kind != "cycle":
            raise ConfigError(f"discord: only cycle sweeps compute discord, got kind {self.kind}")
        cutoff = self.cutoff
        if cutoff.mode not in ("auto", "fixed"):
            raise ConfigError(f"cutoff.mode: must be 'auto' or 'fixed', got {cutoff.mode!r}")
        if cutoff.mode == "fixed" and (cutoff.n_max is None or cutoff.n_max < 2):
            raise ConfigError("cutoff.n_max: fixed cutoff requires n_max >= 2")
        if cutoff.mode == "auto" and cutoff.n_max is not None:
            raise ConfigError(f"cutoff.n_max: only fixed mode reads n_max, got {cutoff.n_max}")
        if self.kind == "spectrum" and cutoff.mode == "fixed" and 2 * cutoff.n_max < self.n_levels:
            # a spectrum row lists n_levels levels, more than a basis of 2 n_max holds
            raise ConfigError(
                f"cutoff.n_max: a spectrum of {self.n_levels} levels needs 2 * n_max >= n_levels,"
                f" got n_max {cutoff.n_max}"
            )
        # in auto mode the ceiling must reach the scan start, or no cutoff can certify
        if cutoff.mode == "auto" and scan_start(self.n_levels) > CUTOFF_CEILING:
            raise ConfigError(
                f"n_levels: auto cutoffs certify at most {CUTOFF_CEILING} levels, got {self.n_levels}"
            )
        if self.kind != "spectrum" and self.n_levels < 2:
            # every other kind runs the cycle, whose heat and work over the ground
            # level alone are zero; levels and approx rows report level 1
            raise ConfigError(
                f"n_levels: kind {self.kind} runs the cycle, so must be >= 2, got {self.n_levels}"
            )
        if self.kind == "approx":
            if self.variant != "resonator-frequency":
                raise ConfigError("kind: approx comparison requires the resonator-frequency variant")
            if self.theta != 0.0 or self.series is not None:
                raise ConfigError("theta: approx is the theta = 0 closed form; set no theta or series")
            try:
                positive_work_bound(self.ratio, self.t_hot / self.t_cold)
            except ValueError as exc:
                raise ConfigError(f"ratio, t_hot: no positive-work bound: {exc}") from exc
        if self.workers < 0:
            raise ConfigError(f"workers: must be >= 0, got {self.workers}")

    def resolved_dict(self) -> dict:
        """The config as a dict; ``json.dumps`` of it parses back to the same config."""
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of the resolved config without its run keys (_RUN_KEYS)."""
        computation = {k: v for k, v in self.resolved_dict().items() if k not in _RUN_KEYS}
        payload = json.dumps(computation, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@functools.cache
def _field_types(cls) -> dict[str, tuple[type, bool]]:
    """Config key -> (type, whether None is allowed) for a config dataclass.

    Every union among the fields is ``X | None``, which reads as X, nullable.
    """
    hints = typing.get_type_hints(cls)
    types = {}
    for f in fields(cls):
        nullable = isinstance(hints[f.name], UnionType)
        types[f.name] = (typing.get_args(hints[f.name])[0] if nullable else hints[f.name], nullable)
    return types


# type -> (accepted types, name in the error message); a tuple key is a JSON list
_ACCEPTS = {
    bool: (bool, "a boolean"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    tuple: ((list, tuple), "a list"),
}


def _build(cls, data: dict):
    """Instance of a config dataclass from its raw dict; null means "use the default"."""
    types = _field_types(cls)
    for key in data:
        if key not in types:
            raise ConfigError(f"{key}: unknown configuration key")
    return cls(**{key: value for key, value in data.items() if value is not None})


def _check_value(expected, value, where: str):
    """``value`` as a field of type ``expected``; a dict builds a config object.

    The one type rule for config keys: every config object checks its
    fields with it when built.
    """
    if is_dataclass(expected):
        if isinstance(value, expected):
            return value
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object")
        try:
            return _build(expected, value)
        except ConfigError as exc:  # name the key by its path in the document
            raise ConfigError(f"{where}.{exc}") from exc
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


def _env_document(environ: dict | None) -> dict:
    """RABIOTTO_* variables as a nested document: RABIOTTO_A__B=v gives {"a": {"b": v}}.

    A value that is not JSON is the string itself. Every name becomes a key
    path, so one that matches no config key fails in ``_build``.
    """
    environ = os.environ if environ is None else environ
    doc: dict = {}
    for name in sorted(n for n in environ if n.startswith(ENV_PREFIX)):
        *parents, key = name[len(ENV_PREFIX):].lower().split("__")
        target = doc
        for part in parents:
            if not isinstance(target.get(part), dict):
                target[part] = {}
            target = target[part]
        try:
            target[key] = json.loads(environ[name])
        except json.JSONDecodeError:
            target[key] = environ[name]
    return doc


def _overlay(data: dict, overrides: dict) -> None:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            _overlay(data[key], value)
        else:
            data[key] = value


def _series_values(config: SweepConfig) -> list[float | None]:
    return list(config.series.values) if config.series is not None else [None]


def parse_config(text: str, environ: dict | None = None, overrides: dict | None = None) -> SweepConfig:
    """Decode a JSON config document, overlay RABIOTTO_* variables of ``environ``
    (default os.environ), then ``overrides``, and build the config from it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config document is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    _overlay(data, _env_document(environ))
    _overlay(data, overrides or {})
    if data.get("t_cold") is not None and data.get("t_hot") is None:
        # preserve the default T_h / T_c when only T_c is given
        data["t_hot"] = DEFAULT_T_RATIO * float(_check_value(float, data["t_cold"], "t_cold"))
    return _build(SweepConfig, data)


# ---------------------------------------------------------------------------
# figure presets

# work output per mixing angle (fig5); fig4 adds discord
_THETA_SERIES = {
    "series": {"parameter": "theta", "values": [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8]},
    "sweep": {"n_points": 71},
}
# qubit-frequency work output per hot qubit frequency (fig7); fig8 adds discord
_QUBIT_FREQUENCY = {
    "variant": "qubit-frequency",
    "t_hot": 4 * DEFAULT_T_COLD,
    "series": {"parameter": "omega_qh", "values": [1.0, 1.5, 2.0]},
    "sweep": {"parameter": "g_over_omega_c", "start": 0.0, "stop": 3.0, "n_points": 61},
}

# figure_preset deep-copies, so presets may share these blocks
_PRESETS: dict[str, dict] = {
    # total work and per-level contributions across the engine/refrigerator
    # transitions; theta = 0, R = 2, T_h = 9 T_c
    "fig2": {},
    # first-excited energies and populations against the thermal energies
    "fig3": {"kind": "levels", "sweep": {"n_points": 141}},
    # discord differences D(rho4)-D(rho1), D(rho3)-D(rho1) per mixing angle
    "fig4": {**_THETA_SERIES, "discord": True},
    "fig5": _THETA_SERIES,
    # efficiency under the coupled-coupling protocol per alpha
    "fig6": {
        "variant": "coupled-coupling",
        "series": {"parameter": "alpha", "values": [0.8, 1.0, 1.2]},
        "sweep": {"parameter": "g_over_omega_c", "start": 0.0, "stop": 2.0, "n_points": 50},
    },
    "fig7": _QUBIT_FREQUENCY,
    "fig8": {**_QUBIT_FREQUENCY, "discord": True},
    # energy spectrum of the quantum Rabi model relative to the ground state
    "fig9": {"kind": "spectrum", "n_levels": 10, "sweep": {"n_points": 71}},
    # numeric W_1 against the two-level approximation and its sign bound
    "fig10": {"kind": "approx"},
}


def figure_preset(name: str) -> SweepConfig:
    """The sweep configuration reproducing one figure's underlying data."""
    if name not in _PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}; known: {sorted(_PRESETS)}")
    return parse_config(json.dumps(_PRESETS[name]), environ={})


# ---------------------------------------------------------------------------
# sweep execution

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
    cutoffs = config.cutoff.resolve(groups, config.n_levels, mapper)
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


# kind -> (columns, point function, protocol sides it solves); the discord
# columns show only when discord is on
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
    pool = ProcessPoolExecutor if config.discord else ThreadPoolExecutor
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
