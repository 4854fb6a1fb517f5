"""Sweep configs and figure presets, resolved without loading numpy.

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

This module imports only the standard library, ``approx`` and ``units``, so
building, checking and hashing a config, or resolving a figure preset, loads
no numpy; ``sweep`` runs what a config describes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from types import UnionType

from .approx import positive_work_bound
from .units import CUTOFF_CEILING, DEFAULT_N_LEVELS, DEFAULT_OMEGA_REF, DEFAULT_T_COLD, DEFAULT_T_RATIO
from .units import scan_start

__all__ = [
    "ConfigError", "CutoffPolicy", "SeriesSpec", "SweepAxis", "SweepConfig", "figure_preset", "parse_config",
]

ENV_PREFIX = "RABIOTTO_"

# the sweep kinds, in the order of sweep._KINDS, which is keyed by them
KINDS = ("cycle", "spectrum", "levels", "approx")
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
    """Fock cutoffs certified by cutoff scans ("auto"), or n_max ("fixed"); see ``sweep.resolve_cutoffs``."""

    mode: str = "auto"  # "auto" | "fixed"
    n_max: int | None = None


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
        if self.kind not in KINDS:
            raise ConfigError(f"kind: must be one of {KINDS}, got {self.kind!r}")
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
