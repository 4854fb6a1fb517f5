"""Quantum Otto cycle: states, heat, work, per-level work and efficiency.

The four-stage cycle alternates isochoric thermalization (populations change,
levels fixed) with adiabatic strokes (levels change, populations frozen by the
quantum adiabatic theorem):

    rho1 = sum_n P_n(T_h) |E_n^h><E_n^h|     hot thermal state
    rho2 = sum_n P_n(T_h) |E_n^c><E_n^c|     after expansion
    rho3 = sum_n P_n(T_c) |E_n^c><E_n^c|     cold thermal state
    rho4 = sum_n P_n(T_c) |E_n^h><E_n^h|     after compression

No time evolution is simulated: adiabatic strokes carry the population vector
onto the other eigenbasis directly. Heat and work follow from

    Q_h = sum_n E_n^h (P_n(T_h) - P_n(T_c))
    Q_c = sum_n E_n^c (P_n(T_c) - P_n(T_h))
    W   = Q_h + Q_c = sum_n W_n,   W_n = (E_n^h - E_n^c)(P_n(T_h) - P_n(T_c))

with both spectra referenced to their own ground state (W_0 = 0 and all
quantities invariant under constant spectral shifts). Sums truncate at
n_levels; the neglected hot-bath population mass is checked and reported.

Three adiabatic-protocol variants are supported: "resonator-frequency"
(omega_cav = omega_q swept between omega_c and omega_h at fixed g, theta),
"coupled-coupling" (additionally g_h = alpha (omega_h/omega_c) g_c, so
alpha = 1 makes H_h exactly proportional to H_c) and "qubit-frequency"
(resonator and coupling fixed, only omega_q changes).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import RabiParams, build_hamiltonian
from .hilbert import FockCutoff, OperatorMatrix
from .spectral import (
    CUTOFF_CEILING,
    CUTOFF_TOL,
    SpectralDecomposition,
    converged_cutoff,
    eigendecompose,
)
from .units import DEFAULT_OMEGA_REF, thermal_energy

__all__ = [
    "CycleProtocol",
    "CycleReport",
    "CycleStates",
    "ReservoirSpec",
    "certified_cutoffs",
    "classify_regime",
    "coupled_coupling_protocol",
    "qubit_frequency_protocol",
    "resonator_frequency_protocol",
    "run_cycle",
    "thermal_populations",
]

VARIANTS = ("resonator-frequency", "coupled-coupling", "qubit-frequency")

DEFAULT_N_LEVELS = 24
TAIL_MASS_TOL = 1e-8
WORK_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class ReservoirSpec:
    """Cold/hot reservoir temperatures (kelvin) plus the energy conversion.

    ``energy_scale`` is k_B * 1 K / (hbar * omega_ref): multiplying a kelvin
    temperature by it gives the thermal energy in units of hbar * omega_ref.
    """

    t_cold: float
    t_hot: float
    omega_ref: float = DEFAULT_OMEGA_REF

    def __post_init__(self):
        if not 0.0 < self.t_cold < self.t_hot:
            raise ValueError(
                f"require 0 < T_c < T_h, got T_c={self.t_cold}, T_h={self.t_hot}"
            )
        if self.omega_ref <= 0.0:
            raise ValueError(f"omega_ref must be > 0, got {self.omega_ref}")

    @property
    def energy_scale(self) -> float:
        return thermal_energy(1.0, self.omega_ref)

    @property
    def kt_cold(self) -> float:
        """k_B T_c in units of hbar * omega_ref."""
        return thermal_energy(self.t_cold, self.omega_ref)

    @property
    def kt_hot(self) -> float:
        return thermal_energy(self.t_hot, self.omega_ref)


@dataclass(frozen=True)
class CycleProtocol:
    """One full Otto-cycle configuration (validated per variant)."""

    variant: str
    cold: RabiParams
    hot: RabiParams
    reservoirs: ReservoirSpec
    alpha: float | None = None
    n_levels: int = DEFAULT_N_LEVELS

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {self.n_levels}")
        c, h = self.cold, self.hot
        if abs(h.theta - c.theta) > 1e-12:
            raise ValueError("mixing angle theta must be shared between hot and cold")
        if self.variant == "resonator-frequency" or self.variant == "coupled-coupling":
            if not (
                math.isclose(c.omega_cav, c.omega_q, rel_tol=0, abs_tol=1e-12)
                and math.isclose(h.omega_cav, h.omega_q, rel_tol=0, abs_tol=1e-12)
            ):
                raise ValueError(f"{self.variant} requires omega_cav = omega_q on both sides")
            # >= rather than > so the trivial identical-Hamiltonian cycle (R = 1) is allowed
            if h.omega_cav < c.omega_cav:
                raise ValueError("requires omega_h >= omega_c")
        if self.variant == "resonator-frequency":
            if abs(h.g - c.g) > 1e-12:
                raise ValueError("resonator-frequency variant keeps g constant")
        elif self.variant == "coupled-coupling":
            if self.alpha is None:
                raise ValueError("coupled-coupling variant requires alpha")
            expected = self.alpha * (h.omega_cav / c.omega_cav) * c.g
            if abs(h.g - expected) > 1e-10 * max(1.0, abs(expected)):
                raise ValueError(
                    f"coupled-coupling requires g_h = alpha (omega_h/omega_c) g_c = {expected}, got {h.g}"
                )
        else:  # qubit-frequency
            if abs(h.omega_cav - c.omega_cav) > 1e-12 or abs(h.g - c.g) > 1e-12:
                raise ValueError("qubit-frequency variant keeps omega_cav and g constant")
            if h.omega_q < c.omega_q:
                raise ValueError("qubit-frequency variant requires omega_qh >= omega_qc")


def resonator_frequency_protocol(
    g: float,
    theta: float = 0.0,
    omega_c: float = 1.0,
    ratio: float = 2.0,
    reservoirs: ReservoirSpec | None = None,
    n_levels: int = DEFAULT_N_LEVELS,
) -> CycleProtocol:
    """Resonator-frequency protocol: omega_cav = omega_q swept, g and theta fixed."""
    reservoirs = reservoirs or ReservoirSpec(0.019, 9 * 0.019)
    return CycleProtocol(
        variant="resonator-frequency",
        cold=RabiParams.resonant(omega_c, g=g, theta=theta),
        hot=RabiParams.resonant(ratio * omega_c, g=g, theta=theta),
        reservoirs=reservoirs,
        n_levels=n_levels,
    )


def coupled_coupling_protocol(
    g_c: float,
    alpha: float = 1.0,
    theta: float = 0.0,
    omega_c: float = 1.0,
    ratio: float = 2.0,
    reservoirs: ReservoirSpec | None = None,
    n_levels: int = DEFAULT_N_LEVELS,
) -> CycleProtocol:
    """Coupled-coupling protocol: g_h = alpha (omega_h/omega_c) g_c."""
    reservoirs = reservoirs or ReservoirSpec(0.019, 9 * 0.019)
    g_h = alpha * ratio * g_c
    return CycleProtocol(
        variant="coupled-coupling",
        cold=RabiParams.resonant(omega_c, g=g_c, theta=theta),
        hot=RabiParams.resonant(ratio * omega_c, g=g_h, theta=theta),
        reservoirs=reservoirs,
        alpha=alpha,
        n_levels=n_levels,
    )


def qubit_frequency_protocol(
    g: float,
    omega_qc: float = 0.5,
    omega_qh: float = 1.0,
    omega_cav: float = 1.0,
    theta: float = 0.0,
    reservoirs: ReservoirSpec | None = None,
    n_levels: int = DEFAULT_N_LEVELS,
) -> CycleProtocol:
    """Qubit-frequency protocol: only omega_q changes during the adiabats."""
    reservoirs = reservoirs or ReservoirSpec(0.019, 4 * 0.019)
    return CycleProtocol(
        variant="qubit-frequency",
        cold=RabiParams(omega_cav, omega_qc, g=g, theta=theta),
        hot=RabiParams(omega_cav, omega_qh, g=g, theta=theta),
        reservoirs=reservoirs,
        n_levels=n_levels,
    )


def _density_from(decomposition: SpectralDecomposition, populations: np.ndarray) -> OperatorMatrix:
    v = decomposition.states
    rho = (v * populations) @ v.conj().T
    dims = None
    if decomposition.cutoff_used is not None:
        dims = (2, decomposition.cutoff_used.n_max)
    return OperatorMatrix(rho, subsystem_dims=dims)


@dataclass(frozen=True)
class CycleStates:
    """Both spectra and both population vectors; the four states on demand.

    Each ``rho`` property builds its dense density matrix at every access,
    in the dtype of the eigenvectors (float64 for every Rabi Hamiltonian), so
    callers that read no state, such as the work sweeps, pay for none.
    """

    hot: SpectralDecomposition
    cold: SpectralDecomposition
    populations_hot: np.ndarray  # P_n(T_h), full length dim
    populations_cold: np.ndarray  # P_n(T_c)

    def __post_init__(self):
        for name in ("populations_hot", "populations_cold"):
            p = np.asarray(getattr(self, name), dtype=float)
            p.flags.writeable = False
            object.__setattr__(self, name, p)

    rho1 = property(lambda self: _density_from(self.hot, self.populations_hot))  # hot thermal
    rho2 = property(lambda self: _density_from(self.cold, self.populations_hot))  # after expansion
    rho3 = property(lambda self: _density_from(self.cold, self.populations_cold))  # cold thermal
    rho4 = property(lambda self: _density_from(self.hot, self.populations_cold))  # after compression


@dataclass(frozen=True)
class CycleReport:
    """Heat, work, per-level work, efficiency and operating regime.

    Energies are in units of hbar * omega_ref. ``eta`` is W/Q_h when Q_h > 0
    and NaN otherwise. ``tail_mass_hot`` is the hot-bath population mass left
    out of the n_levels-truncated sums; exceeding TAIL_MASS_TOL appends a
    truncation warning.
    """

    q_hot: float
    q_cold: float
    work: float
    work_per_level: np.ndarray
    eta: float
    regime: str
    tail_mass_hot: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        w = np.asarray(self.work_per_level, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "work_per_level", w)


def thermal_populations(energies: np.ndarray, kt: float) -> np.ndarray:
    """Boltzmann populations P_n over the given ascending energies.

    ``kt`` is the thermal energy k_B T in the same units as ``energies``.
    Exponents are ground-referenced before exponentiation so arbitrarily cold
    temperatures cannot overflow.
    """
    if kt <= 0.0:
        raise ValueError(f"thermal energy kt must be > 0, got {kt}")
    e = np.asarray(energies, dtype=float)
    x = -(e - e[0]) / kt
    x -= x.max()  # no-op for sorted input; guards unsorted against overflow
    p = np.exp(x)
    return p / p.sum()


def classify_regime(work: "float | CycleReport", tol: float = WORK_REGIME_TOL) -> str:
    """'engine' for W > tol, 'refrigerator' for W < -tol, else 'idle'.

    Accepts either the net work value or a whole CycleReport.
    """
    w = work.work if isinstance(work, CycleReport) else float(work)
    if w > tol:
        return "engine"
    if w < -tol:
        return "refrigerator"
    return "idle"


def _report_from_spectra(
    energies_hot: np.ndarray,
    energies_cold: np.ndarray,
    populations_hot: np.ndarray,
    populations_cold: np.ndarray,
    n_levels: int,
) -> CycleReport:
    eh = energies_hot - energies_hot[0]
    ec = energies_cold - energies_cold[0]
    k = min(n_levels, len(eh), len(ec))
    dp = populations_hot[:k] - populations_cold[:k]
    wn = (eh[:k] - ec[:k]) * dp
    wn[0] = 0.0  # ground-referenced: exactly no ground-state contribution
    q_hot = float(np.dot(eh[:k], dp))
    q_cold = float(-np.dot(ec[:k], dp))
    work = float(np.sum(wn))
    tail = float(1.0 - populations_hot[:k].sum())
    warnings = ()
    if tail > TAIL_MASS_TOL:
        warnings = (
            f"truncated sums: hot-bath tail population {tail:.3e} beyond {k} levels",
        )
    eta = work / q_hot if q_hot > 0.0 else float("nan")
    return CycleReport(
        q_hot=q_hot,
        q_cold=q_cold,
        work=work,
        work_per_level=wn,
        eta=eta,
        regime=classify_regime(work),
        tail_mass_hot=tail,
        warnings=warnings,
    )


def certified_cutoffs(
    groups: Iterable[Iterable[RabiParams]],
    n_levels: int,
    tol: float = CUTOFF_TOL,
    ceiling: int = CUTOFF_CEILING,
) -> list[FockCutoff]:
    """For each group of Hamiltonian sides, the largest certified cutoff.

    Every RabiParams of a group gets a ``converged_cutoff`` scan of its lowest
    n_levels, and the group's cutoff is the largest. Callers pass only the
    sides they solve. Each distinct RabiParams is scanned once per call,
    however many groups share it; nothing is kept between calls.
    """
    @functools.cache
    def scan(params: RabiParams) -> int:
        return converged_cutoff(params, n_levels, tol, ceiling=ceiling).n_max

    return [FockCutoff(max(scan(side) for side in group)) for group in groups]


def run_cycle(
    protocol: CycleProtocol,
    cutoff: FockCutoff | int | None = None,
) -> tuple[CycleStates, CycleReport]:
    """Solve both Hamiltonians; return the cycle states and the heat/work report.

    When ``cutoff`` is omitted, the ``certified_cutoffs`` value of both sides
    at the default tolerance is used. Populations are normalized over the full
    truncated spectrum; only the heat/work sums truncate at n_levels. The
    density matrices are built only when a ``rho`` property is read.
    """
    if cutoff is None:
        cutoff = certified_cutoffs([[protocol.cold, protocol.hot]], protocol.n_levels)[0]
    elif not isinstance(cutoff, FockCutoff):
        cutoff = FockCutoff(int(cutoff))

    hot = eigendecompose(build_hamiltonian(protocol.hot, cutoff))
    cold = eigendecompose(build_hamiltonian(protocol.cold, cutoff))
    p_hot = thermal_populations(hot.energies, protocol.reservoirs.kt_hot)
    p_cold = thermal_populations(cold.energies, protocol.reservoirs.kt_cold)

    states = CycleStates(hot=hot, cold=cold, populations_hot=p_hot, populations_cold=p_cold)
    report = _report_from_spectra(
        hot.energies, cold.energies, p_hot, p_cold, protocol.n_levels
    )
    return states, report
