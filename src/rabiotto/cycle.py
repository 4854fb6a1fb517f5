"""Quantum Otto cycle: states, heat, work, per-level work and efficiency.

The four-stage cycle alternates isochoric thermalization (populations change,
levels fixed) with adiabatic strokes (levels change, populations frozen by the
quantum adiabatic theorem):

    rho1 = sum_n P_n(T_h) |E_n^h><E_n^h|     hot thermal state
    rho2 = sum_n P_n(T_h) |E_n^c><E_n^c|     after expansion
    rho3 = sum_n P_n(T_c) |E_n^c><E_n^c|     cold thermal state
    rho4 = sum_n P_n(T_c) |E_n^h><E_n^h|     after compression

No time evolution is simulated: adiabatic strokes carry the population vector
onto the other eigenbasis directly, level n onto level n. ``CycleStates``
keeps the four states in this spectral form: the two eigendecompositions and
the two population vectors. Each side is solved at its own Fock cutoff, so the
two bases may differ in size; ``carry_populations`` carries a population
vector onto the other basis, truncating it or padding it with zeros, and
raises ValueError if the levels it drops hold more than CARRY_TOL (1e-12).
Heat and work follow from

    Q_h = sum_n E_n^h (P_n(T_h) - P_n(T_c))
    Q_c = sum_n E_n^c (P_n(T_c) - P_n(T_h))
    W   = Q_h + Q_c = sum_n W_n,   W_n = (E_n^h - E_n^c)(P_n(T_h) - P_n(T_c))

with both spectra referenced to their own ground state (W_0 = 0 and all
quantities invariant under constant spectral shifts). Sums truncate at
n_levels; the neglected hot-bath population mass is checked and reported.

A CycleProtocol is the two sides of the adiabats, cold and hot RabiParams,
with the reservoirs and n_levels. Three constructors define the adiabatic
protocols and check their own inputs: ``resonator_frequency_protocol``
(omega_cav = omega_q swept between omega_c and omega_h at fixed g, theta),
``coupled_coupling_protocol`` (additionally g_h = alpha (omega_h/omega_c) g_c,
so alpha = 1 makes H_h exactly proportional to H_c) and
``qubit_frequency_protocol`` (resonator and coupling fixed, only omega_q
changes).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import RabiParams, build_hamiltonian  # noqa: F401  (bench/tracing.py wraps this name)
from .hilbert import frozen_copy
from .spectral import SpectralDecomposition, converged_cutoff, ground_referenced, solve_hamiltonians
from .units import DEFAULT_N_LEVELS, DEFAULT_OMEGA_REF, DEFAULT_T_COLD, DEFAULT_T_RATIO, thermal_energy
eigendecompose = None  # never called: bench/tracing.py TARGETS sets this name until ROADMAP item 13

__all__ = [
    "CycleProtocol",
    "CycleReport",
    "CycleStates",
    "ReservoirSpec",
    "carry_populations",
    "classify_regime",
    "coupled_coupling_protocol",
    "qubit_frequency_protocol",
    "resonator_frequency_protocol",
    "run_cycle",
    "run_cycles",
    "thermal_populations",
]

TAIL_MASS_TOL = 1e-8
CARRY_TOL = 1e-12  # population mass carry_populations may drop
WORK_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class ReservoirSpec:
    """Cold/hot reservoir temperatures (kelvin) and the reference frequency of the energy unit."""

    t_cold: float
    t_hot: float
    omega_ref: float = DEFAULT_OMEGA_REF

    def __post_init__(self):
        if not 0.0 < self.t_cold < self.t_hot < math.inf:
            raise ValueError(
                f"require 0 < T_c < T_h < inf, got T_c={self.t_cold}, T_h={self.t_hot}"
            )
        if not 0.0 < self.omega_ref < math.inf:
            raise ValueError(f"omega_ref must be finite and > 0, got {self.omega_ref}")

    @property
    def kt_cold(self) -> float:
        """k_B T_c in units of hbar * omega_ref."""
        return thermal_energy(self.t_cold, self.omega_ref)

    @property
    def kt_hot(self) -> float:
        return thermal_energy(self.t_hot, self.omega_ref)


@dataclass(frozen=True)
class CycleProtocol:
    """One full Otto cycle: the cold and hot sides, the reservoirs and n_levels."""

    cold: RabiParams
    hot: RabiParams
    reservoirs: ReservoirSpec
    n_levels: int = DEFAULT_N_LEVELS

    def __post_init__(self):
        if self.n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {self.n_levels}")
        if abs(self.hot.theta - self.cold.theta) > 1e-12:
            raise ValueError("mixing angle theta must be shared between hot and cold")


def _resonant_sides(
    omega_c: float, ratio: float, g_c: float, g_h: float, theta: float
) -> tuple[RabiParams, RabiParams]:
    """Cold and hot sides with omega_cav = omega_q, ramped from omega_c to ratio * omega_c."""
    cold = RabiParams.resonant(omega_c, g=g_c, theta=theta)
    hot = RabiParams.resonant(ratio * omega_c, g=g_h, theta=theta)
    # >= rather than > so the trivial identical-Hamiltonian cycle (R = 1) is allowed
    if hot.omega_cav < cold.omega_cav:
        raise ValueError("requires omega_h >= omega_c")
    return cold, hot


def resonator_frequency_protocol(
    g: float,
    theta: float = 0.0,
    omega_c: float = 1.0,
    ratio: float = 2.0,
    reservoirs: ReservoirSpec | None = None,
    n_levels: int = DEFAULT_N_LEVELS,
) -> CycleProtocol:
    """Resonator-frequency protocol: omega_cav = omega_q swept, g and theta fixed."""
    reservoirs = reservoirs or ReservoirSpec(DEFAULT_T_COLD, DEFAULT_T_RATIO * DEFAULT_T_COLD)
    cold, hot = _resonant_sides(omega_c, ratio, g, g, theta)
    return CycleProtocol(cold, hot, reservoirs, n_levels)


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
    reservoirs = reservoirs or ReservoirSpec(DEFAULT_T_COLD, DEFAULT_T_RATIO * DEFAULT_T_COLD)
    cold, hot = _resonant_sides(omega_c, ratio, g_c, alpha * ratio * g_c, theta)
    return CycleProtocol(cold, hot, reservoirs, n_levels)


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
    reservoirs = reservoirs or ReservoirSpec(DEFAULT_T_COLD, 4 * DEFAULT_T_COLD)
    cold = RabiParams(omega_cav, omega_qc, g=g, theta=theta)
    hot = RabiParams(omega_cav, omega_qh, g=g, theta=theta)
    if hot.omega_q < cold.omega_q:
        raise ValueError("qubit-frequency variant requires omega_qh >= omega_qc")
    return CycleProtocol(cold, hot, reservoirs, n_levels)


@dataclass(frozen=True)
class CycleStates:
    """Both spectra and both population vectors: the four states in spectral form.

    rho1 is (hot, populations_hot) and rho3 (cold, populations_cold); each
    population vector has one entry per level of its own side. rho2 is
    (cold, populations_hot) and rho4 (hot, populations_cold), each vector
    carried onto the other side's basis by ``carry_populations``, since the
    two sides may be solved at different cutoffs.
    """

    hot: SpectralDecomposition
    cold: SpectralDecomposition
    populations_hot: np.ndarray  # P_n(T_h) over the hot levels
    populations_cold: np.ndarray  # P_n(T_c) over the cold levels

    def __post_init__(self):
        for name in ("populations_hot", "populations_cold"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))


@dataclass(frozen=True)
class CycleReport:
    """Heat, work, per-level work, efficiency and operating regime.

    Energies are in units of hbar * omega_ref. ``eta`` is W/Q_h when Q_h > 0
    and NaN otherwise. ``tail_mass_hot`` is the hot-bath population mass left
    out of the n_levels-truncated sums; exceeding TAIL_MASS_TOL appends a
    truncation warning, and so does a basis with fewer than n_levels levels,
    whose sums stop at the basis size.
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
        object.__setattr__(self, "work_per_level", frozen_copy(self.work_per_level))


def thermal_populations(energies: np.ndarray, kt: float) -> np.ndarray:
    """Boltzmann populations P_n over the given ascending energies.

    ``kt`` is the thermal energy k_B T in the same units as ``energies``; it
    must be finite and > 0 (nan and inf raise ValueError).
    Exponents are ground-referenced before exponentiation so arbitrarily cold
    temperatures cannot overflow.
    """
    if not 0.0 < kt < math.inf:
        raise ValueError(f"thermal energy kt must be finite and > 0, got {kt}")
    e = np.asarray(energies, dtype=float)
    x = -(e - e[0]) / kt
    x -= x.max()  # no-op for sorted input; guards unsorted against overflow
    p = np.exp(x)
    return p / p.sum()


def carry_populations(populations: np.ndarray, dim: int) -> np.ndarray:
    """``populations`` by level index on a basis of ``dim`` levels: truncated, or padded with zeros.

    This is how an adiabatic stroke carries level n onto level n when the two
    sides were solved at different cutoffs. Raises ValueError if the dropped
    levels hold more than CARRY_TOL (1e-12) of the mass, far below the 1e-10
    trace check of ``quantum_discord``.
    """
    populations = np.asarray(populations, dtype=float)
    dropped = float(populations[dim:].sum())
    if not dropped <= CARRY_TOL:
        raise ValueError(
            f"carrying {len(populations)} populations onto {dim} levels drops mass {dropped:.3e}"
            f" above {CARRY_TOL:.0e}"
        )
    carried = np.zeros(dim)
    carried[: len(populations)] = populations[:dim]
    return carried


def classify_regime(work: float, tol: float = WORK_REGIME_TOL) -> str:
    """'engine' for W > tol, 'refrigerator' for W < -tol, else 'idle'."""
    if work > tol:
        return "engine"
    if work < -tol:
        return "refrigerator"
    return "idle"


def _report_from_spectra(
    energies_hot: np.ndarray,
    energies_cold: np.ndarray,
    populations_hot: np.ndarray,
    populations_cold: np.ndarray,
    n_levels: int,
) -> CycleReport:
    eh = ground_referenced(energies_hot)
    ec = ground_referenced(energies_cold)
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
        warnings += (f"truncated sums: hot-bath tail population {tail:.3e} beyond {k} levels",)
    if k < n_levels:  # the tail above is then empty by construction
        warnings += (f"truncated sums: the basis holds {k} levels, fewer than n_levels {n_levels}",)
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


def run_cycle(
    protocol: CycleProtocol,
    cutoff: int | tuple[int, int] | None = None,
) -> tuple[CycleStates, CycleReport]:
    """Solve both Hamiltonians; return the cycle states and the heat/work report.

    ``cutoff`` is one Fock cutoff for both sides or a (cold, hot) pair. When
    it is omitted, each side takes its own ``converged_cutoff`` at the
    default tolerance and ceiling (identical sides are scanned once).
    Populations are normalized over each side's full truncated spectrum;
    only the heat/work sums truncate at n_levels.
    """
    if cutoff is None:
        scans = {side: converged_cutoff(side, protocol.n_levels) for side in {protocol.cold, protocol.hot}}
        cutoff = (scans[protocol.cold], scans[protocol.hot])
    return run_cycles([protocol], cutoff)[0]


def run_cycles(
    protocols: Sequence[CycleProtocol], cutoff: int | tuple[int, int]
) -> list[tuple[CycleStates, CycleReport]]:
    """``run_cycle`` of each protocol at one shared cutoff, or (cold, hot) pair, in order.

    The hot sides are solved in one ``solve_hamiltonians`` call and the cold
    sides in another, so each result equals ``run_cycle(protocol, cutoff)``
    bit for bit. A failure of either solve raises for the whole call.
    """
    cutoff_cold, cutoff_hot = cutoff if isinstance(cutoff, tuple) else (cutoff, cutoff)
    hots = solve_hamiltonians([p.hot for p in protocols], cutoff_hot)
    colds = solve_hamiltonians([p.cold for p in protocols], cutoff_cold)
    results = []
    for protocol, hot, cold in zip(protocols, hots, colds):
        p_hot = thermal_populations(hot.energies, protocol.reservoirs.kt_hot)
        p_cold = thermal_populations(cold.energies, protocol.reservoirs.kt_cold)
        states = CycleStates(hot=hot, cold=cold, populations_hot=p_hot, populations_cold=p_cold)
        report = _report_from_spectra(hot.energies, cold.energies, p_hot, p_cold, protocol.n_levels)
        results.append((states, report))
    return results
