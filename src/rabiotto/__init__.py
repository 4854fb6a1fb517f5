"""Quantum Otto heat engine with a generalized-Rabi working substance.

Library layout:
  hilbert       dense operators on the qubit (x) oscillator space, the cutoff check
  hamiltonian   the generalized quantum Rabi Hamiltonian and its parity sectors
  spectral      LAPACK eigendecomposition behind a residual/orthonormality
                certificate, and cutoff convergence
  cycle         Otto-cycle states, heat, work, per-level work, efficiency
  correlations  von Neumann entropy and quantum discord
  approx        displaced-oscillator closed forms and the positive-work bound
  sweep         parameter sweeps, figure presets, CSV/JSON export
  cli           the `rabiotto` command-line interface
"""

from .approx import approx_levels, approx_w1, laguerre, positive_work_bound
from .correlations import (
    DiscordDifferences,
    DiscordResult,
    MeasurementBasis,
    conditional_entropy,
    discord_differences,
    quantum_discord,
    von_neumann_entropy,
)
from .cycle import (
    CycleProtocol,
    CycleReport,
    CycleStates,
    ReservoirSpec,
    classify_regime,
    coupled_coupling_protocol,
    qubit_frequency_protocol,
    resonator_frequency_protocol,
    run_cycle,
    thermal_populations,
)
from .hamiltonian import RabiParams, build_hamiltonian, conserves_parity, parity_operator, parity_sectors
from .hilbert import OperatorMatrix
from .spectral import (
    ConvergenceError,
    SpectralDecomposition,
    converged_cutoff,
    eigendecompose,
    relative_spectrum,
    solve_hamiltonian,
    symmetric_eigh,
)
from .sweep import ConfigError, SweepConfig, figure_preset, parse_config, run_sweep, write_output
from .units import DEFAULT_OMEGA_REF, thermal_energy

__version__ = "0.1.0"
