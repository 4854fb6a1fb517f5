"""Quantum Otto heat engine with a generalized-Rabi working substance.

Library layout:
  hilbert       operators on the truncated qubit (x) oscillator space
  hamiltonian   the generalized quantum Rabi Hamiltonian
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
    certified_cutoffs,
    classify_regime,
    coupled_coupling_protocol,
    qubit_frequency_protocol,
    resonator_frequency_protocol,
    run_cycle,
    thermal_populations,
)
from .hamiltonian import RabiParams, build_hamiltonian, parity_operator
from .hilbert import (
    FockCutoff,
    OperatorMatrix,
    annihilation,
    creation,
    identity,
    number_operator,
    partial_trace,
    pauli,
    tensor,
)
from .spectral import (
    ConvergenceError,
    SpectralDecomposition,
    converged_cutoff,
    eigendecompose,
    hermitian_eigh,
    relative_spectrum,
    symmetric_eigh,
)
from .sweep import ConfigError, SweepConfig, figure_preset, parse_config, run_sweep, write_output
from .units import DEFAULT_OMEGA_REF, thermal_energy

__version__ = "0.1.0"
