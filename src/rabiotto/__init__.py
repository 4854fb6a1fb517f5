"""Quantum Otto heat engine with a generalized-Rabi working substance.

Library layout:
  hilbert       the real-array rule, the cutoff check, the dense OperatorMatrix
  hamiltonian   the generalized quantum Rabi Hamiltonian and its parity sectors
  spectral      the certified solve of a Rabi Hamiltonian (LAPACK behind a
                residual/orthonormality certificate), and cutoff convergence
  cycle         Otto-cycle states, heat, work, per-level work, efficiency
  correlations  von Neumann entropy and quantum discord
  approx        displaced-oscillator closed forms and the positive-work bound
  config        sweep configs, their checks and the figure presets (no numpy)
  sweep         parameter sweeps, CSV/JSON export
  cli           the `rabiotto` command-line interface

The names below are loaded from their modules on first use, so ``import
rabiotto`` alone loads no numpy: the CLI sets its BLAS thread variables
after the package is imported and before numpy is. Neither does resolving a
config or a figure preset, whose names come from ``config``.
"""

import importlib

_EXPORTS = {
    "approx": ("approx_levels", "approx_w1", "laguerre", "positive_work_bound"),
    "config": ("ConfigError", "SweepConfig", "figure_preset", "parse_config"),
    "correlations": (
        "DiscordDifferences", "DiscordResult", "MeasurementBasis", "discord_differences",
        "quantum_discord", "von_neumann_entropy",
    ),
    "cycle": (
        "CycleProtocol", "CycleReport", "CycleStates", "ReservoirSpec", "carry_populations", "classify_regime",
        "coupled_coupling_protocol", "qubit_frequency_protocol", "resonator_frequency_protocol",
        "run_cycle", "run_cycles", "thermal_populations",
    ),
    "hamiltonian": ("RabiParams", "build_hamiltonian", "conserves_parity", "parity_sectors"),
    "hilbert": ("OperatorMatrix",),
    "spectral": (
        "ConvergenceError", "SpectralDecomposition", "converged_cutoff",
        "relative_spectrum", "solve_hamiltonian", "solve_hamiltonians", "symmetric_eigh",
    ),
    "sweep": ("run_sweep", "write_output"),
    "units": ("DEFAULT_OMEGA_REF", "thermal_energy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # any other name raises, so `from rabiotto import cycle` imports the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
