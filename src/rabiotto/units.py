"""Unit conventions and physical constants.

All Hamiltonians and energies in this package are dimensionless, expressed in
units of hbar * omega_ref for a reference angular frequency omega_ref (rad/s).
By convention omega_ref is the cold resonator frequency, so the cold cavity
has omega_cav = 1. Reservoir temperatures are given in kelvin and enter only
through the dimensionless thermal energy k_B * T / (hbar * omega_ref).

The default omega_ref is 2*pi*10 GHz, a typical superconducting-circuit
frequency. At 19 mK this gives a thermal energy of ~0.0396 quanta, the regime
in which the engine/refrigerator transitions of the resonator-frequency
protocol occur near g/omega_c ~ 1.1 and ~2.6.

The package's defaults and the cutoff scans' limits live here too, without
numpy, so that configs are checked against them without loading the solvers.
"""

import math

K_BOLTZMANN = 1.380649e-23  # J/K (exact, SI 2019)
HBAR = 1.054571817e-34  # J*s

DEFAULT_OMEGA_REF = 2.0 * math.pi * 10.0e9  # rad/s
DEFAULT_N_LEVELS = 24
DEFAULT_T_COLD = 0.019  # kelvin
DEFAULT_T_RATIO = 9  # T_h / T_c, except in the qubit-frequency protocol
CUTOFF_CEILING = 512  # the largest cutoff a cutoff scan tests


def scan_start(n_levels: int) -> int:
    """The first cutoff a cutoff scan tests: max(n_levels, 8)."""
    return max(n_levels, 8)


def thermal_energy(temperature_k: float, omega_ref: float = DEFAULT_OMEGA_REF) -> float:
    """Dimensionless thermal energy k_B*T / (hbar*omega_ref).

    Parameters
    ----------
    temperature_k : temperature in kelvin (finite, > 0).
    omega_ref : reference angular frequency in rad/s (finite, > 0).
    """
    if not 0.0 < temperature_k < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {temperature_k}")
    if not 0.0 < omega_ref < math.inf:
        raise ValueError(f"omega_ref must be finite and positive, got {omega_ref}")
    return K_BOLTZMANN * temperature_k / (HBAR * omega_ref)
