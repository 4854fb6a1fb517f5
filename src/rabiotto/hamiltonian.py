"""The generalized quantum Rabi Hamiltonian.

    H = omega_cav a^dag a + (omega_q / 2) sigma_z
        + g (cos(theta) sigma_x + sin(theta) sigma_z)(a^dag + a)

with hbar = 1 and every frequency in units of the reference omega_ref (the
cold resonator frequency, by default). With the qubit first and x = a^dag + a,
H is written as its two qubit blocks omega_cav a^dag a +/- (omega_q/2 +
g sin(theta) x), joined by the sigma_x coupling blocks g cos(theta) x; every
entry is real (float64). theta = 0 is the standard quantum Rabi model, where
the parity sigma_z (x) (-1)^(a^dag a) commutes with H; theta = pi/2 leaves two
uncoupled displaced-oscillator blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import OperatorMatrix, check_cutoff

__all__ = ["RabiParams", "build_hamiltonian", "parity_operator"]


@dataclass(frozen=True)
class RabiParams:
    """Physical parameters of the generalized Rabi model (units of omega_ref).

    omega_cav : cavity angular frequency (> 0)
    omega_q   : qubit angular frequency (>= 0)
    g         : qubit-cavity coupling strength (>= 0)
    theta     : mixing angle in radians, in [0, pi/2]

    Every field must be finite.
    """

    omega_cav: float
    omega_q: float
    g: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for name in ("omega_cav", "omega_q", "g", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega_cav > 0.0:
            raise ValueError(f"omega_cav must be > 0, got {self.omega_cav}")
        if self.omega_q < 0.0:
            raise ValueError(f"omega_q must be >= 0, got {self.omega_q}")
        if self.g < 0.0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if not 0.0 <= self.theta <= math.pi / 2.0 + 1e-12:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")

    @classmethod
    def resonant(cls, omega: float, g: float = 0.0, theta: float = 0.0) -> "RabiParams":
        """The resonance case omega_cav = omega_q = omega."""
        return cls(omega_cav=omega, omega_q=omega, g=g, theta=theta)


def build_hamiltonian(params: RabiParams, n_max: int) -> OperatorMatrix:
    """Dense Hamiltonian on the 2*n_max composite space, from its qubit blocks."""
    n_max = check_cutoff(n_max)
    a = np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), k=1)
    x = a + a.T  # a^dag + a
    number = params.omega_cav * (a.T @ a)  # its diagonal is sqrt(n)**2, not exactly n
    half_q = 0.5 * params.omega_q * np.eye(n_max)
    g, c, s = params.g, math.cos(params.theta), math.sin(params.theta)
    up, down = number + half_q + g * (s * x), number - half_q + g * (-s * x)
    coupling = g * (c * x)
    return OperatorMatrix(np.block([[up, coupling], [coupling, down]]), subsystem_dims=(2, n_max))


def parity_operator(n_max: int) -> OperatorMatrix:
    """P = sigma_z (x) (-1)^(a^dag a); commutes with H exactly when theta = 0."""
    n_max = check_cutoff(n_max)
    sign = (-1.0) ** np.arange(n_max)
    return OperatorMatrix(np.diag(np.concatenate([sign, -sign])), subsystem_dims=(2, n_max))
