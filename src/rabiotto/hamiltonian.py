"""The generalized quantum Rabi Hamiltonian.

    H = omega_cav a^dag a + (omega_q / 2) sigma_z
        + g (cos(theta) sigma_x + sin(theta) sigma_z)(a^dag + a)

with hbar = 1 and every frequency in units of the reference omega_ref (the
cold resonator frequency, by default). theta = 0 is the standard quantum Rabi
model; theta = pi/2 couples purely through sigma_z and the Hamiltonian splits
into two displaced-oscillator blocks. With the qubit-first tensor ordering all
matrix entries are real, and the matrix is stored as float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import FockCutoff, OperatorMatrix, annihilation, pauli

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


def build_hamiltonian(params: RabiParams, cutoff: FockCutoff | int) -> OperatorMatrix:
    """Dense Hamiltonian on the 2*n_max composite space (qubit first)."""
    cutoff = cutoff if isinstance(cutoff, FockCutoff) else FockCutoff(int(cutoff))
    n_max = cutoff.n_max
    a = annihilation(cutoff).matrix
    x = a + a.conj().T  # a^dag + a
    sx = pauli("x").matrix
    sz = pauli("z").matrix
    h = (
        params.omega_cav * np.kron(np.eye(2), a.conj().T @ a)
        + 0.5 * params.omega_q * np.kron(sz, np.eye(n_max))
        + params.g * np.kron(math.cos(params.theta) * sx + math.sin(params.theta) * sz, x)
    )
    return OperatorMatrix(h, subsystem_dims=(2, n_max))


def parity_operator(cutoff: FockCutoff | int) -> OperatorMatrix:
    """P = sigma_z (x) (-1)^(a^dag a); commutes with H exactly when theta = 0."""
    cutoff = cutoff if isinstance(cutoff, FockCutoff) else FockCutoff(int(cutoff))
    osc = np.diag((-1.0) ** np.arange(cutoff.n_max))
    return OperatorMatrix(
        np.kron(pauli("z").matrix, osc), subsystem_dims=(2, cutoff.n_max)
    )
