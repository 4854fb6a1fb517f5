"""The generalized quantum Rabi Hamiltonian.

    H = omega_cav a^dag a + (omega_q / 2) sigma_z
        + g (cos(theta) sigma_x + sin(theta) sigma_z)(a^dag + a)

with hbar = 1 and every frequency in units of the reference omega_ref (the
cold resonator frequency, by default). With the qubit first and x = a^dag + a,
H is written as its two qubit blocks omega_cav a^dag a +/- (omega_q/2 +
g sin(theta) x), joined by the sigma_x coupling blocks g cos(theta) x; every
entry is real (float64). x is tridiagonal, so ``build_hamiltonian`` writes
the 2 n_max x 2 n_max array straight from the blocks' diagonals, with no
dense operator product, each entry equal bit for bit (signed zeros
included) to what those products give. theta = 0 is the standard quantum
Rabi model, where the parity sigma_z (x) (-1)^(a^dag a) commutes with H;
theta = pi/2 leaves two uncoupled displaced-oscillator blocks.

Wherever g sin(theta) = 0 (every theta = 0 point, and g = 0 at any theta),
``parity_sectors`` builds H straight into its two parity sectors, each a real
tridiagonal n_max x n_max matrix in the interleaved Fock order |up,0>,
|down,1>, |up,2>, ... (Braak, PRL 107, 100401, 2011), with entries
bit-identical to those of ``build_hamiltonian``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import OperatorMatrix, check_cutoff

__all__ = [
    "RabiParams",
    "build_hamiltonian",
    "conserves_parity",
    "parity_sectors",
]


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
    """Dense Hamiltonian on the 2*n_max composite space, written entry by entry.

    With x = a^dag + a, c = cos(theta) and s = sin(theta), H couples photon
    numbers m and m + 1 only, through <m|x|m + 1> = sqrt(m + 1): its 2 x 2
    qubit block at (m, m) is diag(omega_cav m + omega_q/2, omega_cav m -
    omega_q/2), and at (m, m + 1) and (m + 1, m) it is g sqrt(m + 1) [[s, c],
    [c, -s]]. Every entry, signed zeros included, is the one the dense sums
    omega_cav a^T a +/- (omega_q/2) I + g (+/-s x) and g (c x) give:
    omega_cav m is omega_cav sqrt(m)**2, not exactly omega_cav m; the down
    block's off-diagonal is 0.0 + g (-s x), so +0.0 where g s = 0; and the
    coupling blocks' zeros are g (c 0.0), -0.0 where cos(theta) < 0, just
    past pi/2.
    """
    n_max = check_cutoff(n_max)
    g, c, s = params.g, math.cos(params.theta), math.sin(params.theta)
    root = np.sqrt(np.arange(n_max, dtype=float))
    number = params.omega_cav * (root * root)
    half_q = 0.5 * params.omega_q
    x = root[1:]  # <m|a^dag + a|m + 1> = sqrt(m + 1)
    m = np.arange(n_max)
    h = np.zeros((2, n_max, 2, n_max))  # h[q, m, q', m'] = <q, m|H|q', m'>, qubit up is q = 0
    h[0, :, 1] = h[1, :, 0] = g * (c * 0.0)  # the coupling blocks
    h[0, m, 0, m], h[1, m, 1, m] = number + half_q, number - half_q
    qubit = np.array([[g * (s * x), g * (c * x)], [g * (c * x), 0.0 + g * (-s * x)]])
    h[:, m[:-1], :, m[1:]] = h[:, m[1:], :, m[:-1]] = qubit.transpose(2, 0, 1)
    return OperatorMatrix(h.reshape(2 * n_max, 2 * n_max), subsystem_dims=(2, n_max))


def conserves_parity(params: RabiParams) -> bool:
    """True where g sin(theta) == 0: no sigma_z coupling, so H commutes with the parity."""
    return params.g * math.sin(params.theta) == 0.0


def parity_sectors(params: RabiParams, n_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The +1 and -1 parity sectors of H, in that order, as (indices, block) pairs.

    Sector s holds |q_k, k> for k = 0 .. n_max - 1, with the qubit up (q = 0)
    where s (-1)^k = +1 and down (q = 1) otherwise; ``indices`` are their
    composite-basis indices q_k n_max + k. In that order ``block`` is the real
    tridiagonal matrix with diagonal omega_cav k + s (-1)^k omega_q / 2 and
    off-diagonal g cos(theta) sqrt(k + 1). Each entry is computed in the same
    order of operations as in ``build_hamiltonian``, so ``block`` equals
    ``build_hamiltonian(params, n_max).matrix[np.ix_(indices, indices)]`` bit
    for bit. ValueError unless ``conserves_parity(params)``, since the
    entries between the sectors are then not zero.
    """
    n_max = check_cutoff(n_max)
    if not conserves_parity(params):
        raise ValueError(
            f"parity sectors need g sin(theta) == 0, got g={params.g}, theta={params.theta}"
        )
    k = np.arange(n_max)
    root = np.sqrt(k.astype(float))
    number = params.omega_cav * (root * root)  # as a^dag a: sqrt(k)**2, not exactly k
    half_q = 0.5 * params.omega_q
    coupling = params.g * (math.cos(params.theta) * root[1:])
    sectors = []
    for up in (k % 2 == 0, k % 2 == 1):
        block = np.zeros((n_max, n_max))
        block.flat[:: n_max + 1] = np.where(up, number + half_q, number - half_q)
        block.flat[1 :: n_max + 1] = coupling
        block.flat[n_max :: n_max + 1] = coupling
        sectors.append((np.where(up, 0, n_max) + k, block))
    return sectors

