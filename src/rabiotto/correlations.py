"""Von Neumann entropy and quantum discord of qubit-oscillator states.

Quantum discord with the measurement on the qubit (subsystem A):

    D_A = S(rho_A) - S(rho_AB) + min over bases of sum_j p_j S(rho_B^j)

where the minimum runs over rank-1 projective measurements Pi_j on the qubit,
parametrized by Bloch angles (theta_m, phi_m). Entropies use the natural log.

The minimization is deterministic: a coarse grid over the Bloch sphere
(default 64 x 128) followed by local Nelder-Mead refinement, which by
construction never returns a value above the best grid point.

Only the "+" outcome is ever evaluated, f(n) = p_+ S(rho_B | +n): the "-"
outcome along n is the "+" outcome along -n, so the sum over outcomes is
S(n) = f(n) + f(-n). The search takes real states only. For those f is even
in phi_m, so f(-n) = f(pi - theta_m, pi - phi_m), and with an even number of
phi_m steps the half grid phi_m = 0 ... pi holds every antipode: S is f plus
f with both grid axes reversed.

Evaluation avoids building full-space projectors: the post-measurement
oscillator state for outcome |v> is the block combination
sum_ab conj(v_a) v_b rho_ab, and all angles are batched through numpy's
eigvalsh. The oscillator blocks are first compressed onto the support of the
unconditional oscillator state (every post-measurement state lives inside
it), which caps the batched eigenproblem size by the number of thermally
occupied modes.

``conditional_entropy`` is the independent reference path: it applies full
projectors (Pi (x) I) rho (Pi (x) I) and partial-traces, with no compression
or batching, takes complex states too, and is what the vectorized path is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycle import CycleStates
from .hilbert import OperatorMatrix, partial_trace, tensor
from .optimize import nelder_mead

__all__ = [
    "DiscordDifferences",
    "DiscordResult",
    "MeasurementBasis",
    "conditional_entropy",
    "discord_differences",
    "quantum_discord",
    "von_neumann_entropy",
]

EIG_FLOOR = 1e-14
OUTCOME_FLOOR = 1e-14
DISCORD_TOL = 1e-9
AXIS_TOL = 1e-6
FLAT_TOL = 1e-12  # grid span of S below which no measurement axis is preferred
DEFAULT_GRID = (64, 128)
REAL_TOL = 1e-14
BLOCK_BYTES = 2**19  # one batch of (angles, k, k) complex blocks


def _bloch(theta: float, phi: float) -> tuple[float, float, float]:
    """Unit Bloch vector (sin theta cos phi, sin theta sin phi, cos theta)."""
    return math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective qubit measurement along Bloch direction (theta_m, phi_m)."""

    theta_m: float
    phi_m: float

    def __post_init__(self):
        if not 0.0 <= self.theta_m <= math.pi + 1e-12:
            raise ValueError(f"theta_m must lie in [0, pi], got {self.theta_m}")

    def bloch_vector(self) -> np.ndarray:
        return np.array(_bloch(self.theta_m, self.phi_m))

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(Pi_plus, Pi_minus) as 2x2 complex matrices; they sum to identity."""
        c = math.cos(self.theta_m / 2.0)
        s = math.sin(self.theta_m / 2.0)
        phase = complex(math.cos(self.phi_m), math.sin(self.phi_m))
        up = np.array([c, s * phase], dtype=complex)
        down = np.array([-s * np.conj(phase), c], dtype=complex)
        return np.outer(up, up.conj()), np.outer(down, down.conj())


@dataclass(frozen=True)
class DiscordResult:
    discord: float
    optimal_basis: MeasurementBasis
    entropy_a: float
    entropy_ab: float
    conditional_entropy_min: float


def _entropy_from_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """-sum lam ln lam over the last axis; eigenvalues <= EIG_FLOOR count 0."""
    lam = np.asarray(lam, dtype=float)
    safe = np.where(lam > EIG_FLOOR, lam, 1.0)
    return -np.sum(np.where(lam > EIG_FLOOR, lam * np.log(safe), 0.0), axis=-1)


def von_neumann_entropy(rho: OperatorMatrix | np.ndarray) -> float:
    """S(rho) = -tr(rho ln rho); rejects inputs that are not density matrices."""
    m = rho.matrix if isinstance(rho, OperatorMatrix) else np.asarray(rho, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("entropy requires a Hermitian density matrix")
    lam = np.linalg.eigvalsh(m)
    if abs(lam.sum() - 1.0) > 1e-10:
        raise ValueError(f"density matrix must have unit trace, got {lam.sum()}")
    if lam.min() < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {lam.min():.3e}")
    return float(_entropy_from_eigenvalues(lam))


def conditional_entropy(rho: OperatorMatrix, basis: MeasurementBasis) -> float:
    """sum_j p_j S(rho_B^j) via explicit full-space projection (reference path)."""
    if not isinstance(rho, OperatorMatrix) or rho.subsystem_dims is None:
        raise ValueError("conditional_entropy requires qubit (x) oscillator structure")
    _, n_osc = rho.subsystem_dims
    total = 0.0
    for proj in basis.projectors():
        full = tensor(proj, np.eye(n_osc, dtype=complex))
        projected = full.matrix @ rho.matrix @ full.matrix
        p = float(np.trace(projected).real)
        if p < OUTCOME_FLOOR:
            continue
        rho_b = partial_trace(
            OperatorMatrix(projected / p, subsystem_dims=rho.subsystem_dims), "oscillator"
        )
        total += p * float(_entropy_from_eigenvalues(np.linalg.eigvalsh(rho_b.matrix)))
    return total


# ---------------------------------------------------------------------------
# vectorized measurement-grid machinery


class _BlockEvaluator:
    """The "+" outcome term f = p_+ S(rho_B | +n) of one state, batched over angles.

    The weights depend only on the Bloch vector of (theta, phi), so any real
    angles are valid, and the state may be complex.
    """

    def __init__(self, rho: OperatorMatrix):
        m = rho.matrix
        _, n = rho.subsystem_dims
        r00, r01 = m[:n, :n], m[:n, n:]
        r10, r11 = m[n:, :n], m[n:, n:]
        # every post-measurement oscillator state is supported on the range of
        # the unconditional state r00 + r11; compress onto it
        support_w, support_v = np.linalg.eigh(r00 + r11)
        keep = support_w > 1e-15
        u = support_v[:, keep]
        self.b00 = u.conj().T @ r00 @ u
        self.b01 = u.conj().T @ r01 @ u
        self.b10 = u.conj().T @ r10 @ u
        self.b11 = u.conj().T @ r11 @ u

    def __call__(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        out = np.empty(thetas.shape[0])
        k = self.b00.shape[0]
        step = max(1, BLOCK_BYTES // (16 * k * k))
        for i in range(0, thetas.shape[0], step):
            out[i : i + step] = self._batch(thetas[i : i + step], phis[i : i + step])
        return out

    def _batch(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        w00 = np.cos(thetas / 2.0) ** 2
        w01 = np.cos(thetas / 2.0) * np.sin(thetas / 2.0) * np.exp(1j * phis)
        m = (
            w00[:, None, None] * self.b00
            + w01[:, None, None] * self.b01
            + np.conj(w01)[:, None, None] * self.b10
            + (1.0 - w00)[:, None, None] * self.b11
        )
        p = np.einsum("bii->b", m).real
        lam = np.linalg.eigvalsh(m)
        norm = np.where(p[:, None] > OUTCOME_FLOOR, lam / p[:, None], 0.0)
        return np.where(p > OUTCOME_FLOOR, p * _entropy_from_eigenvalues(norm), 0.0)


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """The reported measurement axis: one representative of n and -n.

    Measuring along n and along -n is the same measurement (the outcomes
    swap), so the reported axis is the one whose first Bloch component, in
    the order x, z, y, that exceeds AXIS_TOL in magnitude is positive.
    AXIS_TOL lies above the refinement's ~1e-7 angle scatter. Returns theta
    in [0, pi] and phi in (-pi, pi].
    """
    n = np.array(_bloch(theta, phi))
    if next((c for c in n[[0, 2, 1]] if abs(c) > AXIS_TOL), 0.0) < 0.0:
        n = -n
    t = math.acos(max(-1.0, min(1.0, n[2])))
    p = math.atan2(n[1], n[0]) if math.sin(t) >= 1e-12 else 0.0
    return t, (p if p > -math.pi else math.pi)


def quantum_discord(
    rho: OperatorMatrix,
    grid: tuple[int, int] = DEFAULT_GRID,
    refine: bool = True,
) -> DiscordResult:
    """Quantum discord D_A of a real, structured density matrix.

    ``grid = (n_theta, n_phi)`` sets the coarse search over theta_m in
    [0, pi] and phi_m in [0, 2 pi); it needs n_theta >= 2 and an even
    n_phi >= 2. ``refine`` runs Nelder-Mead from the best grid point. The
    reported ``optimal_basis`` is one representative of the axis pair n, -n,
    or (0, 0) when the grid values of S span no more than FLAT_TOL (a
    product state), where round-off alone would pick the axis.
    """
    if not isinstance(rho, OperatorMatrix) or rho.subsystem_dims is None:
        raise ValueError("quantum_discord requires qubit (x) oscillator structure")
    n_theta, n_phi = grid
    if n_theta < 2 or n_phi < 2 or n_phi % 2:
        raise ValueError(f"grid needs n_theta >= 2 and an even n_phi >= 2, got {grid}")
    if np.max(np.abs(rho.matrix.imag)) > REAL_TOL:
        raise ValueError("quantum_discord requires a real density matrix")
    entropy_ab = von_neumann_entropy(rho)  # rejects non-density matrices
    entropy_a = von_neumann_entropy(partial_trace(rho, "qubit"))

    evaluator = _BlockEvaluator(rho)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)[: n_phi // 2 + 1]
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    f = evaluator(tt.ravel(), pp.ravel()).reshape(tt.shape)
    values = f + f[::-1, ::-1]  # the antipode of (theta_i, phi_j), mirrored in phi

    i_t, i_p = np.unravel_index(int(np.argmin(values)), values.shape)
    best_val = float(values[i_t, i_p])
    best_angles = (float(thetas[i_t]), float(phis[i_p]))

    if refine:
        step = (math.pi / (n_theta - 1), 2.0 * math.pi / n_phi)

        def objective(x: np.ndarray) -> float:
            t, p = float(x[0]), float(x[1])
            return float(evaluator(np.array([t, math.pi - t]), np.array([p, math.pi - p])).sum())

        x_opt, f_opt = nelder_mead(objective, best_angles, step=step, ftol=1e-13, max_iter=300)
        if f_opt < best_val:  # refinement is monotone against the grid
            best_val = float(f_opt)
            best_angles = (float(x_opt[0]), float(x_opt[1]))

    if float(np.ptp(values)) <= FLAT_TOL:  # no axis preferred; report z, not round-off
        best_angles = (0.0, 0.0)
    discord = entropy_a - entropy_ab + best_val
    if discord < -DISCORD_TOL:
        raise ArithmeticError(
            f"discord {discord:.3e} below -{DISCORD_TOL:.0e}; numerical failure"
        )
    if discord < 0.0:
        discord = 0.0
    return DiscordResult(
        discord=discord,
        optimal_basis=MeasurementBasis(*_canonical_angles(*best_angles)),
        entropy_a=entropy_a,
        entropy_ab=entropy_ab,
        conditional_entropy_min=best_val,
    )


@dataclass(frozen=True)
class DiscordDifferences:
    """The pairwise discord differences used in the correlation analyses."""

    rho1: DiscordResult
    rho3: DiscordResult
    rho4: DiscordResult

    @property
    def d41(self) -> float:
        """D(rho4) - D(rho1): across the hot bath stage."""
        return self.rho4.discord - self.rho1.discord

    @property
    def d31(self) -> float:
        """D(rho3) - D(rho1): cold thermal vs hot thermal."""
        return self.rho3.discord - self.rho1.discord

    @property
    def d34(self) -> float:
        """D(rho3) - D(rho4): across the compression stage."""
        return self.rho3.discord - self.rho4.discord


def discord_differences(
    states: CycleStates,
    grid: tuple[int, int] = DEFAULT_GRID,
    refine: bool = True,
) -> DiscordDifferences:
    """Discords of rho1, rho3, rho4 and their pairwise differences."""
    return DiscordDifferences(
        rho1=quantum_discord(states.rho1, grid=grid, refine=refine),
        rho3=quantum_discord(states.rho3, grid=grid, refine=refine),
        rho4=quantum_discord(states.rho4, grid=grid, refine=refine),
    )
