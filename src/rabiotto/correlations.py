"""Von Neumann entropy and quantum discord of qubit-oscillator states.

Quantum discord with the measurement on the qubit (subsystem A):

    D_A = S(rho_A) - S(rho_AB) + min over bases of sum_j p_j S(rho_B^j)

where the minimum runs over rank-1 projective measurements Pi_j on the qubit,
parametrized by Bloch angles (theta_m, phi_m). Entropies use the natural log.

The minimization is deterministic: a coarse grid over the Bloch sphere
(default 16 x 32) followed by a local two-angle Nelder-Mead refinement,
which by construction never returns a value above the best grid point.
On every rho1, rho3 and rho4 of the fig4 and fig8 presets and of acceptance
criterion 7, the default grid gives D within 2e-12 of a 64 x 128 grid's.
Coarser grids are no faster, because the refinement is then most of the
cost, and an 8 x 16 grid missed the global basin more often on random
low-rank states.

Only the "+" outcome is ever evaluated, f(n) = p_+ S(rho_B | +n): the "-"
outcome along n is the "+" outcome along -n, so the sum over outcomes is
S(n) = f(n) + f(-n). Every state is real (a ``SpectralDecomposition`` holds
float64 vectors), so f is even in phi_m, f(-n) = f(pi - theta_m, pi - phi_m),
and with an even number of phi_m steps the half grid phi_m = 0 ... pi holds
every antipode: S is f plus f with both grid axes reversed. The grid's two
pole rows, theta_m = 0 and theta_m = pi, are one point on the sphere each,
so each is evaluated once and fills its row. The grid goes through numpy in
batches; the refinement's objective, one angle pair at a time, makes one
2-block ``eigvalsh`` call and sums f over its eigenvalues in Python floats.

``quantum_discord`` takes a state in its spectral form, the eigenpairs of a
``SpectralDecomposition`` and a population vector p: rho = sum_n p_n
|v_n><v_n|, as every Otto-cycle state is. No dense 2n x 2n matrix is built.
With X = V[:, p > SUPPORT_FLOOR] sqrt(p) (k kept levels) and X_q the rows
of qubit state q, rho = X X^T, S(rho_AB) = -sum p ln p and the reduced
qubit state is rho_A = [[tr b00, tr b01], [tr b10, tr b11]] for the k x k
Gram blocks b_ab = X_b^T X_a, where b10 = b01^T because X is real. The
unnormalized post-measurement oscillator state for outcome |v> is Y Y^dag
with Y = sum_a conj(v_a) X_a, which shares its nonzero eigenvalues with
Y^dag Y = sum_ab conj(v_a) v_b b_ab. So all angles are batched through
numpy's eigvalsh on k x k blocks, k being the number of thermally occupied
levels. The tests check this path against a dense full-projector reference
that lives beside them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cycle import CycleStates, carry_populations
from .hilbert import frozen_copy, is_hermitian_matrix
from .spectral import SpectralDecomposition

__all__ = [
    "DiscordDifferences",
    "DiscordResult",
    "MeasurementBasis",
    "discord_differences",
    "quantum_discord",
    "von_neumann_entropy",
]

EIG_FLOOR = 1e-14
OUTCOME_FLOOR = 1e-14
DISCORD_TOL = 1e-9
AXIS_TOL = 1e-6
FLAT_TOL = 1e-12  # grid span of S below which no measurement axis is preferred
DEFAULT_GRID = (16, 32)
SUPPORT_FLOOR = 1e-15  # populations at or below this are left out of the Gram blocks
BLOCK_BYTES = 2**19  # one batch of (angles, k, k) complex blocks
REFINE_FTOL = 1e-13  # refinement stops when the simplex spans no more than this in S
REFINE_MAX_ITER = 300


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


def _check_spectrum(lam: np.ndarray) -> None:
    """Reject eigenvalues or populations unless finite, summing to 1 and none below -1e-10."""
    if not np.isfinite(lam).all():
        raise ValueError(f"density matrix has a non-finite eigenvalue {lam[~np.isfinite(lam)][0]}")
    if abs(lam.sum() - 1.0) > 1e-10:
        raise ValueError(f"density matrix must have unit trace, got {lam.sum()}")
    if lam.min() < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {lam.min():.3e}")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -tr(rho ln rho) of a real state; rejects inputs that are not density matrices.

    ValueError for a non-finite entry, a matrix that is not square and
    Hermitian, or eigenvalues that do not sum to 1 or fall below -1e-10.
    """
    m = frozen_copy(rho)
    if not np.isfinite(m).all():  # LAPACK can return finite eigenvalues for a NaN entry
        raise ValueError(f"density matrix has a non-finite entry {m[~np.isfinite(m)][0]}")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not is_hermitian_matrix(m):
        raise ValueError(f"entropy requires a square Hermitian density matrix, got shape {m.shape}")
    lam = np.linalg.eigvalsh(m)
    _check_spectrum(lam)
    return float(_entropy_from_eigenvalues(lam))


# ---------------------------------------------------------------------------
# vectorized measurement-grid machinery


class _BlockEvaluator:
    """The "+" outcome term f = p_+ S(rho_B | +n) of one state, batched over angles.

    The state is sum_n p_n |v_n><v_n| over the decomposition's eigenvectors;
    ``rho_a`` is its reduced qubit state. Along (theta, phi) the k x k block
    is the rows of ``basis``, [b00, b01, b01^T, b11], weighted by (c^2, w,
    conj(w), s^2), c = cos(theta/2), s = sin(theta/2), w = c s exp(i phi).
    The weights depend only on the Bloch vector, so any real angles are valid.
    """

    def __init__(self, decomposition: SpectralDecomposition, populations: np.ndarray):
        n = decomposition.cutoff_used
        keep = populations > SUPPORT_FLOOR
        x = decomposition.states[:, keep] * np.sqrt(populations[keep])
        x0, x1 = x[:n], x[n:]
        # b_ab = X_b^T X_a, so that sum_ab conj(v_a) v_b b_ab = Y^dag Y
        b00, b01, b11 = x0.T @ x0, x1.T @ x0, x1.T @ x1  # b10 = b01^T
        self.k = b00.shape[0]
        self.basis = np.stack([b00, b01, b01.T, b11]).reshape(4, -1).astype(complex)
        self.rho_a = np.array([[np.trace(b00), np.trace(b01)], [np.trace(b01), np.trace(b11)]])

    def __call__(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        c, s = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
        w = c * s * np.exp(1j * phis)
        weights = np.stack([c * c, w, w.conj(), s * s], axis=-1)
        out = np.empty(thetas.shape[0])
        step = max(1, BLOCK_BYTES // (16 * self.k * self.k))
        for i in range(0, thetas.shape[0], step):
            out[i : i + step] = self._terms(weights[i : i + step])
        return out

    def pair(self, t: float, q: float) -> float:
        """f(t, q) + f(pi - t, pi - q): S along (t, q) for a real state, as one 2-block batch.

        The antipode's half angle is the complement of t's, and its phase
        the mirror of q's, so its weights are (s^2, -conj(w), -w, c^2). The
        sum over the 2 k eigenvalues is the rule of ``_terms`` in Python
        floats and ``math.log``: for blocks this small, numpy's per-call
        overhead costs more than the arithmetic.
        """
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        w = complex(c * s * math.cos(q), c * s * math.sin(q))
        # both rows of weights as one flat list, which numpy converts faster than nested lists
        weights = np.array([c * c, w, w.conjugate(), s * s, s * s, -w.conjugate(), -w, c * c])
        blocks = (weights.reshape(2, 4) @ self.basis).reshape(2, self.k, self.k)
        total = 0.0
        for lam in np.linalg.eigvalsh(blocks).tolist():
            p = sum(lam)
            if p > OUTCOME_FLOOR:
                f = 0.0
                for x in lam:
                    if x / p > EIG_FLOOR:
                        f += x * math.log(x / p)
                total -= f
        return total

    def _terms(self, weights: np.ndarray) -> np.ndarray:
        """f per row of (b, 4) weights from the block's eigenvalues lam and p = sum lam.

        f = -sum lam ln(lam/p) over lam/p > EIG_FLOOR, and 0 where p <= OUTCOME_FLOOR.
        """
        lam = np.linalg.eigvalsh((weights @ self.basis).reshape(-1, self.k, self.k))
        p = lam.sum(axis=1, keepdims=True)
        ratio = lam / np.maximum(p, OUTCOME_FLOOR)
        terms = lam * np.log(np.where(ratio > EIG_FLOOR, ratio, 1.0))
        return np.where(p[:, 0] > OUTCOME_FLOOR, -terms.sum(axis=1), 0.0)


def nelder_mead(
    func: Callable[[tuple[float, float]], float], x0: tuple[float, float], step: tuple[float, float]
) -> tuple[np.ndarray, float]:
    """Nelder-Mead over the two measurement angles from x0; returns (x_best, f_best).

    The objective is smooth, periodic and defined for all real angles, so no
    bounds are needed. ``func`` is called once per point, with the point as
    a (theta, phi) tuple of floats. The search stops when the simplex spans
    no more than REFINE_FTOL in f, or after REFINE_MAX_ITER iterations.
    """
    t0, q0 = float(x0[0]), float(x0[1])
    simplex = [(t0, q0), (t0 + step[0], q0), (t0, q0 + step[1])]
    values = [func(v) for v in simplex]
    for _ in range(REFINE_MAX_ITER):
        order = sorted(range(3), key=values.__getitem__)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if abs(values[-1] - values[0]) <= REFINE_FTOL:
            break
        (bt, bq), (mt, mq), (wt, wq) = simplex
        ct, cq = (bt + mt) / 2.0, (bq + mq) / 2.0  # centroid of the two best
        reflected = (ct + (ct - wt), cq + (cq - wq))
        f_r = func(reflected)
        if values[0] <= f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue
        if f_r < values[0]:
            expanded = (ct + 2.0 * (ct - wt), cq + 2.0 * (cq - wq))
            f_e = func(expanded)
            simplex[-1], values[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
            continue
        contracted = (ct + 0.5 * (wt - ct), cq + 0.5 * (wq - cq))
        f_c = func(contracted)
        if f_c < values[-1]:
            simplex[-1], values[-1] = contracted, f_c
            continue
        for i in (1, 2):  # shrink toward the best vertex
            t, q = simplex[i]
            simplex[i] = (bt + 0.5 * (t - bt), bq + 0.5 * (q - bq))
            values[i] = func(simplex[i])
    i_best = values.index(min(values))
    return np.array(simplex[i_best]), values[i_best]


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """The reported measurement axis: one representative of n and -n.

    Measuring along n and along -n is the same measurement (the outcomes
    swap), so the reported axis is the one whose first Bloch component, in
    the order x, z, y, that exceeds AXIS_TOL in magnitude is positive.
    The refinement fixes the angles less tightly than AXIS_TOL: two
    mathematically equal evaluations of the same states gave angles up to
    4.2e-6 apart on fig8 at 5 points per series and 8.8e-5 apart on the
    full fig8 preset, where S is flat near theta_m = pi/2 at small g, and
    solver rewrites have moved the worst rows by 1.1e-4 (ROADMAP item 10).
    Returns theta in [0, pi] and phi in (-pi, pi].
    """
    n = np.array(_bloch(theta, phi))
    if next((c for c in n[[0, 2, 1]] if abs(c) > AXIS_TOL), 0.0) < 0.0:
        n = -n
    t = math.acos(max(-1.0, min(1.0, n[2])))
    p = math.atan2(n[1], n[0]) if math.sin(t) >= 1e-12 else 0.0
    return t, (p if p > -math.pi else math.pi)


def _half_grid(evaluator: _BlockEvaluator, n_theta: int, n_phi: int) -> tuple[np.ndarray, ...]:
    """(thetas, phis, f) on the real-state half grid, f[i, j] the "+" term at (thetas[i], phis[j]).

    thetas = linspace(0, pi, n_theta) and phis_j = 2 pi j / n_phi for j = 0 ... n_phi/2.
    Each pole row (theta_m = 0 or pi) is one point on the sphere, so it is
    evaluated once, at phi_m = 0, and that value fills the row.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)[: n_phi // 2 + 1]
    tt, pp = np.meshgrid(thetas[1:-1], phis, indexing="ij")
    f = evaluator(np.r_[0.0, math.pi, tt.ravel()], np.r_[0.0, 0.0, pp.ravel()])
    north, south = np.full(len(phis), f[0]), np.full(len(phis), f[1])
    return thetas, phis, np.vstack([north, f[2:].reshape(tt.shape), south])


def quantum_discord(
    decomposition: SpectralDecomposition,
    populations: np.ndarray,
    grid: tuple[int, int] = DEFAULT_GRID,
) -> DiscordResult:
    """Quantum discord D_A of sum_n p_n |v_n><v_n| over real, structured eigenvectors.

    ``decomposition`` must carry a Fock cutoff, and ``populations`` (one per
    level) must be finite and sum to 1 with no entry below -1e-10. ``grid =
    (n_theta, n_phi)`` sets the coarse search over theta_m in [0, pi] and
    phi_m in [0, 2 pi); it needs n_theta >= 2 and an even n_phi >= 2. Nelder-Mead
    then always refines the best grid point, and its result is kept only
    where it lies below the grid's. The reported ``optimal_basis`` is one
    representative of the axis pair n, -n, or (0, 0) when the grid values
    of S span no more than FLAT_TOL (a product state), where round-off
    alone would pick the axis.
    """
    if decomposition.cutoff_used is None:
        raise ValueError("quantum_discord requires qubit (x) oscillator structure")
    n_theta, n_phi = grid
    if n_theta < 2 or n_phi < 2 or n_phi % 2:
        raise ValueError(f"grid needs n_theta >= 2 and an even n_phi >= 2, got {grid}")
    populations = np.asarray(populations, dtype=float)
    if populations.shape != decomposition.energies.shape:
        raise ValueError(f"expected {decomposition.dim} populations, got shape {populations.shape}")
    _check_spectrum(populations)
    entropy_ab = float(_entropy_from_eigenvalues(populations))

    evaluator = _BlockEvaluator(decomposition, populations)
    entropy_a = von_neumann_entropy(evaluator.rho_a)
    thetas, phis, f = _half_grid(evaluator, n_theta, n_phi)
    values = f + f[::-1, ::-1]  # the antipode of (theta_i, phi_j), mirrored in phi

    i_t, i_p = np.unravel_index(int(np.argmin(values)), values.shape)
    best_val = float(values[i_t, i_p])
    best_angles = (float(thetas[i_t]), float(phis[i_p]))

    step = (math.pi / (n_theta - 1), 2.0 * math.pi / n_phi)
    x_opt, f_opt = nelder_mead(lambda x: evaluator.pair(*x), best_angles, step)
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


def discord_differences(states: CycleStates) -> DiscordDifferences:
    """Discords of rho1, rho3, rho4 on DEFAULT_GRID and their pairwise differences.

    rho1 is the hot populations on the hot eigenvectors, rho3 the cold ones
    on the cold eigenvectors and rho4 the cold ones carried onto the hot
    eigenvectors (``carry_populations``).
    """
    return DiscordDifferences(
        rho1=quantum_discord(states.hot, states.populations_hot),
        rho3=quantum_discord(states.cold, states.populations_cold),
        rho4=quantum_discord(states.hot, carry_populations(states.populations_cold, states.hot.dim)),
    )
