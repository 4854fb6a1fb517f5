"""Certified eigendecomposition of working-substance Hamiltonians.

Eigenpairs come from numpy's LAPACK routines (``eigh``/``eigvalsh``). Every
decomposition is checked against a residual gate ||H v - E v|| < 1e-9 and
column orthonormality < 1e-10 before being returned, and ``converged_cutoff``
certifies that the lowest levels are stable under doubling of the Fock
cutoff, so cycle observables cannot silently depend on truncation artifacts.
Its scan starts at ``scan_start(n_levels)``; a ceiling below that start can
certify nothing and is rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import RabiParams, build_hamiltonian
from .hilbert import OperatorMatrix, as_matrix

__all__ = [
    "ConvergenceError",
    "SpectralDecomposition",
    "converged_cutoff",
    "eigendecompose",
    "hermitian_eigh",
    "relative_spectrum",
    "symmetric_eigh",
]

RESIDUAL_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
CUTOFF_TOL = 1e-8
CUTOFF_CEILING = 512


class ConvergenceError(RuntimeError):
    """Cutoff scan hit the ceiling without the spectrum stabilizing."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (as columns)."""

    energies: np.ndarray
    states: np.ndarray
    cutoff_used: int | None
    residual_norm: float

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        e.flags.writeable = False
        s = np.asarray(self.states)
        s.flags.writeable = False
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "states", s)

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def ground_referenced(self) -> np.ndarray:
        """Energies relative to the ground state, element 0 exactly 0."""
        rel = self.energies - self.energies[0]
        rel[0] = 0.0
        return rel


def symmetric_eigh(matrix: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues and, if asked, eigenvectors of a real symmetric matrix."""
    return tuple(np.linalg.eigh(matrix)) if vectors else (np.linalg.eigvalsh(matrix), None)


def hermitian_eigh(matrix: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues and, if asked, eigenvectors of a complex Hermitian matrix."""
    return tuple(np.linalg.eigh(matrix)) if vectors else (np.linalg.eigvalsh(matrix), None)


def eigendecompose(h: OperatorMatrix | np.ndarray) -> SpectralDecomposition:
    """Full decomposition of a Hermitian matrix with certified residuals.

    Real input, and complex input whose imaginary part is exactly zero, is
    solved and certified in real arithmetic and gets float64 ``states``;
    other complex input gets complex128 ``states``. Inside an exactly degenerate eigenvalue cluster the basis is the one
    LAPACK returns. Non-Hermitian input raises ValueError; a LAPACK failure
    raises numpy.linalg.LinAlgError; a failed or NaN residual or
    orthonormality gate raises ConvergenceError. The gates are fixed at
    RESIDUAL_TOL (1e-9) and ORTHONORMALITY_TOL (1e-10).
    """
    m = as_matrix(h)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"eigendecompose requires a square matrix, got shape {m.shape}")
    real = not (np.iscomplexobj(m) and np.any(m.imag))
    if real:
        m = np.ascontiguousarray(m.real)
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
        raise ValueError("eigendecompose requires a Hermitian matrix")
    w, v = symmetric_eigh(m) if real else hermitian_eigh(m)
    residuals = np.linalg.norm(m @ v - v * w, axis=0)
    residual = float(residuals.max())
    if not residual <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    gram = v.conj().T @ v
    ortho_err = float(np.max(np.abs(gram - np.eye(v.shape[1]))))
    if not ortho_err <= ORTHONORMALITY_TOL:
        raise ConvergenceError(f"eigenvector orthonormality error {ortho_err:.3e}")
    cutoff = None
    if isinstance(h, OperatorMatrix) and h.subsystem_dims is not None:
        cutoff = h.subsystem_dims[1]
    return SpectralDecomposition(
        energies=w, states=v, cutoff_used=cutoff, residual_norm=residual
    )


def relative_spectrum(decomposition: SpectralDecomposition, n_levels: int) -> np.ndarray:
    """Lowest n_levels energies relative to the ground state."""
    if not 1 <= n_levels <= decomposition.dim:
        raise ValueError(f"n_levels must be in [1, {decomposition.dim}], got {n_levels}")
    return decomposition.ground_referenced()[:n_levels]


def _relative_levels(params: RabiParams, n_max: int, n_levels: int) -> np.ndarray:
    h = build_hamiltonian(params, n_max).matrix
    w, _ = symmetric_eigh(h, vectors=False)
    rel = w[:n_levels] - w[0]
    rel[0] = 0.0
    return rel


def scan_start(n_levels: int) -> int:
    """The first cutoff ``converged_cutoff`` tests: max(n_levels, 8)."""
    return max(n_levels, 8)


def converged_cutoff(
    params: RabiParams,
    n_levels: int,
    tol: float = CUTOFF_TOL,
    ceiling: int = CUTOFF_CEILING,
) -> int:
    """Smallest tested cutoff whose doubling moves the lowest n_levels by < tol.

    The scan doubles the cutoff from ``scan_start(n_levels)`` and compares
    ground-referenced energies; eigenvalues-only solves keep it cheap.
    Raises ConvergenceError if the ceiling (default 512) is reached, and
    ValueError for a ceiling below the scan start; ``tol`` defaults to 1e-8.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    n = scan_start(n_levels)
    if ceiling < n:
        raise ValueError(f"ceiling must be >= the scan start {n}, got {ceiling}")
    current = _relative_levels(params, n, n_levels)
    while n <= ceiling:
        doubled = _relative_levels(params, 2 * n, n_levels)
        if float(np.max(np.abs(doubled - current))) < tol:
            return n
        n *= 2
        current = doubled
    raise ConvergenceError(
        f"cutoff ceiling {ceiling} reached without {n_levels}-level convergence to {tol:.1e}"
    )
