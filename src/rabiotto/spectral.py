"""Certified eigendecomposition of working-substance Hamiltonians.

Eigenpairs come from numpy's LAPACK routines (``eigh``/``eigvalsh``). Every
decomposition is checked against a residual gate ||H v - E v|| < 1e-9 and
column orthonormality < 1e-10 before being returned, and ``converged_cutoff``
certifies that the lowest levels are stable under doubling of the Fock
cutoff, so cycle observables cannot silently depend on truncation artifacts.
Its scan climbs the ladder s, 3s/2, 2s, 3s, 4s, ... from
s = ``scan_start(n_levels)`` and returns the first rung that passes; each
rung's eigenvalues-only solve is done once per scan and serves as the 2n
solve of one test and the n solve of a later one. A ceiling below the scan
start can certify nothing and is rejected up front.

``solve_hamiltonian`` is the solve of a Rabi Hamiltonian given by its
parameters, used by the cycle, the spectrum sweeps and the cutoff scans.
Where H conserves parity (g sin(theta) == 0: every theta = 0 point, and g = 0)
it builds and solves the two tridiagonal parity sectors of
``hamiltonian.parity_sectors``, each half the dimension; otherwise it builds
and solves the whole matrix. It is the package's one certified solve. Every
matrix and vector here is float64: the one LAPACK path is ``symmetric_eigh``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hamiltonian import RabiParams, build_hamiltonian, conserves_parity, parity_sectors
from .hilbert import check_cutoff, frozen_copy

__all__ = [
    "ConvergenceError",
    "SpectralDecomposition",
    "converged_cutoff",
    "relative_spectrum",
    "solve_hamiltonian",
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
    """Ascending eigenvalues and orthonormal eigenvectors (as columns), both float64.

    ``residual_norm`` and ``orthonormality_error`` are the certificates'
    values, max ||H v - E v|| and max |V^T V - I|, each the largest over
    the solved blocks.
    """

    energies: np.ndarray
    states: np.ndarray
    cutoff_used: int | None
    residual_norm: float
    orthonormality_error: float

    def __post_init__(self):
        object.__setattr__(self, "energies", frozen_copy(self.energies))
        object.__setattr__(self, "states", frozen_copy(self.states))

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def ground_referenced(self) -> np.ndarray:
        return ground_referenced(self.energies)


def ground_referenced(energies: np.ndarray) -> np.ndarray:
    """Ascending energies relative to the ground state, element 0 exactly 0."""
    rel = energies - energies[0]
    rel[0] = 0.0
    return rel


def symmetric_eigh(matrix: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues and, if asked, eigenvectors of a real symmetric matrix."""
    return tuple(np.linalg.eigh(matrix)) if vectors else (np.linalg.eigvalsh(matrix), None)


hermitian_eigh = symmetric_eigh  # bench/tracing.py wraps this name


def _certified(pairs: list[tuple[np.ndarray, np.ndarray]], cutoff_used: int | None) -> SpectralDecomposition:
    """Decomposition of the matrix whose every entry lies in one of the (indices, block) pairs.

    Each block is solved by one ``symmetric_eigh`` call and must pass both
    gates. A single pair is the whole matrix in its own order, so LAPACK's
    ascending energies and their vectors are the decomposition as they come.
    Otherwise each block's vectors are scattered once into their energy-sorted
    columns of the full basis, zero off the block; energies merge by a stable
    sort, so a tie between blocks lists the earlier block's level first.
    """
    solved = []
    residual = ortho_err = 0.0
    for indices, block in pairs:
        w, v = symmetric_eigh(block)
        block_residual = float(np.linalg.norm(block @ v - v * w, axis=0).max())
        if not block_residual <= RESIDUAL_TOL:
            raise ConvergenceError(
                f"eigendecomposition residual {block_residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
        block_ortho = float(np.max(np.abs(v.T @ v - np.eye(v.shape[1]))))
        if not block_ortho <= ORTHONORMALITY_TOL:
            raise ConvergenceError(f"eigenvector orthonormality error {block_ortho:.3e}")
        residual, ortho_err = max(residual, block_residual), max(ortho_err, block_ortho)
        solved.append((indices, w, v))
    if len(solved) == 1:
        _, energies, states = solved[0]
    else:
        energies = np.concatenate([w for _, w, _ in solved])
        order = np.argsort(energies, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(len(order))
        states = np.zeros((len(energies), len(energies)))
        start = 0
        for indices, w, v in solved:
            states[np.ix_(indices, column[start:start + len(w)])] = v
            start += len(w)
        energies = energies[order]
    return SpectralDecomposition(
        energies=energies,
        states=states,
        cutoff_used=cutoff_used,
        residual_norm=residual,
        orthonormality_error=ortho_err,
    )


def _hamiltonian_blocks(params: RabiParams, n_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, block) pairs holding every entry of H(params) at cutoff n_max.

    The two parity sectors, +1 first, where H conserves parity; otherwise one
    pair, all indices and the whole matrix.
    """
    if conserves_parity(params):
        return parity_sectors(params, n_max)
    h = build_hamiltonian(params, n_max).matrix
    return [(np.arange(h.shape[0]), h)]


def solve_hamiltonian(params: RabiParams, n_max: int) -> SpectralDecomposition:
    """Certified decomposition of H(params) at Fock cutoff n_max, float64 states.

    Where g sin(theta) == 0 the two parity sectors are solved apart: each
    vector lies in one sector, exactly zero off it, and a tie between sectors
    lists the +1 sector's level first. Inside an exactly degenerate cluster
    the basis is the one LAPACK returns. A LAPACK failure raises
    numpy.linalg.LinAlgError; a failed or NaN residual (RESIDUAL_TOL, 1e-9)
    or orthonormality (ORTHONORMALITY_TOL, 1e-10) gate raises
    ConvergenceError; a cutoff that is not an integer >= 2 raises ValueError.
    """
    n_max = check_cutoff(n_max)
    return _certified(_hamiltonian_blocks(params, n_max), n_max)


def relative_spectrum(decomposition: SpectralDecomposition, n_levels: int) -> np.ndarray:
    """Lowest n_levels energies relative to the ground state."""
    if not 1 <= n_levels <= decomposition.dim:
        raise ValueError(f"n_levels must be in [1, {decomposition.dim}], got {n_levels}")
    return decomposition.ground_referenced()[:n_levels]


def _relative_levels(params: RabiParams, n_max: int, n_levels: int) -> np.ndarray:
    w = [symmetric_eigh(block, vectors=False)[0] for _, block in _hamiltonian_blocks(params, n_max)]
    return ground_referenced(np.sort(np.concatenate(w))[:n_levels])


def scan_start(n_levels: int) -> int:
    """The first cutoff ``converged_cutoff`` tests: max(n_levels, 8)."""
    return max(n_levels, 8)


def _ladder(start: int):
    """The cutoffs s, 3s/2, 2s, 3s, 4s, ...: {s 2^k} and {floor(3s/2) 2^k}, ascending.

    The double of every rung is a later rung.
    """
    n, m = start, 3 * start // 2
    while True:
        yield n
        yield m
        n, m = 2 * n, 2 * m


def converged_cutoff(
    params: RabiParams,
    n_levels: int,
    tol: float = CUTOFF_TOL,
    ceiling: int = CUTOFF_CEILING,
) -> int:
    """Smallest tested cutoff whose doubling moves the lowest n_levels by < tol.

    The scan tests the cutoffs s, 3s/2, 2s, 3s, 4s, 6s, ... up to the ceiling,
    where s = ``scan_start(n_levels)`` and 3s/2 rounds down, and compares each
    tested n's ground-referenced energies against a solve at 2n. The double
    of every rung is on the ladder too, so each eigenvalues-only solve is kept
    for the scan and serves two tests, as the 2n solve of one and the n solve
    of a later one. Raises ConvergenceError if the ceiling (default 512) is
    passed, and ValueError for a ceiling below the scan start; ``tol``
    defaults to 1e-8.

    A scan that fails solves up to twice the ceiling. With one BLAS thread at
    theta = 0.3 and g = 40, the default ceiling's last solve is cutoff 1024
    (dimension 2048) at n_levels 8, and the scan takes 1.4 s and a peak RSS
    of 95 MiB; at n_levels 24 it is cutoff 768, 0.6 s and 67 MiB (2 vCPUs,
    OpenBLAS).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    start = scan_start(n_levels)
    if ceiling < start:
        raise ValueError(f"ceiling must be >= the scan start {start}, got {ceiling}")
    solved: dict[int, np.ndarray] = {}
    for n in itertools.takewhile(lambda n: n <= ceiling, _ladder(start)):
        for m in (n, 2 * n):
            if m not in solved:
                solved[m] = _relative_levels(params, m, n_levels)
        if float(np.max(np.abs(solved[2 * n] - solved[n]))) < tol:
            return n
    raise ConvergenceError(
        f"cutoff ceiling {ceiling} reached without {n_levels}-level convergence to {tol:.1e}"
    )
