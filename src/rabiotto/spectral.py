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

``solve_hamiltonians`` is the package's one certified solve: it solves many
Rabi Hamiltonians, given by their parameters, at one cutoff. Where H
conserves parity (g sin(theta) == 0: every theta = 0 point, and g = 0) it
builds the two tridiagonal parity sectors of ``hamiltonian.parity_sectors``,
each half the dimension; otherwise it builds the whole matrix. The blocks of
every side are stacked by shape, and each stack goes to LAPACK in one
``symmetric_eigh`` call: all n x n sectors in one, all 2n x 2n matrices in
another. numpy runs LAPACK on each member of a stack as on the matrix alone,
and releases the GIL for the whole stack, so a sweep's threads overlap
their stacked calls. Both gates' values come from batched matmuls over the
stack, and each block must pass them before it is written into its side's
decomposition. One assembly serves every side: each block's energies and
vectors fill their own columns of one decomposition, which a stable sort
then orders. ``solve_hamiltonian`` is the
one-side case. The cutoff scans solve eigenvalues only, block by block.
Every matrix and vector here is float64: the one LAPACK path is
``symmetric_eigh``.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hamiltonian import RabiParams, build_hamiltonian, conserves_parity, parity_sectors
from .hilbert import check_cutoff, frozen_copy
from .units import CUTOFF_CEILING, scan_start

__all__ = [
    "ConvergenceError",
    "SpectralDecomposition",
    "converged_cutoff",
    "relative_spectrum",
    "solve_hamiltonian",
    "solve_hamiltonians",
    "symmetric_eigh",
]

RESIDUAL_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
CUTOFF_TOL = 1e-8


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


def _hamiltonian_blocks(params: RabiParams, n_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, block) pairs holding every entry of H(params) at cutoff n_max.

    The two parity sectors, +1 first, where H conserves parity; otherwise one
    pair, all indices and the whole matrix.
    """
    if conserves_parity(params):
        return parity_sectors(params, n_max)
    h = build_hamiltonian(params, n_max).matrix
    return [(np.arange(h.shape[0]), h)]


def solve_hamiltonians(params: Sequence[RabiParams], n_max: int) -> list[SpectralDecomposition]:
    """Certified decompositions of H(p) for each p in ``params``, all at Fock cutoff n_max.

    The (indices, block) pairs of ``_hamiltonian_blocks`` of every side are
    grouped by block shape, and each shape's blocks are solved by one
    ``symmetric_eigh`` call over their stack: the n_max x n_max parity sectors
    of every parity-conserving side in one call, the whole matrices of the
    other sides in another. Each block must pass both gates on its own, a
    residual (RESIDUAL_TOL, 1e-9) and an orthonormality (ORTHONORMALITY_TOL,
    1e-10) gate taken from batched matmuls over the stack; a failure, NaN
    included, raises ConvergenceError for the first failing block in the
    order of ``params``. Each side is then assembled alone: a block's
    energies are written after the side's earlier blocks' and its vectors
    into its rows of those columns, zero elsewhere, and one stable sort
    orders the columns. LAPACK solves each member of a stack as it solves
    the matrix alone, so every decomposition equals ``solve_hamiltonian(p,
    n_max)`` bit for bit. A LAPACK failure anywhere in a stack raises
    numpy.linalg.LinAlgError; a cutoff that is not an integer >= 2 raises
    ValueError.
    """
    n_max = check_cutoff(n_max)
    indices: list[list[np.ndarray]] = []  # each side's blocks' composite-basis indices
    stacks: dict[int, tuple[list, list]] = {}  # block size -> (side, position) and block, per block
    for i, p in enumerate(params):
        indices.append([])
        for j, (block_indices, block) in enumerate(_hamiltonian_blocks(p, n_max)):
            members, blocks = stacks.setdefault(block.shape[0], ([], []))
            members.append((i, j))
            blocks.append(block)
            indices[i].append(block_indices)
    solutions: list[list] = [[None] * len(side) for side in indices]
    while stacks:  # popped, so that each stack's blocks are freed once it is solved
        size, (members, blocks) = stacks.popitem()
        stack = np.stack(blocks)
        del blocks
        w, v = symmetric_eigh(stack)
        product = stack @ v
        product -= np.multiply(v, w[:, None, :], out=stack)  # the stack's buffer now holds V diag(w)
        residual = np.sqrt(np.square(product, out=product).sum(axis=1)).max(axis=1)
        product = np.matmul(np.swapaxes(v, 1, 2), v, out=product)
        product -= np.eye(size)
        ortho_err = np.abs(product, out=product).max(axis=(1, 2))
        del stack, product
        for (i, j), *solution in zip(members, w, v, residual, ortho_err):
            solutions[i][j] = solution
    return [_assemble(side, solved, n_max) for side, solved in zip(indices, solutions)]


def _assemble(indices: list[np.ndarray], solutions: list, n_max: int) -> SpectralDecomposition:
    """One side's decomposition from its blocks' indices and (energies, vectors, residual,
    orthonormality error), each block gated before it is written."""
    energies, states = np.empty(2 * n_max), np.zeros((2 * n_max, 2 * n_max))
    residual = ortho_err = 0.0
    start = 0
    for block_indices, (w, v, block_residual, block_ortho) in zip(indices, solutions):
        if not block_residual <= RESIDUAL_TOL:
            raise ConvergenceError(
                f"eigendecomposition residual {block_residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
        if not block_ortho <= ORTHONORMALITY_TOL:
            raise ConvergenceError(f"eigenvector orthonormality error {block_ortho:.3e}")
        residual, ortho_err = max(residual, float(block_residual)), max(ortho_err, float(block_ortho))
        energies[start:start + len(w)] = w
        states[block_indices, start:start + len(w)] = v
        start += len(w)
    order = np.argsort(energies, kind="stable")
    states = states[:, order]  # frees the unsorted array before the decomposition copies this one
    return SpectralDecomposition(energies[order], states, n_max, residual, ortho_err)


def solve_hamiltonian(params: RabiParams, n_max: int) -> SpectralDecomposition:
    """Certified decomposition of H(params) at Fock cutoff n_max: ``solve_hamiltonians`` of one side.

    Where g sin(theta) == 0 each vector lies in one parity sector, exactly
    zero off it, and a tie between sectors lists the +1 sector's level
    first; a matrix solved whole is LAPACK's ascending output bit for bit.
    Inside an exactly degenerate cluster the basis is the one LAPACK returns.
    """
    return solve_hamiltonians([params], n_max)[0]


def relative_spectrum(decomposition: SpectralDecomposition, n_levels: int) -> np.ndarray:
    """Lowest n_levels energies relative to the ground state."""
    if not 1 <= n_levels <= decomposition.dim:
        raise ValueError(f"n_levels must be in [1, {decomposition.dim}], got {n_levels}")
    return decomposition.ground_referenced()[:n_levels]


def _relative_levels(params: RabiParams, n_max: int, n_levels: int) -> np.ndarray:
    w = [symmetric_eigh(block, vectors=False)[0] for _, block in _hamiltonian_blocks(params, n_max)]
    return ground_referenced(np.sort(np.concatenate(w))[:n_levels])


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
    passed, and ValueError for a ceiling below the scan start or a ``tol``
    that is not finite and > 0; ``tol`` defaults to 1e-8.

    A scan that fails solves up to twice the ceiling. With one BLAS thread at
    theta = 0.3 and g = 40, the default ceiling's last solve is cutoff 1024
    (dimension 2048) at n_levels 8, and the scan takes 1.4 s and a peak RSS
    of 95 MiB; at n_levels 24 it is cutoff 768, 0.6 s and 67 MiB (2 vCPUs,
    OpenBLAS).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
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
