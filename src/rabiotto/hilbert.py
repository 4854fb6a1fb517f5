"""Operators on the truncated qubit (x) oscillator Hilbert space.

Tensor-product convention, fixed package-wide: the qubit is the FIRST factor
and the oscillator the second, so a composite basis index is q * n_max + n.
Operators are dense and keep the dtype of their entries: float64 for real
input (every Rabi Hamiltonian, every cycle state) and complex128 only for
complex input, such as the measurement projectors of the correlations module's
reference path.

All operator values are immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FockCutoff",
    "OperatorMatrix",
    "annihilation",
    "creation",
    "identity",
    "number_operator",
    "pauli",
    "partial_trace",
    "tensor",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class FockCutoff:
    """Dimension of the truncated oscillator space, basis |0> ... |n_max - 1>."""

    n_max: int

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 2:
            raise ValueError(f"n_max must be an integer >= 2, got {self.n_max}")
        object.__setattr__(self, "n_max", int(self.n_max))


def _as_cutoff(cutoff: FockCutoff | int) -> FockCutoff:
    return cutoff if isinstance(cutoff, FockCutoff) else FockCutoff(int(cutoff))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square operator with optional qubit/oscillator structure.

    ``matrix`` is float64 for real input and complex128 for complex input.
    ``subsystem_dims`` is ``(2, n_max)`` for operators living on the composite
    space (qubit first) and ``None`` for unstructured matrices.
    """

    matrix: np.ndarray
    subsystem_dims: tuple[int, int] | None = field(default=None)

    def __post_init__(self):
        m = np.array(as_matrix(self.matrix), order="C")  # own copy: frozen below
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if self.subsystem_dims is not None:
            dq, dn = self.subsystem_dims
            if dq * dn != m.shape[0]:
                raise ValueError(
                    f"subsystem dims {self.subsystem_dims} inconsistent with dim {m.shape[0]}"
                )
            object.__setattr__(self, "subsystem_dims", (int(dq), int(dn)))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    def is_density_matrix(self, tol_trace: float = TRACE_TOL) -> bool:
        """Hermitian, unit trace and positive semidefinite (up to tolerances)."""
        if not self.is_hermitian():
            return False
        if abs(np.trace(self.matrix).real - 1.0) > tol_trace:
            return False
        return bool(np.linalg.eigvalsh(self.matrix).min() >= EIGENVALUE_FLOOR)

    def __array__(self, dtype=None):
        return np.asarray(self.matrix, dtype=dtype)


def as_matrix(op: OperatorMatrix | np.ndarray) -> np.ndarray:
    """The matrix of an OperatorMatrix, or a bare array as complex128 if complex, else float64."""
    if isinstance(op, OperatorMatrix):
        return op.matrix
    return np.asarray(op, dtype=complex if np.iscomplexobj(op) else float)


def annihilation(cutoff: FockCutoff | int) -> OperatorMatrix:
    """Truncated bosonic annihilation operator, <n-1|a|n> = sqrt(n)."""
    n_max = _as_cutoff(cutoff).n_max
    a = np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), k=1)
    return OperatorMatrix(a)


def creation(cutoff: FockCutoff | int) -> OperatorMatrix:
    """Truncated bosonic creation operator a^dagger."""
    return OperatorMatrix(annihilation(cutoff).matrix.conj().T)


def number_operator(cutoff: FockCutoff | int) -> OperatorMatrix:
    """a^dagger a, diagonal 0 ... n_max-1."""
    n_max = _as_cutoff(cutoff).n_max
    return OperatorMatrix(np.diag(np.arange(n_max, dtype=float)))


def identity(dim: int) -> OperatorMatrix:
    return OperatorMatrix(np.eye(dim))


def pauli(axis: str) -> OperatorMatrix:
    """Standard 2x2 Pauli matrix, axis 'x' or 'z' (sigma_z = diag(+1, -1))."""
    if axis == "x":
        return OperatorMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    if axis == "z":
        return OperatorMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    raise ValueError(f"axis must be 'x' or 'z', got {axis!r}")


def tensor(a: OperatorMatrix | np.ndarray, b: OperatorMatrix | np.ndarray) -> OperatorMatrix:
    """Kronecker product with subsystem dimensions recorded (a acts first)."""
    ma, mb = as_matrix(a), as_matrix(b)
    return OperatorMatrix(np.kron(ma, mb), subsystem_dims=(ma.shape[0], mb.shape[0]))


def partial_trace(rho: OperatorMatrix, keep: str) -> OperatorMatrix:
    """Reduced density matrix on the kept subsystem ('qubit' or 'oscillator').

    The input must carry subsystem_dims; the trace is preserved exactly
    (einsum contraction of the traced index pair).
    """
    if not isinstance(rho, OperatorMatrix) or rho.subsystem_dims is None:
        raise ValueError("partial_trace requires an OperatorMatrix with subsystem_dims set")
    dq, dn = rho.subsystem_dims
    t = rho.matrix.reshape(dq, dn, dq, dn)
    if keep == "qubit":
        return OperatorMatrix(np.einsum("anbn->ab", t))
    if keep == "oscillator":
        return OperatorMatrix(np.einsum("anam->nm", t))
    raise ValueError(f"keep must be 'qubit' or 'oscillator', got {keep!r}")
