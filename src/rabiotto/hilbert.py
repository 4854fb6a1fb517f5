"""Arrays and the cutoff on the truncated qubit (x) oscillator Hilbert space.

Tensor-product convention, fixed package-wide: the qubit is the FIRST factor
and the oscillator the second, so a composite basis index is q * n_max + n and
an operator is a 2x2 grid of n_max x n_max qubit blocks. Every entry of a
generalized Rabi Hamiltonian is real at every theta, and so is every
eigenvector and cycle state, so operators and states are float64 only:
``frozen_copy`` is the one real-array rule, and complex input raises.

A Fock cutoff is a plain int n_max, the dimension of the truncated oscillator
space with basis |0> ... |n_max - 1>. ``check_cutoff`` is its one check, made
wherever a Fock basis is built: n_max must be an integer >= 2, and a value
such as 8.7, inf or nan raises ValueError rather than truncating.

``OperatorMatrix`` is the dense record ``build_hamiltonian`` returns. It and
every other record that holds arrays keep a read-only ``frozen_copy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["OperatorMatrix"]

HERMITICITY_TOL = 1e-12  # relative to max(1, max|M|)


def check_cutoff(n_max: int) -> int:
    """The Fock cutoff as an int; ValueError unless it is an integer >= 2 (inf and nan included)."""
    if not 2 <= n_max < np.inf or int(n_max) != n_max:
        raise ValueError(f"n_max must be an integer >= 2, got {n_max}")
    return int(n_max)


def frozen_copy(a) -> np.ndarray:
    """A read-only C-ordered float64 copy of ``a``; the caller's array is left as it was.

    Complex input raises ValueError, read from its dtype: a complex array
    whose imaginary part is exactly zero is rejected too.
    """
    if np.iscomplexobj(a):
        raise ValueError(f"expected a real array, got dtype {np.asarray(a).dtype}")
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


def is_hermitian_matrix(m: np.ndarray) -> bool:
    """The one Hermiticity rule, M = M^T to HERMITICITY_TOL; a NaN skew is left to the certificates."""
    return not np.max(np.abs(m - m.T)) > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(m))))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square real operator with optional qubit/oscillator structure.

    ``matrix`` is a read-only float64 copy; complex input raises ValueError.
    ``subsystem_dims`` is ``(2, n_max)`` for operators living on the composite
    space (qubit first) and ``None`` for unstructured matrices.
    """

    matrix: np.ndarray
    subsystem_dims: tuple[int, int] | None = field(default=None)

    def __post_init__(self):
        m = frozen_copy(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if self.subsystem_dims is not None:
            dq, dn = self.subsystem_dims
            if dq * dn != m.shape[0]:
                raise ValueError(
                    f"subsystem dims {self.subsystem_dims} inconsistent with dim {m.shape[0]}"
                )
            object.__setattr__(self, "subsystem_dims", (int(dq), int(dn)))
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self) -> bool:
        return is_hermitian_matrix(self.matrix)

