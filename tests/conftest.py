import os

# One BLAS thread: the sweeps below run two-worker pools (threads that share
# this process's BLAS, or processes for discord), and unpinned BLAS threads
# oversubscribe them. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from rabiotto import (
    OperatorMatrix, ReservoirSpec, SpectralDecomposition, resonator_frequency_protocol, run_cycle,
)
from rabiotto.correlations import BLOCK_BYTES, OUTCOME_FLOOR, _entropy_from_eigenvalues


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def small_cycle():
    """One cheap resonator-frequency cycle shared across tests (g/omega_c = 1)."""
    protocol = resonator_frequency_protocol(g=1.0)
    states, report = run_cycle(protocol, cutoff=32)
    return protocol, states, report


def random_density(rng, dim):
    """Random full-rank real density matrix (Hilbert-Schmidt-ish)."""
    x = rng.normal(size=(dim, dim))
    rho = x @ x.T
    return rho / np.trace(rho)


def dense_state(decomposition, populations):
    """sum_n p_n |v_n><v_n| as a structured dense matrix, for the reference paths."""
    v = decomposition.states
    return OperatorMatrix((v * populations) @ v.T, subsystem_dims=(2, decomposition.cutoff_used))


def spectral_form(rho):
    """A structured dense state as the (decomposition, populations) pair quantum_discord takes."""
    w, v = np.linalg.eigh(rho.matrix)
    decomposition = SpectralDecomposition(
        energies=w,
        states=v,
        cutoff_used=rho.subsystem_dims[1],
        residual_norm=float(np.linalg.norm(rho.matrix @ v - v * w, axis=0).max()),
        orthonormality_error=float(np.max(np.abs(v.T @ v - np.eye(len(w))))),
    )
    return decomposition, decomposition.energies


def parity_diagonal(n_max):
    """Diagonal of the parity sigma_z (x) (-1)^(a^dag a) on the 2 n_max composite basis."""
    sign = (-1.0) ** np.arange(n_max)
    return np.concatenate([sign, -sign])


def conditional_entropy(rho: OperatorMatrix, theta_m, phi_m):
    """sum_j p_j S(rho_B^j) along (theta_m, phi_m) via full-space projection (reference path).

    The independent reference for quantum_discord's vectorized path: it
    applies full projectors (Pi (x) I) rho (Pi (x) I) to a dense structured
    matrix for both outcomes and partial-traces, with no spectral form and no
    antipode or parity identity. Its projectors are complex, since a
    measurement along phi_m needs the phase; its state is real like every
    other. The angles broadcast against each other; two scalars give a float.
    Angles are evaluated in batches of about BLOCK_BYTES of full-space matrices.
    """
    if not isinstance(rho, OperatorMatrix) or rho.subsystem_dims is None:
        raise ValueError("conditional_entropy requires qubit (x) oscillator structure")
    thetas, phis = np.broadcast_arrays(np.asarray(theta_m, dtype=float), np.asarray(phi_m, dtype=float))
    _, n = rho.subsystem_dims
    t_all, p_all = thetas.ravel(), phis.ravel()
    out = np.zeros(t_all.shape)
    step = max(1, BLOCK_BYTES // (16 * rho.dim**2))
    for i in range(0, t_all.size, step):
        c, s = np.cos(t_all[i : i + step] / 2.0), np.sin(t_all[i : i + step] / 2.0)
        phase = np.exp(1j * p_all[i : i + step])
        for v in (np.stack([c, s * phase], -1), np.stack([-s * phase.conj(), c], -1)):
            proj = v[:, :, None] * v[:, None, :].conj()  # Pi_j per angle
            full = np.einsum("bac,xy->baxcy", proj, np.eye(n)).reshape(-1, rho.dim, rho.dim)
            projected = full @ rho.matrix @ full
            p = np.einsum("bii->b", projected).real
            rho_b = np.einsum("baxay->bxy", projected.reshape(-1, 2, n, 2, n))  # unnormalized
            lam = np.linalg.eigvalsh(rho_b) / np.where(p > OUTCOME_FLOOR, p, 1.0)[:, None]
            out[i : i + step] += np.where(p > OUTCOME_FLOOR, p * _entropy_from_eigenvalues(lam), 0.0)
    return float(out[0]) if thetas.ndim == 0 else out.reshape(thetas.shape)


def default_reservoirs(ratio=9.0):
    return ReservoirSpec(0.019, ratio * 0.019)
