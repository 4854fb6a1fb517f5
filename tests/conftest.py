import os

# One BLAS thread per process: the sweeps below run two-worker process pools,
# and unpinned BLAS threads oversubscribe them. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from rabiotto import ReservoirSpec, resonator_frequency_protocol, run_cycle


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
    """Random full-rank density matrix (Hilbert-Schmidt-ish)."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def default_reservoirs(ratio=9.0):
    return ReservoirSpec(0.019, ratio * 0.019)
