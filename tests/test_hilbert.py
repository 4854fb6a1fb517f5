import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabiotto import OperatorMatrix, partial_trace
from rabiotto.hamiltonian import RabiParams, build_hamiltonian, parity_operator, parity_sectors
from rabiotto.hilbert import check_cutoff
from rabiotto.cycle import resonator_frequency_protocol, run_cycle, thermal_populations
from rabiotto.spectral import eigendecompose

from conftest import random_density


class TestCutoffCheck:
    def test_rejects_small(self):
        with pytest.raises(ValueError):
            check_cutoff(1)
        with pytest.raises(ValueError):
            check_cutoff(0)

    def test_accepts(self):
        assert check_cutoff(2) == 2
        assert type(check_cutoff(np.int64(3))) is int

    @pytest.mark.parametrize("n_max", [8.7, 16.9])
    def test_non_integer_cutoff_raises_rather_than_truncating(self, n_max):
        builders = [
            parity_operator,
            lambda n: build_hamiltonian(RabiParams.resonant(1.0, g=0.5), n),
            lambda n: parity_sectors(RabiParams.resonant(1.0, g=0.5), n),
            lambda n: run_cycle(resonator_frequency_protocol(g=0.5), cutoff=n),
        ]
        for build in builders:
            with pytest.raises(ValueError, match="n_max must be an integer >= 2"):
                build(n_max)


class TestPartialTrace:
    def test_maximally_mixed(self):
        rho = OperatorMatrix(np.eye(4) / 4.0, subsystem_dims=(2, 2))
        np.testing.assert_allclose(partial_trace(rho, "qubit").matrix, np.eye(2) / 2.0)

    def test_rejects_unstructured(self):
        rho = OperatorMatrix(np.eye(4) / 4.0)
        with pytest.raises(ValueError):
            partial_trace(rho, "qubit")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_product_state_recovery(self, seed):
        rng = np.random.default_rng(seed)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 4)
        rho = OperatorMatrix(np.kron(rho_a, rho_b), subsystem_dims=(2, 4))
        np.testing.assert_allclose(partial_trace(rho, "qubit").matrix, rho_a, atol=1e-10)
        np.testing.assert_allclose(partial_trace(rho, "oscillator").matrix, rho_b, atol=1e-10)

    def test_trace_preserved_both_subsystems(self, rng):
        rho_m = random_density(rng, 12)
        rho = OperatorMatrix(rho_m, subsystem_dims=(2, 6))
        for keep in ("qubit", "oscillator"):
            reduced = partial_trace(rho, keep)
            assert abs(np.trace(reduced.matrix) - np.trace(rho_m)) < 1e-12

    def test_thermal_rabi_reduced_qubit_trace(self):
        # trace identity on a physical state: thermal Rabi state at g/omega = 1
        h = build_hamiltonian(RabiParams.resonant(1.0, g=1.0), 24)
        dec = eigendecompose(h)
        p = thermal_populations(dec.energies, 0.5)
        rho = OperatorMatrix((dec.states * p) @ dec.states.conj().T, subsystem_dims=(2, 24))
        reduced = partial_trace(rho, "qubit")
        assert abs(np.trace(reduced.matrix).real - 1.0) < 1e-12


class TestOperatorMatrix:
    def test_immutable(self):
        op = OperatorMatrix(np.eye(3))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_hermitian_check(self, rng):
        m = rng.normal(size=(4, 4))
        assert OperatorMatrix(m + m.T).is_hermitian()
        assert not OperatorMatrix(m + m.T + 1e-6 * np.eye(4) * 1j).is_hermitian()

    def test_density_check(self, rng):
        assert OperatorMatrix(random_density(rng, 5)).is_density_matrix()
        assert not OperatorMatrix(np.eye(5)).is_density_matrix()  # trace 5

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.eye(5), subsystem_dims=(2, 3))
