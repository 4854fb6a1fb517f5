import numpy as np
import pytest

from rabiotto import RabiParams, build_hamiltonian, parity_operator
from rabiotto.spectral import eigendecompose


class TestRabiParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega_cav=0.0, omega_q=1.0),
            dict(omega_cav=-1.0, omega_q=1.0),
            dict(omega_cav=1.0, omega_q=-0.5),
            dict(omega_cav=1.0, omega_q=1.0, g=-0.1),
            dict(omega_cav=1.0, omega_q=1.0, theta=2.0),
            dict(omega_cav=1.0, omega_q=1.0, g=float("nan")),
            dict(omega_cav=1.0, omega_q=float("nan")),
            dict(omega_cav=float("inf"), omega_q=1.0),
            dict(omega_cav=1.0, omega_q=1.0, theta=float("nan")),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RabiParams(**kwargs)

    def test_resonant_constructor(self):
        p = RabiParams.resonant(2.0, g=0.3, theta=0.1)
        assert p.omega_cav == p.omega_q == 2.0


class TestBuildHamiltonian:
    def test_entries_are_real(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=0.7, theta=0.4), 12)
        assert np.max(np.abs(h.matrix.imag)) == 0.0
        assert h.is_hermitian()
        assert h.subsystem_dims == (2, 12)

    def test_decoupled_spectrum(self):
        # g = 0, resonance: eigenvalues n*omega +/- omega/2
        h = build_hamiltonian(RabiParams.resonant(1.0, g=0.0), 16)
        rel = eigendecompose(h).energies
        rel = rel - rel[0]
        np.testing.assert_allclose(rel[:4], [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_parity_commutes_at_theta_zero(self):
        for g in (0.0, 0.5, 1.5, 3.0):
            h = build_hamiltonian(RabiParams.resonant(1.0, g=g), 20).matrix
            p = parity_operator(20).matrix
            assert np.max(np.abs(h @ p - p @ h)) < 1e-12

    def test_parity_broken_off_theta_zero(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=0.5, theta=0.3), 20).matrix
        p = parity_operator(20).matrix
        assert np.max(np.abs(h @ p - p @ h)) > 1e-3

    def test_sigma_z_coupling_block_diagonalizes(self):
        # theta = pi/2: no sigma_x coupling left, qubit off-diagonal blocks vanish
        n = 10
        h = build_hamiltonian(RabiParams.resonant(1.0, g=0.8, theta=np.pi / 2), n).matrix
        assert np.max(np.abs(h[:n, n:])) < 1e-12
        assert np.max(np.abs(h[n:, :n])) < 1e-12
        # each block is a displaced oscillator: omega a^dag a +/- (omega_q/2 + g(a+a^dag))
        from rabiotto import annihilation

        a = annihilation(n).matrix
        x = a + a.conj().T
        up = 1.0 * a.conj().T @ a + 0.5 * np.eye(n) + 0.8 * x
        np.testing.assert_allclose(h[:n, :n], up, atol=1e-14)

    def test_qubit_frequency_shift_is_exact(self):
        # adding delta to omega_q shifts the <e|H|e> - <g|H|g> block by delta
        n = 8
        delta = 0.37
        h0 = build_hamiltonian(RabiParams(1.0, 0.9, g=0.4, theta=0.2), n).matrix
        h1 = build_hamiltonian(RabiParams(1.0, 0.9 + delta, g=0.4, theta=0.2), n).matrix
        diff0 = h0[:n, :n] - h0[n:, n:]
        diff1 = h1[:n, :n] - h1[n:, n:]
        np.testing.assert_allclose(diff1 - diff0, delta * np.eye(n), atol=1e-14)

    def test_hermitian_for_random_parameters(self, rng):
        for _ in range(20):
            params = RabiParams(
                omega_cav=rng.uniform(0.2, 3.0),
                omega_q=rng.uniform(0.0, 3.0),
                g=rng.uniform(0.0, 3.0),
                theta=rng.uniform(0.0, np.pi / 2),
            )
            assert build_hamiltonian(params, 10).is_hermitian()
