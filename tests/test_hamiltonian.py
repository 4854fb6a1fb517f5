import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabiotto import RabiParams, build_hamiltonian, parity_sectors, solve_hamiltonian

from conftest import parity_diagonal


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
        rel = solve_hamiltonian(RabiParams.resonant(1.0, g=0.0), 16).energies
        rel = rel - rel[0]
        np.testing.assert_allclose(rel[:4], [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_parity_commutes_at_theta_zero(self):
        for g in (0.0, 0.5, 1.5, 3.0):
            h = build_hamiltonian(RabiParams.resonant(1.0, g=g), 20).matrix
            p = np.diag(parity_diagonal(20))
            assert np.max(np.abs(h @ p - p @ h)) < 1e-12

    def test_parity_broken_off_theta_zero(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=0.5, theta=0.3), 20).matrix
        p = np.diag(parity_diagonal(20))
        assert np.max(np.abs(h @ p - p @ h)) > 1e-3

    def test_sigma_z_coupling_block_diagonalizes(self):
        # theta = pi/2: no sigma_x coupling left, qubit off-diagonal blocks vanish
        n = 10
        h = build_hamiltonian(RabiParams.resonant(1.0, g=0.8, theta=np.pi / 2), n).matrix
        assert np.max(np.abs(h[:n, n:])) < 1e-12
        assert np.max(np.abs(h[n:, :n])) < 1e-12
        # each block is a displaced oscillator: omega a^dag a +/- (omega_q/2 + g(a+a^dag))
        a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1)
        x = a + a.conj().T
        up = 1.0 * a.conj().T @ a + 0.5 * np.eye(n) + 0.8 * x
        np.testing.assert_allclose(h[:n, :n], up, atol=1e-14)

    def test_equals_operator_algebra_bit_for_bit(self):
        # the qubit blocks against the Kronecker-product formula, to the last bit
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])
        grid = itertools.product(
            (0.0, np.pi / 8, np.pi / 2), (0.0, 0.7, 3.5), ((1.0, 1.0), (2.0, 2.0), (1.0, 0.5)), (2, 24)
        )
        for theta, g, (omega_cav, omega_q), n in grid:
            a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1)
            expected = (
                omega_cav * np.kron(np.eye(2), a.T @ a)
                + 0.5 * omega_q * np.kron(sz, np.eye(n))
                + g * np.kron(math.cos(theta) * sx + math.sin(theta) * sz, a + a.T)
            )
            h = build_hamiltonian(RabiParams(omega_cav, omega_q, g=g, theta=theta), n).matrix
            assert h.tobytes() == expected.tobytes(), (theta, g, omega_cav, omega_q, n)

    def test_equals_the_dense_block_construction_bit_for_bit(self):
        # the entries, signed zeros included, against the qubit blocks built from
        # dense operator products and joined by np.block; theta just past pi/2
        # has cos(theta) < 0, so the coupling blocks' zeros are -0.0 there
        grid = itertools.product(
            (0.0, 0.3, math.pi / 4, math.pi / 2, math.pi / 2 + 5e-13),
            (0.0, 0.7, 3.4),
            ((1.0, 1.0), (2.0, 0.5), (0.3, 0.0)),
            (2, 3, 24, 96),
        )
        for theta, g, (omega_cav, omega_q), n in grid:
            params = RabiParams(omega_cav, omega_q, g=g, theta=theta)
            a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1)
            x = a + a.T
            number = omega_cav * (a.T @ a)
            half_q = 0.5 * omega_q * np.eye(n)
            c, s = math.cos(theta), math.sin(theta)
            up, down = number + half_q + g * (s * x), number - half_q + g * (-s * x)
            coupling = g * (c * x)
            expected = np.block([[up, coupling], [coupling, down]])
            h = build_hamiltonian(params, n).matrix
            assert h.tobytes() == expected.tobytes(), (theta, g, omega_cav, omega_q, n)
        past_half_pi = build_hamiltonian(RabiParams.resonant(1.0, 0.7, math.pi / 2 + 5e-13), 3).matrix
        assert np.signbit(past_half_pi[0, 3])

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


# (g, theta) pairs where g sin(theta) == 0: theta = 0 at any g, g = 0 at any theta
_PARITY_COUPLINGS = st.one_of(
    st.tuples(st.floats(0.0, 4.0), st.just(0.0)),
    st.tuples(st.just(0.0), st.floats(1e-3, math.pi / 2)),
)


class TestParitySectors:
    @settings(max_examples=80, deadline=None)
    @given(
        omega_cav=st.floats(0.05, 5.0),
        omega_q=st.floats(0.0, 5.0),
        coupling=_PARITY_COUPLINGS,
        n=st.integers(2, 48),
    )
    def test_sectors_are_the_dense_blocks_bit_for_bit(self, omega_cav, omega_q, coupling, n):
        g, theta = coupling
        params = RabiParams(omega_cav, omega_q, g=g, theta=theta)
        h = build_hamiltonian(params, n).matrix
        (plus, even), (minus, odd) = parity_sectors(params, n)
        for indices, block in ((plus, even), (minus, odd)):
            assert block.tobytes() == h[np.ix_(indices, indices)].tobytes()
            assert not np.any(block - np.triu(np.tril(block, 1), -1))  # tridiagonal
        # nothing couples the sectors, so the two blocks hold every entry of H
        assert not np.any(h[np.ix_(plus, minus)])

    @pytest.mark.parametrize("n", [2, 3, 24])
    def test_indices_are_the_parity_eigenspaces(self, n):
        p = parity_diagonal(n)
        (plus, _), (minus, _) = parity_sectors(RabiParams.resonant(1.0, g=0.7), n)
        assert np.array_equal(np.sort(plus), np.flatnonzero(p == 1.0))
        assert np.array_equal(np.sort(minus), np.flatnonzero(p == -1.0))
        # interleaved Fock order: the k-th state of each sector has k photons
        assert np.array_equal(plus % n, np.arange(n))
        assert np.array_equal(minus % n, np.arange(n))

    @pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 2])
    def test_refuses_a_parity_breaking_coupling(self, theta):
        with pytest.raises(ValueError, match="g sin"):
            parity_sectors(RabiParams.resonant(1.0, g=0.7, theta=theta), 8)
