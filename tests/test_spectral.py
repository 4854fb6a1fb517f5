import numpy as np
import pytest

from rabiotto import (
    ConvergenceError,
    OperatorMatrix,
    RabiParams,
    build_hamiltonian,
    converged_cutoff,
    eigendecompose,
    parity_operator,
    relative_spectrum,
)


def charpoly_roots(m):
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients followed by companion-matrix root finding."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.array(m, dtype=float)
    for k in range(1, n + 1):
        coeffs[k] = -np.trace(mk) / k
        if k < n:
            mk = m @ (mk + coeffs[k] * np.eye(n))
    return np.sort(np.roots(coeffs).real)


class TestEigendecompose:
    def test_diagonal_sorted(self):
        d = eigendecompose(OperatorMatrix(np.diag([3.0, 1.0, 2.0]).astype(complex)))
        np.testing.assert_allclose(d.energies, [1.0, 2.0, 3.0])
        assert d.residual_norm < 1e-9

    def test_two_level(self):
        d = eigendecompose(OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex)))
        np.testing.assert_allclose(d.energies, [-1.0, 1.0])
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        v = d.states[:, 0].real
        assert min(np.max(np.abs(v - s * expected)) for s in (1, -1)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rabi_against_charpoly_oracle(self):
        # tiny cutoff-4 instance solved independently through the
        # characteristic polynomial of each parity block
        params = RabiParams.resonant(1.0, g=1.0)
        h = build_hamiltonian(params, 4)
        d = eigendecompose(h)
        np.testing.assert_allclose(d.energies, charpoly_roots(h.matrix.real), atol=1e-8)
        # blocked variant: project onto the two parity sectors and solve 4x4 blocks
        p = parity_operator(4).matrix.real
        w_par, v_par = np.linalg.eigh(p)
        blocks = []
        for sign in (-1.0, 1.0):
            basis = v_par[:, np.isclose(w_par, sign)]
            blocks.append(basis.T @ h.matrix.real @ basis)
        oracle = np.sort(np.concatenate([charpoly_roots(b) for b in blocks]))
        np.testing.assert_allclose(d.energies, oracle, atol=1e-8)

    def test_residual_certificate_at_large_cutoff(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=1.0), 60)
        d = eigendecompose(h)
        assert d.residual_norm < 1e-9
        gram = d.states.conj().T @ d.states
        assert np.max(np.abs(gram - np.eye(d.dim))) < 1e-10
        assert d.cutoff_used == 60

    def test_eigenvalue_sum_equals_trace(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=2.0, theta=0.3), 40)
        d = eigendecompose(h)
        assert abs(d.energies.sum() - np.trace(h.matrix).real) < 1e-8

    def test_definite_parity_at_theta_zero(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=1.3), 30)
        d = eigendecompose(h)
        p = parity_operator(30).matrix
        expect = np.einsum("ij,ji->i", d.states.conj().T, p @ d.states).real
        np.testing.assert_allclose(np.abs(expect), 1.0, atol=1e-8)


class TestRelativeSpectrum:
    def test_decoupled(self):
        d = eigendecompose(build_hamiltonian(RabiParams.resonant(1.0), 16))
        np.testing.assert_allclose(relative_spectrum(d, 4), [0, 1, 1, 2], atol=1e-12)

    def test_first_element_exactly_zero(self):
        d = eigendecompose(build_hamiltonian(RabiParams.resonant(1.0, g=0.8), 24))
        assert relative_spectrum(d, 6)[0] == 0.0

    def test_quasi_degenerate_ground_doublet(self):
        # deep-strong coupling collapses the lowest pair
        d = eigendecompose(build_hamiltonian(RabiParams.resonant(1.0, g=2.0), 60))
        rel = relative_spectrum(d, 2)
        assert 0.0 < rel[1] < 0.05

    def test_shift_invariance(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=0.5), 20)
        d0 = eigendecompose(h)
        d1 = eigendecompose(OperatorMatrix(h.matrix + 7.3 * np.eye(40), subsystem_dims=(2, 20)))
        np.testing.assert_allclose(
            relative_spectrum(d0, 10), relative_spectrum(d1, 10), atol=1e-10
        )

    def test_out_of_range(self):
        d = eigendecompose(build_hamiltonian(RabiParams.resonant(1.0), 4))
        with pytest.raises(ValueError):
            relative_spectrum(d, 9)


class TestConvergedCutoff:
    def test_decoupled_converges_at_start(self):
        found = converged_cutoff(RabiParams.resonant(1.0, g=0.0), n_levels=8, tol=1e-10)
        assert found == 8  # scan start: exact at any cutoff >= n_levels

    def test_strong_coupling_needs_displaced_support(self):
        found = converged_cutoff(RabiParams.resonant(1.0, g=3.0), n_levels=8, tol=1e-8)
        assert found >= 2 * 3.0**2

    def test_monotone_in_tolerance(self):
        params = RabiParams.resonant(1.0, g=1.5)
        loose = converged_cutoff(params, n_levels=8, tol=1e-4)
        tight = converged_cutoff(params, n_levels=8, tol=1e-10)
        assert loose <= tight

    def test_certificate_holds(self):
        # doubling the returned cutoff moves the levels by less than tol
        params = RabiParams.resonant(1.0, g=1.5)
        tol = 1e-8
        found = converged_cutoff(params, n_levels=10, tol=tol)
        d1 = eigendecompose(build_hamiltonian(params, found))
        d2 = eigendecompose(build_hamiltonian(params, 2 * found))
        delta = np.abs(relative_spectrum(d1, 10) - relative_spectrum(d2, 10)).max()
        assert delta < tol

    def test_ceiling_failure(self):
        with pytest.raises(ConvergenceError, match="ceiling"):
            converged_cutoff(RabiParams.resonant(1.0, g=3.0), n_levels=8, tol=1e-8, ceiling=16)

    def test_rejects_ceiling_below_scan_start(self):
        # the scan starts at max(n_levels, 8), so ceiling 4 can certify nothing
        with pytest.raises(ValueError, match="ceiling must be >= the scan start 24"):
            converged_cutoff(RabiParams.resonant(1.0), n_levels=24, ceiling=4)
        assert converged_cutoff(RabiParams.resonant(1.0), n_levels=8, tol=1e-10, ceiling=8) == 8

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            converged_cutoff(RabiParams.resonant(1.0), n_levels=4, tol=0.0)
