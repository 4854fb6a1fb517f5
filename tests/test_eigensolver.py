"""Contract of the LAPACK solve behind ``eigendecompose``.

TestSymmetricEigh covers real symmetric input (solved and certified in real
arithmetic), TestHermitianEigh complex Hermitian input. Both also exercise the
``symmetric_eigh``/``hermitian_eigh`` wrappers in ``rabiotto.spectral``.
"""

import numpy as np
import pytest

from rabiotto import spectral
from rabiotto.spectral import ConvergenceError, eigendecompose, hermitian_eigh, symmetric_eigh

from test_spectral import charpoly_roots


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


class TestSymmetricEigh:
    def test_diagonal(self):
        d = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(d.energies, [1.0, 2.0, 3.0], atol=1e-14)
        # eigenvectors are the permuted standard basis
        np.testing.assert_allclose(np.abs(d.states), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_two_by_two_offdiagonal(self):
        d = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(d.energies, [-1.0, 1.0], atol=1e-15)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        v = d.states[:, 0]
        assert min(np.max(np.abs(v - s * expected)) for s in (1, -1)) < 1e-14

    def test_against_charpoly_oracle(self, rng):
        for n in (3, 5, 7):
            m = random_symmetric(rng, n)
            np.testing.assert_allclose(eigendecompose(m).energies, charpoly_roots(m), atol=1e-8)
            w, _ = symmetric_eigh(m, vectors=False)
            np.testing.assert_allclose(w, charpoly_roots(m), atol=1e-8)

    def test_residuals_and_orthonormality(self, rng):
        for n in (2, 11, 60):
            m = random_symmetric(rng, n)
            d = eigendecompose(m)
            w, v = d.energies, d.states
            assert np.all(np.diff(w) >= 0)
            residual = np.linalg.norm(m @ v - v * w, axis=0).max()
            assert residual < 1e-12 * max(1, n)
            assert d.residual_norm == pytest.approx(residual, rel=1e-6, abs=1e-15)
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-13 * max(1, n)

    def test_matches_lapack(self, rng):
        # the real-arithmetic path agrees with LAPACK's complex Hermitian routine
        m = random_symmetric(rng, 40)
        w_complex, _ = hermitian_eigh(m.astype(complex), vectors=False)
        np.testing.assert_allclose(eigendecompose(m).energies, w_complex, atol=1e-11)

    def test_eigenvalues_only_path(self, rng):
        # converged_cutoff's eigenvalues-only solve agrees with the full decomposition
        m = random_symmetric(rng, 25)
        w_only, v = symmetric_eigh(m, vectors=False)
        assert v is None
        np.testing.assert_allclose(w_only, eigendecompose(m).energies, atol=1e-12)

    def test_degenerate_spectrum(self):
        # fourfold-degenerate eigenvalue; vectors must still be orthonormal
        m = np.diag([2.0, 2.0, 2.0, 2.0, 5.0])
        q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(5, 5)))
        m = q @ m @ q.T
        d = eigendecompose(m)
        w, v = d.energies, d.states
        np.testing.assert_allclose(w, [2, 2, 2, 2, 5], atol=1e-12)
        assert np.max(np.abs(v.conj().T @ v - np.eye(5))) < 1e-12
        assert np.linalg.norm(m @ v - v * w, axis=0).max() < 1e-12

    def test_trace_equals_eigenvalue_sum(self, rng):
        m = random_symmetric(rng, 30)
        assert abs(eigendecompose(m).energies.sum() - np.trace(m)) < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            eigendecompose(np.ones((2, 3)))

    def test_non_finite_input_never_passes_the_certificate(self):
        # OpenBLAS's LAPACK returns NaN eigenpairs here without raising; the
        # NaN residual must fail the gate, not compare False against it
        m = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with np.errstate(invalid="ignore"):
            with pytest.raises((ConvergenceError, np.linalg.LinAlgError)):
                eigendecompose(m)

    def test_one_by_one(self):
        d = eigendecompose(np.array([[4.0]]))
        assert d.energies[0] == 4.0 and abs(d.states[0, 0]) == 1.0


class TestHermitianEigh:
    def test_pauli_y_like(self):
        m = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        d = eigendecompose(m)
        np.testing.assert_allclose(d.energies, [-1.0, 1.0], atol=1e-14)
        assert np.linalg.norm(m @ d.states - d.states * d.energies, axis=0).max() < 1e-13

    def test_random_hermitian(self, rng):
        for n in (4, 9, 20):
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = x + x.conj().T
            d = eigendecompose(m)
            w, v = d.energies, d.states
            np.testing.assert_allclose(w, np.linalg.eigvalsh(m), atol=1e-10)
            assert np.linalg.norm(m @ v - v * w, axis=0).max() < 1e-11
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-11

    def test_degenerate_hermitian(self, rng):
        # complex Hermitian with a degenerate pair
        d = np.diag([1.0, 1.0, 3.0])
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(x)
        m = q @ d @ q.conj().T
        dec = eigendecompose(m)
        w, v = dec.energies, dec.states
        np.testing.assert_allclose(w, [1, 1, 3], atol=1e-12)
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-10
        assert np.linalg.norm(m @ v - v * w, axis=0).max() < 1e-11

    def test_real_input_takes_real_path_tiny_imaginary_part_does_not(self, rng, monkeypatch):
        calls = []

        def spy(name, solver):
            def wrapped(matrix, vectors=True):
                calls.append((name, matrix.dtype))
                return solver(matrix, vectors)

            return wrapped

        monkeypatch.setattr(spectral, "symmetric_eigh", spy("symmetric", symmetric_eigh))
        monkeypatch.setattr(spectral, "hermitian_eigh", spy("hermitian", hermitian_eigh))
        m = random_symmetric(rng, 6).astype(complex)
        d = eigendecompose(m)
        assert calls == [("symmetric", np.float64)]
        assert d.states.dtype == np.float64
        np.testing.assert_allclose(d.energies, np.linalg.eigvalsh(m.real), atol=1e-12)

        calls.clear()
        m[0, 1] += 1e-15j
        m[1, 0] -= 1e-15j
        d = eigendecompose(m)
        assert calls == [("hermitian", np.complex128)]
        assert d.residual_norm < 1e-12
