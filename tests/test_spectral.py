import math

import numpy as np
import pytest

from rabiotto import spectral
from rabiotto import (
    ConvergenceError,
    OperatorMatrix,
    RabiParams,
    build_hamiltonian,
    converged_cutoff,
    eigendecompose,
    parity_operator,
    relative_spectrum,
    solve_hamiltonian,
)
from rabiotto.hamiltonian import conserves_parity
from rabiotto.spectral import ORTHONORMALITY_TOL, RESIDUAL_TOL, symmetric_eigh
from rabiotto.sweep import build_protocol, figure_preset


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


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


class TestEigendecompose:
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

    def test_diagonal_sorted(self):
        d = eigendecompose(OperatorMatrix(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(d.energies, [1.0, 2.0, 3.0])
        assert d.residual_norm < 1e-9

    def test_two_level(self):
        d = eigendecompose(OperatorMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(d.energies, [-1.0, 1.0])
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        v = d.states[:, 0]
        assert min(np.max(np.abs(v - s * expected)) for s in (1, -1)) < 1e-12

    def test_one_by_one(self):
        d = eigendecompose(np.array([[4.0]]))
        assert d.energies[0] == 4.0 and abs(d.states[0, 0]) == 1.0

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
            ortho_err = np.max(np.abs(v.T @ v - np.eye(n)))
            assert ortho_err < 1e-13 * max(1, n)
            assert d.orthonormality_error == pytest.approx(ortho_err, rel=1e-6, abs=1e-15)

    def test_matches_lapack(self, rng):
        # the real-arithmetic path agrees with LAPACK's complex Hermitian routine
        m = random_symmetric(rng, 40)
        w_complex = np.linalg.eigvalsh(m.astype(complex))
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
        assert np.max(np.abs(v.T @ v - np.eye(5))) < 1e-12
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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rabi_against_charpoly_oracle(self):
        # tiny cutoff-4 instance solved independently through the
        # characteristic polynomial of each parity block
        params = RabiParams.resonant(1.0, g=1.0)
        h = build_hamiltonian(params, 4)
        d = eigendecompose(h)
        np.testing.assert_allclose(d.energies, charpoly_roots(h.matrix), atol=1e-8)
        # blocked variant: project onto the two parity sectors and solve 4x4 blocks
        p = parity_operator(4).matrix
        w_par, v_par = np.linalg.eigh(p)
        blocks = []
        for sign in (-1.0, 1.0):
            basis = v_par[:, np.isclose(w_par, sign)]
            blocks.append(basis.T @ h.matrix @ basis)
        oracle = np.sort(np.concatenate([charpoly_roots(b) for b in blocks]))
        np.testing.assert_allclose(d.energies, oracle, atol=1e-8)

    def test_residual_certificate_at_large_cutoff(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=1.0), 60)
        d = eigendecompose(h)
        assert d.residual_norm < 1e-9
        gram = d.states.T @ d.states
        assert np.max(np.abs(gram - np.eye(d.dim))) < 1e-10
        assert d.cutoff_used == 60

    def test_eigenvalue_sum_equals_trace(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=2.0, theta=0.3), 40)
        d = eigendecompose(h)
        assert abs(d.energies.sum() - np.trace(h.matrix)) < 1e-8

    def test_definite_parity_at_theta_zero(self):
        h = build_hamiltonian(RabiParams.resonant(1.0, g=1.3), 30)
        d = eigendecompose(h)
        p = parity_operator(30).matrix
        expect = np.einsum("ij,ji->i", d.states.T, p @ d.states)
        np.testing.assert_allclose(np.abs(expect), 1.0, atol=1e-8)


class TestHermiticityRule:
    @pytest.mark.parametrize("skew, accepted", [(5e-11, True), (1e-6, False)])
    def test_operator_and_eigensolver_agree(self, skew, accepted):
        # fig2's cold Hamiltonian at its cutoff, 96, has max|H| = 95.5, so the
        # relative rule accepts a skew below 9.55e-11
        cold = build_protocol(figure_preset("fig2"), None, 1.0).cold
        h = build_hamiltonian(cold, 96).matrix.copy()
        h[3, 100] += skew
        op = OperatorMatrix(h, subsystem_dims=(2, 96))
        assert op.is_hermitian() is accepted
        if accepted:
            eigendecompose(op)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                eigendecompose(op)


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

    def test_ceiling_failure(self, monkeypatch):
        # each tested n is compared against a solve at 2n, so a failing scan
        # solves up to twice the ceiling
        solved = []

        def recorded(params, n_max, n_levels):
            solved.append(n_max)
            return relative_levels(params, n_max, n_levels)

        relative_levels = spectral._relative_levels
        monkeypatch.setattr(spectral, "_relative_levels", recorded)
        with pytest.raises(ConvergenceError, match="ceiling"):
            converged_cutoff(RabiParams.resonant(1.0, g=3.0), n_levels=8, tol=1e-8, ceiling=16)
        assert solved == [8, 16, 32]

    def test_rejects_ceiling_below_scan_start(self):
        # the scan starts at max(n_levels, 8), so ceiling 4 can certify nothing
        with pytest.raises(ValueError, match="ceiling must be >= the scan start 24"):
            converged_cutoff(RabiParams.resonant(1.0), n_levels=24, ceiling=4)
        assert converged_cutoff(RabiParams.resonant(1.0), n_levels=8, tol=1e-10, ceiling=8) == 8

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            converged_cutoff(RabiParams.resonant(1.0), n_levels=4, tol=0.0)


@pytest.fixture
def solver_calls(monkeypatch):
    """Calls of the solver and of the two Hamiltonian builders in rabiotto.spectral."""
    calls = {"eigh": 0, "build": 0, "sectors": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "symmetric_eigh", counted("eigh", spectral.symmetric_eigh))
    monkeypatch.setattr(spectral, "build_hamiltonian", counted("build", spectral.build_hamiltonian))
    monkeypatch.setattr(spectral, "parity_sectors", counted("sectors", spectral.parity_sectors))
    return calls


class TestParitySectors:
    @pytest.mark.parametrize("omega_cav, omega_q", [(1.0, 1.0), (2.0, 2.0), (1.0, 0.5)])
    @pytest.mark.parametrize("n", [8, 96])
    @pytest.mark.parametrize("g", [0.0, 0.7, 3.5])
    def test_sectors_match_the_whole_matrix(self, g, n, omega_cav, omega_q):
        params = RabiParams(omega_cav=omega_cav, omega_q=omega_q, g=g)
        h = build_hamiltonian(params, n)
        d = solve_hamiltonian(params, n)
        dense = np.linalg.eigvalsh(h.matrix)
        assert np.all(np.abs(d.energies - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))
        # each vector lies in one sector, so P v = +v or -v bit for bit
        p = np.diag(parity_operator(n).matrix)[:, None]
        signs = np.sign(np.sum(p * d.states**2, axis=0))
        assert np.array_equal(p * d.states, signs * d.states)
        np.testing.assert_allclose(np.einsum("ij,ij->j", d.states, p * d.states), signs, atol=1e-13)
        assert d.residual_norm < RESIDUAL_TOL
        assert d.orthonormality_error < ORTHONORMALITY_TOL
        assert d.cutoff_used == n
        # the coupling block is zero, so the blocks' residual is the full-space one
        full = np.linalg.norm(h.matrix @ d.states - d.states * d.energies, axis=0).max()
        assert abs(full - d.residual_norm) < 1e-12

    # the split rule is g sin(theta) == 0; cos(pi/2) = 6.1e-17 does not enter
    # it, and theta > 0 with g > 0 is solved whole
    @pytest.mark.parametrize("theta, solves", [(0.0, 2), (math.pi / 8, 1), (math.pi / 2, 1)])
    def test_one_solve_per_sector(self, theta, solves, solver_calls):
        params = RabiParams.resonant(1.0, g=0.7, theta=theta)
        assert conserves_parity(params) is (solves == 2)
        d = solve_hamiltonian(params, 24)
        assert solver_calls["eigh"] == solves
        assert (solver_calls["sectors"], solver_calls["build"]) == ((1, 0) if solves == 2 else (0, 1))
        assert d.residual_norm < RESIDUAL_TOL

    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2])
    def test_zero_coupling_is_split_at_any_theta(self, theta, solver_calls):
        params = RabiParams.resonant(1.0, g=0.0, theta=theta)
        assert conserves_parity(params)
        d = solve_hamiltonian(params, 24)
        assert (solver_calls["eigh"], solver_calls["sectors"], solver_calls["build"]) == (2, 1, 0)
        np.testing.assert_array_equal(relative_spectrum(d, 4), [0.0, 1.0, 1.0, 2.0])

    @pytest.mark.parametrize("theta, per_scan", [(0.0, 2), (math.pi / 8, 1)])
    def test_cutoff_scan_solves_per_sector(self, theta, per_scan, solver_calls):
        converged_cutoff(RabiParams.resonant(1.0, g=0.7, theta=theta), n_levels=8)
        steps = solver_calls["sectors"] + solver_calls["build"]
        assert steps >= 2
        assert solver_calls["sectors" if per_scan == 2 else "build"] == steps
        assert solver_calls["eigh"] == per_scan * steps

    def test_a_matrix_is_solved_whole(self, solver_calls):
        # eigendecompose takes no split from subsystem_dims, even where H conserves parity
        d = eigendecompose(build_hamiltonian(RabiParams.resonant(1.0, g=0.7), 12))
        assert (solver_calls["eigh"], solver_calls["sectors"], d.cutoff_used) == (1, 0, 12)

    def test_cross_sector_ties_are_ordered_the_same_every_time(self):
        # g = 0 and omega_q = 2 omega_cav: |up,n> and |down,n+2> have opposite
        # parity and the same energy n + 1, bit for bit at some n
        params = RabiParams(omega_cav=1.0, omega_q=2.0, g=0.0)
        first, second = solve_hamiltonian(params, 16), solve_hamiltonian(params, 16)
        assert np.all(np.diff(first.energies) >= 0.0)
        assert first.energies.tobytes() == second.energies.tobytes()
        assert first.states.tobytes() == second.states.tobytes()
        ties = np.flatnonzero(np.diff(first.energies) == 0.0)
        assert len(ties) > 0
        p = np.diag(parity_operator(16).matrix)
        for k in ties:  # the +1 sector's level comes first
            assert p @ first.states[:, k] ** 2 > 0.0 > p @ first.states[:, k + 1] ** 2

    # converged_cutoff of each solved side at the sweep endpoints, as certified
    # by whole-matrix solves; the sector scans must find the same cutoffs
    @pytest.mark.parametrize(
        "preset, series_value, endpoint, expected",
        [
            ("fig2", None, 0.0, {"cold": 24, "hot": 24}),
            ("fig2", None, 3.5, {"cold": 96, "hot": 48}),
            ("fig6", 0.8, 2.0, {"cold": 48, "hot": 48}),
            ("fig6", 1.0, 2.0, {"cold": 48, "hot": 48}),
            ("fig6", 1.2, 2.0, {"cold": 48, "hot": 96}),
            ("fig9", None, 0.0, {"cold": 10}),
            ("fig9", None, 3.5, {"cold": 80}),
        ],
    )
    def test_preset_endpoint_cutoffs_are_unchanged(self, preset, series_value, endpoint, expected):
        config = figure_preset(preset)
        protocol = build_protocol(config, series_value, endpoint)
        found = {
            side: converged_cutoff(getattr(protocol, side), config.n_levels, ceiling=config.cutoff.ceiling)
            for side in expected
        }
        assert found == expected
