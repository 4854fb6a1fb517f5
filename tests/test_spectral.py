import itertools
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
    relative_spectrum,
    solve_hamiltonian,
    solve_hamiltonians,
)
from rabiotto.hamiltonian import conserves_parity
from rabiotto.spectral import ORTHONORMALITY_TOL, RESIDUAL_TOL, _hamiltonian_blocks, symmetric_eigh
from rabiotto.sweep import build_protocol, figure_preset

from conftest import parity_diagonal, spectral_form


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
    """The certified eigendecomposition, through ``solve_hamiltonian``, the package's one certified solve."""

    def test_diagonal(self):
        # g = 0, omega_q = 0.5: H is diagonal with levels k +/- 0.25, q = 0 taking +
        d = solve_hamiltonian(RabiParams(omega_cav=1.0, omega_q=0.5), 3)
        np.testing.assert_allclose(d.energies, [-0.25, 0.25, 0.75, 1.25, 1.75, 2.25], atol=1e-14)
        # eigenvectors are the permuted standard basis |q k> at index 3 q + k
        np.testing.assert_allclose(np.abs(d.states), np.eye(6)[:, [3, 0, 4, 1, 5, 2]], atol=1e-14)

    def test_two_by_two_offdiagonal(self):
        # cutoff 2 at resonance: the +1 sector (|up,0>, |down,1>) is [[0.5, g], [g, 0.5]],
        # levels 0.5 -/+ g; the -1 sector (|down,0>, |up,1>) has levels 0.5 -/+ sqrt(1 + g^2)
        g = 0.3
        d = solve_hamiltonian(RabiParams.resonant(1.0, g=g), 2)
        outer = math.sqrt(1.0 + g * g)
        np.testing.assert_allclose(d.energies, [0.5 - outer, 0.5 - g, 0.5 + g, 0.5 + outer], atol=1e-14)
        expected = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
        v = d.states[:, 1]
        assert min(np.max(np.abs(v - s * expected)) for s in (1, -1)) < 1e-14

    def test_one_by_one(self):
        # symmetric_eigh, the one LAPACK path, on the smallest matrix
        w, v = symmetric_eigh(np.array([[4.0]]))
        assert w[0] == 4.0 and abs(v[0, 0]) == 1.0

    def test_against_charpoly_oracle(self, rng):
        for n in (3, 5, 7):
            m = random_symmetric(rng, n)
            for vectors in (True, False):
                w, _ = symmetric_eigh(m, vectors=vectors)
                np.testing.assert_allclose(w, charpoly_roots(m), atol=1e-8)

    def test_residuals_and_orthonormality(self):
        # the certificate's values are those of the returned vectors against
        # the dense H, the scatter of the sector vectors included
        for theta in (0.0, 0.3):
            for n in (2, 11, 60):
                params = RabiParams.resonant(1.0, g=1.2, theta=theta)
                d = solve_hamiltonian(params, n)
                h = build_hamiltonian(params, n).matrix
                w, v = d.energies, d.states
                assert np.all(np.diff(w) >= 0)
                residual = np.linalg.norm(h @ v - v * w, axis=0).max()
                assert residual < 1e-12 * n
                assert d.residual_norm == pytest.approx(residual, abs=1e-13)
                ortho_err = np.max(np.abs(v.T @ v - np.eye(2 * n)))
                assert ortho_err < 1e-13 * n
                assert d.orthonormality_error == pytest.approx(ortho_err, abs=1e-15)

    def test_matches_lapack(self):
        # the real-arithmetic path agrees with LAPACK's complex Hermitian routine
        for theta in (0.0, 0.3):
            params = RabiParams.resonant(1.0, g=1.2, theta=theta)
            w_complex = np.linalg.eigvalsh(build_hamiltonian(params, 20).matrix.astype(complex))
            np.testing.assert_allclose(solve_hamiltonian(params, 20).energies, w_complex, atol=1e-11)

    @pytest.mark.parametrize("theta", [0.3, math.pi / 4, math.pi / 2])
    def test_a_whole_matrix_solve_is_lapacks_output(self, theta):
        # theta != 0 is solved whole, and LAPACK's energies are already
        # ascending: the decomposition is its eigh output bit for bit
        params = RabiParams(omega_cav=1.3, omega_q=0.9, g=1.7, theta=theta)
        d = solve_hamiltonian(params, 40)
        w, v = np.linalg.eigh(build_hamiltonian(params, 40).matrix)
        assert d.energies.tobytes() == w.tobytes()
        assert d.states.tobytes() == v.tobytes()

    def test_eigenvalues_only_path(self, rng):
        # converged_cutoff's eigenvalues-only solve agrees with the full decomposition
        w_only, v = symmetric_eigh(random_symmetric(rng, 25), vectors=False)
        assert v is None and w_only.shape == (25,)
        for theta in (0.0, 0.3):
            params = RabiParams.resonant(1.0, g=1.5, theta=theta)
            full = relative_spectrum(solve_hamiltonian(params, 25), 12)
            np.testing.assert_allclose(spectral._relative_levels(params, 25, 12), full, atol=1e-12)

    def test_degenerate_spectrum(self):
        # theta = pi/2, omega_q = 0: the blocks k + g x and k - g x share their
        # spectrum, so every level is a doublet, solved whole; the vectors
        # must still be orthonormal
        params = RabiParams(omega_cav=1.0, omega_q=0.0, g=0.8, theta=math.pi / 2)
        h = build_hamiltonian(params, 20).matrix
        d = solve_hamiltonian(params, 20)
        w, v = d.energies, d.states
        np.testing.assert_allclose(w[0::2], w[1::2], atol=1e-12)
        assert np.max(np.abs(v.T @ v - np.eye(40))) < 1e-12
        assert np.linalg.norm(h @ v - v * w, axis=0).max() < 1e-12

    def test_trace_equals_eigenvalue_sum(self):
        # at theta = 0 the two sectors' levels together hold the whole trace
        params = RabiParams.resonant(1.0, g=2.0)
        h = build_hamiltonian(params, 40).matrix
        assert abs(solve_hamiltonian(params, 40).energies.sum() - np.trace(h)) < 1e-8

    def test_non_finite_input_never_passes_the_certificate(self, monkeypatch):
        # OpenBLAS's LAPACK can return NaN eigenpairs without raising; the
        # NaN residual must fail the gate, not compare False against it
        monkeypatch.setattr(spectral, "symmetric_eigh", changed_eigenpairs(nan=True))
        for theta in (0.0, 0.3):  # two parity sectors, then the whole matrix
            with pytest.raises(ConvergenceError, match="residual nan"):
                solve_hamiltonian(RabiParams.resonant(1.0, g=1.2, theta=theta), 16)

    def test_rabi_against_charpoly_oracle(self):
        # tiny cutoff-4 instance solved independently through the
        # characteristic polynomial of each parity block
        params = RabiParams.resonant(1.0, g=1.0)
        h = build_hamiltonian(params, 4)
        d = solve_hamiltonian(params, 4)
        np.testing.assert_allclose(d.energies, charpoly_roots(h.matrix), atol=1e-8)
        # blocked variant: project onto the two parity sectors and solve 4x4 blocks
        p = parity_diagonal(4)
        blocks = [h.matrix[np.ix_(p == sign, p == sign)] for sign in (-1.0, 1.0)]
        oracle = np.sort(np.concatenate([charpoly_roots(b) for b in blocks]))
        np.testing.assert_allclose(d.energies, oracle, atol=1e-8)

    def test_residual_certificate_at_large_cutoff(self):
        d = solve_hamiltonian(RabiParams.resonant(1.0, g=1.0), 60)
        assert d.residual_norm < 1e-9
        gram = d.states.T @ d.states
        assert np.max(np.abs(gram - np.eye(d.dim))) < 1e-10
        assert d.cutoff_used == 60

    def test_eigenvalue_sum_equals_trace(self):
        params = RabiParams.resonant(1.0, g=2.0, theta=0.3)
        h = build_hamiltonian(params, 40)
        d = solve_hamiltonian(params, 40)
        assert abs(d.energies.sum() - np.trace(h.matrix)) < 1e-8

    def test_definite_parity_at_theta_zero(self):
        d = solve_hamiltonian(RabiParams.resonant(1.0, g=1.3), 30)
        expect = parity_diagonal(30) @ d.states**2
        np.testing.assert_allclose(np.abs(expect), 1.0, atol=1e-8)


def changed_eigenpairs(nan=False, residual=0.0, stretch=0.0):
    """A symmetric_eigh whose eigenpairs are changed before the gates see them.

    ``nan`` makes every value NaN. ``residual`` rotates columns 0 and 1 by
    the angle that leaves ||H v_0 - E_0 v_0|| = residual, orthonormal to
    round-off; ``stretch`` then scales column 0 by 1 + stretch, an
    orthonormality error of about 2 stretch.
    """
    original = spectral.symmetric_eigh

    def changed(matrix, vectors=True):
        # a stack of matrices has each member changed alike
        w, v = original(matrix, vectors)
        if nan:
            return np.full_like(w, np.nan), np.full_like(v, np.nan)
        s = (residual / (w[..., 1] - w[..., 0]))[..., None]
        c = np.sqrt(1.0 - s * s)
        v = v.copy()
        v[..., 0], v[..., 1] = c * v[..., 0] + s * v[..., 1], c * v[..., 1] - s * v[..., 0]
        v[..., 0] *= 1.0 + stretch
        return w, v

    return changed


class TestCertificateGates:
    """Each gate, on both paths: theta = 0 solves two parity sectors, theta != 0 the whole matrix."""

    @pytest.fixture(params=[0.0, 0.3], ids=["sectors", "whole"])
    def params(self, request):
        return RabiParams.resonant(1.0, g=1.2, theta=request.param)

    def test_residual_gate(self, params, monkeypatch):
        monkeypatch.setattr(spectral, "symmetric_eigh", changed_eigenpairs(residual=1e-6))
        with pytest.raises(ConvergenceError, match=r"residual 1\.0+e-06 exceeds"):
            solve_hamiltonian(params, 16)

    def test_orthonormality_gate(self, params, monkeypatch):
        monkeypatch.setattr(spectral, "symmetric_eigh", changed_eigenpairs(stretch=1e-8))
        with pytest.raises(ConvergenceError, match="orthonormality error 2"):
            solve_hamiltonian(params, 16)

    def test_values_are_those_against_the_dense_hamiltonian(self, params, monkeypatch):
        # changes below the gates but far above round-off: the reported values
        # are what the dense H and the scattered vectors give
        monkeypatch.setattr(spectral, "symmetric_eigh", changed_eigenpairs(residual=1e-11, stretch=1e-12))
        d = solve_hamiltonian(params, 16)
        h = build_hamiltonian(params, 16).matrix
        residual = np.linalg.norm(h @ d.states - d.states * d.energies, axis=0).max()
        ortho_err = np.max(np.abs(d.states.T @ d.states - np.eye(d.dim)))
        assert d.residual_norm == pytest.approx(residual, rel=1e-3)
        assert d.orthonormality_error == pytest.approx(ortho_err, rel=1e-3)
        assert d.residual_norm == pytest.approx(1e-11, rel=1e-2)
        assert d.orthonormality_error == pytest.approx(2e-12, rel=1e-2)


class TestRelativeSpectrum:
    def test_decoupled(self):
        d = solve_hamiltonian(RabiParams.resonant(1.0), 16)
        np.testing.assert_allclose(relative_spectrum(d, 4), [0, 1, 1, 2], atol=1e-12)

    def test_first_element_exactly_zero(self):
        d = solve_hamiltonian(RabiParams.resonant(1.0, g=0.8), 24)
        assert relative_spectrum(d, 6)[0] == 0.0

    def test_quasi_degenerate_ground_doublet(self):
        # deep-strong coupling collapses the lowest pair
        d = solve_hamiltonian(RabiParams.resonant(1.0, g=2.0), 60)
        rel = relative_spectrum(d, 2)
        assert 0.0 < rel[1] < 0.05

    def test_shift_invariance(self):
        params = RabiParams.resonant(1.0, g=0.5)
        d0 = solve_hamiltonian(params, 20)
        shifted = build_hamiltonian(params, 20).matrix + 7.3 * np.eye(40)
        d1, _ = spectral_form(OperatorMatrix(shifted, subsystem_dims=(2, 20)))
        np.testing.assert_allclose(
            relative_spectrum(d0, 10), relative_spectrum(d1, 10), atol=1e-10
        )

    def test_out_of_range(self):
        d = solve_hamiltonian(RabiParams.resonant(1.0), 4)
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
        d1 = solve_hamiltonian(params, found)
        d2 = solve_hamiltonian(params, 2 * found)
        delta = np.abs(relative_spectrum(d1, 10) - relative_spectrum(d2, 10)).max()
        assert delta < tol

    @pytest.fixture
    def scan_solves(self, monkeypatch):
        """The cutoffs of converged_cutoff's solves, in order."""
        solved = []
        relative_levels = spectral._relative_levels

        def recorded(params, n_max, n_levels):
            solved.append(n_max)
            return relative_levels(params, n_max, n_levels)

        monkeypatch.setattr(spectral, "_relative_levels", recorded)
        return solved

    def test_ceiling_failure(self, scan_solves):
        # each tested n (8, 12 and 16 below ceiling 16) is compared against a
        # solve at 2n, so a failing scan solves up to twice the ceiling; 16 is
        # solved once, for the test of 8 and its own
        with pytest.raises(ConvergenceError, match="ceiling"):
            converged_cutoff(RabiParams.resonant(1.0, g=3.0), n_levels=8, tol=1e-8, ceiling=16)
        assert scan_solves == [8, 16, 12, 24, 32]

    def test_each_cutoff_is_solved_once_per_scan(self, scan_solves):
        # fig2's cold side at g = 3.5 tests 24, 36, 48 and 72; each solve
        # serves as the 2n solve of one test and the n solve of a later one
        cold = build_protocol(figure_preset("fig2"), None, 3.5).cold
        assert converged_cutoff(cold, n_levels=24) == 72
        assert scan_solves == [24, 48, 36, 72, 96, 144]

    @pytest.mark.parametrize(
        "params, n_levels",
        [
            (build_protocol(figure_preset("fig2"), None, 3.5).cold, 24),
            (RabiParams.resonant(1.0, g=1.5, theta=0.3), 10),
            (RabiParams.resonant(1.0, g=2.0), 8),
        ],
        ids=["fig2-cold", "whole-matrix", "sectors"],
    )
    def test_returns_the_smallest_rung_that_passes(self, params, n_levels):
        # checked by direct solves: every ladder cutoff below the returned one
        # fails the doubling comparison, and the returned one passes it
        tol = spectral.CUTOFF_TOL
        found = converged_cutoff(params, n_levels=n_levels)

        def doubling_delta(n):
            levels = [relative_spectrum(solve_hamiltonian(params, m), n_levels) for m in (n, 2 * n)]
            return float(np.max(np.abs(levels[1] - levels[0])))

        rungs = list(itertools.islice(spectral._ladder(spectral.scan_start(n_levels)), 12))
        below = rungs[:rungs.index(found)]
        assert below, "the scan should not stop at its start here"
        assert all(doubling_delta(n) >= tol for n in below)
        assert doubling_delta(found) < tol

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_odd_scan_start(self, theta, scan_solves):
        # n_levels = 9 starts the ladder at 9, 13, 18, 26, ...; relative_spectrum
        # raises unless the returned cutoff holds 9 levels
        params = RabiParams.resonant(1.0, g=1.0, theta=theta)
        found = converged_cutoff(params, n_levels=9)
        assert found == 26
        assert scan_solves == [9, 18, 13, 26, 36, 52]
        d1, d2 = solve_hamiltonian(params, found), solve_hamiltonian(params, 2 * found)
        delta = np.abs(relative_spectrum(d1, 9) - relative_spectrum(d2, 9)).max()
        assert delta < spectral.CUTOFF_TOL

    def test_rejects_ceiling_below_scan_start(self):
        # the scan starts at max(n_levels, 8), so ceiling 4 can certify nothing
        with pytest.raises(ValueError, match="ceiling must be >= the scan start 24"):
            converged_cutoff(RabiParams.resonant(1.0), n_levels=24, ceiling=4)
        assert converged_cutoff(RabiParams.resonant(1.0), n_levels=8, tol=1e-10, ceiling=8) == 8

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            converged_cutoff(RabiParams.resonant(1.0), n_levels=4, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        # nan would climb the whole ladder to raise ConvergenceError, and inf
        # would certify the scan start without testing it
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            converged_cutoff(RabiParams.resonant(1.0), n_levels=4, tol=tol)


@pytest.fixture
def solver_calls(monkeypatch):
    """Calls of the solver and of the two Hamiltonian builders in rabiotto.spectral.

    ``blocks`` counts the matrices the solver was given, a stack's members each.
    """
    calls = {"eigh": 0, "blocks": 0, "build": 0, "sectors": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "eigh":
                calls["blocks"] += args[0].shape[0] if args[0].ndim == 3 else 1
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
        p = parity_diagonal(n)[:, None]
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
    # it, and theta > 0 with g > 0 is solved whole; both sectors go to the
    # solver in one stacked call
    @pytest.mark.parametrize("theta, solves", [(0.0, 2), (math.pi / 8, 1), (math.pi / 2, 1)])
    def test_one_solve_per_sector(self, theta, solves, solver_calls):
        params = RabiParams.resonant(1.0, g=0.7, theta=theta)
        assert conserves_parity(params) is (solves == 2)
        d = solve_hamiltonian(params, 24)
        assert (solver_calls["eigh"], solver_calls["blocks"]) == (1, solves)
        assert (solver_calls["sectors"], solver_calls["build"]) == ((1, 0) if solves == 2 else (0, 1))
        assert d.residual_norm < RESIDUAL_TOL

    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2])
    def test_zero_coupling_is_split_at_any_theta(self, theta, solver_calls):
        params = RabiParams.resonant(1.0, g=0.0, theta=theta)
        assert conserves_parity(params)
        d = solve_hamiltonian(params, 24)
        assert (solver_calls["eigh"], solver_calls["blocks"]) == (1, 2)
        assert (solver_calls["sectors"], solver_calls["build"]) == (1, 0)
        np.testing.assert_array_equal(relative_spectrum(d, 4), [0.0, 1.0, 1.0, 2.0])

    @pytest.mark.parametrize("theta, per_scan", [(0.0, 2), (math.pi / 8, 1)])
    def test_cutoff_scan_solves_per_sector(self, theta, per_scan, solver_calls):
        converged_cutoff(RabiParams.resonant(1.0, g=0.7, theta=theta), n_levels=8)
        steps = solver_calls["sectors"] + solver_calls["build"]
        assert steps >= 2
        assert solver_calls["sectors" if per_scan == 2 else "build"] == steps
        assert solver_calls["eigh"] == per_scan * steps

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
        p = parity_diagonal(16)
        for k in ties:  # the +1 sector's level comes first
            assert p @ first.states[:, k] ** 2 > 0.0 > p @ first.states[:, k + 1] ** 2

    # converged_cutoff of each solved side at the sweep endpoints, as certified
    # by whole-matrix solves; the sector scans must find the same cutoffs
    @pytest.mark.parametrize(
        "preset, series_value, endpoint, expected",
        [
            ("fig2", None, 0.0, {"cold": 24, "hot": 24}),
            ("fig2", None, 3.5, {"cold": 72, "hot": 48}),
            ("fig6", 0.8, 2.0, {"cold": 48, "hot": 48}),
            ("fig6", 1.0, 2.0, {"cold": 48, "hot": 48}),
            ("fig6", 1.2, 2.0, {"cold": 48, "hot": 72}),
            ("fig9", None, 0.0, {"cold": 10}),
            ("fig9", None, 3.5, {"cold": 60}),
        ],
    )
    def test_preset_endpoint_cutoffs_are_unchanged(self, preset, series_value, endpoint, expected):
        config = figure_preset(preset)
        protocol = build_protocol(config, series_value, endpoint)
        found = {
            side: converged_cutoff(getattr(protocol, side), config.n_levels)
            for side in expected
        }
        assert found == expected


def one_block_at_a_time(params, n):
    """The solve as it was before blocks were stacked: one LAPACK call and one gate per block."""
    energies, states = np.empty(2 * n), np.zeros((2 * n, 2 * n))
    residual = ortho_err = 0.0
    start = 0
    for indices, block in _hamiltonian_blocks(params, n):
        w, v = np.linalg.eigh(block)
        residual = max(residual, float(np.linalg.norm(block @ v - v * w, axis=0).max()))
        ortho_err = max(ortho_err, float(np.max(np.abs(v.T @ v - np.eye(v.shape[1])))))
        energies[start:start + len(w)] = w
        states[indices, start:start + len(w)] = v
        start += len(w)
    order = np.argsort(energies, kind="stable")
    return energies[order], states[:, order], residual, ortho_err


class TestStackedSolve:
    """``solve_hamiltonians``: every side at one cutoff, one solver call per block shape."""

    G_VALUES = (0.0, 0.4, 1.7, 3.5)

    @pytest.mark.parametrize(
        "thetas, calls",
        [
            ((0.0,), 1),  # every side in two sectors, one stack
            ((0.3,), 2),  # g = 0 in sectors beside the g > 0 sides solved whole
            ((0.0, 0.3, math.pi / 2), 2),
        ],
        ids=["theta-zero", "theta-nonzero", "mixed"],
    )
    @pytest.mark.parametrize("n", [8, 48])
    def test_matches_one_at_a_time_bit_for_bit(self, thetas, calls, n, solver_calls):
        params = [RabiParams.resonant(1.0, g=g, theta=t) for t in thetas for g in self.G_VALUES]
        stacked = solve_hamiltonians(params, n)
        assert solver_calls["eigh"] == calls
        assert solver_calls["blocks"] == sum(1 + conserves_parity(p) for p in params)
        for p, d in zip(params, stacked):
            alone = solve_hamiltonian(p, n)
            assert d.cutoff_used == alone.cutoff_used == n
            assert d.energies.tobytes() == alone.energies.tobytes()
            assert d.states.tobytes() == alone.states.tobytes()
            assert (d.residual_norm, d.orthonormality_error) == (alone.residual_norm, alone.orthonormality_error)
            energies, states, residual, ortho_err = one_block_at_a_time(p, n)
            assert d.energies.tobytes() == energies.tobytes()
            assert d.states.tobytes() == states.tobytes()
            assert (d.residual_norm, d.orthonormality_error) == (residual, ortho_err)

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_one_failing_member_fails_the_stack(self, theta, monkeypatch):
        # the gate fails for the member whose coupling entry is g = 1.7, and
        # the error is that block's, whichever members stand beside it
        original = spectral.symmetric_eigh

        def stretched(matrix, vectors=True):
            w, v = original(matrix, vectors)
            v = v.copy()
            for k, block in enumerate(matrix):
                if np.any(block == 1.7 * math.cos(theta)):  # <0|x|1> = 1 times g cos(theta)
                    v[k, :, 0] *= 1.0 + 1e-8
            return w, v

        monkeypatch.setattr(spectral, "symmetric_eigh", stretched)
        params = [RabiParams.resonant(1.0, g=g, theta=theta) for g in self.G_VALUES]
        with pytest.raises(ConvergenceError, match="orthonormality error 2"):
            solve_hamiltonians(params, 16)
        assert solve_hamiltonians([params[1]], 16)[0].orthonormality_error < ORTHONORMALITY_TOL
