import math

import numpy as np
import pytest

from rabiotto import (
    MeasurementBasis,
    OperatorMatrix,
    conditional_entropy,
    coupled_coupling_protocol,
    discord_differences,
    quantum_discord,
    resonator_frequency_protocol,
    run_cycle,
    tensor,
    von_neumann_entropy,
)
from rabiotto.correlations import AXIS_TOL, _canonical_angles
from rabiotto.sweep import _series_cutoffs, build_protocol, figure_preset

from conftest import random_density


def bell_state(dim_b=2):
    """Maximally entangled qubit-oscillator state on a cutoff-2 oscillator."""
    v = np.zeros(2 * dim_b, dtype=complex)
    v[0] = v[dim_b + 1] = 1.0 / math.sqrt(2.0)
    return OperatorMatrix(np.outer(v, v.conj()), subsystem_dims=(2, dim_b))


def product_thermalish(rng, dim_b=5):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, dim_b)
    return tensor(rho_a, rho_b), rho_a, rho_b


def both_outcomes(evaluator, t, p):
    """Conditional entropy at (t, p): the "+" term there plus at the antipode."""
    return float(evaluator(np.array([t, math.pi - t]), np.array([p, p + math.pi])).sum())


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert abs(von_neumann_entropy(bell_state())) < 1e-12

    def test_maximally_mixed_qubit(self):
        rho = OperatorMatrix(np.eye(2) / 2.0)
        assert abs(von_neumann_entropy(rho) - math.log(2.0)) < 1e-14

    def test_maximally_mixed_two_qubits(self):
        rho = OperatorMatrix(np.eye(4) / 4.0)
        assert abs(von_neumann_entropy(rho) - math.log(4.0)) < 1e-14

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.eye(3))  # trace 3
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([[0.5, 0.4], [0.6, 0.5]]))  # not Hermitian

    def test_unitary_invariance(self, rng):
        rho = random_density(rng, 6)
        for _ in range(5):
            x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            q, _ = np.linalg.qr(x)
            rotated = q @ rho @ q.conj().T
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


class TestMeasurementBasis:
    def test_projector_algebra(self, rng):
        for _ in range(25):
            basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            p_up, p_down = basis.projectors()
            np.testing.assert_allclose(p_up + p_down, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(p_up @ p_up, p_up, atol=1e-12)
            np.testing.assert_allclose(p_down @ p_down, p_down, atol=1e-12)
            np.testing.assert_allclose(p_up @ p_down, np.zeros((2, 2)), atol=1e-12)

    def test_z_basis(self):
        p_up, p_down = MeasurementBasis(0.0, 0.0).projectors()
        np.testing.assert_allclose(p_up, [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(p_down, [[0, 0], [0, 1]], atol=1e-15)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            MeasurementBasis(4.0, 0.0)


class TestConditionalEntropy:
    def test_product_state_gives_marginal_entropy(self, rng):
        rho, _, rho_b = product_thermalish(rng)
        s_b = von_neumann_entropy(OperatorMatrix(rho_b))
        for theta_m, phi_m in ((0.0, 0.0), (1.1, 0.7), (math.pi / 2, math.pi)):
            value = conditional_entropy(rho, MeasurementBasis(theta_m, phi_m))
            assert abs(value - s_b) < 1e-10

    def test_bell_state_z_basis_outcomes_are_pure(self):
        assert conditional_entropy(bell_state(), MeasurementBasis(0.0, 0.0)) < 1e-12

    def test_requires_structure(self):
        rho = OperatorMatrix(np.eye(4) / 4.0)
        with pytest.raises(ValueError):
            conditional_entropy(rho, MeasurementBasis(0.0, 0.0))

    def test_scalar_vs_vectorized_paths_agree(self, small_cycle):
        # dual route: full-projector reference vs compressed block evaluator
        from rabiotto.correlations import _BlockEvaluator

        _, states, _ = small_cycle
        evaluator = _BlockEvaluator(states.rho1)
        rng = np.random.default_rng(5)
        for _ in range(12):
            t = rng.uniform(0.0, math.pi)
            p = rng.uniform(0.0, 2.0 * math.pi)
            scalar = conditional_entropy(states.rho1, MeasurementBasis(t, p))
            assert abs(scalar - both_outcomes(evaluator, t, p)) < 1e-10

    def test_bounded_below_by_entropy_difference(self, rng):
        # nonnegativity of discord restated per evaluation:
        # sum_j p_j S(rho_B^j) >= S(AB) - S(A)
        for _ in range(10):
            rho = OperatorMatrix(random_density(rng, 12), subsystem_dims=(2, 6))
            s_ab = von_neumann_entropy(rho)
            from rabiotto import partial_trace

            s_a = von_neumann_entropy(partial_trace(rho, "qubit"))
            basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert conditional_entropy(rho, basis) >= s_ab - s_a - 1e-9

    def test_scalar_vs_vectorized_on_complex_state(self, rng):
        rho = OperatorMatrix(random_density(rng, 8), subsystem_dims=(2, 4))
        from rabiotto.correlations import _BlockEvaluator

        evaluator = _BlockEvaluator(rho)
        for _ in range(8):
            t = rng.uniform(0.0, math.pi)
            p = rng.uniform(0.0, 2.0 * math.pi)
            scalar = conditional_entropy(rho, MeasurementBasis(t, p))
            assert abs(scalar - both_outcomes(evaluator, t, p)) < 1e-10


class TestQuantumDiscord:
    def test_product_state_has_zero_discord(self, rng):
        _, rho_a, rho_b = product_thermalish(rng)
        result = quantum_discord(tensor(rho_a.real, rho_b.real), grid=(24, 48))
        assert result.discord < 1e-9

    def test_product_state_reports_the_z_axis(self, rng):
        # the conditional entropy is flat in the angle; round-off must not pick the axis
        _, rho_a, rho_b = product_thermalish(rng)
        basis = quantum_discord(tensor(rho_a.real, rho_b.real), grid=(24, 48)).optimal_basis
        assert (basis.theta_m, basis.phi_m) == (0.0, 0.0)

    def test_rejects_complex_state(self, rng):
        rho, _, _ = product_thermalish(rng)
        with pytest.raises(ValueError, match="real density matrix"):
            quantum_discord(rho, grid=(24, 48))

    def test_bell_state_ln2(self):
        result = quantum_discord(bell_state(), grid=(24, 48))
        assert abs(result.discord - math.log(2.0)) < 1e-6
        assert abs(result.entropy_ab) < 1e-12
        assert abs(result.entropy_a - math.log(2.0)) < 1e-12
        assert result.conditional_entropy_min < 1e-9

    def test_decomposition_identity(self, small_cycle):
        _, states, _ = small_cycle
        result = quantum_discord(states.rho1, grid=(20, 40))
        recomposed = result.entropy_a - result.entropy_ab + result.conditional_entropy_min
        assert abs(result.discord - recomposed) < 1e-12 or result.discord == 0.0
        assert result.discord >= 0.0

    def test_refinement_never_worse_than_grid(self, small_cycle):
        _, states, _ = small_cycle
        coarse = quantum_discord(states.rho1, grid=(12, 24), refine=False)
        refined = quantum_discord(states.rho1, grid=(12, 24), refine=True)
        assert refined.conditional_entropy_min <= coarse.conditional_entropy_min + 1e-15

    def test_refinement_against_brute_force_grid(self, small_cycle):
        # optimizer must never land above the best point of a denser grid
        _, states, _ = small_cycle
        result = quantum_discord(states.rho1, grid=(32, 64))
        from rabiotto.correlations import _BlockEvaluator

        evaluator = _BlockEvaluator(states.rho1)
        ts = np.linspace(0.0, math.pi, 96)
        ps = np.linspace(0.0, 2.0 * math.pi, 192, endpoint=False)
        tt, pp = np.meshgrid(ts, ps, indexing="ij")
        tt, pp = tt.ravel(), pp.ravel()
        dense = evaluator(tt, pp) + evaluator(math.pi - tt, pp + math.pi)
        dense_best = float(dense.min())
        assert result.conditional_entropy_min <= dense_best + 1e-9

    def test_discord_vanishes_as_coupling_vanishes(self):
        protocol = resonator_frequency_protocol(g=0.0)
        states, _ = run_cycle(protocol, cutoff=16)
        result = quantum_discord(states.rho1, grid=(16, 32))
        assert result.discord < 1e-9

    @pytest.mark.parametrize("theta", figure_preset("fig4").series.values)
    def test_fig4_discord_vanishes_at_zero_coupling(self, theta):
        # g = 0 levels are exactly degenerate and LAPACK picks its own basis
        # inside each cluster; the cycle states do not depend on that choice,
        # because each degenerate pair carries equal populations
        config = figure_preset("fig4")
        protocol = build_protocol(config, theta, 0.0)
        states, _ = run_cycle(protocol, cutoff=_series_cutoffs(config)[theta])
        diffs = discord_differences(states)
        for result in (diffs.rho1, diffs.rho3, diffs.rho4):
            assert result.discord < 1e-12

    def test_thermal_discord_positive_at_strong_coupling(self, small_cycle):
        _, states, _ = small_cycle
        assert quantum_discord(states.rho1, grid=(24, 48)).discord > 1e-3

    def test_phi_mirror_symmetry_for_real_states(self, small_cycle):
        # the half grid for real states relies on f(t, phi) = f(t, 2pi - phi)
        from rabiotto.correlations import _BlockEvaluator

        _, states, _ = small_cycle
        evaluator = _BlockEvaluator(states.rho1)
        for t in (0.4, 1.1, 2.0):
            for p in (0.3, 1.9, 3.0):
                a = float(evaluator(np.array([t]), np.array([p]))[0])
                b = float(evaluator(np.array([t]), np.array([2 * math.pi - p]))[0])
                assert abs(a - b) < 1e-12

    def test_even_and_odd_phi_grids_agree(self, small_cycle):
        # two even grids agree; an odd n_phi or a single theta row has no antipodes
        _, states, _ = small_cycle
        a = quantum_discord(states.rho1, grid=(16, 32))
        b = quantum_discord(states.rho1, grid=(15, 30))
        assert abs(a.discord - b.discord) < 1e-7
        for grid in ((16, 31), (1, 32), (0, 32)):
            with pytest.raises(ValueError, match="even n_phi"):
                quantum_discord(states.rho1, grid=grid)

    def test_rejects_unstructured(self, rng):
        with pytest.raises(ValueError):
            quantum_discord(OperatorMatrix(random_density(rng, 4)))


class TestReportedAxis:
    """A measurement along n is the one along -n; one of the two is reported."""

    @pytest.mark.parametrize(
        "theta, phi",
        [
            (math.pi / 2, 0.0),  # on the equator: phi = 0 against phi = pi
            (0.7305, 2 * math.pi - 1e-8),
            (0.7305, 1e-8),
            (2.411, math.pi),
            (1.9, 4.0),
            (0.0, 0.0),
            (math.pi / 2, math.pi / 2),
        ],
    )
    def test_antipodes_report_one_axis(self, theta, phi):
        reported = _canonical_angles(theta, phi)
        assert reported == pytest.approx(_canonical_angles(math.pi - theta, phi + math.pi), abs=1e-12)
        t, p = reported
        assert 0.0 <= t <= math.pi and -math.pi < p <= math.pi
        n = MeasurementBasis(t, p).bloch_vector()
        m = MeasurementBasis(theta, phi).bloch_vector()
        assert min(np.abs(n - m).max(), np.abs(n + m).max()) < 1e-12

    def test_no_jump_across_phi_zero(self):
        below = _canonical_angles(0.7305, 2 * math.pi - 1e-8)
        above = _canonical_angles(0.7305, 1e-8)
        assert below == pytest.approx(above, abs=3e-8)

    def test_discord_reports_the_positive_x_representative(self, small_cycle):
        # theta = 0: the optimal axis lies in the x-z plane, phi in {0, pi}
        _, states, _ = small_cycle
        basis = quantum_discord(states.rho1, grid=(16, 32)).optimal_basis
        assert -math.pi < basis.phi_m <= math.pi
        assert basis.bloch_vector()[0] > -AXIS_TOL


class TestDiscordDifferences:
    def test_identical_hamiltonians_leave_adiabats_trivial(self):
        # R = 1: both adiabats are no-ops, so rho2 = rho1 and rho4 = rho3
        # exactly and the compression-stage difference vanishes. The hot-stage
        # difference D(rho4) - D(rho1) stays nonzero: it compares thermal
        # states at the two reservoir temperatures.
        protocol = resonator_frequency_protocol(g=0.7, ratio=1.0)
        states, _ = run_cycle(protocol, cutoff=20)
        assert np.max(np.abs(states.rho2.matrix - states.rho1.matrix)) < 1e-13
        assert np.max(np.abs(states.rho4.matrix - states.rho3.matrix)) < 1e-13
        diffs = discord_differences(states, grid=(16, 32))
        assert abs(diffs.d34) < 2e-9
        assert abs(diffs.d41 - diffs.d31) < 2e-9

    def test_proportional_hamiltonians_leave_compression_invariant(self):
        # alpha = 1: H_h = R H_c share eigenvectors, so rho3 = rho4 exactly
        protocol = coupled_coupling_protocol(g_c=0.9, alpha=1.0)
        states, _ = run_cycle(protocol, cutoff=32)
        assert np.max(np.abs(states.rho3.matrix - states.rho4.matrix)) < 1e-12
        diffs = discord_differences(states, grid=(16, 32))
        assert abs(diffs.d34) < 2e-9

    def test_hot_stage_reduction_positive_in_engine_regime(self, small_cycle):
        _, states, _ = small_cycle
        diffs = discord_differences(states, grid=(24, 48))
        # g/omega_c = 1 is inside the engine window: correlations drop across
        # the hot bath stage (D(rho4) > D(rho1))
        assert diffs.d41 > 0.0
