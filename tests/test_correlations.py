import hashlib
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rabiotto import (
    MeasurementBasis,
    OperatorMatrix,
    SpectralDecomposition,
    coupled_coupling_protocol,
    discord_differences,
    quantum_discord,
    resonator_frequency_protocol,
    run_cycle,
    von_neumann_entropy,
)
from rabiotto.correlations import (
    AXIS_TOL,
    DEFAULT_GRID,
    FLAT_TOL,
    OUTCOME_FLOOR,
    REFINE_MAX_ITER,
    _BlockEvaluator,
    _bloch,
    _canonical_angles,
    _half_grid,
    nelder_mead,
)
from rabiotto.cycle import carry_populations
from rabiotto.sweep import _series_cutoffs, build_protocol, figure_preset

from conftest import conditional_entropy, dense_state, random_density, spectral_form


def bell_state(dim_b=2):
    """Maximally entangled qubit-oscillator state on a cutoff-2 oscillator."""
    v = np.zeros(2 * dim_b)
    v[0] = v[dim_b + 1] = 1.0 / math.sqrt(2.0)
    return OperatorMatrix(np.outer(v, v), subsystem_dims=(2, dim_b))


PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))


def bell_diagonal(c):
    """(I + sum_i c_i sigma_i x sigma_i)/4 on qubit x 2-level oscillator; real, as sigma_y x sigma_y is."""
    m = np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULIS))
    assert not m.imag.any()
    return OperatorMatrix(m.real / 4, subsystem_dims=(2, 2))


# Bell-diagonal correlation vectors whose largest |c_i| lies along x, y and z
BELL_DIAGONAL = {"x": (0.6, 0.1, -0.2), "y": (0.2, -0.7, 0.3), "z": (0.1, 0.2, -0.5)}


def half_grid_values(decomposition, populations, grid):
    """S on quantum_discord's real-state half grid: f plus f with both axes reversed."""
    n_theta, n_phi = grid
    tt, pp = np.meshgrid(
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)[: n_phi // 2 + 1],
        indexing="ij",
    )
    f = _BlockEvaluator(decomposition, populations)(tt.ravel(), pp.ravel()).reshape(tt.shape)
    return f + f[::-1, ::-1]


def reduced_qubit(rho):
    """Partial trace over the oscillator of a structured dense state."""
    _, n = rho.subsystem_dims
    return np.einsum("anbn->ab", rho.matrix.reshape(2, n, 2, n))


@pytest.fixture(scope="module")
def cycles(small_cycle):
    """The g/omega_c = 1 cycle at cutoff 32, at theta = 0 and at theta = pi/4 (no parity)."""
    _, states, _ = small_cycle
    tilted, _ = run_cycle(resonator_frequency_protocol(g=1.0, theta=math.pi / 4), cutoff=32)
    return {0.0: states, math.pi / 4: tilted}


def cycle_state(states, name):
    """rho1, rho3 or rho4 of a cycle as its (decomposition, populations) pair."""
    return {
        "rho1": (states.hot, states.populations_hot),
        "rho3": (states.cold, states.populations_cold),
        "rho4": (states.hot, carry_populations(states.populations_cold, states.hot.dim)),
    }[name]


def product_thermalish(rng, dim_b=5):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, dim_b)
    return OperatorMatrix(np.kron(rho_a, rho_b), subsystem_dims=(2, dim_b)), rho_a, rho_b


def both_outcomes(evaluator, t, p):
    """Conditional entropy at (t, p): the "+" term there plus at the antipode."""
    return float(evaluator(np.array([t, math.pi - t]), np.array([p, p + math.pi])).sum())


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert abs(von_neumann_entropy(bell_state().matrix)) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2.0) - math.log(2.0)) < 1e-14

    def test_maximally_mixed_two_qubits(self):
        assert abs(von_neumann_entropy(np.eye(4) / 4.0) - math.log(4.0)) < 1e-14

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.eye(3))  # trace 3
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([[0.5, 0.4], [0.6, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError, match="square"):
            von_neumann_entropy(np.full((2, 3), 1.0 / 6.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_entry(self, bad):
        # a NaN matrix had NaN eigenvalues, which passed both spectrum checks
        # and gave S = -0.0; LAPACK can also return finite eigenvalues for a
        # NaN entry, so the entries are checked before the solve
        for rho in (np.full((2, 2), bad), np.array([[0.5, 0.0], [0.0, bad]])):
            with pytest.raises(ValueError, match="non-finite"):
                von_neumann_entropy(rho)

    def test_unitary_invariance(self, rng):
        # every state is real, so the rotations are the real unitaries: orthogonal ones
        rho = random_density(rng, 6)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            rotated = q @ rho @ q.T
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


class TestMeasurementBasis:
    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            MeasurementBasis(4.0, 0.0)


class TestConditionalEntropy:
    def test_product_state_gives_marginal_entropy(self, rng):
        rho, _, rho_b = product_thermalish(rng)
        s_b = von_neumann_entropy(rho_b)
        for theta_m, phi_m in ((0.0, 0.0), (1.1, 0.7), (math.pi / 2, math.pi)):
            value = conditional_entropy(rho, theta_m, phi_m)
            assert abs(value - s_b) < 1e-10

    def test_bell_state_z_basis_outcomes_are_pure(self):
        assert conditional_entropy(bell_state(), 0.0, 0.0) < 1e-12

    def test_requires_structure(self):
        rho = OperatorMatrix(np.eye(4) / 4.0)
        with pytest.raises(ValueError):
            conditional_entropy(rho, 0.0, 0.0)

    def test_scalar_vs_vectorized_paths_agree(self, cycles):
        # dual route: full-projector reference on the dense state vs the
        # evaluator's Gram blocks of the kept levels, for rho1, rho3 and rho4
        # at theta = 0 and pi/4. rho4 puts cold populations on the hot basis;
        # theta = pi/4 has no parity.
        rng = np.random.default_rng(5)
        angles = [(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(12)]
        ts, ps = np.array(angles).T
        for states in cycles.values():
            for name in ("rho1", "rho3", "rho4"):
                decomposition, populations = cycle_state(states, name)
                evaluator = _BlockEvaluator(decomposition, populations)
                reference = conditional_entropy(dense_state(decomposition, populations), ts, ps)
                for t, p, value in zip(ts, ps, reference):
                    assert abs(value - both_outcomes(evaluator, t, p)) < 1e-10, (name, t, p)

    def test_bounded_below_by_entropy_difference(self, rng):
        # nonnegativity of discord restated per evaluation:
        # sum_j p_j S(rho_B^j) >= S(AB) - S(A)
        for _ in range(10):
            rho = OperatorMatrix(random_density(rng, 12), subsystem_dims=(2, 6))
            s_ab = von_neumann_entropy(rho.matrix)
            s_a = von_neumann_entropy(reduced_qubit(rho))
            theta_m, phi_m = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            assert conditional_entropy(rho, theta_m, phi_m) >= s_ab - s_a - 1e-9

    def test_scalar_vs_vectorized_on_random_state(self, rng):
        # a full-rank state with no symmetry of the cycle states; for real X,
        # b10 = b01^T, and swapping the two transposes the k x k matrix
        # without changing its spectrum, so no real state pins that pairing
        rho = OperatorMatrix(random_density(rng, 8), subsystem_dims=(2, 4))
        evaluator = _BlockEvaluator(*spectral_form(rho))
        angles = [(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(8)]
        ts, ps = np.array(angles).T
        for t, p, reference in zip(ts, ps, conditional_entropy(rho, ts, ps)):
            assert abs(reference - both_outcomes(evaluator, t, p)) < 1e-10

    def test_angle_arrays_broadcast_like_scalar_calls(self, rng):
        rho = OperatorMatrix(random_density(rng, 8), subsystem_dims=(2, 4))
        ts = np.linspace(0.0, math.pi, 5)[:, None]
        ps = np.linspace(0.0, 2.0 * math.pi, 3, endpoint=False)
        grid = conditional_entropy(rho, ts, ps)
        assert grid.shape == (5, 3)
        assert isinstance(conditional_entropy(rho, 0.3, 1.1), float)
        scalars = [[conditional_entropy(rho, t, p) for p in ps] for t in ts[:, 0]]
        np.testing.assert_allclose(grid, scalars, rtol=0.0, atol=1e-14)


class TestBlockEvaluator:
    """The refinement's scalar pair(t, q) against the batched grid path and the reference."""

    def test_pair_matches_the_batched_antipode_sum(self, cycles):
        rng = np.random.default_rng(11)
        for states in cycles.values():
            for name in ("rho1", "rho3", "rho4"):
                evaluator = _BlockEvaluator(*cycle_state(states, name))
                for t, q in rng.uniform(-math.pi, 2.0 * math.pi, size=(10, 2)):
                    batched = evaluator(np.array([t, math.pi - t]), np.array([q, math.pi - q])).sum()
                    assert abs(evaluator.pair(t, q) - batched) < 1e-14, (name, t, q)

    @pytest.mark.parametrize("k", range(1, 14))
    def test_pair_matches_the_reference_at_every_rank(self, k):
        # k populations on the eigenvectors of a random real 2 x 7 state: the
        # Gram blocks are k x k, from a pure state (k = 1) to rank 13 of 14
        rng = np.random.default_rng(100 + k)
        decomposition, _ = spectral_form(OperatorMatrix(random_density(rng, 14), subsystem_dims=(2, 7)))
        populations = np.zeros(14)
        populations[rng.choice(14, size=k, replace=False)] = rng.dirichlet(np.ones(k))
        evaluator = _BlockEvaluator(decomposition, populations)
        assert evaluator.k == k
        rho = dense_state(decomposition, populations)
        for t, q in zip(rng.uniform(0.0, math.pi, 6), rng.uniform(0.0, 2.0 * math.pi, 6)):
            assert abs(evaluator.pair(t, q) - conditional_entropy(rho, t, q)) < 1e-12, (t, q)

    def test_the_grid_evaluates_each_pole_once(self, cycles):
        # theta_m = 0 is one point at every phi_m, exactly (w = 0): its row is
        # the per-phi evaluation bit for bit. theta_m = pi is one point too, but
        # cos(pi/2) = 6e-17 leaves phi_m in its weights, so per-phi values there
        # differ by round-off and the row holds the phi_m = 0 one. The rows in
        # between are the batched evaluation of the same angles
        for states in cycles.values():
            for name in ("rho1", "rho3", "rho4"):
                evaluator = _BlockEvaluator(*cycle_state(states, name))
                thetas, phis, f = _half_grid(evaluator, *DEFAULT_GRID)
                assert f.shape == (DEFAULT_GRID[0], DEFAULT_GRID[1] // 2 + 1)
                assert f[0].tobytes() == evaluator(np.zeros_like(phis), phis).tobytes(), name
                south = evaluator(np.array([math.pi]), np.zeros(1))[0]
                assert f[-1].tobytes() == np.full_like(phis, south).tobytes(), name
                tt, pp = np.meshgrid(thetas[1:-1], phis, indexing="ij")
                interior = evaluator(tt.ravel(), pp.ravel()).reshape(tt.shape)
                assert f[1:-1].tobytes() == interior.tobytes(), name

    def test_an_outcome_at_the_probability_floor_contributes_exactly_zero(self, rng):
        # qubit up (x) a mixed oscillator state: the "+" outcome along -z has
        # p = cos^2(pi/2) ~ 4e-33, and -sum lam ln(lam/p) would not be 0
        rho_b = random_density(rng, 4)
        rho = OperatorMatrix(np.kron(np.diag([1.0, 0.0]), rho_b), subsystem_dims=(2, 4))
        evaluator = _BlockEvaluator(*spectral_form(rho))
        assert evaluator(np.array([math.pi]), np.array([0.3]))[0] == 0.0
        s_b = von_neumann_entropy(rho_b)
        below, above = evaluator._terms(np.array([[0.9 * OUTCOME_FLOOR, 0, 0, 0], [2 * OUTCOME_FLOOR, 0, 0, 0]]))
        assert below == 0.0
        assert above == pytest.approx(2 * OUTCOME_FLOOR * s_b, rel=1e-6)


def bumpy(x):
    """Smooth, periodic and with many local minima, like the discord objective."""
    return math.sin(3.0 * x[0]) * math.cos(2.0 * x[1]) + 0.3 * math.cos(5.0 * x[0] + x[1])


class TestNelderMead:
    def test_converges_on_a_quadratic_bowl(self):
        x, f = nelder_mead(lambda x: (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.7) ** 2, (1.0, 1.0), (0.1, 0.2))
        assert f < 1e-12
        np.testing.assert_allclose(x, [0.3, -0.7], atol=1e-5)

    def test_never_returns_above_its_start(self, rng):
        for x0 in rng.uniform(-math.pi, math.pi, size=(20, 2)):
            x, f = nelder_mead(bumpy, x0, (0.05, 0.1))
            assert f <= bumpy(x0)
            assert f == bumpy(x)

    def test_identical_calls_return_identical_bits(self):
        x_a, f_a = nelder_mead(bumpy, (0.4, 1.1), (math.pi / 7, math.pi / 8))
        x_b, f_b = nelder_mead(bumpy, (0.4, 1.1), (math.pi / 7, math.pi / 8))
        assert x_a.tobytes() == x_b.tobytes()
        assert np.float64(f_a).tobytes() == np.float64(f_b).tobytes()

    def test_trajectory_is_pinned(self):
        # every point nelder_mead evaluates on bumpy from (0.4, 1.1), recorded
        # from the implementation that kept its simplex in numpy 2-vectors:
        # 106 points, their float64 bytes hashed, and the exact best point
        points = []

        def recorded(x):
            points.append((float(x[0]), float(x[1])))
            return bumpy(x)

        x, f = nelder_mead(recorded, (0.4, 1.1), (math.pi / 7, math.pi / 8))
        assert len(points) == 106
        digest = hashlib.sha256(np.array(points).tobytes()).hexdigest()
        assert digest == "9a81240ccda8b8fcfa05270bf5d2dc42775549fc923579465760f6ce039a791e"
        assert isinstance(x, np.ndarray) and x.dtype == float and x.shape == (2,)
        assert (x[0].hex(), x[1].hex(), f.hex()) == (
            "0x1.bc67173cb116ep-2", "0x1.879187800d2bap+0", "-0x1.371ed658cf34ap+0"
        )

    def test_iteration_cap_ends_an_unbounded_search(self):
        calls = []

        def downhill(x):
            calls.append(x)
            return -x[0]

        x, f = nelder_mead(downhill, (0.0, 0.0), (1.0, 1.0))
        # it runs to the cap: at most a reflection, a contraction and two
        # shrink points per iteration
        assert REFINE_MAX_ITER < len(calls) <= 3 + 4 * REFINE_MAX_ITER
        assert f == -x[0] < 0.0


class TestReducedQubitState:
    """The evaluator's rho_A = [[tr b00, tr b01], [tr b10, tr b11]] is the partial trace."""

    def test_maximally_mixed(self):
        rho = OperatorMatrix(np.eye(4) / 4.0, subsystem_dims=(2, 2))
        np.testing.assert_allclose(_BlockEvaluator(*spectral_form(rho)).rho_a, np.eye(2) / 2.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_product_state_recovery(self, seed):
        rng = np.random.default_rng(seed)
        rho, rho_a, _ = product_thermalish(rng, dim_b=4)
        np.testing.assert_allclose(_BlockEvaluator(*spectral_form(rho)).rho_a, rho_a, atol=1e-10)

    def test_trace_preserved(self, rng):
        rho = OperatorMatrix(random_density(rng, 12), subsystem_dims=(2, 6))
        reduced = _BlockEvaluator(*spectral_form(rho)).rho_a
        np.testing.assert_allclose(reduced, reduced_qubit(rho), atol=1e-12)
        assert abs(np.trace(reduced) - 1.0) < 1e-12

    def test_thermal_rabi_reduced_qubit_trace(self, cycles):
        # a physical state at g/omega = 1, with and without parity, against
        # the partial trace of the dense state
        for states in cycles.values():
            decomposition, populations = cycle_state(states, "rho1")
            reduced = _BlockEvaluator(decomposition, populations).rho_a
            np.testing.assert_allclose(reduced, reduced_qubit(dense_state(decomposition, populations)), atol=1e-13)
            assert abs(np.trace(reduced) - 1.0) < 1e-12


class TestQuantumDiscord:
    def test_product_state_has_zero_discord(self, rng):
        _, rho_a, rho_b = product_thermalish(rng)
        rho = OperatorMatrix(np.kron(rho_a.real, rho_b.real), subsystem_dims=(2, 5))
        result = quantum_discord(*spectral_form(rho), grid=(24, 48))
        assert result.discord < 1e-9

    def test_product_state_reports_the_z_axis(self, rng):
        # the conditional entropy is flat in the angle; round-off must not pick the axis
        _, rho_a, rho_b = product_thermalish(rng)
        rho = OperatorMatrix(np.kron(rho_a.real, rho_b.real), subsystem_dims=(2, 5))
        basis = quantum_discord(*spectral_form(rho), grid=(24, 48)).optimal_basis
        assert (basis.theta_m, basis.phi_m) == (0.0, 0.0)

    def test_rejects_populations_without_unit_sum(self, small_cycle):
        _, states, _ = small_cycle
        for scale in (1.0 + 1e-9, 1.0 - 1e-9, 0.5):
            with pytest.raises(ValueError, match="unit trace"):
                quantum_discord(states.hot, scale * states.populations_hot, grid=(8, 16))

    def test_rejects_a_negative_population(self, small_cycle):
        _, states, _ = small_cycle
        populations = np.array(states.populations_hot)
        populations[-2:] += (1e-9, -1e-9)  # still sums to 1
        with pytest.raises(ValueError, match="negative eigenvalue"):
            quantum_discord(states.hot, populations, grid=(8, 16))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_population(self, bad):
        # a NaN population failed neither the unit-sum nor the sign check and
        # was dropped from the support: D came out as without it
        states, _ = run_cycle(resonator_frequency_protocol(g=1.0), cutoff=16)
        populations = np.array(states.populations_hot)
        populations[20] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quantum_discord(states.hot, populations)

    def test_rejects_populations_of_the_wrong_length(self, small_cycle):
        _, states, _ = small_cycle
        with pytest.raises(ValueError, match="populations"):
            quantum_discord(states.hot, states.populations_hot[:-1], grid=(8, 16))

    def test_bell_state_ln2(self):
        result = quantum_discord(*spectral_form(bell_state()), grid=(24, 48))
        assert abs(result.discord - math.log(2.0)) < 1e-6
        assert abs(result.entropy_ab) < 1e-12
        assert abs(result.entropy_a - math.log(2.0)) < 1e-12
        assert result.conditional_entropy_min < 1e-9

    @pytest.mark.parametrize(
        "c, expected, angles",
        [
            (BELL_DIAGONAL["x"], 0.0204628669676, (math.pi / 2, 0.0)),
            (BELL_DIAGONAL["y"], 0.0458089536755, (math.pi / 2, math.pi / 2)),
            (BELL_DIAGONAL["z"], 0.0201355135507, (0.0, 0.0)),
        ],
        ids=["x", "y", "z"],
    )
    def test_bell_diagonal_states_match_the_closed_form(self, c, expected, angles):
        # Luo, PRA 77, 042303 (2008): D = ln 2 - S(rho_AB) + H((1 + c)/2) with c = max |c_i|,
        # measured along the axis of the largest |c_i|; a y optimum shows a real state's
        # optimum need not lie in the x-z plane
        c1, c2, c3 = c
        lam = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4
        p = (1 + max(map(abs, c))) / 2
        closed = math.log(2) + float(np.sum(lam * np.log(lam))) - p * math.log(p) - (1 - p) * math.log(1 - p)
        assert abs(closed - expected) < 1e-12
        result = quantum_discord(*spectral_form(bell_diagonal(c)))
        assert abs(result.discord - closed) < 1e-12
        basis = result.optimal_basis
        assert abs(basis.theta_m - angles[0]) < 1e-6 and abs(basis.phi_m - angles[1]) < 1e-6

    def test_decomposition_identity(self, small_cycle):
        _, states, _ = small_cycle
        result = quantum_discord(states.hot, states.populations_hot, grid=(20, 40))
        recomposed = result.entropy_a - result.entropy_ab + result.conditional_entropy_min
        assert abs(result.discord - recomposed) < 1e-12 or result.discord == 0.0
        assert result.discord >= 0.0

    def test_refinement_never_worse_than_grid(self, small_cycle):
        _, states, _ = small_cycle
        refined = quantum_discord(states.hot, states.populations_hot, grid=(12, 24))
        grid_best = float(half_grid_values(states.hot, states.populations_hot, (12, 24)).min())
        assert refined.conditional_entropy_min <= grid_best + 1e-15

    def test_refinement_against_brute_force_grid(self, small_cycle):
        # optimizer must never land above the best point of a denser grid
        _, states, _ = small_cycle
        result = quantum_discord(states.hot, states.populations_hot, grid=(32, 64))
        evaluator = _BlockEvaluator(states.hot, states.populations_hot)
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
        result = quantum_discord(states.hot, states.populations_hot, grid=(16, 32))
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
        assert quantum_discord(states.hot, states.populations_hot, grid=(24, 48)).discord > 1e-3

    def test_phi_mirror_symmetry_for_real_states(self, small_cycle):
        # the half grid for real states relies on f(t, phi) = f(t, 2pi - phi)
        _, states, _ = small_cycle
        evaluator = _BlockEvaluator(states.hot, states.populations_hot)
        for t in (0.4, 1.1, 2.0):
            for p in (0.3, 1.9, 3.0):
                a = float(evaluator(np.array([t]), np.array([p]))[0])
                b = float(evaluator(np.array([t]), np.array([2 * math.pi - p]))[0])
                assert abs(a - b) < 1e-12

    def test_even_and_odd_phi_grids_agree(self, small_cycle):
        # two even grids agree; an odd or empty n_phi, or fewer than two theta
        # rows, has no antipodes
        _, states, _ = small_cycle
        a = quantum_discord(states.hot, states.populations_hot, grid=(16, 32))
        b = quantum_discord(states.hot, states.populations_hot, grid=(15, 30))
        assert abs(a.discord - b.discord) < 1e-7
        for grid in ((16, 31), (16, 0), (1, 32), (0, 32), (-3, 32)):
            with pytest.raises(ValueError, match="even n_phi"):
                quantum_discord(states.hot, states.populations_hot, grid=grid)

    def test_rejects_unstructured(self, small_cycle):
        _, states, _ = small_cycle
        h = states.hot
        unstructured = SpectralDecomposition(h.energies, h.states, None, h.residual_norm, h.orthonormality_error)
        with pytest.raises(ValueError, match="structure"):
            quantum_discord(unstructured, states.populations_hot)


class TestDefaultGrid:
    """DEFAULT_GRID finds what a 64 x 128 grid finds, on test states and preset cycle states."""

    FINE = (64, 128)

    @staticmethod
    def preset_states(name, series_value, couplings):
        config = figure_preset(name)
        cutoff = _series_cutoffs(config)[series_value]
        for g in couplings:
            states, _ = run_cycle(build_protocol(config, series_value, g), cutoff=cutoff)
            for state in ("rho1", "rho3", "rho4"):
                label = f"{name} {config.series.parameter} = {series_value:.4g}, g = {g}, {state}"
                yield label, cycle_state(states, state)

    @staticmethod
    def low_rank_state(seed):
        """A random real state of rank 1-3 on qubit x 2-8 levels."""
        rng = np.random.default_rng(seed)
        n, rank = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        x = rng.normal(size=(2 * n, rank)) * rng.uniform(0.05, 1.0, size=rank)
        rho = x @ x.T
        return OperatorMatrix(rho / np.trace(rho), subsystem_dims=(2, n))

    def test_default_grid_matches_the_fine_grid(self, rng):
        # D at most 2e-12 above the fine grid's (solver rewrites have moved D
        # cells by up to 1.7e-12), and the flat-landscape rule fires on the
        # same states; the g = 0 cycle states and the Bell pair are flat. The
        # fig4 g = 0.75 rho4 state fails at (4, 8), the fig8 g = 0.05 rho4
        # state at (6, 12), and the rank-3 state has a narrow global basin
        # that (8, 16) misses by 3e-3
        cases = [("Bell pair", spectral_form(bell_state()))]
        cases += [(f"Bell-diagonal {axis}", spectral_form(bell_diagonal(c))) for axis, c in BELL_DIAGONAL.items()]
        cases += [
            (f"random dim {dim}", spectral_form(OperatorMatrix(random_density(rng, dim), subsystem_dims=(2, dim // 2))))
            for dim in (8, 12)
        ]
        cases.append(("random rank 3", spectral_form(self.low_rank_state(2048))))
        cases += list(self.preset_states("fig4", 3 * math.pi / 8, (0.0, 0.75, 3.5)))
        cases += list(self.preset_states("fig8", 1.5, (0.05,)))
        flat_states = []
        for name, (decomposition, populations) in cases:
            coarse = quantum_discord(decomposition, populations)
            fine = quantum_discord(decomposition, populations, grid=self.FINE)
            assert coarse.discord <= fine.discord + 2e-12, name
            flat = [
                float(np.ptp(half_grid_values(decomposition, populations, grid))) <= FLAT_TOL
                for grid in (DEFAULT_GRID, self.FINE)
            ]
            assert flat[0] == flat[1], name
            if flat[0]:
                flat_states.append(name)
        assert len(flat_states) == 4, flat_states


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
        n = np.array(_bloch(t, p))
        m = np.array(_bloch(theta, phi))
        assert min(np.abs(n - m).max(), np.abs(n + m).max()) < 1e-12

    def test_no_jump_across_phi_zero(self):
        below = _canonical_angles(0.7305, 2 * math.pi - 1e-8)
        above = _canonical_angles(0.7305, 1e-8)
        assert below == pytest.approx(above, abs=3e-8)

    def test_discord_reports_the_positive_x_representative(self, small_cycle):
        # theta = 0: the optimal axis lies in the x-z plane, phi in {0, pi}
        _, states, _ = small_cycle
        basis = quantum_discord(states.hot, states.populations_hot, grid=(16, 32)).optimal_basis
        assert -math.pi < basis.phi_m <= math.pi
        assert _bloch(basis.theta_m, basis.phi_m)[0] > -AXIS_TOL


class TestDiscordDifferences:
    def test_identical_hamiltonians_leave_adiabats_trivial(self):
        # R = 1: both adiabats are no-ops, so the hot and cold eigenvectors
        # agree, rho2 = rho1 and rho4 = rho3 exactly and the compression-stage
        # difference vanishes. The hot-stage difference D(rho4) - D(rho1)
        # stays nonzero: it compares thermal states at the two reservoir
        # temperatures.
        protocol = resonator_frequency_protocol(g=0.7, ratio=1.0)
        states, _ = run_cycle(protocol, cutoff=20)
        assert np.max(np.abs(states.hot.states - states.cold.states)) < 1e-13
        diffs = discord_differences(states)
        assert abs(diffs.d34) < 2e-9
        assert abs(diffs.d41 - diffs.d31) < 2e-9

    def test_proportional_hamiltonians_leave_compression_invariant(self):
        # alpha = 1: H_h = R H_c share eigenvectors, so rho3 = rho4 exactly
        protocol = coupled_coupling_protocol(g_c=0.9, alpha=1.0)
        states, _ = run_cycle(protocol, cutoff=32)
        assert np.max(np.abs(states.hot.states - states.cold.states)) < 1e-12
        diffs = discord_differences(states)
        assert abs(diffs.d34) < 2e-9

    def test_hot_stage_reduction_positive_in_engine_regime(self, small_cycle):
        _, states, _ = small_cycle
        diffs = discord_differences(states)
        # g/omega_c = 1 is inside the engine window: correlations drop across
        # the hot bath stage (D(rho4) > D(rho1))
        assert diffs.d41 > 0.0
