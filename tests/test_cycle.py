import math

import numpy as np
import pytest

from rabiotto import (
    RabiParams,
    ReservoirSpec,
    classify_regime,
    coupled_coupling_protocol,
    positive_work_bound,
    qubit_frequency_protocol,
    resonator_frequency_protocol,
    run_cycle,
    run_cycles,
    thermal_energy,
    thermal_populations,
)
from rabiotto.cycle import CARRY_TOL, CycleProtocol, CycleReport, CycleStates, _report_from_spectra, carry_populations
from rabiotto.spectral import SpectralDecomposition, converged_cutoff

from conftest import default_reservoirs, dense_state


def all_states(states):
    """The dense rho1, rho2, rho3 and rho4 of a cycle; rho2 and rho4 carry their populations."""
    return (
        dense_state(states.hot, states.populations_hot),
        dense_state(states.cold, carry_populations(states.populations_hot, states.cold.dim)),
        dense_state(states.cold, states.populations_cold),
        dense_state(states.hot, carry_populations(states.populations_cold, states.hot.dim)),
    )


class TestThermalPopulations:
    def test_two_level_ln2_gap(self):
        # gap = kT ln 2 makes the Boltzmann factor exactly 1/2
        kt = 0.7
        p = thermal_populations(np.array([0.0, kt * math.log(2.0)]), kt)
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_cold_limit(self):
        p = thermal_populations(np.array([0.0, 700.0]), 1.0)
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_uniform_for_degenerate(self):
        p = thermal_populations(np.zeros(5), 3.0)
        np.testing.assert_allclose(p, 0.2)

    def test_rejects_nonpositive_temperature(self):
        # and a non-finite one: kt = nan gave all-nan populations, kt = inf uniform ones
        for kt in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                thermal_populations(np.array([0.0, 1.0]), kt)

    def test_no_overflow_when_ground_is_large(self):
        p = thermal_populations(np.array([1e6, 1e6 + 1.0]), 0.01)
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


class TestReservoirSpec:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ReservoirSpec(0.1, 0.05)
        with pytest.raises(ValueError):
            ReservoirSpec(0.0, 0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_cold=0.019, t_hot=math.inf),
            dict(t_cold=math.nan, t_hot=0.171),
            dict(t_cold=0.019, t_hot=math.nan),
            dict(t_cold=0.019, t_hot=0.171, omega_ref=math.inf),
            dict(t_cold=0.019, t_hot=0.171, omega_ref=math.nan),
        ],
    )
    def test_non_finite_values_rejected(self, kwargs):
        # an infinite T_h made uniform hot populations, whose work the cutoff set
        with pytest.raises(ValueError, match="finite|inf"):
            ReservoirSpec(**kwargs)

    def test_energy_scale(self):
        r = ReservoirSpec(0.019, 0.171)
        # k_B * 19 mK at omega_ref = 2*pi*10 GHz is about 0.0396 quanta
        assert abs(r.kt_cold - 0.0395896) < 1e-6
        assert abs(r.kt_hot / r.kt_cold - 9.0) < 1e-12
        assert abs(r.kt_cold - 0.019 * thermal_energy(1.0)) < 1e-15


class TestProtocolValidation:
    def test_shared_theta(self):
        with pytest.raises(ValueError, match="theta must be shared"):
            CycleProtocol(
                RabiParams.resonant(1.0, g=1.0),
                RabiParams.resonant(2.0, g=1.0, theta=0.3),
                default_reservoirs(),
            )

    def test_resonant_protocols_ramp_up(self):
        with pytest.raises(ValueError, match="requires omega_h >= omega_c"):
            resonator_frequency_protocol(g=1.0, ratio=0.5)
        with pytest.raises(ValueError, match="requires omega_h >= omega_c"):
            coupled_coupling_protocol(g_c=1.0, ratio=0.5)

    def test_qubit_variant_ordering(self):
        with pytest.raises(ValueError, match="omega_qh >= omega_qc"):
            qubit_frequency_protocol(g=0.5, omega_qc=1.0, omega_qh=0.5)

    def test_constructors_satisfy_invariants(self):
        resonator_frequency_protocol(g=1.0)
        coupled_coupling_protocol(g_c=1.0, alpha=0.8)
        qubit_frequency_protocol(g=1.0)


class TestRunCycle:
    def test_identical_hamiltonians_idle(self):
        # R = 1: E_n^h = E_n^c, so W = 0 exactly; heat is pure conduction
        # (Q_h = -Q_c != 0 because the reservoir temperatures still differ)
        protocol = resonator_frequency_protocol(g=0.8, ratio=1.0)
        _, report = run_cycle(protocol, cutoff=24)
        assert report.work == 0.0
        assert report.q_hot == -report.q_cold
        assert report.q_hot > 0.0
        assert report.regime == "idle"

    def test_first_law_and_per_level_sum(self, small_cycle):
        _, _, report = small_cycle
        assert abs(report.work - (report.q_hot + report.q_cold)) < 1e-10
        assert abs(report.work - report.work_per_level.sum()) < 1e-10

    def test_engine_regime_properties(self, small_cycle):
        _, _, report = small_cycle
        assert report.regime == "engine"
        assert report.q_hot > 0.0
        assert report.eta <= 1.0

    def test_adiabatic_invariance(self, small_cycle):
        _, states, _ = small_cycle
        # rho2 = sum_n P_n(T_h) |E_n^c><E_n^c|: projecting onto the cold basis
        # must recover the hot population vector (and likewise rho4/rho3)
        rho1, rho2, _, rho4 = all_states(states)
        vc, vh = states.cold.states, states.hot.states
        p2 = np.einsum("in,ij,jn->n", vc.conj(), rho2.matrix, vc).real
        p4 = np.einsum("in,ij,jn->n", vh.conj(), rho4.matrix, vh).real
        np.testing.assert_allclose(p2, states.populations_hot, atol=1e-13)
        np.testing.assert_allclose(p4, states.populations_cold, atol=1e-13)
        d1 = np.linalg.eigvalsh(rho1.matrix)
        d2 = np.linalg.eigvalsh(rho2.matrix)
        np.testing.assert_allclose(np.sort(d1), np.sort(d2), atol=1e-12)

    def test_states_are_density_matrices(self, small_cycle):
        _, states, _ = small_cycle
        for rho in all_states(states):
            assert rho.is_hermitian()
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_thermal_states_commute_with_hamiltonian(self, small_cycle):
        protocol, states, _ = small_cycle
        from rabiotto import build_hamiltonian

        h_h = build_hamiltonian(protocol.hot, 32).matrix
        rho1 = all_states(states)[0].matrix
        assert np.max(np.abs(h_h @ rho1 - rho1 @ h_h)) < 1e-10

    def test_auto_cutoff_path(self):
        protocol = resonator_frequency_protocol(g=0.5, n_levels=6)
        states, report = run_cycle(protocol)
        assert states.hot.cutoff_used >= 6
        assert abs(report.work - (report.q_hot + report.q_cold)) < 1e-12

    def test_auto_cutoff_is_each_sides_own(self):
        # at g = 3.5 the hot side, at half the cold side's g/omega, certifies below it
        protocol = resonator_frequency_protocol(g=3.5)
        states, report = run_cycle(protocol)
        assert states.hot.cutoff_used == converged_cutoff(protocol.hot, protocol.n_levels) == 48
        assert states.cold.cutoff_used == converged_cutoff(protocol.cold, protocol.n_levels) == 72
        assert len(states.populations_hot) == 96 and len(states.populations_cold) == 144
        assert report.regime == "engine" and not report.warnings

    def test_one_cutoff_or_a_cold_hot_pair(self):
        protocol = resonator_frequency_protocol(g=1.0)
        shared, shared_report = run_cycle(protocol, cutoff=np.int64(32))
        split, split_report = run_cycle(protocol, cutoff=(32, 24))
        assert (shared.cold.cutoff_used, shared.hot.cutoff_used) == (32, 32)
        assert (split.cold.cutoff_used, split.hot.cutoff_used) == (32, 24)
        assert abs(split_report.work - shared_report.work) < 1e-13
        # rho2 and rho4 carry their populations onto the other side's basis
        for rho in all_states(split):
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12
        with pytest.raises(ValueError, match="n_max must be an integer >= 2"):
            run_cycle(protocol, cutoff=(32, 8.5))

    def test_proportional_hamiltonian_efficiency(self):
        # alpha = 1 makes H_h = R H_c exactly, so eta = 1 - 1/R at any g
        for g in (0.3, 1.0, 1.7):
            protocol = coupled_coupling_protocol(g_c=g, alpha=1.0, ratio=2.0)
            _, report = run_cycle(protocol, cutoff=48)
            assert abs(report.eta - 0.5) < 1e-10

    def test_tail_warning_fires_when_levels_truncated(self):
        # keep only 2 levels at a hot temperature that populates many more
        protocol = resonator_frequency_protocol(
            g=0.2, n_levels=2, reservoirs=ReservoirSpec(0.019, 40 * 0.019)
        )
        _, report = run_cycle(protocol, cutoff=24)
        assert report.tail_mass_hot > 1e-8
        assert any("tail population" in w for w in report.warnings)


class TestRunCycles:
    @pytest.mark.parametrize("cutoff", [24, (32, 24)])
    def test_each_cycle_is_run_cycle_bit_for_bit(self, cutoff):
        # theta = 0 sides in parity sectors, theta != 0 sides whole, g = 0 at
        # theta != 0 in sectors again, all in one call
        protocols = [
            resonator_frequency_protocol(g=g, theta=theta) for theta in (0.0, 0.4) for g in (0.0, 0.9, 2.5)
        ]
        for protocol, (states, report) in zip(protocols, run_cycles(protocols, cutoff)):
            alone_states, alone_report = run_cycle(protocol, cutoff=cutoff)
            for side in ("hot", "cold"):
                ours, theirs = getattr(states, side), getattr(alone_states, side)
                assert ours.cutoff_used == theirs.cutoff_used
                assert ours.energies.tobytes() == theirs.energies.tobytes()
                assert ours.states.tobytes() == theirs.states.tobytes()
            assert states.populations_hot.tobytes() == alone_states.populations_hot.tobytes()
            assert states.populations_cold.tobytes() == alone_states.populations_cold.tobytes()
            assert (report.work, report.q_hot, report.q_cold, report.regime, report.warnings) == (
                alone_report.work, alone_report.q_hot, alone_report.q_cold, alone_report.regime,
                alone_report.warnings,
            )
            assert report.work_per_level.tobytes() == alone_report.work_per_level.tobytes()


class TestCarryPopulations:
    def test_truncates_and_pads_with_zeros(self):
        p = np.array([0.5, 0.25, 0.25, 0.0, 0.0])
        np.testing.assert_array_equal(carry_populations(p, 3), [0.5, 0.25, 0.25])
        np.testing.assert_array_equal(carry_populations(p, 7), [0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(carry_populations(p, 5), p)

    def test_raises_above_its_bound(self):
        carry_populations(np.array([1.0 - CARRY_TOL, CARRY_TOL]), 1)  # at the bound: carried
        with pytest.raises(ValueError, match=r"drops mass 2\.000e-12 above 1e-12"):
            carry_populations(np.array([1.0 - 2e-12, 0.0, 2e-12]), 2)
        with pytest.raises(ValueError, match="drops mass nan"):
            carry_populations(np.array([1.0, math.nan]), 1)


class TestWorkPerLevel:
    def test_ground_level_is_exactly_zero(self, small_cycle):
        _, _, report = small_cycle
        assert report.work_per_level[0] == 0.0

    def test_identical_spectra_zero(self):
        protocol = resonator_frequency_protocol(g=0.8, ratio=1.0)
        _, report = run_cycle(protocol, cutoff=24)
        assert np.all(report.work_per_level == 0.0)

    def test_refrigeration_window_is_first_level(self):
        # theta = 0, R = 2, T_h = 9 T_c, g/omega_c = 2: W_1 < 0, W_2 and W_3 >= 0
        protocol = resonator_frequency_protocol(g=2.0)
        _, report = run_cycle(protocol, cutoff=64)
        wn = report.work_per_level
        assert wn[1] < 0.0
        assert wn[2] >= 0.0
        assert wn[3] >= 0.0


class TestRecordsCopyTheirInputs:
    def test_caller_arrays_stay_writeable_and_apart(self):
        energies, states = np.array([0.0, 1.0]), np.eye(2)
        p_hot, p_cold, work = np.array([0.6, 0.4]), np.array([0.9, 0.1]), np.array([0.1, -0.2])
        spectrum = SpectralDecomposition(
            energies=energies, states=states, cutoff_used=None, residual_norm=0.0, orthonormality_error=0.0
        )
        cycle = CycleStates(hot=spectrum, cold=spectrum, populations_hot=p_hot, populations_cold=p_cold)
        report = CycleReport(
            q_hot=1.0, q_cold=-0.9, work=0.1, work_per_level=work, eta=0.1, regime="engine", tail_mass_hot=0.0
        )
        held = [spectrum.energies, spectrum.states, cycle.populations_hot, cycle.populations_cold,
                report.work_per_level]
        for mine, theirs in zip([energies, states, p_hot, p_cold, work], held):
            assert mine.flags.writeable
            assert not theirs.flags.writeable
            before = theirs.copy()
            mine += 1.0
            np.testing.assert_array_equal(theirs, before)


class TestClassifyRegime:
    @pytest.mark.parametrize("w, regime", [(0.1, "engine"), (-0.1, "refrigerator"), (0.0, "idle")])
    def test_classification(self, w, regime):
        assert classify_regime(w) == regime


class TestShiftInvariance:
    def test_random_spectra_invariant_under_shifts(self, rng):
        # constant shifts of either spectrum change nothing (ground-referenced sums)
        for _ in range(200):
            n = rng.integers(3, 20)
            eh = np.sort(rng.uniform(0.0, 10.0, n))
            ec = np.sort(rng.uniform(0.0, 10.0, n))
            kt_h, kt_c = rng.uniform(0.05, 5.0, 2)
            ph = thermal_populations(eh, kt_h)
            pc = thermal_populations(ec, kt_c)
            base = _report_from_spectra(eh, ec, ph, pc, n)
            ch, cc = rng.uniform(-50.0, 50.0, 2)
            shifted = _report_from_spectra(eh + ch, ec + cc, ph, pc, n)
            assert abs(base.work - shifted.work) < 1e-10
            assert abs(base.q_hot - shifted.q_hot) < 1e-10
            assert abs(base.q_cold - shifted.q_cold) < 1e-10

    def test_engine_to_refrigerator_near_analytic_bound(self):
        # theta = 0 W_1 sign flip lies within 0.3 of the Appendix bound
        bound = positive_work_bound(2.0, 9.0)
        reservoirs = default_reservoirs()
        signs = {}
        for g in (bound - 0.3, bound + 0.3):
            protocol = resonator_frequency_protocol(g=g, reservoirs=reservoirs)
            _, report = run_cycle(protocol, cutoff=48)
            signs[g] = report.work_per_level[1]
        assert signs[bound - 0.3] > 0.0 > signs[bound + 0.3]
