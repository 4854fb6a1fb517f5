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
    thermal_populations,
)
from rabiotto.cycle import CycleProtocol, _report_from_spectra

from conftest import default_reservoirs


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
        with pytest.raises(ValueError):
            thermal_populations(np.array([0.0, 1.0]), 0.0)

    def test_no_overflow_when_ground_is_large(self):
        p = thermal_populations(np.array([1e6, 1e6 + 1.0]), 0.01)
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


class TestReservoirSpec:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ReservoirSpec(0.1, 0.05)
        with pytest.raises(ValueError):
            ReservoirSpec(0.0, 0.05)

    def test_energy_scale(self):
        r = ReservoirSpec(0.019, 0.171)
        # k_B * 19 mK at omega_ref = 2*pi*10 GHz is about 0.0396 quanta
        assert abs(r.kt_cold - 0.0395896) < 1e-6
        assert abs(r.kt_hot / r.kt_cold - 9.0) < 1e-12
        assert abs(r.kt_cold - 0.019 * r.energy_scale) < 1e-15


class TestProtocolValidation:
    def test_resonator_requires_shared_g(self):
        with pytest.raises(ValueError, match="keeps g constant"):
            CycleProtocol(
                variant="resonator-frequency",
                cold=RabiParams.resonant(1.0, g=1.0),
                hot=RabiParams.resonant(2.0, g=1.5),
                reservoirs=default_reservoirs(),
            )

    def test_coupled_requires_scaled_g(self):
        with pytest.raises(ValueError, match="g_h = alpha"):
            CycleProtocol(
                variant="coupled-coupling",
                cold=RabiParams.resonant(1.0, g=1.0),
                hot=RabiParams.resonant(2.0, g=1.0),
                reservoirs=default_reservoirs(),
                alpha=1.0,
            )

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
        vc, vh = states.cold.states, states.hot.states
        p2 = np.einsum("in,ij,jn->n", vc.conj(), states.rho2.matrix, vc).real
        p4 = np.einsum("in,ij,jn->n", vh.conj(), states.rho4.matrix, vh).real
        np.testing.assert_allclose(p2, states.populations_hot, atol=1e-13)
        np.testing.assert_allclose(p4, states.populations_cold, atol=1e-13)
        d1 = np.linalg.eigvalsh(states.rho1.matrix)
        d2 = np.linalg.eigvalsh(states.rho2.matrix)
        np.testing.assert_allclose(np.sort(d1), np.sort(d2), atol=1e-12)

    def test_states_are_density_matrices(self, small_cycle):
        _, states, _ = small_cycle
        for rho in (states.rho1, states.rho2, states.rho3, states.rho4):
            assert rho.is_density_matrix()

    def test_thermal_states_commute_with_hamiltonian(self, small_cycle):
        protocol, states, _ = small_cycle
        from rabiotto import build_hamiltonian

        h_h = build_hamiltonian(protocol.hot, 32).matrix
        assert np.max(np.abs(h_h @ states.rho1.matrix - states.rho1.matrix @ h_h)) < 1e-10

    def test_auto_cutoff_path(self):
        protocol = resonator_frequency_protocol(g=0.5, n_levels=6)
        states, report = run_cycle(protocol)
        assert states.hot.cutoff_used.n_max >= 6
        assert abs(report.work - (report.q_hot + report.q_cold)) < 1e-12

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


class TestClassifyRegime:
    @pytest.mark.parametrize("w, regime", [(0.1, "engine"), (-0.1, "refrigerator"), (0.0, "idle")])
    def test_classification(self, w, regime):
        assert classify_regime(w) == regime

    def test_accepts_report(self, small_cycle):
        _, _, report = small_cycle
        assert classify_regime(report) == report.regime


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
