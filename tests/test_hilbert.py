import numpy as np
import pytest

from rabiotto import CycleReport, CycleStates, OperatorMatrix, SpectralDecomposition, solve_hamiltonian
from rabiotto import von_neumann_entropy
from rabiotto.hamiltonian import RabiParams, build_hamiltonian, parity_sectors
from rabiotto.hilbert import check_cutoff
from rabiotto.cycle import resonator_frequency_protocol, run_cycle
from rabiotto.sweep import build_protocol, figure_preset


class TestCutoffCheck:
    def test_rejects_small(self):
        with pytest.raises(ValueError):
            check_cutoff(1)
        with pytest.raises(ValueError):
            check_cutoff(0)

    def test_accepts(self):
        assert check_cutoff(2) == 2
        assert type(check_cutoff(np.int64(3))) is int

    @pytest.mark.parametrize("n_max", [8.7, 16.9, float("inf"), float("nan")])
    def test_non_integer_cutoff_raises_rather_than_truncating(self, n_max):
        builders = [
            lambda n: build_hamiltonian(RabiParams.resonant(1.0, g=0.5), n),
            lambda n: parity_sectors(RabiParams.resonant(1.0, g=0.5), n),
            lambda n: solve_hamiltonian(RabiParams.resonant(1.0, g=0.5, theta=0.3), n),
            lambda n: run_cycle(resonator_frequency_protocol(g=0.5), cutoff=n),
        ]
        for build in builders:
            with pytest.raises(ValueError, match="n_max must be an integer >= 2"):
                build(n_max)


class TestOperatorMatrix:
    def test_immutable(self):
        op = OperatorMatrix(np.eye(3))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_hermitian_check(self, rng):
        m = rng.normal(size=(4, 4))
        assert OperatorMatrix(m + m.T).is_hermitian()
        skewed = m + m.T
        skewed[0, 1] += 1e-6
        assert not OperatorMatrix(skewed).is_hermitian()

    @pytest.mark.parametrize("skew, accepted", [(5e-11, True), (1e-6, False)])
    def test_hermitian_rule_is_relative(self, skew, accepted):
        # fig2's cold Hamiltonian at g = 1 and cutoff 96, a stress size above
        # what its sweeps certify, has max|H| = 95.5, so the relative rule
        # accepts a skew below 9.55e-11
        cold = build_protocol(figure_preset("fig2"), None, 1.0).cold
        h = build_hamiltonian(cold, 96).matrix.copy()
        h[3, 100] += skew
        assert OperatorMatrix(h, subsystem_dims=(2, 96)).is_hermitian() is accepted

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.eye(5), subsystem_dims=(2, 3))


def _spectral(states):
    return SpectralDecomposition(np.zeros(2), states, None, 0.0, 0.0)


def _cycle_states(populations):
    d = _spectral(np.eye(2))
    return CycleStates(d, d, populations, populations)


def _report(work_per_level):
    return CycleReport(0.0, 0.0, 0.0, work_per_level, 0.0, "engine", 0.0)


class TestRealArrayRule:
    """Every operator and state is float64: the rule reads the dtype, not the values."""

    @pytest.mark.parametrize(
        "build",
        [OperatorMatrix, _spectral, lambda m: von_neumann_entropy(m / 2.0),
         lambda m: _cycle_states(np.diag(m) / 2.0), lambda m: _report(np.diag(m))],
        ids=["OperatorMatrix", "SpectralDecomposition", "von_neumann_entropy",
             "CycleStates", "CycleReport"],
    )
    @pytest.mark.parametrize("imag", [0.0, 1e-3])
    def test_complex_input_raises(self, build, imag):
        m = np.eye(2) + imag * np.array([[0.0, 1.0j], [-1.0j, 0.0]])
        build(m.real)
        with pytest.raises(ValueError, match="expected a real array, got dtype complex128"):
            build(m)
