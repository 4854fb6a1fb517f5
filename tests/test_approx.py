import math

import numpy as np
import pytest
from numpy.polynomial import laguerre as np_laguerre

from rabiotto import (
    RabiParams,
    approx_levels,
    approx_w1,
    laguerre,
    positive_work_bound,
    relative_spectrum,
    solve_hamiltonian,
)
from rabiotto.units import DEFAULT_OMEGA_REF, thermal_energy


class TestLaguerre:
    def test_order_zero(self):
        for x in (-3.0, 0.0, 17.5):
            assert laguerre(0, x) == 1.0

    def test_order_one(self):
        assert laguerre(1, 4.0) == -3.0  # L_1(x) = 1 - x

    def test_order_two(self):
        assert abs(laguerre(2, 2.0) - (-1.0)) < 1e-14  # 1 - 2x + x^2/2

    def test_against_explicit_polynomials(self):
        explicit = {
            0: lambda x: 1.0,
            1: lambda x: 1.0 - x,
            2: lambda x: 1.0 - 2.0 * x + x**2 / 2.0,
            3: lambda x: 1.0 - 3.0 * x + 1.5 * x**2 - x**3 / 6.0,
            4: lambda x: 1.0 - 4.0 * x + 3.0 * x**2 - 2.0 / 3.0 * x**3 + x**4 / 24.0,
        }
        for n, poly in explicit.items():
            for x in np.linspace(0.0, 20.0, 41):
                assert abs(laguerre(n, x) - poly(x)) < 1e-10 * max(1.0, abs(poly(x)))

    def test_against_numpy_polynomial_module(self):
        for n in range(8):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            for x in (0.3, 2.0, 9.0):
                assert abs(laguerre(n, x) - np_laguerre.lagval(x, coeffs)) < 1e-9

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            laguerre(-1, 1.0)

    def test_integer_valued_float_order(self):
        for n in range(5):
            assert laguerre(float(n), 0.5) == laguerre(n, 0.5)
        with pytest.raises(ValueError):
            laguerre(1.5, 0.5)

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_rejects_non_finite_order(self, n):
        # int(inf) would raise OverflowError, and int(nan) its own ValueError
        with pytest.raises(ValueError, match="order must be a nonnegative integer"):
            laguerre(n, 0.5)


class TestApproxLevels:
    def test_bare_qubit_at_zero_coupling(self):
        e_plus, e_minus = approx_levels(1.0, 0.8, 0.0, 0)
        np.testing.assert_allclose([e_plus, e_minus], [-0.4, 0.4], atol=1e-15)

    def test_ground_gap_closes_with_coupling(self):
        gaps = []
        for g in (0.0, 1.0, 2.0):
            e_plus, e_minus = approx_levels(1.0, 1.0, g, 0)
            gaps.append(e_minus - e_plus)
        assert gaps[0] == 1.0
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        # gap = Omega exp(-2 g^2 / omega^2)
        assert abs(gaps[1] - math.exp(-2.0)) < 1e-14

    def test_integer_valued_float_level(self):
        assert approx_levels(1.0, 0.8, 1.2, 2.0) == approx_levels(1.0, 0.8, 1.2, 2)
        with pytest.raises(ValueError):
            approx_levels(1.0, 0.8, 1.2, 0.5)

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_rejects_non_finite_level(self, n):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            approx_levels(1.0, 0.8, 1.2, n)

    def test_gap_value_at_unit_coupling(self):
        e_plus, e_minus = approx_levels(1.0, 1.0, 1.0, 0)
        assert abs((e_minus - e_plus) - 0.1353352832366127) < 1e-12

    def test_matches_exact_gap_in_asymptotic_regime(self):
        # approximate n=0 gap within 15% of the exact theta=0 gap for g >= 1.5
        for g in (1.5, 2.0, 2.5, 3.0):
            d = solve_hamiltonian(RabiParams.resonant(1.0, g=g), 110)
            exact = relative_spectrum(d, 2)[1]
            e_plus, e_minus = approx_levels(1.0, 1.0, g, 0)
            approx_gap = e_minus - e_plus
            assert abs(approx_gap - exact) / exact < 0.15


class TestApproxW1:
    def test_vanishes_at_huge_coupling(self):
        assert abs(approx_w1(1.0, 2.0, 0.019, 0.171, 60.0)) < 1e-300

    def test_zero_when_tanh_arguments_match(self):
        # T_h/T_c = R exp(2 g^2 (1 - 1/R^2)) makes beta_c b_c = beta_h b_h
        r, g = 2.0, 0.7
        t_c = 0.019
        t_h = t_c * r * math.exp(2.0 * g**2 * (1.0 - 1.0 / r**2))
        assert abs(approx_w1(1.0, r, t_c, t_h, g)) < 1e-18

    def test_positive_below_bound_negative_above(self):
        bound = positive_work_bound(2.0, 9.0)
        assert approx_w1(1.0, 2.0, 0.019, 9 * 0.019, bound - 0.05) > 0.0
        assert approx_w1(1.0, 2.0, 0.019, 9 * 0.019, bound + 0.05) < 0.0

    def test_sign_equivalence_dense_scan(self):
        bound = positive_work_bound(2.0, 9.0)
        for g in np.linspace(0.01, 3.5, 150):
            w = approx_w1(1.0, 2.0, 0.019, 9 * 0.019, g)
            if abs(g - bound) < 1e-9:
                continue
            assert (w > 0.0) == (g < bound)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            approx_w1(1.0, 0.9, 0.019, 0.171, 1.0)


class TestPositiveWorkBound:
    def test_reference_value(self):
        # sqrt((2/3) ln 4.5)
        assert abs(positive_work_bound(2.0, 9.0) - 1.00136) < 1e-4
        assert abs(positive_work_bound(2.0, 9.0) - math.sqrt(2.0 / 3.0 * math.log(4.5))) < 1e-15

    def test_vanishes_as_ratio_approaches_r(self):
        assert positive_work_bound(2.0, 2.0 + 1e-12) < 1e-5

    def test_undefined_when_temperature_ratio_too_small(self):
        with pytest.raises(ValueError, match="never positive"):
            positive_work_bound(2.0, 1.5)
        with pytest.raises(ValueError):
            positive_work_bound(0.8, 9.0)

    def test_decreasing_in_r(self):
        bounds = [positive_work_bound(r, 9.0) for r in (1.5, 2.0, 3.0, 4.0)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_bisection_on_approx_w1_lands_on_bound(self):
        bound = positive_work_bound(2.0, 9.0)
        lo, hi = 0.5, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if approx_w1(1.0, 2.0, 0.019, 9 * 0.019, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - bound) < 1e-6

    def test_independent_of_omega_ref(self):
        # the sign flip is a ratio statement; scale invariance sanity check
        w_a = approx_w1(1.0, 2.0, 0.019, 0.171, 0.9, omega_ref=DEFAULT_OMEGA_REF)
        w_b = approx_w1(1.0, 2.0, 0.019, 0.171, 0.9, omega_ref=2 * DEFAULT_OMEGA_REF)
        assert w_a > 0.0 and w_b > 0.0
        kt = thermal_energy(0.019)
        assert kt > 0.0


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "function, args",
    [
        (thermal_energy, (NAN,)),
        (thermal_energy, (INF,)),
        (thermal_energy, (0.019, INF)),
        (positive_work_bound, (2.0, INF)),
        (positive_work_bound, (NAN, 9.0)),
        (positive_work_bound, (2.0, NAN)),
        (approx_w1, (1.0, 2.0, 0.019, NAN, 1.0)),
        (approx_w1, (1.0, NAN, 0.019, 0.171, 1.0)),
        (approx_w1, (1.0, 2.0, 0.019, 0.171, INF)),
        (approx_levels, (NAN, 1.0, 1.0, 0)),
        (approx_levels, (1.0, 1.0, INF, 1)),
        (laguerre, (2, NAN)),
    ],
    ids=lambda value: value.__name__ if callable(value) else ",".join(map(str, value)),
)
def test_non_finite_input_raises(function, args):
    # each of these returned nan, inf or 0.0 without a word
    with pytest.raises(ValueError, match="finite"):
        function(*args)
