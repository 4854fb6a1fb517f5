"""Closed-form approximations for the theta = 0 model at strong coupling.

Displaced-oscillator energy levels built on Laguerre polynomials,

    E_{+/-,n} = -omega n - g^2/omega -/+ (Omega/2) exp(-2 g^2/omega^2) L_n(4 g^2/omega^2),

the two-level work approximation

    W = (b_h - b_c) (tanh(b_c / kT_c) - tanh(b_h / kT_h)),
    b_h = (R omega / 2) exp(-2 g^2 / (R omega)^2),  b_c = (omega / 2) exp(-2 g^2 / omega^2),

and the positive-work bound

    g/omega < sqrt( (1/2) R^2/(R^2 - 1) ln( (1/R) T_h/T_c ) ).

The -omega*n oscillator term in E_{+/-,n} is kept as printed, although it
orders levels downward for n > 0; only n = 0 feeds the work formulas.
"""

from __future__ import annotations

import math

from .units import DEFAULT_OMEGA_REF, thermal_energy

__all__ = ["approx_levels", "approx_w1", "laguerre", "positive_work_bound"]


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x) by the stable three-term recurrence.

    An integer-valued float order such as 2.0 is taken as that integer; a
    non-finite x raises ValueError.
    """
    if not 0 <= n < math.inf or int(n) != n:
        raise ValueError(f"order must be a nonnegative integer, got {n}")
    _check_finite(x=x)
    n = int(n)
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def approx_levels(omega: float, big_omega: float, g: float, n: int) -> tuple[float, float]:
    """Displaced-oscillator branch energies (E_plus, E_minus) for level pair n.

    For n = 0 these are the approximate ground and first-excited energies
    E_G = -g^2/omega - (Omega/2) e^{-2g^2/omega^2} and E_1 with the opposite
    sign on the exponential term. The oscillator term is -omega*n, as printed.
    Every argument must be finite.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be finite and > 0, got {omega}")
    _check_finite(big_omega=big_omega, g=g)
    if not 0 <= n < math.inf or int(n) != n:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    ratio2 = (g / omega) ** 2
    base = -omega * n - g**2 / omega
    gap_term = 0.5 * big_omega * math.exp(-2.0 * ratio2) * laguerre(n, 4.0 * ratio2)
    return base - gap_term, base + gap_term


def approx_w1(
    omega_c: float,
    ratio: float,
    t_cold: float,
    t_hot: float,
    g: float,
    omega_ref: float = DEFAULT_OMEGA_REF,
) -> float:
    """Two-level approximation of the first-excited-state work contribution.

    Temperatures are in kelvin; the result is in units of hbar * omega_ref,
    like the numeric cycle output it approximates. Every argument must be
    finite.
    """
    if not 1.0 < ratio < math.inf:
        raise ValueError(f"ratio R = omega_h/omega_c must be finite and > 1, got {ratio}")
    _check_finite(omega_c=omega_c, g=g)
    kt_c = thermal_energy(t_cold, omega_ref)
    kt_h = thermal_energy(t_hot, omega_ref)
    b_h = 0.5 * ratio * omega_c * math.exp(-2.0 * g**2 / (ratio * omega_c) ** 2)
    b_c = 0.5 * omega_c * math.exp(-2.0 * (g / omega_c) ** 2)
    return (b_h - b_c) * (math.tanh(b_c / kt_c) - math.tanh(b_h / kt_h))


def positive_work_bound(ratio: float, temp_ratio: float) -> float:
    """Critical g/omega below which the two-level approximation gives W > 0.

    Both ratios must be finite.
    """
    if not 1.0 < ratio < math.inf:
        raise ValueError(f"ratio R must be finite and > 1, got {ratio}")
    _check_finite(temp_ratio=temp_ratio)
    if temp_ratio <= ratio:
        raise ValueError(
            f"requires T_h/T_c > R (got T_h/T_c = {temp_ratio}, R = {ratio}): "
            "the engine is never positive in this approximation"
        )
    return math.sqrt(0.5 * ratio**2 / (ratio**2 - 1.0) * math.log(temp_ratio / ratio))
