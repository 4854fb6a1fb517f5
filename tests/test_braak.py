"""A truncation-free oracle for the spectrum: Braak's G-functions.

At theta = 0 the model is the quantum Rabi model, whose parity sectors have
as their spectra the zeros of (Braak, PRL 107, 100401, 2011)

    G_+/-(x) = sum_n K_n(x) [1 -/+ Delta/(x - n)] g'^n,
    K_0 = 1,  K_1 = f_0,  n K_n = f_{n-1} K_{n-1} - K_{n-2},
    f_n(x) = 2 g' + (n - x + Delta^2/(x - n)) / (2 g'),

with g' = g/omega, Delta = omega_q/(2 omega) and E = omega (x - g'^2).

At theta != 0, rotating the qubit so that the coupling axis is sigma_x gives
H = omega a^dag a + g sigma_x (a + a^dag) + (omega_q cos(theta)/2) sigma_z
+ (omega_q sin(theta)/2) sigma_x, the asymmetric Rabi model, with no parity.
Its spectrum is the zeros of (Braak 2011)

    G_eps(x) = Delta^2 Rbar^+(x) Rbar^-(x) - R^+(x) R^-(x),
    R^+/- = sum_n K_n^+/- g'^n,  Rbar^+/- = sum_n K_n^+/- g'^n / (x - n +/- eps),
    K_0 = 1,  K_1 = f_0,  n K_n = f_{n-1} K_{n-1} - K_{n-2},
    f_n^+/-(x) = 2 g' + (n - x +/- eps + Delta^2/(x - n +/- eps)) / (2 g'),

now with Delta = omega_q cos(theta)/(2 omega) and eps = omega_q sin(theta)/(2
omega); at eps = 0 it is -G_+ G_-. No Fock cutoff enters, so the roots check
the certified solve against the model itself, not against the same solver at
twice the cutoff.
"""

import math

import numpy as np
import pytest

from rabiotto import RabiParams, converged_cutoff, relative_spectrum, solve_hamiltonian
from rabiotto.spectral import CUTOFF_TOL
from rabiotto.sweep import figure_preset

from conftest import parity_diagonal

TERMS = 400
STEP = 0.005  # root-bracketing grid in x; roots of one sector lie about 1 apart


def braak_g(x, params, sign, poles):
    """G_sign(x) times the product of (x - n) over the poles n = 0 .. poles - 1.

    The product removes G's simple poles at x = 0, 1, 2, ... in the range,
    so a root is bracketed by a sign change even next to a pole. Each term
    is carried as K_n g'^n, which cannot overflow. Past n = max(x) the terms
    fall off fast; the sum stops once every one is below 1e-18 of the
    largest term at its x, or at TERMS terms.
    """
    gp, delta = params.g / params.omega_cav, params.omega_q / (2.0 * params.omega_cav)
    prev, cur = np.zeros_like(x), np.ones_like(x)  # K_{n-1} g'^(n-1), K_n g'^n
    total, largest = 1.0 - sign * delta / x, np.ones_like(x)
    for n in range(1, TERMS):
        f = 2.0 * gp + (n - 1 - x + delta**2 / (x - n + 1)) / (2.0 * gp)
        prev, cur = cur, (gp * f * cur - gp**2 * prev) / n
        total += cur * (1.0 - sign * delta / (x - n))
        largest = np.maximum(largest, np.abs(cur))
        if n > np.max(x) and np.all(np.abs(cur) < 1e-18 * largest):
            break
    return total * np.prod(x[..., None] - np.arange(poles), axis=-1)


def asymmetric_g(x, params, poles):
    """G_eps(x) times the product of (x - n + eps)(x - n - eps) over n = 0 .. poles - 1.

    The product removes G_eps's simple poles at x = n -/+ eps in the range;
    the sums are carried and stopped as in ``braak_g``.
    """
    gp = params.g / params.omega_cav
    delta = params.omega_q * math.cos(params.theta) / (2.0 * params.omega_cav)
    eps = params.omega_q * math.sin(params.theta) / (2.0 * params.omega_cav)
    sums = {}
    for sign in (1, -1):
        shift = sign * eps
        prev, cur = np.zeros_like(x), np.ones_like(x)  # K_{n-1} g'^(n-1), K_n g'^n
        r, r_bar, largest = np.ones_like(x), 1.0 / (x + shift), np.ones_like(x)
        for n in range(1, TERMS):
            f = 2.0 * gp + (n - 1 - x + shift + delta**2 / (x - n + 1 + shift)) / (2.0 * gp)
            prev, cur = cur, (gp * f * cur - gp**2 * prev) / n
            r, r_bar = r + cur, r_bar + cur / (x - n + shift)
            largest = np.maximum(largest, np.abs(cur))
            if n > np.max(x) and np.all(np.abs(cur) < 1e-18 * largest):
                break
        sums[sign] = r, r_bar
    (r_plus, r_bar_plus), (r_minus, r_bar_minus) = sums[1], sums[-1]
    n = np.arange(poles)
    product = np.prod((x[..., None] - n + eps) * (x[..., None] - n - eps), axis=-1)
    return (delta**2 * r_bar_plus * r_bar_minus - r_plus * r_minus) * product


def bracketed_roots(function, params, x_max):
    """The zeros of ``function`` below x_max, by a sign-change scan and bisection.

    The scan starts below -omega_q/(2 omega), under every level (E >=
    -g^2/omega - omega_q/2), on a grid offset so that no point falls on a pole.
    """
    x_min = -params.omega_q / (2.0 * params.omega_cav) - 0.25 - STEP / math.pi
    x = x_min + STEP * np.arange(int((x_max - x_min) / STEP) + 1)
    value = function(x)
    lo = np.flatnonzero(np.sign(value[:-1]) != np.sign(value[1:]))
    a, b, fa = x[lo], x[lo + 1], value[lo]
    for _ in range(45):  # STEP / 2^45 is below the spacing of doubles here
        mid = 0.5 * (a + b)
        fm = function(mid)
        left = np.sign(fm) == np.sign(fa)
        a, fa = np.where(left, mid, a), np.where(left, fm, fa)
        b = np.where(left, b, mid)
    return 0.5 * (a + b)


def braak_roots(params, sign, x_max):
    """The zeros of G_sign below x_max."""
    poles = math.floor(x_max) + 1
    return bracketed_roots(lambda x: braak_g(x, params, sign, poles), params, x_max)


# fig2's cold (omega = omega_q = 1) and hot (omega = omega_q = 2) sides, and a
# qubit-frequency side with omega_q != omega
SIDES = [
    RabiParams(omega_cav=omega, omega_q=omega, g=g) for omega in (1.0, 2.0) for g in (0.5, 1.5, 3.5)
] + [RabiParams(omega_cav=1.0, omega_q=0.5, g=1.5)]


@pytest.mark.parametrize("params", SIDES, ids=lambda p: f"w{p.omega_cav}-wq{p.omega_q}-g{p.g}")
def test_certified_levels_are_the_g_function_zeros(params):
    n_levels = figure_preset("fig2").n_levels
    d = solve_hamiltonian(params, converged_cutoff(params, n_levels))
    levels = relative_spectrum(d, n_levels)
    gp2 = (params.g / params.omega_cav) ** 2
    x_max = math.floor(d.energies[n_levels - 1] / params.omega_cav + gp2) + 1.5
    # the energies of G_+'s zeros, then of G_-'s
    roots = {s: params.omega_cav * (braak_roots(params, s, x_max) - gp2) for s in (1, -1)}
    oracle = np.sort(np.concatenate(list(roots.values())))[:n_levels]
    assert len(oracle) == n_levels
    assert np.max(np.abs((oracle - oracle[0]) - levels)) < CUTOFF_TOL

    # every level's vector lies in one parity sector, exactly zero off it, and
    # the sector's levels are its G's zeros in order: G_+ for P = +1
    p = parity_diagonal(d.cutoff_used)
    sector = np.where(np.any(d.states[p < 0, :n_levels] != 0.0, axis=0), -1, 1)
    for s in (1, -1):
        assert not np.any(d.states[np.ix_(p != s, sector == s)])
        found = d.energies[:n_levels][sector == s]
        assert len(found) > 0
        np.testing.assert_allclose(found - d.energies[0], roots[s][: len(found)] - oracle[0], rtol=0.0, atol=CUTOFF_TOL)


# fig4's theta != 0 sides, each (omega, g) once with the three angles in turn,
# and a side with omega_q != omega
TILTED_SIDES = [
    RabiParams.resonant(1.0, g=0.5, theta=math.pi / 8),
    RabiParams.resonant(1.0, g=1.5, theta=math.pi / 4),
    RabiParams.resonant(1.0, g=3.5, theta=3 * math.pi / 8),
    RabiParams.resonant(2.0, g=0.5, theta=math.pi / 4),
    RabiParams.resonant(2.0, g=1.5, theta=3 * math.pi / 8),
    RabiParams.resonant(2.0, g=3.5, theta=math.pi / 8),
    RabiParams(omega_cav=1.0, omega_q=1.3, g=0.9, theta=0.3),
]


@pytest.mark.parametrize(
    "params", TILTED_SIDES, ids=lambda p: f"w{p.omega_cav}-wq{p.omega_q}-g{p.g}-th{p.theta:.3f}"
)
def test_tilted_certified_levels_are_the_asymmetric_g_function_zeros(params):
    n_levels = figure_preset("fig4").n_levels
    d = solve_hamiltonian(params, converged_cutoff(params, n_levels))
    levels = relative_spectrum(d, n_levels)
    gp2 = (params.g / params.omega_cav) ** 2
    x_max = math.floor(d.energies[n_levels - 1] / params.omega_cav + gp2) + 1.5
    eps = params.omega_q * math.sin(params.theta) / (2.0 * params.omega_cav)
    poles = math.floor(x_max + eps) + 1
    roots = bracketed_roots(lambda x: asymmetric_g(x, params, poles), params, x_max)
    oracle = params.omega_cav * (roots[:n_levels] - gp2)  # the scan finds them in order
    assert len(oracle) == n_levels
    assert np.max(np.abs((oracle - oracle[0]) - levels)) < CUTOFF_TOL
