"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -rA` to get one pass/fail line
per criterion plus the measured numbers each test prints.

Criterion 8 checks the qubit-frequency protocol's no-refrigeration claim at
the scale of each work curve (omega_qc = 0.5 omega, T_h = 4 T_c). The curves
with omega_qh/omega_qc below T_h/T_c (omega_qh = 1.0, 1.5) never dip below 1%
of their maxima; their small dips come from W_2, as the second level drops
during compression at strong coupling. The omega_qh = 2.0 curve is the
counter-case: its exact first-gap ratio Delta_h/Delta_c rises above T_h/T_c
from g = omega on, which breaks the two-level positive-work condition
Delta_h/Delta_c <= T_h/T_c (Quan et al., PRE 76, 031105, 2007): W_1 turns
the cycle into a refrigerator at every g >= omega (default omega_ref), and the
curve still refrigerates at each k_B T_c tried from 0.005 to 0.3 hbar omega_ref.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rabiotto import (
    OperatorMatrix,
    RabiParams,
    build_hamiltonian,
    converged_cutoff,
    coupled_coupling_protocol,
    positive_work_bound,
    qubit_frequency_protocol,
    quantum_discord,
    relative_spectrum,
    resonator_frequency_protocol,
    run_cycle,
    solve_hamiltonian,
    thermal_populations,
)
from rabiotto.approx import approx_w1
from rabiotto.correlations import discord_differences
from rabiotto.cycle import WORK_REGIME_TOL, _report_from_spectra
from rabiotto.sweep import _series_cutoffs, build_protocol, figure_preset

from conftest import conditional_entropy, dense_state, spectral_form

FIG2_GRID = np.linspace(0.0, 3.5, 100)
COUPLED_GRID = np.linspace(0.0, 2.0, 50)


def _fig2_point(args):
    g, cutoff = args
    protocol = resonator_frequency_protocol(g=float(g))
    _, report = run_cycle(protocol, cutoff=cutoff)
    return (
        report.work,
        report.q_hot,
        report.q_cold,
        np.asarray(report.work_per_level),
        report.eta,
    )


def _coupled_point(args):
    g, cutoff = args
    protocol = coupled_coupling_protocol(g_c=float(g), alpha=1.0, ratio=2.0)
    _, report = run_cycle(protocol, cutoff=cutoff)
    return (
        report.work,
        report.q_hot,
        report.q_cold,
        np.asarray(report.work_per_level),
        report.eta,
    )


def _discord_point(args):
    g, cutoff = args
    protocol = resonator_frequency_protocol(g=float(g))
    states, report = run_cycle(protocol, cutoff=cutoff)
    d1 = quantum_discord(states.hot, states.populations_hot)
    d4 = quantum_discord(states.hot, states.populations_cold)
    return report.work, d4.discord - d1.discord


@pytest.fixture(scope="module")
def fig2_sweep():
    """The official Fig. 2 sweep: 100 points, auto-resolved (cold, hot) cutoffs, timed."""
    cutoff = _series_cutoffs(figure_preset("fig2"))[None]
    start = time.time()
    with ProcessPoolExecutor(max_workers=2) as pool:
        reports = list(pool.map(_fig2_point, [(g, cutoff) for g in FIG2_GRID]))
    elapsed = time.time() - start
    return cutoff, elapsed, reports


@pytest.fixture(scope="module")
def coupled_sweep():
    cutoff = _series_cutoffs(figure_preset("fig6"))[1.0]
    with ProcessPoolExecutor(max_workers=2) as pool:
        reports = list(pool.map(_coupled_point, [(g, cutoff) for g in COUPLED_GRID]))
    return cutoff, reports


def test_criterion_01_engine_refrigerator_transitions(fig2_sweep):
    """Fig. 2: exactly two work sign changes, near 1.2 and 2.5, under 1 minute."""
    cutoff, elapsed, reports = fig2_sweep
    assert max(cutoff) <= 128, f"resolved (cold, hot) cutoffs {cutoff}: one exceeds 128"
    assert elapsed < 60.0, f"100-point sweep took {elapsed:.1f}s (limit 60s)"
    work = np.array([r[0] for r in reports])
    flips = np.where(np.sign(work[:-1]) * np.sign(work[1:]) < 0)[0]
    crossings = [0.5 * (FIG2_GRID[i] + FIG2_GRID[i + 1]) for i in flips]
    print(f"CRITERION 1: cutoff={cutoff}, runtime={elapsed:.1f}s, crossings={crossings}")
    assert len(crossings) == 2, f"expected exactly two sign changes, got {crossings}"
    assert 0.9 <= crossings[0] <= 1.4
    assert 2.2 <= crossings[1] <= 2.8


def test_criterion_02_analytic_bound():
    """positive_work_bound(2, 9) = 1.00136 and the approx_w1 sign flip matches."""
    bound = positive_work_bound(2.0, 9.0)
    assert abs(bound - 1.00136) < 1e-4
    lo, hi = 0.5, 2.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if approx_w1(1.0, 2.0, 0.019, 9 * 0.019, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    flip = 0.5 * (lo + hi)
    print(f"CRITERION 2: bound={bound:.7f}, bisected flip={flip:.7f}")
    assert abs(flip - bound) < 1e-6


def test_criterion_03_proportional_hamiltonian_efficiency(coupled_sweep):
    """alpha = 1 (H_h = R H_c): eta = 0.5 within 1e-10 at all 50 points."""
    cutoff, reports = coupled_sweep
    etas = np.array([r[4] for r in reports])
    worst = np.nanmax(np.abs(etas - 0.5))
    print(f"CRITERION 3: cutoff={cutoff}, max |eta - 0.5| = {worst:.3e}")
    assert np.all(np.isfinite(etas))
    assert worst < 1e-10


def test_criterion_04_work_shift_invariance():
    """1000 random spectra/temperature draws: W, Q_h, Q_c shift-invariant."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 24))
        eh = np.sort(rng.uniform(0.0, 12.0, n))
        ec = np.sort(rng.uniform(0.0, 12.0, n))
        kt_h = rng.uniform(0.05, 6.0)
        kt_c = rng.uniform(0.01, kt_h)
        ph = thermal_populations(eh, kt_h)
        pc = thermal_populations(ec, kt_c)
        base = _report_from_spectra(eh, ec, ph, pc, n)
        ch, cc = rng.uniform(-100.0, 100.0, 2)
        shifted = _report_from_spectra(eh + ch, ec + cc, ph, pc, n)
        worst = max(
            worst,
            abs(base.work - shifted.work),
            abs(base.q_hot - shifted.q_hot),
            abs(base.q_cold - shifted.q_cold),
        )
    print(f"CRITERION 4: worst shift deviation = {worst:.3e}")
    assert worst < 1e-10


def test_criterion_05_first_law(fig2_sweep, coupled_sweep):
    """W = Q_h + Q_c and W = sum W_n to 1e-10 on every row of criteria 1 and 3."""
    worst_q, worst_n = 0.0, 0.0
    for _, _, reports in (fig2_sweep, (None, None, coupled_sweep[1])):
        for work, q_hot, q_cold, wn, _ in reports:
            worst_q = max(worst_q, abs(work - (q_hot + q_cold)))
            worst_n = max(worst_n, abs(work - wn.sum()))
    print(f"CRITERION 5: max |W-(Qh+Qc)| = {worst_q:.3e}, max |W-sum(Wn)| = {worst_n:.3e}")
    assert worst_q < 1e-10
    assert worst_n < 1e-10


def _brute_force_grid_min(rho, n_theta=256, n_phi=512):
    """Independent oracle: full-projector conditional entropy on a dense angle grid."""
    thetas = np.linspace(0.0, math.pi, n_theta)[:, None]
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return float(conditional_entropy(rho, thetas, phis).min())


def test_criterion_06_discord_sanity():
    """Zero for g=0 thermal, ln 2 for the Bell pair, optimizer beats the grid."""
    protocol = resonator_frequency_protocol(g=0.0)
    states, _ = run_cycle(protocol, cutoff=8)
    product_result = quantum_discord(states.hot, states.populations_hot)
    assert product_result.discord < 1e-9

    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    bell = OperatorMatrix(np.outer(v, v), subsystem_dims=(2, 2))
    bell_result = quantum_discord(*spectral_form(bell))
    assert abs(bell_result.discord - math.log(2.0)) < 1e-6

    bell_oracle = _brute_force_grid_min(bell)
    product_oracle = _brute_force_grid_min(dense_state(states.hot, states.populations_hot))
    print(
        f"CRITERION 6: D(g=0)={product_result.discord:.2e}, "
        f"D(Bell)={bell_result.discord:.9f}, oracle mins "
        f"{bell_oracle:.3e}/{product_oracle:.6f}"
    )
    assert bell_result.conditional_entropy_min <= bell_oracle + 1e-12
    assert product_result.conditional_entropy_min <= product_oracle + 1e-12


def test_criterion_07_correlation_work_correspondence():
    """Global maxima of D(rho4)-D(rho1) and W agree within 0.2 (0.05 grid)."""
    grid = np.round(np.arange(0.0, 3.5 + 1e-9, 0.05), 10)
    cold = converged_cutoff(RabiParams.resonant(1.0, g=3.5), 24, 1e-6)
    hot = converged_cutoff(RabiParams.resonant(2.0, g=3.5), 24, 1e-6)
    cutoff = max(cold, hot)
    with ProcessPoolExecutor(max_workers=2) as pool:
        data = list(pool.map(_discord_point, [(g, cutoff) for g in grid]))
    work = np.array([d[0] for d in data])
    diff41 = np.array([d[1] for d in data])
    g_w = float(grid[np.argmax(work)])
    g_d = float(grid[np.argmax(diff41)])
    print(f"CRITERION 7: argmax W = {g_w}, argmax D(rho4)-D(rho1) = {g_d}")
    assert abs(g_w - g_d) <= 0.2


def test_criterion_08_qubit_protocol_no_refrigeration():
    """No refrigerator regime at the scale of W(g) while omega_qh/omega_qc < T_h/T_c.

    Over g in [0, 3] with omega_qc = 0.5 and T_h = 4 T_c: for omega_qh = 1.0
    and 1.5, min W >= -1e-2 max W; the omega_qh = 2.0 curve, whose gap ratio
    exceeds T_h/T_c, breaks that bound. Every point with W < -WORK_REGIME_TOL
    must have a level 1 <= n < n_levels with E_n^h/E_n^c outside [1, T_h/T_c].
    """
    grid = np.linspace(0.0, 3.0, 61)
    cutoff = max(
        converged_cutoff(RabiParams(1.0, omega_q, g=3.0), 24, 1e-6)
        for omega_q in (0.5, 2.0)
    )
    minima, maxima, unexplained = {}, {}, []
    for omega_qh in (1.0, 1.5, 2.0):
        works = []
        for g in grid:
            protocol = qubit_frequency_protocol(g=float(g), omega_qc=0.5, omega_qh=omega_qh)
            states, report = run_cycle(protocol, cutoff=cutoff)
            works.append(report.work)
            if report.work < -WORK_REGIME_TOL:
                n = protocol.n_levels
                eh = states.hot.ground_referenced()[1:n]
                ec = states.cold.ground_referenced()[1:n]
                t_ratio = protocol.reservoirs.t_hot / protocol.reservoirs.t_cold
                if np.all((eh >= ec) & (eh <= t_ratio * ec)):
                    unexplained.append((omega_qh, float(g), report.work))
        minima[omega_qh], maxima[omega_qh] = min(works), max(works)
    ratios = {w: minima[w] / maxima[w] for w in minima}
    print(
        f"CRITERION 8: cutoff={cutoff}, per-omega_qh work minima = {minima}, "
        f"maxima = {maxima}, min/max = {ratios}"
    )
    for omega_qh in (1.0, 1.5):
        assert minima[omega_qh] >= -1e-2 * maxima[omega_qh], (
            f"omega_qh = {omega_qh}: W dips to {minima[omega_qh]:.3e}, "
            f"{-ratios[omega_qh]:.2%} of its maximum {maxima[omega_qh]:.3e}"
        )
    assert minima[2.0] < -1e-2 * maxima[2.0], (
        f"omega_qh = 2.0 (gap ratio above T_h/T_c) should refrigerate at the "
        f"scale of its curve: min {minima[2.0]:.3e}, max {maxima[2.0]:.3e}"
    )
    assert not unexplained, (
        "negative work with every E_n^h/E_n^c inside [1, T_h/T_c] "
        f"(omega_qh, g, W): {unexplained}"
    )


def test_criterion_09_eigensolver_certification(fig2_sweep):
    """Residuals/orthonormality of the sweeps' solve at every point; cutoff-doubling stability.

    ``solve_hamiltonian`` is the solve every cycle point takes: two parity
    sectors at theta = 0. Its residual is recomputed against the dense
    H = build_hamiltonian(...).matrix, so the scatter of the sector vectors
    into the full basis is checked too, and compared with its certificate.
    Each side is solved at the cutoff the sweep used for it.
    """
    (cutoff_cold, cutoff_hot), _, _ = fig2_sweep
    worst_resid, worst_orth, worst_certificate = 0.0, 0.0, 0.0
    for g in np.linspace(0.0, 3.5, 15):
        protocol = resonator_frequency_protocol(g=float(g))
        for params, cutoff in ((protocol.cold, cutoff_cold), (protocol.hot, cutoff_hot)):
            d = solve_hamiltonian(params, cutoff)
            h = build_hamiltonian(params, cutoff).matrix
            residual = float(np.linalg.norm(h @ d.states - d.states * d.energies, axis=0).max())
            worst_resid = max(worst_resid, residual)
            worst_certificate = max(worst_certificate, d.residual_norm)
            gram = d.states.T @ d.states
            worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(d.dim)))))
    assert worst_resid < 1e-9
    assert worst_certificate < 1e-9
    assert worst_orth < 1e-10

    worst_shift = 0.0
    for g in (0.5, 1.5, 3.0):
        params = RabiParams.resonant(1.0, g=g)
        found = converged_cutoff(params, n_levels=10, tol=1e-8)
        d1 = solve_hamiltonian(params, found)
        d2 = solve_hamiltonian(params, 2 * found)
        delta = np.abs(relative_spectrum(d1, 10) - relative_spectrum(d2, 10)).max()
        worst_shift = max(worst_shift, float(delta))
    print(
        f"CRITERION 9: max residual against the dense H {worst_resid:.2e} (certificate "
        f"{worst_certificate:.2e}), max orthonormality error {worst_orth:.2e}, "
        f"max doubling shift {worst_shift:.2e}"
    )
    assert worst_shift < 1e-8


def test_criterion_10_appendix_comparison(fig2_sweep):
    """Numeric W_1 vs the closed form: same sign outside a <=0.3 window, r > 0.9."""
    _, _, reports = fig2_sweep
    w1_numeric = np.array([r[3][1] for r in reports])
    w1_approx = np.array(
        [approx_w1(1.0, 2.0, 0.019, 9 * 0.019, float(g)) for g in FIG2_GRID]
    )
    mismatch = np.where(np.sign(w1_numeric) != np.sign(w1_approx))[0]
    if len(mismatch):
        window = FIG2_GRID[mismatch.max()] - FIG2_GRID[mismatch.min()]
        # mismatches must be confined to one contiguous window at the transition
        bound = positive_work_bound(2.0, 9.0)
        assert np.all(np.abs(FIG2_GRID[mismatch] - bound) < 0.5)
    else:
        window = 0.0
    pearson = float(np.corrcoef(w1_numeric, w1_approx)[0, 1])
    print(f"CRITERION 10: sign-mismatch window width = {window:.3f}, Pearson r = {pearson:.4f}")
    assert window <= 0.3
    assert pearson > 0.9


def test_criterion_11_compression_discord_and_efficiency():
    """fig6: sign(eta - 0.5) = sign(D(rho3) - D(rho4)) wherever the cold gap exceeds 4 k_B T_c.

    The abstract's second claim: reduced correlations in the compression
    stage, D(rho3) - D(rho4) > 0, are a resource for efficiency above the
    Otto value 1 - omega_c/omega_h = 0.5. On the coupled-coupling protocol
    (alpha = 0.8 and 1.2; alpha = 1 is criterion 3, where rho4 = rho3) the
    signs agree on the whole grid up to g = 1.1, where the cold ground gap
    Delta_c is still above 4 k_B T_c, and ground-state discord sets D(rho3).
    Past that edge the doublet mixes thermally, D(rho3) collapses, and each
    alpha has one contiguous run of points where the signs disagree
    (alpha = 0.8 from g = 1.3 to 1.4, alpha = 1.2 from 1.2 to 1.8); they agree
    again at the grid's end. The edge is not the work sign change: alpha = 1.2
    refrigerates from g = 1.0 on with the signs still agreeing.
    """
    config = figure_preset("fig6")
    cutoffs = _series_cutoffs(config)
    grid = np.round(np.arange(0.0, 2.0 + 1e-9, 0.1), 10)
    disagree, refrigerating_agreement, gapped = {}, [], set()
    for alpha in (0.8, 1.2):
        disagree[alpha] = []
        for g in grid:
            protocol = build_protocol(config, alpha, float(g))
            states, report = run_cycle(protocol, cutoff=cutoffs[alpha])
            d = discord_differences(states)
            agree = np.sign(report.eta - 0.5) == np.sign(d.rho3.discord - d.rho4.discord)
            gap = states.cold.ground_referenced()[1] / protocol.reservoirs.t_cold
            if gap >= 4.0:
                gapped.add(float(g))
                assert agree, f"alpha = {alpha}, g = {g}: signs differ with Delta_c = {gap:.2f} k_B T_c"
                if report.work < -WORK_REGIME_TOL:
                    refrigerating_agreement.append((alpha, float(g)))
            elif not agree:
                disagree[alpha].append(int(round(g * 10)))
    print(f"CRITERION 11: cutoffs={cutoffs}, disagreeing g x 10 = {disagree}, "
          f"refrigerating points that agree {refrigerating_agreement}")
    assert max(gapped) == 1.1 and len(gapped) == 12
    assert disagree[0.8] == [13, 14]
    assert disagree[1.2] == list(range(12, 19))
    assert {alpha for alpha, _ in refrigerating_agreement} == {1.2}
