"""An experiment-friendly cycle: ramp only the qubit frequency.

Tuning a flux qubit's frequency is far easier than retuning a resonator, so
this protocol fixes omega_cav and g and ramps omega_q between omega_qc and
omega_qh (here with T_h = 4 T_c). While omega_qh/omega_qc stays below
T_h/T_c, the work output stays nonnegative at the scale of the curve: the hot
first excited level meets its thermal energy k_B T_h before the cold one meets
k_B T_c, so the hot excited population stays ahead. The small dips at strong
coupling, well under 1% of the curve's maximum, come from W_2: the second
level drops during compression.

At omega_qh = (T_h/T_c) * omega_qc (2.0 omega here) the claim fails outright.
The exact first-gap ratio Delta_h/Delta_c rises above T_h/T_c from
g ~ omega on, which breaks the two-level positive-work condition
Delta_h/Delta_c <= T_h/T_c, and the curve refrigerates for every g >= omega
with a dip of about half its maximum.

Run:  python demos/05_qubit_frequency_protocol.py
"""

import numpy as np

from rabiotto import discord_differences, qubit_frequency_protocol, run_cycle

CUTOFF = 48
OMEGA_QHS = (1.0, 1.5, 2.0)

print("work output (units of hbar*omega_ref), omega_qc = 0.5 omega, T_h = 4 T_c")
print(f"{'g/w':>5} | " + " | ".join(f"W (w_qh={w})" for w in OMEGA_QHS) + " | D4-D1 (w_qh=1.0)")
for g in np.arange(0.0, 3.01, 0.375):
    works = []
    for omega_qh in OMEGA_QHS:
        protocol = qubit_frequency_protocol(g=float(g), omega_qc=0.5, omega_qh=omega_qh)
        states, rep = run_cycle(protocol, cutoff=CUTOFF)
        works.append(rep.work)
        if omega_qh == 1.0:
            d41 = discord_differences(states).d41
    print(f"{g:>5.2f} | " + " | ".join(f"{w:>11.4e}" for w in works) + f" | {d41:>12.4e}")

print("\nwork extremes per curve over a finer grid; a curve refrigerates when its")
print("minimum falls below -1% of its maximum (the bound of acceptance criterion 8):")
for omega_qh in OMEGA_QHS:
    works = [
        run_cycle(qubit_frequency_protocol(g=float(g), omega_qc=0.5, omega_qh=omega_qh),
                  cutoff=CUTOFF)[1].work
        for g in np.linspace(0.0, 3.0, 31)
    ]
    lo, hi = min(works), max(works)
    verdict = "refrigerates" if lo < -1e-2 * hi else "no refrigeration at this scale"
    print(f"  omega_qh = {omega_qh}: min W = {lo:+.3e}, max W = {hi:.3e}, "
          f"min/max = {lo / hi:+.2%}  -> {verdict}")
