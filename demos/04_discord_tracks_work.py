"""Quantum-correlation loss in the hot bath stage tracks the harvested work.

Quantum discord D_A measures qubit-field correlations beyond entanglement,
via a minimization over projective qubit measurements (coarse Bloch-sphere
grid + Nelder-Mead refinement here). Comparing the discord of the state
entering the hot bath stage (rho4) with the hot thermal state it relaxes to
(rho1): the difference D(rho4) - D(rho1) rises and falls with the work output
W(g) itself, peaking at the same coupling. Correlations destroyed by the hot
reservoir act as the resource being converted.

By contrast D(rho3) - D(rho1), the difference between the two thermal states,
does not follow W once theta > 0 mixes the coupling channels.

Run:  python demos/04_discord_tracks_work.py
"""

import numpy as np

from rabiotto import discord_differences, resonator_frequency_protocol, run_cycle

CUTOFF = 48

print(f"{'g/w_c':>6} {'W':>12} {'D(rho4)-D(rho1)':>17} {'D(rho3)-D(rho1)':>17}")
values = []
for g in np.arange(0.2, 2.81, 0.2):
    protocol = resonator_frequency_protocol(g=float(g))
    states, rep = run_cycle(protocol, cutoff=CUTOFF)
    diffs = discord_differences(states)
    values.append((g, rep.work, diffs.d41))
    print(f"{g:>6.1f} {rep.work:>12.4e} {diffs.d41:>17.4e} {diffs.d31:>17.4e}")

gs, works, d41s = map(np.array, zip(*values))
print(f"\nW peaks at g = {gs[np.argmax(works)]:.1f}; "
      f"D(rho4)-D(rho1) peaks at g = {gs[np.argmax(d41s)]:.1f}.")
print("Both flip sign together entering the refrigerator window.")
