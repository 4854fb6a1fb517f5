"""Build the generalized Rabi Hamiltonian and watch its spectrum hybridize.

The working substance is a qubit coupled to a single cavity mode. At zero
coupling the excitation ladder is harmonic; as g/omega grows through the
ultra-strong into the deep-strong regime, levels pair up into quasi-degenerate
doublets: the ground doublet splits only by ~omega*exp(-2 g^2/omega^2). That
anharmonicity is what later drives the heat engine into a refrigerator.

Run:  python demos/01_operators_and_spectrum.py
"""

import numpy as np

from rabiotto import (
    RabiParams,
    build_hamiltonian,
    converged_cutoff,
    parity_sectors,
    relative_spectrum,
    solve_hamiltonian,
)

# --- the matrix --------------------------------------------------------------

h = build_hamiltonian(RabiParams.resonant(1.0, g=0.5, theta=np.pi / 8), 3)
print("H at cutoff 3 (omega = 1, g = 0.5, theta = pi/8), qubit first:")
print("upper-left block   omega a^dag a + omega_q/2 + g sin(theta) (a + a^dag)")
print("upper-right block  g cos(theta) (a + a^dag), and its mirror lower-left")
print("lower-right block  omega a^dag a - omega_q/2 - g sin(theta) (a + a^dag)")
print(np.round(h.matrix, 3))

# at theta = 0 the parity sigma_z (-1)^(a^dag a) commutes with H, which splits
# into two tridiagonal sectors; solve_hamiltonian solves each on its own
(_, even), _ = parity_sectors(RabiParams.resonant(1.0, g=0.5), 3)
print("\ntheta = 0: the parity +1 sector, in the order |up,0>, |down,1>, |up,2>:")
print(np.round(even, 3))

# --- the Hamiltonian across coupling regimes --------------------------------

print("\nlowest 6 levels (relative to the ground state), resonance omega_q = omega_cav = 1:")
print(f"{'g/omega':>8} | " + " ".join(f"{k:>9}" for k in range(6)) + "   (cutoff)")
for g in (0.0, 0.3, 0.8, 1.5, 2.5, 3.5):
    params = RabiParams.resonant(1.0, g=g)
    cutoff = converged_cutoff(params, n_levels=6, tol=1e-8)
    dec = solve_hamiltonian(params, cutoff)
    rel = relative_spectrum(dec, 6)
    print(f"{g:>8.2f} | " + " ".join(f"{e:>9.5f}" for e in rel) + f"   ({cutoff})")

print(
    "\nNote the lowest pair collapsing like exp(-2 g^2): at g = 2.5 the gap is"
    f" {relative_spectrum(solve_hamiltonian(RabiParams.resonant(1.0, g=2.5), 80), 2)[1]:.2e}."
)
print("Every decomposition above is residual-certified to ||Hv - Ev|| < 1e-9.")
