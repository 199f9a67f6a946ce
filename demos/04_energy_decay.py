#!/usr/bin/env python3
"""Discrete energy decay of the dispersive Maxwell stepper.

The stepper couples midpoint (Crank-Nicolson) updates of E and H with the
completely monotone discrete convolution closing P.  Its discrete energy

    E^n = eps_inf ||E^n||^2 + ||H^n||^2 + delta_eps sum_{k<=n} w_{n-k} ||E^k||^2

is nonincreasing on the smooth standing data used here (zero sources, E^0
and H^0 interpolating the standing fields) at the step sizes below,
tau = 0.01 and tau = 0.5.  It is not a Lyapunov function of the scheme: its
change over the first step is -delta_eps * w_1 * (E^1, E^0), positive
whenever E changes sign across the step (rough fields, large tau), and on
this data too it rises from about tau = 1 on (+1.5 % of E^0 at tau = 2).
Runs below start from the standing field and report the energy decay across
fractional orders, including a deliberately huge step.
"""

import numpy as np

from hnmaxwell import HNParams, MaxwellMesh, run_energy

mesh = MaxwellMesh(32, 32)

print("16 runs, 32x32 mesh, tau = 0.01, T = 1, zero sources")
print()
print("beta   alpha   E^0        E^N        max step rise   monotone")
for beta in (0.1, 0.4, 0.7, 1.0):
    for alpha in (0.1, 0.3, 0.5, 0.9):
        params = HNParams(eps_inf=1.0, delta_eps=1.0, alpha=alpha, beta=beta)
        tr = run_energy(mesh, params, tau=0.01, t_final=1.0)
        rise = float((tr.total[1:] - tr.total[:-1]).max())
        ok = "yes" if rise <= 1e-10 * tr.total[0] else "NO"
        print(
            f"{beta:4.1f}  {alpha:5.1f}   {tr.total[0]:9.6f}  {tr.total[-1]:9.6f}"
            f"   {rise:12.3e}    {ok}"
        )

print()
print("Smaller alpha or beta = heavier fading memory = faster dissipation.")
print()
print("A huge step on the same smooth data: tau = 0.5 (two steps)")
params = HNParams(eps_inf=1.0, delta_eps=1.0, alpha=0.5, beta=0.5)
tr = run_energy(mesh, params, tau=0.5, t_final=1.0)
print("  energies:", np.array2string(tr.total, precision=6))
print("  still monotonically decaying on this data.")
print()
print("With dispersion switched off (delta_eps = 0) the scheme is plain")
print("Crank-Nicolson Maxwell and conserves its energy to machine precision:")
tr = run_energy(MaxwellMesh(16, 16), HNParams(1.0, 0.0, 0.5, 0.5), tau=0.01, t_final=1.0)
print(f"  relative drift over 100 steps: {np.abs(tr.total - tr.total[0]).max() / tr.total[0]:.2e}")
