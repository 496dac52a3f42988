#!/usr/bin/env python3
"""The von Neumann pointer picks up the weak value, not an eigenvalue.

A Gaussian pointer couples to sigma_z through its momentum. After
post-selecting the amplification pair (weak value 2), the pointer's mean
position moves by about g * 2 -- twice what any eigenvalue could produce.
The exact evolution quantifies how fast the weak-limit picture
exp(-i g A_w P)|Phi> becomes accurate: the relative shift error and the
chordal state distance both fall ~4x per halving of g.
"""

import numpy as np

from potentops import GaussianPointer, PrePostSelection, pointer_shift_sweep
from potentops.pauli import AMPLIFICATION_PHI, AMPLIFICATION_PSI, SIGMA_Z

sel = PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI)
pointer = GaussianPointer(grid_size=512, x_min=-12.0, x_max=12.0, sigma=1.0, x0=0.0)

gs = [0.2, 0.1, 0.05, 0.025]
reports = pointer_shift_sweep(SIGMA_Z, sel, gs, pointer)

print(f"weak value A_w = {reports[0].weak_val:.4f}; pointer sigma = {pointer.sigma}")
print(f"\n{'g':>8s} {'shift':>12s} {'g*Re(A_w)':>12s} {'rel err':>10s} "
      f"{'1-F':>10s} {'chordal':>10s} {'prob':>8s}")
for r in reports:
    chordal = np.sqrt(2 * r.fidelity_gap)
    rel = abs(r.mean_shift / r.predicted_shift - 1)
    print(f"{r.g:8.3f} {r.mean_shift:12.6f} {r.predicted_shift:12.6f} {rel:10.2e} "
          f"{r.fidelity_gap:10.2e} {chordal:10.2e} {r.probability:8.4f}")

rel_errors = [abs(r.mean_shift / r.predicted_shift - 1) for r in reports]
chordals = [np.sqrt(2 * r.fidelity_gap) for r in reports]
print("\nconvergence per halving of g (both should approach 4):")
for i in range(len(gs) - 1):
    print(f"  g {gs[i]} -> {gs[i + 1]}: rel-err ratio {rel_errors[i] / rel_errors[i + 1]:.2f}, "
          f"chordal ratio {chordals[i] / chordals[i + 1]:.2f}")

print("\nAn imaginary weak value moves the pointer's MOMENTUM instead:")
complex_sel = PrePostSelection(AMPLIFICATION_PSI, np.array([1, 1j]) / np.sqrt(2))
for r in pointer_shift_sweep(SIGMA_Z, complex_sel, [0.1, 0.05], pointer):
    print(f"  g={r.g}: A_w={r.weak_val:.4f}, momentum shift={r.momentum_shift:.6f}, "
          f"predicted 2 g Im(A_w) Var_p = {r.predicted_momentum_shift:.6f}")
