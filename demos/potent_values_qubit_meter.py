#!/usr/bin/env python3
"""Potent values: the coefficients a pre/post-selected system imprints on a
meter at ANY coupling strength.

Couple a system observable A to a qubit meter through |1><1| and evolve with
U = exp(-i g A (x) |1><1|). Slicing U against the meter basis gives Kraus
operators A_k; the potent values <phi|A_k|psi>/<phi|psi> are exactly the
(unnormalized) amplitudes of the post-selected meter state. For this meter
they reduce to (alpha, beta <A>_M) -- the modular-value formula -- and the
potent operator reduces to |0><0| + <A>_M |1><1|.
"""

import numpy as np

from potentops import (
    PrePostSelection,
    QubitMeter,
    apparatus_state_from_potent_values,
    evolution_operators,
    joint_evolve_and_postselect,
    kraus_slices,
    modular_value,
    normalize,
    potent_operator,
    potent_values,
    tensor_product,
)
from potentops.pauli import AMPLIFICATION_PHI, AMPLIFICATION_PSI, PROJECT_1, SIGMA_Z

g = 1.3
meter = QubitMeter(alpha=0.6, beta=0.8)
sel = PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI)
joint = evolution_operators(tensor_product(SIGMA_Z, PROJECT_1), [g])[0]

print(f"coupling g = {g}, meter (alpha, beta) = ({meter.alpha}, {meter.beta})")

slices = kraus_slices(joint, meter.state, np.eye(2, dtype=complex))
print("\nKraus slices <k|U|Phi> (completeness: sum A_k^dag A_k = I):")
completeness = sum(a.conj().T @ a for a in slices)
print(f"  max |sum A_k^dag A_k - I| = {np.max(np.abs(completeness - np.eye(2))):.2e}")

pvs = potent_values(joint, meter.state, np.eye(2, dtype=complex), sel)
m = modular_value(SIGMA_Z, g, sel)
print("\npotent values vs the qubit-meter closed form:")
print(f"  A_p(0) = {pvs.values[0]:.6f}   alpha          = {meter.alpha:.6f}")
print(f"  A_p(1) = {pvs.values[1]:.6f}   beta * <A>_M   = {meter.beta * m:.6f}")

final = apparatus_state_from_potent_values(pvs)
oracle, probability = joint_evolve_and_postselect(
    joint, AMPLIFICATION_PSI, meter.state, AMPLIFICATION_PHI)
print("\nfinal meter state, three ways (max entry difference):")
op = potent_operator(joint, sel)
from_operator = normalize(op.apply(meter.state))
print(f"  potent values vs joint-evolution oracle: "
      f"{np.max(np.abs(final - normalize(oracle))):.2e}")
print(f"  potent operator vs oracle:               "
      f"{np.max(np.abs(from_operator - normalize(oracle))):.2e}")
print(f"\npotent operator (should be diag(1, <A>_M)):\n{np.round(op.matrix, 6)}")
print(f"post-selection probability = {probability:.6f}")
print(f"probability from potent values = "
      f"{np.linalg.norm(pvs.values) ** 2 * abs(sel.overlap) ** 2:.6f}")
