#!/usr/bin/env python3
"""Conditional unitaries expose weak and modular values with no weak coupling.

When the system controls which unitary hits the apparatus,
U = sum_n Pi_n (x) U_n, the post-selected apparatus sees
sum_n <Pi_n>_w U_n: a weak-value-weighted mixture of the branch unitaries.
When the APPARATUS controls which system rotation runs, U = sum_n V_n (x) P_n,
it sees sum_n <A_n>_M P_n: modular values, with no qubit meter in sight.
Both are potent operators of the assembled joint unitary, and the
completeness identity sum_n |<phi|psi_n>|^2 U_P U_P^dag = I holds for any
unitary coupling.
"""

import numpy as np

from potentops import (
    PrePostSelection,
    conditional_unitary,
    general_exponential,
    hermitian_exponential,
    potent_completeness_residual,
    potent_operator,
    potent_operator_apparatus_controlled,
    potent_operator_system_controlled,
    tensor_product,
)
from potentops.pauli import AMPLIFICATION_PHI, AMPLIFICATION_PSI, SIGMA_X, SIGMA_Z

sel = PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI)

# --- system controls the apparatus -----------------------------------------
projectors = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
unitaries = [np.eye(2, dtype=complex), hermitian_exponential(SIGMA_X, -0.8j)]
op, weak_vals = potent_operator_system_controlled(projectors, unitaries, sel)

print("system-controlled branch weights (projector weak values):")
for n, w in enumerate(weak_vals):
    print(f"  <Pi_{n}>_w = {w:.6f}")
print(f"  sum = {sum(weak_vals):.6f} (always exactly 1)")

assembled = potent_operator(conditional_unitary(projectors, unitaries), sel)
print(f"  matches potent operator of assembled U: "
      f"{np.max(np.abs(op.matrix - assembled.matrix)):.2e}")
print("  note <Pi_1>_w = -1/2: a 'negative probability' weight on branch 1")

# --- apparatus controls the system ------------------------------------------
lam = 1.1
generators = [SIGMA_Z, SIGMA_X]
aop, modular_vals = potent_operator_apparatus_controlled(generators, projectors, lam, sel)
print("\napparatus-controlled branch weights (modular values at lambda=1.1):")
for n, m in enumerate(modular_vals):
    print(f"  <A_{n}>_M = {m:.6f}")
# the assembled joint takes its branches exp(-i lam A_n) from the Pade route
branches = [general_exponential(a, -1j * lam) for a in generators]
assembled = potent_operator(conditional_unitary(branches, projectors), sel)
print(f"  matches potent operator of assembled U: "
      f"{np.max(np.abs(aop.matrix - assembled.matrix)):.2e}")

# --- completeness over a full pre-selection basis ---------------------------
joint = hermitian_exponential(tensor_product(SIGMA_Z, SIGMA_X), -1.3j)
residual = potent_completeness_residual(joint, AMPLIFICATION_PHI / np.linalg.norm(AMPLIFICATION_PHI),
                                        np.eye(2, dtype=complex))
print(f"\ncompleteness identity residual for U = exp(-1.3 i sigma_z x sigma_x): "
      f"{residual:.2e}")
