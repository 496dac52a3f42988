#!/usr/bin/env python3
"""A post-selected superposition of time evolutions acts like a single
evolution over T' = sum_i c_i T_i -- which can be zero or negative.

A control register pre-selected along the coefficients and post-selected on
the uniform superposition turns sum_i c_i exp(-i H T_i) into the potent
operator the meter actually experiences. With c = (2, -1) and T = (1, 2),
the effective duration is T' = 2*1 - 1*2 = 0: the meter comes back to where
it started (for eigenstates exactly, with the post-selection paying the
price through the success norm).
"""

import numpy as np

from potentops import (
    EvolutionFamily,
    SuperpositionSpec,
    TimeTranslationSpec,
    conditional_unitary,
    general_exponential,
    hermitian_exponential,
    potent_time_superposition,
    superposed_evolution,
    tensor_product,
    time_translation_machine,
)
from potentops.pauli import SIGMA_Z
from potentops.sampling import random_state

spec = TimeTranslationSpec(durations=(1.0, 2.0),
                           coefficients=SuperpositionSpec([2.0, -1.0]),
                           hamiltonian=SIGMA_Z)
print(f"design: c = (2, -1), T = (1, 2)  ->  T' = {spec.effective_duration}")

Phi = np.array([1.0, 0.0], dtype=complex)  # sigma_z eigenstate
state, t_prime, fidelity, success = time_translation_machine(spec, Phi)
print(f"\neigenstate meter: fidelity vs exp(-i H T')|Phi> = {fidelity:.12f}")
print(f"success norm = {success:.6f} (post-selection cost: amplitude, not unity)")

rng = np.random.default_rng(1)
Phi_generic = random_state(2, rng)
_, _, fid_generic, _ = time_translation_machine(spec, Phi_generic)
print(f"generic meter state: fidelity = {fid_generic:.6f} (the machine is exact "
      f"only on eigenstates)")

# negative T': evolution toward the past
past = TimeTranslationSpec(durations=(1.0, 3.0),
                           coefficients=SuperpositionSpec([2.0, -1.0]),
                           hamiltonian=SIGMA_Z)
_, t_past, fid_past, _ = time_translation_machine(past, Phi)
print(f"\nc = (2, -1), T = (1, 3): T' = {t_past} (toward the past), "
      f"eigenstate fidelity = {fid_past:.12f}")

# the machine IS a potent operator: the register-controlled branches are one
# product coupling, sum_i |i><i| (x) exp(-i H T_i) = exp(-i diag(T_i) (x) H)
branches = [hermitian_exponential(SIGMA_Z, -1j * t) for t in spec.durations]
controlled = conditional_unitary([np.diag(e) for e in np.eye(2)], branches)
product = general_exponential(tensor_product(np.diag(spec.durations), SIGMA_Z), -1j)
print(f"\nsum_i |i><i| (x) exp(-i H T_i) vs exp(-i diag(T_i) (x) H): "
      f"{np.max(np.abs(controlled - product)):.2e}")
op = potent_time_superposition(branches, spec.coefficients)
direct = 2 * hermitian_exponential(SIGMA_Z, -1j) - hermitian_exponential(SIGMA_Z, -2j)
print(f"\npotent-operator route vs direct coefficient sum: "
      f"{np.max(np.abs(op.matrix - direct)):.2e}")

# superposing different Hamiltonians reaches effective parameters outside
# the family range: c = (2, -1) over a in (0.1, 0.2) acts like a' ~ 0
family = EvolutionFamily(parameters=(0.1, 0.2), generator=lambda a: a * SIGMA_Z,
                         duration=1.0)
fam_spec = SuperpositionSpec(np.array([2.0, -1.0]))
fam_op = potent_time_superposition(family.branch_unitaries(), fam_spec)
out, norm_out = superposed_evolution(family, fam_spec, Phi)
print(f"\nfamily a = (0.1, 0.2), c = (2, -1): effective a' = sum c_i a_i = 0.0,")
print(f"potent route vs direct: {np.max(np.abs(fam_op.apply(Phi) - out)):.2e}")
