"""Weak values, modular values, potent values, and potent operators for
pre- and post-selected systems.

Every reduction in this module (weak-coupling limit, qubit-meter formulas,
conditional-unitary forms) can be cross-checked against
:func:`joint_evolve_and_postselect`, the brute-force evolve-then-project
oracle. The tests do exactly that; nothing here trusts a shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import (
    as_operator,
    as_state,
    hermitian_exponential,
    normalize,
    partial_matrix_element,
    require_hermitian,
    require_normalized,
    require_orthonormal_basis,
    require_unitary,
    tensor_product,
)

EPS_OVERLAP = 1e-10
PROJECTOR_TOL = 1e-10


class OrthogonalSelectionError(ValueError):
    """Pre- and post-selected states are (numerically) orthogonal, so
    selection-conditioned values are undefined."""


@dataclass(frozen=True)
class PrePostSelection:
    """A pre-selected state psi and post-selected state phi on the system.

    Neither state needs to be normalized: all selection-conditioned values are
    invariant under rescaling of psi or phi. Construction fails when the
    normalized overlap |<phi|psi>| / (|phi| |psi|) is at most EPS_OVERLAP,
    where amplified values stop being numerically meaningful, and when either
    state has a non-finite entry.
    """

    psi: np.ndarray
    phi: np.ndarray
    overlap: complex = field(init=False)

    def __post_init__(self):
        psi, phi = as_state(self.psi), as_state(self.phi)
        if psi.size != phi.size:
            raise ValueError(f"psi dim {psi.size} != phi dim {phi.size}")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)
        ov = complex(np.vdot(phi, psi))
        norms = float(np.linalg.norm(phi) * np.linalg.norm(psi))
        if not np.isfinite(norms):
            raise ValueError(f"psi and phi must be finite (|phi||psi| = {norms})")
        if abs(ov) <= EPS_OVERLAP * norms:
            cosine = abs(ov) / norms if norms > 0 else 0.0
            raise OrthogonalSelectionError(
                f"|<phi|psi>|/(|phi||psi|) = {cosine:.3e} <= {EPS_OVERLAP:.1e}; "
                "weak/modular/potent values need non-orthogonal selections"
            )
        object.__setattr__(self, "overlap", ov)

    @property
    def dim(self) -> int:
        return self.psi.size


@dataclass(frozen=True)
class CouplingSpec:
    """Impulsive coupling g * A (x) P between a system observable A and an
    apparatus observable P."""

    g: float
    A: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.g):
            raise ValueError("coupling strength g must be finite")
        object.__setattr__(self, "A", require_hermitian(self.A, name="A"))
        object.__setattr__(self, "P", require_hermitian(self.P, name="P"))

    def joint_unitary(self) -> np.ndarray:
        """exp(-i g A (x) P) on the system-major joint space."""
        return hermitian_exponential(tensor_product(self.A, self.P), -1j * self.g)


@dataclass(frozen=True)
class PotentValueSet:
    """The complex coefficients the selected system imprints on the apparatus,
    one per apparatus basis vector."""

    basis: np.ndarray          # columns are the apparatus basis vectors
    values: np.ndarray


@dataclass(frozen=True)
class PotentOperator:
    """<phi|U|psi>/<phi|psi>: the generally non-unitary operator the selected
    system applies to the apparatus."""

    matrix: np.ndarray

    def apply(self, Phi: np.ndarray) -> np.ndarray:
        return self.matrix @ as_state(Phi)


def weak_value(A: np.ndarray, sel: PrePostSelection) -> complex:
    """<phi|A|psi> / <phi|psi>; complex in general, unbounded by A's spectrum."""
    A = as_operator(A)
    if A.shape[0] != sel.dim:
        raise ValueError(f"operator dim {A.shape[0]} != selection dim {sel.dim}")
    return complex(np.vdot(sel.phi, A @ sel.psi)) / sel.overlap


def spectral_weights(A: np.ndarray, sel: PrePostSelection):
    """(lam, w) from one eigendecomposition of Hermitian A: its eigenvalues and
    the weak values w_n = <phi|v_n><v_n|psi> / <phi|psi> of its eigenprojectors.
    The potent operator of exp(-i g A (x) P) is sum_n w_n exp(-i g lam_n P)."""
    A = require_hermitian(A, name="A")
    if A.shape[0] != sel.dim:
        raise ValueError(f"operator dim {A.shape[0]} != selection dim {sel.dim}")
    lam, vecs = np.linalg.eigh(A)
    return lam, (sel.phi.conj() @ vecs) * (vecs.conj().T @ sel.psi) / sel.overlap


def diagonal_potent_operator(lam: np.ndarray, w: np.ndarray, g: float, p) -> np.ndarray:
    """Diagonal of the potent operator of exp(-i g A (x) P) for a diagonal P
    with entries p, from the :func:`spectral_weights` (lam, w) of A: entry k
    is sum_n w_n exp(-i g lam_n p_k). At p = 1 this is the modular value."""
    return np.exp(-1j * g * np.outer(p, lam)) @ w


def modular_value(A: np.ndarray, g: float, sel: PrePostSelection) -> complex:
    """<phi|exp(-i g A)|psi> / <phi|psi> for Hermitian A."""
    return complex(diagonal_potent_operator(*spectral_weights(A, sel), g, [1.0])[0])


def joint_evolve_and_postselect(U: np.ndarray, psi: np.ndarray, Phi: np.ndarray,
                                phi: np.ndarray, check_unitary: bool = True):
    """Evolve |psi>(x)|Phi> under U and project the system onto <phi|.

    Returns the unnormalized apparatus state (<phi| (x) I) U (|psi> (x) |Phi>)
    and its squared norm, the exact post-selection probability. This is the
    oracle every reduction in the package is checked against. U may also be
    an (n, D, D) stack of joints, giving an (n, da) array of states and an
    array of n probabilities; each joint of a stack is checked for unitarity.
    """
    U = np.asarray(U, dtype=complex)
    psi = require_normalized(psi, "psi")
    phi = require_normalized(phi, "phi")
    Phi = require_normalized(Phi, "Phi")
    ds, da = psi.size, Phi.size
    if phi.size != ds:
        raise ValueError(f"phi dim {phi.size} != psi dim {ds}")
    if U.ndim not in (2, 3) or U.shape[-2:] != (ds * da, ds * da):
        raise ValueError(f"joint shape {U.shape} is not ({ds} * {da})^2 or a stack of those")
    if check_unitary:
        for u in U.reshape(-1, ds * da, ds * da):
            require_unitary(u, name="joint evolution")
    evolved = (U @ tensor_product(psi, Phi)).reshape(*U.shape[:-2], ds, da)
    apparatus = phi.conj() @ evolved
    if U.ndim == 3:
        return apparatus, np.linalg.norm(apparatus, axis=-1) ** 2
    return apparatus, float(np.linalg.norm(apparatus) ** 2)


def postselection_probability_weak(coupling: CouplingSpec, sel: PrePostSelection,
                                   Phi: np.ndarray):
    """First-order and exact post-selection probabilities for exp(-i g A (x) P).

    The first-order formula is |<phi|psi>|^2 (1 + 2 g Im(A_w) <P>), with
    <P> = <Phi|P|Phi>.
    """
    psi = require_normalized(sel.psi, "psi")
    phi = require_normalized(sel.phi, "phi")
    Phi = require_normalized(Phi, "Phi")
    p_expect = float(np.vdot(Phi, coupling.P @ Phi).real)
    a_w = weak_value(coupling.A, sel)
    ov2 = abs(sel.overlap) ** 2
    p_first_order = ov2 * (1.0 + 2.0 * coupling.g * a_w.imag * p_expect)
    _, p_exact = joint_evolve_and_postselect(
        coupling.joint_unitary(), psi, Phi, phi, check_unitary=False)
    return p_first_order, p_exact


def kraus_slices(U: np.ndarray, Phi: np.ndarray, basis: np.ndarray) -> list[np.ndarray]:
    """System-side slices <k|U|Phi> over a complete orthonormal apparatus basis.

    For unitary U they satisfy sum_k A_k^dag A_k = I.
    """
    U = as_operator(U)
    Phi = require_normalized(Phi, "Phi")
    basis = require_orthonormal_basis(basis)
    da = basis.shape[0]
    if Phi.size != da:
        raise ValueError(f"Phi dim {Phi.size} != basis dim {da}")
    if U.shape[0] % da != 0:
        raise ValueError(f"joint dim {U.shape[0]} not divisible by apparatus dim {da}")
    ds = U.shape[0] // da
    u4 = U.reshape(ds, da, ds, da)
    stacked = np.einsum("ak,satb,b->kst", basis.conj(), u4, Phi)
    return list(stacked)


def potent_values(U: np.ndarray, Phi: np.ndarray, basis: np.ndarray,
                  sel: PrePostSelection) -> PotentValueSet:
    """<phi|A_k|psi> / <phi|psi> for every Kraus slice A_k = <k|U|Phi>."""
    slices = np.asarray(kraus_slices(U, Phi, basis))
    if slices.shape[1] != sel.dim:
        raise ValueError(f"system dim {slices.shape[1]} != selection dim {sel.dim}")
    values = np.einsum("s,kst,t->k", sel.phi.conj(), slices, sel.psi) / sel.overlap
    return PotentValueSet(basis=np.asarray(basis, dtype=complex), values=values)


def apparatus_state_from_potent_values(pvs: PotentValueSet) -> np.ndarray:
    """Normalized apparatus state sum_k value_k |k>, phase-canonicalized."""
    state = pvs.basis @ pvs.values
    if np.linalg.norm(pvs.values) <= linalg.ZERO_NORM_TOL:
        raise ValueError("all potent values vanish: post-selection probability is zero")
    return normalize(state)


def weak_limit_potent_values(coupling: CouplingSpec, Phi: np.ndarray, basis: np.ndarray,
                             sel: PrePostSelection):
    """First-order-in-g approximations to the potent values and final state.

    Per basis vector: <k|Phi> * exp(-i g A_w P_w(k|Phi)), where P_w(k|Phi) is
    the weak value of P pre-selected on Phi and post-selected on |k>; basis
    vectors with |<k|Phi>| <= 1e-12 get the value 0 (P_w is undefined there).
    The approximate final state is exp(-i g A_w P)|Phi>, normalized; A_w is
    complex in general so the generator is not anti-Hermitian, but P is
    Hermitian, so its eigendecomposition exponentiates any complex scale.
    """
    Phi = require_normalized(Phi, "Phi")
    basis = require_orthonormal_basis(basis)
    a_w = weak_value(coupling.A, sel)
    meter_amps = basis.conj().T @ Phi
    p_amps = basis.conj().T @ (coupling.P @ Phi)
    values = np.zeros(basis.shape[1], dtype=complex)
    significant = np.abs(meter_amps) > 1e-12
    p_w = p_amps[significant] / meter_amps[significant]
    values[significant] = meter_amps[significant] * np.exp(-1j * coupling.g * a_w * p_w)
    state = hermitian_exponential(coupling.P, -1j * coupling.g * a_w) @ Phi
    if not (np.isfinite(np.linalg.norm(state)) and np.all(np.isfinite(values))):
        raise ValueError("weak-limit values overflow a double: g*|Im A_w| times the "
                         "spectral extent of P is too large")
    return values, normalize(state)


def potent_operator(U: np.ndarray, sel: PrePostSelection) -> PotentOperator:
    """<phi|U|psi> / <phi|psi> as an operator on the apparatus factor."""
    return PotentOperator(matrix=partial_matrix_element(U, sel.phi, sel.psi) / sel.overlap)


def potent_completeness_residual(U: np.ndarray, phi: np.ndarray, basis: np.ndarray) -> float:
    """Deviation from sum_n |<phi|psi_n>|^2 U_P(phi|psi_n) U_P(phi|psi_n)^dag = I.

    Each term is evaluated in the overlap-free form <phi|U|psi_n><psi_n|U^dag|phi>,
    so orthogonal selections contribute cleanly. Returns the max-entry residual,
    which is <= 1e-10 for any unitary U and complete orthonormal {psi_n}.
    """
    U = require_unitary(U, name="joint evolution")
    phi = require_normalized(phi, "phi")
    basis = require_orthonormal_basis(basis)
    ds = basis.shape[0]
    if phi.size != ds:
        raise ValueError(f"phi dim {phi.size} != basis dim {ds}")
    da = U.shape[0] // ds
    if ds * da != U.shape[0]:
        raise ValueError(f"joint dim {U.shape[0]} not divisible by system dim {ds}")
    total = np.zeros((da, da), dtype=complex)
    for n in range(basis.shape[1]):
        m_n = partial_matrix_element(U, phi, basis[:, n])
        total += m_n @ m_n.conj().T
    return float(np.max(np.abs(total - np.eye(da))))


def _require_projector_decomposition(projectors, dim: int, name: str) -> list[np.ndarray]:
    projs = [as_operator(p) for p in projectors]
    if not projs:
        raise ValueError(f"{name}: need at least one projector")
    for p in projs:
        if p.shape[0] != dim:
            raise ValueError(f"{name}: projector dim {p.shape[0]} != {dim}")
        if not linalg.hermiticity_defect(p) <= PROJECTOR_TOL:
            raise ValueError(f"{name}: projector is not Hermitian")
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            product = p @ q
            expected = p if i == j else 0.0
            if not np.max(np.abs(product - expected)) <= PROJECTOR_TOL:
                raise ValueError(f"{name}: projectors {i},{j} violate P_i P_j = delta_ij P_i")
    if not np.max(np.abs(sum(projs) - np.eye(dim))) <= PROJECTOR_TOL:
        raise ValueError(f"{name}: projectors do not sum to the identity")
    return projs


def potent_operator_system_controlled(projectors, unitaries, sel: PrePostSelection):
    """Potent operator of U = sum_n Pi_n (x) U_n: the weak values of the
    control projectors weight the branch unitaries.

    Returns (PotentOperator, list of <Pi_n>_w). The weak values of a complete
    projector family sum to 1; that is verified here to the bound
    d PROJECTOR_TOL |phi||psi| / |<phi|psi>| that the projector guard implies.
    """
    projs = _require_projector_decomposition(projectors, sel.dim, "system projectors")
    unis = [require_unitary(u, name=f"U_{n}") for n, u in enumerate(unitaries)]
    if len(unis) != len(projs):
        raise ValueError(f"{len(projs)} projectors but {len(unis)} unitaries")
    da = unis[0].shape[0]
    if any(u.shape[0] != da for u in unis):
        raise ValueError("apparatus unitaries must share one dimension")
    weak_vals = [weak_value(p, sel) for p in projs]
    total = sum(weak_vals)
    # |total - 1| = |<phi|E|psi>| / |<phi|psi>| for E = sum_n Pi_n - I, whose
    # entries the projector guard holds within PROJECTOR_TOL
    bound = sel.dim * PROJECTOR_TOL * np.linalg.norm(sel.phi) * np.linalg.norm(sel.psi)
    if not abs(total - 1.0) <= bound / abs(sel.overlap):
        raise ValueError(f"projector weak values sum to {total}, not 1")
    return PotentOperator(matrix=sum(w * u for w, u in zip(weak_vals, unis))), weak_vals


def potent_operator_apparatus_controlled(generators, projectors, lam: float,
                                         sel: PrePostSelection):
    """Potent operator of U = sum_n exp(-i lam A_n) (x) P_n: the modular values
    of the branch generators weight the apparatus projectors.

    Returns (PotentOperator, list of <A_n>_M).
    """
    gens = [require_hermitian(a, name=f"A_{n}") for n, a in enumerate(generators)]
    if any(a.shape[0] != sel.dim for a in gens):
        raise ValueError("system generators must match the selection dimension")
    if not projectors:
        raise ValueError("need at least one apparatus projector")
    da = as_operator(projectors[0]).shape[0]
    projs = _require_projector_decomposition(projectors, da, "apparatus projectors")
    if len(gens) != len(projs):
        raise ValueError(f"{len(projs)} projectors but {len(gens)} generators")
    modular_vals = [modular_value(a, lam, sel) for a in gens]
    return PotentOperator(matrix=sum(m * p for m, p in zip(modular_vals, projs))), modular_vals


def conditional_unitary(system_factors, apparatus_factors) -> np.ndarray:
    """Assemble sum_n S_n (x) M_n on the joint space: Pi_n (x) U_n for a
    system-controlled unitary, exp(-i lam A_n) (x) P_n for an
    apparatus-controlled one. Either list may be an (n, d, d) stack."""
    return sum(tensor_product(s, m) for s, m in zip(system_factors, apparatus_factors))
