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
        object.__setattr__(self, "A", require_hermitian(as_operator(self.A), name="A"))
        object.__setattr__(self, "P", require_hermitian(as_operator(self.P), name="P"))

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


def weak_value(A: np.ndarray, sel: PrePostSelection):
    """<phi|A|psi> / <phi|psi>; complex in general, unbounded by A's spectrum.
    An (n, d, d) stack of A gives an array of n weak values."""
    A = linalg._as_square_stack(A)
    if A.shape[-1] != sel.dim:
        raise ValueError(f"operator dim {A.shape[-1]} != selection dim {sel.dim}")
    numerator = (sel.phi.conj() @ (A @ sel.psi)[..., None])[..., 0]  # summed as np.vdot sums
    return numerator / sel.overlap if A.ndim > 2 else complex(numerator) / sel.overlap


def spectral_weights(A: np.ndarray, sel: PrePostSelection):
    """(lam, w) from one eigendecomposition of Hermitian A: its eigenvalues and
    the weak values w_n = <phi|v_n><v_n|psi> / <phi|psi> of its eigenprojectors.
    The potent operator of exp(-i g A (x) P) is sum_n w_n exp(-i g lam_n P).
    An (n, d, d) stack of A takes one guard and one eigh, giving (n, d) arrays."""
    A = require_hermitian(A, name="A")
    if A.shape[-1] != sel.dim:
        raise ValueError(f"operator dim {A.shape[-1]} != selection dim {sel.dim}")
    lam, vecs = np.linalg.eigh(A)
    return lam, (sel.phi.conj() @ vecs) * (vecs.conj().swapaxes(-1, -2) @ sel.psi) / sel.overlap


def diagonal_potent_operator(lam: np.ndarray, w: np.ndarray, g, p) -> np.ndarray:
    """Diagonal of the potent operator of exp(-i g A (x) P) for a diagonal P
    with entries p, from the :func:`spectral_weights` (lam, w) of A: entry k
    is sum_n w_n exp(-i g lam_n p_k). At p = 1 this is the modular value. A vector
    of couplings g and stacked (..., d) (lam, w) broadcast: one diagonal each."""
    lam, w, g = np.asarray(lam), np.asarray(w), np.asarray(g)[..., None, None]
    phases = np.exp(-1j * g * (np.asarray(p)[:, None] * lam[..., None, :]))
    return (phases @ w[..., None])[..., 0]


def modular_value(A: np.ndarray, g, sel: PrePostSelection):
    """<phi|exp(-i g A)|psi> / <phi|psi> for Hermitian A. An (n, d, d) stack
    of A or a vector of couplings g gives an array of modular values."""
    value = diagonal_potent_operator(*spectral_weights(A, sel), g, [1.0])[..., 0]
    return complex(value) if value.ndim == 0 else value


def joint_evolve_and_postselect(U: np.ndarray, psi: np.ndarray, Phi: np.ndarray,
                                phi: np.ndarray, check_unitary: bool = True):
    """Evolve |psi>(x)|Phi> under U and project the system onto <phi|.

    Returns the unnormalized apparatus state (<phi| (x) I) U (|psi> (x) |Phi>)
    and its squared norm, the exact post-selection probability. This is the
    oracle every reduction in the package is checked against. U may also be
    an (n, D, D) stack of joints, giving an (n, da) array of states and an
    array of n probabilities; a stack is refused by its first non-unitary joint.
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
        require_unitary(U, name="joint evolution")
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
    _, p_exact = joint_evolve_and_postselect(  # it guards psi, phi and Phi
        coupling.joint_unitary(), sel.psi, Phi, sel.phi, check_unitary=False)
    p_expect = float(np.vdot(Phi, coupling.P @ Phi).real)
    a_w = weak_value(coupling.A, sel)
    p_first_order = abs(sel.overlap) ** 2 * (1.0 + 2.0 * coupling.g * a_w.imag * p_expect)
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
    return list(np.einsum("ak,satb,b->kst", basis.conj(), u4, Phi))


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
    scale = -1j * coupling.g * weak_value(coupling.A, sel)  # -i g A_w
    meter_amps = basis.conj().T @ Phi
    p_amps = basis.conj().T @ (coupling.P @ Phi)
    values = np.zeros(basis.shape[1], dtype=complex)
    significant = np.abs(meter_amps) > 1e-12
    p_w = p_amps[significant] / meter_amps[significant]
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below refuses
        values[significant] = meter_amps[significant] * np.exp(scale * p_w)
        state = hermitian_exponential(coupling.P, scale) @ Phi
    if not (np.isfinite(np.linalg.norm(state)) and np.all(np.isfinite(values))):
        raise ValueError("weak-limit values overflow a double: g*|Im A_w| times the "
                         "spectral extent of P is too large")
    return values, normalize(state)


def potent_operator(U: np.ndarray, sel: PrePostSelection) -> PotentOperator:
    """<phi|U|psi> / <phi|psi> as an operator on the apparatus factor."""
    return PotentOperator(matrix=partial_matrix_element(U, sel.phi, sel.psi) / sel.overlap)


def potent_completeness_residual(U: np.ndarray, phi: np.ndarray, basis: np.ndarray):
    """Deviation from sum_n |<phi|psi_n>|^2 U_P(phi|psi_n) U_P(phi|psi_n)^dag = I.

    Each term is evaluated in the overlap-free form <phi|U|psi_n><psi_n|U^dag|phi>,
    so orthogonal selections contribute cleanly. Returns the max-entry residual,
    <= 1e-10 for any unitary U and complete orthonormal {psi_n}, or an array of
    them for a (..., D, D) stack of U with a (..., ds) stack of phi.
    """
    U = require_unitary(U, name="joint evolution")
    phi = require_normalized(phi, "phi")
    basis = require_orthonormal_basis(basis)
    ds = basis.shape[-1]
    if phi.shape[-1] != ds:
        raise ValueError(f"phi dim {phi.shape[-1]} != basis dim {ds}")
    da = U.shape[-1] // ds
    if ds * da != U.shape[-1]:
        raise ValueError(f"joint dim {U.shape[-1]} not divisible by system dim {ds}")
    # every M_n = <phi|U|psi_n> in one contraction; the terms add in basis order
    u5 = U.reshape(*U.shape[:-2], ds, da, ds, da)
    m = np.einsum("...s,...satb,...tn->...nab", phi.conj(), u5, basis)
    total = (m @ m.conj().swapaxes(-1, -2)).sum(axis=-3)
    return linalg._max_abs_per_matrix(total - np.eye(da))


def _require_projector_decomposition(projectors, dim: int, name: str) -> np.ndarray:
    """The projectors as one (n, dim, dim) stack: Hermitian, P_i P_j = delta_ij P_i, sum I."""
    projs = [as_operator(p) for p in projectors]
    if not projs:
        raise ValueError(f"{name}: need at least one projector")
    wrong = [p.shape[0] for p in projs if p.shape[0] != dim]
    if wrong:
        raise ValueError(f"{name}: projector dim {wrong[0]} != {dim}")
    projs = np.array(projs)
    if not np.all(linalg.hermiticity_defect(projs) <= PROJECTOR_TOL):
        raise ValueError(f"{name}: projector is not Hermitian")
    products = projs[:, None] @ projs[None, :]
    products[np.diag_indices(len(projs))] -= projs
    violations = np.argwhere(~(np.abs(products).max(axis=(-2, -1)) <= PROJECTOR_TOL))
    if violations.size:
        i, j = violations[0]
        raise ValueError(f"{name}: projectors {i},{j} violate P_i P_j = delta_ij P_i")
    if not np.max(np.abs(np.sum(projs, axis=0) - np.eye(dim))) <= PROJECTOR_TOL:
        raise ValueError(f"{name}: projectors do not sum to the identity")
    return projs


def potent_operator_system_controlled(projectors, unitaries, sel: PrePostSelection):
    """Potent operator of U = sum_n Pi_n (x) U_n: the weak values of the
    control projectors weight the branch unitaries.

    Returns (PotentOperator, array of <Pi_n>_w). The weak values of a complete
    projector family sum to 1; that is verified here to the bound
    d PROJECTOR_TOL |phi||psi| / |<phi|psi>| that the projector guard implies.
    """
    projs = _require_projector_decomposition(projectors, sel.dim, "system projectors")
    unis = [as_operator(u) for u in unitaries]
    if len(unis) != len(projs):
        raise ValueError(f"{len(projs)} projectors but {len(unis)} unitaries")
    if any(u.shape != unis[0].shape for u in unis):
        raise ValueError("apparatus unitaries must share one dimension")
    unis = require_unitary(np.array(unis), name=[f"U_{n}" for n in range(len(unis))])
    weak_vals = weak_value(projs, sel)
    total = np.sum(weak_vals)
    # |total - 1| = |<phi|E|psi>| / |<phi|psi>| for E = sum_n Pi_n - I, whose
    # entries the projector guard holds within PROJECTOR_TOL
    bound = sel.dim * PROJECTOR_TOL * np.linalg.norm(sel.phi) * np.linalg.norm(sel.psi)
    if not abs(total - 1.0) <= bound / abs(sel.overlap):
        raise ValueError(f"projector weak values sum to {total}, not 1")
    return PotentOperator(matrix=np.einsum("n,nab->ab", weak_vals, unis)), weak_vals


def potent_operator_apparatus_controlled(generators, projectors, lam: float,
                                         sel: PrePostSelection):
    """Potent operator of U = sum_n exp(-i lam A_n) (x) P_n: the modular values
    of the branch generators weight the apparatus projectors.

    Returns (PotentOperator, array of <A_n>_M); modular_value guards the A_n, as A[n].
    """
    gens = [as_operator(a) for a in generators]
    if any(a.shape[0] != sel.dim for a in gens):
        raise ValueError("system generators must match the selection dimension")
    if not projectors:
        raise ValueError("need at least one apparatus projector")
    da = as_operator(projectors[0]).shape[0]
    projs = _require_projector_decomposition(projectors, da, "apparatus projectors")
    if len(gens) != len(projs):
        raise ValueError(f"{len(projs)} projectors but {len(gens)} generators")
    modular_vals = modular_value(np.array(gens), lam, sel)
    return PotentOperator(matrix=np.einsum("n,nab->ab", modular_vals, projs)), modular_vals


def conditional_unitary(system_factors, apparatus_factors) -> np.ndarray:
    """Assemble sum_n S_n (x) M_n on the joint space: Pi_n (x) U_n for a
    system-controlled unitary, exp(-i lam A_n) (x) P_n for an
    apparatus-controlled one. Either may be a list or an (n, d, d) stack."""
    return np.sum(tensor_product(system_factors, apparatus_factors), axis=0)
