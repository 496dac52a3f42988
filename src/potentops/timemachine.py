"""Superpositions of time evolutions realized as potent operators, and the
post-selected time-translation machine (effective evolution over
T' = sum_i c_i T_i, which may be zero or negative)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    ZERO_NORM_TOL,
    as_operator,
    as_state,
    require_hermitian,
    require_normalized,
)
from .pps import (
    PotentOperator,
    PrePostSelection,
    conditional_unitary,
    diagonal_potent_operator,
    potent_operator,
)

# Complex entries one stacked eigendecomposition of the fit scan may hold
# (16 MiB); a longer scan is split into chunks of this size.
SCAN_STACK_ENTRIES = 2**20
BRACKET_TOL = 1e-12  # relative bracket width that ends the fit's zoom
WEAK_SUM_TOL = 1e-12  # |sum_i c_i - 1|; the c_i are the register's clock weak values


@dataclass(frozen=True)
class EvolutionFamily:
    """Hamiltonians H(a_i) indexed by real parameters, each applied for the
    same duration T. Repeated parameters are allowed (a degenerate family
    collapses to a single evolution). Each H(a_i) is evaluated once; their stack is
    guarded and diagonalized by one ``eigh``, kept as ``_spectrum`` for every use."""

    parameters: tuple
    generator: Callable[[float], np.ndarray]
    duration: float
    _spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params = tuple(float(a) for a in self.parameters)
        if len(params) == 0:
            raise ValueError("need at least one parameter")
        if not 0 <= self.duration < np.inf:
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")
        hs = [np.asarray(self.generator(a)) for a in params]
        shape = hs[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"H({params[0]}) has shape {shape}, not a square matrix")
        for a, h in zip(params, hs):
            if h.shape != shape:
                raise ValueError(f"H({a}) has shape {h.shape}, H({params[0]}) has shape {shape}")
        stack = np.array(hs, dtype=complex)
        del hs  # one copy of the generators lives through eigh: the fit scan's memory bound
        require_hermitian(stack, name=(f"H({a})" for a in params))  # formatted on refusal only
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "_spectrum", np.linalg.eigh(stack))

    def branch_unitaries(self) -> np.ndarray:
        """The (n, d, d) exp(-i H(a_i) T) from the kept spectrum, for potent_time_superposition."""
        energies, v = self._spectrum
        phases = np.exp(-1j * self.duration * energies)
        return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class SuperpositionSpec:
    """Superposition coefficients with the sum-to-one convention that makes
    the post-selected construction reproduce sum_i c_i U_i exactly."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        total = complex(np.sum(c))
        if not abs(total - 1.0) <= WEAK_SUM_TOL:
            raise ValueError(f"coefficients sum to {total}, not 1")
        object.__setattr__(self, "coefficients", c)

    def __len__(self) -> int:
        return self.coefficients.size

    @cached_property
    def register_selection(self) -> PrePostSelection:
        """The control register pre-selected along c and post-selected uniform,
        so that <|i><i|>_w = c_i; built on first use and kept."""
        n = len(self)
        return PrePostSelection(psi=self.coefficients / np.linalg.norm(self.coefficients),
                                phi=np.ones(n, dtype=complex) / np.sqrt(n))


@dataclass(frozen=True)
class TimeTranslationSpec:
    """One Hamiltonian run for durations T_i, superposed with coefficients c_i. T' = sum_i c_i T_i,
    the register clock's weak value, must be real; it and H's eigh are computed once and kept."""

    durations: tuple
    coefficients: SuperpositionSpec
    hamiltonian: np.ndarray
    effective_duration: float = field(init=False)
    _spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ts = tuple(float(t) for t in self.durations)
        if not all(np.isfinite(ts)):
            raise ValueError(f"durations must be finite, got {ts}")
        if len(ts) != len(self.coefficients):
            raise ValueError(f"{len(ts)} durations but {len(self.coefficients)} coefficients")
        object.__setattr__(self, "durations", ts)
        object.__setattr__(self, "hamiltonian", require_hermitian(as_operator(self.hamiltonian), "H"))
        total = complex(np.dot(self.coefficients.coefficients, ts))
        if not abs(total.imag) <= 1e-12:
            raise ValueError(f"effective duration {total} is not real")
        object.__setattr__(self, "effective_duration", total.real)
        object.__setattr__(self, "_spectrum", np.linalg.eigh(self.hamiltonian))


def superposed_evolution(family: EvolutionFamily, spec: SuperpositionSpec, Phi: np.ndarray):
    """sum_i c_i exp(-i H(a_i) T)|Phi>, unnormalized, plus its norm (whose square is the
    probability cost of realizing the superposition by post-selection). It is read from the
    family's kept spectrum as sum_i c_i V_i (e^{-i T lam_i} o V_i^dag Phi): n d^2, no exponential.
    """
    if len(spec) != len(family.parameters):
        raise ValueError(f"{len(family.parameters)} parameters but {len(spec)} coefficients")
    Phi = require_normalized(Phi, "Phi")
    energies, v = family._spectrum
    if v.shape[-1] != Phi.size:
        raise ValueError(f"H({family.parameters[0]}) has shape {v.shape[1:]}, "
                         f"Phi has shape {Phi.shape}")
    amps = np.exp(-1j * family.duration * energies) * (Phi @ v.conj())  # one row per branch
    state = spec.coefficients @ (v @ amps[..., None])[..., 0]
    return state, float(np.linalg.norm(state))


def potent_time_superposition(branches, spec: SuperpositionSpec) -> PotentOperator:
    """Realize sum_i c_i U_i, for branch unitaries U_i given as a list or an
    (n, d, d) stack, as the potent operator of the system-controlled unitary
    sum_i |i><i| (x) U_i on a control register pre-selected along the
    coefficients and post-selected on the uniform superposition.

    For that selection <|i><i|>_w = c_i / sum_j c_j = c_i (Aharonov, Anandan,
    Popescu and Vaidman, PRL 64, 2965 (1990)). The selection ratio is scale
    invariant, so normalizing the pre-selected state still reproduces the
    coefficient sum exactly (this is where sum_i c_i = 1 matters).
    """
    if len(branches) != len(spec):
        raise ValueError(f"{len(branches)} branches but {len(spec)} coefficients")
    n = len(spec)
    register = np.eye(n)[:, :, None] * np.eye(n)[:, None, :]  # the projectors |i><i|
    return potent_operator(conditional_unitary(register, branches), spec.register_selection)


def effective_parameter_fit(family: EvolutionFamily, spec: SuperpositionSpec,
                            Phi: np.ndarray, interval):
    """Search for the single parameter a' whose evolution best matches the
    superposed one, maximizing |<Phi_target(a')|Phi_super>| over the interval.

    A 1000-point scan brackets the optimum, then the fit zooms: it re-scans
    the bracket [grid[best-1], grid[best+1]] at 17 points, which cuts it by 8,
    until the bracket is narrower than BRACKET_TOL * max(1, |lo|, |hi|), and
    returns the best scanned point. When the magnitude objective of the first
    scan is flat (phase-only action, e.g. eigenstate meters), every scan ranks
    by the real part of the overlap instead, which picks the a' whose phase
    matches; the reported fidelity is still the phase-invariant magnitude. No
    claim that the fidelity is near 1 in general.

    Every scan reads the overlaps, by :func:`_target_overlaps`, from the kept
    spectrum of one EvolutionFamily per chunk of ``SCAN_STACK_ENTRIES`` complex
    entries, so peak memory grows with d^2 times the chunk, not the grid. A
    generator that is not Hermitian, not finite or not d x d at any scan point
    is refused with a ValueError naming that a.
    """
    a_lo, a_hi = (float(interval[0]), float(interval[1]))
    if not (np.isfinite(a_lo) and np.isfinite(a_hi) and a_hi > a_lo):
        raise ValueError(f"bad search interval [{a_lo}, {a_hi}]")
    state, success = superposed_evolution(family, spec, Phi)
    if success <= ZERO_NORM_TOL:
        raise ValueError("superposed state is numerically zero; nothing to fit")
    super_state = state / success
    Phi = as_state(Phi)

    grid = np.linspace(a_lo, a_hi, 1000)
    overlaps = _target_overlaps(family, grid, Phi, super_state)
    mags = np.abs(overlaps)
    score = np.real if mags.max() - mags.min() <= 1e-12 else np.abs
    while True:
        best = int(np.argmax(score(overlaps)))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        if hi - lo <= BRACKET_TOL * max(1.0, abs(lo), abs(hi)):
            return float(grid[best]), float(abs(overlaps[best]))
        grid = np.linspace(lo, hi, 17)
        overlaps = _target_overlaps(family, grid, Phi, super_state)


def _target_overlaps(family: EvolutionFamily, parameters, Phi: np.ndarray,
                     super_state: np.ndarray) -> np.ndarray:
    """<exp(-i H(a) T) Phi | super_state> for every a in parameters, read from the kept
    spectrum of one EvolutionFamily per chunk of at most SCAN_STACK_ENTRIES complex entries:
    with H(a) = V diag(lam) V^dag it is sum_k conj((V^dag Phi)_k) e^{+i T lam_k}
    (V^dag super_state)_k, so no d x d exponential is formed."""
    chunk = max(1, SCAN_STACK_ENTRIES // Phi.size**2)
    overlaps = []
    for i in range(0, len(parameters), chunk):
        part = EvolutionFamily(parameters[i:i + chunk], family.generator, family.duration)
        energies, v = part._spectrum
        if v.shape[-1] != Phi.size:
            raise ValueError(f"H({part.parameters[0]}) has shape {v.shape[1:]}, "
                             f"Phi has shape {Phi.shape}")
        bra = Phi.conj() @ v                    # conj(V^dag Phi), one row per a
        ket = (super_state.conj() @ v).conj()   # V^dag super_state
        overlaps.append(np.sum(bra * np.exp(1j * family.duration * energies) * ket, axis=1))
        del part, energies, v  # freed before the next chunk's family is built
    return np.concatenate(overlaps)


def time_translation_machine(spec: TimeTranslationSpec, Phi: np.ndarray):
    """Superpose evolutions of one Hamiltonian over durations T_i.

    Returns (unnormalized state, T', fidelity against exp(-i H T')|Phi>,
    success norm). T' = sum_i c_i T_i may be negative: post-selection can
    steer the meter toward its past.

    sum_i |i><i| (x) exp(-i H T_i) = exp(-i diag(T_i) (x) H): the machine is
    the potent operator of one product coupling at g = 1, with clock weights
    <|i><i|>_w = c_i. In H's eigenbasis that is diagonal_potent_operator(T,
    c, 1, E), and the spec's kept spectrum of H also gives the target exp(-i H T').
    """
    Phi = require_normalized(Phi, "Phi")
    if spec.hamiltonian.shape[1] != Phi.size:
        raise ValueError(f"H has shape {spec.hamiltonian.shape}, Phi has shape {Phi.shape}")
    t_eff = spec.effective_duration
    energies, vecs = spec._spectrum
    amps = vecs.conj().T @ Phi
    state = diagonal_potent_operator(spec.durations, spec.coefficients.coefficients, 1.0,
                                     energies) * amps
    success = float(np.linalg.norm(state))
    if success <= ZERO_NORM_TOL:
        raise ValueError("superposed state is numerically zero")
    fid = float(abs(np.vdot(np.exp(-1j * t_eff * energies) * amps, state)) / success)
    return vecs @ state, t_eff, fid, success
