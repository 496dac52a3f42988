"""Seeded random states, Hermitian matrices, unitaries, and projector
decompositions, used by the randomized invariant checks and the CLI's
seeded scenarios."""

from __future__ import annotations

import numpy as np

SELECTION_FLOOR = 1e-6
# random_selection's least acceptance probability: 1/MIN_ACCEPTANCE draws of 13-25 us
# (dim 2-147, 2 vCPUs) take under half a minute; dim 256 at floor 0.3 would take days.
MIN_ACCEPTANCE = 1e-6


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    v = complex_gaussian(rng, dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = complex_gaussian(rng, (dim, dim))
    return (m + m.conj().T) / 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with the standard phase fix."""
    return _haar_unitaries(complex_gaussian(rng, (dim, dim)))


def _haar_unitaries(gaussians: np.ndarray) -> np.ndarray:
    """random_unitary's unitary of its gaussian draw, or of each of a stack of draws."""
    q, r = np.linalg.qr(gaussians)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_selection(dim: int, rng: np.random.Generator, floor: float = SELECTION_FLOOR):
    """Random normalized (psi, phi) with |<phi|psi>| >= floor, which a Haar pair meets
    with probability (1 - floor^2)^(dim - 1). Below MIN_ACCEPTANCE, a NaN floor or one
    above 1 included, it refuses before any draw, leaving rng as it was."""
    acceptance = (1.0 - max(floor, 0.0) ** 2) ** (dim - 1) if floor <= 1 else 0.0
    if not acceptance >= MIN_ACCEPTANCE:
        raise ValueError(f"dim {dim} at floor {floor}: a Haar pair meets the floor with "
                         f"probability {acceptance:.1e} < MIN_ACCEPTANCE {MIN_ACCEPTANCE:.0e}")
    while True:
        psi, phi = random_state(dim, rng), random_state(dim, rng)
        if abs(np.vdot(phi, psi)) >= floor:
            return psi, phi


def random_projector_decomposition(dim: int, n_blocks: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Mutually orthogonal projectors summing to the identity.

    Block sizes are a random composition of dim into n_blocks nonempty parts,
    on subspaces drawn from a Haar-random frame.
    """
    if not 1 <= n_blocks <= dim:
        raise ValueError(f"cannot split dim {dim} into {n_blocks} nonempty blocks")
    u = random_unitary(dim, rng)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    bounds = [0, *cuts.tolist(), dim]
    projectors = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = u[:, lo:hi]
        projectors.append(block @ block.conj().T)
    return projectors
