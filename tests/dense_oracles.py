"""Dense reference operators that the package itself never builds."""

from dataclasses import dataclass

import numpy as np

from potentops.linalg import evolution_operators
from potentops.meters import GaussianPointer


@dataclass(frozen=True)
class MomentumOperator:
    pointer: GaussianPointer
    matrix: np.ndarray


def momentum_operator(pointer: GaussianPointer) -> MomentumOperator:
    """Dense spectral momentum P = F^dag diag(p_m) F on the periodic grid,
    made exactly Hermitian as (P + P^dag)/2, on the pointer's grid.

    Plane waves on the momentum lattice are exact eigenvectors, so
    exp(-i c P) translates grid functions by exactly c (modulo the period).
    The pointer engine evolves in momentum space instead; this O(N^2) matrix
    is the dense route the tests check that evolution against.
    """
    n = pointer.grid_size
    j = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    matrix = (f.conj().T * pointer.momentum_lattice) @ f
    return MomentumOperator(pointer=pointer, matrix=(matrix + matrix.conj().T) / 2)


def family_branches(family) -> np.ndarray:
    """The (n, d, d) branches exp(-i H(a_i) T) of an EvolutionFamily, by one Pade
    call on its stacked generators: a route that shares no eigh with the spectrum
    the family keeps, which superposed_evolution reads."""
    stack = np.array([family.generator(a) for a in family.parameters])
    return evolution_operators(stack, [family.duration])[0]
