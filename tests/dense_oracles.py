"""Dense reference operators that the package itself never builds."""

from dataclasses import dataclass

import numpy as np

from potentops.meters import Grid


@dataclass(frozen=True)
class MomentumOperator:
    grid: Grid
    matrix: np.ndarray


def momentum_operator(grid: Grid) -> MomentumOperator:
    """Dense spectral momentum P = F^dag diag(p_m) F on the periodic grid,
    made exactly Hermitian as (P + P^dag)/2.

    Plane waves on the momentum lattice are exact eigenvectors, so
    exp(-i c P) translates grid functions by exactly c (modulo the period).
    The pointer engine evolves in momentum space instead; this O(N^2) matrix
    is the dense route the tests check that evolution against.
    """
    n = grid.grid_size
    j = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    matrix = (f.conj().T * grid.momentum_lattice) @ f
    return MomentumOperator(grid=grid, matrix=(matrix + matrix.conj().T) / 2)
