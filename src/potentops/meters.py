"""Concrete apparatus models: a two-level meter coupled through the |1><1|
projector, and a Gaussian pointer on a periodic position grid whose momentum
operator is diagonal on the FFT lattice (exact translation generator on the
grid, so pointer-shift checks are not polluted by finite-difference error)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .linalg import as_state, fidelity, require_hermitian, tensor_product
from .pps import PrePostSelection, diagonal_potent_operator, spectral_weights, weak_value

# Larger grids are refused before any array is built; the oracle raises one
# lattice-step exponential to every power up to N/2, and its rounding grows
# with the power (about 1e-11 at 2**16 points and g = 2).
GRID_SIZE_CAP = 2 ** 16

# exp(x) overflows a double for x above this.
LOG_DBL_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class QubitMeter:
    """Two-level meter alpha|0> + beta|1>, coupled via the |1><1| projector
    in the sigma_z eigenbasis."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {total!r}, not 1")

    @property
    def state(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def coupling_unitaries(self, A: np.ndarray, gs) -> np.ndarray:
        """exp(-i g A (x) |1><1|) on the system-major joint space for every g
        in gs, as an (n, 2d, 2d) stack from one stacked Pade exponential: the
        qubit-meter oracle, which takes no eigendecomposition."""
        generator = tensor_product(require_hermitian(A, name="A"), pauli.PROJECT_1)
        return linalg._pade_exponential(np.multiply.outer(-1j * np.asarray(gs), generator))

    def coupling_unitary(self, A: np.ndarray, g: float) -> np.ndarray:
        """exp(-i g A (x) |1><1|) at one coupling."""
        return self.coupling_unitaries(A, [g])[0]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic position grid on [x_min, x_max), right endpoint excluded."""

    grid_size: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = self.grid_size
        if n > GRID_SIZE_CAP:
            raise ValueError(f"grid_size {n} exceeds the cap {GRID_SIZE_CAP}")
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"grid_size must be a power of two >= 2, got {n}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.grid_size

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.grid_size)

    @property
    def momentum_lattice(self) -> np.ndarray:
        """2*pi*m / length in FFT ordering."""
        return 2 * np.pi * np.fft.fftfreq(self.grid_size, d=self.dx)


@dataclass(frozen=True)
class GaussianPointer:
    """Gaussian wavepacket exp(-(x - x0)^2 / (4 sigma^2)) on a Grid, normalized
    under the grid inner product sum |Phi|^2 dx = 1."""

    grid: Grid
    sigma: float
    x0: float
    amplitudes: np.ndarray

    @property
    def unit_amplitudes(self) -> np.ndarray:
        """l2-normalized amplitudes, the form joint evolutions consume."""
        return self.amplitudes * np.sqrt(self.grid.dx)


def build_gaussian_pointer(grid_size: int, x_min: float, x_max: float,
                           sigma: float, x0: float) -> GaussianPointer:
    """Construct a grid-normalized Gaussian pointer.

    Rejects packets the grid cannot resolve: sigma must span at least 4 grid
    steps, and the +-6 sigma support must lie inside [x_min, x_max], keeping
    periodic wrap-around (aliasing) below the tolerances this package tests at.
    """
    grid = Grid(grid_size, float(x_min), float(x_max))
    sigma, x0 = float(sigma), float(x0)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if sigma < 4 * grid.dx:
        raise ValueError(f"sigma = {sigma} under-resolved: needs at least 4*dx = {4 * grid.dx}")
    if x0 - 6 * sigma < grid.x_min or x0 + 6 * sigma > grid.x_max:
        raise ValueError("packet support (+-6 sigma) leaves the grid; widen the extent")
    amp = np.exp(-((grid.x - x0) ** 2) / (4 * sigma ** 2)).astype(complex)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx)
    return GaussianPointer(grid=grid, sigma=sigma, x0=x0, amplitudes=amp)


def pointer_statistics(state: np.ndarray, grid: Grid):
    """(mean position, position variance, mean momentum) of a grid state.

    Probability weights are renormalized internally, so grid-normalized and
    l2-normalized amplitudes give identical statistics. The momentum mean is
    computed in Fourier space.
    """
    state = as_state(state)
    if state.size != grid.grid_size:
        raise ValueError(f"state dim {state.size} != grid size {grid.grid_size}")
    mean_x, var_x = _moments(state, grid.x)
    mean_p, _ = _moments(np.fft.fft(state), grid.momentum_lattice)
    return mean_x, var_x, mean_p


def momentum_moments(state: np.ndarray, grid: Grid):
    """(mean, variance) of momentum, from the Fourier spectrum."""
    return _moments(np.fft.fft(as_state(state)), grid.momentum_lattice)


def _moments(amplitudes: np.ndarray, coords: np.ndarray):
    """(mean, variance) of coords under the weights |amplitudes|^2, in any normalization."""
    weights = np.abs(amplitudes) ** 2
    total = weights.sum()
    if total <= 0:
        raise ValueError("state has zero norm")
    weights = weights / total
    mean = float(np.dot(coords, weights))
    return mean, float(np.dot((coords - mean) ** 2, weights))


@dataclass(frozen=True)
class PointerShiftReport:
    """Exact-evolution read-out of one weak-coupling pointer experiment."""

    g: float
    weak_val: complex
    probability: float
    mean_shift: float
    predicted_shift: float          # g * Re(weak value)
    momentum_shift: float
    predicted_momentum_shift: float  # 2 g Im(weak value) Var_p
    fidelity: float                  # against exp(-i g A_w P)|Phi>
    fidelity_gap: float
    oracle_residual: float           # branch sum vs powers of the lattice-step exponential
    state: np.ndarray                # post-selected pointer, unnormalized, l2 units

    @property
    def shift_error(self) -> float:
        return abs(self.mean_shift - self.predicted_shift)

    @property
    def momentum_error(self) -> float:
        return abs(self.momentum_shift - self.predicted_momentum_shift)


def pointer_shift_sweep(A: np.ndarray, sel: PrePostSelection, gs,
                        pointer: GaussianPointer) -> list[PointerShiftReport]:
    """Evolve |psi>|Phi> under exp(-i g A (x) P) for each coupling in ``gs``,
    post-select, and compare the pointer against the weak-value predictions
    (position shift g*Re(A_w), momentum shift from Im(A_w), and the
    effective-evolution state exp(-i g A_w P)|Phi>).

    P is diagonal in momentum space, so the post-selected pointer at momentum
    p_k is Phi~(p_k) <phi|exp(-i g p_k A)|psi>. That is computed twice: as the
    branch sum over the eigenpairs of A, <phi|psi> times
    :func:`~potentops.pps.diagonal_potent_operator` on the momentum lattice
    (the reported state), and by :func:`_lattice_elements` from two Pade
    exponentials of one lattice step, raised to integer powers, which uses no
    eigendecomposition. The max-entry disagreement of the two position-space
    states is each report's oracle_residual.

    The weak-limit state multiplies Phi~ by exp(-i g A_w p); a complex A_w
    makes that grow like exp(g |Im A_w| |p|), and couplings where it would
    overflow a double are refused.
    """
    lam, w = spectral_weights(A, sel)
    grid = pointer.grid
    p = grid.momentum_lattice
    gs = [float(g) for g in np.atleast_1d(gs)]
    a_w = weak_value(A, sel)
    growth = max((abs(g) for g in gs), default=0.0) * abs(a_w.imag) * float(np.max(np.abs(p)))
    if growth > LOG_DBL_MAX:
        raise ValueError(
            f"weak-limit state exp(-i g A_w P)|Phi> overflows: g*|Im A_w|*max|p| = "
            f"{growth:.3e} exceeds ln(DBL_MAX) = {LOG_DBL_MAX:.1f}")

    psi = sel.psi / np.linalg.norm(sel.psi)
    phi = sel.phi / np.linalg.norm(sel.phi)
    meter_k = np.fft.fft(pointer.unit_amplitudes, norm="ortho")
    mean_p0, var_p0 = momentum_moments(pointer.amplitudes, grid)
    overlap = np.vdot(phi, psi)

    oracle = _lattice_elements(A, gs, grid, phi, psi)
    reports = []
    for g, elements in zip(gs, oracle):
        state_k = meter_k * (overlap * diagonal_potent_operator(lam, w, g, p))
        oracle_k = meter_k * elements
        state = np.fft.ifft(state_k, norm="ortho")
        residual = float(np.max(np.abs(np.fft.ifft(state_k - oracle_k, norm="ortho"))))

        p_exact = float(np.linalg.norm(state) ** 2)
        mean_x, _ = _moments(state, grid.x)
        mean_p, _ = _moments(state_k, p)
        # Fidelity is basis-independent, so the target stays in momentum
        # space; scaling it to unit max entry keeps its norm finite.
        target_k = meter_k * np.exp(-1j * g * a_w * p)
        target_k = target_k / np.max(np.abs(target_k))
        fid = fidelity(state_k, target_k) if p_exact > 0 else 0.0
        reports.append(PointerShiftReport(
            g=g,
            weak_val=a_w,
            probability=p_exact,
            mean_shift=mean_x - pointer.x0,
            predicted_shift=g * a_w.real,
            momentum_shift=mean_p - mean_p0,
            predicted_momentum_shift=2.0 * g * a_w.imag * var_p0,
            fidelity=fid,
            fidelity_gap=1.0 - fid,
            oracle_residual=residual,
            state=state,
        ))
    return reports


def _lattice_elements(A: np.ndarray, gs, grid: Grid, phi: np.ndarray,
                      psi: np.ndarray) -> np.ndarray:
    """<phi|exp(-i g p_m A)|psi> on the momentum lattice, in FFT ordering, for
    each coupling in ``gs``: shape (len(gs), N), or (N,) for a scalar g.

    The lattice is p_m = m dp with dp = 2 pi / length and m in [-N/2, N/2), so
    exp(-i g p_m A) = E^m with E = exp(-i g dp A). E and its inverse direction
    exp(+i g dp A) are separate Pade exponentials (neither is assumed unitary),
    taken for all couplings in one stacked call; the rows <phi|E^m are built by
    binary doubling.
    """
    half = grid.grid_size // 2
    steps = np.multiply.outer(2 * np.pi / grid.length * np.atleast_1d(gs), A)
    pairs = linalg._pade_exponential(np.stack([-1j * steps, 1j * steps], axis=1))
    bra = phi.conj()
    out = np.empty((len(steps), grid.grid_size), dtype=complex)
    for k, (forward, backward) in enumerate(pairs):
        # m = 0 .. N/2 - 1, then m = -N/2 .. -1
        rows = np.concatenate([_power_rows(forward, bra, half),
                               _power_rows(backward, bra, half + 1)[:0:-1]])
        out[k] = np.einsum("kt,t->k", rows, psi)
    return out if np.ndim(gs) else out[0]


def _power_rows(E: np.ndarray, row: np.ndarray, count: int) -> np.ndarray:
    """The (count, d) stack of row vectors row E^m for m = 0 .. count - 1.

    Each round multiplies the rows already built by E^len(rows), appends the
    products, and squares E^len(rows). The products on the (n, d) stack go
    through einsum, which keeps them out of the threaded BLAS.
    """
    rows = row[None, :]
    while len(rows) < count:
        rows = np.concatenate([rows, np.einsum("ks,st->kt", rows[:count - len(rows)], E)])
        E = E @ E
    return rows
