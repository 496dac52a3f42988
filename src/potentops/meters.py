"""Concrete apparatus models: a two-level meter coupled through the |1><1|
projector, and a Gaussian pointer on a periodic position grid whose momentum
operator is diagonal on the FFT lattice (exact translation generator on the
grid, so pointer-shift checks are not polluted by finite-difference error)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_state, evolution_operators, fidelity
from .pps import PrePostSelection, diagonal_potent_operator, spectral_weights, weak_value

# Larger grids are refused before any array is built; the oracle raises one
# lattice-step exponential to every power up to N/2, and its rounding grows
# with the power (about 1e-11 at 2**16 points and g = 2).
GRID_SIZE_CAP = 2 ** 16


def _require_finite(**values):
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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


@dataclass(frozen=True)
class Grid:
    """Uniform periodic position grid on [x_min, x_max), right endpoint excluded."""

    grid_size: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = self.grid_size
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"grid_size must be an integer, got {n!r}")
        if n > GRID_SIZE_CAP:
            raise ValueError(f"grid_size {n} exceeds the cap {GRID_SIZE_CAP}")
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"grid_size must be a power of two >= 2, got {n}")
        _require_finite(x_min=self.x_min, x_max=self.x_max)
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
    """Gaussian wavepacket exp(-(x - x0)^2 / (4 sigma^2)) on a Grid.

    Rejects packets the grid cannot resolve: sigma must span at least 4 grid
    steps, and the +-6 sigma support must lie inside [x_min, x_max], keeping
    periodic wrap-around (aliasing) below the tolerances this package tests at.
    """

    grid: Grid
    sigma: float
    x0: float

    def __post_init__(self):
        grid, sigma, x0 = self.grid, self.sigma, self.x0
        _require_finite(sigma=sigma, x0=x0)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if sigma < 4 * grid.dx:
            raise ValueError(f"sigma = {sigma} under-resolved: needs at least 4*dx = {4 * grid.dx}")
        if x0 - 6 * sigma < grid.x_min or x0 + 6 * sigma > grid.x_max:
            raise ValueError("packet support (+-6 sigma) leaves the grid; widen the extent")

    @property
    def unit_amplitudes(self) -> np.ndarray:
        """l2-normalized samples, the form joint evolutions consume."""
        amp = np.exp(-((self.grid.x - self.x0) ** 2) / (4 * self.sigma ** 2)).astype(complex)
        return amp / np.sqrt(np.sum(np.abs(amp) ** 2) * self.grid.dx) * np.sqrt(self.grid.dx)


def build_gaussian_pointer(grid_size: int, x_min: float, x_max: float,
                           sigma: float, x0: float) -> GaussianPointer:
    """A Gaussian pointer on the grid of grid_size points over [x_min, x_max)."""
    return GaussianPointer(Grid(grid_size, float(x_min), float(x_max)), float(sigma), float(x0))


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
    oracle_residual: float           # branch sum vs lattice-step powers, and A_w vs lam . w
    state: np.ndarray                # post-selected pointer, unnormalized, l2 units

    @property
    def shift_error(self) -> float:
        return abs(self.mean_shift - self.predicted_shift)


def pointer_shift_sweep(A: np.ndarray, sel: PrePostSelection, gs,
                        pointer: GaussianPointer) -> list[PointerShiftReport]:
    """Evolve |psi>|Phi> under exp(-i g A (x) P) for each coupling in ``gs``,
    post-select, and compare the pointer against the weak-value predictions
    (position shift g*Re(A_w), momentum shift from Im(A_w), and the
    effective-evolution state exp(-i g A_w P)|Phi>).

    P is diagonal in momentum space, so the post-selected pointer at momentum
    p_k is Phi~(p_k) <phi|exp(-i g p_k A)|psi>. That is computed twice, as an
    (n, N) array for all n couplings at once: as the branch sum over the
    eigenpairs of A, <phi|psi> times :func:`~potentops.pps.diagonal_potent_operator`
    on the momentum lattice (the reported states), and by :func:`_lattice_elements`
    from two Pade exponentials of one lattice step, raised to integer powers,
    which uses no eigendecomposition. One inverse FFT of the (2, n, N) stack of
    states and oracle differences gives every oracle_residual: the larger of the
    max-entry difference and |A_w - lam . w|, the A_w columns' witness.

    The weak-limit states are the packet's closed-form spectrum times
    exp(-i g A_w p), one (n, N) exponent in the log domain. A run is refused
    before any row when a coupling is not finite or a packet it forms would wrap
    around the periodic grid: a branch centre x0 + g lam_n or the target centre
    x0 + g Re(A_w) within 6 sigma of an edge, or the target's momentum centre
    g Im(A_w) / (2 sigma^2) within 3 / sigma of the lattice edge pi / dx.
    """
    gs = [float(g) for g in np.atleast_1d(gs)]
    lam, w = spectral_weights(A, sel)
    grid, sigma, x0 = pointer.grid, pointer.sigma, pointer.x0
    a_w = weak_value(A, sel)
    weak_residual = abs(a_w - complex(lam @ w))
    for g in gs:
        _require_finite(g=g)
        centres = [x0 + g * v for v in (float(lam[0]), float(lam[-1]), a_w.real)]  # lam ascends
        if (min(centres) - 6 * sigma < grid.x_min or max(centres) + 6 * sigma > grid.x_max
                or abs(g * a_w.imag) / (2 * sigma ** 2) + 3 / sigma > np.pi / grid.dx):
            raise ValueError(f"at g = {g} a translated packet leaves the grid's support (+-6 "
                             "sigma in x, +-3/sigma in p); widen the extent or refine the grid")

    p, x = grid.momentum_lattice, grid.x
    psi, phi = (v / np.linalg.norm(v) for v in (sel.psi, sel.phi))
    meter_k = np.fft.fft(pointer.unit_amplitudes, norm="ortho")
    mean_p0, var_p0 = _moments(meter_k, p)
    states_k = meter_k * (np.vdot(phi, psi) * diagonal_potent_operator(lam, w, gs, p))
    states, differences = np.fft.ifft(
        np.stack([states_k, states_k - meter_k * _lattice_elements(A, gs, grid, phi, psi)]),
        norm="ortho")
    residuals = np.maximum(np.max(np.abs(differences), axis=-1), weak_residual)  # NaN if either is
    # Fidelity is basis-independent, so the targets stay in momentum space.
    exponents = (-(sigma * p) ** 2 - 1j * p * (x0 - grid.x_min)  # of meter_k, up to a constant
                 - np.array([1j * g * a_w for g in gs])[:, None] * p)
    targets_k = np.exp(exponents - exponents.real.max(axis=-1, keepdims=True))

    reports = []
    for g, state_k, state, residual, target_k in zip(gs, states_k, states, residuals, targets_k):
        p_exact = float(np.linalg.norm(state) ** 2)
        mean_x, _ = _moments(state, x)
        mean_p, _ = _moments(state_k, p)
        fid = fidelity(state_k, target_k) if p_exact > 0 else 0.0
        reports.append(PointerShiftReport(
            g=g, weak_val=a_w, probability=p_exact,
            mean_shift=mean_x - x0, predicted_shift=g * a_w.real,
            momentum_shift=mean_p - mean_p0, predicted_momentum_shift=2.0 * g * a_w.imag * var_p0,
            fidelity=fid, fidelity_gap=1.0 - fid, oracle_residual=float(residual), state=state))
    return reports


def _lattice_elements(A: np.ndarray, gs: list[float], grid: Grid, phi: np.ndarray,
                      psi: np.ndarray) -> np.ndarray:
    """<phi|exp(-i g p_m A)|psi> on the momentum lattice, in FFT ordering, for
    each coupling in ``gs``: shape (len(gs), N).

    The lattice is p_m = m dp with dp = 2 pi / length and m in [-N/2, N/2), so
    exp(-i g p_m A) = E^m with E = exp(-i g dp A). E and its inverse direction
    exp(+i g dp A) are separate Pade exponentials (neither is assumed unitary),
    taken for both directions and every coupling in one (2, n, d, d) stacked
    call. One binary-doubling loop fills the rows <phi|E^m, m = 0 .. N/2, of one
    (2, n, N/2 + 1, d) buffer for the whole stack: each round writes the rows built
    so far times E^(rows built) into the next free rows and squares that power.
    """
    half = grid.grid_size // 2
    steps = 2 * np.pi / grid.length * np.asarray(gs)
    powers = evolution_operators(A, np.stack([steps, -steps]))
    rows = np.empty((*powers.shape[:2], half + 1, phi.size), dtype=complex)
    rows[:, :, 0] = phi.conj()
    for built in (2 ** k for k in range(half.bit_length())):  # 1, 2, 4 .. N/2
        new = min(built, half + 1 - built)
        np.matmul(rows[:, :, :new], powers, out=rows[:, :, built:built + new])
        powers = powers @ powers
    # m = 0 .. N/2 - 1, then m = -N/2 .. -1
    return np.concatenate([rows[0, :, :half], rows[1, :, half:0:-1]], axis=1) @ psi
