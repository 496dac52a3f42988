"""Independent references for the benchmark's correctness checks.

Everything here is computed with numpy and scipy only; nothing imports
potentops. The routes are chosen to differ from the program's own:

- Gaussian pointer: the post-selected pointer is the FFT branch sum
  sum_n <phi|v_n><v_n|psi> IFFT(exp(-i g lam_n p) FFT(Phi)), against the
  program's dense eigendecomposition of the (d N)^2 joint generator
  (Aharonov-Albert-Vaidman pointer shift).
- Qubit meter: the Kedem-Vaidman reduction. For U = I (x) |0><0| +
  exp(-i g A) (x) |1><1| the potent values are [alpha, beta A_M(g)], the
  potent operator is diag(1, A_M(g)), and the post-selection probability is
  |alpha|^2 |<phi|psi>|^2 + |beta|^2 |<phi|exp(-i g A)|psi>|^2, with the
  modular value A_M taken from scipy.linalg.expm (the program uses eigh).
- Time machine: sum_i c_i expm(-i H T_i)|Phi>, again through expm.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# The cap the program documents for exp(scale * M) (the 1-norm guard in
# general_exponential). The refusal it raises is the benchmark's named fault.
EXP_NORM_CAP = 128.0


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def modular_value(A, g: float, psi, phi) -> complex:
    psi, phi = unit(psi), unit(phi)
    u = scipy.linalg.expm(-1j * g * np.asarray(A, dtype=complex))
    return complex(np.vdot(phi, u @ psi) / np.vdot(phi, psi))


def weak_value(A, psi, phi) -> complex:
    psi, phi = unit(psi), unit(phi)
    return complex(np.vdot(phi, np.asarray(A, dtype=complex) @ psi) / np.vdot(phi, psi))


def qubit_meter(A, g: float, psi, phi, alpha: complex, beta: complex) -> dict:
    """Kedem-Vaidman reduction for a qubit meter coupled through |1><1|."""
    psi, phi = unit(psi), unit(phi)
    ov = complex(np.vdot(phi, psi))
    a_m = modular_value(A, g, psi, phi)
    prob = abs(alpha) ** 2 * abs(ov) ** 2 + abs(beta) ** 2 * abs(ov * a_m) ** 2
    return {
        "weak": weak_value(A, psi, phi),
        "modular": a_m,
        "potent_values": [complex(alpha), complex(beta) * a_m],
        "potent_operator": np.diag([1.0, a_m]),
        "prob_exact": prob,
    }


def amplification_modular(g: float) -> complex:
    """Closed form A_M(g) = cos g - 2i sin g for sigma_z and the preset pair."""
    return complex(np.cos(g), -2.0 * np.sin(g))


def amplification_prob(g: float, alpha: complex, beta: complex) -> float:
    """Closed form (|alpha|^2 + |beta|^2 |A_M(g)|^2) / 4 for the preset pair."""
    return 0.25 * (abs(alpha) ** 2 + abs(beta) ** 2 * abs(amplification_modular(g)) ** 2)


class PointerGrid:
    """Periodic grid [x_min, x_max) of grid_size points and its FFT momenta."""

    def __init__(self, grid_size: int, x_min: float, x_max: float):
        self.n = int(grid_size)
        self.dx = (x_max - x_min) / self.n
        self.x = x_min + self.dx * np.arange(self.n)
        self.p = 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def gaussian(self, sigma: float, x0: float) -> np.ndarray:
        amp = np.exp(-((self.x - x0) ** 2) / (4 * sigma ** 2)).astype(complex)
        return amp / np.linalg.norm(amp)

    def evolve(self, state: np.ndarray, c: complex) -> np.ndarray:
        """exp(-i c P) state, by a phase multiply in momentum space."""
        return np.fft.ifft(np.exp(-1j * c * self.p) * np.fft.fft(state))

    def mean_x(self, state: np.ndarray) -> float:
        w = np.abs(state) ** 2
        return float(np.dot(self.x, w) / w.sum())

    def mean_p(self, state: np.ndarray) -> float:
        s = np.abs(np.fft.fft(state)) ** 2
        return float(np.dot(self.p, s) / s.sum())

    def var_p(self, state: np.ndarray) -> float:
        s = np.abs(np.fft.fft(state)) ** 2
        s = s / s.sum()
        mean = float(np.dot(self.p, s))
        return float(np.dot((self.p - mean) ** 2, s))

    def momentum_one_norm(self) -> float:
        """Max column-sum norm of the dense spectral momentum matrix
        F^dag diag(p) F. Its first column is IFFT(p) up to normalization, and
        the matrix is circulant, so every column has the same abs-sum."""
        column = np.fft.ifft(self.p)
        return float(np.sum(np.abs(column)))


def pointer_shift(A, psi, phi, g: float, grid: PointerGrid, sigma: float, x0: float) -> dict:
    """Every reference quantity of one pointer-shift row, by the FFT branch sum."""
    A = np.asarray(A, dtype=complex)
    psi, phi = unit(psi), unit(phi)
    meter = grid.gaussian(sigma, x0)
    lam, vecs = np.linalg.eigh(A)
    amps = (phi.conj() @ vecs) * (vecs.conj().T @ psi)
    state = sum(amps[n] * grid.evolve(meter, g * lam[n]) for n in range(lam.size))
    a_w = weak_value(A, psi, phi)
    target = grid.evolve(meter, g * a_w)
    fid = abs(np.vdot(state, target)) / (np.linalg.norm(state) * np.linalg.norm(target))
    mean_shift = grid.mean_x(state) - x0
    return {
        "weak": a_w,
        "prob_exact": float(np.linalg.norm(state) ** 2),
        "mean_shift": mean_shift,
        "predicted_shift": g * a_w.real,
        "shift_error": abs(mean_shift - g * a_w.real),
        "momentum_shift": grid.mean_p(state) - grid.mean_p(meter),
        "predicted_momentum_shift": 2.0 * g * a_w.imag * grid.var_p(meter),
        "fidelity_gap": 1.0 - float(fid),
    }


def weak_limit_exponent_norm(A, psi, phi, g: float, grid: PointerGrid) -> float:
    """1-norm of -i g A_w P, the argument of the program's weak-limit target."""
    return abs(g * weak_value(A, psi, phi)) * grid.momentum_one_norm()


def time_machine(coefficients, durations, H, meter_state) -> dict:
    """Superposed evolution sum_i c_i expm(-i H T_i)|Phi> and its read-out."""
    H = np.asarray(H, dtype=complex)
    Phi = unit(meter_state)
    c = np.asarray(coefficients, dtype=complex)
    state = sum(ci * (scipy.linalg.expm(-1j * t * H) @ Phi) for ci, t in zip(c, durations))
    t_prime = float(np.real(np.dot(c, durations)))
    success = float(np.linalg.norm(state))
    target = scipy.linalg.expm(-1j * t_prime * H) @ Phi
    return {"t_prime": t_prime, "success_norm": success,
            "fidelity": float(abs(np.vdot(target, state)) / success), "state": state}


def fit_fidelity(H0, H1, coefficients, parameters, duration: float, meter_state, a: float) -> float:
    """|<expm(-i H(a) T) Phi | normalized sum_i c_i expm(-i H(a_i) T) Phi>| for
    the linear family H(a) = H0 + a H1."""
    Phi = unit(meter_state)
    H0, H1 = np.asarray(H0, dtype=complex), np.asarray(H1, dtype=complex)
    state = sum(c * (scipy.linalg.expm(-1j * duration * (H0 + p * H1)) @ Phi)
                for c, p in zip(coefficients, parameters))
    state = state / np.linalg.norm(state)
    target = scipy.linalg.expm(-1j * duration * (H0 + a * H1)) @ Phi
    return float(abs(np.vdot(target, state)))


def completeness_residual(U, phi) -> float:
    """max |sum_n <phi|U|n><n|U^dag|phi> - I| over the system basis {|n>}."""
    U = np.asarray(U, dtype=complex)
    ds = np.asarray(phi).size
    da = U.shape[0] // ds
    u4 = U.reshape(ds, da, ds, da)
    blocks = np.einsum("s,satb->tab", unit(phi).conj(), u4)  # <phi|U|t>, one per t
    total = sum(b @ b.conj().T for b in blocks)
    return float(np.max(np.abs(total - np.eye(da))))
