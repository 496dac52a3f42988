"""Dense complex linear algebra substrate: tensor products, the two matrix
exponentials (one eigh for a Hermitian generator, one Pade call for every
oracle's exp(-i t H)), partial matrix elements, and normalization.

Conventions used throughout the package:

- States are 1-D complex ndarrays, operators square 2-D ones; stacks lead with more axes.
- Planck's constant is 1; Hamiltonians and couplings are dimensionless.
- Composite indices are system-major: the joint index of (system s, apparatus a)
  is ``s * apparatus_dim + a``, matching ``np.kron(system, apparatus)``.
- Global-phase canonicalization happens only in :func:`normalize` (the
  comparison convention), never inside the algebraic operations.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
ZERO_NORM_TOL = 1e-14
NORMALIZED_TOL = 1e-10
PHASE_TOL = 1e-12

# _pade_exponential refuses an exponent beyond this 1-norm before forming any
# power. Every oracle argument is -i t H from evolution_operators, and every gated
# oracle residual has failed well below the cap (the sigma_z qubit-meter oracle
# reads 5.8e-10 at 1-norm 1e7); the ~log2(norm) squarings would run on to overflow.
PADE_NORM_CAP = 2.0 ** 23


def as_state(v) -> np.ndarray:
    """Coerce to a 1-D complex state vector."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"state must be a 1-D vector, got shape {v.shape}")
    return v


def as_operator(m) -> np.ndarray:
    """Coerce to a square 2-D complex operator."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    return m


def _as_square_stack(m) -> np.ndarray:
    """Coerce to a complex square matrix or a (..., d, d) stack of them."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"need a square matrix or a stack of them, got shape {m.shape}")
    return m


def _max_abs_per_matrix(x: np.ndarray):
    """max |x| of a matrix (a float) or of each matrix of a stack (an array)."""
    out = np.abs(x).max(axis=(-2, -1))
    return float(out) if x.ndim == 2 else out


def _refuse_first(ok, defect, name, refusal) -> None:
    """Refuse the first entry failing ok (``defect <= tol``, so NaN fails) as name,
    or in a stack as the i-th of one name per entry (an iterable), else "name[i]"."""
    if isinstance(ok, np.ndarray) and not ok.all():
        i = int(np.argmin(ok))  # the first False, in C order
        label = f"{name}[{i}]" if isinstance(name, str) else next(islice(name, i, None))
        raise ValueError(f"{label} {refusal(float(defect.flat[i]))}")
    if not isinstance(ok, np.ndarray) and not ok:  # one matrix or state
        raise ValueError(f"{name} {refusal(float(defect))}")


def hermiticity_defect(m: np.ndarray):
    """max |M - M^dag| of a square matrix (a float) or of each matrix of a (..., d, d) stack
    (an array), with one stack-sized temporary; NaN or inf where an entry is not finite."""
    m = _as_square_stack(m)
    diff = m.conj().swapaxes(-1, -2)
    diff -= m
    return _max_abs_per_matrix(diff)


def require_hermitian(m: np.ndarray, name="operator") -> np.ndarray:
    defect = hermiticity_defect(m)
    _refuse_first(defect <= HERMITIAN_TOL, defect, name, lambda d: (
        f"is not Hermitian (max |M - M^dag| = {d:.3e} > {HERMITIAN_TOL:.1e})"))
    return np.asarray(m, dtype=complex)


def unitarity_defect(m: np.ndarray):
    """max |U^dag U - I| of a square matrix (a float) or of each matrix of a (..., d, d)
    stack (an array): the defect of a unitary, or of a complete orthonormal basis as columns."""
    m = _as_square_stack(m)
    gram = m.conj().swapaxes(-1, -2) @ m
    return _max_abs_per_matrix(gram - np.eye(m.shape[-1]))


def require_unitary(m: np.ndarray, name="operator") -> np.ndarray:
    defect = unitarity_defect(m)
    _refuse_first(defect <= UNITARY_TOL, defect, name, lambda d: (
        f"is not unitary (max |U^dag U - I| = {d:.3e} > {UNITARY_TOL:.1e})"))
    return np.asarray(m, dtype=complex)


def require_normalized(v: np.ndarray, name) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    n = np.linalg.norm(as_state(v)) if v.ndim < 2 else _norms(v)
    _refuse_first(abs(n - 1.0) <= NORMALIZED_TOL, n, name,
                  lambda x: f"must be normalized (norm = {x!r})")
    return v


def tensor_product(x, y) -> np.ndarray:
    """Kronecker product of two states, or of two operators or (..., d, d)
    operator stacks, whose leading axes broadcast (system-major order).

    Taken as one broadcast product, entry (i, k) x entry (j, l), instead of
    ``np.kron``: the same products in the same places, so the result is
    bit-identical at a fraction of the call overhead on small operands.
    """
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    if x.ndim == 1 and y.ndim == 1:
        x, y = as_state(x), as_state(y)
        return (x[:, None] * y[None, :]).reshape(-1)
    if x.ndim >= 2 and y.ndim >= 2:
        x, y = _as_square_stack(x), _as_square_stack(y)
        out = x[..., :, None, :, None] * y[..., None, :, None, :]
        return out.reshape(*out.shape[:-4], x.shape[-1] * y.shape[-1], -1)
    raise ValueError(f"tensor_product needs two states or two operators, "
                     f"got ndim {x.ndim} and {y.ndim}")


def hermitian_exponential(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * H) for Hermitian H, or each H of a (..., d, d) stack, by one eigh.

    Unitary (to tolerance) whenever scale is purely imaginary. The scale may be
    any complex number; the spectrum is exponentiated directly.
    """
    h = require_hermitian(h, name="exponential generator")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def evolution_operators(h: np.ndarray, ts) -> np.ndarray:
    """exp(-i t H), shape (*ts.shape, ..., d, d), for every t of an array ts and a
    square H or (..., d, d) stack, by one Pade call and no eigh: every oracle's
    exponential. H is unguarded (callers guard it where they keep it); the result
    is unitary for Hermitian H and real t, and a complex t is taken as given."""
    return _pade_exponential(np.multiply.outer(-1j * np.asarray(ts), h))


# Pade numerator coefficients b_0 .. b_m and the 1-norm bounds theta_m up to
# which the degree-m approximant is accurate to double precision without
# scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE_COEFFS = {m: np.array(b) for m, b in {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}.items()}
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _pade_exponential(a: np.ndarray) -> np.ndarray:
    """exp(a) for a stack (..., d, d) of square matrices, by Higham's
    scaling and squaring with a diagonal Pade approximant.

    The degree m and the number s of squarings come from the largest 1-norm in
    the stack, so one call shares a single schedule: the lowest m in
    {3, 5, 7, 9} whose theta_m covers that norm, else m = 13 on a / 2^s.
    No eigendecomposition is used, so this stays independent of ``eigh``.
    A stack whose 1-norm is not finite or above PADE_NORM_CAP is refused.

    Degree 13 scales to theta_13 / 2, one halving more than Higham's choice:
    at theta_13 itself rounding in the numerator and denominator cost a
    near-scalar argument up to 4e-13 relative error at 1-norm 128 (against a
    50-digit reference), and the extra product brings that under 6e-14.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not np.isfinite(norm):
        raise ValueError(f"cannot exponentiate a matrix of non-finite 1-norm {norm}")
    if norm > PADE_NORM_CAP:
        raise ValueError(f"cannot exponentiate a matrix of 1-norm {norm:.3e}, "
                         f"above the cap {PADE_NORM_CAP:.3e}")
    m = next((k for k in (3, 5, 7, 9) if norm <= _PADE_THETA[k]), 13)
    s = max(0, int(np.ceil(np.log2(2 * norm / _PADE_THETA[13])))) if m == 13 else 0
    if s:
        a = a / 2.0 ** s
    # The approximant is (V - U)^-1 (V + U), with U the odd and V the even
    # part of the numerator, both read off the even powers a^0, a^2, .., a^(m-1).
    powers = np.empty((m // 2 + 1, *a.shape), dtype=complex)
    powers[0] = np.eye(a.shape[-1])
    np.matmul(a, a, out=powers[1])
    for k in range(2, m // 2 + 1):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    flat = powers.reshape(len(powers), -1)
    b = _PADE_COEFFS[m]
    u = a @ (b[1::2] @ flat).reshape(a.shape)
    v = (b[0::2] @ flat).reshape(a.shape)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def partial_matrix_element(u: np.ndarray, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """<bra| U |ket> on the system factor: with (bra, ket) = (phi, psi) this is
    <phi|U|psi>, an operator on the apparatus. (The apparatus-side contraction
    <k|U|Phi> is :func:`potentops.pps.kraus_slices`.) Linear in U,
    conjugate-linear in bra, linear in ket.
    """
    u = as_operator(u)
    bra, ket = as_state(bra), as_state(ket)
    if bra.size != ket.size:
        raise ValueError(f"bra dim {bra.size} != ket dim {ket.size}")
    n = u.shape[0]
    d = bra.size
    if n % d != 0:
        raise ValueError(f"joint dim {n} is not divisible by factor dim {d}")
    other = n // d
    u4 = u.reshape(d, other, d, other)
    return np.einsum("s,satb,t->ab", bra.conj(), u4, ket)


def _norms(v: np.ndarray):
    """|v| of each state of a (..., d) stack, summed as np.linalg.norm sums one
    vector (real and imaginary dot products), so the norms are per-vector bits."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit-norm copy with the comparison phase convention applied, of a state
    or of each state of a (..., d) stack.

    The first amplitude of modulus > PHASE_TOL (a unit vector has one of modulus
    >= 1/sqrt(d)) is made real and positive, so normalize(lam * v) == normalize(v)
    for any nonzero complex lam.
    """
    v = np.asarray(v, dtype=complex)
    stack = v.ndim > 1
    n = _norms(v) if stack else np.linalg.norm(as_state(v))
    largest, smallest = (n.max(), n.min()) if stack else (n, n)  # scalars: no ufunc per check
    if not largest < np.inf:
        raise ValueError(f"cannot normalize a vector of non-finite norm {largest}")
    if smallest <= ZERO_NORM_TOL:
        raise ValueError("cannot normalize a (numerically) zero vector")
    u = v / n[..., None] if stack else v / n
    first = (np.abs(u) > PHASE_TOL).argmax(-1)  # one state indexes it: take_along_axis costs more
    pivot = np.take_along_axis(u, first[..., None], -1) if stack else u[first]
    # hypot is abs() of one complex scalar to the bit, which np.abs is not
    return u * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>| after normalizing both states (global-phase invariant)."""
    u, v = as_state(u), as_state(v)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if not (np.isfinite(nu) and np.isfinite(nv)):
        raise ValueError(f"fidelity needs finite norms, got {nu} and {nv}")
    if nu <= ZERO_NORM_TOL or nv <= ZERO_NORM_TOL:
        raise ValueError("fidelity of a zero vector is undefined")
    return float(abs(np.vdot(u, v)) / (nu * nv))

