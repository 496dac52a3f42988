from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from potentops import linalg
from potentops.linalg import (
    EXP_NORM_CAP,
    HERMITIAN_TOL,
    ORTHONORMAL_TOL,
    PADE_NORM_CAP,
    UNITARY_TOL,
    _pade_exponential,
    fidelity,
    general_exponential,
    hermitian_exponential,
    hermiticity_defect,
    normalize,
    orthonormality_defect,
    partial_matrix_element,
    require_orthonormal_basis,
    tensor_product,
)
from potentops.pauli import IDENTITY_2, KET_PLUS, PROJECT_1, SIGMA_X, SIGMA_Z
from potentops.sampling import complex_gaussian, random_hermitian, random_state, random_unitary


class TestTensorProduct:
    def test_identity_case(self):
        np.testing.assert_array_equal(tensor_product(np.eye(2), np.eye(3)), np.eye(6))

    def test_basis_bookkeeping(self):
        joint = tensor_product(np.eye(2, dtype=complex)[0], np.eye(2, dtype=complex)[1])
        np.testing.assert_array_equal(joint, [0, 1, 0, 0])

    def test_sigma_z_with_projector(self):
        # 4x4 Kronecker product expanded by hand
        np.testing.assert_allclose(tensor_product(SIGMA_Z, PROJECT_1),
                                   np.diag([0, 1, 0, -1]), atol=1e-15)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="two states or two operators"):
            tensor_product(SIGMA_Z, np.eye(2, dtype=complex)[0])

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (complex_gaussian(rng, (d, d)) for d in (2, 3, 2))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12


@st.composite
def kron_operands(draw):
    """Two states or two operators of dims 1..6, each int, real or complex."""
    ndim = draw(st.sampled_from([1, 2]))
    pair = []
    for _ in range(2):
        d = draw(st.integers(1, 6))
        dtype, elements = draw(st.sampled_from([
            (np.int64, st.integers(-9, 9)),
            (np.float64, st.floats(-1e3, 1e3)),
            (np.complex128, st.complex_numbers(max_magnitude=1e3)),
        ]))
        pair.append(draw(arrays(dtype, (d,) * ndim, elements=elements)))
    return pair


class TestTensorProductMatchesKron:
    @settings(max_examples=200, deadline=None)
    @given(operands=kron_operands())
    def test_bit_identical_to_kron(self, operands):
        x, y = operands
        out = tensor_product(x, y)
        ref = np.kron(x.astype(complex), y.astype(complex))
        assert np.array_equal(out, ref)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()  # signed zeros included


class TestHermitianExponential:
    def test_zero_exponent(self):
        h = random_hermitian(5, np.random.default_rng(1))
        np.testing.assert_allclose(hermitian_exponential(h, 0.0), np.eye(5), atol=1e-14)

    def test_sigma_z_quarter_turn(self):
        # closed-form 2x2 diagonal exponential
        np.testing.assert_allclose(hermitian_exponential(SIGMA_Z, -1j * np.pi / 2),
                                   np.diag([-1j, 1j]), atol=1e-14)

    def test_identity_generator_global_phase(self):
        out = hermitian_exponential(IDENTITY_2, -0.3j)
        np.testing.assert_allclose(out, np.exp(-0.3j) * np.eye(2), atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_exponential(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_unitary_for_imaginary_scale(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            h = random_hermitian(dim, rng)
            g = float(rng.uniform(-10, 10))
            u = hermitian_exponential(h, -1j * g)
            assert linalg.unitarity_defect(u) <= 1e-10

    def test_exponential_inverse(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(6, rng)
        scale = complex(0.4, -0.8)
        prod = hermitian_exponential(h, scale) @ hermitian_exponential(h, -scale)
        assert np.max(np.abs(prod - np.eye(6))) <= 1e-10


# A non-finite entry makes the defect NaN or inf; "defect > tol" is False for
# NaN, so each guard must refuse on "not defect <= tol".
NON_FINITE_ENTRIES = [((0, 0), np.nan), ((0, 1), np.nan), ((1, 1), np.inf),
                      ((0, 1), np.inf), ((1, 0), -np.inf)]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteGuards:
    @pytest.mark.parametrize("index, bad", NON_FINITE_ENTRIES)
    def test_require_hermitian(self, index, bad):
        m = SIGMA_X.astype(complex)
        m[index] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.require_hermitian(m)
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_exponential(m, -1j)

    @pytest.mark.parametrize("index, bad", NON_FINITE_ENTRIES)
    def test_require_unitary(self, index, bad):
        u = random_unitary(2, np.random.default_rng(4))
        u[index] = bad
        with pytest.raises(ValueError, match="not unitary"):
            linalg.require_unitary(u)

    # sigma_x is Hermitian, unitary and an orthonormal basis, so one stack of
    # it serves every guard; entry 1 carries the non-finite entry
    @pytest.mark.parametrize("index, bad", NON_FINITE_ENTRIES)
    @pytest.mark.parametrize("guard, label, message", [
        (linalg.require_hermitian, r"operator\[1\]", "is not Hermitian"),
        (partial(linalg.require_hermitian, name=["A_0", "A_1", "A_2"]), "A_1", "is not Hermitian"),
        (linalg.require_unitary, r"operator\[1\]", "is not unitary"),
        (partial(linalg.require_unitary, name=["U_0", "U_1", "U_2"]), "U_1", "is not unitary"),
        (require_orthonormal_basis, r"basis\[1\]", "is not orthonormal"),
    ], ids=["hermitian", "hermitian-named", "unitary", "unitary-named", "orthonormal"])
    def test_stack_names_the_failing_entry(self, guard, label, message, index, bad):
        stack = np.stack([SIGMA_X.astype(complex)] * 3)
        np.testing.assert_array_equal(guard(stack), stack)
        stack[(1, *index)] = bad
        with pytest.raises(ValueError, match=rf"^{label} {message} \("):
            guard(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_normalized_stack_names_the_failing_entry(self, bad):
        states = np.stack([np.array([1.0, 0.0], dtype=complex)] * 3)
        np.testing.assert_array_equal(linalg.require_normalized(states, "Phi"), states)
        states[2, 1] = bad
        with pytest.raises(ValueError, match=rf"^Phi\[2\] must be normalized \(norm = {bad}\)$"):
            linalg.require_normalized(states, "Phi")
        with pytest.raises(ValueError, match=r"^Phi\[1\] must be normalized \(norm = 2\.0\)$"):
            linalg.require_normalized(states * [[1.0], [2.0], [1.0]], "Phi")


def _hermitian_with_defect(defect: float) -> np.ndarray:
    m = np.diag([1.0, -1.0]).astype(complex)
    m[0, 1] = defect  # max |M - M^dag| is exactly this entry
    return m


def _diagonal_with_gram_defect(defect: float) -> np.ndarray:
    # D^dag D - I = diag(0, defect), up to rounding of the square root
    return np.diag([1.0, np.sqrt(1.0 + defect)]).astype(complex)


def _second_of_two(build):
    """A stack of two matrices, of which only the second carries the defect."""
    return lambda defect: np.stack([build(0.0), build(defect)])


def _of_second(defect_of):
    return lambda stack: defect_of(stack)[1]


@pytest.mark.parametrize("guard, defect_of, build, tol, message", [
    (linalg.require_hermitian, hermiticity_defect, _hermitian_with_defect, HERMITIAN_TOL,
     "not Hermitian"),
    (linalg.require_unitary, linalg.unitarity_defect, _diagonal_with_gram_defect, UNITARY_TOL,
     "not unitary"),
    (require_orthonormal_basis, orthonormality_defect, _diagonal_with_gram_defect,
     ORTHONORMAL_TOL, "not orthonormal"),
    (partial(linalg.require_hermitian, name=["H(0.5)", "H(1.5)"]),
     _of_second(hermiticity_defect), _second_of_two(_hermitian_with_defect), HERMITIAN_TOL,
     r"^H\(1\.5\) is not Hermitian"),
    (linalg.require_unitary, _of_second(linalg.unitarity_defect),
     _second_of_two(_diagonal_with_gram_defect), UNITARY_TOL, r"^operator\[1\] is not unitary"),
    (require_orthonormal_basis, _of_second(orthonormality_defect),
     _second_of_two(_diagonal_with_gram_defect), ORTHONORMAL_TOL,
     r"^basis\[1\] is not orthonormal"),
], ids=["hermitian", "unitary", "orthonormal", "hermitian-stack", "unitary-stack",
        "orthonormal-stack"])
class TestGuardsAtTheirConstants:
    """Each guard reads its module tolerance: a defect of half the bound
    passes, twice the bound is refused, and NaN is refused."""

    def test_half_the_bound_passes(self, guard, defect_of, build, tol, message):
        m = build(tol / 2)
        assert defect_of(m) == pytest.approx(tol / 2, rel=1e-3)
        np.testing.assert_array_equal(guard(m), m)

    def test_twice_the_bound_refused(self, guard, defect_of, build, tol, message):
        m = build(2 * tol)
        assert defect_of(m) == pytest.approx(2 * tol, rel=1e-3)
        with pytest.raises(ValueError, match=message) as info:
            guard(m)
        assert f"> {tol:.1e}" in str(info.value)

    def test_nan_refused(self, guard, defect_of, build, tol, message):
        m = build(0.0)
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match=message):
            guard(m)


class TestHermiticityDefectStack:
    @settings(max_examples=150, deadline=None)
    @given(parts=st.integers(1, 5).flatmap(lambda n: st.integers(1, 6).flatmap(
        lambda d: arrays(np.float64, (2, n, d, d),
                         elements=st.one_of(st.floats(-1e3, 1e3), st.just(np.nan))))))
    def test_matches_per_matrix_values(self, parts):
        stack = parts[0] + 1j * parts[1]
        out = hermiticity_defect(stack)
        assert isinstance(out, np.ndarray) and out.shape == stack.shape[:1]
        per_matrix = [hermiticity_defect(m) for m in stack]
        by_definition = [np.max(np.abs(m - m.conj().T)) for m in stack]
        np.testing.assert_array_equal(out, per_matrix)
        np.testing.assert_array_equal(out, by_definition)
        has_nan = np.isnan(stack).any(axis=(1, 2))
        assert np.all(np.isnan(out[has_nan]))
        assert np.all(np.isfinite(out[~has_nan]))

    def test_matrix_gives_a_float(self):
        assert hermiticity_defect(_hermitian_with_defect(0.25)) == 0.25
        assert type(hermiticity_defect(np.eye(3))) is float

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 2, 3), (0, 0), (2, 0, 0)])
    def test_refuses_what_is_not_a_square_stack(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            hermiticity_defect(np.zeros(shape))

    # the Gram defects: unitarity of square matrices, orthonormality of any
    # (dim, n) block of columns
    @settings(max_examples=100, deadline=None)
    @given(parts=st.integers(1, 5).flatmap(lambda n: st.integers(1, 4).flatmap(
        lambda d: st.integers(1, d).flatmap(lambda k: arrays(
            np.float64, (2, n, d, k), elements=st.one_of(st.floats(-1e3, 1e3), st.just(np.nan)))))))
    def test_gram_defects_match_per_matrix_values(self, parts):
        stack = parts[0] + 1j * parts[1]
        defects = [orthonormality_defect]
        if stack.shape[-1] == stack.shape[-2]:
            defects.append(linalg.unitarity_defect)
        for defect in defects:
            out = defect(stack)
            assert isinstance(out, np.ndarray) and out.shape == stack.shape[:1]
            per_matrix = [defect(m) for m in stack]
            assert all(type(value) is float for value in per_matrix)
            by_definition = [np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))) for m in stack]
            np.testing.assert_array_equal(out, per_matrix)
            np.testing.assert_array_equal(out, by_definition)
            has_nan = np.isnan(stack).any(axis=(1, 2))
            assert np.all(np.isnan(out[has_nan]))
            assert np.all(np.isfinite(out[~has_nan]))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 2, 3), (0, 0), (2, 0, 0)])
    def test_unitarity_defect_refuses_what_is_not_a_square_stack(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            linalg.unitarity_defect(np.zeros(shape))

    # The stack-aware primitives: a stack gives the bits of per-entry calls,
    # and a stack with a NaN entry is refused where a per-entry call would be.
    @settings(max_examples=100, deadline=None)
    @given(parts=st.integers(1, 4).flatmap(lambda n: st.tuples(*(
        st.integers(1, 4).flatmap(lambda d: arrays(np.float64, (2, n, d, d), elements=st.one_of(
            st.floats(-1e3, 1e3), st.just(np.nan)))) for _ in range(2)))))
    def test_tensor_product_matches_per_entry_calls(self, parts):
        x, y = (p[0] + 1j * p[1] for p in parts)
        out = tensor_product(x, y)
        assert out.shape == (len(x), x.shape[-1] * y.shape[-1], x.shape[-1] * y.shape[-1])
        assert out.tobytes() == np.array([tensor_product(a, b) for a, b in zip(x, y)]).tobytes()
        # leading axes broadcast; a broadcast operand may take numpy's other
        # complex multiply loop, which rounds each product to within an ulp
        broadcast = tensor_product(x, y[0])
        per_entry = np.array([tensor_product(a, y[0]) for a in x])
        np.testing.assert_array_equal(np.isnan(broadcast), np.isnan(per_entry))
        finite = ~np.isnan(per_entry)
        scale = tensor_product(np.abs(x), np.abs(y[0])).real
        assert np.all(np.abs(broadcast - per_entry)[finite] <= 1e-15 * scale[finite])

    @settings(max_examples=100, deadline=None)
    @given(parts=st.integers(1, 4).flatmap(lambda n: st.integers(1, 5).flatmap(
        lambda d: arrays(np.float64, (2, n, d, d),
                         elements=st.one_of(st.floats(-1, 1), st.just(np.nan))))),
           scale=st.complex_numbers(max_magnitude=3))
    def test_hermitian_exponential_matches_per_entry_calls(self, parts, scale):
        z = parts[0] + 1j * parts[1]
        stack = (z + z.conj().swapaxes(-1, -2)) / 2
        with_nan = [i for i, h in enumerate(stack) if np.isnan(h).any()]
        if with_nan:
            with pytest.raises(ValueError,
                               match=rf"^exponential generator\[{with_nan[0]}\] is not Hermitian"):
                hermitian_exponential(stack, scale)
            with pytest.raises(ValueError, match=r"^exponential generator is not Hermitian"):
                hermitian_exponential(stack[with_nan[0]], scale)
        else:
            out = hermitian_exponential(stack, scale)
            assert out.tobytes() == np.array([hermitian_exponential(h, scale)
                                              for h in stack]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(parts=st.integers(1, 4).flatmap(lambda n: st.integers(1, 6).flatmap(
        lambda d: arrays(np.float64, (2, n, d), elements=st.one_of(
            st.floats(-1e3, 1e3), st.just(np.nan), st.just(0.0))))))
    def test_normalize_matches_per_entry_calls(self, parts):
        # a stack is refused for its first non-finite entry, else its first zero one
        stack = parts[0] + 1j * parts[1]

        def outcome(v):
            try:
                return normalize(v).tobytes()
            except ValueError as exc:
                return str(exc)

        per_entry = [outcome(v) for v in stack]
        refusals = sorted((r for r in per_entry if isinstance(r, str)),
                          key=lambda r: "non-finite" not in r)  # stable: entry order kept
        expected = refusals[0] if refusals else b"".join(per_entry)
        assert outcome(stack) == expected


class TestGeneralExponential:
    def test_zero(self):
        np.testing.assert_allclose(general_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_matches_hermitian_route(self):
        rng = np.random.default_rng(4)
        for dim in (2, 5, 8):
            h = random_hermitian(dim, rng)
            diff = general_exponential(h, -1j * 1.7) - hermitian_exponential(h, -1j * 1.7)
            assert np.max(np.abs(diff)) <= 1e-10

    def test_nilpotent_two_term_series(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_allclose(general_exponential(n), [[1, 1], [0, 1]], atol=1e-15)

    def test_norm_cap(self):
        with pytest.raises(ValueError, match="cap"):
            general_exponential(np.eye(2), 1e6)


@st.composite
def complex_matrices(draw, shape=(), form="dense"):
    """A (*shape, d, d) complex stack, d in 1..16, each matrix rescaled to a
    drawn 1-norm in [0, EXP_NORM_CAP]. form is "dense", "triangular" (upper,
    non-normal) or "hermitian"."""
    d = draw(st.integers(1, 16))
    parts = draw(arrays(np.float64, (2, *shape, d, d), elements=st.floats(-1, 1)))
    m = parts[0] + 1j * parts[1]
    if form == "triangular":
        m = np.triu(m)
    elif form == "hermitian":
        m = m + np.swapaxes(m, -1, -2).conj()
    norms = draw(arrays(np.float64, shape, elements=st.floats(0, EXP_NORM_CAP)))
    current = np.abs(m).sum(axis=-2).max(axis=-1)
    # a matrix of negligible entries becomes zero rather than overflow
    scale = np.divide(norms, current, out=np.zeros_like(current), where=current > 1e-6)
    return m * np.asarray(scale)[..., None, None]


def _relative_error(x, reference):
    return np.max(np.abs(x - reference)) / np.max(np.abs(reference))


def _assert_matches_expm(m, tol):
    """The Pade route agrees with scipy.linalg.expm to relative max-entry
    error tol.

    scipy's branch for triangular input rebuilds the superdiagonal from
    divided differences of the diagonal (Higham's formula (10.42)), which
    loses every digit when two diagonal entries are nearly but not exactly
    equal. Where scipy disagrees, a 50-digit mpmath exponential decides.
    """
    x = _pade_exponential(m)
    with np.errstate(over="ignore", invalid="ignore"):
        if _relative_error(x, scipy.linalg.expm(m)) <= tol:
            return
    with mpmath.workdps(50):
        exact = np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=complex)
    assert _relative_error(x, exact) <= tol


class TestPadeExponential:
    # scipy.linalg.expm is the outside reference; the package never imports it
    @settings(max_examples=150, deadline=None)
    @given(m=complex_matrices(form="dense") | complex_matrices(form="triangular"))
    def test_matches_scipy(self, m):
        _assert_matches_expm(m, 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(h=complex_matrices(form="hermitian"))
    def test_unitary_generator_matches_scipy(self, h):
        _assert_matches_expm(-1j * h, 1e-13)

    def test_nearly_equal_diagonal(self):
        # the case scipy's triangular branch gets wrong, with a closed form:
        # exp([[a, b], [0, c]]) has corner b e^c (e^(a-c) - 1) / (a - c)
        a, b, c = 4.0 + 1e-13, 50.0, 4.0
        expected = np.array([[np.exp(a), b * np.exp(c) * np.expm1(a - c) / (a - c)],
                             [0.0, np.exp(c)]])
        m = np.array([[a, b], [0.0, c]])
        assert _relative_error(_pade_exponential(m), expected) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(stack=st.integers(1, 6).flatmap(lambda n: complex_matrices(shape=(n,))))
    def test_stack_matches_per_matrix_calls(self, stack):
        stacked = _pade_exponential(stack)
        for x, m in zip(stacked, stack):
            assert _relative_error(x, _pade_exponential(m)) <= 1e-13

    def test_non_finite_refused(self):
        with pytest.raises(ValueError, match="non-finite"):
            _pade_exponential(np.array([[np.nan, 0], [0, 1]]))

    def test_norm_cap(self):
        # a stack at the cap runs to a unitary result; one just above it is
        # refused before any power is formed
        at_cap = -1j * np.stack([PADE_NORM_CAP * SIGMA_Z, SIGMA_X])
        u = _pade_exponential(at_cap)
        assert np.all(np.isfinite(u))
        assert max(linalg.unitarity_defect(x) for x in u) <= 1e-6
        above = np.nextafter(PADE_NORM_CAP, np.inf)
        with pytest.raises(ValueError, match=r"1-norm 8\.389e\+06, above the cap 8\.389e\+06"):
            _pade_exponential(-1j * np.stack([above * SIGMA_Z, SIGMA_X]))

    def test_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Pade route must not diagonalize")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        h = random_hermitian(4, np.random.default_rng(5))
        assert _relative_error(general_exponential(h, -3j),
                               scipy.linalg.expm(-3j * h)) <= 1e-13


def _pme_bruteforce(u, bra, ket):
    # explicit index-sum definition of the system-side contraction
    d = bra.size
    other = u.shape[0] // d
    out = np.zeros((other, other), dtype=complex)
    for a in range(other):
        for b in range(other):
            for s in range(d):
                for t in range(d):
                    out[a, b] += bra[s].conjugate() * u[s * other + a, t * other + b] * ket[t]
    return out


class TestPartialMatrixElement:
    def test_identity_contraction(self):
        u = np.eye(6, dtype=complex)
        e0 = np.eye(2, dtype=complex)[0]
        out = partial_matrix_element(u, e0, e0)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-15)

    def test_factorized_operator(self):
        rng = np.random.default_rng(5)
        b = complex_gaussian(rng, (3, 3))
        psi = random_state(2, rng)
        out = partial_matrix_element(tensor_product(np.eye(2), b), psi, psi)
        np.testing.assert_allclose(out, b, atol=1e-14)

    def test_cnot_on_plus(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=complex)
        out = partial_matrix_element(cnot, KET_PLUS, KET_PLUS)
        # explicit 4x4 contraction gives (I + X)/2
        np.testing.assert_allclose(out, (np.eye(2) + SIGMA_X) / 2, atol=1e-15)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3)])
    def test_against_bruteforce(self, dims):
        rng = np.random.default_rng(list(dims))
        ds, da = dims
        u = complex_gaussian(rng, (ds * da, ds * da))
        bra, ket = complex_gaussian(rng, ds), complex_gaussian(rng, ds)
        out = partial_matrix_element(u, bra, ket)
        np.testing.assert_allclose(out, _pme_bruteforce(u, bra, ket), atol=1e-12)

    def test_linear_in_u_sesquilinear_in_states(self):
        rng = np.random.default_rng(6)
        u1, u2 = (complex_gaussian(rng, (6, 6)) for _ in range(2))
        bra, ket = complex_gaussian(rng, 2), complex_gaussian(rng, 2)
        lam, mu = 0.3 - 1.1j, -0.7 + 0.2j
        combined = partial_matrix_element(lam * u1 + mu * u2, bra, ket)
        split = (lam * partial_matrix_element(u1, bra, ket)
                 + mu * partial_matrix_element(u2, bra, ket))
        np.testing.assert_allclose(combined, split, atol=1e-12)
        scaled = partial_matrix_element(u1, lam * bra, mu * ket)
        np.testing.assert_allclose(
            scaled, np.conj(lam) * mu * partial_matrix_element(u1, bra, ket),
            atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="not divisible"):
            e0 = np.eye(4, dtype=complex)[0]
            partial_matrix_element(np.eye(6), e0, e0)


class TestNormalize:
    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            normalize(np.zeros(3))

    def test_unit_norm_and_positive_pivot(self):
        v = normalize(np.array([-2j, 1.0]))
        assert abs(np.linalg.norm(v) - 1) <= 1e-14
        assert v[0].imag == pytest.approx(0, abs=1e-14)
        assert v[0].real > 0

    def test_idempotent_and_phase_canonical(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = complex_gaussian(rng, 6)
            lam = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2))
            np.testing.assert_allclose(normalize(lam * v), normalize(v), atol=1e-12)
            np.testing.assert_allclose(normalize(normalize(v)), normalize(v), atol=1e-14)

    def test_skips_tiny_leading_amplitude(self):
        v = normalize(np.array([1e-16 + 0j, 0.0, -1.0]))
        assert v[2].real > 0

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("v", [[np.inf, np.inf], [1.0, np.nan], [np.inf, 0.0],
                                   [1e308, 1e308]])
    def test_rejects_non_finite_norm(self, v):
        with pytest.raises(ValueError, match="non-finite norm"):
            normalize(v)


class TestBasisHelpers:
    def test_orthonormality_defect(self):
        u = random_unitary(4, np.random.default_rng(11))
        assert orthonormality_defect(u) <= 1e-12
        with pytest.raises(ValueError, match="incomplete"):
            require_orthonormal_basis(u[:, :2])
        skewed = u.copy()
        skewed[:, 0] *= 1.5
        with pytest.raises(ValueError, match="not orthonormal"):
            require_orthonormal_basis(skewed)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_refused(self, bad):
        basis = np.eye(2, dtype=complex)
        basis[1, 0] = bad
        with pytest.raises(ValueError, match="not orthonormal"):
            require_orthonormal_basis(basis)

    def test_fidelity_phase_invariant(self):
        rng = np.random.default_rng(12)
        v = complex_gaussian(rng, 5)
        assert fidelity(v, np.exp(1.3j) * v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [[np.inf, 1.0], [np.nan, 1.0]])
    def test_fidelity_rejects_non_finite_norm(self, bad):
        good = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="finite norms"):
            fidelity(bad, good)
        with pytest.raises(ValueError, match="finite norms"):
            fidelity(good, bad)
