import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from potentops import (
    PotentValueSet,
    PrePostSelection,
    QubitMeter,
    apparatus_state_from_potent_values,
    conditional_unitary,
    evolution_operators,
    hermitian_exponential,
    joint_evolve_and_postselect,
    kraus_slices,
    modular_value,
    normalize,
    potent_completeness_residual,
    potent_operator,
    potent_operator_apparatus_controlled,
    potent_operator_system_controlled,
    potent_values,
    tensor_product,
    weak_value,
)
from potentops.pauli import (
    AMPLIFICATION_PHI,
    AMPLIFICATION_PSI,
    IDENTITY_2,
    KET_PLUS,
    PROJECT_1,
    SIGMA_X,
    SIGMA_Z,
)
from potentops.linalg import UNITARY_TOL
from potentops.pps import EPS_OVERLAP, diagonal_potent_operator, spectral_weights
from potentops.sampling import (
    complex_gaussian,
    random_hermitian,
    random_projector_decomposition,
    random_selection,
    random_state,
    random_unitary,
)


@pytest.fixture
def amplification():
    return PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI)


class TestPrePostSelection:
    def test_overlap_cache(self, amplification):
        recomputed = np.vdot(amplification.phi, amplification.psi)
        assert abs(amplification.overlap - recomputed) <= 1e-14
        assert abs(amplification.overlap - 0.5) <= 1e-15
        # <phi|psi> is conjugate-linear in phi
        rng = np.random.default_rng(8)
        psi, phi = complex_gaussian(rng, 4), complex_gaussian(rng, 4)
        lam = 0.6 + 0.9j
        scaled = PrePostSelection(psi, lam * phi).overlap
        assert abs(scaled - np.conj(lam) * PrePostSelection(psi, phi).overlap) <= 1e-12

    def test_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="non-orthogonal selections"):
            PrePostSelection(np.array([1, 0]), np.array([0, 1]))

    @staticmethod
    def _at_cosine(c):
        # normalized overlap |<phi|psi>| / (|phi||psi|) = c, up to rounding
        return np.array([1.0, 0.0]), np.array([c, np.sqrt(1.0 - c * c)])

    # The overlap guard refuses from below: twice the floor passes, half is refused.
    def test_twice_the_floor_passes(self):
        sel = PrePostSelection(*self._at_cosine(2 * EPS_OVERLAP))
        assert abs(sel.overlap) == pytest.approx(2 * EPS_OVERLAP, rel=1e-12)

    def test_half_the_floor_refused(self):
        with pytest.raises(ValueError, match=f"<= {EPS_OVERLAP:.1e}"):
            PrePostSelection(*self._at_cosine(EPS_OVERLAP / 2))

    def test_nan_overlap_refused(self):
        psi, phi = self._at_cosine(0.5)
        phi[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PrePostSelection(psi, phi)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            PrePostSelection(np.array([1, 0, 0]), np.array([1, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PrePostSelection(np.array([bad, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            PrePostSelection(np.array([1.0, 0.0]), np.array([1.0, bad]))

    def test_guard_is_scale_invariant(self, amplification):
        tiny = PrePostSelection(1e-11 * AMPLIFICATION_PSI, AMPLIFICATION_PHI)
        assert weak_value(SIGMA_Z, tiny) == pytest.approx(weak_value(SIGMA_Z, amplification),
                                                          abs=1e-12)
        with pytest.raises(ValueError, match="non-orthogonal selections"):
            PrePostSelection(1e6 * np.array([1, 0]), np.array([1e-11, 1.0]))


class TestWeakValue:
    def test_identity_observable(self, amplification):
        assert abs(weak_value(IDENTITY_2, amplification) - 1) <= 1e-14

    def test_expectation_when_no_postselection_bias(self):
        psi = random_state(3, np.random.default_rng(0))
        sel = PrePostSelection(psi, psi)
        a = random_hermitian(3, np.random.default_rng(1))
        assert abs(weak_value(a, sel) - np.vdot(psi, a @ psi)) <= 1e-12

    def test_amplification_beyond_spectrum(self, amplification):
        # direct evaluation: <phi|sigma_z|psi> / <phi|psi> = 1 / (1/2)
        assert abs(weak_value(SIGMA_Z, amplification) - 2.0) <= 1e-14

    def test_scale_invariance(self, amplification):
        rng = np.random.default_rng(2)
        for _ in range(10):
            lam = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2))
            mu = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2))
            scaled = PrePostSelection(lam * AMPLIFICATION_PSI, mu * AMPLIFICATION_PHI)
            assert abs(weak_value(SIGMA_Z, scaled) - weak_value(SIGMA_Z, amplification)) <= 1e-12


class TestModularValue:
    def test_zero_coupling(self, amplification):
        assert abs(modular_value(SIGMA_Z, 0.0, amplification) - 1) <= 1e-14

    def test_identity_gives_global_phase(self, amplification):
        g = 0.37
        assert abs(modular_value(IDENTITY_2, g, amplification) - np.exp(-1j * g)) <= 1e-14

    def test_amplification_quarter_turn(self, amplification):
        assert abs(modular_value(SIGMA_Z, np.pi / 2, amplification) - (-2j)) <= 1e-12

    def test_scale_invariance(self, amplification):
        rng = np.random.default_rng(30)
        base = modular_value(SIGMA_Z, 0.7, amplification)
        for _ in range(5):
            lam = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2))
            mu = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2))
            scaled = PrePostSelection(lam * AMPLIFICATION_PSI, mu * AMPLIFICATION_PHI)
            assert abs(modular_value(SIGMA_Z, 0.7, scaled) - base) <= 1e-12

    def test_involution_closed_form(self, amplification):
        # for A^2 = I: exp(-igA) = cos(g) I - i sin(g) A, so the modular value
        # is cos(g) - i sin(g) A_w
        a_w = weak_value(SIGMA_Z, amplification)
        for g in (0.1, 0.9, 2.4, np.pi):
            expected = np.cos(g) - 1j * np.sin(g) * a_w
            assert abs(modular_value(SIGMA_Z, g, amplification) - expected) <= 1e-12


@st.composite
def spectral_cases(draw):
    """A Hermitian A of dim 1-5 with entries of modulus <= sqrt(2), and a
    selection whose normalized overlap is at least 0.1."""
    d = draw(st.integers(1, 5))
    parts = draw(arrays(np.float64, (2, d, d + 2), elements=st.floats(-1, 1)))
    z = parts[0] + 1j * parts[1]
    A = (z[:, :d] + z[:, :d].conj().T) / 2
    psi, phi = z[:, d], z[:, d + 1]
    norms = np.linalg.norm(psi) * np.linalg.norm(phi)
    assume(norms > 1e-3 and abs(np.vdot(phi, psi)) >= 0.1 * norms)
    return A, PrePostSelection(psi, phi), draw(st.floats(-3, 3))


@st.composite
def stacked_spectral_cases(draw):
    """An (n, d, d) stack of Hermitian A, some entries possibly NaN, a
    selection as in spectral_cases, and 1-4 couplings in [-3, 3]."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(arrays(np.float64, (2, n, d, d),
                        elements=st.one_of(st.floats(-1, 1), st.just(np.nan))))
    z = parts[0] + 1j * parts[1]
    _, sel, _ = draw(spectral_cases().filter(lambda case: case[1].dim == d))
    gs = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=4))
    return (z + z.conj().swapaxes(-1, -2)) / 2, sel, np.array(gs)


class TestSpectralWeights:
    """The branch engine: (lam, w) from one eigendecomposition of A, and the
    diagonal potent operator sum_n w_n exp(-i g lam_n p)."""

    @settings(max_examples=150, deadline=None)
    @given(case=spectral_cases())
    def test_weights_sum_to_one_and_give_the_weak_value(self, case):
        A, sel, _ = case
        lam, w = spectral_weights(A, sel)
        assert abs(np.sum(w) - 1) <= 1e-12
        assert abs(lam @ w - weak_value(A, sel)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(case=spectral_cases())
    def test_qubit_meter_diagonal_is_the_joint_potent_operator(self, case):
        A, sel, g = case
        d = diagonal_potent_operator(*spectral_weights(A, sel), g, [0.0, 1.0])
        joint = evolution_operators(tensor_product(A, PROJECT_1), [g])[0]
        assert np.max(np.abs(np.diag(d) - potent_operator(joint, sel).matrix)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(case=spectral_cases())
    def test_modular_value_second_order_remainder(self, case):
        # A_M - 1 + i g A_w = sum_n w_n (exp(-i g lam_n) - 1 + i g lam_n), and
        # each bracket is at most (g lam_n)^2 / 2 in modulus
        A, sel, g = case
        lam, w = spectral_weights(A, sel)
        remainder = modular_value(A, g, sel) - 1 + 1j * g * weak_value(A, sel)
        assert abs(remainder) <= 0.5 * g ** 2 * np.sum(np.abs(w) * lam ** 2) + 1e-12

    # A stack of A, or a vector of couplings, gives the bits of per-entry
    # calls. Weak values are the exception: one matrix's is divided by
    # <phi|psi> in Python's complex division, a stack's in numpy's, which
    # differ by an ulp. A NaN entry is refused as that entry would be where a
    # guard reads it, and stays NaN where none does (weak_value takes any A).
    @settings(max_examples=100, deadline=None)
    @given(case=stacked_spectral_cases())
    def test_stack_matches_per_matrix_calls(self, case):
        A, sel, gs = case
        per_entry = np.array([weak_value(a, sel) for a in A])
        stacked = weak_value(A, sel)
        np.testing.assert_array_equal(np.isnan(stacked), np.isnan(per_entry))
        finite = ~np.isnan(per_entry)
        assert np.all(np.abs(stacked - per_entry)[finite] <= 1e-15 * np.abs(per_entry[finite]))
        with_nan = [i for i, a in enumerate(A) if np.isnan(a).any()]
        if with_nan:
            for refused in (lambda: spectral_weights(A, sel),
                            lambda: modular_value(A, gs[0], sel)):
                with pytest.raises(ValueError, match=rf"^A\[{with_nan[0]}\] is not Hermitian"):
                    refused()
            return
        lam, w = spectral_weights(A, sel)
        per_lam, per_w = zip(*(spectral_weights(a, sel) for a in A))
        assert lam.tobytes() == np.array(per_lam).tobytes()
        assert w.tobytes() == np.array(per_w).tobytes()
        assert modular_value(A, gs[0], sel).tobytes() == np.array(
            [modular_value(a, gs[0], sel) for a in A]).tobytes()
        assert modular_value(A[0], gs, sel).tobytes() == np.array(
            [modular_value(A[0], g, sel) for g in gs]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(parts=st.integers(1, 4).flatmap(lambda n: st.integers(1, 4).flatmap(
        lambda d: arrays(np.float64, (3, n, d), elements=st.one_of(
            st.floats(-3, 3), st.just(np.nan))))),
           gs=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
           p=st.lists(st.floats(-3, 3), min_size=1, max_size=3))
    def test_diagonal_potent_operator_matches_per_entry_calls(self, parts, gs, p):
        lam, w = parts[0], parts[1] + 1j * parts[2]
        by_entry = [diagonal_potent_operator(x, v, gs[0], p) for x, v in zip(lam, w)]
        assert diagonal_potent_operator(lam, w, gs[0], p).tobytes() == np.array(by_entry).tobytes()
        by_coupling = [diagonal_potent_operator(lam[0], w[0], g, p) for g in gs]
        assert diagonal_potent_operator(lam[0], w[0], gs, p).tobytes() \
            == np.array(by_coupling).tobytes()

    def test_guards(self, amplification):
        with pytest.raises(ValueError, match="not Hermitian"):
            spectral_weights(np.array([[0, 1], [0, 0]]), amplification)
        with pytest.raises(ValueError, match="operator dim 3 != selection dim 2"):
            spectral_weights(np.eye(3), amplification)


class TestJointEvolveAndPostselect:
    @pytest.mark.parametrize("state", ["psi", "phi", "Phi"])
    def test_nan_state_refused(self, state):
        states = {"psi": np.array([1.0, 0.0]), "phi": KET_PLUS.copy(),
                  "Phi": np.array([0.0, 1.0])}
        states[state] = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match=rf"^{state} must be normalized \(norm = nan\)$"):
            joint_evolve_and_postselect(np.eye(4), states["psi"], states["Phi"], states["phi"])

    def test_no_interaction(self):
        rng = np.random.default_rng(3)
        psi, phi = random_selection(2, rng)
        Phi = random_state(3, rng)
        state, p = joint_evolve_and_postselect(np.eye(6), psi, Phi, phi)
        ov = np.vdot(phi, psi)
        np.testing.assert_allclose(state, ov * Phi, atol=1e-14)
        assert abs(p - abs(ov) ** 2) <= 1e-14

    def test_orthogonal_selection_yields_zero(self):
        Phi = random_state(2, np.random.default_rng(4))
        state, p = joint_evolve_and_postselect(
            np.eye(4), np.array([1, 0]), Phi, np.array([0, 1]))
        np.testing.assert_allclose(state, 0, atol=1e-15)
        assert p == 0

    def test_qubit_meter_matches_modular_prediction(self, amplification):
        g, alpha, beta = 1.1, 0.6, 0.8
        joint = hermitian_exponential(tensor_product(SIGMA_Z, PROJECT_1), -1j * g)
        Phi = np.array([alpha, beta])
        state, p = joint_evolve_and_postselect(
            joint, AMPLIFICATION_PSI, Phi, AMPLIFICATION_PHI)
        m = modular_value(SIGMA_Z, g, amplification)
        expected = amplification.overlap * np.array([alpha, beta * m])
        np.testing.assert_allclose(state, expected, atol=1e-13)
        assert abs(p - np.linalg.norm(expected) ** 2) <= 1e-13

    def test_rejects_non_unitary(self):
        rng = np.random.default_rng(5)
        psi, phi = random_selection(2, rng)
        with pytest.raises(ValueError, match="not unitary"):
            joint_evolve_and_postselect(np.eye(4) * 2, psi, random_state(2, rng), phi)

    def test_joint_of_the_wrong_shape_refused(self):
        rng = np.random.default_rng(7)
        psi, phi = random_selection(2, rng)
        Phi = random_state(3, rng)
        with pytest.raises(ValueError, match=r"^joint shape \(5, 5\) is not \(2 \* 3\)\^2$"):
            joint_evolve_and_postselect(np.eye(5), psi, Phi, phi)
        with pytest.raises(ValueError, match=r"^joint shape \(3, 6, 6\) is not"):
            joint_evolve_and_postselect(np.stack([np.eye(6)] * 3), psi, Phi, phi)

    def test_rejects_unnormalized_states(self):
        rng = np.random.default_rng(6)
        psi, phi = random_selection(2, rng)
        with pytest.raises(ValueError, match="normalized"):
            joint_evolve_and_postselect(np.eye(4), 2 * psi, random_state(2, rng), phi)


class TestKrausSlices:
    def test_identity_evolution(self):
        rng = np.random.default_rng(8)
        Phi = random_state(3, rng)
        basis = random_unitary(3, rng)
        slices = kraus_slices(np.eye(6), Phi, basis)
        for k, a_k in enumerate(slices):
            amp = np.vdot(basis[:, k], Phi)
            np.testing.assert_allclose(a_k, amp * np.eye(2), atol=1e-14)

    def test_qubit_meter_slices(self, amplification):
        # closed form of the projector coupling: U = I + (exp(-igA) - I)(x)|1><1|,
        # so the slices are alpha * I and beta * exp(-igA)
        g, alpha, beta = 0.9, 0.6, 0.8
        joint = hermitian_exponential(tensor_product(SIGMA_Z, PROJECT_1), -1j * g)
        closed_form = (tensor_product(IDENTITY_2, np.eye(2) - PROJECT_1)
                       + tensor_product(hermitian_exponential(SIGMA_Z, -1j * g), PROJECT_1))
        np.testing.assert_allclose(joint, closed_form, atol=1e-13)
        a0, a1 = kraus_slices(joint, np.array([alpha, beta]), np.eye(2, dtype=complex))
        np.testing.assert_allclose(a0, alpha * np.eye(2), atol=1e-13)
        np.testing.assert_allclose(a1, beta * hermitian_exponential(SIGMA_Z, -1j * g),
                                   atol=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3)])
    def test_against_bruteforce(self, dims):
        # explicit index sum A_k[s, t] = sum_ab conj(<a|k>) U[(s, a), (t, b)] Phi[b]
        rng = np.random.default_rng(list(dims))
        ds, da = dims
        u = complex_gaussian(rng, (ds * da, ds * da))
        Phi, basis = random_state(da, rng), random_unitary(da, rng)
        for k, a_k in enumerate(kraus_slices(u, Phi, basis)):
            expected = np.zeros((ds, ds), dtype=complex)
            for s in range(ds):
                for t in range(ds):
                    for a in range(da):
                        for b in range(da):
                            expected[s, t] += (basis[a, k].conjugate()
                                               * u[s * da + a, t * da + b] * Phi[b])
            np.testing.assert_allclose(a_k, expected, atol=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(9)
        joint = random_unitary(6, rng)
        Phi = random_state(3, rng)
        slices = kraus_slices(joint, Phi, random_unitary(3, rng))
        total = sum(a.conj().T @ a for a in slices)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-10

    def test_rejects_non_orthonormal_basis(self):
        rng = np.random.default_rng(10)
        basis = random_unitary(3, rng)
        basis[:, 0] *= 1.2
        with pytest.raises(ValueError, match="^basis is not unitary"):
            kraus_slices(np.eye(6), random_state(3, rng), basis)

    def test_rejects_unnormalized_meter_state(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="normalized"):
            kraus_slices(np.eye(6), 2 * random_state(3, rng), random_unitary(3, rng))


class TestPotentValues:
    def test_identity_gives_meter_amplitudes(self, amplification):
        rng = np.random.default_rng(11)
        Phi = random_state(3, rng)
        basis = random_unitary(3, rng)
        pvs = potent_values(np.eye(6), Phi, basis, amplification)
        np.testing.assert_allclose(pvs.values, basis.conj().T @ Phi, atol=1e-13)

    def test_qubit_meter_reduction(self, amplification):
        g, alpha, beta = 1.3, 0.6, 0.8
        joint = hermitian_exponential(tensor_product(SIGMA_Z, PROJECT_1), -1j * g)
        pvs = potent_values(joint, np.array([alpha, beta]), np.eye(2, dtype=complex),
                            amplification)
        m = modular_value(SIGMA_Z, g, amplification)
        np.testing.assert_allclose(pvs.values, [alpha, beta * m], atol=1e-13)

    def test_reconstruction_matches_oracle(self):
        rng = np.random.default_rng(12)
        psi, phi = random_selection(2, rng)
        sel = PrePostSelection(psi, phi)
        Phi = random_state(2, rng)
        joint = random_unitary(4, rng)
        pvs = potent_values(joint, Phi, np.eye(2, dtype=complex), sel)
        oracle, _ = joint_evolve_and_postselect(joint, psi, Phi, phi)
        np.testing.assert_allclose(apparatus_state_from_potent_values(pvs),
                                   normalize(oracle), atol=1e-12)

    def test_probability_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ds, da = rng.integers(2, 5, size=2)
            joint = random_unitary(int(ds * da), rng)
            psi, phi = random_selection(int(ds), rng)
            Phi = random_state(int(da), rng)
            sel = PrePostSelection(psi, phi)
            pvs = potent_values(joint, Phi, np.eye(int(da), dtype=complex), sel)
            _, p_exact = joint_evolve_and_postselect(joint, psi, Phi, phi)
            predicted = np.linalg.norm(pvs.values) ** 2 * abs(sel.overlap) ** 2
            assert abs(predicted - p_exact) <= 1e-10

    def test_basis_independence_of_reconstruction(self):
        rng = np.random.default_rng(14)
        psi, phi = random_selection(3, rng)
        sel = PrePostSelection(psi, phi)
        Phi = random_state(4, rng)
        joint = random_unitary(12, rng)
        states = []
        for _ in range(3):
            basis = random_unitary(4, rng)
            pvs = potent_values(joint, Phi, basis, sel)
            states.append(apparatus_state_from_potent_values(pvs))
        for other in states[1:]:
            assert np.max(np.abs(states[0] - other)) <= 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(15)
        psi, phi = random_selection(2, rng)
        Phi = random_state(3, rng)
        joint = random_unitary(6, rng)
        base = potent_values(joint, Phi, np.eye(3, dtype=complex),
                             PrePostSelection(psi, phi))
        lam = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        mu = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        scaled = potent_values(joint, Phi, np.eye(3, dtype=complex),
                               PrePostSelection(lam * psi, mu * phi))
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-12)


class TestApparatusState:
    def test_identity_returns_meter_state(self, amplification):
        Phi = normalize(random_state(3, np.random.default_rng(16)))
        pvs = potent_values(np.eye(6), Phi, np.eye(3, dtype=complex), amplification)
        np.testing.assert_allclose(apparatus_state_from_potent_values(pvs), Phi, atol=1e-13)

    def test_qubit_meter_final_state(self, amplification):
        g, alpha, beta = 0.8, 0.6, 0.8
        joint = hermitian_exponential(tensor_product(SIGMA_Z, PROJECT_1), -1j * g)
        pvs = potent_values(joint, np.array([alpha, beta]), np.eye(2, dtype=complex),
                            amplification)
        m = modular_value(SIGMA_Z, g, amplification)
        expected = normalize(np.array([alpha, beta * m]))
        np.testing.assert_allclose(apparatus_state_from_potent_values(pvs), expected,
                                   atol=1e-13)

    def test_all_zero_values_rejected(self):
        pvs = PotentValueSet(basis=np.eye(2, dtype=complex), values=np.zeros(2, dtype=complex))
        with pytest.raises(ValueError, match="vanish"):
            apparatus_state_from_potent_values(pvs)


class TestPotentOperator:
    def test_identity(self, amplification):
        op = potent_operator(np.eye(6), amplification)
        np.testing.assert_allclose(op.matrix, np.eye(3), atol=1e-13)

    def test_qubit_meter_closed_form(self, amplification):
        g = 1.7
        joint = hermitian_exponential(tensor_product(SIGMA_Z, PROJECT_1), -1j * g)
        op = potent_operator(joint, amplification)
        m = modular_value(SIGMA_Z, g, amplification)
        np.testing.assert_allclose(op.matrix, np.diag([1.0, m]), atol=1e-12)

    def test_apply_matches_oracle(self):
        rng = np.random.default_rng(20)
        psi, phi = random_selection(3, rng)
        sel = PrePostSelection(psi, phi)
        Phi = random_state(4, rng)
        joint = random_unitary(12, rng)
        op = potent_operator(joint, sel)
        oracle, _ = joint_evolve_and_postselect(joint, psi, Phi, phi)
        np.testing.assert_allclose(op.apply(Phi) * sel.overlap, oracle, atol=1e-12)

    def test_three_way_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            ds, da = (int(d) for d in rng.integers(2, 5, size=2))
            joint = random_unitary(ds * da, rng)
            psi, phi = random_selection(ds, rng)
            Phi = random_state(da, rng)
            sel = PrePostSelection(psi, phi)
            from_values = apparatus_state_from_potent_values(
                potent_values(joint, Phi, np.eye(da, dtype=complex), sel))
            from_operator = normalize(potent_operator(joint, sel).apply(Phi))
            oracle, _ = joint_evolve_and_postselect(joint, psi, Phi, phi)
            from_oracle = normalize(oracle)
            assert np.max(np.abs(from_values - from_operator)) <= 1e-10
            assert np.max(np.abs(from_operator - from_oracle)) <= 1e-10


class TestCompletenessIdentity:
    def test_identity_unitary(self):
        phi = random_state(2, np.random.default_rng(22))
        assert potent_completeness_residual(np.eye(6), phi, np.eye(2, dtype=complex)) <= 1e-12

    def test_random_joint_unitary(self):
        rng = np.random.default_rng(23)
        joint = random_unitary(6, rng)
        phi = random_state(2, rng)
        assert potent_completeness_residual(joint, phi, np.eye(2, dtype=complex)) <= 1e-10

    def test_pauli_coupling(self):
        joint = hermitian_exponential(tensor_product(SIGMA_Z, SIGMA_X), -1.3j)
        phi = random_state(2, np.random.default_rng(24))
        assert potent_completeness_residual(joint, phi, np.eye(2, dtype=complex)) <= 1e-10

    def test_dimension_grid(self):
        rng = np.random.default_rng(25)
        for ds in (2, 3, 4):
            for da in (2, 3, 4):
                for _ in range(5):
                    joint = random_unitary(ds * da, rng)
                    phi = random_state(ds, rng)
                    residual = potent_completeness_residual(joint, phi,
                                                            np.eye(ds, dtype=complex))
                    assert residual <= 1e-10

    def test_incomplete_basis_rejected(self):
        phi = random_state(2, np.random.default_rng(26))
        with pytest.raises(ValueError, match=r"square matrix .* got shape \(2, 1\)$"):
            potent_completeness_residual(np.eye(6), phi, np.eye(2, dtype=complex)[:, :1])

    @pytest.mark.parametrize("ds, da", [(2, 3), (3, 2), (4, 4)])
    def test_stack_matches_per_matrix_calls(self, ds, da):
        rng = np.random.default_rng(27)
        joints = np.stack([random_unitary(ds * da, rng) for _ in range(7)])
        phis = np.stack([random_state(ds, rng) for _ in range(7)])
        basis = random_unitary(ds, rng)
        stacked = potent_completeness_residual(joints, phis, basis)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (7,)
        per_matrix = [potent_completeness_residual(u, phi, basis) for u, phi in zip(joints, phis)]
        assert all(type(r) is float for r in per_matrix)
        np.testing.assert_allclose(stacked, per_matrix, rtol=0, atol=1e-15)
        # a grid of stacks reads the same
        grid = potent_completeness_residual(joints[:6].reshape(2, 3, ds * da, ds * da),
                                            phis[:6].reshape(2, 3, ds), basis)
        np.testing.assert_allclose(grid.ravel(), per_matrix[:6], rtol=0, atol=1e-15)

    def test_stack_refusal_names_the_entry(self):
        rng = np.random.default_rng(28)
        joints = np.stack([random_unitary(6, rng) for _ in range(4)])
        phis = np.stack([random_state(2, rng) for _ in range(4)])
        basis = np.eye(2, dtype=complex)
        joints[2] *= 2
        with pytest.raises(ValueError, match=r"^joint evolution\[2\] is not unitary"):
            potent_completeness_residual(joints, phis, basis)
        joints[2] /= 2
        phis[3] *= 2
        with pytest.raises(ValueError, match=r"^phi\[3\] must be normalized"):
            potent_completeness_residual(joints, phis, basis)


# Both readers of a complete orthonormal basis guard it as one unitary, under the
# name 'basis': a Gram defect of half UNITARY_TOL passes and twice it is refused.
@pytest.mark.parametrize("read", [
    lambda basis: kraus_slices(np.eye(6), np.array([1.0, 0.0, 0.0]), basis),
    lambda basis: potent_completeness_residual(np.eye(9), np.array([1.0, 0.0, 0.0]), basis),
], ids=["kraus_slices", "potent_completeness_residual"])
def test_basis_is_guarded_as_a_unitary(read):
    def with_gram_defect(defect):  # B^dag B - I = diag(0, 0, defect), up to rounding
        return np.diag([1.0, 1.0, np.sqrt(1.0 + defect)]).astype(complex)

    read(with_gram_defect(UNITARY_TOL / 2))
    refusal = rf"^basis is not unitary \(max \|U\^dag U - I\| = 2\.000e-10 > {UNITARY_TOL:.1e}\)$"
    with pytest.raises(ValueError, match=refusal):
        read(with_gram_defect(2 * UNITARY_TOL))


class TestSystemControlled:
    def test_single_block(self, amplification):
        u1 = random_unitary(3, np.random.default_rng(27))
        op, weak_vals = potent_operator_system_controlled([np.eye(2)], [u1], amplification)
        np.testing.assert_allclose(op.matrix, u1, atol=1e-13)
        assert abs(weak_vals[0] - 1) <= 1e-13

    def test_weak_values_sum_to_one(self):
        rng = np.random.default_rng(28)
        projectors = random_projector_decomposition(4, 3, rng)
        unitaries = [random_unitary(2, rng) for _ in projectors]
        sel = PrePostSelection(*random_selection(4, rng))
        _, weak_vals = potent_operator_system_controlled(projectors, unitaries, sel)
        assert abs(sum(weak_vals) - 1) <= 1e-12

    def test_matches_assembled_unitary(self, amplification):
        rng = np.random.default_rng(29)
        projectors = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
        unitaries = [np.eye(2, dtype=complex),
                     hermitian_exponential(random_hermitian(2, rng), -0.9j)]
        op, _ = potent_operator_system_controlled(projectors, unitaries, amplification)
        assembled = potent_operator(conditional_unitary(projectors, unitaries), amplification)
        np.testing.assert_allclose(op.matrix, assembled.matrix, atol=1e-12)

    def test_weak_sum_bound_follows_the_projector_guard(self, amplification):
        # sum Pi_n - I = diag(0, 5e-11) is within PROJECTOR_TOL, so the family
        # is admitted; its weak values then sum to 1 + 5e-11 phi_1^* psi_1 /
        # <phi|psi>, which is more than 1e-12 away from 1 and must not be refused
        projectors = [np.diag([1, 0]).astype(complex), np.diag([0, 1 + 5e-11]).astype(complex)]
        _, weak_vals = potent_operator_system_controlled(projectors, [np.eye(2)] * 2,
                                                         amplification)
        expected = 1 + 5e-11 * np.conj(AMPLIFICATION_PHI[1]) * AMPLIFICATION_PSI[1] \
            / amplification.overlap
        assert abs(sum(weak_vals) - 1) > 1e-12
        assert abs(sum(weak_vals) - expected) <= 1e-15

    def test_projector_axioms_enforced(self, amplification):
        overlapping = [np.diag([1, 0]).astype(complex), np.diag([1, 1]).astype(complex)]
        with pytest.raises(ValueError, match="projector"):
            potent_operator_system_controlled(overlapping, [np.eye(2)] * 2, amplification)

    # "defect > tol" is False for NaN; each guard below must refuse it. A NaN
    # entry already fails the Hermiticity check, so the later guards are
    # reached by switching the earlier ones off.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_projector_not_hermitian(self, amplification):
        projectors = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
        projectors[0][0, 1] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            potent_operator_system_controlled(projectors, [np.eye(2)] * 2, amplification)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_projector_product_refused(self, amplification, monkeypatch):
        from potentops import linalg

        monkeypatch.setattr(linalg, "hermiticity_defect", lambda p: 0.0)
        projectors = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
        projectors[0][0, 0] = np.nan
        with pytest.raises(ValueError, match="violate P_i P_j"):
            potent_operator_system_controlled(projectors, [np.eye(2)] * 2, amplification)

    def test_nan_projector_sum_refused(self, monkeypatch):
        from potentops import pps

        # the projector stack is summed by one np.sum over its first axis
        monkeypatch.setattr(pps.np, "sum", lambda stack, axis: np.full(stack.shape[1:], np.nan))
        projectors = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
        with pytest.raises(ValueError, match="do not sum to the identity"):
            pps._require_projector_decomposition(projectors, 2, "system projectors")

    def test_nan_weak_value_sum_refused(self, amplification, monkeypatch):
        from potentops import pps

        # one weak value per projector of the stack
        monkeypatch.setattr(pps, "weak_value",
                            lambda A, sel: np.full(A.shape[:-2], complex(np.nan, 0.0)))
        with pytest.raises(ValueError, match=r"sum to \(nan"):
            potent_operator_system_controlled([np.eye(2)], [np.eye(2)], amplification)


class TestApparatusControlled:
    def test_zero_coupling(self, amplification):
        projectors = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
        generators = [SIGMA_Z, SIGMA_X]
        op, modular_vals = potent_operator_apparatus_controlled(
            generators, projectors, 0.0, amplification)
        np.testing.assert_allclose(op.matrix, np.eye(2), atol=1e-13)
        assert all(abs(m - 1) <= 1e-13 for m in modular_vals)

    def test_single_block(self, amplification):
        op, modular_vals = potent_operator_apparatus_controlled(
            [SIGMA_Z], [np.eye(3)], 0.7, amplification)
        np.testing.assert_allclose(op.matrix, modular_vals[0] * np.eye(3), atol=1e-13)
        assert abs(modular_vals[0] - modular_value(SIGMA_Z, 0.7, amplification)) <= 1e-13

    def test_matches_assembled_unitary(self, amplification):
        projectors = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
        generators = [SIGMA_Z, SIGMA_X]
        lam = 1.21
        op, _ = potent_operator_apparatus_controlled(generators, projectors, lam,
                                                     amplification)
        branches = evolution_operators(np.array(generators), [lam])[0]
        assembled = potent_operator(conditional_unitary(branches, projectors), amplification)
        np.testing.assert_allclose(op.matrix, assembled.matrix, atol=1e-12)


class TestModularWeakLimit:
    def test_residual_halves_with_g(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            a = random_hermitian(dim, rng)
            sel = PrePostSelection(*random_selection(dim, rng))
            a_w = weak_value(a, sel)
            residuals = [abs((1 - modular_value(a, g, sel)) / (1j * g) - a_w)
                         for g in (0.1, 0.05, 0.025)]
            assert residuals[0] / residuals[1] == pytest.approx(2.0, abs=0.5)
            assert residuals[1] / residuals[2] == pytest.approx(2.0, abs=0.5)


# A seed for numpy's generator, system and apparatus dimensions in 2-4, and a
# coupling g in [0, 2 pi].
SEEDED_DRAWS = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(2, 4),
                         st.floats(0, 2 * np.pi))


def _selection_at_overlap(dim, rng):
    """Random unit (psi, phi) with |<phi|psi>| >= 0.1."""
    psi, phi = random_state(dim, rng), random_state(dim, rng)
    assume(abs(np.vdot(phi, psi)) >= 0.1)
    return psi, phi


class TestIdentityProperties:
    """The paper's identities over random draws, at the tolerances verify
    holds them to."""

    @settings(max_examples=50, deadline=None)
    @given(case=SEEDED_DRAWS)
    def test_kraus_completeness(self, case):
        seed, ds, da, _ = case
        rng = np.random.default_rng(seed)
        joint = random_unitary(ds * da, rng)
        slices = kraus_slices(joint, random_state(da, rng), random_unitary(da, rng))
        assert np.max(np.abs(sum(s.conj().T @ s for s in slices) - np.eye(ds))) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(case=SEEDED_DRAWS)
    def test_completeness_over_a_random_preselection_basis(self, case):
        seed, ds, da, _ = case
        rng = np.random.default_rng(seed)
        joint = random_unitary(ds * da, rng)
        phi = random_state(ds, rng)
        assert potent_completeness_residual(joint, phi, random_unitary(ds, rng)) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(case=SEEDED_DRAWS)
    def test_qubit_meter_reduction(self, case):
        seed, d, _, g = case
        rng = np.random.default_rng(seed)
        alpha, beta = random_state(2, rng)
        meter = QubitMeter(alpha=alpha, beta=beta)
        A = random_hermitian(d, rng)
        sel = PrePostSelection(*_selection_at_overlap(d, rng))
        pvs = potent_values(evolution_operators(tensor_product(A, PROJECT_1), [g])[0],
                            meter.state, np.eye(2, dtype=complex), sel)
        expected = np.array([alpha, beta * modular_value(A, g, sel)])
        assert np.max(np.abs(pvs.values - expected)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(case=SEEDED_DRAWS)
    def test_potent_operator_scale_invariance(self, case):
        seed, ds, da, _ = case
        rng = np.random.default_rng(seed)
        joint = random_unitary(ds * da, rng)
        psi, phi = _selection_at_overlap(ds, rng)
        lam, mu = (complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)) for _ in range(2))
        base = potent_operator(joint, PrePostSelection(psi, phi)).matrix
        scaled = potent_operator(joint, PrePostSelection(lam * psi, mu * phi)).matrix
        assert np.max(np.abs(scaled - base)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(case=SEEDED_DRAWS)
    def test_projector_weak_values_sum_to_one(self, case):
        seed, d, _, _ = case
        rng = np.random.default_rng(seed)
        projectors = random_projector_decomposition(d, int(rng.integers(1, d + 1)), rng)
        sel = PrePostSelection(*_selection_at_overlap(d, rng))
        assert abs(sum(weak_value(p, sel) for p in projectors) - 1) <= 1e-12
