import cmath
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from potentops import (
    EvolutionFamily,
    PrePostSelection,
    SuperpositionSpec,
    TimeTranslationSpec,
    conditional_unitary,
    effective_parameter_fit,
    general_exponential,
    hermitian_exponential,
    potent_operator,
    potent_time_superposition,
    superposed_evolution,
    time_translation_machine,
    weak_value,
)
from potentops import linalg, meters, pps, scenarios, timemachine
from potentops.cli import EXIT_VALIDATION, main
from potentops.linalg import _pade_exponential
from potentops.pauli import SIGMA_X, SIGMA_Z
from potentops.sampling import random_hermitian, random_state, random_unitary


def linear_family(parameters, h0, duration):
    return EvolutionFamily(parameters=parameters, generator=lambda a: a * h0,
                           duration=duration)


def quadratic_family(dim, rng, parameters=(0.2, 0.55, 0.7), duration=1.3):
    """H0 + a H1 + a^2 H2 with seeded random Hermitian terms."""
    h0, h1, h2 = (random_hermitian(dim, rng) for _ in range(3))
    return EvolutionFamily(parameters=parameters, generator=lambda a: h0 + a * h1 + a * a * h2,
                           duration=duration)


def per_point_overlap(family, a, Phi, super_state):
    """The fit overlap through one dense hermitian_exponential per parameter."""
    target = hermitian_exponential(family.generator(a), -1j * family.duration) @ Phi
    return complex(np.vdot(target, super_state))


def per_point_fit(family, spec, Phi, interval):
    """effective_parameter_fit's scan and zoom, with every overlap taken by
    per_point_overlap. Returns (a*, fidelity, best index of the first scan)."""
    state, success = superposed_evolution(family, spec, Phi)
    super_state = state / success
    grid = np.linspace(interval[0], interval[1], 1000)
    overlaps = np.array([per_point_overlap(family, a, Phi, super_state) for a in grid])
    mags = np.abs(overlaps)
    score = np.real if mags.max() - mags.min() <= 1e-12 else np.abs
    first = int(np.argmax(score(overlaps)))
    while True:
        best = int(np.argmax(score(overlaps)))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        if hi - lo <= timemachine.BRACKET_TOL * max(1.0, abs(lo), abs(hi)):
            return grid[best], abs(overlaps[best]), first
        grid = np.linspace(lo, hi, 17)
        overlaps = np.array([per_point_overlap(family, a, Phi, super_state) for a in grid])


class TestSpecs:
    def test_coefficients_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            SuperpositionSpec(np.array([0.5, 0.4]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, -np.inf]])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="sum"):
            SuperpositionSpec(np.array(bad))

    def test_nan_effective_duration_rejected(self):
        with pytest.raises(ValueError, match=r"^durations must be finite, got \(1\.0, nan\)$"):
            TimeTranslationSpec(durations=(1.0, np.nan),
                                coefficients=SuperpositionSpec([complex(0.5, 0.5),
                                                                complex(0.5, -0.5)]),
                                hamiltonian=SIGMA_Z)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_durations_rejected(self, bad):
        # real coefficients: nothing downstream would turn the infinity into a NaN
        with pytest.raises(ValueError, match="^durations must be finite"):
            TimeTranslationSpec(durations=(bad, 1.0), coefficients=SuperpositionSpec([2.0, -1.0]),
                                hamiltonian=SIGMA_Z)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_family_duration_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^duration must be finite and >= 0, got {bad}$"):
            linear_family((0.5,), SIGMA_Z, bad)

    def test_generator_must_be_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            EvolutionFamily(parameters=(1.0,),
                            generator=lambda a: np.array([[0, 1], [0, 0]], dtype=complex),
                            duration=1.0)

    # H(a) is guarded as one stack; the refusal names the first failing H(a)
    # in the words a per-parameter check used
    @pytest.mark.parametrize("bad", [np.array([[0, 1], [0, 0]], dtype=complex),
                                     np.array([[np.nan, 0], [0, 1]], dtype=complex)])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_first_non_hermitian_generator_named(self, bad):
        message = (r"^H\(0\.2\) is not Hermitian \(max \|M - M\^dag\| = "
                   + ("nan" if np.isnan(bad).any() else r"1\.000e\+00") + r" > 1\.0e-12\)$")
        with pytest.raises(ValueError, match=message):
            EvolutionFamily((0.1, 0.2, 0.3), lambda a: SIGMA_Z if a != 0.2 else bad, 1.0)

    def test_generator_evaluated_once_per_parameter(self):
        calls = []
        family = EvolutionFamily((0.1, 0.2, 0.3), lambda a: calls.append(a) or a * SIGMA_Z, 1.0)
        superposed_evolution(family, SuperpositionSpec([0.5, 0.25, 0.25]), np.array([0.6, 0.8]))
        assert calls == [0.1, 0.2, 0.3]

    def test_generators_of_two_shapes_refused(self):
        with pytest.raises(ValueError, match=r"^H\(0\.2\) has shape \(3, 3\), H\(0\.1\) has shape \(2, 2\)$"):
            EvolutionFamily((0.1, 0.2), lambda a: np.eye(2) if a < 0.15 else np.eye(3), 1.0)

    # two vectors of length 2 must not be read as one 2 x 2 stack
    @pytest.mark.parametrize("h", [np.array([1.0, 1.0]), np.ones((2, 3)), np.float64(1.0)])
    def test_generator_that_is_not_a_square_matrix_refused(self, h):
        message = rf"^H\(0\.1\) has shape {re.escape(str(np.shape(h)))}, not a square matrix$"
        with pytest.raises(ValueError, match=message):
            EvolutionFamily((0.1, 0.2), lambda a: h, 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            linear_family((0.5,), SIGMA_Z, -1.0)

    def test_effective_duration(self):
        spec = TimeTranslationSpec(durations=(1.0, 2.0),
                                   coefficients=SuperpositionSpec([2.0, -1.0]),
                                   hamiltonian=SIGMA_Z)
        assert spec.effective_duration == pytest.approx(0.0, abs=1e-15)

    def test_complex_effective_duration_rejected(self):
        with pytest.raises(ValueError, match=r"^effective duration \(1\.5-0\.5j\) is not real$"):
            TimeTranslationSpec(
                durations=(1.0, 2.0),
                coefficients=SuperpositionSpec([complex(0.5, 0.5), complex(0.5, -0.5)]),
                hamiltonian=SIGMA_Z)


class TestSuperposedEvolution:
    def test_degenerate_family_is_exact(self):
        # repeated parameters: the coefficient sum collapses to one evolution
        family = linear_family((0.4, 0.4, 0.4), SIGMA_Z, 1.3)
        spec = SuperpositionSpec(np.array([2.0, -0.5, -0.5]))
        Phi = random_state(2, np.random.default_rng(0))
        state, success = superposed_evolution(family, spec, Phi)
        expected = hermitian_exponential(0.4 * SIGMA_Z, -1.3j) @ Phi
        np.testing.assert_allclose(state, expected, atol=1e-13)
        assert success == pytest.approx(1.0, abs=1e-13)

    def test_single_term(self):
        family = linear_family((0.3, 0.9), SIGMA_X, 0.8)
        spec = SuperpositionSpec(np.array([1.0, 0.0]))
        Phi = random_state(2, np.random.default_rng(1))
        state, _ = superposed_evolution(family, spec, Phi)
        np.testing.assert_allclose(state, hermitian_exponential(0.3 * SIGMA_X, -0.8j) @ Phi,
                                   atol=1e-13)

    def test_eigenstate_scalar_phase_sum(self):
        # H(a) = a sigma_z on |0> (eigenvalue +1): pure phase sum
        family = linear_family((0.2, 0.7), SIGMA_Z, 1.5)
        spec = SuperpositionSpec(np.array([2.0, -1.0]))
        Phi = np.array([1.0, 0.0], dtype=complex)
        state, success = superposed_evolution(family, spec, Phi)
        scalar = 2 * np.exp(-1j * 0.2 * 1.5) - np.exp(-1j * 0.7 * 1.5)
        np.testing.assert_allclose(state, scalar * Phi, atol=1e-13)
        assert success == pytest.approx(abs(scalar), abs=1e-13)

    def test_reads_the_kept_spectrum_only(self, monkeypatch):
        # no eigh and no dense branch unitaries once the family is built
        family = quadratic_family(4, np.random.default_rng(3))
        spec, Phi = SuperpositionSpec([0.5, 1.0, -0.5]), random_state(4, np.random.default_rng(4))
        expected = spec.coefficients @ (family.branch_unitaries() @ Phi)

        def refused(*args, **kwargs):
            raise AssertionError("superposed_evolution diagonalized or exponentiated")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(EvolutionFamily, "branch_unitaries", refused)
        state, success = superposed_evolution(family, spec, Phi)
        assert np.max(np.abs(state - expected)) <= 1e-15
        assert success == np.linalg.norm(state)

    def test_success_norm_triangle_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            if abs(c.sum()) < 0.3:
                c[0] += 1.0
            c = c / c.sum()
            spec = SuperpositionSpec(c)
            params = np.arange(n) * 0.31 + 0.1
            matrices = [random_hermitian(3, rng) for _ in range(n)]
            family = EvolutionFamily(params, dict(zip(params, matrices)).__getitem__,
                                     duration=float(rng.uniform(0.1, 2.0)))
            Phi = random_state(3, rng)
            _, success = superposed_evolution(family, spec, Phi)
            assert success ** 2 <= np.sum(np.abs(c)) ** 2 + 1e-12

    # scipy.linalg.expm per branch is the outside reference for the kept-spectrum route.
    # The largest error seen was 6.0e-15 * sum_i |c_i| over 25,000 seeded draws of these
    # sizes (entries of modulus <= sqrt(2), some all at the extremes) and 3.0e-15 over
    # 3,000 examples of this strategy; the bound is 1e-13 * sum_i |c_i|.
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), d=st.integers(1, 12),
           duration=st.floats(0, 3),
           free=arrays(np.complex128, 3, elements=st.complex_numbers(max_magnitude=2)))
    def test_matches_scipy_expm_per_branch(self, seed, n, d, duration, free):
        rng = np.random.default_rng(seed)
        c = np.append(free[:n - 1], 1 - free[:n - 1].sum())
        z = rng.uniform(-1, 1, (n, d, d)) + 1j * rng.uniform(-1, 1, (n, d, d))
        hs = (z + z.conj().swapaxes(-1, -2)) / 2
        Phi = random_state(d, rng)
        family = EvolutionFamily(tuple(range(n)), lambda a: hs[int(a)], duration)
        state, success = superposed_evolution(family, SuperpositionSpec(c), Phi)
        expected = sum(ci * scipy.linalg.expm(-1j * duration * h) @ Phi for ci, h in zip(c, hs))
        assert np.max(np.abs(state - expected)) <= 1e-13 * np.sum(np.abs(c))
        assert success == np.linalg.norm(state)


class TestPotentTimeSuperposition:
    def test_single_parameter(self):
        family = linear_family((0.6,), SIGMA_Z, 1.1)
        op = potent_time_superposition(family.branch_unitaries(),
                                       SuperpositionSpec(np.array([1.0])))
        np.testing.assert_allclose(op.matrix, hermitian_exponential(0.6 * SIGMA_Z, -1.1j),
                                   atol=1e-13)

    def test_two_branch_closed_form(self):
        # 2 exp(-i 0.1 sigma_x) - exp(-i 0.2 sigma_x), via the rotation formula
        # exp(-i t sigma_x) = cos(t) I - i sin(t) sigma_x
        family = linear_family((0.1, 0.2), SIGMA_X, 1.0)
        op = potent_time_superposition(family.branch_unitaries(),
                                       SuperpositionSpec(np.array([2.0, -1.0])))
        expected = (2 * (np.cos(0.1) * np.eye(2) - 1j * np.sin(0.1) * SIGMA_X)
                    - (np.cos(0.2) * np.eye(2) - 1j * np.sin(0.2) * SIGMA_X))
        np.testing.assert_allclose(op.matrix, expected, atol=1e-12)
        # the effective parameter sum(c_i a_i) = 0 lies outside [0.1, 0.2]
        assert np.dot([2, -1], [0.1, 0.2]) == pytest.approx(0.0)

    def test_matches_superposed_evolution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 9))
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            if abs(c.sum()) < 0.3:
                c[0] += 1.0
            spec = SuperpositionSpec(c / c.sum())
            params = np.sort(rng.uniform(-1, 1, size=n))
            matrices = [random_hermitian(dim, rng) for _ in range(n)]
            family = EvolutionFamily(params, dict(zip(params, matrices)).__getitem__,
                                     duration=float(rng.uniform(0.1, 2.0)))
            Phi = random_state(dim, rng)
            op = potent_time_superposition(family.branch_unitaries(), spec)
            direct, _ = superposed_evolution(family, spec, Phi)
            assert np.max(np.abs(op.apply(Phi) - direct)) <= 1e-12

    def test_scale_invariant_in_preselection_normalization(self):
        family = linear_family((0.1, 0.5), SIGMA_Z, 1.0)
        spec = SuperpositionSpec(np.array([2.0, -1.0]))
        branch = family.branch_unitaries()
        op = potent_time_superposition(branch, spec)
        joint = conditional_unitary([np.diag(e) for e in np.eye(2)], branch)
        rng = np.random.default_rng(4)
        for _ in range(5):
            lam = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            psi = lam * spec.coefficients
            phi = np.ones(2, dtype=complex) * complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            rescaled = potent_operator(joint, PrePostSelection(psi, phi))
            np.testing.assert_allclose(rescaled.matrix, op.matrix, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_register_controlled_unitary_is_block_diagonal(self, n, d):
        # the control register of potent_time_superposition is
        # conditional_unitary over |i><i|: exactly diag(U_1, ..., U_n)
        rng = np.random.default_rng(10 * n + d)
        branches = [random_unitary(d, rng) for _ in range(n)]
        expected = np.zeros((n * d, n * d), dtype=complex)
        for i, u in enumerate(branches):
            expected[i * d:(i + 1) * d, i * d:(i + 1) * d] = u
        joint = conditional_unitary([np.diag(e) for e in np.eye(n)], branches)
        assert np.array_equal(joint, expected)

    def test_family_count_mismatch_refused(self):
        # a list of a family's branches, and an (n, d, d) stack of durations'
        family = linear_family((0.1, 0.2), SIGMA_Z, 1.0)
        with pytest.raises(ValueError, match="^2 branches but 3 coefficients$"):
            potent_time_superposition(family.branch_unitaries(),
                                      SuperpositionSpec([0.5, 0.25, 0.25]))
        stack = _pade_exponential(np.multiply.outer(-1j * np.array([0.5, 1.0, 1.5]), SIGMA_X))
        with pytest.raises(ValueError, match="^3 branches but 2 coefficients$"):
            potent_time_superposition(stack, SuperpositionSpec([2.0, -1.0]))


class TestEffectiveParameterFit:
    def test_degenerate_family(self):
        family = linear_family((0.4, 0.4), SIGMA_Z, 1.0)
        spec = SuperpositionSpec(np.array([0.25, 0.75]))
        Phi = random_state(2, np.random.default_rng(5))
        a_star, fid = effective_parameter_fit(family, spec, Phi, (0.0, 1.0))
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert a_star == pytest.approx(0.4, abs=1e-6)

    def test_eigenstate_phase_equation(self):
        family = linear_family((0.1, 0.2), SIGMA_Z, 1.0)
        spec = SuperpositionSpec(np.array([2.0, -1.0]))
        Phi = np.array([1.0, 0.0], dtype=complex)  # eigenvalue +1 of sigma_z
        a_star, fid = effective_parameter_fit(family, spec, Phi, (-0.5, 0.5))
        assert fid == pytest.approx(1.0, abs=1e-12)
        scalar = 2 * np.exp(-1j * 0.1) - np.exp(-1j * 0.2)
        # exp(-i a* lambda T) matches the phase of the scalar sum
        assert abs(cmath.exp(-1j * a_star) - scalar / abs(scalar)) <= 1e-6

    def test_generic_state_peaks_at_consistent_parameter(self):
        family = linear_family((0.3, 0.31), SIGMA_X, 1.0)
        spec = SuperpositionSpec(np.array([0.5, 0.5]))
        Phi = random_state(2, np.random.default_rng(6))
        a_star, fid = effective_parameter_fit(family, spec, Phi, (0.0, 1.0))
        assert 0.29 <= a_star <= 0.32
        assert fid >= 1.0 - 1e-6

    def test_interval_validation(self):
        family = linear_family((0.1,), SIGMA_Z, 1.0)
        spec = SuperpositionSpec(np.array([1.0]))
        with pytest.raises(ValueError, match="interval"):
            effective_parameter_fit(family, spec, np.array([1, 0]), (1.0, 0.0))

    def test_empty_superposition_rejected(self):
        family = linear_family((0.0, 1.0), SIGMA_Z, np.pi)
        spec = SuperpositionSpec(np.array([0.5, 0.5]))
        Phi = np.array([1.0, 0.0], dtype=complex)
        # 0.5 (1 + exp(-i pi)) |0> = 0
        with pytest.raises(ValueError, match="zero"):
            effective_parameter_fit(family, spec, Phi, (0.0, 1.0))


class TestStackedScan:
    """The scan's batched eigendecomposition against a per-point loop of
    dense exponentials, its eigh call count and its memory bound."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_per_point_route(self, dim):
        rng = np.random.default_rng(100 + dim)
        family = quadratic_family(dim, rng)
        spec = SuperpositionSpec(np.array([0.7, 0.6, -0.3]))
        Phi = random_state(dim, rng)
        interval = (-0.5, 1.5)
        state, success = superposed_evolution(family, spec, Phi)
        super_state = state / success
        grid = np.linspace(*interval, 1000)
        stacked = timemachine._target_overlaps(family, grid, Phi, super_state)
        looped = np.array([per_point_overlap(family, a, Phi, super_state) for a in grid])
        assert np.max(np.abs(stacked - looped)) <= 1e-13
        # same bracket: both routes pick the same scan point
        a_ref, fid_ref, best = per_point_fit(family, spec, Phi, interval)
        assert int(np.argmax(np.abs(stacked))) == best
        a_star, fid = effective_parameter_fit(family, spec, Phi, interval)
        assert grid[max(best - 1, 0)] <= a_star <= grid[min(best + 1, grid.size - 1)]
        assert abs(fid - fid_ref) <= 1e-12
        # the maximiser is located only to about sqrt(machine epsilon)
        assert abs(a_star - a_ref) <= 1e-6

    def test_scan_is_chunked_stacked_eigh(self, monkeypatch):
        dim = 48
        chunk = timemachine.SCAN_STACK_ENTRIES // dim**2
        stacks = []
        eigh = np.linalg.eigh

        def counting_eigh(m, *args, **kwargs):
            if m.ndim == 3 and m.shape[0] > 1:
                stacks.append(m.shape)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rng = np.random.default_rng(11)
        family = quadratic_family(dim, rng, parameters=(0.3, 0.4))
        effective_parameter_fit(family, SuperpositionSpec(np.array([0.5, 0.5])),
                                random_state(dim, rng), (0.0, 1.0))
        # superposed_evolution's one stack of the two branches, then the first
        # scan's 1000 points in chunks, then one 17-point stack per zoom round
        assert stacks.pop(0) == (2, dim, dim)
        first = math.ceil(1000 / chunk)
        assert 1 < first < len(stacks)
        assert sum(shape[0] for shape in stacks[:first]) == 1000
        assert all(n * d * d <= timemachine.SCAN_STACK_ENTRIES for n, d, _ in stacks[:first])
        assert all(shape == (17, dim, dim) for shape in stacks[first:])

    def test_zoom_rounds_on_a_width_4_interval(self, monkeypatch):
        # one 1000-point scan, then 11 rounds that cut the 8e-3 bracket by 8
        # down to 1e-12, after superposed_evolution's one stack of branches
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(m, *args, **kwargs):
            shapes.append(m.shape)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rng = np.random.default_rng(1)
        family = quadratic_family(3, rng, parameters=(0.3, 0.7))
        effective_parameter_fit(family, SuperpositionSpec(np.array([0.5, 0.5])),
                                random_state(3, rng), (-2.0, 2.0))
        assert shapes == [(2, 3, 3)] + [(1000, 3, 3)] + [(17, 3, 3)] * 11

    def test_one_guard_per_family_and_one_generator_call_per_scan_point(self, monkeypatch):
        # record the names of every guarded stack, in every module that binds the guard
        guarded = []

        def recording_guard(m, name="operator"):
            names = name if isinstance(name, str) else list(name)
            guarded.append(names)
            return guard(m, names)

        rng = np.random.default_rng(1)
        quadratic = quadratic_family(3, rng, parameters=(0.3, 0.7))
        guard = linalg.require_hermitian
        for module in (linalg, meters, pps, scenarios, timemachine):
            if getattr(module, "require_hermitian", None) is guard:
                monkeypatch.setattr(module, "require_hermitian", recording_guard)
        calls = []
        family = EvolutionFamily(quadratic.parameters,
                                 lambda a: calls.append(a) or quadratic.generator(a),
                                 quadratic.duration)
        spec, Phi = SuperpositionSpec(np.array([0.5, 0.5])), random_state(3, rng)
        superposed_evolution(family, spec, Phi)
        assert guarded == [["H(0.3)", "H(0.7)"]]
        assert calls == [0.3, 0.7]
        guarded.clear()
        calls.clear()
        effective_parameter_fit(family, spec, Phi, (-2.0, 2.0))
        # one family for the 1000-point scan, then one of 17 per zoom round
        assert len(calls) == 1000 + 17 * 11
        assert [len(names) for names in guarded] == [1000] + [17] * 11
        assert [f"H({a})" for a in calls] == [n for names in guarded for n in names]

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_branch_unitaries_are_one_stacked_exponential(self, dim, monkeypatch):
        # one (n, d, d) eigh when the family is built, none in branch_unitaries
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or eigh(m))
        family = quadratic_family(dim, np.random.default_rng(dim))
        assert shapes == [(3, dim, dim)]
        unitaries = family.branch_unitaries()
        assert shapes == [(3, dim, dim)]
        monkeypatch.undo()
        per_parameter = np.array([hermitian_exponential(family.generator(a),
                                                        -1j * family.duration)
                                  for a in family.parameters])
        assert unitaries.tobytes() == per_parameter.tobytes()

    def test_peak_memory_bounded_by_chunk(self):
        dim = 128
        unchunked = 1000 * dim * dim * 16  # bytes of one (1000, d, d) complex stack
        rng = np.random.default_rng(12)
        # diagonal generators: eigh is cheap, and the stack is as large as any
        h0, h1 = np.diag(rng.normal(size=dim)), np.diag(rng.normal(size=dim))
        family = EvolutionFamily((0.3, 0.4), lambda a: h0 + a * h1, 0.5)
        spec = SuperpositionSpec(np.array([0.5, 0.5]))
        Phi = random_state(dim, rng)
        tracemalloc.start()
        try:
            effective_parameter_fit(family, spec, Phi, (0.0, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < unchunked / 4

    def test_eigenstate_flat_objective(self):
        # phase-only action: the stacked scan must still pick the real-part route
        family = linear_family((0.1, 0.2), SIGMA_Z, 1.0)
        spec = SuperpositionSpec(np.array([2.0, -1.0]))
        Phi = np.array([0.0, 1.0], dtype=complex)  # eigenvalue -1 of sigma_z
        a_star, fid = effective_parameter_fit(family, spec, Phi, (-0.5, 0.5))
        a_ref, fid_ref, _ = per_point_fit(family, spec, Phi, (-0.5, 0.5))
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert abs(fid - fid_ref) <= 1e-12 and abs(a_star - a_ref) <= 1e-6
        scalar = 2 * np.exp(1j * 0.1) - np.exp(1j * 0.2)
        assert abs(cmath.exp(1j * a_star) - scalar / abs(scalar)) <= 1e-6


class TestFitRefusals:
    """A generator that is bad only at unlisted scan points is refused with
    a ValueError naming the parameter, never returned as a fit."""

    @staticmethod
    def fit_with(bad_matrix):
        def generator(a):
            return bad_matrix if 0.50 <= a <= 0.51 else a * SIGMA_Z
        family = EvolutionFamily((0.1, 0.2), generator, 1.0)
        Phi = random_state(2, np.random.default_rng(13))
        return effective_parameter_fit(family, SuperpositionSpec(np.array([0.5, 0.5])),
                                       Phi, (0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_generator(self, bad):
        with pytest.raises(ValueError, match=r"H\(0\.50\d*\) is not Hermitian"):
            self.fit_with(np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_non_hermitian_generator(self):
        with pytest.raises(ValueError, match=r"H\(0\.50\d*\) is not Hermitian"):
            self.fit_with(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_shape_changes_at_a_scan_point(self):
        with pytest.raises(ValueError,
                           match=r"^H\(0\.50\d*\) has shape \(3, 3\), H\(0\.0\) has shape \(2, 2\)$"):
            self.fit_with(np.eye(3, dtype=complex))

    def test_shape_changes_after_the_first_scan_point(self):
        # the odd H(a) is the chunk's first, so the refusal names both shapes
        family = EvolutionFamily((0.1, 0.2), lambda a: np.eye(3) if a == 0 else a * SIGMA_Z, 1.0)
        with pytest.raises(ValueError, match=r"^H\(0\.001\d*\) has shape \(2, 2\), "
                                             r"H\(0\.0\) has shape \(3, 3\)$"):
            effective_parameter_fit(family, SuperpositionSpec(np.array([0.5, 0.5])),
                                    random_state(2, np.random.default_rng(13)), (0.0, 1.0))

    def test_every_scan_point_of_another_shape(self):
        family = EvolutionFamily((0.1, 0.2), lambda a: a * SIGMA_Z if a < 0.3 else np.eye(3), 1.0)
        with pytest.raises(ValueError, match=r"^H\(0\.5\) has shape \(3, 3\), Phi has shape \(2,\)$"):
            effective_parameter_fit(family, SuperpositionSpec(np.array([0.5, 0.5])),
                                    random_state(2, np.random.default_rng(13)), (0.5, 1.0))

    def test_generator_shape_does_not_match_phi(self):
        family = linear_family((0.1, 0.2), SIGMA_Z, 1.0)
        spec = SuperpositionSpec(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"H\(0\.1\) has shape \(2, 2\), Phi has shape \(3,\)"):
            effective_parameter_fit(family, spec, random_state(3, np.random.default_rng(14)),
                                    (0.0, 1.0))


class TestTimeTranslationMachine:
    def test_nan_meter_state_refused(self):
        spec = TimeTranslationSpec(durations=(0.7, 1.1),
                                   coefficients=SuperpositionSpec([0.3, 0.7]),
                                   hamiltonian=SIGMA_Z)
        Phi = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match="normalized"):
            time_translation_machine(spec, Phi)
        with pytest.raises(ValueError, match="normalized"):
            superposed_evolution(linear_family((0.2, 0.5), SIGMA_Z, 1.0),
                                 SuperpositionSpec([0.3, 0.7]), Phi)

    def test_meter_state_of_wrong_dimension_refused(self):
        spec = TimeTranslationSpec(durations=(0.7, 1.1),
                                   coefficients=SuperpositionSpec([0.3, 0.7]),
                                   hamiltonian=SIGMA_Z)
        with pytest.raises(ValueError, match=r"H has shape \(2, 2\), Phi has shape \(3,\)"):
            time_translation_machine(spec, random_state(3, np.random.default_rng(4)))

    def test_spec_keeps_the_one_eigh_of_h(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or eigh(m))
        rng = np.random.default_rng(10)
        spec = TimeTranslationSpec(durations=(0.5, 1.5),
                                   coefficients=SuperpositionSpec([1.5, -0.5]),
                                   hamiltonian=random_hermitian(3, rng))
        assert shapes == [(3, 3)]
        for _ in range(3):
            time_translation_machine(spec, random_state(3, rng))
        assert shapes == [(3, 3)]

    def test_equal_durations(self):
        spec = TimeTranslationSpec(durations=(0.7, 0.7),
                                   coefficients=SuperpositionSpec([0.3, 0.7]),
                                   hamiltonian=SIGMA_Z)
        Phi = random_state(2, np.random.default_rng(7))
        state, t_eff, fid, success = time_translation_machine(spec, Phi)
        assert t_eff == pytest.approx(0.7)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert success == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state, hermitian_exponential(SIGMA_Z, -0.7j) @ Phi,
                                   atol=1e-13)

    def test_cancelling_design_rewinds_eigenstate(self):
        spec = TimeTranslationSpec(durations=(1.0, 2.0),
                                   coefficients=SuperpositionSpec([2.0, -1.0]),
                                   hamiltonian=SIGMA_Z)
        Phi = np.array([1.0, 0.0], dtype=complex)
        state, t_eff, fid, success = time_translation_machine(spec, Phi)
        assert t_eff == pytest.approx(0.0, abs=1e-15)
        assert fid == pytest.approx(1.0, abs=1e-12)
        # |2 exp(-i) - exp(-2i)| for the +1 eigenstate
        assert success == pytest.approx(abs(2 * np.exp(-1j) - np.exp(-2j)), abs=1e-12)

    def test_eigenstate_always_full_fidelity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            c = rng.normal(size=n)
            if abs(c.sum()) < 0.3:
                c[0] += 1.0
            spec = TimeTranslationSpec(
                durations=tuple(rng.uniform(-2, 2, size=n)),
                coefficients=SuperpositionSpec(c / c.sum()),
                hamiltonian=SIGMA_Z)
            _, _, fid, _ = time_translation_machine(spec, np.array([0.0, 1.0], dtype=complex))
            assert fid == pytest.approx(1.0, abs=1e-12)

    def test_negative_effective_duration_reported(self):
        spec = TimeTranslationSpec(durations=(1.0, 3.0),
                                   coefficients=SuperpositionSpec([2.0, -1.0]),
                                   hamiltonian=SIGMA_Z)
        _, t_eff, _, _ = time_translation_machine(spec, np.array([1.0, 0.0], dtype=complex))
        assert t_eff == pytest.approx(-1.0)

    def test_empty_result_rejected(self):
        spec = TimeTranslationSpec(durations=(0.0, np.pi),
                                   coefficients=SuperpositionSpec([0.5, 0.5]),
                                   hamiltonian=SIGMA_Z)
        with pytest.raises(ValueError, match="zero"):
            time_translation_machine(spec, np.array([0.0, 1.0], dtype=complex))

    def test_duration_beyond_the_pade_cap_refused(self, tmp_path, capsys):
        # the oracle's squarings used to run on to overflow, a nan residual and exit 2;
        # the refused stack's largest 1-norm is that of its last member, exp(-i H T')
        # at T' = 2e50 - 1
        cfg = tmp_path / "far.yaml"
        cfg.write_text("scenario: time-machine\ndurations: [1.0e50, 1]\nhamiltonian: sigma_x\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["time-machine", "--config", str(cfg)]) == EXIT_VALIDATION
        assert not caught
        err = capsys.readouterr().err
        assert "validation error: cannot exponentiate a matrix of 1-norm 2.000e+50" in err
        assert "above the cap 8.389e+06" in err and "Warning" not in err

    def test_potent_route_equivalence(self):
        rng = np.random.default_rng(9)
        spec = TimeTranslationSpec(durations=(0.5, 1.5, -0.4),
                                   coefficients=SuperpositionSpec([1.5, -1.0, 0.5]),
                                   hamiltonian=random_hermitian(4, rng))
        Phi = random_state(4, rng)
        state, _, _, _ = time_translation_machine(spec, Phi)
        branches = [general_exponential(spec.hamiltonian, -1j * t) for t in spec.durations]
        op = potent_time_superposition(branches, spec.coefficients)
        assert np.max(np.abs(op.apply(Phi) - state)) <= 1e-12


@st.composite
def machine_cases(draw):
    """n 2-4 durations in [-3, 3] with real coefficients summing to 1 (the
    free ones in [-2, 2]), a Hermitian H of dim 2-5 with entries of modulus
    <= sqrt(2), and a normalized meter state."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 5))
    free = draw(arrays(np.float64, n - 1, elements=st.floats(-2, 2)))
    durations = draw(arrays(np.float64, n, elements=st.floats(-3, 3)))
    parts = draw(arrays(np.float64, (2, d, d + 1), elements=st.floats(-1, 1)))
    z = parts[0] + 1j * parts[1]
    Phi = z[:, d]
    assume(np.linalg.norm(Phi) > 1e-3)
    spec = TimeTranslationSpec(durations=tuple(durations),
                               coefficients=SuperpositionSpec(np.append(free, 1 - free.sum())),
                               hamiltonian=(z[:, :d] + z[:, :d].conj().T) / 2)
    return spec, Phi / np.linalg.norm(Phi)


class TestProductCouplingProperty:
    """The machine is the potent operator of exp(-i diag(T) (x) H) on a clock
    register, and T' is the clock's weak value."""

    @settings(max_examples=50, deadline=None)
    @given(case=machine_cases())
    def test_rows_match_pade_register_oracle(self, case):
        spec, Phi = case
        state, _, _, _ = time_translation_machine(spec, Phi)
        branches = _pade_exponential(
            np.multiply.outer(-1j * np.array(spec.durations), spec.hamiltonian))
        oracle = potent_time_superposition(branches, spec.coefficients).apply(Phi)
        assert np.max(np.abs(state - oracle)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(case=machine_cases())
    def test_effective_duration_is_the_clock_weak_value(self, case):
        spec, _ = case
        c = spec.coefficients.coefficients
        n = len(c)
        register = PrePostSelection(psi=c / np.linalg.norm(c),
                                    phi=np.ones(n, dtype=complex) / np.sqrt(n))
        t_prime = spec.effective_duration
        clock = weak_value(np.diag(spec.durations), register)
        assert abs(clock - t_prime) <= 1e-14 * max(1.0, abs(t_prime))
