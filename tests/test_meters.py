import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potentops import (
    Grid,
    PrePostSelection,
    QubitMeter,
    build_gaussian_pointer,
    evolution_operators,
    hermitian_exponential,
    joint_evolve_and_postselect,
    linalg,
    meters,
    modular_value,
    pointer_shift_sweep,
    pointer_statistics,
    potent_values,
    tensor_product,
    weak_value,
)
from potentops.cli import EXIT_OK, EXIT_RESIDUAL, EXIT_VALIDATION, main
from potentops.linalg import hermiticity_defect
from potentops.meters import GRID_SIZE_CAP, _lattice_elements, _moments
from potentops.pauli import AMPLIFICATION_PHI, AMPLIFICATION_PSI, IDENTITY_2, PROJECT_1, SIGMA_Z
from potentops.pps import spectral_weights
from potentops.sampling import random_hermitian, random_selection, random_state
from potentops.scenarios import KINDS, parse_config, run_scenario, within_tolerance

from dense_oracles import momentum_operator


@pytest.fixture(scope="module")
def pointer():
    return build_gaussian_pointer(512, -12.0, 12.0, 1.0, 0.0)


@pytest.fixture(scope="module")
def momentum(pointer):
    return momentum_operator(pointer.grid)


@pytest.fixture
def amplification():
    return PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI)


class TestQubitMeter:
    def test_normalized_amplitudes_required(self):
        with pytest.raises(ValueError, match="not 1"):
            QubitMeter(alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitude_refused(self, bad):
        with pytest.raises(ValueError, match="not 1"):
            QubitMeter(alpha=bad, beta=0.0)

    def test_state_and_coupling(self, amplification):
        meter = QubitMeter(alpha=0.6, beta=0.8)
        np.testing.assert_array_equal(meter.state, [0.6, 0.8])
        g = 1.4
        joint = evolution_operators(tensor_product(SIGMA_Z, PROJECT_1), [g])[0]
        pvs = potent_values(joint, meter.state, np.eye(2, dtype=complex), amplification)
        m = modular_value(SIGMA_Z, g, amplification)
        np.testing.assert_allclose(pvs.values, [0.6, 0.8 * m], atol=1e-12)

    def test_eq14_for_random_draws(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            a = random_hermitian(2, rng)
            g = float(rng.uniform(0, 2 * np.pi))
            sel = PrePostSelection(*random_selection(2, rng))
            amps = random_state(2, rng)
            meter = QubitMeter(alpha=complex(amps[0]), beta=complex(amps[1]))
            joint = evolution_operators(tensor_product(a, PROJECT_1), [g])[0]
            pvs = potent_values(joint, meter.state, np.eye(2, dtype=complex), sel)
            m = modular_value(a, g, sel)
            expected = np.array([meter.alpha, meter.beta * m])
            assert np.max(np.abs(pvs.values - expected)) <= 1e-12
            oracle, _ = joint_evolve_and_postselect(joint, sel.psi, meter.state, sel.phi)
            np.testing.assert_allclose(oracle, sel.overlap * expected, atol=1e-12)


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            Grid(grid_size=300, x_min=-1, x_max=1)

    def test_geometry(self):
        grid = Grid(grid_size=8, x_min=-2.0, x_max=2.0)
        assert grid.dx == pytest.approx(0.5)
        assert grid.x[0] == -2.0 and grid.x[-1] == pytest.approx(1.5)

    @pytest.mark.parametrize("x_min, x_max, named", [
        (-np.inf, 12.0, "x_min"), (np.nan, 12.0, "x_min"), (-12.0, np.inf, "x_max"),
        (-12.0, np.nan, "x_max")])
    def test_non_finite_extent_refused_by_name(self, x_min, x_max, named):
        with pytest.raises(ValueError, match=f"{named} must be finite"):
            Grid(128, x_min, x_max)

    # a string is refused before the cap test, which would compare it with an int;
    # a bool is an int to isinstance, but no grid size
    @pytest.mark.parametrize("build, shown", [
        (lambda: Grid(128.0, -1, 1), r"128\.0"),
        (lambda: build_gaussian_pointer(128.0, -12.0, 12.0, 1.0, 0.0), r"128\.0"),
        (lambda: Grid("128", -1, 1), "'128'"), (lambda: Grid(True, -1, 1), "True"),
        (lambda: Grid(False, -1, 1), "False")],
        ids=["float", "float-pointer", "string", "true", "false"])
    def test_non_integer_grid_size_refused_by_name(self, build, shown):
        with pytest.raises(ValueError, match=rf"^grid_size must be an integer, got {shown}$"):
            build()

    def test_numpy_integer_grid_size_accepted(self):
        grid = Grid(np.int64(128), -1.0, 1.0)
        assert grid.x.size == 128 and grid.dx == pytest.approx(2 / 128)


class TestGaussianPointer:
    def test_fresh_pointer_moments(self):
        pointer = build_gaussian_pointer(512, -10.0, 14.0, 1.0, 2.0)
        mean_x, var_x, mean_p = pointer_statistics(pointer.unit_amplitudes, pointer.grid)
        assert abs(mean_x - 2.0) <= 1e-8
        assert abs(mean_p) <= 1e-8
        assert abs(var_x - 1.0) <= 0.01  # grid quadrature vs sigma^2

    def test_grid_normalization(self):
        pointer = build_gaussian_pointer(256, -8.0, 8.0, 0.7, 0.0)
        assert abs(np.linalg.norm(pointer.unit_amplitudes) - 1.0) <= 1e-12

    def test_underresolved_sigma_rejected(self):
        with pytest.raises(ValueError, match="under-resolved"):
            build_gaussian_pointer(64, -12.0, 12.0, 0.2, 0.0)

    def test_support_guard(self):
        with pytest.raises(ValueError, match="support"):
            build_gaussian_pointer(512, -12.0, 12.0, 1.0, 8.0)

    @pytest.mark.parametrize("sigma, x0, named", [
        (np.nan, 0.0, "sigma"), (np.inf, 0.0, "sigma"), (1.0, np.nan, "x0"), (1.0, -np.inf, "x0")])
    def test_non_finite_packet_refused_by_name(self, sigma, x0, named):
        # refused at construction; unit_amplitudes used to return NaN samples
        with pytest.raises(ValueError, match=f"{named} must be finite"):
            build_gaussian_pointer(128, -12.0, 12.0, sigma, x0)


class TestMomentumOperator:
    def test_annihilates_constant(self, momentum):
        const = np.ones(momentum.grid.grid_size, dtype=complex)
        assert np.max(np.abs(momentum.matrix @ const)) <= 1e-10

    def test_plane_wave_eigenvector(self, momentum):
        grid = momentum.grid
        p0 = 2 * np.pi * 3 / grid.length  # on the lattice
        wave = np.exp(1j * p0 * grid.x)
        np.testing.assert_allclose(momentum.matrix @ wave, p0 * wave, atol=1e-10)

    def test_exactly_hermitian(self, momentum):
        assert hermiticity_defect(momentum.matrix) == 0.0

    def test_eigenvalues_match_lattice(self, momentum):
        eigenvalues = np.sort(np.linalg.eigvalsh(momentum.matrix))
        lattice = np.sort(momentum.grid.momentum_lattice)
        assert np.max(np.abs(eigenvalues - lattice)) <= 1e-8

    @pytest.mark.parametrize("shift", [0.25, 0.6, 1.0])
    def test_translation_generator(self, pointer, momentum, shift):
        translated = hermitian_exponential(momentum.matrix, -1j * shift) @ pointer.unit_amplitudes
        mean_x, var_x, mean_p = pointer_statistics(translated, pointer.grid)
        assert abs(mean_x - shift) <= 1e-6
        assert abs(var_x - 1.0) <= 0.01
        assert abs(mean_p) <= 1e-8


class TestPointerShift:
    def test_zero_coupling(self, pointer, amplification):
        report = pointer_shift_sweep(SIGMA_Z, amplification, [0.0], pointer)[0]
        assert abs(report.mean_shift) <= 1e-9
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.probability == pytest.approx(0.25, abs=1e-12)

    def test_identity_observable_translates_exactly(self, pointer):
        rng = np.random.default_rng(101)
        sel = PrePostSelection(*random_selection(2, rng))
        g = 0.3
        report = pointer_shift_sweep(IDENTITY_2, sel, [g], pointer)[0]
        assert abs(report.weak_val - 1.0) <= 1e-12
        assert abs(report.mean_shift - g) <= 1e-8
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_amplified_shift_and_convergence(self, pointer, amplification):
        reports = pointer_shift_sweep(SIGMA_Z, amplification, [0.1, 0.05, 0.025], pointer)
        # shift/(g Re A_w) -> 1 with an O(g^2) relative residual
        rel_errors = [abs(r.mean_shift / r.predicted_shift - 1.0) for r in reports]
        assert rel_errors[0] / rel_errors[1] == pytest.approx(4.0, abs=0.5)
        assert rel_errors[1] / rel_errors[2] == pytest.approx(4.0, abs=0.5)
        # A_w = 2, g = 0.05 puts the pointer near 0.1
        g05 = reports[1]
        assert abs(g05.mean_shift - 0.1) <= 0.002
        for r in reports:
            assert r.oracle_residual <= 1e-10

    def test_imaginary_weak_value_moves_momentum(self, pointer):
        sel = PrePostSelection(AMPLIFICATION_PSI, np.array([1, 1j]) / np.sqrt(2))
        report = pointer_shift_sweep(SIGMA_Z, sel, [0.1], pointer)[0]
        assert abs(report.weak_val.imag) > 0.5
        assert report.predicted_momentum_shift != 0
        momentum_error = abs(report.momentum_shift - report.predicted_momentum_shift)
        assert momentum_error <= 0.02 * abs(report.predicted_momentum_shift)

    def test_fidelity_gap_quarters_in_chordal_distance(self, pointer, amplification):
        reports = pointer_shift_sweep(SIGMA_Z, amplification, [0.2, 0.1, 0.05], pointer)
        gaps = [r.fidelity_gap for r in reports]
        chordal = [np.sqrt(2 * gap) for gap in gaps]
        assert chordal[0] / chordal[1] == pytest.approx(4.0, abs=0.5)
        assert chordal[1] / chordal[2] == pytest.approx(4.0, abs=0.5)
        # the raw overlap gap is quartic in g (verified against the closed
        # form 9 g^4 / 64 for this selection)
        assert gaps[0] / gaps[1] == pytest.approx(16.0, abs=2.0)
        for gap, g in zip(gaps, (0.2, 0.1, 0.05)):
            assert gap == pytest.approx(9 * g ** 4 / 64, rel=0.05)

    def test_large_grid_runs(self, amplification, tmp_path, capsys):
        big = build_gaussian_pointer(4096, -12.0, 12.0, 1.0, 0.0)
        reports = pointer_shift_sweep(SIGMA_Z, amplification, [0.1, 2.0], big)
        for r in reports:
            assert r.oracle_residual <= 1e-10
        assert abs(reports[0].mean_shift - 0.2) <= 0.002
        cfg = tmp_path / "cap.yaml"
        cfg.write_text("scenario: pointer-shift\ng: [2.0]\n"
                       f"meter: {{kind: gaussian, grid_size: {GRID_SIZE_CAP}}}\n")
        assert main(["pointer-shift", "--config", str(cfg)]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert float(dict(zip(header.split(","), row.split(",")))["residual"]) <= 1e-10

    def test_grid_size_cap_refused_before_allocation(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                build_gaussian_pointer(2 ** 17, -12.0, 12.0, 1.0, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 17 * 16  # less than one complex grid vector
        cfg = tmp_path / "big.yaml"
        cfg.write_text("scenario: pointer-shift\ng: [0.1]\n"
                       "meter: {kind: gaussian, grid_size: 131072}\n")
        assert main(["pointer-shift", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "cap" in capsys.readouterr().err

    def test_cli_strong_coupling(self, tmp_path, capsys):
        cfg = tmp_path / "strong.yaml"
        cfg.write_text("scenario: pointer-shift\ng: [2.0]\n")
        assert main(["pointer-shift", "--config", str(cfg)]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2 and rows[1].startswith("pointer-shift,2.0,")

    def test_weak_limit_overflow_refused(self, pointer):
        # the closed-form target cannot overflow; at g = 1 the branches of
        # 20 sigma_z sit at +-20, off the grid, so the support rule refuses
        sel = PrePostSelection(AMPLIFICATION_PSI, np.array([1, 1j]) / np.sqrt(2))
        with pytest.raises(ValueError, match="at g = 1.0 a translated packet"):
            pointer_shift_sweep(20 * SIGMA_Z, sel, [0.01, 1.0], pointer)
        report = pointer_shift_sweep(20 * SIGMA_Z, sel, [0.01], pointer)[0]
        assert np.isfinite(report.fidelity) and report.oracle_residual <= 1e-10

    @pytest.mark.parametrize("gs, named", [([np.nan], "nan"), ([0.1, np.inf], "inf"),
                                           ([0.1, -np.inf], "-inf")])
    def test_non_finite_coupling_refused_by_name(self, monkeypatch, pointer, amplification,
                                                 gs, named):
        # the support check names g before the packet's spectrum is formed
        monkeypatch.setattr(np.fft, "fft", None)
        with pytest.raises(ValueError, match=f"g must be finite, got {named}$"):
            pointer_shift_sweep(SIGMA_Z, amplification, gs, pointer)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 4),
           grid_size=st.sampled_from([128, 256, 512]),
           gs=st.lists(st.floats(0, 1), min_size=2, max_size=4))
    def test_all_couplings_at_once_give_each_couplings_reports(self, seed, d, grid_size, gs):
        # the residual is not compared: the Pade oracle takes its degree and
        # squarings from the largest coupling of the stack
        rng = np.random.default_rng(seed)
        A, psi, phi = random_hermitian(d, rng), random_state(d, rng), random_state(d, rng)
        assume(abs(np.vdot(phi, psi)) >= 0.3)
        sel = PrePostSelection(psi, phi)
        pointer = build_gaussian_pointer(grid_size, -12.0, 12.0, 1.0, 0.0)
        try:
            at_once = pointer_shift_sweep(A, sel, gs, pointer)
        except ValueError:
            assume(False)

        def without_residual(reports):
            return [repr({k: v.tolist() if k == "state" else v for k, v in vars(r).items()
                          if k != "oracle_residual"}) for r in reports]

        one_by_one = [r for g in gs for r in pointer_shift_sweep(A, sel, [g], pointer)]
        assert without_residual(at_once) == without_residual(one_by_one)

    def test_matches_generic_oracle_path(self, pointer, momentum, amplification):
        # same physics through the pps-level functions on the same grid, the
        # dense joint taken by the Pade kernel, a route that shares no eigh
        g = 0.15
        joint = evolution_operators(tensor_product(SIGMA_Z, momentum.matrix), [g])[0]
        oracle, p = joint_evolve_and_postselect(
            joint, AMPLIFICATION_PSI, pointer.unit_amplitudes, AMPLIFICATION_PHI)
        report = pointer_shift_sweep(SIGMA_Z, amplification, [g], pointer)[0]
        mean_x, _, _ = pointer_statistics(oracle, pointer.grid)
        assert abs(report.mean_shift - (mean_x - pointer.x0)) <= 1e-10
        assert abs(report.probability - p) <= 1e-10


@pytest.mark.parametrize("grid_size", [128, 256])
@pytest.mark.parametrize("observable", ["sigma_z", "random3"])
def test_engine_matches_dense_joint_oracle(grid_size, observable):
    # the dense route: eigh of the (d N)^2 generator A (x) P, then projection
    rng = np.random.default_rng(202)
    if observable == "sigma_z":
        A = SIGMA_Z
        sel = PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI)
    else:
        A = random_hermitian(3, rng)
        sel = PrePostSelection(*random_selection(3, rng))
    pointer = build_gaussian_pointer(grid_size, -12.0, 12.0, 0.9, 0.3)
    P = momentum_operator(pointer.grid).matrix
    gs = [0.05, 0.5, 2.0]
    joints = [hermitian_exponential(np.kron(A, P), -1j * g) for g in gs]
    psi, phi = sel.psi / np.linalg.norm(sel.psi), sel.phi / np.linalg.norm(sel.phi)
    for joint, report in zip(joints, pointer_shift_sweep(A, sel, gs, pointer)):
        oracle, p = joint_evolve_and_postselect(joint, psi, pointer.unit_amplitudes, phi)
        assert abs(report.probability - p) <= 1e-10
        assert np.max(np.abs(report.state - oracle)) <= 1e-10
        assert report.oracle_residual <= 1e-10


@pytest.mark.parametrize("observable", ["sigma_z", "random3"])
@pytest.mark.parametrize("g", [0.05, 2.0])
def test_lattice_elements_at_grid_cap(observable, g):
    # powers of one lattice-step exponential against one Pade exponential per
    # lattice point, on a strided subset that includes m = N/2 - 1 and m = -1
    rng = np.random.default_rng(303)
    if observable == "sigma_z":
        A, (psi, phi) = SIGMA_Z, (AMPLIFICATION_PSI, AMPLIFICATION_PHI)
    else:
        A, (psi, phi) = random_hermitian(3, rng), random_selection(3, rng)
    grid = Grid(GRID_SIZE_CAP, -12.0, 12.0)
    elements = _lattice_elements(A, [g], grid, phi, psi)[0]
    assert elements.shape == (GRID_SIZE_CAP,)
    idx = np.r_[np.arange(0, GRID_SIZE_CAP, 64), GRID_SIZE_CAP // 2 - 1, GRID_SIZE_CAP - 1]
    p = grid.momentum_lattice[idx]
    reference = np.einsum("s,kst,t->k", phi.conj(),
                          scipy.linalg.expm((-1j * g * p)[:, None, None] * A), psi)
    assert np.max(np.abs(elements[idx] - reference)) <= 1e-10


@pytest.mark.parametrize("grid_size", [8, 512])
def test_lattice_elements_stack_matches_scalar_calls(grid_size):
    rng = np.random.default_rng(305)
    A, (psi, phi) = random_hermitian(3, rng), random_selection(3, rng)
    grid = Grid(grid_size, -12.0, 12.0)
    # a stacked Pade call takes one schedule from its largest norm; these
    # couplings share degree 7 with their scalar calls (couplings of other
    # degrees differ by up to 4.3e-14 at N = 512, as before the doubling loop)
    gs = [0.5, 0.6, 0.7]
    stacked = _lattice_elements(A, gs, grid, phi, psi)
    assert stacked.shape == (3, grid_size)
    for g, row in zip(gs, stacked):
        assert np.max(np.abs(row - _lattice_elements(A, [g], grid, phi, psi)[0])) <= 1e-14


def _count_calls(monkeypatch, calls, module, name):
    """Patch module.name to append name to calls before each call."""
    function = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _concatenating_lattice_elements(A, gs, grid, phi, psi):
    """The doubling loop that appends each round's rows by np.concatenate."""
    half = grid.grid_size // 2
    steps = 2 * np.pi / grid.length * np.asarray(gs)
    powers = evolution_operators(A, np.stack([steps, -steps]))
    rows = np.broadcast_to(phi.conj(), (*powers.shape[:2], 1, phi.size))
    while rows.shape[2] <= half:
        rows = np.concatenate([rows, rows[:, :, :half + 1 - rows.shape[2]] @ powers], axis=2)
        powers = powers @ powers
    return np.concatenate([rows[0, :, :half], rows[1, :, half:0:-1]], axis=1) @ psi


@pytest.mark.parametrize("grid_size", [2 ** k for k in range(1, 13)])
def test_lattice_buffer_matches_concatenating_loop(monkeypatch, grid_size):
    # bit for bit, for 1-4 couplings and d = 1-4; the doubling loop fills one
    # buffer, so the final assembly is the only concatenation
    rng = np.random.default_rng(grid_size)
    grid = Grid(grid_size, -12.0, 12.0)
    cases = [(random_hermitian(d, rng), list(rng.uniform(0, 2, n)), grid,
              random_state(d, rng), random_state(d, rng)) for d in range(1, 5) for n in range(1, 5)]
    references = [_concatenating_lattice_elements(*case) for case in cases]
    calls = []
    _count_calls(monkeypatch, calls, np, "concatenate")
    for case, reference in zip(cases, references):
        elements = _lattice_elements(*case)
        assert elements.shape == (len(case[1]), grid_size)
        assert np.array_equal(elements, reference)
    assert len(calls) == len(cases)


@pytest.mark.parametrize("gs", [[0.3], [0.05, 0.2, 0.7, 2.0]])
def test_one_pade_call_per_run(monkeypatch, gs):
    # both lattice directions of every coupling come from one stacked call
    shapes = []
    pade = linalg._pade_exponential

    def counting_pade(a):
        shapes.append(a.shape)
        return pade(a)

    monkeypatch.setattr(linalg, "_pade_exponential", counting_pade)
    rows = run_scenario(parse_config(f"scenario: pointer-shift\ng: {gs}"))
    assert all(within_tolerance(r["residual"], KINDS["pointer-shift"].tolerance) for r in rows)
    assert shapes == [(2, len(gs), 2, 2)]


@st.composite
def complex_weak_selections(draw):
    """A random Hermitian A of dim 2-3 with a selection where
    |<phi|psi>| >= 0.3, |Im A_w| >= 0.1 and |A_w| <= 5."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(2, 3))
    A, psi, phi = random_hermitian(d, rng), random_state(d, rng), random_state(d, rng)
    assume(abs(np.vdot(phi, psi)) >= 0.3)
    sel = PrePostSelection(psi, phi)
    a_w = weak_value(A, sel)
    assume(abs(a_w.imag) >= 0.1 and abs(a_w) <= 5)
    return A, sel


@settings(max_examples=50, deadline=None)
@given(case=complex_weak_selections())
def test_complex_weak_value_moves_momentum(case):
    # Jozsa, PRA 76, 044103 (2007): the momentum shifts by 2 g Im(A_w) Var_p,
    # with a relative error of order g^2
    A, sel = case
    pointer = build_gaussian_pointer(512, -12.0, 12.0, 1.0, 0.0)
    errors = [abs(r.momentum_shift - r.predicted_momentum_shift) / abs(r.predicted_momentum_shift)
              for r in pointer_shift_sweep(A, sel, [1e-3, 5e-4], pointer)]
    assert errors[0] <= 1e-4
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_oracle_shares_nothing_with_branch_sum(monkeypatch, tmp_path, capsys):
    # corrupt only the branch-sum route: eigh hands back the conjugated
    # eigenvectors, which are not eigenvectors of a complex A
    rng = np.random.default_rng(404)
    A = random_hermitian(3, rng)
    psi, phi = random_selection(3, rng)
    sel = PrePostSelection(psi, phi)
    pointer = build_gaussian_pointer(256, -8.0, 8.0, 0.9, 0.3)
    assert np.max(np.abs(A.imag)) > 0.1
    assert pointer_shift_sweep(A, sel, [0.5], pointer)[0].oracle_residual <= 1e-10

    eigh = np.linalg.eigh

    def conjugated_eigh(a):
        lam, vecs = eigh(a)
        return lam, vecs.conj()

    monkeypatch.setattr(np.linalg, "eigh", conjugated_eigh)
    assert pointer_shift_sweep(A, sel, [0.5], pointer)[0].oracle_residual > 1e-10

    def pairs(values):
        return [[float(z.real), float(z.imag)] for z in values]

    cfg = tmp_path / "corrupted.yaml"
    cfg.write_text(json.dumps({
        "scenario": "pointer-shift", "g": [0.5],
        "observable": [pairs(row) for row in A], "psi": pairs(psi), "phi": pairs(phi),
        "meter": {"kind": "gaussian", "grid_size": 256, "x_min": -8.0, "x_max": 8.0,
                  "sigma": 0.9, "x0": 0.3}}))
    assert main(["pointer-shift", "--config", str(cfg)]) == EXIT_RESIDUAL
    assert "exceed" in capsys.readouterr().err


def test_momentum_moments_gaussian(pointer):
    mean_p, var_p = _moments(np.fft.fft(pointer.unit_amplitudes), pointer.grid.momentum_lattice)
    assert abs(mean_p) <= 1e-10
    assert var_p == pytest.approx(1 / (4 * pointer.sigma ** 2), rel=0.01)


def test_momentum_moments_refuse_zero_state(pointer):
    with pytest.raises(ValueError, match="zero norm"):
        pointer_statistics(np.zeros(pointer.grid.grid_size), pointer.grid)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 3), g=st.floats(0.01, 1.0),
       sigma=st.floats(0.8, 1.2), x0=st.floats(-0.5, 0.5))
def test_sweep_matches_continuum_closed_form(seed, d, g, sigma, x0):
    # Branch n is the packet translated by g lam_n, the weak-limit target the
    # packet translated by the complex g A_w; two such Gaussians overlap as
    # K(u, v) = exp(-(conj(u) - v)^2 / (8 sigma^2)).
    rng = np.random.default_rng(seed)
    A, psi, phi = random_hermitian(d, rng), random_state(d, rng), random_state(d, rng)
    assume(abs(np.vdot(phi, psi)) >= 0.3)
    sel = PrePostSelection(psi, phi)
    pointer = build_gaussian_pointer(512, -12.0, 12.0, sigma, x0)
    report = pointer_shift_sweep(A, sel, [g], pointer)[0]

    def K(u, v):
        return np.exp(-(np.conj(u) - v) ** 2 / (8 * sigma ** 2))

    lam, w = spectral_weights(A, sel)
    u, target = g * lam, g * weak_value(A, sel)
    gram = np.outer(w.conj(), w) * K(u[:, None], u[None, :])
    S = gram.sum().real
    c = np.vdot(phi, psi) / (np.linalg.norm(phi) * np.linalg.norm(psi))
    mean_shift = (gram * (u[:, None] + u[None, :]) / 2).sum().real / S
    gap = 1 - abs(np.sum(w.conj() * K(u, target))) / np.sqrt(S * K(target, target).real)
    assert abs(report.fidelity_gap - gap) <= 1e-12
    assert abs(report.probability - abs(c) ** 2 * S) <= 1e-12
    assert abs(report.mean_shift - mean_shift) <= 1e-9


@pytest.mark.parametrize("gs", [[0.3], [0.05, 0.2, 0.7, 2.0]])
def test_one_forward_fft_per_sweep(monkeypatch, pointer, amplification, gs):
    # and one inverse FFT and one branch-sum call, whatever the number of couplings
    calls = []
    for module, name in [(np.fft, "fft"), (np.fft, "ifft"), (meters, "diagonal_potent_operator")]:
        _count_calls(monkeypatch, calls, module, name)
    pointer_shift_sweep(SIGMA_Z, amplification, gs, pointer)
    assert sorted(calls) == ["diagonal_potent_operator", "fft", "ifft"]


class TestTranslatedSupport:
    # Branches of the preset sit at x0 +- g, its target at x0 + 2 g; with
    # sigma = 1 on [-12, 12) the target's +6 sigma edge leaves the grid at g = 3.
    def run(self, tmp_path, doc):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(doc)
        return main(["pointer-shift", "--config", str(cfg)])

    @pytest.mark.parametrize("gs, named", [("[8.0, 11.0]", "8.0"), ("[2.9, 3.1]", "3.1")])
    def test_refused_before_any_row(self, tmp_path, capsys, gs, named):
        assert self.run(tmp_path, f"scenario: pointer-shift\ng: {gs}\n") == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and f"at g = {named} a translated packet" in err

    def test_boundary_runs(self, tmp_path, capsys):
        assert self.run(tmp_path, "scenario: pointer-shift\ng: [2.9]\n") == EXIT_OK

    def test_target_momentum_centre(self):
        # Im A_w = sqrt(3)/2 puts the target's momentum centre at
        # g Im A_w / (2 sigma^2); at sigma = 4 dx its +3/sigma edge passes
        # pi/dx at g = 88.4, long before the branches (+-g) leave the grid
        sel = PrePostSelection(AMPLIFICATION_PSI, np.array([1, 1j]) / np.sqrt(2))
        pointer = build_gaussian_pointer(512, -256.0, 256.0, 4.0, 0.0)
        assert len(pointer_shift_sweep(SIGMA_Z, sel, [88.0], pointer)) == 1
        with pytest.raises(ValueError, match="at g = 89.0"):
            pointer_shift_sweep(SIGMA_Z, sel, [89.0], pointer)
