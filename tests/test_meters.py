import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from potentops import (
    Grid,
    PrePostSelection,
    QubitMeter,
    build_gaussian_pointer,
    hermitian_exponential,
    hermitian_exponentials,
    joint_evolve_and_postselect,
    modular_value,
    momentum_operator,
    normalize,
    pointer_shift_sweep,
    pointer_statistics,
    potent_values,
    weak_value,
)
from potentops.cli import EXIT_OK, EXIT_RESIDUAL, EXIT_VALIDATION, main
from potentops.linalg import hermiticity_defect
from potentops.meters import GRID_SIZE_CAP, _lattice_elements, momentum_moments
from potentops.pauli import AMPLIFICATION_PHI, AMPLIFICATION_PSI, IDENTITY_2, SIGMA_Z
from potentops.sampling import random_hermitian, random_selection, random_state


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
        joint = meter.coupling_unitary(SIGMA_Z, g)
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
            joint = meter.coupling_unitary(a, g)
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


class TestGaussianPointer:
    def test_fresh_pointer_moments(self):
        pointer = build_gaussian_pointer(512, -10.0, 14.0, 1.0, 2.0)
        mean_x, var_x, mean_p = pointer_statistics(pointer.amplitudes, pointer.grid)
        assert abs(mean_x - 2.0) <= 1e-8
        assert abs(mean_p) <= 1e-8
        assert abs(var_x - 1.0) <= 0.01  # grid quadrature vs sigma^2

    def test_grid_normalization(self):
        pointer = build_gaussian_pointer(256, -8.0, 8.0, 0.7, 0.0)
        total = np.sum(np.abs(pointer.amplitudes) ** 2) * pointer.grid.dx
        assert abs(total - 1.0) <= 1e-10
        assert abs(np.linalg.norm(pointer.unit_amplitudes) - 1.0) <= 1e-12

    def test_underresolved_sigma_rejected(self):
        with pytest.raises(ValueError, match="under-resolved"):
            build_gaussian_pointer(64, -12.0, 12.0, 0.2, 0.0)

    def test_support_guard(self):
        with pytest.raises(ValueError, match="support"):
            build_gaussian_pointer(512, -12.0, 12.0, 1.0, 8.0)


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

    def test_weak_limit_state_mean_tracks_weak_value(self, pointer, momentum, amplification):
        # the approximate final state exp(-i g A_w P)|Phi> is a translation by
        # 2g for this selection
        from potentops import CouplingSpec, weak_limit_potent_values

        g = 0.1
        coupling = CouplingSpec(g=g, A=SIGMA_Z, P=momentum.matrix)
        _, approx_state = weak_limit_potent_values(
            coupling, pointer.unit_amplitudes, np.eye(pointer.grid.grid_size, dtype=complex),
            amplification)
        mean_x, _, _ = pointer_statistics(approx_state, pointer.grid)
        assert abs(mean_x - 2 * g) <= 1e-8

    def test_imaginary_weak_value_moves_momentum(self, pointer):
        sel = PrePostSelection(AMPLIFICATION_PSI, np.array([1, 1j]) / np.sqrt(2))
        report = pointer_shift_sweep(SIGMA_Z, sel, [0.1], pointer)[0]
        assert abs(report.weak_val.imag) > 0.5
        assert report.predicted_momentum_shift != 0
        assert report.momentum_error <= 0.02 * abs(report.predicted_momentum_shift)

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
        # |Im A_w| = 20 * sqrt(3)/2 at g = 1 puts g |Im A_w| max|p| near 1160,
        # beyond ln(DBL_MAX) ~ 709.8
        sel = PrePostSelection(AMPLIFICATION_PSI, np.array([1, 1j]) / np.sqrt(2))
        with pytest.raises(ValueError, match="overflows"):
            pointer_shift_sweep(20 * SIGMA_Z, sel, [0.01, 1.0], pointer)
        report = pointer_shift_sweep(20 * SIGMA_Z, sel, [0.01], pointer)[0]
        assert np.isfinite(report.fidelity) and report.oracle_residual <= 1e-10

    def test_matches_generic_oracle_path(self, pointer, momentum, amplification):
        # same physics through the pps-level functions on the same grid
        g = 0.15
        joint = hermitian_exponential(
            np.kron(SIGMA_Z, momentum.matrix), -1j * g)
        oracle, p = joint_evolve_and_postselect(
            joint, AMPLIFICATION_PSI, pointer.unit_amplitudes, AMPLIFICATION_PHI,
            check_unitary=False)
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
    pointer = build_gaussian_pointer(grid_size, -8.0, 8.0, 0.9, 0.3)
    P = momentum_operator(pointer.grid).matrix
    gs = [0.05, 0.5, 2.0]
    joints = hermitian_exponentials(np.kron(A, P), [-1j * g for g in gs])
    psi, phi = sel.psi / np.linalg.norm(sel.psi), sel.phi / np.linalg.norm(sel.phi)
    for joint, report in zip(joints, pointer_shift_sweep(A, sel, gs, pointer)):
        oracle, p = joint_evolve_and_postselect(
            joint, psi, pointer.unit_amplitudes, phi, check_unitary=False)
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
    elements = _lattice_elements(A, g, grid, phi, psi)
    assert elements.shape == (GRID_SIZE_CAP,)
    idx = np.r_[np.arange(0, GRID_SIZE_CAP, 64), GRID_SIZE_CAP // 2 - 1, GRID_SIZE_CAP - 1]
    p = grid.momentum_lattice[idx]
    reference = np.einsum("s,kst,t->k", phi.conj(),
                          scipy.linalg.expm((-1j * g * p)[:, None, None] * A), psi)
    assert np.max(np.abs(elements[idx] - reference)) <= 1e-10


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
    mean_p, var_p = momentum_moments(pointer.amplitudes, pointer.grid)
    assert abs(mean_p) <= 1e-10
    assert var_p == pytest.approx(1 / (4 * pointer.sigma ** 2), rel=0.01)


def test_momentum_moments_refuse_zero_state(pointer):
    with pytest.raises(ValueError, match="zero norm"):
        momentum_moments(np.zeros(pointer.grid.grid_size), pointer.grid)
