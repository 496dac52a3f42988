"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see the lines).

Criterion 5 note: for normalized states that differ at O(g^2), the raw
overlap gap 1 - |<exact|approx>| is quartic in g (it shrinks ~16x per
halving; closed form 9 g^4 / 64 for the amplification preset). The quantity
that quarters per halving is the fidelity-derived chordal gap
sqrt(2 (1 - F)). The criterion is asserted on the chordal gap, and the
quartic law of the raw gap is asserted alongside as the supporting fact.
"""

import time

import numpy as np
import pytest

from potentops import (
    GaussianPointer,
    PrePostSelection,
    QubitMeter,
    apparatus_state_from_potent_values,
    conditional_unitary,
    evolution_operators,
    joint_evolve_and_postselect,
    modular_value,
    normalize,
    pointer_shift_sweep,
    potent_completeness_residual,
    potent_operator,
    potent_operator_apparatus_controlled,
    potent_operator_system_controlled,
    potent_time_superposition,
    potent_values,
    superposed_evolution,
    tensor_product,
    time_translation_machine,
    weak_value,
)
from potentops.cli import EXIT_OK, EXIT_RESIDUAL, main
from potentops.pauli import AMPLIFICATION_PHI, AMPLIFICATION_PSI, PROJECT_1, SIGMA_Z
from potentops.sampling import (
    random_hermitian,
    random_projector_decomposition,
    random_selection,
    random_state,
    random_unitary,
)
from potentops.scenarios import KINDS
from potentops.timemachine import EvolutionFamily, SuperpositionSpec, TimeTranslationSpec

from dense_oracles import family_branches


def report(number: int, label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_amplification_values():
    start = time.perf_counter()
    sel = PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI)
    wv_err = abs(weak_value(SIGMA_Z, sel) - 2.0)
    mv_err = abs(modular_value(SIGMA_Z, np.pi / 2, sel) - (-2j))
    elapsed = time.perf_counter() - start
    ok = wv_err <= 1e-14 and mv_err <= 1e-12 and elapsed < 0.5
    report(1, "amplification weak/modular values", ok,
           f"wv_err={wv_err:.2e}, mv_err={mv_err:.2e}, {elapsed * 1e3:.1f} ms")
    assert wv_err <= 1e-14
    assert mv_err <= 1e-12
    assert elapsed < 0.5


def test_criterion_2_qubit_meter_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_values = worst_operator = 0.0
    for _ in range(100):
        a = random_hermitian(2, rng)
        g = float(rng.uniform(0, 2 * np.pi))
        sel = PrePostSelection(*random_selection(2, rng))
        amps = random_state(2, rng)
        meter = QubitMeter(alpha=complex(amps[0]), beta=complex(amps[1]))
        joint = evolution_operators(tensor_product(a, PROJECT_1), [g])[0]
        pvs = potent_values(joint, meter.state, np.eye(2, dtype=complex), sel)
        m = modular_value(a, g, sel)
        worst_values = max(worst_values, float(np.max(np.abs(
            pvs.values - np.array([meter.alpha, meter.beta * m])))))
        op = potent_operator(joint, sel)
        worst_operator = max(worst_operator, float(np.max(np.abs(
            op.matrix - np.diag([1.0, m])))))
    elapsed = time.perf_counter() - start
    ok = worst_values <= 1e-12 and worst_operator <= 1e-12 and elapsed < 1.0
    report(2, "qubit-meter reduction, 100 draws", ok,
           f"values={worst_values:.2e}, operator={worst_operator:.2e}, {elapsed:.2f} s")
    assert worst_values <= 1e-12
    assert worst_operator <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst_state = worst_prob = 0.0
    for _ in range(50):
        ds, da = (int(d) for d in rng.integers(2, 5, size=2))
        joint = random_unitary(ds * da, rng)
        psi, phi = random_selection(ds, rng)
        Phi = random_state(da, rng)
        sel = PrePostSelection(psi, phi)
        pvs = potent_values(joint, Phi, np.eye(da, dtype=complex), sel)
        from_values = apparatus_state_from_potent_values(pvs)
        from_operator = normalize(potent_operator(joint, sel).apply(Phi))
        oracle, p_exact = joint_evolve_and_postselect(joint, psi, Phi, phi)
        from_oracle = normalize(oracle)
        worst_state = max(worst_state,
                          float(np.max(np.abs(from_values - from_operator))),
                          float(np.max(np.abs(from_operator - from_oracle))),
                          float(np.max(np.abs(from_values - from_oracle))))
        predicted = np.linalg.norm(pvs.values) ** 2 * abs(sel.overlap) ** 2
        worst_prob = max(worst_prob, abs(predicted - p_exact))
    ok = worst_state <= 1e-10 and worst_prob <= 1e-10
    report(3, "potent-value/operator/oracle equivalence", ok,
           f"state={worst_state:.2e}, prob={worst_prob:.2e}")
    assert worst_state <= 1e-10
    assert worst_prob <= 1e-10


def test_criterion_4_completeness_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for ds in (2, 3, 4):
        for da in (2, 3, 4):
            for _ in range(50):
                joint = random_unitary(ds * da, rng)
                phi = random_state(ds, rng)
                worst = max(worst, potent_completeness_residual(
                    joint, phi, np.eye(ds, dtype=complex)))
    ok = worst <= 1e-10
    report(4, "completeness identity over dim grid", ok, f"residual={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_5_weak_limit_convergence():
    start = time.perf_counter()
    sel = PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI)
    pointer = GaussianPointer(512, -12.0, 12.0, 1.0, 0.0)
    reports = pointer_shift_sweep(SIGMA_Z, sel, [0.2, 0.1, 0.05, 0.025], pointer)
    gaps = [r.fidelity_gap for r in reports[:3]]
    chordal = [np.sqrt(2 * gap) for gap in gaps]
    ratios = (chordal[0] / chordal[1], chordal[1] / chordal[2])
    raw_ratios = (gaps[0] / gaps[1], gaps[1] / gaps[2])
    shift_report = reports[3]
    shift_err = abs(shift_report.mean_shift - shift_report.predicted_shift)
    shift_bound = 0.05 * abs(shift_report.predicted_shift)
    elapsed = time.perf_counter() - start
    ok = (all(3.5 <= r <= 4.5 for r in ratios)
          and all(14.0 <= r <= 18.0 for r in raw_ratios)
          and shift_err <= shift_bound and elapsed < 10.0)
    report(5, "weak-limit convergence on Gaussian pointer", ok,
           f"chordal ratios={ratios[0]:.2f},{ratios[1]:.2f}; "
           f"raw-gap ratios={raw_ratios[0]:.1f},{raw_ratios[1]:.1f}; "
           f"shift_err={shift_err:.2e}<= {shift_bound:.2e}; {elapsed:.1f} s")
    for r in ratios:
        assert r == pytest.approx(4.0, abs=0.5)
    for r in raw_ratios:  # quartic law of the raw overlap gap
        assert r == pytest.approx(16.0, abs=2.0)
    assert shift_err <= shift_bound
    assert elapsed < 10.0


def test_criterion_6_conditional_reductions():
    rng = np.random.default_rng(6)
    worst_system = worst_apparatus = worst_sum = 0.0
    for _ in range(50):
        ds, da = (int(d) for d in rng.integers(2, 5, size=2))
        sel = PrePostSelection(*random_selection(ds, rng))
        blocks = int(rng.integers(1, ds + 1))
        projectors = random_projector_decomposition(ds, blocks, rng)
        unitaries = [random_unitary(da, rng) for _ in projectors]
        op, wvals = potent_operator_system_controlled(projectors, unitaries, sel)
        assembled = potent_operator(conditional_unitary(projectors, unitaries), sel)
        worst_system = max(worst_system, float(np.max(np.abs(op.matrix - assembled.matrix))))
        worst_sum = max(worst_sum, abs(sum(wvals) - 1.0))
        blocks = int(rng.integers(1, da + 1))
        aprojs = random_projector_decomposition(da, blocks, rng)
        generators = [random_hermitian(ds, rng) for _ in aprojs]
        lam = float(rng.uniform(0.1, 2 * np.pi))
        aop, _ = potent_operator_apparatus_controlled(generators, aprojs, lam, sel)
        branches = evolution_operators(np.array(generators), [lam])[0]
        aassembled = potent_operator(conditional_unitary(branches, aprojs), sel)
        worst_apparatus = max(worst_apparatus,
                              float(np.max(np.abs(aop.matrix - aassembled.matrix))))
    ok = worst_system <= 1e-12 and worst_apparatus <= 1e-12 and worst_sum <= 1e-12
    report(6, "conditional-unitary reductions, 50 draws", ok,
           f"system={worst_system:.2e}, apparatus={worst_apparatus:.2e}, "
           f"weak-sum={worst_sum:.2e}")
    assert worst_system <= 1e-12
    assert worst_apparatus <= 1e-12
    assert worst_sum <= 1e-12


def test_criterion_7_time_machine():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        parameters = tuple(np.sort(rng.uniform(-1, 1, size=5)))
        matrices = [random_hermitian(dim, rng) for _ in parameters]
        family = EvolutionFamily(parameters, dict(zip(parameters, matrices)).__getitem__,
                                 duration=float(rng.uniform(0.1, 2.0)))
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        if abs(c.sum()) < 0.3:
            c[0] += 1.0
        spec = SuperpositionSpec(c / c.sum())
        Phi = random_state(dim, rng)
        op = potent_time_superposition(family_branches(family), spec)
        direct, _ = superposed_evolution(family, spec, Phi)
        worst = max(worst, float(np.max(np.abs(op.apply(Phi) - direct))))
    preset = TimeTranslationSpec(durations=(1.0, 2.0),
                                 coefficients=SuperpositionSpec([2.0, -1.0]),
                                 hamiltonian=SIGMA_Z)
    _, t_prime, fid, _ = time_translation_machine(preset, np.array([1.0, 0.0], dtype=complex))
    ok = worst <= 1e-12 and abs(t_prime) <= 1e-12 and abs(fid - 1.0) <= 1e-12
    report(7, "time machine: potent route and (2,-1) preset", ok,
           f"equivalence={worst:.2e}, T'={t_prime:.1e}, fidelity-1={abs(fid - 1):.1e}")
    assert worst <= 1e-12
    assert abs(t_prime) <= 1e-12
    assert abs(fid - 1.0) <= 1e-12


def test_criterion_8_modular_weak_limit():
    rng = np.random.default_rng(12)
    ratios = []
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        a = random_hermitian(dim, rng)
        sel = PrePostSelection(*random_selection(dim, rng))
        a_w = weak_value(a, sel)
        residuals = [abs((1 - modular_value(a, g, sel)) / (1j * g) - a_w)
                     for g in (0.1, 0.05, 0.025)]
        ratios.extend((residuals[0] / residuals[1], residuals[1] / residuals[2]))
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    report(8, "modular-to-weak limit, 20 instances", ok,
           f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}]")
    for r in ratios:
        assert r == pytest.approx(2.0, abs=0.5)


def test_criterion_9_cli_determinism(tmp_path):
    mismatched = []
    for kind in KINDS:
        a = tmp_path / f"{kind}-a.csv"
        b = tmp_path / f"{kind}-b.csv"
        assert main([kind, "--seed", "7", "--out", str(a)]) == EXIT_OK
        assert main([kind, "--seed", "7", "--out", str(b)]) == EXIT_OK
        if a.read_bytes() != b.read_bytes():
            mismatched.append(kind)
    forced = main(["weak-value", "--tolerance-override", "-1",
                   "--out", str(tmp_path / "forced.csv")])
    ok = not mismatched and forced == EXIT_RESIDUAL
    report(9, "CLI determinism and forced failure", ok,
           f"mismatched={mismatched or 'none'}, forced-exit={forced}")
    assert not mismatched
    assert forced == EXIT_RESIDUAL
