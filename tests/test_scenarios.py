import copy
import dataclasses
import json
import re
from functools import partial

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potentops import (
    PrePostSelection,
    QubitMeter,
    linalg,
    meters,
    pauli,
    pps,
    scenarios,
    timemachine,
)
from potentops.cli import EXIT_OK, EXIT_RESIDUAL, EXIT_VALIDATION, main
from potentops.sampling import random_hermitian, random_state, random_unitary
from potentops.scenarios import (
    KINDS,
    ConfigError,
    ScenarioConfig,
    emit_results,
    format_rows,
    parse_config,
    parse_config_mapping,
    parse_sweep_document,
    run_scenario,
    run_sweep,
    verification_suite,
    within_tolerance,
)

MINIMAL_WEAK_VALUE = """
scenario: weak-value
observable: sigma_z
psi: [0.8660254037844386, 0.5]
phi: amplification_phi
g: [0.1]
"""

# A plain non-finite number inside each kind of complex literal: a matrix, a
# state and a meter amplitude.
NON_FINITE_LITERALS = {
    "observable": "scenario: weak-value\nobservable: [[{bad}, 0], [0, 1]]",
    "psi": "scenario: weak-value\npsi: [{bad}, 1]",
    "hamiltonian": "scenario: time-machine\nhamiltonian: [[{bad}, 0], [0, 1]]",
    "meter.alpha": "scenario: modular-value\nmeter: {{kind: qubit, alpha: {bad}, beta: 1}}",
}


class TestParseConfig:
    def test_minimal_weak_value(self):
        cfg = parse_config(MINIMAL_WEAK_VALUE)
        assert cfg.kind == "weak-value"
        assert cfg.seed == 0
        assert cfg.params["g"] == [0.1]
        np.testing.assert_allclose(cfg.params["sel"].psi, [np.sqrt(3) / 2, 0.5], atol=1e-12)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("scenario: heat-death")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="observble"):
            parse_config("scenario: weak-value\nobservble: sigma_z")

    def test_dimension_mismatch_names_both_keys(self):
        text = "scenario: weak-value\npsi: [1, 0, 0]\nobservable: sigma_z"
        with pytest.raises(ConfigError, match="'psi'.*'observable'"):
            parse_config(text)

    def test_sweep_list_makes_three_row_plan(self):
        cfg = parse_config("scenario: weak-value\ng: [0.2, 0.1, 0.05]")
        rows = run_scenario(cfg)
        assert [row["g"] for row in rows] == [0.2, 0.1, 0.05]

    def test_linspace_range(self):
        cfg = parse_config("scenario: weak-value\ng: {start: 0.1, stop: 0.3, num: 3}")
        assert cfg.params["g"] == pytest.approx([0.1, 0.2, 0.3])

    def test_amplitudes_normalized_with_warning(self):
        with pytest.warns(UserWarning, match="normalized"):
            cfg = parse_config("scenario: weak-value\npsi: [3, 4]")
        assert np.linalg.norm(cfg.params["sel"].psi) == pytest.approx(1.0)

    def test_exponent_floats_without_dot_or_sign(self):
        cfg = parse_config("scenario: weak-value\ng: [1e-3, 1.0e6, 2E+1]")
        assert cfg.params["g"] == [1e-3, 1e6, 20.0]
        base, sweep = parse_sweep_document(
            "base: {scenario: modular-value, g: 1e-3}\nsweep: {g: [5e-2, 1.0e-1]}")
        assert base["g"] == 1e-3 and sweep["g"] == [0.05, 0.1]

    def test_yaml_syntax_error_carries_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("scenario: weak-value\n  bad indent: [")

    def test_complex_entries_as_pairs(self):
        cfg = parse_config("scenario: weak-value\nphi: [[0.70710678118654746, 0], "
                           "[0, 0.70710678118654746]]")
        np.testing.assert_allclose(cfg.params["sel"].phi, [1 / np.sqrt(2), 1j / np.sqrt(2)],
                                   atol=1e-12)

    def test_matrix_literal_must_be_hermitian(self):
        with pytest.raises(ConfigError, match="Hermitian"):
            parse_config("scenario: weak-value\nobservable: [[0, 1], [0, 0]]")

    @pytest.mark.parametrize("literal, width", [("[[1, 0], [0]]", 2),
                                                ("[[1], [0, 1]]", 1),
                                                ("[[1, 0, 0], [0, 1, 0], [0, 0]]", 3)])
    def test_ragged_matrix_literal_named(self, literal, width):
        with pytest.raises(ConfigError, match=f"^'observable' rows must all have length {width}$"):
            parse_config(f"scenario: weak-value\nobservable: {literal}")

    @pytest.mark.parametrize("bad", [".nan", ".inf"])
    @pytest.mark.parametrize("key", NON_FINITE_LITERALS)
    def test_non_finite_literal_named(self, key, bad):
        with pytest.raises(ConfigError, match=f"^'{key}' must be finite"):
            parse_config(NON_FINITE_LITERALS[key].format(bad=bad))

    def test_modular_needs_nonzero_beta(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("scenario: modular-value\nmeter: {kind: qubit, alpha: 1, beta: 0}")

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("scenario: weak-value\nseed: soon")
        with pytest.raises(ConfigError, match="seed"):
            parse_config("scenario: weak-value\nseed: true")
        with pytest.raises(ConfigError,
                           match="^'seed' must be a non-negative integer, got -1$"):
            parse_config("scenario: weak-value\nseed: -1")

    @pytest.mark.parametrize("doc, key", [
        ("scenario: completeness\ncount: 0", "count"),
        ("scenario: conditional\ncount: true", "count"),
        ("scenario: weak-value\ng: {start: 0, stop: 1, num: 0}", "g.num"),
        ("scenario: weak-value\ng: {start: 0, stop: 1, num: 2.0}", "g.num")])
    def test_positive_integer_named(self, doc, key):
        with pytest.raises(ConfigError, match=f"^'{key}' must be a positive integer$"):
            parse_config(doc)

    def test_completeness_dims_validation(self):
        with pytest.raises(ConfigError, match="dims"):
            parse_config("scenario: completeness\ndims: [[2, 1]]")

    def test_time_machine_coefficient_sum(self):
        with pytest.raises(ConfigError, match="coefficients"):
            parse_config("scenario: time-machine\ncoefficients: [2, -0.5]\ndurations: [1, 2]")

    # parse builds the selection, the pointer and the time-machine spec, so
    # each of their refusals is a ConfigError that names the key, raised
    # before any array of the run is formed.
    @pytest.mark.parametrize("doc, message", [
        ({"scenario": "weak-value", "psi": "zero", "phi": "one"},
         "'psi' and 'phi': |<phi|psi>|/(|phi||psi|) = 0.000e+00 <= 1.0e-10"),
        ({"scenario": "pointer-shift", "meter": {"sigma": 0.1}},
         "'meter': sigma = 0.1 under-resolved"),
        ({"scenario": "pointer-shift", "meter": {"x0": 8.0}},
         "'meter': packet support (+-6 sigma) leaves the grid"),
        ({"scenario": "pointer-shift", "meter": {"grid_size": 300}},
         "'meter': grid_size must be a power of two"),
        ({"scenario": "pointer-shift", "meter": {"grid_size": True}},
         "'meter': grid_size must be an integer, got True"),
        ({"scenario": "time-machine", "coefficients": [2, -0.5]},
         "'coefficients': coefficients sum to (1.5+0j), not 1"),
        ({"scenario": "time-machine", "coefficients": [[1, 1], [0, -1]]},
         "'coefficients': effective duration (1-1j) is not real"),
    ], ids=["orthogonal", "under-resolved", "off-grid", "grid-size", "grid-size-bool",
            "coefficient-sum", "complex-duration"])
    def test_input_object_refused_at_parse(self, doc, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config_mapping(doc)

    @pytest.mark.parametrize("kind", KINDS)
    def test_template_round_trip(self, kind):
        template = {"scenario": kind, **KINDS[kind].template}
        reparsed = parse_config(yaml.safe_dump(template))
        direct = parse_config_mapping(template)
        assert reparsed.kind == direct.kind == kind
        rows_a = run_scenario(reparsed) if kind != "pointer-shift" else None
        rows_b = run_scenario(direct) if kind != "pointer-shift" else None
        if rows_a is not None:
            assert rows_a == rows_b


def _assert_identical(actual, expected, path):
    """Exact equality, field by field through dataclasses (a PrePostSelection,
    a GaussianPointer, a TimeTranslationSpec) and item by item through tuples (a
    kept eigh result), whose == is ambiguous on arrays."""
    assert type(actual) is type(expected), path
    if dataclasses.is_dataclass(expected):
        for f in dataclasses.fields(expected):
            _assert_identical(getattr(actual, f.name), getattr(expected, f.name),
                              f"{path}.{f.name}")
    elif isinstance(expected, tuple):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_identical(a, e, f"{path}[{i}]")
    elif isinstance(expected, np.ndarray):
        np.testing.assert_array_equal(actual, expected, err_msg=path, strict=True)
    else:
        assert actual == expected, path


@pytest.mark.parametrize("kind", KINDS)
def test_omitted_keys_take_the_template_values(kind):
    minimal = parse_config_mapping({"scenario": kind})
    preset = parse_config_mapping({"scenario": kind, **KINDS[kind].template})
    assert minimal.params.keys() == preset.params.keys()
    for key, value in preset.params.items():
        _assert_identical(minimal.params[key], value, key)


def test_omitted_meter_keys_take_the_template_values():
    cfg = parse_config_mapping({"scenario": "potent-values", "meter": {"beta": 0.8}})
    preset = parse_config_mapping({"scenario": "potent-values"})
    assert cfg.params["meter"] == preset.params["meter"]
    with pytest.raises(ConfigError, match="'meter' must be a mapping"):
        parse_config_mapping({"scenario": "potent-values", "meter": 5})


@pytest.mark.parametrize("kind", KINDS)
def test_a_preset_run_leaves_the_template_unchanged(kind):
    """A config that omits a key shares the template's value, nested lists and
    mappings included, so neither parse nor run may write to it."""
    before = copy.deepcopy(KINDS[kind].template)
    run_scenario(parse_config_mapping({"scenario": kind}))
    assert KINDS[kind].template == before


class TestRunScenario:
    def test_weak_value_amplification_row(self):
        rows = run_scenario(parse_config_mapping({"scenario": "weak-value"}))
        assert all(row["value_re"] == pytest.approx(2.0, abs=1e-12) for row in rows)
        assert all(row["value_im"] == pytest.approx(0.0, abs=1e-12) for row in rows)
        assert all(row["residual"] <= KINDS["weak-value"].tolerance for row in rows)
        assert all(within_tolerance(row["residual"], KINDS["weak-value"].tolerance)
                   for row in rows)

    def test_modular_value_quarter_turn_row(self):
        rows = run_scenario(parse_config_mapping({"scenario": "modular-value"}))
        quarter = [row for row in rows if row["g"] == pytest.approx(np.pi / 2)]
        assert quarter and quarter[0]["value_im"] == pytest.approx(-2.0, abs=1e-12)

    def test_potent_values_rows_are_meter_weighted(self):
        cfg = parse_config_mapping({"scenario": "potent-values"})
        rows = run_scenario(cfg)
        assert [row["k"] for row in rows] == [0, 1]
        assert rows[0]["value_re"] == pytest.approx(0.6, abs=1e-12)
        from potentops import PrePostSelection, modular_value
        from potentops.pauli import AMPLIFICATION_PHI, AMPLIFICATION_PSI, SIGMA_Z

        m = modular_value(SIGMA_Z, 1.0,
                          PrePostSelection(AMPLIFICATION_PSI, AMPLIFICATION_PHI))
        assert rows[1]["value_re"] + 1j * rows[1]["value_im"] == pytest.approx(0.8 * m,
                                                                               abs=1e-12)

    def test_time_machine_preset_row(self):
        rows = run_scenario(parse_config_mapping({"scenario": "time-machine"}))
        (row,) = rows
        assert row["t_prime"] == pytest.approx(0.0, abs=1e-15)
        assert row["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert row["residual"] <= KINDS["time-machine"].tolerance

    def test_completeness_small_grid(self):
        cfg = parse_config("scenario: completeness\ndims: [[2, 3]]\ncount: 5\nseed: 9")
        rows = run_scenario(cfg)
        assert len(rows) == 5
        assert all(row["residual"] <= 1e-10 for row in rows)

    # Each (system_dim, apparatus_dim) group is checked as one stack; against
    # the per-instance route (same draws, one joint at a time, the terms
    # <phi|U|n><n|U^dag|phi> summed column by column) the rows keep their
    # index columns and move by at most 1e-15.
    @pytest.mark.parametrize("seed", [0, 3])
    def test_completeness_matches_the_per_instance_route(self, seed):
        rows = run_scenario(parse_config_mapping({"scenario": "completeness", "seed": seed}))
        rng = np.random.default_rng(seed)
        expected = []
        for ds, da in KINDS["completeness"].template["dims"]:
            for _ in range(KINDS["completeness"].template["count"]):
                joint, phi = random_unitary(ds * da, rng), random_state(ds, rng)
                u4 = joint.reshape(ds, da, ds, da)
                slices = (np.einsum("s,satb,t->ab", phi.conj(), u4, e) for e in np.eye(ds))
                total = sum(m @ m.conj().T for m in slices)
                expected.append((len(expected), ds, da, np.max(np.abs(total - np.eye(da)))))
        assert len(rows) == len(expected) == 450
        assert [(r["instance"], r["system_dim"], r["apparatus_dim"]) for r in rows] \
            == [e[:3] for e in expected]
        assert all(type(r["instance"]) is int for r in rows)
        assert max(abs(r["residual"] - e[3]) for r, e in zip(rows, expected)) <= 1e-15

    def test_conditional_rows(self):
        cfg = parse_config("scenario: conditional\ncount: 5\nseed: 3")
        rows = run_scenario(cfg)
        assert len(rows) == 10
        assert {row["variant"] for row in rows} == {"system", "apparatus"}
        assert all(row["residual"] <= KINDS["conditional"].tolerance for row in rows)

    def test_determinism_same_seed(self):
        cfg = parse_config("scenario: conditional\ncount: 4\nseed: 11")
        assert run_scenario(cfg) == run_scenario(cfg)

    def test_different_seed_changes_rows(self):
        a = run_scenario(parse_config("scenario: completeness\ndims: [[2, 2]]\ncount: 3\nseed: 1"))
        b = run_scenario(parse_config("scenario: completeness\ndims: [[2, 2]]\ncount: 3\nseed: 2"))
        assert a != b


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shape of every matrix handed to np.linalg.eigh, in call order."""
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return shapes


# A 3x3 observable, so its own eigh (3, 3) and the joint's (6, 6) tell apart.
QUBIT_METER_3 = {
    "observable": [[1.0, 0.5, 0.0], [0.5, -1.0, 0.25], [0.0, 0.25, 0.3]],
    "psi": [0.6, 0.0, 0.8], "phi": [0.0, 0.6, 0.8],
    "meter": {"kind": "qubit", "alpha": 0.6, "beta": 0.8},
}


class TestSharedDecompositions:
    # Per run, whatever the number of couplings: one eigh of the observable,
    # shared by every coupling's branch sum (and by weak-value's spectral
    # oracle), and one stacked Pade exponential of g A, the |1> block of
    # exp(-i g A (x) |1><1|), for the oracle of every kind, weak-value's
    # prob_exact included.
    @pytest.mark.parametrize("kind, pade_calls", [
        ("weak-value", 1), ("modular-value", 1), ("potent-values", 1), ("potent-operator", 1),
    ])
    @pytest.mark.parametrize("n", [1, 5])
    def test_qubit_meter_run_eigh_counts(self, eigh_shapes, monkeypatch, kind, pade_calls, n):
        pade = linalg._pade_exponential
        stacks = []
        monkeypatch.setattr(linalg, "_pade_exponential",
                            lambda a: stacks.append(np.shape(a)) or pade(a))
        g = [0.1 * (k + 1) for k in range(n)]
        rows = run_scenario(parse_config_mapping({"scenario": kind, "g": g, **QUBIT_METER_3}))
        assert all(within_tolerance(r["residual"], KINDS[kind].tolerance) for r in rows)
        assert eigh_shapes == [(3, 3)]
        assert stacks == [(n, 3, 3)] * pade_calls

    # Eigenvectors scaled by 1 + 1e-6 scale every branch weight, and so every
    # row, by about 1 + 2e-6 without turning the post-selected meter: only the
    # probability identity sees that, and each kind with a joint oracle holds it.
    @pytest.mark.parametrize("kind", ["modular-value", "potent-values", "potent-operator"])
    def test_uniform_scale_error_in_rows_fails(self, monkeypatch, kind):
        eigh = np.linalg.eigh

        def scaled_vectors(m, *args, **kwargs):
            lam, vecs = eigh(m, *args, **kwargs)
            return lam, (vecs * (1 + 1e-6) if np.shape(m) == (3, 3) else vecs)

        monkeypatch.setattr(np.linalg, "eigh", scaled_vectors)
        rows = run_scenario(parse_config_mapping(
            {"scenario": kind, "g": [0.3, 1.0], **QUBIT_METER_3}))
        assert not any(within_tolerance(r["residual"], KINDS[kind].tolerance) for r in rows)

    # prob_exact scaled by 1 + 1e-6 where the branch engine yields it for every
    # coupling at once, with the rows untouched: each kind holds that column to
    # the probability of its Pade joint oracle.
    @pytest.mark.parametrize("kind", ["weak-value", "modular-value", "potent-values",
                                      "potent-operator"])
    def test_scaled_prob_exact_fails(self, monkeypatch, capsys, kind):
        points = scenarios._qubit_meter_points

        def scaled_probabilities(*args):
            d, probabilities = points(*args)
            return d, probabilities * (1 + 1e-6)

        monkeypatch.setattr(scenarios, "_qubit_meter_points", scaled_probabilities)
        assert main([kind]) == EXIT_RESIDUAL

    # A NaN oracle probability beside a finite oracle state fails the run: the
    # residual's terms combine so that NaN is kept, where max() would drop it.
    @pytest.mark.parametrize("kind", ["weak-value", "modular-value", "potent-values",
                                      "potent-operator"])
    def test_nan_oracle_probability_fails(self, monkeypatch, capsys, kind):
        norm = np.linalg.norm

        def nan_probabilities(x, *args, axis=None, **kwargs):
            # the oracle meters' norms, one per coupling, are the package's only
            # np.linalg.norm over axis -1
            out = norm(x, *args, axis=axis, **kwargs)
            return out * np.nan if axis == -1 else out

        monkeypatch.setattr(np.linalg, "norm", nan_probabilities)
        assert main([kind]) == EXIT_RESIDUAL

    # A coupling whose joint the Pade oracle cannot exponentiate is refused
    # before any row, weak-value included, since its prob_exact has that witness.
    @pytest.mark.parametrize("kind", ["weak-value", "modular-value", "potent-values",
                                      "potent-operator"])
    def test_coupling_beyond_the_pade_cap_refused(self, capsys, tmp_path, kind):
        cfg = tmp_path / "far.yaml"
        cfg.write_text(f"scenario: {kind}\ng: [0.5, 1.0e300]\n")
        assert main([kind, "--config", str(cfg)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot exponentiate a matrix of 1-norm 1.000e+300, above the cap" in captured.err

    @pytest.mark.parametrize("n", [2, 4])
    def test_time_machine_run_makes_one_eigh(self, eigh_shapes, n):
        doc = {"scenario": "time-machine", "coefficients": [2.0] + [-1.0 / (n - 1)] * (n - 1),
               "durations": [0.5 * k for k in range(n)],
               "hamiltonian": QUBIT_METER_3["observable"], "meter_state": [0.6, 0.0, 0.8]}
        (row,) = run_scenario(parse_config_mapping(doc))
        assert within_tolerance(row["residual"], KINDS["time-machine"].tolerance)
        # one of H, kept by the spec at parse, for the rows and their target; the Pade
        # oracle takes none
        assert eigh_shapes == [(3, 3)]

    def test_time_machine_run_builds_one_register_selection(self, monkeypatch):
        built = []
        build = PrePostSelection.__post_init__
        monkeypatch.setattr(PrePostSelection, "__post_init__",
                            lambda sel: built.append(sel) or build(sel))
        cfg = parse_config_mapping({"scenario": "time-machine"})
        spec = cfg.params["spec"]
        run_scenario(cfg)
        # parse builds the spec's one selection, which the T'_w witness and the
        # register potent operator both read
        assert len(built) == 1
        assert built[0] is spec.coefficients.register_selection

    def test_apparatus_instance_guards_its_generators_once(self, monkeypatch):
        guard = linalg.require_hermitian
        guarded = []

        def counted(m, name="operator"):
            guarded.append(np.shape(m))
            return guard(m, name)

        for module in (linalg, meters, pps, scenarios, timemachine):
            if getattr(module, "require_hermitian", None) is guard:
                monkeypatch.setattr(module, "require_hermitian", counted)
        (row,) = run_scenario(parse_config_mapping(
            {"scenario": "conditional", "count": 1, "variants": ["apparatus"]}))
        assert within_tolerance(row["residual"], KINDS["conditional"].tolerance)
        assert len(guarded) == 1 and len(guarded[0]) == 3  # one guard, on the stack of A_n

    # Every Pade call a run makes exponentiates an exactly anti-Hermitian stack,
    # -i t H, whose exponential is unitary and cannot overflow; that is why
    # PADE_NORM_CAP may be far above the 1-norms where a general argument's
    # exponential overflows.
    def test_every_pade_argument_is_anti_hermitian(self, monkeypatch, capsys):
        pade = linalg._pade_exponential
        defects = []

        def recorded(a):
            defects.append(float(np.abs(a + np.conj(np.swapaxes(a, -1, -2))).max()))
            return pade(a)

        monkeypatch.setattr(linalg, "_pade_exponential", recorded)
        for seed in ("0", "3"):
            for command in (*KINDS, "verify"):
                assert main([command, "--seed", seed]) == EXIT_OK
        assert defects and max(defects) == 0.0


class TestQubitMeterOracleProperty:
    # parse normalizes psi and phi; a hand-built config that does not is refused
    # by the oracle, which post-selects normalized states only
    @pytest.mark.parametrize("state", ["psi", "phi"])
    def test_unnormalized_selection_refused(self, state):
        states = {"psi": np.array([0.6, 0.8]), "phi": np.array([0.8, 0.6])}
        states[state] = 2 * states[state]
        params = {"observable": np.diag([1.0, -1.0]), "sel": PrePostSelection(**states),
                  "g": [0.5], "meter": QubitMeter(alpha=0.6, beta=0.8)}
        with pytest.raises(ValueError, match=rf"^{state} must be normalized \(norm = 2\.0\)$"):
            run_scenario(ScenarioConfig(kind="potent-values", params=params))

    # Each joint kind's rows (one eigh of A) against its stacked Pade joint
    # oracle, at the kind's own tolerance, for A of dimension 2-4, a random
    # meter, a selection of normalized overlap >= 0.1 and g in [0, 5].
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 4), g=st.floats(0, 5))
    def test_rows_match_the_pade_joint(self, seed, d, g):
        rng = np.random.default_rng(seed)
        A = random_hermitian(d, rng)
        psi, phi = random_state(d, rng), random_state(d, rng)
        assume(abs(np.vdot(phi, psi)) >= 0.1)
        alpha, beta = random_state(2, rng)
        params = {"observable": A, "sel": PrePostSelection(psi, phi), "g": [g],
                  "meter": QubitMeter(alpha=alpha, beta=beta)}
        for kind in ("modular-value", "potent-values", "potent-operator"):
            rows = run_scenario(ScenarioConfig(kind=kind, params=params))
            assert all(within_tolerance(r["residual"], KINDS[kind].tolerance) for r in rows)

    # All couplings run as one array give each coupling's own values and
    # prob_exact to the bit (the residual is not compared: the Pade oracle
    # picks its degree and squarings from the largest coupling of the stack).
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 4),
           gs=st.lists(st.floats(0, 5), min_size=2, max_size=4))
    def test_all_couplings_at_once_give_each_couplings_rows(self, seed, d, gs):
        rng = np.random.default_rng(seed)
        psi, phi = random_state(d, rng), random_state(d, rng)
        assume(abs(np.vdot(phi, psi)) >= 0.1)
        alpha, beta = random_state(2, rng)
        params = {"observable": random_hermitian(d, rng), "sel": PrePostSelection(psi, phi),
                  "meter": QubitMeter(alpha=alpha, beta=beta)}

        def without_residual(rows):
            return [repr({k: v for k, v in row.items() if k != "residual"}) for row in rows]

        for kind in ("weak-value", "modular-value", "potent-values", "potent-operator"):
            at_once = run_scenario(ScenarioConfig(kind=kind, params={**params, "g": gs}))
            one_by_one = [row for g in gs
                          for row in run_scenario(ScenarioConfig(kind=kind, params={**params,
                                                                                    "g": [g]}))]
            assert without_residual(at_once) == without_residual(one_by_one)


def _faulty_eigh(monkeypatch, scaled=lambda shape: True, conjugate=False):
    """eigh with eigenvalues x(1+1e-6) for the input shapes ``scaled`` accepts,
    and with conjugated eigenvectors when ``conjugate``."""
    eigh = np.linalg.eigh

    def faulty(m, *args, **kwargs):
        lam, vecs = eigh(m, *args, **kwargs)
        if scaled(np.shape(m)):
            lam = lam * (1 + 1e-6)
        return lam, vecs.conj() if conjugate else vecs

    monkeypatch.setattr(np.linalg, "eigh", faulty)


def _scale_pade(monkeypatch):
    pade = linalg._pade_exponential
    monkeypatch.setattr(linalg, "_pade_exponential", lambda a: pade(a) * (1 + 1e-9))


def _negate_lattice(monkeypatch):
    lattice = meters.GaussianPointer.momentum_lattice
    monkeypatch.setattr(meters.GaussianPointer, "momentum_lattice",
                        property(lambda pointer: -lattice.fget(pointer)))


FAULTS = {
    "eigh": _faulty_eigh,
    "pade": _scale_pade,
    "lattice": _negate_lattice,
    # the matrix shape, so a stacked call is faulted as each of its matrices would be
    "eigh-2x2": partial(_faulty_eigh, scaled=lambda shape: shape[-2:] == (2, 2)),
    "eigh-3+": partial(_faulty_eigh, scaled=lambda shape: shape[-1] >= 3),
    "eigh-stacked": partial(_faulty_eigh, scaled=lambda shape: len(shape) >= 3),
    "eigh-conj": partial(_faulty_eigh, scaled=lambda shape: False, conjugate=True),
}

# The presets are real, and a conjugated real eigenvector is the same vector,
# so the conjugation fault runs every kind whose rows take eigh on sigma_y.
SIGMA_Y_CONFIGS = {
    kind: {"scenario": kind, "observable": "sigma_y"}
    for kind in ("weak-value", "modular-value", "potent-values", "potent-operator",
                 "pointer-shift")
} | {"time-machine": {"scenario": "time-machine", "hamiltonian": "sigma_y",
                      "meter_state": "plus"}}


class TestFaultMatrix:
    """Rows take eigh and joint oracles take the Pade exponential, so a fault
    in either routine fails every kind whose residual compares the two routes.
    Completeness takes neither routine. Weak-value fails a Pade fault too: its
    prob_exact is held to the probability of the Pade joint, as in the other
    qubit-meter kinds. The pointer rows read GaussianPointer.momentum_lattice
    and its oracle builds its own lattice order, so a negated lattice fails
    pointer-shift alone. An eigh fault confined to one matrix shape fails the
    kinds that decompose that shape: the 2x2 observables of the presets, or
    conditional's larger blocks. One confined to stacked calls fails the kinds
    that decompose a stack: conditional, whose modular values take one eigh of
    all the generators A_n.

    verify runs each kind on one drawn config, and its kind rows fail as the
    kinds do. Its draws are complex, so the conjugation fault fails them with no
    sigma_y config. At the default seed, the one apparatus instance of its
    conditional draw has 3x3 generators, so eigh-3+, not eigh-2x2, fails its
    conditional row, beside the 16x16 exponential of
    general_vs_hermitian_exponential and the 4x4 Hamiltonian of time-machine."""

    PASSING = {"eigh": {"completeness"}, "pade": {"completeness"},
               "lattice": set(KINDS) - {"pointer-shift"},
               "eigh-2x2": {"completeness"},
               "eigh-3+": set(KINDS) - {"conditional"},
               "eigh-stacked": set(KINDS) - {"conditional"},
               "eigh-conj": {"completeness"}}
    MATRIX_FAILS = {"general_vs_hermitian_exponential", *KINDS} - {"completeness"}
    QUBIT_KINDS = {"weak-value", "modular-value", "potent-values", "potent-operator"}
    VERIFY_FAILS = {"eigh": MATRIX_FAILS, "pade": MATRIX_FAILS,
                    "lattice": {"pointer_translation", "pointer-shift"},
                    "eigh-2x2": QUBIT_KINDS | {"pointer-shift"},
                    "eigh-3+": {"general_vs_hermitian_exponential", "conditional",
                                "time-machine"},
                    "eigh-stacked": {"conditional"},
                    "eigh-conj": MATRIX_FAILS}

    @staticmethod
    def argv(kind, fault, tmp_path):
        if fault != "eigh-conj" or kind not in SIGMA_Y_CONFIGS:
            return [kind]
        cfg = tmp_path / "sigma_y.yaml"
        cfg.write_text(json.dumps(SIGMA_Y_CONFIGS[kind]))
        return [kind, "--config", str(cfg)]

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_kind(self, monkeypatch, capsys, tmp_path, fault, kind):
        FAULTS[fault](monkeypatch)
        expected = EXIT_OK if kind in self.PASSING[fault] else EXIT_RESIDUAL
        assert main(self.argv(kind, fault, tmp_path)) == expected

    @pytest.mark.parametrize("kind", SIGMA_Y_CONFIGS)
    def test_sigma_y_configs_pass_without_fault(self, capsys, tmp_path, kind):
        assert main(self.argv(kind, "eigh-conj", tmp_path)) == EXIT_OK

    @pytest.mark.parametrize("fault", FAULTS)
    def test_verify(self, monkeypatch, capsys, fault):
        FAULTS[fault](monkeypatch)
        assert main(["verify"]) == EXIT_RESIDUAL
        out = capsys.readouterr().out.splitlines()
        assert {line.split()[1] for line in out if line.startswith("FAIL")} == self.VERIFY_FAILS[fault]


class TestMeterProjectorFault:
    """The qubit rows read the meter's coupling projector pauli.PROJECT_1, and the
    oracle reads only the |1> block exp(-i g A), so a wrong projector fails the
    qubit kinds at run time. |0><0| swaps the meter's two branches. The balanced
    weak-value preset, alpha = beta, has the same probability under that swap; it
    fails on its post-selected meter <phi|psi> d (alpha, beta), held to the oracle's."""

    @pytest.mark.parametrize("doc", [
        {"scenario": "modular-value"}, {"scenario": "potent-values"},
        {"scenario": "potent-operator"}, {"scenario": "weak-value"},
        {"scenario": "weak-value", "meter": {"kind": "qubit", "alpha": 0.6, "beta": 0.8}}],
        ids=["modular-value", "potent-values", "potent-operator", "weak-value",
             "weak-value-unbalanced"])
    def test_projector_onto_zero_fails(self, monkeypatch, capsys, tmp_path, doc):
        monkeypatch.setattr(pauli, "PROJECT_1", np.diag([1.0, 0.0]).astype(complex))
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(json.dumps(doc))
        assert main([doc["scenario"], "--config", str(cfg)]) == EXIT_RESIDUAL


def _scale_effective_duration(monkeypatch):
    build = timemachine.TimeTranslationSpec.__post_init__

    def scaled(spec):  # T' is computed once, when the spec is built
        build(spec)
        object.__setattr__(spec, "effective_duration", spec.effective_duration * (1 + 1e-6))

    monkeypatch.setattr(timemachine.TimeTranslationSpec, "__post_init__", scaled)


def _scale_fidelity(monkeypatch):
    machine = scenarios.time_translation_machine

    def scaled(spec, Phi):
        state, t_prime, fid, success = machine(spec, Phi)
        return state, t_prime, fid * (1 + 1e-6), success

    monkeypatch.setattr(scenarios, "time_translation_machine", scaled)


def _scale_weak_value(monkeypatch):
    weak_value = meters.weak_value
    monkeypatch.setattr(meters, "weak_value", lambda *args: weak_value(*args) * (1 + 1e-6))


# durations [1, 3] give T' = -1, so a scaled T' moves the fidelity too.
TIME_MACHINE_PROBE = {"scenario": "time-machine", "durations": [1, 3], "hamiltonian": "sigma_x"}


class TestColumnMutation:
    """The producer of a printed column scaled by 1 + 1e-6 at its source, with
    every other step untouched, fails the run through that column's witness:
    t_prime through the register weak value, fidelity through the Pade
    exp(-i H T'), and pointer-shift's weak_re, weak_im, predicted_shift and
    predicted_momentum_shift, which all rest on one weak_value call, through
    |A_w - lam . w|. fidelity_gap has no witness."""

    MUTATIONS = {"t_prime": (_scale_effective_duration, TIME_MACHINE_PROBE),
                 "fidelity": (_scale_fidelity, TIME_MACHINE_PROBE),
                 "weak_value": (_scale_weak_value, {"scenario": "pointer-shift"})}

    @staticmethod
    def run(doc, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(json.dumps(doc))
        return main([doc["scenario"], "--config", str(cfg)])

    @pytest.mark.parametrize("column", MUTATIONS)
    def test_mutated_column_fails(self, monkeypatch, capsys, tmp_path, column):
        fault, doc = self.MUTATIONS[column]
        fault(monkeypatch)
        assert self.run(doc, tmp_path) == EXIT_RESIDUAL

    @pytest.mark.parametrize("doc", [{"scenario": "time-machine"}, TIME_MACHINE_PROBE,
                                     {"scenario": "pointer-shift"}],
                             ids=["time-machine", "time-machine-probe", "pointer-shift"])
    def test_unfaulted_run_passes(self, capsys, tmp_path, doc):
        assert self.run(doc, tmp_path) == EXIT_OK


class TestEmission:
    def test_documented_weak_value_header(self):
        rows = run_scenario(parse_config("scenario: weak-value\ng: [0.1]"))
        text = format_rows(rows, "csv", KINDS["weak-value"].columns)
        assert text.splitlines()[0] == "scenario,g,value_re,value_im,prob_exact,residual"
        assert text.endswith("\n") and "\r" not in text

    def test_json_matches_csv_values(self):
        rows = run_scenario(parse_config("scenario: weak-value\ng: [0.1]"))
        payload = json.loads(format_rows(rows, "json", KINDS["weak-value"].columns))
        assert payload[0]["value_re"] == rows[0]["value_re"]
        assert list(payload[0]) == list(KINDS["weak-value"].columns)

    def test_empty_rows_error_and_no_file(self, tmp_path):
        target = tmp_path / "never.csv"
        with pytest.raises(ValueError, match="no rows"):
            emit_results([], "csv", str(target), KINDS["weak-value"].columns)
        assert not target.exists()

    def test_byte_identical_files(self, tmp_path):
        cfg = parse_config("scenario: conditional\ncount: 3\nseed: 5")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_scenario(cfg), "csv", str(a), KINDS["conditional"].columns)
        emit_results(run_scenario(cfg), "csv", str(b), KINDS["conditional"].columns)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_format(self):
        rows = run_scenario(parse_config("scenario: weak-value\ng: [0.1]"))
        with pytest.raises(ValueError, match="format"):
            format_rows(rows, "xml", KINDS["weak-value"].columns)


class TestSweep:
    def test_cartesian_grid(self):
        text = """
base:
  scenario: modular-value
  g: [0.3]
sweep:
  g: [0.1, 0.2]
  seed: [0, 1]
"""
        base, sweep = parse_sweep_document(text)
        rows, kind = run_sweep(base, sweep)
        assert kind == "modular-value"
        assert [(row["point"], row["g"]) for row in rows] == [
            (0, 0.1), (1, 0.1), (2, 0.2), (3, 0.2)]

    def test_dotted_override(self):
        text = """
base:
  scenario: potent-values
  g: [0.5]
sweep:
  meter.alpha: [0.6]
  meter.beta: [0.8]
"""
        base, sweep = parse_sweep_document(text)
        rows, _ = run_sweep(base, sweep)
        assert rows[0]["value_re"] == pytest.approx(0.6, abs=1e-12)

    # run_sweep owns the document's shape, so a library call is refused as the CLI is
    @pytest.mark.parametrize("base, sweep, message", [
        ({"scenario": "weak-value"}, {}, "'sweep' must be a nonempty mapping"),
        ({"scenario": "weak-value"}, [["g", [0.1]]], "'sweep' must be a nonempty mapping"),
        ({"scenario": "weak-value"}, None, "'sweep' must be a nonempty mapping"),
        (["scenario", "weak-value"], {"g": [0.1]}, "'base' must be a scenario mapping"),
        (None, {"g": [0.1]}, "'base' must be a scenario mapping"),
    ], ids=["empty-sweep", "list-sweep", "null-sweep", "list-base", "null-base"])
    def test_rejects_bad_shape(self, base, sweep, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            run_sweep(base, sweep)

    @pytest.mark.parametrize("base, key", [
        ({"scenario": "potent-values", "meter": 5}, "meter.alpha"),
        ({"scenario": "potent-values", "g": [1.0]}, "g.start"),
        ({"scenario": "potent-values", "meter": {"alpha": 0.6}}, "meter.alpha.re"),
    ], ids=["number", "list", "nested"])
    def test_rejects_a_key_into_a_non_mapping(self, base, key):
        prefix = key.rsplit(".", 1)[0]
        with pytest.raises(ConfigError, match=f"^sweep key '{key}' reaches into '{prefix}', "
                                              f"which is .*, not a mapping$"):
            run_sweep(base, {key: [0.6]})

    def test_a_null_prefix_is_created_as_an_absent_one_is(self):
        rows, _ = run_sweep({"scenario": "potent-values", "meter": None}, {"meter.alpha": [0.6]})
        assert rows == run_sweep({"scenario": "potent-values"}, {"meter.alpha": [0.6]})[0]

    @pytest.mark.parametrize("kinds", [["weak-value", "completeness"],
                                       ["weak-value", "modular-value"]])
    def test_rejects_mixed_kinds_before_running(self, kinds, monkeypatch):
        import potentops.scenarios as scenarios

        def must_not_run(cfg):
            raise AssertionError("a point ran")

        monkeypatch.setattr(scenarios, "run_scenario", must_not_run)
        with pytest.raises(ConfigError, match="one scenario kind") as info:
            run_sweep({"scenario": "weak-value"}, {"g": [0.1], "scenario": kinds})
        assert all(kind in str(info.value) for kind in kinds)

    @pytest.mark.parametrize("key", [1, 0.5, True, None, ("g",)])
    def test_rejects_non_string_key_before_running(self, key, monkeypatch):
        import potentops.scenarios as scenarios

        def must_not_run(cfg):
            raise AssertionError("a point ran")

        monkeypatch.setattr(scenarios, "run_scenario", must_not_run)
        with pytest.raises(ConfigError, match="sweep key") as info:
            run_sweep({"scenario": "modular-value"}, {"g": [0.1], key: [0.1]})
        assert repr(key) in str(info.value)

    # run_sweep owns the value check, so a library call is refused as the CLI is
    @pytest.mark.parametrize("values", [0.1, [], "g", None], ids=["scalar", "empty", "string",
                                                                  "null"])
    def test_rejects_a_value_that_is_not_a_nonempty_list_before_running(self, values,
                                                                         monkeypatch):
        import potentops.scenarios as scenarios

        def must_not_run(cfg):
            raise AssertionError("a point ran")

        monkeypatch.setattr(scenarios, "run_scenario", must_not_run)
        with pytest.raises(ConfigError, match="^sweep key 'g' must map to a nonempty list$"):
            run_sweep({"scenario": "weak-value"}, {"seed": [0, 1], "g": values})

    def test_single_kind_in_scenario_key_runs(self):
        rows, kind = run_sweep({"scenario": "weak-value", "g": [0.1]},
                               {"scenario": ["modular-value", "modular-value"]})
        assert kind == "modular-value" and [row["point"] for row in rows] == [0, 1]


VERIFY_IDENTITIES = ["tensor_associativity", "hermitian_exponential_unitary",
                     "general_vs_hermitian_exponential", "kraus_completeness",
                     "probability_identity", "potent_value_state_vs_oracle",
                     "potent_operator_state_vs_oracle", "projector_weak_values_sum",
                     "potent_operator_scale_invariance", "weak_value_scale_invariance",
                     "pointer_translation"]


class TestVerificationSuite:
    # verify runs at whatever seed it is given, so every draw must stay inside
    # its tolerance; 200 seeds take about a second.
    def test_all_checks_pass(self):
        for seed in range(200):
            rows = verification_suite(seed=seed)
            assert [row["check"] for row in rows] == VERIFY_IDENTITIES + list(KINDS)
            assert len({row["check"] for row in rows}) == 19
            # each kind row is gated by its kind's own tolerance
            assert [row["tolerance"] for row in rows[len(VERIFY_IDENTITIES):]] \
                == [kind.tolerance for kind in KINDS.values()]
            for row in rows:
                assert within_tolerance(row["residual"], row["tolerance"]), (seed, row)

    def test_deterministic(self):
        assert verification_suite(seed=7) == verification_suite(seed=7)
