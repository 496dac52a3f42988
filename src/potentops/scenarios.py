"""Declarative scenario runner behind the command-line interface.

A scenario is a YAML mapping (see README for the schema) naming one of the
supported experiment kinds, the states/observables involved (by preset name or
literal), a coupling sweep, and a meter. Running one produces result rows in
which every row carries the residual of an oracle cross-check: the same
quantity computed along an independent route (spectral decomposition, joint
evolution, or direct operator sum). The CLI turns residuals above the
documented tolerance into a non-zero exit status.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import pauli
from .linalg import (
    general_exponential,
    hermitian_exponential,
    normalize,
    tensor_product,
)
from .meters import build_gaussian_pointer, momentum_operator, pointer_shift_sweep
from .pps import (
    PrePostSelection,
    apparatus_controlled_unitary,
    apparatus_state_from_potent_values,
    joint_evolve_and_postselect,
    kraus_slices,
    modular_value,
    potent_completeness_residual,
    potent_operator,
    potent_operator_apparatus_controlled,
    potent_operator_system_controlled,
    potent_values,
    system_controlled_unitary,
    weak_value,
)
from .sampling import (
    random_hermitian,
    random_projector_decomposition,
    random_selection,
    random_state,
    random_unitary,
)
from .timemachine import (
    SuperpositionSpec,
    TimeTranslationSpec,
    time_machine_control_unitary,
    time_machine_selection,
    time_translation_machine,
)

KINDS = (
    "weak-value",
    "modular-value",
    "potent-values",
    "potent-operator",
    "completeness",
    "pointer-shift",
    "conditional",
    "time-machine",
)

# Stable, documented column order per scenario kind (complex quantities appear
# as _re/_im pairs; see README).
COLUMNS = {
    "weak-value": ("scenario", "g", "value_re", "value_im", "prob_exact", "residual"),
    "modular-value": ("scenario", "g", "value_re", "value_im", "prob_exact", "residual"),
    "potent-values": ("scenario", "g", "k", "value_re", "value_im", "prob_exact", "residual"),
    "potent-operator": ("scenario", "g", "row", "col", "value_re", "value_im",
                        "prob_exact", "residual"),
    "completeness": ("scenario", "instance", "system_dim", "apparatus_dim", "residual"),
    "pointer-shift": ("scenario", "g", "weak_re", "weak_im", "mean_shift", "predicted_shift",
                      "shift_error", "momentum_shift", "predicted_momentum_shift",
                      "fidelity_gap", "prob_exact", "residual"),
    "conditional": ("scenario", "instance", "variant", "aux_residual", "residual"),
    "time-machine": ("scenario", "t_prime", "fidelity", "success_norm", "residual"),
    "verify": ("scenario", "check", "residual", "tolerance"),
}

# Residuals above these fail the run (exit code 2). The exact-identity checks
# sit at 1e-12; anything normalized against a joint-evolution oracle at 1e-10.
TOLERANCES = {
    "weak-value": 1e-12,
    "modular-value": 1e-12,
    "potent-values": 1e-10,
    "potent-operator": 1e-10,
    "completeness": 1e-10,
    "pointer-shift": 1e-10,
    "conditional": 1e-12,
    "time-machine": 1e-12,
    "verify": None,  # per-check tolerances
}

OBSERVABLES = {
    "sigma_x": pauli.SIGMA_X,
    "sigma_y": pauli.SIGMA_Y,
    "sigma_z": pauli.SIGMA_Z,
    "identity2": pauli.IDENTITY_2,
}

STATES = {
    "amplification_psi": pauli.AMPLIFICATION_PSI,
    "amplification_phi": pauli.AMPLIFICATION_PHI,
    "zero": pauli.KET_0,
    "one": pauli.KET_1,
    "plus": pauli.KET_PLUS,
    "minus": pauli.KET_MINUS,
}

_INV_SQRT2 = 1 / np.sqrt(2)


class ConfigError(ValueError):
    """Scenario configuration is malformed; the message names the key."""


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 1e-3 and 1.0e6,
    which PyYAML's YAML 1.1 resolver leaves as strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@dataclass(frozen=True)
class QubitMeterSpec:
    alpha: complex = _INV_SQRT2
    beta: complex = _INV_SQRT2

    @property
    def state(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


@dataclass(frozen=True)
class GaussianMeterSpec:
    grid_size: int = 512
    x_min: float = -12.0
    x_max: float = 12.0
    sigma: float = 1.0
    x0: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    output_format: str | None = None
    output_path: str | None = None


# ---------------------------------------------------------------------------
# parsing


def _require_keys(mapping: dict, allowed, context: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}; allowed: {sorted(allowed)}")


def _parse_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    if not np.isfinite(value):
        raise ConfigError(f"'{key}' must be finite, got {value!r}")
    return float(value)


def _parse_complex(value, key: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_parse_number(value, key))
    if isinstance(value, list) and len(value) == 2:
        return complex(_parse_number(value[0], key), _parse_number(value[1], key))
    raise ConfigError(f"'{key}' must be a number or an [re, im] pair, got {value!r}")


def _parse_state(value, key: str) -> np.ndarray:
    if isinstance(value, str):
        if value not in STATES:
            raise ConfigError(f"'{key}': unknown state preset {value!r}; "
                              f"available: {sorted(STATES)}")
        return STATES[value].copy()
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{key}' must be a state preset name or an amplitude list")
    amps = np.array([_parse_complex(v, key) for v in value])
    nrm = float(np.linalg.norm(amps))
    if nrm <= 1e-12:
        raise ConfigError(f"'{key}': amplitudes are numerically zero")
    if abs(nrm - 1.0) > 1e-6:
        warnings.warn(f"'{key}': amplitudes normalized (norm was {nrm:.6g})")
    return amps / nrm


def _parse_matrix(value, key: str, hermitian: bool = True) -> np.ndarray:
    if isinstance(value, str):
        if value not in OBSERVABLES:
            raise ConfigError(f"'{key}': unknown observable preset {value!r}; "
                              f"available: {sorted(OBSERVABLES)}")
        return OBSERVABLES[value].copy()
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ConfigError(f"'{key}' must be an observable preset name or a matrix literal")
    width = len(value[0])
    if any(len(r) != width for r in value):
        raise ConfigError(f"'{key}' rows must all have length {width}")
    rows = [[_parse_complex(v, key) for v in r] for r in value]
    m = np.array(rows)
    if m.shape[0] != m.shape[1]:
        raise ConfigError(f"'{key}' must be square, got shape {m.shape}")
    if hermitian and np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise ConfigError(f"'{key}' must be Hermitian")
    return m


def _parse_sweep_values(value, key: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_parse_number(value, key)]
    if isinstance(value, list) and value:
        return [_parse_number(v, key) for v in value]
    if isinstance(value, dict):
        _require_keys(value, {"start", "stop", "num"}, f"'{key}' range")
        for k in ("start", "stop", "num"):
            if k not in value:
                raise ConfigError(f"'{key}' range needs start/stop/num, missing {k!r}")
        num = value["num"]
        if isinstance(num, bool) or not isinstance(num, int) or num < 1:
            raise ConfigError(f"'{key}.num' must be a positive integer")
        return [float(v) for v in np.linspace(_parse_number(value["start"], key),
                                              _parse_number(value["stop"], key), num)]
    raise ConfigError(f"'{key}' must be a number, a list, or a start/stop/num range")


def _parse_qubit_meter(value, key: str) -> QubitMeterSpec:
    value = {} if value is None else value
    _require_keys(value, {"kind", "alpha", "beta"}, f"'{key}'")
    if value.get("kind", "qubit") != "qubit":
        raise ConfigError(f"'{key}.kind' must be 'qubit' for this scenario")
    alpha = _parse_complex(value.get("alpha", _INV_SQRT2), f"{key}.alpha")
    beta = _parse_complex(value.get("beta", _INV_SQRT2), f"{key}.beta")
    vec = np.array([alpha, beta])
    nrm = float(np.linalg.norm(vec))
    if nrm <= 1e-12:
        raise ConfigError(f"'{key}': meter amplitudes are numerically zero")
    if abs(nrm - 1.0) > 1e-6:
        warnings.warn(f"'{key}': meter amplitudes normalized (norm was {nrm:.6g})")
    vec = vec / nrm
    return QubitMeterSpec(alpha=complex(vec[0]), beta=complex(vec[1]))


def _parse_gaussian_meter(value, key: str) -> GaussianMeterSpec:
    value = {} if value is None else value
    allowed = {"kind", "grid_size", "x_min", "x_max", "sigma", "x0"}
    _require_keys(value, allowed, f"'{key}'")
    if value.get("kind", "gaussian") != "gaussian":
        raise ConfigError(f"'{key}.kind' must be 'gaussian' for this scenario")
    grid_size = value.get("grid_size", 512)
    if isinstance(grid_size, bool) or not isinstance(grid_size, int) or grid_size < 2:
        raise ConfigError(f"'{key}.grid_size' must be an integer >= 2")
    return GaussianMeterSpec(
        grid_size=grid_size,
        x_min=_parse_number(value.get("x_min", -12.0), f"{key}.x_min"),
        x_max=_parse_number(value.get("x_max", 12.0), f"{key}.x_max"),
        sigma=_parse_number(value.get("sigma", 1.0), f"{key}.sigma"),
        x0=_parse_number(value.get("x0", 0.0), f"{key}.x0"),
    )


def _check_selection_dims(params: dict):
    dim = params["observable"].shape[0]
    for key in ("psi", "phi"):
        if params[key].size != dim:
            raise ConfigError(
                f"dimension mismatch: '{key}' has dimension {params[key].size} "
                f"but 'observable' is {dim}x{dim}")


def _parse_value_scenario(doc: dict, kind: str) -> dict:
    allowed = {"scenario", "seed", "output", "observable", "psi", "phi", "g", "meter"}
    _require_keys(doc, allowed, f"{kind} config")
    params = {
        "observable": _parse_matrix(doc.get("observable", "sigma_z"), "observable"),
        "psi": _parse_state(doc.get("psi", "amplification_psi"), "psi"),
        "phi": _parse_state(doc.get("phi", "amplification_phi"), "phi"),
        "g": _parse_sweep_values(doc.get("g", [0.2, 0.1, 0.05]), "g"),
        "meter": _parse_qubit_meter(doc.get("meter"), "meter"),
    }
    _check_selection_dims(params)
    if kind == "modular-value" and abs(params["meter"].beta) < 1e-6:
        raise ConfigError("'meter.beta' must be nonzero for modular-value scenarios")
    return params


def _parse_pointer_shift(doc: dict) -> dict:
    allowed = {"scenario", "seed", "output", "observable", "psi", "phi", "g", "meter"}
    _require_keys(doc, allowed, "pointer-shift config")
    params = {
        "observable": _parse_matrix(doc.get("observable", "sigma_z"), "observable"),
        "psi": _parse_state(doc.get("psi", "amplification_psi"), "psi"),
        "phi": _parse_state(doc.get("phi", "amplification_phi"), "phi"),
        "g": _parse_sweep_values(doc.get("g", [0.2, 0.1, 0.05, 0.025]), "g"),
        "meter": _parse_gaussian_meter(doc.get("meter"), "meter"),
    }
    _check_selection_dims(params)
    return params


def _parse_completeness(doc: dict) -> dict:
    _require_keys(doc, {"scenario", "seed", "output", "dims", "count"}, "completeness config")
    dims = doc.get("dims", [[ds, da] for ds in (2, 3, 4) for da in (2, 3, 4)])
    if not isinstance(dims, list) or not dims:
        raise ConfigError("'dims' must be a nonempty list of [system_dim, apparatus_dim] pairs")
    pairs = []
    for entry in dims:
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 2
                           for d in entry)):
            raise ConfigError(f"'dims' entries must be [system_dim, apparatus_dim] with "
                              f"integers >= 2, got {entry!r}")
        pairs.append((entry[0], entry[1]))
    count = doc.get("count", 50)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError("'count' must be a positive integer")
    return {"dims": pairs, "count": count}


def _parse_conditional(doc: dict) -> dict:
    _require_keys(doc, {"scenario", "seed", "output", "count", "variants"}, "conditional config")
    count = doc.get("count", 50)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError("'count' must be a positive integer")
    variants = doc.get("variants", ["system", "apparatus"])
    if (not isinstance(variants, list) or not variants
            or any(v not in ("system", "apparatus") for v in variants)):
        raise ConfigError("'variants' must be a nonempty subset of ['system', 'apparatus']")
    return {"count": count, "variants": list(variants)}


def _parse_time_machine(doc: dict) -> dict:
    allowed = {"scenario", "seed", "output", "coefficients", "durations",
               "hamiltonian", "meter_state"}
    _require_keys(doc, allowed, "time-machine config")
    coeffs = doc.get("coefficients", [2, -1])
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigError("'coefficients' must be a nonempty list")
    coefficients = [_parse_complex(c, "coefficients") for c in coeffs]
    durations = doc.get("durations", [1, 2])
    if not isinstance(durations, list) or len(durations) != len(coefficients):
        raise ConfigError("'durations' must be a list matching 'coefficients' in length")
    params = {
        "coefficients": coefficients,
        "durations": [_parse_number(t, "durations") for t in durations],
        "hamiltonian": _parse_matrix(doc.get("hamiltonian", "sigma_z"), "hamiltonian"),
        "meter_state": _parse_state(doc.get("meter_state", "zero"), "meter_state"),
    }
    if params["meter_state"].size != params["hamiltonian"].shape[0]:
        raise ConfigError(
            f"dimension mismatch: 'meter_state' has dimension {params['meter_state'].size} "
            f"but 'hamiltonian' is {params['hamiltonian'].shape[0]}x{params['hamiltonian'].shape[0]}")
    try:
        SuperpositionSpec(np.array(coefficients))
    except ValueError as exc:
        raise ConfigError(f"'coefficients': {exc}") from exc
    return params


_KIND_PARSERS = {
    "weak-value": lambda doc: _parse_value_scenario(doc, "weak-value"),
    "modular-value": lambda doc: _parse_value_scenario(doc, "modular-value"),
    "potent-values": lambda doc: _parse_value_scenario(doc, "potent-values"),
    "potent-operator": lambda doc: _parse_value_scenario(doc, "potent-operator"),
    "pointer-shift": _parse_pointer_shift,
    "completeness": _parse_completeness,
    "conditional": _parse_conditional,
    "time-machine": _parse_time_machine,
}


def parse_config_mapping(doc) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a mapping, got {type(doc).__name__}")
    kind = doc.get("scenario")
    if kind not in KINDS:
        raise ConfigError(f"'scenario' must be one of {list(KINDS)}, got {kind!r}")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")
    out_format = out_path = None
    if "output" in doc:
        output = doc["output"]
        if not isinstance(output, dict):
            raise ConfigError("'output' must be a mapping with 'format' and/or 'path'")
        _require_keys(output, {"format", "path"}, "'output'")
        out_format = output.get("format")
        if out_format is not None and out_format not in ("csv", "json"):
            raise ConfigError(f"'output.format' must be 'csv' or 'json', got {out_format!r}")
        out_path = output.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError("'output.path' must be a string")
    params = _KIND_PARSERS[kind](doc)
    return ScenarioConfig(kind=kind, seed=seed, params=params,
                          output_format=out_format, output_path=out_path)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document into a validated ScenarioConfig."""
    try:
        doc = yaml.load(text, Loader=_ConfigLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"invalid YAML{where}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    return parse_config_mapping(doc)


def scenario_template(kind: str) -> dict:
    """The named preset configuration for each scenario kind.

    Every worked example in the README is runnable from these: the sigma_z
    amplification pair with a balanced qubit meter, the default Gaussian
    pointer, and the (2, -1) time-machine design.
    """
    if kind not in KINDS:
        raise ConfigError(f"no template for {kind!r}; kinds: {list(KINDS)}")
    base = {"scenario": kind, "seed": 0}
    qubit_meter = {"kind": "qubit", "alpha": float(_INV_SQRT2), "beta": float(_INV_SQRT2)}
    selection = {"observable": "sigma_z", "psi": "amplification_psi",
                 "phi": "amplification_phi"}
    if kind == "weak-value":
        base.update(selection, g=[0.2, 0.1, 0.05], meter=dict(qubit_meter))
    elif kind == "modular-value":
        base.update(selection, g=[0.5, float(np.pi / 2)], meter=dict(qubit_meter))
    elif kind == "potent-values":
        base.update(selection, g=[1.0], meter={"kind": "qubit", "alpha": 0.6, "beta": 0.8})
    elif kind == "potent-operator":
        base.update(selection, g=[1.0], meter=dict(qubit_meter))
    elif kind == "pointer-shift":
        base.update(selection, g=[0.2, 0.1, 0.05, 0.025],
                    meter={"kind": "gaussian", "grid_size": 512, "x_min": -12.0,
                           "x_max": 12.0, "sigma": 1.0, "x0": 0.0})
    elif kind == "completeness":
        base.update(dims=[[ds, da] for ds in (2, 3, 4) for da in (2, 3, 4)], count=50)
    elif kind == "conditional":
        base.update(count=50, variants=["system", "apparatus"])
    elif kind == "time-machine":
        base.update(coefficients=[2, -1], durations=[1, 2],
                    hamiltonian="sigma_z", meter_state="zero")
    return base


# ---------------------------------------------------------------------------
# runners


def _qubit_joint(A: np.ndarray, g: float) -> np.ndarray:
    return hermitian_exponential(tensor_product(A, pauli.PROJECT_1), -1j * g)


def _run_weak_value(cfg: ScenarioConfig, rng) -> list[dict]:
    p = cfg.params
    sel = PrePostSelection(p["psi"], p["phi"])
    value = weak_value(p["observable"], sel)
    # Independent route: spectral decomposition turns A_w into an
    # eigenvalue-weighted sum of projector weak values.
    lam, vecs = np.linalg.eigh(p["observable"])
    spectral = complex(np.sum(lam * (sel.phi.conj() @ vecs) * (vecs.conj().T @ sel.psi))
                       / sel.overlap)
    residual = abs(value - spectral)
    meter = p["meter"].state
    rows = []
    for g in p["g"]:
        _, p_exact = joint_evolve_and_postselect(
            _qubit_joint(p["observable"], g), p["psi"], meter, p["phi"],
            check_unitary=False)
        rows.append({"scenario": cfg.kind, "g": g, "value_re": value.real,
                     "value_im": value.imag, "prob_exact": p_exact, "residual": residual})
    return rows


def _run_modular_value(cfg: ScenarioConfig, rng) -> list[dict]:
    p = cfg.params
    sel = PrePostSelection(p["psi"], p["phi"])
    meter = p["meter"]
    rows = []
    for g in p["g"]:
        value = modular_value(p["observable"], g, sel)
        # Independent route: dense joint evolution; the |1> amplitude of the
        # post-selected meter is overlap * beta * modular value.
        apparatus, p_exact = joint_evolve_and_postselect(
            _qubit_joint(p["observable"], g), p["psi"], meter.state, p["phi"],
            check_unitary=False)
        from_joint = complex(apparatus[1] / (sel.overlap * meter.beta))
        rows.append({"scenario": cfg.kind, "g": g, "value_re": value.real,
                     "value_im": value.imag, "prob_exact": p_exact,
                     "residual": abs(value - from_joint)})
    return rows


def _run_potent_values(cfg: ScenarioConfig, rng) -> list[dict]:
    p = cfg.params
    sel = PrePostSelection(p["psi"], p["phi"])
    meter = p["meter"].state
    basis = np.eye(2, dtype=complex)
    rows = []
    for g in p["g"]:
        joint = _qubit_joint(p["observable"], g)
        pvs = potent_values(joint, meter, basis, sel)
        reconstructed = apparatus_state_from_potent_values(pvs)
        apparatus, p_exact = joint_evolve_and_postselect(
            joint, p["psi"], meter, p["phi"], check_unitary=False)
        state_residual = float(np.max(np.abs(reconstructed - normalize(apparatus))))
        prob_residual = abs(np.linalg.norm(pvs.values) ** 2 * abs(sel.overlap) ** 2 - p_exact)
        residual = max(state_residual, prob_residual)
        for k, value in enumerate(pvs.values):
            rows.append({"scenario": cfg.kind, "g": g, "k": k, "value_re": value.real,
                         "value_im": value.imag, "prob_exact": p_exact, "residual": residual})
    return rows


def _run_potent_operator(cfg: ScenarioConfig, rng) -> list[dict]:
    p = cfg.params
    sel = PrePostSelection(p["psi"], p["phi"])
    meter = p["meter"].state
    rows = []
    for g in p["g"]:
        joint = _qubit_joint(p["observable"], g)
        op = potent_operator(joint, sel)
        apparatus, p_exact = joint_evolve_and_postselect(
            joint, p["psi"], meter, p["phi"], check_unitary=False)
        residual = float(np.max(np.abs(normalize(op.apply(meter)) - normalize(apparatus))))
        for r in range(op.matrix.shape[0]):
            for c in range(op.matrix.shape[1]):
                entry = op.matrix[r, c]
                rows.append({"scenario": cfg.kind, "g": g, "row": r, "col": c,
                             "value_re": entry.real, "value_im": entry.imag,
                             "prob_exact": p_exact, "residual": residual})
    return rows


def _run_completeness(cfg: ScenarioConfig, rng) -> list[dict]:
    rows = []
    instance = 0
    for ds, da in cfg.params["dims"]:
        for _ in range(cfg.params["count"]):
            joint = random_unitary(ds * da, rng)
            phi = random_state(ds, rng)
            residual = potent_completeness_residual(joint, phi, np.eye(ds, dtype=complex))
            rows.append({"scenario": cfg.kind, "instance": instance, "system_dim": ds,
                         "apparatus_dim": da, "residual": residual})
            instance += 1
    return rows


def _run_pointer_shift(cfg: ScenarioConfig, rng) -> list[dict]:
    p = cfg.params
    sel = PrePostSelection(p["psi"], p["phi"])
    m = p["meter"]
    pointer = build_gaussian_pointer(m.grid_size, m.x_min, m.x_max, m.sigma, m.x0)
    reports = pointer_shift_sweep(p["observable"], sel, p["g"], pointer)
    return [{"scenario": cfg.kind, "g": r.g, "weak_re": r.weak_val.real,
             "weak_im": r.weak_val.imag, "mean_shift": r.mean_shift,
             "predicted_shift": r.predicted_shift, "shift_error": r.shift_error,
             "momentum_shift": r.momentum_shift,
             "predicted_momentum_shift": r.predicted_momentum_shift,
             "fidelity_gap": r.fidelity_gap, "prob_exact": r.probability,
             "residual": r.oracle_residual} for r in reports]


def _run_conditional(cfg: ScenarioConfig, rng) -> list[dict]:
    rows = []
    for instance in range(cfg.params["count"]):
        for variant in cfg.params["variants"]:
            ds = int(rng.integers(2, 5))
            da = int(rng.integers(2, 5))
            psi, phi = random_selection(ds, rng)
            sel = PrePostSelection(psi, phi)
            if variant == "system":
                blocks = int(rng.integers(1, ds + 1))
                projectors = random_projector_decomposition(ds, blocks, rng)
                unitaries = [random_unitary(da, rng) for _ in projectors]
                op, wvals = potent_operator_system_controlled(projectors, unitaries, sel)
                assembled = potent_operator(system_controlled_unitary(projectors, unitaries), sel)
                aux = abs(sum(wvals) - 1.0)
            else:
                blocks = int(rng.integers(1, da + 1))
                projectors = random_projector_decomposition(da, blocks, rng)
                generators = [random_hermitian(ds, rng) for _ in projectors]
                lam = float(rng.uniform(0.1, 2 * np.pi))
                op, mvals = potent_operator_apparatus_controlled(projectors=projectors,
                                                                 generators=generators,
                                                                 lam=lam, sel=sel)
                assembled = potent_operator(
                    apparatus_controlled_unitary(generators, projectors, lam), sel)
                # Same modular values through the Pade (non-spectral) exponential.
                direct = [complex(np.vdot(sel.phi, general_exponential(a, -1j * lam) @ sel.psi)
                                  / sel.overlap) for a in generators]
                aux = max(abs(m - d) for m, d in zip(mvals, direct))
            residual = float(np.max(np.abs(op.matrix - assembled.matrix)))
            rows.append({"scenario": cfg.kind, "instance": instance, "variant": variant,
                         "aux_residual": float(aux), "residual": residual})
    return rows


def _run_time_machine(cfg: ScenarioConfig, rng) -> list[dict]:
    p = cfg.params
    spec = TimeTranslationSpec(durations=tuple(p["durations"]),
                               coefficients=SuperpositionSpec(np.array(p["coefficients"])),
                               hamiltonian=p["hamiltonian"])
    state, t_prime, fid, success = time_translation_machine(spec, p["meter_state"])
    # Independent route: the control-register potent operator applied to the
    # meter must reproduce the direct coefficient sum.
    op = potent_operator(time_machine_control_unitary(spec), time_machine_selection(spec))
    residual = float(np.max(np.abs(op.apply(p["meter_state"]) - state)))
    return [{"scenario": cfg.kind, "t_prime": t_prime, "fidelity": fid,
             "success_norm": success, "residual": residual}]


_RUNNERS = {
    "weak-value": _run_weak_value,
    "modular-value": _run_modular_value,
    "potent-values": _run_potent_values,
    "potent-operator": _run_potent_operator,
    "completeness": _run_completeness,
    "pointer-shift": _run_pointer_shift,
    "conditional": _run_conditional,
    "time-machine": _run_time_machine,
}


def run_scenario(cfg: ScenarioConfig) -> list[dict]:
    """Execute a scenario; deterministic for a given config and seed.

    Each row is a plain dict covering COLUMNS[cfg.kind] plus an in-memory
    'oracle_ok' flag (residual within the documented tolerance); the flag is
    not serialized.
    """
    rng = np.random.default_rng(cfg.seed)
    rows = [_finalize_row(row) for row in _RUNNERS[cfg.kind](cfg, rng)]
    tol = TOLERANCES[cfg.kind]
    for row in rows:
        row["oracle_ok"] = row["residual"] <= tol
    return rows


def _finalize_row(row: dict) -> dict:
    out = {}
    for key, value in row.items():
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"non-finite result for {key!r}")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# parameter sweeps


def _override_path(doc: dict, dotted: str, value):
    parts = dotted.split(".")
    target = doc
    for part in parts[:-1]:
        node = target.get(part)
        if not isinstance(node, dict):
            node = {}
            target[part] = node
        target = node
    target[parts[-1]] = value


def parse_sweep_document(text: str):
    """Parse a sweep config: a 'base' scenario plus a 'sweep' mapping of
    dotted config keys to value lists, expanded as a Cartesian grid in
    declaration order."""
    try:
        doc = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("sweep config must be a mapping")
    _require_keys(doc, {"base", "sweep"}, "sweep config")
    base = doc.get("base")
    sweep = doc.get("sweep")
    if not isinstance(base, dict):
        raise ConfigError("'base' must be a scenario mapping")
    if not isinstance(sweep, dict) or not sweep:
        raise ConfigError("'sweep' must be a nonempty mapping of key paths to value lists")
    for key, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep key '{key}' must map to a nonempty list")
    return base, sweep


def run_sweep(base: dict, sweep: dict, seed: int | None = None):
    """Run the Cartesian product of sweep points over the base scenario.

    Returns (rows, kind): each row gains a leading 'point' index following the
    declared sweep order. A sweep whose 'scenario' values name more than one
    kind is refused before any point runs: its rows would not share columns
    or a tolerance.
    """
    import copy
    import itertools

    kinds = []
    for value in sweep.get("scenario", []):
        if value not in kinds:
            kinds.append(value)
    if len(kinds) > 1:
        raise ConfigError(f"a sweep runs one scenario kind; 'scenario' lists {kinds}")
    keys = list(sweep)
    rows = []
    kind = None
    for point, combo in enumerate(itertools.product(*(sweep[k] for k in keys))):
        doc = copy.deepcopy(base)
        for key, value in zip(keys, combo):
            _override_path(doc, key, value)
        if seed is not None:
            doc["seed"] = seed
        cfg = parse_config_mapping(doc)
        kind = cfg.kind
        for row in run_scenario(cfg):
            rows.append({"point": point, **row})
    return rows, kind


# ---------------------------------------------------------------------------
# invariant suite ("verify" subcommand)


def verification_suite(seed: int = 0) -> list[dict]:
    """Seeded end-to-end invariant battery spanning every module.

    Returns verify rows (check, residual, tolerance); a residual above its
    tolerance means the installation fails its own physics.
    """
    rng = np.random.default_rng(seed)
    rows = []

    def check(name: str, residual: float, tolerance: float):
        rows.append({"scenario": "verify", "check": name, "residual": float(residual),
                     "tolerance": tolerance, "oracle_ok": float(residual) <= tolerance})

    # tensor product associativity
    a, b, c = (random_hermitian(d, rng) for d in (2, 3, 2))
    check("tensor_associativity",
          np.max(np.abs(tensor_product(tensor_product(a, b), c)
                        - tensor_product(a, tensor_product(b, c)))), 1e-12)

    # Hermitian exponential unitarity and inverse
    h = random_hermitian(16, rng)
    g = float(rng.uniform(-10, 10))
    u = hermitian_exponential(h, -1j * g)
    check("hermitian_exponential_unitary",
          np.max(np.abs(u.conj().T @ u - np.eye(16))), 1e-10)
    check("exponential_inverse",
          np.max(np.abs(hermitian_exponential(h, 0.3j) @ hermitian_exponential(h, -0.3j)
                        - np.eye(16))), 1e-10)
    check("general_vs_hermitian_exponential",
          np.max(np.abs(general_exponential(h, -1j * 0.7)
                        - hermitian_exponential(h, -1j * 0.7))), 1e-10)

    # Kraus completeness and the probability identity
    ds, da = 3, 4
    joint = random_unitary(ds * da, rng)
    psi, phi = random_selection(ds, rng)
    Phi = random_state(da, rng)
    sel = PrePostSelection(psi, phi)
    slices = kraus_slices(joint, Phi, np.eye(da, dtype=complex))
    check("kraus_completeness",
          np.max(np.abs(sum(s.conj().T @ s for s in slices) - np.eye(ds))), 1e-10)
    pvs = potent_values(joint, Phi, np.eye(da, dtype=complex), sel)
    apparatus, p_exact = joint_evolve_and_postselect(joint, psi, Phi, phi)
    check("probability_identity",
          abs(np.linalg.norm(pvs.values) ** 2 * abs(sel.overlap) ** 2 - p_exact), 1e-10)
    check("potent_value_state_vs_oracle",
          np.max(np.abs(apparatus_state_from_potent_values(pvs) - normalize(apparatus))), 1e-10)
    op = potent_operator(joint, sel)
    check("potent_operator_state_vs_oracle",
          np.max(np.abs(normalize(op.apply(Phi)) - normalize(apparatus))), 1e-10)
    check("completeness_identity",
          potent_completeness_residual(joint, phi, np.eye(ds, dtype=complex)), 1e-10)

    # Qubit-meter reduction
    alpha_beta = random_state(2, rng)
    meter = np.array([alpha_beta[0], alpha_beta[1]])
    A = random_hermitian(2, rng)
    qsel = PrePostSelection(*random_selection(2, rng))
    gq = float(rng.uniform(0, 2 * np.pi))
    qjoint = _qubit_joint(A, gq)
    qpv = potent_values(qjoint, meter, np.eye(2, dtype=complex), qsel)
    mval = modular_value(A, gq, qsel)
    check("qubit_meter_potent_values",
          np.max(np.abs(qpv.values - np.array([meter[0], meter[1] * mval]))), 1e-12)
    qop = potent_operator(qjoint, qsel)
    check("qubit_meter_potent_operator",
          np.max(np.abs(qop.matrix - np.diag([1.0, mval]))), 1e-12)

    # Conditional-unitary reductions
    projs = random_projector_decomposition(3, 2, rng)
    unis = [random_unitary(2, rng) for _ in projs]
    csel = PrePostSelection(*random_selection(3, rng))
    cop, wvals = potent_operator_system_controlled(projs, unis, csel)
    check("system_controlled_reduction",
          np.max(np.abs(cop.matrix
                        - potent_operator(system_controlled_unitary(projs, unis), csel).matrix)),
          1e-12)
    check("projector_weak_values_sum", abs(sum(wvals) - 1.0), 1e-12)
    aprojs = random_projector_decomposition(2, 2, rng)
    gens = [random_hermitian(3, rng) for _ in aprojs]
    lam = float(rng.uniform(0.1, 2.0))
    aop, _ = potent_operator_apparatus_controlled(projectors=aprojs, generators=gens,
                                                  lam=lam, sel=csel)
    check("apparatus_controlled_reduction",
          np.max(np.abs(aop.matrix
                        - potent_operator(apparatus_controlled_unitary(gens, aprojs, lam),
                                          csel).matrix)), 1e-12)

    # Scale invariance of the selection ratio
    lam_scale = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    mu_scale = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    scaled = PrePostSelection(lam_scale * psi, mu_scale * phi)
    check("potent_operator_scale_invariance",
          np.max(np.abs(potent_operator(joint, scaled).matrix - op.matrix)), 1e-12)
    A_scale = random_hermitian(ds, rng)
    check("weak_value_scale_invariance",
          abs(weak_value(A_scale, scaled) - weak_value(A_scale, sel)), 1e-12)

    # Gaussian pointer: translation generator and momentum lattice (small grid)
    pointer = build_gaussian_pointer(128, -8.0, 8.0, 1.0, 0.0)
    mom = momentum_operator(pointer.grid)
    shift = 0.6
    translated = hermitian_exponential(mom.matrix, -1j * shift) @ pointer.unit_amplitudes
    from .meters import pointer_statistics
    mean_x, _, _ = pointer_statistics(translated, pointer.grid)
    check("pointer_translation", abs(mean_x - shift), 1e-6)
    check("momentum_lattice",
          np.max(np.abs(np.sort(np.linalg.eigvalsh(mom.matrix))
                        - np.sort(pointer.grid.momentum_lattice))), 1e-8)

    # Time machine: potent route equals the direct superposition (Eq-level identity)
    spec = TimeTranslationSpec(durations=(1.0, 2.0),
                               coefficients=SuperpositionSpec(np.array([2.0, -1.0])),
                               hamiltonian=random_hermitian(4, rng))
    Phi_t = random_state(4, rng)
    state, _, _, _ = time_translation_machine(spec, Phi_t)
    top = potent_operator(time_machine_control_unitary(spec), time_machine_selection(spec))
    check("time_machine_potent_route", np.max(np.abs(top.apply(Phi_t) - state)), 1e-12)

    return [_finalize_row(row) for row in rows]


# ---------------------------------------------------------------------------
# emission


def format_rows(rows: list[dict], fmt: str, columns) -> str:
    """Render rows as CSV (LF line endings) or JSON (array of flat objects)."""
    if not rows:
        raise ValueError("no rows to emit")
    missing = [c for c in columns if c not in rows[0]]
    if missing:
        raise ValueError(f"rows are missing columns {missing}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        return buf.getvalue()
    if fmt == "json":
        payload = [{c: row[c] for c in columns} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def emit_results(rows: list[dict], fmt: str, destination: str | None, columns) -> None:
    """Write rows to a file (UTF-8) or stdout; identical inputs give
    byte-identical output. Refuses to create a file for zero rows."""
    text = format_rows(rows, fmt, columns)
    if destination is None:
        sys.stdout.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
