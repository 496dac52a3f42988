"""Declarative scenario runner behind the command-line interface.

A scenario is a YAML mapping (see README for the schema) naming one of the
supported experiment kinds, the states/observables involved (by preset name or
literal), a coupling sweep, and a meter. Running one produces result rows in
which every row carries the residual of an oracle cross-check: the same
quantity computed along an independent route (spectral decomposition, joint
evolution, or direct operator sum). The CLI turns residuals above the
documented tolerance into a non-zero exit status.

Everything particular to one kind (its columns, tolerance, preset, parser and
runner) lives in its :class:`Kind` record in ``KINDS``.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
import re
import sys
import warnings
from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
import yaml

from . import linalg, pauli
from .linalg import general_exponential, hermitian_exponential, normalize, tensor_product
from .meters import (
    QubitMeter,
    build_gaussian_pointer,
    pointer_shift_sweep,
    pointer_statistics,
)
from .pps import (
    PrePostSelection,
    apparatus_state_from_potent_values,
    conditional_unitary,
    diagonal_potent_operator,
    joint_evolve_and_postselect,
    kraus_slices,
    modular_value,
    potent_completeness_residual,
    potent_operator,
    potent_operator_apparatus_controlled,
    potent_operator_system_controlled,
    potent_values,
    spectral_weights,
    weak_value,
)
from .sampling import (
    _haar_unitaries,
    random_hermitian,
    random_projector_decomposition,
    random_selection,
    random_state,
    random_unitary,
)
from .timemachine import (
    SuperpositionSpec,
    TimeTranslationSpec,
    potent_time_superposition,
    time_translation_machine,
)

VERIFY_COLUMNS = ("scenario", "check", "residual", "tolerance")

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
    """SafeLoader that also reads YAML 1.2 floats such as 1e-3 and 1.0e6, which
    PyYAML's YAML 1.1 resolver leaves as strings, and refuses a key written
    twice in one mapping (a key a '<<' merge brings in may be overridden)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                break  # PyYAML's own refusal follows
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@dataclass(frozen=True)
class Kind:
    """One scenario kind.

    ``columns`` is the stable, documented column order of its rows (complex
    quantities appear as _re/_im pairs; see README). A row whose residual is
    above ``tolerance`` fails the run (exit code 2): 1e-12 for weak-value, conditional,
    modular-value and time-machine, else 1e-10.
    ``template`` is the preset configuration; a config that omits a key, or a
    key of a nested mapping, takes the template's value. ``parse`` turns the
    config, completed from the template, into run parameters; ``run`` turns a
    parsed config into rows. A kind that draws at random seeds its own
    generator from ``cfg.seed``, so the kinds that draw nothing never load
    ``numpy.random``.
    """

    columns: tuple
    tolerance: float
    template: dict
    parse: Callable[[dict], dict]
    run: Callable[[ScenarioConfig], list[dict]]


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    output_format: str | None = None
    output_path: str | None = None


def within_tolerance(residual: float, tolerance: float) -> bool:
    """The pass/fail decision for every scenario, sweep and verify row: a
    residual passes when it is at most the tolerance. NaN compares False, so
    a NaN residual fails."""
    return bool(residual <= tolerance)


# ---------------------------------------------------------------------------
# parsing


def _require_keys(mapping: dict, allowed, context: str):
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}; allowed: {sorted(allowed)}")


def _with_defaults(doc: dict, template: dict) -> dict:
    """doc with every omitted key, nested mappings included, taken from template."""
    out = {**template, **doc}
    for key, default in template.items():
        if isinstance(default, dict) and key in doc:
            value = {} if doc[key] is None else doc[key]
            if not isinstance(value, dict):
                raise ConfigError(f"'{key}' must be a mapping, got {value!r}")
            out[key] = {**default, **value}
    return out


def _parse_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer literal no float can hold
        raise ConfigError(f"'{key}' must be finite, got an integer beyond the "
                          f"float range") from None
    if not finite:
        raise ConfigError(f"'{key}' must be finite, got {value!r}")
    return float(value)


def _parse_complex(value, key: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_parse_number(value, key))
    if isinstance(value, list) and len(value) == 2:
        return complex(_parse_number(value[0], key), _parse_number(value[1], key))
    raise ConfigError(f"'{key}' must be a number or an [re, im] pair, got {value!r}")


def _parse_count(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"'{key}' must be a positive integer")
    return value


def _unit_vector(amps: np.ndarray, key: str, what: str) -> np.ndarray:
    """amps / |amps|; refuses a zero vector and warns when the norm was off.

    When the sum of squares overflows, the amplitudes are first divided by
    their largest real or imaginary part, so finite amplitudes always give a
    unit vector and the warning reports their true norm.
    """
    with np.errstate(over="ignore"):
        scaled_norm = float(np.linalg.norm(amps))
    scale = 1.0
    if scaled_norm == math.inf:
        scale = float(np.max(np.abs(amps.view(float))))
        amps = amps / scale
        scaled_norm = float(np.linalg.norm(amps))
    nrm = scale * scaled_norm
    if nrm <= 1e-12:
        raise ConfigError(f"'{key}': {what} are numerically zero")
    if abs(nrm - 1.0) > 1e-6:
        warnings.warn(f"'{key}': {what} normalized (norm was {nrm:.6g})")
    return amps / scaled_norm


def _parse_state(value, key: str) -> np.ndarray:
    if isinstance(value, str):
        if value not in STATES:
            raise ConfigError(f"'{key}': unknown state preset {value!r}; "
                              f"available: {sorted(STATES)}")
        return STATES[value].copy()
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{key}' must be a state preset name or an amplitude list")
    return _unit_vector(np.array([_parse_complex(v, key) for v in value]), key, "amplitudes")


def _parse_matrix(value, key: str) -> np.ndarray:
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
    if not linalg.hermiticity_defect(m) <= linalg.HERMITIAN_TOL:
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
        num = _parse_count(value["num"], f"{key}.num")
        return [float(v) for v in np.linspace(_parse_number(value["start"], key),
                                              _parse_number(value["stop"], key), num)]
    raise ConfigError(f"'{key}' must be a number, a list, or a start/stop/num range")


def _parse_qubit_meter(value: dict, key: str) -> QubitMeter:
    _require_keys(value, {"kind", "alpha", "beta"}, f"'{key}'")
    if value["kind"] != "qubit":
        raise ConfigError(f"'{key}.kind' must be 'qubit' for this scenario")
    amps = np.array([_parse_complex(value["alpha"], f"{key}.alpha"),
                     _parse_complex(value["beta"], f"{key}.beta")])
    alpha, beta = _unit_vector(amps, key, "meter amplitudes")
    return QubitMeter(alpha=complex(alpha), beta=complex(beta))


def _parse_gaussian_meter(value: dict, key: str) -> dict:
    """The keyword arguments of build_gaussian_pointer, which runs at run time."""
    _require_keys(value, {"kind", "grid_size", "x_min", "x_max", "sigma", "x0"}, f"'{key}'")
    if value["kind"] != "gaussian":
        raise ConfigError(f"'{key}.kind' must be 'gaussian' for this scenario")
    grid_size = value["grid_size"]
    if isinstance(grid_size, bool) or not isinstance(grid_size, int) or grid_size < 2:
        raise ConfigError(f"'{key}.grid_size' must be an integer >= 2")
    return {"grid_size": grid_size, **{k: _parse_number(value[k], f"{key}.{k}")
                                       for k in ("x_min", "x_max", "sigma", "x0")}}


def _parse_selection(doc: dict, parse_meter) -> dict:
    """An observable, a pre/post-selection, a coupling sweep and a meter; the
    qubit-meter kinds and pointer-shift differ only in ``parse_meter``."""
    params = {
        "observable": _parse_matrix(doc["observable"], "observable"),
        "psi": _parse_state(doc["psi"], "psi"),
        "phi": _parse_state(doc["phi"], "phi"),
        "g": _parse_sweep_values(doc["g"], "g"),
        "meter": parse_meter(doc["meter"], "meter"),
    }
    dim = params["observable"].shape[0]
    for key in ("psi", "phi"):
        if params[key].size != dim:
            raise ConfigError(
                f"dimension mismatch: '{key}' has dimension {params[key].size} "
                f"but 'observable' is {dim}x{dim}")
    return params


def _parse_modular_value(doc: dict) -> dict:
    params = _parse_selection(doc, _parse_qubit_meter)
    if abs(params["meter"].beta) < 1e-6:
        raise ConfigError("'meter.beta' must be nonzero for modular-value scenarios")
    return params


def _parse_completeness(doc: dict) -> dict:
    dims = doc["dims"]
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
    return {"dims": pairs, "count": _parse_count(doc["count"], "count")}


def _parse_conditional(doc: dict) -> dict:
    count = _parse_count(doc["count"], "count")
    variants = doc["variants"]
    if (not isinstance(variants, list) or not variants
            or any(v not in ("system", "apparatus") for v in variants)):
        raise ConfigError("'variants' must be a nonempty subset of ['system', 'apparatus']")
    return {"count": count, "variants": list(variants)}


def _parse_time_machine(doc: dict) -> dict:
    coeffs = doc["coefficients"]
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigError("'coefficients' must be a nonempty list")
    coefficients = [_parse_complex(c, "coefficients") for c in coeffs]
    durations = doc["durations"]
    if not isinstance(durations, list) or len(durations) != len(coefficients):
        raise ConfigError("'durations' must be a list matching 'coefficients' in length")
    params = {
        "coefficients": coefficients,
        "durations": [_parse_number(t, "durations") for t in durations],
        "hamiltonian": _parse_matrix(doc["hamiltonian"], "hamiltonian"),
        "meter_state": _parse_state(doc["meter_state"], "meter_state"),
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


def parse_config_mapping(doc) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a mapping, got {type(doc).__name__}")
    name = doc.get("scenario")
    if not isinstance(name, str) or name not in KINDS:
        raise ConfigError(f"'scenario' must be one of {list(KINDS)}, got {name!r}")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
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
    kind = KINDS[name]
    _require_keys(doc, {"scenario", "seed", "output", *kind.template}, f"{name} config")
    params = kind.parse(_with_defaults(doc, kind.template))
    return ScenarioConfig(kind=name, seed=seed, params=params,
                          output_format=out_format, output_path=out_path)


def _load_yaml(text: str):
    try:
        return yaml.load(text, Loader=_ConfigLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"invalid YAML{where}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc


def parse_config(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document into a validated ScenarioConfig."""
    return parse_config_mapping(_load_yaml(text))


def scenario_template(kind: str) -> dict:
    """A fresh copy of the named preset configuration for each scenario kind.

    Every worked example in the README is runnable from these: the sigma_z
    amplification pair with a balanced qubit meter, the default Gaussian
    pointer, and the (2, -1) time-machine design.
    """
    if kind not in KINDS:
        raise ConfigError(f"no template for {kind!r}; kinds: {list(KINDS)}")
    return {"scenario": kind, "seed": 0, **copy.deepcopy(KINDS[kind].template)}


# ---------------------------------------------------------------------------
# runners and the oracle checks they share with the verify suite


def _qubit_meter_points(p: dict, sel: PrePostSelection, lam, w):
    """(d, prob) for every coupling g of exp(-i g A (x) |1><1|) at once, from the (lam, w)
    of spectral_weights: the (n_g, 2) diagonals d of diag(1, A_M), |<phi|psi> d (alpha, beta)|^2."""
    d = diagonal_potent_operator(lam, w, p["g"], [0.0, 1.0])
    return d, linalg._norms(sel.overlap * d * p["meter"].state) ** 2


def _run_qubit_meter(cfg: ScenarioConfig) -> list[dict]:
    """Rows of the four qubit-meter kinds, one construction read out four ways,
    every coupling in one array. Every residual holds prob_exact to the oracle,
    the meters post-selected from the dense joints exp(-i g A (x) |1><1|) of one
    stacked Pade exponential, which shares no decomposition; each kind adds one
    term. Potent rows are the entries of d * (alpha, beta) or of diag(d)."""
    p, meter = cfg.params, cfg.params["meter"]
    sel = PrePostSelection(p["psi"], p["phi"])
    lam, w = spectral_weights(p["observable"], sel)
    d, prob = _qubit_meter_points(p, sel, lam, w)
    oracle, oracle_p = joint_evolve_and_postselect(
        meter.coupling_unitaries(p["observable"], p["g"]), p["psi"], meter.state, p["phi"],
        check_unitary=False)
    index_columns = {"potent-values": ("k",), "potent-operator": ("row", "col")}.get(cfg.kind, ())
    if cfg.kind == "weak-value":
        # Independent route: spectral decomposition turns A_w into an
        # eigenvalue-weighted sum of projector weak values.
        value = weak_value(p["observable"], sel)
        table, term = np.full(len(p["g"]), value), abs(value - complex(lam @ w))
    elif cfg.kind == "modular-value":
        # Independent route: the |1> amplitude of the post-selected meter is
        # overlap * beta * modular value.
        table = d[:, 1]
        term = np.abs(table - oracle[:, 1] / (sel.overlap * meter.beta))
    else:
        # The normalized meter, and |values|^2 |<phi|psi>|^2 against the oracle's p.
        values = d * meter.state
        term = np.maximum(np.max(np.abs(normalize(values) - normalize(oracle)), axis=-1),
                          np.abs(linalg._norms(values) ** 2 * abs(sel.overlap) ** 2 - oracle_p))
        table = values if cfg.kind == "potent-values" else np.where(np.eye(2) == 1, d[..., None], 0)
    residual = np.maximum(np.abs(prob - oracle_p), term)  # NaN if either term is
    indices = list(itertools.product((0, 1), repeat=len(index_columns)))
    per_g = zip(p["g"], table.reshape(len(p["g"]), -1).tolist(), prob.tolist(), residual.tolist())
    return [{"scenario": cfg.kind, "g": g, **dict(zip(index_columns, index)), "value_re": z.real,
             "value_im": z.imag, "prob_exact": prob_g, "residual": residual_g}
            for g, entries, prob_g, residual_g in per_g for index, z in zip(indices, entries)]


def _run_completeness(cfg: ScenarioConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for ds, da in cfg.params["dims"]:
        D = ds * da
        # One flat draw per instance holds the numbers that random_unitary(D)
        # and then random_state(ds) would draw: real parts, then imaginary ones.
        draws = rng.standard_normal((cfg.params["count"], 2 * D * D + 2 * ds))
        re_u, im_u, re_phi, im_phi = np.split(draws, np.cumsum([D * D, D * D, ds]), axis=1)
        joints = _haar_unitaries((re_u + 1j * im_u).reshape(-1, D, D))
        phis = re_phi + 1j * im_phi
        phis = phis / linalg._norms(phis)[:, None]
        for residual in potent_completeness_residual(joints, phis, np.eye(ds, dtype=complex)):
            rows.append({"scenario": cfg.kind, "instance": len(rows), "system_dim": ds,
                         "apparatus_dim": da, "residual": residual})
    return rows


def _run_pointer_shift(cfg: ScenarioConfig) -> list[dict]:
    p = cfg.params
    sel = PrePostSelection(p["psi"], p["phi"])
    reports = pointer_shift_sweep(p["observable"], sel, p["g"],
                                  build_gaussian_pointer(**p["meter"]))
    return [{"scenario": cfg.kind, "g": r.g, "weak_re": r.weak_val.real,
             "weak_im": r.weak_val.imag, "mean_shift": r.mean_shift,
             "predicted_shift": r.predicted_shift, "shift_error": r.shift_error,
             "momentum_shift": r.momentum_shift,
             "predicted_momentum_shift": r.predicted_momentum_shift,
             "fidelity_gap": r.fidelity_gap, "prob_exact": r.probability,
             "residual": r.oracle_residual} for r in reports]


def _system_controlled_residuals(projectors, unitaries, sel: PrePostSelection):
    """(closed form vs assembled joint, |sum of projector weak values - 1|)
    for U = sum_n Pi_n (x) U_n."""
    op, wvals = potent_operator_system_controlled(projectors, unitaries, sel)
    assembled = potent_operator(conditional_unitary(projectors, unitaries), sel)
    return float(np.max(np.abs(op.matrix - assembled.matrix))), float(abs(sum(wvals) - 1.0))


def _apparatus_controlled_residuals(projectors, generators, lam: float, sel: PrePostSelection):
    """(closed form vs assembled joint, modular values by the spectral route vs
    by the Pade exponential) for U = sum_n exp(-i lam A_n) (x) P_n. The closed
    form takes eigh; one stacked Pade exponential gives every exp(-i lam A_n),
    both for the assembled joint and for the direct <phi|exp(-i lam A_n)|psi>."""
    op, mvals = potent_operator_apparatus_controlled(generators, projectors, lam, sel)
    branches = linalg._pade_exponential(-1j * lam * np.asarray(generators))
    assembled = potent_operator(conditional_unitary(branches, projectors), sel)
    direct = sel.phi.conj() @ branches @ sel.psi / sel.overlap
    return (float(np.max(np.abs(op.matrix - assembled.matrix))),
            float(np.max(np.abs(np.array(mvals) - direct))))


def _run_conditional(cfg: ScenarioConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
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
                residual, aux = _system_controlled_residuals(projectors, unitaries, sel)
            else:
                blocks = int(rng.integers(1, da + 1))
                projectors = random_projector_decomposition(da, blocks, rng)
                generators = [random_hermitian(ds, rng) for _ in projectors]
                lam = float(rng.uniform(0.1, 2 * np.pi))
                residual, aux = _apparatus_controlled_residuals(projectors, generators, lam, sel)
            rows.append({"scenario": cfg.kind, "instance": instance, "variant": variant,
                         "aux_residual": aux, "residual": residual})
    return rows


def _time_machine_residual(spec: TimeTranslationSpec, Phi: np.ndarray):
    """time_translation_machine(spec, Phi) and its oracle residual: the register
    potent operator over stacked Pade branches exp(-i T_i H), no eigh, on Phi."""
    result = time_translation_machine(spec, Phi)
    branches = linalg._pade_exponential(np.multiply.outer(spec.durations, -1j * spec.hamiltonian))
    op = potent_time_superposition(branches, spec.coefficients)
    return result, float(np.max(np.abs(op.apply(Phi) - result[0])))


def _run_time_machine(cfg: ScenarioConfig) -> list[dict]:
    p = cfg.params
    spec = TimeTranslationSpec(durations=tuple(p["durations"]),
                               coefficients=SuperpositionSpec(np.array(p["coefficients"])),
                               hamiltonian=p["hamiltonian"])
    (_, t_prime, fid, success), residual = _time_machine_residual(spec, p["meter_state"])
    return [{"scenario": cfg.kind, "t_prime": t_prime, "fidelity": fid,
             "success_norm": success, "residual": residual}]


_SELECTION = {"observable": "sigma_z", "psi": "amplification_psi", "phi": "amplification_phi"}
_BALANCED_QUBIT = {"kind": "qubit", "alpha": float(_INV_SQRT2), "beta": float(_INV_SQRT2)}
_VALUE_COLUMNS = ("scenario", "g", "value_re", "value_im", "prob_exact", "residual")
_parse_qubit_selection = partial(_parse_selection, parse_meter=_parse_qubit_meter)

KINDS: dict[str, Kind] = {
    "weak-value": Kind(
        _VALUE_COLUMNS, 1e-12, {**_SELECTION, "g": [0.2, 0.1, 0.05], "meter": _BALANCED_QUBIT},
        _parse_qubit_selection, _run_qubit_meter),
    "modular-value": Kind(
        _VALUE_COLUMNS, 1e-12,
        {**_SELECTION, "g": [0.5, float(np.pi / 2)], "meter": _BALANCED_QUBIT},
        _parse_modular_value, _run_qubit_meter),
    "potent-values": Kind(
        ("scenario", "g", "k", "value_re", "value_im", "prob_exact", "residual"), 1e-10,
        {**_SELECTION, "g": [1.0], "meter": {"kind": "qubit", "alpha": 0.6, "beta": 0.8}},
        _parse_qubit_selection, _run_qubit_meter),
    "potent-operator": Kind(
        ("scenario", "g", "row", "col", "value_re", "value_im", "prob_exact", "residual"),
        1e-10, {**_SELECTION, "g": [1.0], "meter": _BALANCED_QUBIT},
        _parse_qubit_selection, _run_qubit_meter),
    "completeness": Kind(
        ("scenario", "instance", "system_dim", "apparatus_dim", "residual"), 1e-10,
        {"dims": [[ds, da] for ds in (2, 3, 4) for da in (2, 3, 4)], "count": 50},
        _parse_completeness, _run_completeness),
    "pointer-shift": Kind(
        ("scenario", "g", "weak_re", "weak_im", "mean_shift", "predicted_shift",
         "shift_error", "momentum_shift", "predicted_momentum_shift", "fidelity_gap",
         "prob_exact", "residual"), 1e-10,
        {**_SELECTION, "g": [0.2, 0.1, 0.05, 0.025],
         "meter": {"kind": "gaussian", "grid_size": 512, "x_min": -12.0, "x_max": 12.0,
                   "sigma": 1.0, "x0": 0.0}},
        partial(_parse_selection, parse_meter=_parse_gaussian_meter), _run_pointer_shift),
    "conditional": Kind(
        ("scenario", "instance", "variant", "aux_residual", "residual"), 1e-12,
        {"count": 50, "variants": ["system", "apparatus"]},
        _parse_conditional, _run_conditional),
    "time-machine": Kind(
        ("scenario", "t_prime", "fidelity", "success_norm", "residual"), 1e-12,
        {"coefficients": [2, -1], "durations": [1, 2], "hamiltonian": "sigma_z",
         "meter_state": "zero"},
        _parse_time_machine, _run_time_machine),
}


def run_scenario(cfg: ScenarioConfig) -> list[dict]:
    """Execute a scenario; deterministic for a given config and seed.

    Each row is a plain dict covering ``KINDS[cfg.kind].columns``.
    """
    return [_finalize_row(row) for row in KINDS[cfg.kind].run(cfg)]


def _finalize_row(row: dict) -> dict:
    """Plain Python scalars; a non-finite value is refused with its column
    named, except in 'residual', which :func:`within_tolerance` fails."""
    out = {}
    for key, value in row.items():
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        if key != "residual" and isinstance(value, float) and not math.isfinite(value):
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
    doc = _load_yaml(text)
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
    or a tolerance. So is 'output' in the base or the sweep: --format and
    --out place the one table. So is a key that is not a string.
    """
    for key in sweep:
        if not isinstance(key, str):
            raise ConfigError(f"sweep key {key!r} is not a dotted key path string")
    if "output" in base or any(k.split(".")[0] == "output" for k in sweep):
        raise ConfigError("'output' is not read in a sweep config; use --format and --out")
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
                     "tolerance": tolerance})

    # tensor product associativity
    a, b, c = (random_hermitian(d, rng) for d in (2, 3, 2))
    check("tensor_associativity",
          np.max(np.abs(tensor_product(tensor_product(a, b), c)
                        - tensor_product(a, tensor_product(b, c)))), 1e-12)

    # Hermitian exponential unitarity and inverse
    h = random_hermitian(16, rng)
    g = float(rng.uniform(-10, 10))
    u = hermitian_exponential(h, -1j * g)
    check("hermitian_exponential_unitary", linalg.unitarity_defect(u), 1e-10)
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
    alpha, beta = random_state(2, rng)
    meter = QubitMeter(alpha=alpha, beta=beta)
    A = random_hermitian(2, rng)
    qsel = PrePostSelection(*random_selection(2, rng))
    gq = float(rng.uniform(0, 2 * np.pi))
    qjoint = meter.coupling_unitary(A, gq)
    qpv = potent_values(qjoint, meter.state, np.eye(2, dtype=complex), qsel)
    mval = modular_value(A, gq, qsel)
    check("qubit_meter_potent_values",
          np.max(np.abs(qpv.values - np.array([alpha, beta * mval]))), 1e-12)
    qop = potent_operator(qjoint, qsel)
    check("qubit_meter_potent_operator",
          np.max(np.abs(qop.matrix - np.diag([1.0, mval]))), 1e-12)

    # Conditional-unitary reductions
    projs = random_projector_decomposition(3, 2, rng)
    unis = [random_unitary(2, rng) for _ in projs]
    csel = PrePostSelection(*random_selection(3, rng))
    residual, weak_sum = _system_controlled_residuals(projs, unis, csel)
    check("system_controlled_reduction", residual, 1e-12)
    check("projector_weak_values_sum", weak_sum, 1e-12)
    aprojs = random_projector_decomposition(2, 2, rng)
    gens = [random_hermitian(3, rng) for _ in aprojs]
    lam = float(rng.uniform(0.1, 2.0))
    check("apparatus_controlled_reduction",
          _apparatus_controlled_residuals(aprojs, gens, lam, csel)[0], 1e-12)

    # Scale invariance of the selection ratio
    lam_scale = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    mu_scale = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    scaled = PrePostSelection(lam_scale * psi, mu_scale * phi)
    check("potent_operator_scale_invariance",
          np.max(np.abs(potent_operator(joint, scaled).matrix - op.matrix)), 1e-12)
    A_scale = random_hermitian(ds, rng)
    check("weak_value_scale_invariance",
          abs(weak_value(A_scale, scaled) - weak_value(A_scale, sel)), 1e-12)

    # Gaussian pointer: translation by a momentum phase; FFT index of lattice waves
    pointer = build_gaussian_pointer(128, -8.0, 8.0, 1.0, 0.0)
    grid = pointer.grid
    shift = 0.6
    translated = np.fft.ifft(np.exp(-1j * shift * grid.momentum_lattice)
                             * np.fft.fft(pointer.unit_amplitudes))
    mean_x, _, _ = pointer_statistics(translated, grid)
    check("pointer_translation", abs(mean_x - shift), 1e-6)
    ms = [0, 1, grid.grid_size // 2 - 1, grid.grid_size // 2, grid.grid_size - 1]
    spectra = np.fft.fft(np.exp(1j * np.outer(grid.momentum_lattice[ms], grid.x - grid.x_min)))
    spectra[range(len(ms)), ms] -= grid.grid_size
    check("momentum_lattice", np.max(np.abs(spectra)) / grid.grid_size, 1e-8)

    # Time machine: the rows equal the register potent operator over Pade branches
    spec = TimeTranslationSpec(durations=(1.0, 2.0),
                               coefficients=SuperpositionSpec(np.array([2.0, -1.0])),
                               hamiltonian=random_hermitian(4, rng))
    check("time_machine_potent_route", _time_machine_residual(spec, random_state(4, rng))[1],
          1e-12)

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
