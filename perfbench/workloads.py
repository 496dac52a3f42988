"""The benchmark's workloads: inputs generated from the seed, and the fixed
list of operations one pass runs.

The program sees only the generated configs and arrays; the seed is a
benchmark argument. Every operation pairs a call into the program with a
check against reference.py (or an identity), and, for pointer-ladder, with
the accounting of the named fault.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import yaml

import checks
import reference

WORKLOADS = ("cli-cold", "pointer-ladder", "library-batch")

# The console script's body: `potentops` installed as an entry point runs this.
CONSOLE = "import sys; from potentops.cli import main; sys.exit(main())"

INV_SQRT2 = float(1 / np.sqrt(2))
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
PRESET_PSI = np.array([np.sqrt(3) / 2, 0.5], dtype=complex)
PRESET_PHI = np.array([np.sqrt(3) / 2, -0.5], dtype=complex)
PRESET_SELECTION = {"observable": "sigma_z", "psi": "amplification_psi",
                    "phi": "amplification_phi"}
BALANCED_METER = {"kind": "qubit", "alpha": INV_SQRT2, "beta": INV_SQRT2}
PRESET_COUPLINGS = [0.2, 0.1, 0.05, 0.025]
VALUE_KINDS = ("weak-value", "modular-value", "potent-values", "potent-operator")


def unexpected(exc: BaseException) -> None:
    raise checks.CheckFailure(f"raised {type(exc).__name__}: {exc}")


@dataclass
class Op:
    """One operation: ``run`` calls the program and returns its output,
    ``check`` raises CheckFailure on a wrong output, and ``refused`` decides
    whether an exception is the named fault (returns) or an error (raises)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    refused: Callable[[BaseException], None] = unexpected


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def preset_reference(alpha: float, beta: float):
    """Closed forms for sigma_z and the preset pair: A_w = 2,
    A_M(g) = cos g - 2i sin g (Kedem-Vaidman)."""
    def at(g: float) -> dict:
        a_m = reference.amplification_modular(g)
        return {"weak": 2.0, "modular": a_m, "potent_values": [alpha, beta * a_m],
                "potent_operator": np.diag([1.0, a_m]),
                "prob_exact": reference.amplification_prob(g, alpha, beta)}
    return at


# ---------------------------------------------------------------------------
# cli-cold


def cli_cold_inputs(seed: int) -> dict:
    rng = rng_for("cli-cold", seed)
    cfg_seed = int(rng.integers(0, 2 ** 31))
    meter_06 = {"kind": "qubit", "alpha": 0.6, "beta": 0.8}
    docs = {
        "weak-value": {**PRESET_SELECTION, "g": [0.2, 0.1, 0.05], "meter": BALANCED_METER},
        "modular-value": {**PRESET_SELECTION, "g": [0.5, float(np.pi / 2)],
                          "meter": BALANCED_METER},
        "potent-values": {**PRESET_SELECTION, "g": [1.0], "meter": meter_06},
        "potent-operator": {**PRESET_SELECTION, "g": [1.0], "meter": BALANCED_METER},
        "completeness": {"dims": [[ds, da] for ds in (2, 3, 4) for da in (2, 3, 4)],
                         "count": 50},
        "conditional": {"count": 50, "variants": ["system", "apparatus"]},
        "time-machine": {"coefficients": [2, -1], "durations": [1, 2],
                         "hamiltonian": "sigma_z", "meter_state": "zero"},
    }
    docs = {kind: {"scenario": kind, "seed": cfg_seed, **doc} for kind, doc in docs.items()}
    sweep = {
        "base": {"scenario": "modular-value", "seed": cfg_seed, **PRESET_SELECTION,
                 "g": [0.5], "meter": BALANCED_METER},
        "sweep": {"g": sorted(float(g) for g in rng.uniform(0.05, 2.0, 3)),
                  "meter": [meter_06, {"kind": "qubit", "alpha": 0.8, "beta": 0.6}]},
    }
    return {"docs": docs, "sweep": sweep, "verify_seed": cfg_seed}


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    file_text: str | None = None


class CliRunner:
    """Runs `potentops ...` as a fresh process, plain or through the tracing
    shim, which then leaves its per-layer totals in ``trace_files``."""

    def __init__(self, root: str, workdir: str, env: dict):
        self.root, self.workdir, self.env = root, workdir, env
        self.shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
        self.traced = False
        self.trace_files = []

    def __call__(self, argv, out_file: str | None = None) -> CliResult:
        if out_file and os.path.exists(out_file):
            os.remove(out_file)
        if self.traced:
            trace_file = os.path.join(self.workdir, f"trace-{len(self.trace_files)}.json")
            self.trace_files.append(trace_file)
            cmd = [sys.executable, self.shim, trace_file, *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE, *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=150)
        file_text = None
        if out_file and os.path.exists(out_file):
            with open(out_file, encoding="utf-8") as fh:
                file_text = fh.read()
        return CliResult(proc.returncode, proc.stdout, proc.stderr, file_text)


def _cli_rows(result: CliResult, kind: str) -> list[dict]:
    checks.exit_ok(result)
    return checks.parse_csv(result.stdout, checks.COLUMNS[kind])


def cli_cold_ops(inputs: dict, runner: CliRunner) -> list[Op]:
    ops = []
    for kind, doc in inputs["docs"].items():
        path = os.path.join(runner.workdir, f"{kind}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        if kind in VALUE_KINDS:
            meter = doc["meter"]
            ref = preset_reference(meter["alpha"], meter["beta"])
            check = functools.partial(
                lambda res, kind, gs, ref: checks.qubit_rows(kind, _cli_rows(res, kind), gs, ref),
                kind=kind, gs=doc["g"], ref=ref)
        elif kind == "completeness":
            check = functools.partial(
                lambda res, dims, count: checks.completeness_rows(
                    _cli_rows(res, "completeness"), dims, count),
                dims=[tuple(d) for d in doc["dims"]], count=doc["count"])
        elif kind == "conditional":
            check = functools.partial(
                lambda res, count, variants: checks.conditional_rows(
                    _cli_rows(res, "conditional"), count, variants),
                count=doc["count"], variants=doc["variants"])
        else:
            tm = {"t_prime": 0.0, "fidelity": 1.0, "success_norm": float(np.sqrt(5 - 4 * np.cos(1)))}
            check = functools.partial(
                lambda res, tm: checks.time_machine_rows(_cli_rows(res, "time-machine"), tm), tm=tm)
        ops.append(Op(kind, functools.partial(runner, [kind, "--config", path]), check))

    seed = str(inputs["verify_seed"])
    ops.append(Op("verify", functools.partial(runner, ["verify", "--seed", seed]),
                  lambda res: (checks.exit_ok(res), checks.verify_rows(checks.parse_verify(res.stdout)))))

    sweep_path = os.path.join(runner.workdir, "sweep.yaml")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(inputs["sweep"], fh)
    out_path = os.path.join(runner.workdir, "sweep.json")
    ops.append(Op("sweep", functools.partial(
        runner, ["sweep", "--config", sweep_path, "--format", "json", "--out", out_path], out_path),
        functools.partial(_check_sweep, sweep=inputs["sweep"]["sweep"])))
    return ops


def _check_sweep(result: CliResult, sweep: dict) -> None:
    checks.exit_ok(result)
    checks.expect(result.file_text is not None, "sweep wrote no output file")
    columns = ("point", *checks.COLUMNS["modular-value"])
    rows = checks.parse_json_rows(result.file_text, columns)
    gs, meters = sweep["g"], sweep["meter"]
    checks.row_count(rows, len(gs) * len(meters), "sweep")
    for point, row in enumerate(rows):
        checks.expect(row["point"] == point, f"sweep row {point}: point {row['point']}")
        g, meter = gs[point // len(meters)], meters[point % len(meters)]
        checks.qubit_rows("modular-value", [row], [g], preset_reference(meter["alpha"], meter["beta"]))


# ---------------------------------------------------------------------------
# pointer-ladder


def pointer_ladder_inputs(seed: int) -> list[dict]:
    """Grid 128, 256 and 512 at the preset couplings, grid 128 at g = 0.5 and
    grid 256 at g = 0.3, 0.4 and 0.5, on a seeded packet; then grid 256 at
    g = 1 and 2 on the preset packet, which the EXP_NORM_CAP guard refuses
    whatever the seed.

    The median latency of the seven completed operations falls among the
    three single-coupling grid-256 operations of equal cost, so it rests on
    three samples per pass rather than one."""
    rng = rng_for("pointer-ladder", seed)
    cases = [(128, PRESET_COUPLINGS), (256, PRESET_COUPLINGS), (512, PRESET_COUPLINGS),
             (128, [0.5]), (256, [0.3]), (256, [0.4]), (256, [0.5])]
    docs = []
    for grid_size, gs in cases:
        docs.append(_pointer_doc(grid_size, gs, sigma=float(rng.uniform(0.9, 1.1)),
                                 x0=float(rng.uniform(-0.5, 0.5))))
    for g in (1.0, 2.0):
        docs.append(_pointer_doc(256, [g], sigma=1.0, x0=0.0))
    return docs


def _pointer_doc(grid_size: int, gs, sigma: float, x0: float) -> dict:
    return {"scenario": "pointer-shift", **PRESET_SELECTION, "g": list(gs),
            "meter": {"kind": "gaussian", "grid_size": grid_size, "x_min": -12.0,
                      "x_max": 12.0, "sigma": sigma, "x0": x0}}


def pointer_ladder_ops(docs: list[dict], lib) -> list[Op]:
    ops = []
    for doc in docs:
        m = doc["meter"]
        grid = reference.PointerGrid(m["grid_size"], m["x_min"], m["x_max"])
        reference_at = functools.lru_cache(maxsize=None)(functools.partial(
            reference.pointer_shift, SIGMA_Z, PRESET_PSI, PRESET_PHI, grid=grid,
            sigma=m["sigma"], x0=m["x0"]))
        over_cap = [n for n in (reference.weak_limit_exponent_norm(
            SIGMA_Z, PRESET_PSI, PRESET_PHI, g, grid) for g in doc["g"])
            if n > reference.EXP_NORM_CAP]
        ops.append(Op(
            f"pointer-shift grid={m['grid_size']} g={doc['g']}",
            functools.partial(_run_config, lib, doc),
            functools.partial(checks.pointer_rows, gs=doc["g"], reference=reference_at),
            functools.partial(checks.pointer_refusal,
                              expected_norm=over_cap[0] if over_cap else None)))
    return ops


def _run_config(lib, doc: dict) -> list[dict]:
    return lib.scenarios.run_scenario(lib.scenarios.parse_config_mapping(doc))


# ---------------------------------------------------------------------------
# library-batch


def _hermitian(rng, n: int, scale: float = 0.5) -> np.ndarray:
    m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * scale
    return (m + m.conj().T) / 2


def _state(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _selection(rng, n: int, min_overlap: float = 0.3):
    while True:
        psi, phi = _state(rng, n), _state(rng, n)
        if abs(np.vdot(phi, psi)) >= min_overlap:
            return psi, phi


def _coefficients(rng, n: int) -> list[float]:
    head = [float(c) for c in rng.uniform(-1.0, 1.5, n - 1)]
    return head + [1.0 - sum(head)]


def _literal_state(v) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _literal_matrix(m) -> list:
    return [_literal_state(row) for row in m]


def library_batch_inputs(seed: int) -> dict:
    """A fixed mix of operation types and sizes; the seed draws the values."""
    rng = rng_for("library-batch", seed)
    value = []
    for i in range(6):
        for kind in VALUE_KINDS:
            dim = 2 + i % 3
            psi, phi = _selection(rng, dim)
            while True:
                meter = _state(rng, 2)
                if abs(meter[1]) >= 0.3 and abs(meter[0]) >= 0.1:
                    break
            value.append({
                "scenario": kind, "seed": int(rng.integers(0, 2 ** 31)),
                "observable": _literal_matrix(_hermitian(rng, dim)),
                "psi": _literal_state(psi), "phi": _literal_state(phi),
                "g": {"start": float(rng.uniform(0.05, 0.5)), "stop": float(rng.uniform(0.6, 2.0)),
                      "num": 2 + i % 3},
                "meter": {"kind": "qubit", "alpha": [float(meter[0].real), float(meter[0].imag)],
                          "beta": [float(meter[1].real), float(meter[1].imag)]},
            })
    completeness = [{"scenario": "completeness", "seed": int(rng.integers(0, 2 ** 31)),
                     "dims": dims, "count": 4} for dims in ([[2, 3], [4, 2]], [[3, 4], [2, 2]])]
    conditional = [{"scenario": "conditional", "seed": int(rng.integers(0, 2 ** 31)),
                    "count": 3, "variants": ["system", "apparatus"]} for _ in range(2)]
    time_machine = []
    for dim in range(2, 9):
        n = 2 + dim % 3
        time_machine.append({
            "scenario": "time-machine", "coefficients": _coefficients(rng, n),
            "durations": [float(t) for t in rng.uniform(0.0, 2.0, n)],
            "hamiltonian": _literal_matrix(_hermitian(rng, dim)),
            "meter_state": _literal_state(_state(rng, dim)),
        })
    fits = [{"H0": _hermitian(rng, dim), "H1": _hermitian(rng, dim),
             "parameters": [float(a) for a in rng.uniform(-1.0, 1.0, 3)],
             "coefficients": _coefficients(rng, 3), "duration": float(rng.uniform(0.5, 1.5)),
             "meter_state": _state(rng, dim), "interval": (-2.0, 2.0)} for dim in (2, 3, 4)]
    controlled = []
    for i in range(4):
        ds, da = 2 + i % 3, 2 + (i + 1) % 3
        frame = _unitary(rng, ds)
        cuts = sorted(rng.choice(np.arange(1, ds), size=int(rng.integers(1, ds)), replace=False))
        bounds = [0, *cuts, ds]
        projectors = [frame[:, lo:hi] @ frame[:, lo:hi].conj().T
                      for lo, hi in zip(bounds[:-1], bounds[1:])]
        controlled.append({"projectors": projectors,
                           "unitaries": [_unitary(rng, da) for _ in projectors],
                           "selection": _selection(rng, ds)})
    completeness_calls = [{"U": _unitary(rng, ds * da), "phi": _state(rng, ds), "ds": ds}
                          for ds, da in ((2, 2), (2, 4), (3, 3), (4, 2))]
    return {"value": value, "completeness": completeness, "conditional": conditional,
            "time_machine": time_machine, "verify_seed": int(rng.integers(0, 2 ** 31)),
            "fits": fits, "controlled": controlled, "completeness_calls": completeness_calls}


def _complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _matrix(literal) -> np.ndarray:
    return np.array([[_complex(z) for z in row] for row in literal])


def library_batch_ops(inputs: dict, lib) -> list[Op]:
    ops = []
    for doc in inputs["value"]:
        A, psi, phi = _matrix(doc["observable"]), _matrix([doc["psi"]])[0], _matrix([doc["phi"]])[0]
        alpha, beta = _complex(doc["meter"]["alpha"]), _complex(doc["meter"]["beta"])
        g = doc["g"]
        gs = [float(v) for v in np.linspace(g["start"], g["stop"], g["num"])]
        reference_at = functools.lru_cache(maxsize=None)(functools.partial(
            reference.qubit_meter, A, psi=psi, phi=phi, alpha=alpha, beta=beta))
        ops.append(Op(f"{doc['scenario']} dim={A.shape[0]}", functools.partial(_run_config, lib, doc),
                      functools.partial(lambda rows, kind, gs, ref: checks.qubit_rows(kind, rows, gs, ref),
                                        kind=doc["scenario"], gs=gs, ref=reference_at)))
    for doc in inputs["completeness"]:
        ops.append(Op("completeness", functools.partial(_run_config, lib, doc),
                      functools.partial(checks.completeness_rows,
                                        dims=[tuple(d) for d in doc["dims"]], count=doc["count"])))
    for doc in inputs["conditional"]:
        ops.append(Op("conditional", functools.partial(_run_config, lib, doc),
                      functools.partial(checks.conditional_rows, count=doc["count"],
                                        variants=doc["variants"])))
    for doc in inputs["time_machine"]:
        tm = functools.lru_cache(maxsize=None)(functools.partial(
            reference.time_machine, [_complex(c) for c in doc["coefficients"]], doc["durations"],
            _matrix(doc["hamiltonian"]), _matrix([doc["meter_state"]])[0]))
        ops.append(Op(f"time-machine dim={len(doc['meter_state'])}",
                      functools.partial(_run_config, lib, doc),
                      functools.partial(lambda rows, tm: checks.time_machine_rows(rows, tm()), tm=tm)))
    ops.append(Op("verification_suite",
                  functools.partial(lambda seed: lib.scenarios.verification_suite(seed=seed),
                                    inputs["verify_seed"]),
                  checks.verify_rows))
    for fit in inputs["fits"]:
        ops.append(_fit_op(fit, lib))
    for item in inputs["controlled"]:
        ops.append(Op(f"system-controlled {item['projectors'][0].shape[0]}x{item['unitaries'][0].shape[0]}",
                      functools.partial(_run_controlled, lib, item),
                      functools.partial(checks.system_controlled_rows, projectors=item["projectors"],
                                        unitaries=item["unitaries"], psi=item["selection"][0],
                                        phi=item["selection"][1])))
    for item in inputs["completeness_calls"]:
        residual = reference.completeness_residual(item["U"], item["phi"])
        ops.append(Op(f"completeness residual dim={item['U'].shape[0]}",
                      functools.partial(_run_completeness_call, lib, item),
                      functools.partial(checks.completeness_call_rows, reference_residual=residual)))
    return ops


def _run_controlled(lib, item: dict) -> list[dict]:
    sel = lib.pps.PrePostSelection(*item["selection"])
    op, weak = lib.pps.potent_operator_system_controlled(item["projectors"], item["unitaries"], sel)
    rows = [{"value_re": float(w.real), "value_im": float(w.imag)} for w in weak]
    return rows + [{"value_re": float(z.real), "value_im": float(z.imag)} for z in op.matrix.ravel()]


def _run_completeness_call(lib, item: dict) -> list[dict]:
    residual = lib.pps.potent_completeness_residual(
        item["U"], item["phi"], np.eye(item["ds"], dtype=complex))
    return [{"residual": float(residual)}]


def _fit_op(fit: dict, lib) -> Op:
    H0, H1 = fit["H0"], fit["H1"]
    fidelity_at = functools.partial(reference.fit_fidelity, H0, H1, fit["coefficients"],
                                    fit["parameters"], fit["duration"], fit["meter_state"])

    @functools.lru_cache(maxsize=None)
    def scan_best() -> float:
        return max(_eigh_fit_fidelity(fit, a) for a in np.linspace(*fit["interval"], 201))

    def run() -> list[dict]:
        family = lib.timemachine.EvolutionFamily(
            tuple(fit["parameters"]), lambda a: H0 + a * H1, fit["duration"])
        spec = lib.timemachine.SuperpositionSpec(np.array(fit["coefficients"]))
        a_star, fid = lib.timemachine.effective_parameter_fit(
            family, spec, fit["meter_state"], fit["interval"])
        return [{"a_star": float(a_star), "fidelity": float(fid)}]

    return Op(f"effective_parameter_fit dim={H0.shape[0]}", run,
              lambda rows: checks.fit_rows(rows, fit["interval"], fidelity_at, scan_best()))


def _eigh_fit_fidelity(fit: dict, a: float) -> float:
    """The fit objective through the benchmark's own eigendecompositions."""
    def evolve(p: float) -> np.ndarray:
        w, v = np.linalg.eigh(fit["H0"] + p * fit["H1"])
        return v @ (np.exp(-1j * fit["duration"] * w) * (v.conj().T @ fit["meter_state"]))
    state = sum(c * evolve(p) for c, p in zip(fit["coefficients"], fit["parameters"]))
    return float(abs(np.vdot(evolve(a), state / np.linalg.norm(state))))


INPUTS = {"cli-cold": cli_cold_inputs, "pointer-ladder": pointer_ladder_inputs,
          "library-batch": library_batch_inputs}
