"""Traced runs: spans around the public functions of each potentops module,
recorded from outside the package.

``from .linalg import hermitian_exponential`` binds the function again in
pps, meters, scenarios and timemachine, so patching ``potentops.linalg``
alone would miss most calls. Tracer.install replaces every binding of a
traced function in every loaded potentops module. Spans are kept in memory;
a span's self time is its duration minus the time covered by the traced
calls it makes. Totals are taken per pass; the spans of the first traced
pass are written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

# module -> {public function: bucket}. Functions of one bucket share a metric.
BUCKETS = {
    "potentops.cli": {"main": "cli.main"},
    "potentops.scenarios": {
        "parse_config": "scenarios.parse",
        "parse_config_mapping": "scenarios.parse",
        "parse_sweep_document": "scenarios.parse",
        "run_scenario": "scenarios.run",
        "run_sweep": "scenarios.run",
        "verification_suite": "scenarios.verify",
        "emit_results": "scenarios.emit",
        "format_rows": "scenarios.emit",
    },
    "potentops.pps": {
        "joint_evolve_and_postselect": "pps.joint_evolve",
        "potent_values": "pps.potent_values",
        "kraus_slices": "pps.potent_values",
        "apparatus_state_from_potent_values": "pps.potent_values",
        "weak_limit_potent_values": "pps.potent_values",
        "potent_operator": "pps.potent_operator",
        "potent_completeness_residual": "pps.completeness_residual",
        "modular_value": "pps.modular_value",
        "weak_value": "pps.weak_value",
        "potent_operator_system_controlled": "pps.controlled",
        "potent_operator_apparatus_controlled": "pps.controlled",
        "system_controlled_unitary": "pps.controlled",
        "apparatus_controlled_unitary": "pps.controlled",
    },
    "potentops.linalg": {
        "hermitian_exponential": "linalg.hermitian_exponential",
        "hermitian_exponentials": "linalg.hermitian_exponentials",
        "general_exponential": "linalg.general_exponential",
        "tensor_product": "linalg.tensor_product",
        "partial_matrix_element": "linalg.partial_matrix_element",
    },
    "potentops.meters": {
        "pointer_shift_sweep": "meters.pointer_shift_sweep",
        "momentum_operator": "meters.momentum_operator",
        "pointer_statistics": "meters.pointer_statistics",
        "momentum_moments": "meters.pointer_statistics",
        "build_gaussian_pointer": "meters.build_gaussian_pointer",
    },
    "potentops.timemachine": {
        "time_translation_machine": "timemachine.time_translation_machine",
        "time_machine_control_unitary": "timemachine.control_unitary",
        "control_register_unitary": "timemachine.control_unitary",
        "effective_parameter_fit": "timemachine.effective_parameter_fit",
    },
    "potentops.sampling": {
        "complex_gaussian": "sampling.total",
        "random_state": "sampling.total",
        "random_hermitian": "sampling.total",
        "random_unitary": "sampling.total",
        "random_selection": "sampling.total",
        "random_projector_decomposition": "sampling.total",
    },
}
# Buckets whose call counts are reported as well as their self time.
COUNTED = (
    "pps.joint_evolve", "pps.potent_values", "pps.potent_operator",
    "pps.completeness_residual", "pps.modular_value", "pps.weak_value", "pps.controlled",
    "linalg.hermitian_exponential", "linalg.hermitian_exponentials",
    "linalg.general_exponential", "linalg.tensor_product", "linalg.partial_matrix_element",
)
# Exponential routines -> how many matrices one call returns. The matrix they
# exponentiate is the first argument.
EXPONENTIALS = {
    "linalg.hermitian_exponential": lambda args, kwargs: 1,
    "linalg.general_exponential": lambda args, kwargs: 1,
    "linalg.hermitian_exponentials": lambda args, kwargs: len(
        args[1] if len(args) > 1 else kwargs["scales"]),
}
IMPORT_ROOTS = ("numpy", "scipy", "yaml", "potentops")
SPAN_LIMIT = 200_000

BUCKET_NAMES = tuple(dict.fromkeys(b for funcs in BUCKETS.values() for b in funcs.values()))
PER_LAYER = (
    [(f"import.{name}_s", "s") for name in ("total", *IMPORT_ROOTS)]
    + [(f"{b}_s", "s") for b in BUCKET_NAMES]
    + [(f"{b}.calls", "count") for b in COUNTED]
    + [("linalg.exp_dim3", "count"), ("linalg.exp_max_dim", "count"),
       ("linalg.exp_out_mib", "MiB"), ("trace.slowdown", "ratio")]
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.exp = {"dim3": 0, "max_dim": 0, "out_bytes": 0}
        self.child_time = []      # one accumulator per open span
        self.open_spans = []      # indices of open spans
        self.spans = []
        self.keep_spans = False
        self.missing = []

    def install(self) -> None:
        """Wrap every traced function at each of its binding sites."""
        wrappers = {}
        for module_name, funcs in BUCKETS.items():
            module = sys.modules.get(module_name)
            for name, bucket in funcs.items():
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{module_name}.{name}", bucket))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "potentops"
                                      or module_name.startswith("potentops.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def _wrap(self, fn, qualname: str, bucket: str):
        count_outputs = EXPONENTIALS.get(bucket)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.open_spans[-1] if self.open_spans else -1
            index = len(self.spans)
            if self.keep_spans and index < SPAN_LIMIT:
                self.spans.append(None)
            else:
                index = -1
            self.open_spans.append(index)
            self.child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.open_spans.pop()
                covered = self.child_time.pop()
                duration = end - start
                self.self_s[bucket] += duration - covered
                self.calls[bucket] += 1
                if self.child_time:
                    self.child_time[-1] += duration
                if index >= 0:
                    self.spans[index] = (qualname, start, end, parent)
                if count_outputs is not None:
                    matrix = args[0] if args else next(iter(kwargs.values()))
                    n = int(np.shape(matrix)[0])
                    self.exp["dim3"] += n ** 3
                    self.exp["max_dim"] = max(self.exp["max_dim"], n)
                    self.exp["out_bytes"] += 16 * n * n * count_outputs(args, kwargs)

        return traced

    def take_totals(self) -> dict:
        """Per-layer totals since the last call, as metric name -> value."""
        totals = {f"{b}_s": self.self_s.get(b, 0.0) for b in BUCKET_NAMES}
        totals.update({f"{b}.calls": self.calls.get(b, 0) for b in COUNTED})
        totals["linalg.exp_dim3"] = self.exp["dim3"]
        totals["linalg.exp_max_dim"] = self.exp["max_dim"]
        totals["linalg.exp_out_mib"] = self.exp["out_bytes"] / 2 ** 20
        self.self_s.clear()
        self.calls.clear()
        self.exp = {"dim3": 0, "max_dim": 0, "out_bytes": 0}
        return totals

    def take_spans(self) -> list:
        spans, self.spans = [s for s in self.spans if s is not None], []
        return spans


def add_totals(into: dict, totals: dict) -> dict:
    for key, value in totals.items():
        into[key] = max(into.get(key, 0), value) if key == "linalg.exp_max_dim" \
            else into.get(key, 0) + value
    return into


def import_times(python: str, env: dict, cwd: str, runs: int) -> dict:
    """Self time of each imported top-level package, from ``-X importtime``,
    as the median over ``runs`` fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import potentops.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import of potentops.cli failed: {proc.stderr[-300:]}")
        per_root = defaultdict(int)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            per_root[name.strip().split(".")[0]] += int(self_us)
        samples["import.total_s"].append(sum(per_root.values()) / 1e6)
        for root in IMPORT_ROOTS:
            samples[f"import.{root}_s"].append(per_root.get(root, 0) / 1e6)
    return {key: statistics.median(values) for key, values in samples.items()}
