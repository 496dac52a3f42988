"""Output checks: every program output is compared with a reference computed
apart from the program (reference.py) or with an identity the method must
satisfy. A wrong output raises CheckFailure; nothing is compared with a
stored copy of earlier output.

Tolerances (documented in README.md):

- VALUE_TOL: reference values (closed forms, expm routes, FFT pointers),
  |got - want| <= VALUE_TOL * max(1, |want|).
- POINTER_TOL: pointer moments and probabilities from the FFT branch sum.
- row residuals: at most the program's documented tolerance for the kind.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np

from reference import EXP_NORM_CAP

VALUE_TOL = 1e-10
POINTER_TOL = 1e-9
FIT_TOL = 1e-9
# Every tolerance the program documents is at most this.
MAX_DOCUMENTED_TOL = 1e-6
VERIFY_CHECKS = 19

# The program's documented residual tolerance per kind (README table).
TOLERANCES = {
    "weak-value": 1e-12,
    "modular-value": 1e-12,
    "potent-values": 1e-10,
    "potent-operator": 1e-10,
    "completeness": 1e-10,
    "pointer-shift": 1e-10,
    "conditional": 1e-12,
    "time-machine": 1e-12,
}
# aux_residual of a conditional row: |sum of projector weak values - 1| for
# system-controlled rows, Pade vs eigendecomposition for apparatus-controlled.
AUX_TOL = {"system": 1e-12, "apparatus": 1e-10}

# Documented output columns (README "Output columns").
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
}
INT_COLUMNS = {"k", "row", "col", "instance", "system_dim", "apparatus_dim", "point"}
STR_COLUMNS = {"scenario", "variant", "check"}

REFUSAL = re.compile(r"^1-norm of scale\*M is (\S+), above the cap 128\.0$")
VERIFY_LINE = re.compile(r"^(ok |FAIL) (\S+)\s+residual=(\S+) tol=(\S+)$")


class CheckFailure(AssertionError):
    """A program output disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close(what: str, got, want, tol: float) -> None:
    got, want = complex(got), complex(want)
    expect(abs(got - want) <= tol * max(1.0, abs(want)),
           f"{what}: got {got:.15g}, want {want:.15g} (tol {tol:g})")


def residual_ok(what: str, value, tol: float) -> None:
    expect(isinstance(value, float) and 0.0 <= value <= tol,
           f"{what}: residual {value!r} outside [0, {tol:g}]")


def row_count(rows, n: int, what: str) -> None:
    expect(len(rows) == n, f"{what}: {len(rows)} rows, want {n}")


# ---------------------------------------------------------------------------
# scenario rows


def qubit_rows(kind: str, rows, gs, reference) -> None:
    """Rows of the four value kinds; ``reference(g)`` gives the qubit-meter
    reference dict of reference.qubit_meter for coupling g."""
    per_g = {"weak-value": 1, "modular-value": 1, "potent-values": 2, "potent-operator": 4}[kind]
    row_count(rows, per_g * len(gs), kind)
    for i, g in enumerate(gs):
        ref = reference(g)
        for j, row in enumerate(rows[i * per_g:(i + 1) * per_g]):
            what = f"{kind} g={g} row {j}"
            expect(row["scenario"] == kind, f"{what}: scenario {row['scenario']!r}")
            close(f"{what} g", row["g"], g, 1e-15)
            if kind == "weak-value":
                want = ref["weak"]
            elif kind == "modular-value":
                want = ref["modular"]
            elif kind == "potent-values":
                expect(row["k"] == j, f"{what}: k={row['k']}")
                want = ref["potent_values"][j]
            else:
                expect((row["row"], row["col"]) == divmod(j, 2),
                       f"{what}: entry ({row['row']}, {row['col']})")
                want = ref["potent_operator"][divmod(j, 2)]
            close(f"{what} value", complex(row["value_re"], row["value_im"]), want, VALUE_TOL)
            close(f"{what} prob_exact", row["prob_exact"], ref["prob_exact"], VALUE_TOL)
            residual_ok(what, row["residual"], TOLERANCES[kind])


def completeness_rows(rows, dims, count: int) -> None:
    row_count(rows, len(dims) * count, "completeness")
    for i, row in enumerate(rows):
        what = f"completeness instance {i}"
        expect(row["scenario"] == "completeness", f"{what}: scenario {row['scenario']!r}")
        expect(row["instance"] == i, f"{what}: instance {row['instance']}")
        ds, da = dims[i // count]
        expect((row["system_dim"], row["apparatus_dim"]) == (ds, da),
               f"{what}: dims ({row['system_dim']}, {row['apparatus_dim']}), want ({ds}, {da})")
        residual_ok(what, row["residual"], TOLERANCES["completeness"])


def conditional_rows(rows, count: int, variants) -> None:
    row_count(rows, count * len(variants), "conditional")
    for i, row in enumerate(rows):
        variant = variants[i % len(variants)]
        what = f"conditional row {i}"
        expect(row["scenario"] == "conditional", f"{what}: scenario {row['scenario']!r}")
        expect(row["instance"] == i // len(variants), f"{what}: instance {row['instance']}")
        expect(row["variant"] == variant, f"{what}: variant {row['variant']!r}")
        residual_ok(what, row["residual"], TOLERANCES["conditional"])
        residual_ok(f"{what} aux", row["aux_residual"], AUX_TOL[variant])


def time_machine_rows(rows, ref) -> None:
    row_count(rows, 1, "time-machine")
    row = rows[0]
    expect(row["scenario"] == "time-machine", f"time-machine: scenario {row['scenario']!r}")
    for key in ("t_prime", "fidelity", "success_norm"):
        close(f"time-machine {key}", row[key], ref[key], VALUE_TOL)
    residual_ok("time-machine", row["residual"], TOLERANCES["time-machine"])


def pointer_rows(rows, gs, reference) -> None:
    """``reference(g)`` gives the FFT branch-sum dict of reference.pointer_shift."""
    row_count(rows, len(gs), "pointer-shift")
    for g, row in zip(gs, rows):
        what = f"pointer-shift g={g}"
        ref = reference(g)
        expect(row["scenario"] == "pointer-shift", f"{what}: scenario {row['scenario']!r}")
        close(f"{what} g", row["g"], g, 1e-15)
        close(f"{what} weak value", complex(row["weak_re"], row["weak_im"]), ref["weak"], VALUE_TOL)
        for key in ("prob_exact", "mean_shift", "predicted_shift", "shift_error",
                    "momentum_shift", "predicted_momentum_shift", "fidelity_gap"):
            close(f"{what} {key}", row[key], ref[key], POINTER_TOL)
        residual_ok(what, row["residual"], TOLERANCES["pointer-shift"])


def pointer_refusal(exc: BaseException, expected_norm: float | None) -> None:
    """Accept exactly the named fault: a ValueError with the EXP_NORM_CAP
    refusal, raised where the reference says the weak-limit exponent exceeds
    the cap, and reporting the norm the reference computes."""
    message = str(exc)
    match = REFUSAL.match(message)
    expect(isinstance(exc, ValueError) and match is not None,
           f"unexpected {type(exc).__name__}: {message}")
    expect(expected_norm is not None and expected_norm > EXP_NORM_CAP,
           f"refused although every weak-limit exponent is within the cap: {message}")
    close("refused 1-norm", float(match.group(1)), expected_norm, 2e-3)


def verify_rows(rows) -> None:
    row_count(rows, VERIFY_CHECKS, "verify")
    names = set()
    for row in rows:
        what = f"verify {row['check']}"
        names.add(row["check"])
        expect(0.0 < row["tolerance"] <= MAX_DOCUMENTED_TOL, f"{what}: tolerance {row['tolerance']!r}")
        residual_ok(what, row["residual"], row["tolerance"])
    expect(len(names) == VERIFY_CHECKS, "verify: repeated check names")


# ---------------------------------------------------------------------------
# library calls (outputs flattened to rows by the benchmark)


def system_controlled_rows(rows, projectors, unitaries, psi, phi) -> None:
    """Weak values of the control projectors (which must sum to 1) and the
    potent operator sum_n <Pi_n>_w U_n."""
    psi, phi = np.asarray(psi), np.asarray(phi)
    ov = np.vdot(phi, psi)
    weak = [np.vdot(phi, p @ psi) / ov for p in projectors]
    da = unitaries[0].shape[0]
    matrix = sum(w * u for w, u in zip(weak, unitaries))
    row_count(rows, len(weak) + da * da, "system-controlled")
    total = 0j
    for n, w in enumerate(weak):
        value = complex(rows[n]["value_re"], rows[n]["value_im"])
        total += value
        close(f"system-controlled weak value {n}", value, w, VALUE_TOL)
    close("system-controlled projector weak-value sum", total, 1.0, 1e-12)
    for j, row in enumerate(rows[len(weak):]):
        r, c = divmod(j, da)
        close(f"system-controlled entry ({r}, {c})", complex(row["value_re"], row["value_im"]),
              matrix[r, c], VALUE_TOL)


def completeness_call_rows(rows, reference_residual: float) -> None:
    row_count(rows, 1, "completeness residual")
    residual_ok("completeness residual", rows[0]["residual"], TOLERANCES["completeness"])
    expect(reference_residual <= TOLERANCES["completeness"],
           f"reference completeness residual {reference_residual:.3e}")


def fit_rows(rows, interval, fidelity_at, scan_best: float) -> None:
    """Maximiser property: the fitted parameter lies in the interval, its
    reported fidelity is the expm-route fidelity there, and no point of an
    independent scan beats it."""
    row_count(rows, 1, "effective-parameter fit")
    a_star, fid = rows[0]["a_star"], rows[0]["fidelity"]
    expect(interval[0] <= a_star <= interval[1], f"fit: a* = {a_star} outside {interval}")
    close("fit fidelity at a*", fid, fidelity_at(a_star), FIT_TOL)
    expect(fid <= 1.0 + 1e-12, f"fit: fidelity {fid} above 1")
    expect(fid >= scan_best - FIT_TOL, f"fit: fidelity {fid} below the scan maximum {scan_best}")


# ---------------------------------------------------------------------------
# command-line outputs


def _convert(column: str, cell: str):
    if column in STR_COLUMNS:
        return cell
    if column in INT_COLUMNS:
        return int(cell)
    return float(cell)


def parse_csv(text: str, columns) -> list[dict]:
    lines = list(csv.reader(io.StringIO(text)))
    expect(bool(lines) and tuple(lines[0]) == tuple(columns),
           f"CSV header {lines[0] if lines else None}, want {list(columns)}")
    return [{c: _convert(c, v) for c, v in zip(columns, line)} for line in lines[1:]]


def parse_json_rows(text: str, columns) -> list[dict]:
    rows = json.loads(text)
    expect(isinstance(rows, list), "JSON output is not an array")
    for row in rows:
        expect(isinstance(row, dict) and tuple(row) == tuple(columns),
               f"JSON row keys {list(row) if isinstance(row, dict) else row}, want {list(columns)}")
    return rows


def parse_verify(text: str) -> list[dict]:
    lines = text.splitlines()
    expect(bool(lines), "verify printed nothing")
    rows = []
    for line in lines[:-1]:
        match = VERIFY_LINE.match(line)
        expect(match is not None, f"verify: unparsable line {line!r}")
        rows.append({"check": match.group(2), "residual": float(match.group(3)),
                     "tolerance": float(match.group(4)), "status": match.group(1).strip()})
    for row in rows:
        expect(row["status"] == "ok", f"verify: {row['check']} reported FAIL")
    expect(lines[-1] == f"{len(rows)}/{len(rows)} checks passed",
           f"verify: summary {lines[-1]!r} for {len(rows)} checks")
    return rows


def exit_ok(result) -> None:
    expect(result.returncode == 0,
           f"exit code {result.returncode}: {result.stderr.strip()[-300:]}")
