"""Checker self-test: the checks must catch a wrong output.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs one pass of every workload, requires each output to pass its check,
then corrupts it in every way that applies and requires each corruption to
be reported as a check failure:

- every numeric field of the first row perturbed by 1e-6;
- the last row dropped;
- a command's exit code flipped from 0 to 2;
- a refusal replaced by a different refusal, by the same refusal with
  another norm or exception type, or raised by an operation the reference
  says is within the cap.

Also checks that BENCHMARK.json names exactly the metrics run.py prints.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import json
import os
import shutil
import sys
import types

import run
import tracing
import workloads

# Fields a 1e-6 perturbation may leave within tolerance, and why.
EXEMPT = {
    # The fit's maximiser is located only to about sqrt(machine epsilon); its
    # fidelity, and the maximiser property, are what the check holds it to.
    "a_star",
}
OTHER_REFUSAL = "joint dimension 8192 exceeds cap 4096"


def _number(cell: str):
    for convert in (int, float):
        try:
            return convert(cell)
        except ValueError:
            pass
    return cell


def _render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in header])
    return buf.getvalue()


def row_corruptions(rows, render):
    if rows:
        yield "last row dropped", render(rows[:-1])
        for key, value in rows[0].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool) and key not in EXEMPT:
                bad = copy.deepcopy(rows)
                bad[0][key] = value + 1e-6
                yield f"{key} + 1e-6", render(bad)


def corruptions(out):
    if isinstance(out, list):
        yield from row_corruptions(out, lambda rows: rows)
        return
    yield "exit code 2", dataclasses.replace(out, returncode=2)
    if out.file_text is not None:
        yield from row_corruptions(json.loads(out.file_text), lambda rows: dataclasses.replace(
            out, file_text=json.dumps(rows)))
    elif out.stdout.startswith("ok "):
        lines = out.stdout.splitlines()
        yield "last check dropped", dataclasses.replace(
            out, stdout="\n".join(lines[:-2] + lines[-1:]) + "\n")
        status, name, residual, tol = lines[0].split()
        for label, line in (
                ("residual + 1e-6", f"{status}  {name} residual={float(residual[9:]) + 1e-6!r} {tol}"),
                ("tolerance + 1e-6", f"{status}  {name} {residual} tol={float(tol[4:]) + 1e-6!r}")):
            yield label, dataclasses.replace(out, stdout="\n".join([line, *lines[1:]]) + "\n")
    else:
        table = list(csv.reader(io.StringIO(out.stdout)))
        header = table[0]
        rows = [{c: _number(v) for c, v in zip(header, line)} for line in table[1:]]
        yield from row_corruptions(rows, lambda bad: dataclasses.replace(
            out, stdout=_render_csv(header, bad)))


def refusal_corruptions(exc: ValueError):
    message = str(exc)
    norm = float(message.split()[4].rstrip(","))
    yield "different refusal", ValueError(OTHER_REFUSAL)
    yield "refusal with another norm", ValueError(message.replace(
        message.split()[4], f"{norm * 1.01:.3e},"))
    yield "refusal as another exception type", RuntimeError(message)


def caught(fn, value) -> bool:
    try:
        fn(value)
    except Exception:  # any raised check counts as reported
        return True
    return False


def main() -> int:
    sys.path.insert(0, run.SRC)
    import potentops.pps
    import potentops.scenarios
    import potentops.timemachine

    lib = types.SimpleNamespace(scenarios=potentops.scenarios, pps=potentops.pps,
                                timemachine=potentops.timemachine)
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    total = missed = 0
    try:
        runner = workloads.CliRunner(run.ROOT, workdir, run.child_env())
        all_ops = {
            "cli-cold": workloads.cli_cold_ops(workloads.cli_cold_inputs(0), runner),
            "pointer-ladder": workloads.pointer_ladder_ops(workloads.pointer_ladder_inputs(0), lib),
            "library-batch": workloads.library_batch_ops(workloads.library_batch_inputs(0), lib),
        }
        for workload, ops in all_ops.items():
            refusal = None
            outputs = []
            for op in ops:
                try:
                    outputs.append((op, op.run(), None))
                except Exception as exc:  # judged by the op's refusal check below
                    outputs.append((op, None, exc))
            for op, out, err in outputs:
                if err is not None:
                    op.refused(err)
                    refusal = err
                    cases = [(label, op.refused, bad) for label, bad in refusal_corruptions(err)]
                else:
                    op.check(out)
                    cases = [(label, op.check, bad) for label, bad in corruptions(out)]
                for label, fn, bad in cases:
                    total += 1
                    if not caught(fn, bad):
                        missed += 1
                        print(f"NOT CAUGHT {workload} / {op.name}: {label}")
            if refusal is not None:
                for op, out, err in outputs:
                    if err is None:
                        total += 1
                        if not caught(op.refused, refusal):
                            missed += 1
                            print(f"NOT CAUGHT {workload} / {op.name}: refusal within the cap")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    total += 1
    if not _benchmark_json_consistent():
        missed += 1
    print(f"selftest: {total - missed}/{total} corruptions caught")
    return 1 if missed else 0


def _benchmark_json_consistent() -> bool:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for key, expected in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(expected):
            print(f"BENCHMARK.json {key} lists {listed}, run.py prints {list(expected)}")
            ok = False
    return ok


if __name__ == "__main__":
    sys.exit(main())
