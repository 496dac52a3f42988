"""The benchmark's in-process workloads pass on this source: every op of one
pointer-ladder and one library-batch pass, built from perfbench/ the way its
run.py builds them, runs without raising and passes its own check. A change
under src/ that would end a benchmark run with a failed op or a failed check
fails here first. perfbench/ is imported from its directory, not edited."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import potentops.pps
import potentops.scenarios
import potentops.timemachine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is a directory of scripts, not a package)

LIBRARY = SimpleNamespace(scenarios=potentops.scenarios, pps=potentops.pps,
                          timemachine=potentops.timemachine)
BUILDERS = {"pointer-ladder": workloads.pointer_ladder_ops,
            "library-batch": workloads.library_batch_ops}


@pytest.mark.parametrize("workload", BUILDERS)
def test_one_pass_runs_and_checks(workload):
    ops = BUILDERS[workload](workloads.INPUTS[workload](1), LIBRARY)
    faults = []
    for op in ops:
        try:
            out = op.run()
        except Exception as exc:  # judged by the op's refused, as the benchmark judges it
            try:
                op.refused(exc)
                faults.append(f"{op.name}: failed with the named fault {exc}")
            except Exception as verdict:
                faults.append(f"{op.name}: {verdict}")
            continue
        try:
            op.check(out)
        except Exception as verdict:
            faults.append(f"{op.name}: {type(verdict).__name__}: {verdict}")
    assert len(ops) > 0 and faults == []
