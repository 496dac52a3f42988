"""A scenario's inputs are validated and built in one place, its kind's parse:
no runner in scenarios (a function named _run_*) constructs an input object or
builds a Gaussian pointer, so the refusals of those objects are raised by
parse_config_mapping, naming the key, before any array of the run is formed.

Conditional draws a fresh selection for each instance from its seed. That
PrePostSelection is a value the run computes, not an input of its config, and
is the one construction the check allows."""

import ast
import re
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "potentops" / "scenarios.py"
INPUT_BUILDERS = {"PrePostSelection", "GaussianPointer", "TimeTranslationSpec",
                  "SuperpositionSpec", "build_gaussian_pointer"}
DRAWN = {"_run_conditional PrePostSelection"}


def input_builds_in_runners(tree) -> list[str]:
    """'function:line name' for every input-object construction in a _run_* function."""
    found = []
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef) and function.name.startswith("_run_"):
            for call in (node for node in ast.walk(function) if isinstance(node, ast.Call)):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", "")
                if name in INPUT_BUILDERS:
                    found.append(f"{function.name}:{call.lineno} {name}")
    return sorted(found)


def test_no_runner_builds_an_input_object():
    found = input_builds_in_runners(ast.parse(SCENARIOS.read_text(encoding="utf-8")))
    assert [entry for entry in found if re.sub(r":\d+", "", entry) not in DRAWN] == []


def test_the_check_sees_each_builder():
    source = """
def _run_a(cfg):
    sel = PrePostSelection(cfg.params["psi"], cfg.params["phi"])
    return meters.build_gaussian_pointer(**cfg.params["meter"]), GaussianPointer(grid, 1, 0)


def _run_b(cfg):
    return timemachine.TimeTranslationSpec((1, 2), SuperpositionSpec([2, -1]), h)


def _parse_c(doc):
    return PrePostSelection(doc["psi"], doc["phi"])
"""
    assert input_builds_in_runners(ast.parse(source)) == [
        "_run_a:3 PrePostSelection", "_run_a:4 GaussianPointer",
        "_run_a:4 build_gaussian_pointer", "_run_b:8 SuperpositionSpec",
        "_run_b:8 TimeTranslationSpec"]
