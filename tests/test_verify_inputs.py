"""verify reaches a kind only as a config on the command line does: through
parse_config_mapping and run_scenario. verification_suite calls no runner (a
function named _run_*) and no other private function of scenarios, and reads
no kind's parse or run, so a defect in a kind's parse or in its runner's
residual shows in verify's row for that kind."""

import ast
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "potentops" / "scenarios.py"


def verify_shortcuts(tree) -> list[str]:
    """'line what' for every way verification_suite reaches a kind other than
    run_scenario(parse_config_mapping(...)); 'no run_scenario' if it runs none."""
    private = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    (suite,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "verification_suite"]
    found, runs = [], 0
    for node in ast.walk(suite):
        if isinstance(node, ast.Attribute) and node.attr in ("parse", "run"):
            found.append(f"{node.lineno} .{node.attr}")
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
        if name in private or name.startswith("_run_"):
            found.append(f"{node.lineno} {name}")
        if name == "run_scenario":
            runs += 1
            (arg,) = node.args
            if not (isinstance(arg, ast.Call)
                    and getattr(arg.func, "id", None) == "parse_config_mapping"):
                found.append(f"{node.lineno} run_scenario of no parse_config_mapping")
    return sorted(found) if runs else [*sorted(found), "no run_scenario"]


def test_verify_reaches_each_kind_through_parse_and_run_scenario():
    assert verify_shortcuts(ast.parse(SCENARIOS.read_text(encoding="utf-8"))) == []


def test_the_check_sees_each_shortcut():
    source = """
def _helper_residual(spec):
    return 0.0


def verification_suite(seed=0):
    rows = [_helper_residual(spec), _run_time_machine(cfg), scenarios._run_conditional(cfg)]
    cfg = KINDS["weak-value"].parse(doc)
    rows += KINDS["weak-value"].run(cfg) + run_scenario(cfg)
    return rows
"""
    assert verify_shortcuts(ast.parse(source)) == [
        "7 _helper_residual", "7 _run_conditional", "7 _run_time_machine", "8 .parse",
        "9 .run", "9 run_scenario of no parse_config_mapping"]
    assert verify_shortcuts(ast.parse("def verification_suite(seed=0):\n    return []\n")) \
        == ["no run_scenario"]
