"""Guard policy lives in linalg, whose guards and defects take a whole stack:
a function in pps that calls a require_* guard or a *_defect function once
per iteration of a for or while loop or of a comprehension fails here."""

import ast
from pathlib import Path

PPS = Path(__file__).resolve().parents[1] / "src" / "potentops" / "pps.py"


def _per_iteration(loop) -> list:
    """The parts of a loop that run once per iteration (not its first iterable)."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        return loop.body + loop.orelse
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body, *loop.orelse]
    first, *rest = loop.generators
    elements = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
    return elements + first.ifs + rest


def guard_calls_in_loops(tree) -> list[str]:
    """'function:line name' for every guard call that a loop repeats."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in (node for node in ast.walk(function) if isinstance(node, loops)):
            for part in _per_iteration(loop):
                for call in (node for node in ast.walk(part) if isinstance(node, ast.Call)):
                    func = call.func
                    name = getattr(func, "id", None) or getattr(func, "attr", "")
                    if name.startswith("require_") or name.endswith("_defect"):
                        found.add(f"{function.name}:{call.lineno} {name}")
    return sorted(found)


def test_no_pps_function_guards_inside_a_loop():
    assert guard_calls_in_loops(ast.parse(PPS.read_text(encoding="utf-8"))) == []


def test_the_check_sees_each_kind_of_loop():
    source = """
def f(us, ps):
    for u in require_stack(us):
        require_unitary(u)
    while not linalg.hermiticity_defect(ps[0]) <= 1e-12:
        pass
    names = {n: require_hermitian(p) for n, p in ps}
    return [p for p in ps if orthonormality_defect(p)], (require_normalized(p) for p in ps)
"""
    assert guard_calls_in_loops(ast.parse(source)) == [
        "f:4 require_unitary", "f:5 hermiticity_defect", "f:7 require_hermitian",
        "f:8 orthonormality_defect", "f:8 require_normalized"]
