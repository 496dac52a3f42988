"""Guard policy lives in linalg, whose guards and defects take a whole stack,
and the value primitives take stacks too: weak, modular and spectral values,
diagonal potent operators, tensor products, Hermitian exponentials and
normalize. A function in pps, timemachine, scenarios or meters that calls a
require_* guard, a *_defect function or one of those primitives once per
iteration of a for or while loop or of a comprehension fails here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "potentops"
PER_BRANCH = {"weak_value", "modular_value", "spectral_weights", "diagonal_potent_operator",
              "tensor_product", "hermitian_exponential", "normalize"}


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
    """'function:line name' for every guard or stack-aware primitive call that
    a loop repeats."""
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
                    if name.startswith("require_") or name.endswith("_defect") \
                            or name in PER_BRANCH:
                        found.add(f"{function.name}:{call.lineno} {name}")
    return sorted(found)


def _tree(module: str):
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def test_no_pps_function_guards_inside_a_loop():
    assert guard_calls_in_loops(_tree("pps.py")) == []


@pytest.mark.parametrize("module", ["timemachine.py", "scenarios.py", "meters.py"])
def test_no_function_loops_over_a_stack_aware_primitive(module):
    assert guard_calls_in_loops(_tree(module)) == []


def test_the_check_sees_each_kind_of_loop():
    source = """
def f(us, ps):
    for u in require_stack(us):
        require_unitary(u)
    while not linalg.hermiticity_defect(ps[0]) <= 1e-12:
        pass
    names = {n: require_hermitian(p) for n, p in ps}
    return [p for p in ps if unitarity_defect(p)], (require_normalized(p) for p in ps)


def g(As, gs, sel, us, vs):
    for a in As:
        pps.weak_value(a, sel)
        spectral_weights(a, sel)
    values = [modular_value(a, g, sel) for a in As for g in gs]
    rows = {g: diagonal_potent_operator(lam, w, g, p) for g in gs}
    total = sum(tensor_product(u, v) for u, v in zip(us, vs))
    while normalize(us[0]) is None:
        linalg.hermitian_exponential(us[0], 1j)
    return normalize(tensor_product(us, vs)), [x for x in weak_value(As, sel)]
"""
    assert guard_calls_in_loops(ast.parse(source)) == [
        "f:4 require_unitary", "f:5 hermiticity_defect", "f:7 require_hermitian",
        "f:8 require_normalized", "f:8 unitarity_defect",
        "g:13 weak_value", "g:14 spectral_weights", "g:15 modular_value",
        "g:16 diagonal_potent_operator", "g:17 tensor_product", "g:18 normalize",
        "g:19 hermitian_exponential"]
