"""Every joint oracle takes exp(-i t H) from linalg.evolution_operators. Outside
linalg no module names the private Pade routine, so no other site forms a Pade
argument, and no function hands a tensor_product to hermitian_exponential, so
no joint is built by eigh. Inside linalg, evolution_operators is the one
function that names the Pade routine, and PADE_NORM_CAP its one 1-norm cap."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "potentops"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def pade_references(tree) -> list[str]:
    """'line' for every name, attribute or import of _pade_exponential."""
    found = set()
    for node in ast.walk(tree):
        names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
        if "_pade_exponential" in names:
            found.add(node.lineno)
    return [str(line) for line in sorted(found)]


def pade_sites(tree) -> list[str]:
    """'name line' for every reference to _pade_exponential, by the top-level
    function or class that holds it, or '<module>'."""
    return [f"{getattr(node, 'name', '<module>')} {line}"
            for node in tree.body for line in pade_references(node)]


def norm_caps(tree) -> list[str]:
    """Every module-level name bound in tree that ends in _NORM_CAP."""
    targets = [target for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in getattr(node, "targets", [getattr(node, "target", None)])]
    return sorted(t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_NORM_CAP"))


def _callee(node):
    """The called name of a call node (bare or attribute), else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def eigh_joints(tree) -> list[str]:
    """'function line' for every hermitian_exponential call whose generator is a
    tensor_product call, or a name that function bound to an expression holding one."""

    def holds_product(node):
        return any(_callee(n) == "tensor_product" for n in ast.walk(node))

    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        joints = {target.id for node in ast.walk(function)
                  if isinstance(node, ast.Assign) and holds_product(node.value)
                  for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(function):
            if _callee(node) != "hermitian_exponential" or not node.args:
                continue
            generator = node.args[0]
            if holds_product(generator) or any(isinstance(n, ast.Name) and n.id in joints
                                               for n in ast.walk(generator)):
                found.add(f"{function.name} {node.lineno}")
    return sorted(found)


def test_only_linalg_names_the_pade_routine():
    found = {module: pade_references(tree) for module, tree in TREES.items()
             if module != "linalg.py"}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_only_evolution_operators_names_the_pade_routine_in_linalg():
    callers = {site.split()[0] for site in pade_sites(TREES["linalg.py"])}
    assert callers == {"evolution_operators"}


def test_linalg_has_one_norm_cap():
    assert norm_caps(TREES["linalg.py"]) == ["PADE_NORM_CAP"]


def test_no_joint_is_built_by_eigh():
    found = {module: eigh_joints(tree) for module, tree in TREES.items()}
    assert {module: sites for module, sites in found.items() if sites} == {}


def test_the_checks_see_each_site():
    source = """
from .linalg import _pade_exponential, hermitian_exponential, tensor_product


def oracle(A, P, gs):
    return linalg._pade_exponential(np.multiply.outer(-1j * gs, tensor_product(A, P)))


def joint(A, P, g):
    return hermitian_exponential(tensor_product(A, P), -1j * g)


def bound_joint(A, P, g):
    generator = 2 * tensor_product(A, P)
    return linalg.hermitian_exponential(generator, -1j * g)


def factor(A, P, g):
    return tensor_product(hermitian_exponential(A, -1j * g), P)
"""
    tree = ast.parse(source)
    assert pade_references(tree) == ["2", "6"]
    assert eigh_joints(tree) == ["bound_joint 15", "joint 10"]


def test_the_linalg_checks_see_each_site():
    source = """
EXP_NORM_CAP = 128.0
PADE_NORM_CAP: float = 2.0 ** 23
OTHER_CAP = 1.0
ROUTINE = _pade_exponential


def evolution_operators(h, ts):
    return _pade_exponential(np.multiply.outer(-1j * np.asarray(ts), h))


def general_exponential(m, scale=1.0):
    return _pade_exponential(scale * m)


def _pade_exponential(a):
    return a
"""
    tree = ast.parse(source)
    assert pade_sites(tree) == ["<module> 5", "evolution_operators 9", "general_exponential 13"]
    assert norm_caps(tree) == ["EXP_NORM_CAP", "PADE_NORM_CAP"]
