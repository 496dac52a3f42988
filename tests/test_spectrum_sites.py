"""Each superposition record is guarded and diagonalized in one place. In
timemachine, only EvolutionFamily.__post_init__ (which keeps the family's
spectrum) and TimeTranslationSpec.__post_init__ (which keeps its one H's) call
a Hermitian guard, an eigendecomposition or a Hermitian exponential;
superposed_evolution, the branch unitaries, the fit's scan and
time_translation_machine read a kept spectrum."""

import ast
from pathlib import Path

TIMEMACHINE = Path(__file__).resolve().parents[1] / "src" / "potentops" / "timemachine.py"
SPECTRAL_CALLS = {"eigh", "require_hermitian", "hermitian_exponential"}
ALLOWED = {"EvolutionFamily.__post_init__", "TimeTranslationSpec.__post_init__"}


def spectral_call_sites(tree) -> list[str]:
    """'qualified.function name' for every spectral call, '<module>' at top level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", "")
                if name in SPECTRAL_CALLS:
                    found.add(f"{scope or '<module>'} {name}")
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def test_only_the_spectrum_keepers_diagonalize():
    found = spectral_call_sites(ast.parse(TIMEMACHINE.read_text(encoding="utf-8")))
    assert [entry for entry in found if entry.split()[0] not in ALLOWED] == []


def test_the_check_sees_each_call():
    source = """
w, v = np.linalg.eigh(H0)


class EvolutionFamily:
    def __post_init__(self):
        lam, v = np.linalg.eigh(require_hermitian(stack))

    def branch_unitaries(self):
        return hermitian_exponential(self._stack, -1j)


def _scan(family, grid):
    def chunk(ps):
        return linalg.require_hermitian(np.array([family.generator(a) for a in ps]))
    return eigh(chunk(grid))
"""
    assert spectral_call_sites(ast.parse(source)) == [
        "<module> eigh", "EvolutionFamily.__post_init__ eigh",
        "EvolutionFamily.__post_init__ require_hermitian",
        "EvolutionFamily.branch_unitaries hermitian_exponential", "_scan eigh",
        "_scan.chunk require_hermitian"]
