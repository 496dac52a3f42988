"""Dead-code guard over the package source: what a deletion leaves behind
(an import no longer used, a private helper no longer called) fails here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "potentops"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree) -> set[str]:
    """Every name a module reads: bare names and attribute names."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    assert imported - _loaded_names(tree) == set()


def test_every_private_module_name_is_referenced():
    referenced = set().union(*map(_loaded_names, TREES.values()))
    referenced |= {alias.name for tree in TREES.values() for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in referenced]
    assert unused == []


def test_no_statement_is_a_bare_read():
    """A name, attribute or subscript read as a whole statement does nothing,
    unless reading it has a side effect, which belongs in a call that says so."""
    bare = [f"{module}:{node.lineno} {ast.unparse(node.value)}"
            for module, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, ast.Expr)
            and isinstance(node.value, (ast.Name, ast.Attribute, ast.Subscript))]
    assert bare == []
