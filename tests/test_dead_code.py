"""Dead-code guard over the package source: what a deletion leaves behind
(an import no longer used, a private helper no longer called) fails here. The
unused-import rule holds the tests and demos too."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "potentops"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}
IMPORTERS = {**{name: tree for name, tree in TREES.items() if name != "__init__.py"},
             **{path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
                for folder in ("tests", "demos") for path in sorted((ROOT / folder).glob("*.py"))}}


def _loaded_names(tree) -> set[str]:
    """Every name a module reads: bare names and attribute names."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


@pytest.mark.parametrize("module", IMPORTERS)
def test_every_import_is_used(module):
    tree = IMPORTERS[module]
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


# Defaulted parameters that no call inside the package passes, each for a reason
# outside it: the console entry point calls main() bare, and PyYAML's loader calls
# construct_mapping with deep.
UNPASSED_DEFAULTS_ALLOWED = {"cli.py:main(argv)", "scenarios.py:construct_mapping(deep)"}


def _defaulted_parameters(fn, is_method):
    """(name, index among the call's positional arguments or None) per defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    bound = int(is_method and any(p.arg in ("self", "cls") for p in positional[:1]))
    first = len(positional) - len(fn.args.defaults)
    return ([(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if default is not None])


def _callee(call):
    """The name a call reaches, None for super().name(...), which reaches the base class."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and not (
            isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "super"):
        return func.attr
    return None


def _passes(call, name, index):
    """Whether a call passes the parameter, by keyword, by position or by unpacking."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def test_every_defaulted_parameter_is_passed_inside_the_package():
    """A default that no package call overrides is a knob with no caller: the
    tests and demos do not count, so it becomes a constant or goes."""
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    unpassed = []
    for module, tree in TREES.items():
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unpassed += [f"{module}:{fn.name}({name})"
                             for name, index in _defaulted_parameters(fn, id(fn) in methods)
                             if not any(_passes(c, name, index) for c in calls.get(fn.name, []))]
    assert set(unpassed) == UNPASSED_DEFAULTS_ALLOWED
