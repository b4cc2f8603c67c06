"""Every top-level definition and every method of the package is named by
some module, and every class field is read by one.

A function or class that no module of `src/umbralcalc` names (as a name or
an attribute), or a method defined in a class body that no module names as
an attribute, is reached only from tests, so it is dead code. Dunder
methods are called by the language and do not count. `__init__.py`
re-exports and does not count as a use. An annotated class field that no
module of the package or of `bench` reads as an attribute is a result
that is stored and never used.
"""

import ast
from functools import cache
from pathlib import Path

import umbralcalc

SOURCE = Path(umbralcalc.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# `run_all` is the documented entry point that tests and the README use.
ENTRY_POINTS = {"run_all"}


@cache
def modules() -> tuple:
    """(file name, parsed tree) of every module but `__init__.py`."""
    return tuple(
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"
    )


def attributes() -> set:
    """Every identifier some module uses as an attribute."""
    return {
        node.attr for _, tree in modules() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }


def names() -> set:
    """Every identifier some module uses as a name."""
    return {
        node.id for _, tree in modules() for node in ast.walk(tree)
        if isinstance(node, ast.Name)
    }


def test_every_definition_is_named_by_some_module():
    defined = {}
    for module, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = module
    uses = names() | attributes()
    unreached = sorted(
        f"{module}:{name}" for name, module in defined.items()
        if name not in uses and name not in ENTRY_POINTS
    )
    assert not unreached, f"defined but named by no module: {unreached}"


def test_every_method_is_named_as_an_attribute_by_some_module():
    methods = []
    for module, tree in modules():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [
                    (module, cls.name, node.name) for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
    uses = attributes()
    unreached = sorted(
        f"{module}:{cls}.{name}" for module, cls, name in methods if name not in uses
    )
    assert not unreached, f"methods named as an attribute by no module: {unreached}"


def test_every_field_is_read_as_an_attribute_by_some_module():
    trees = [tree for _, tree in modules()] + [
        ast.parse(path.read_text(encoding="utf-8")) for path in sorted(BENCH.glob("*.py"))
    ]
    reads = {
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{module}:{cls.name}.{node.target.id}"
        for module, tree in modules() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id not in reads
    )
    assert not unread, f"fields read as an attribute by no module: {unread}"
