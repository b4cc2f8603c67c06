"""Every top-level definition of the package is named by some module.

A function or class that no module of `src/umbralcalc` names (as a name or
an attribute) is reached only from tests, so it is dead code. `__init__.py`
re-exports and does not count as a use.
"""

import ast
from pathlib import Path

import umbralcalc

SOURCE = Path(umbralcalc.__file__).parent

# `run_all` is the documented entry point that tests and the README use.
ENTRY_POINTS = {"run_all"}


def test_every_definition_is_named_by_some_module():
    defined, named = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreached = sorted(
        f"{module}:{name}" for name, module in defined.items()
        if name not in named and name not in ENTRY_POINTS
    )
    assert not unreached, f"defined but named by no module: {unreached}"
