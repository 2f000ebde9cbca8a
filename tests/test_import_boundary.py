"""No filterlet module reaches into another's private names."""

import ast
from pathlib import Path

import filterlet

PACKAGE = Path(filterlet.__file__).parent


def private_imports(path):
    """(module, name) for every underscore name ``path`` imports from
    another filterlet module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "filterlet":
            continue
        found += [(module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {path.name: private_imports(path)
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}
