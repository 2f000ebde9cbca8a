"""No filterlet module reaches into another's private names, and the package
needs numpy alone."""

import ast
import os
import subprocess
import sys
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


def test_package_and_cli_import_no_scipy():
    # a fresh interpreter, so no other test's imports count
    code = ("import sys, filterlet, filterlet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"
