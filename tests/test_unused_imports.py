"""Every name a symquant module imports is used in that module.

__init__.py is exempt: it imports names to re-export them. A name counts
as used when it appears as an identifier anywhere in the module (an
attribute chain a.b.c uses a), so an import left behind when the code that
read it is deleted fails here.
"""

import ast
from pathlib import Path

import pytest

import symquant

MODULES = sorted(p for p in Path(symquant.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"groups", "variables", "coherent",
                                         "quantize", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import json\nimport numpy as np\nfrom os import path\n"
                     "np.zeros(1)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"json", "path"}
