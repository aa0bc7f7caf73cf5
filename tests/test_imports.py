"""Every name a package module imports at top level is used there.

An import that nothing reads keeps a dead dependency alive and hides what
a module really needs.  A deliberate one (a name re-exported, or looked up
in the module from outside) carries `# noqa: F401` on its import line.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gllflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Top-level imported names that the module never reads, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom sys import argv  # noqa: F401\nx = sep\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
