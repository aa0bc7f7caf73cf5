"""Every name a package module imports at top level is used there, and
every top-level function and class it defines is named somewhere else.

An import that nothing reads keeps a dead dependency alive and hides what
a module really needs.  A deliberate one carries `# noqa: F401` on its
import line, and only for a name looked up in the module from outside:
one that `gllflow/__init__` re-exports, or one that the benchmark's tracer
(`perfbench/tracer.py`, read here, never edited) names as a string to patch.

A function or class that nothing names, in the package, the tests or the
tracer, is a helper left behind by a deletion.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gllflow"
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + [TRACER]


def _imports(source):
    """(line, name, noqa, read) of every top-level imported name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            out.append((node.lineno, name, noqa, name in used))
    return out


def unused_imports(source):
    """Imported names that the module never reads and no noqa covers, with their lines."""
    return sorted((line, name) for line, name, noqa, read in _imports(source)
                  if not (noqa or read))


def misplaced_noqa(source, outside):
    """Names on a noqa line that the module reads, or that nothing in
    `outside` looks up there."""
    return sorted((line, name) for line, name, noqa, read in _imports(source)
                  if noqa and (read or name not in outside))


def looked_up_from_outside():
    """`gllflow.__all__` and every string constant in the tracer."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    strings = {node.value for node in ast.walk(ast.parse(TRACER.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return set(exported) | strings


def names_read(source):
    """Every name the source reads, imports, reaches as an attribute or
    spells as a string (as the tracer and monkeypatch do)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def orphans(source, named):
    """Top-level functions and classes of the source absent from `named`, with their lines."""
    return sorted((node.lineno, node.name) for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in named)


def test_detects_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom sys import argv  # noqa: F401\nx = sep\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]


def test_detects_a_misplaced_noqa():
    source = "from os import path, sep  # noqa: F401\nfrom sys import argv  # noqa: F401\nx = sep\n"
    assert misplaced_noqa(source, {"path", "sep"}) == [(1, "sep"), (2, "argv")]


def test_detects_an_orphan():
    # a definition is not a use, and neither is a docstring that mentions it
    source = 'def used():\n    """see unused"""\n\ndef unused():\n    return used()\n'
    assert orphans(source, names_read(source)) == [(4, "unused")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_noqa_only_for_names_looked_up_from_outside(path):
    assert misplaced_noqa(path.read_text(), looked_up_from_outside()) == []


def test_every_definition_is_named_elsewhere():
    named = set().union(*(names_read(p.read_text()) for p in READERS))
    found = {p.name: orphans(p.read_text(), named) for p in MODULES}
    assert {name: defs for name, defs in found.items() if defs} == {}
