"""No module of the package imports a name it never uses.

A deletion that leaves its imports behind keeps a dependency, and often a
whole import chain, alive for nothing.  `__init__.py` is exempt: it imports
names to re-export them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chowstab"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_an_unused_import():
    assert _unused_imports("import random\nfrom x import a, b\nb()\n") == \
        [(1, "random"), (2, "a")]
    assert _unused_imports("from __future__ import annotations\n"
                           "import os.path\nos.path.join\n") == []


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 1
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8"))
              for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}
