"""Every name a module of the package imports at module level is used in it.

No linter ships with the project, so this guard reads each module's
syntax tree with ``ast``: a name bound by a top-level ``import`` or
``from ... import`` must occur as a name somewhere in the module (an
attribute access ``os.environ`` counts as a use of ``os``).
``__init__.py``, whose imports are its re-exports, is left out, and so
are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kohnert"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that top-level imports of ``source`` bind and it never uses."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os, os.path as p\nfrom .x import a, b as c\n"
                          "print(os.sep, a)\n") == ["p", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
