"""Every private name a module of the package defines is used by the package.

A module-level function, class or constant whose name starts with one
underscore serves the package alone, so code in ``src/`` must reach it
from outside its own definition: as a name in its module, as an
attribute, or through an import by another module (which
``test_unused_imports`` holds to a use).  A helper that only tests reach
belongs in ``tests/``.  The guard reads each module's syntax tree with
``ast``, as ``test_unused_imports`` does.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kohnert"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(node: ast.stmt) -> list[str]:
    """The private names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if _private(name)]


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private top-level name of the modules in
    ``sources`` (module name to source text) that no code of them reaches
    outside the statement that defines it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defs = {(module, name): node for module, tree in trees.items()
            for node in tree.body for name in _defined(node)}
    used = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    source = (node.module or "").rpartition(".")[2]
                    used.update((source, alias.name) for alias in node.names)
                elif isinstance(node, ast.Name) and defs.get((module, node.id)) not in (None, stmt):
                    used.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    used.update(key for key in defs if key[1] == node.attr)
    return [f"{module}.{name}" for module, name in defs if (module, name) not in used]


def test_the_guard_sees_an_unreferenced_helper():
    sources = {
        "a": "_K: int = 1\n_L = 2\ndef _f(n):\n    return _f(n - 1)\n"
             "def _g():\n    return _K\nclass _C:\n    pass\n",
        "b": "from .a import _g\nimport a\nprint(_g(), a._C)\n",
    }
    assert unreferenced(sources) == ["a._L", "a._f"]


def test_every_private_name_is_reached_from_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources) == []
