"""Every name the package re-exports is reached by code that needs it.

``src/kohnert/__init__.py`` re-exports the public API.  Each name it
re-exports must be reached from outside the statement that defines it:
by another statement of ``src/``, by a script of ``benchmarks/``, by the
acceptance suite ``tests/test_acceptance.py`` or by the README library
example.  A name that only the unit tests reach belongs in ``tests/``;
the ``Diagram``-level entry points kept on purpose are listed in
``KEPT``, and only those.  The guard reads each source's syntax tree
with ``ast``, as ``test_private_names`` does, and resolves each name
through the scopes that enclose it: a name counts only where it is bound
to the export, by the definition in its module or by an import from the
package, so a parameter or a local of the same name, as ``length`` in
``compositions_of(total, length)``, does not.  An attribute of a package
module, as ``moves.generate_kd``, counts too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kohnert"

# Diagram-level entry points that nothing above reaches, kept on purpose
KEPT = ("labeling_with_reason", "membership", "rectify", "rectify_step")

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = (*FUNCTIONS, ast.ClassDef, *COMPREHENSIONS)


def _from_package(node: ast.stmt) -> bool:
    return isinstance(node, ast.ImportFrom) and \
        (node.level > 0 or (node.module or "").split(".")[0] == "kohnert")


def _outer_parts(scope: ast.AST) -> list[ast.AST]:
    """The parts of a nested scope that the enclosing scope evaluates."""
    if isinstance(scope, COMPREHENSIONS):
        return [scope.generators[0].iter]
    if isinstance(scope, ast.ClassDef):
        return [*scope.decorator_list, *scope.bases, *scope.keywords]
    args = scope.args
    parts = [*args.defaults, *filter(None, args.kw_defaults)]
    if not isinstance(scope, ast.Lambda):
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        parts += [*scope.decorator_list, scope.returns,
                  *(arg.annotation for arg in every if arg is not None)]
    return [part for part in parts if part is not None]


def _body_parts(scope: ast.AST) -> list[ast.AST]:
    """The parts a scope evaluates in its own namespace."""
    if isinstance(scope, ast.Lambda):
        return [scope.body]
    if isinstance(scope, COMPREHENSIONS):
        first, *rest = scope.generators
        heads = [scope.key, scope.value] if isinstance(scope, ast.DictComp) else [scope.elt]
        return [*heads, first.target, *first.ifs, *rest]
    return scope.body


def _walk(parts: list[ast.AST]) -> tuple[list[ast.AST], list[ast.AST]]:
    """The nodes one scope evaluates, from its ``parts``, and the scopes
    nested directly in it, entered only for their outer parts."""
    own, nested, stack = [], [], list(parts)
    while stack:
        node = stack.pop()
        own.append(node)
        if isinstance(node, SCOPES):
            nested.append(node)
            stack.extend(_outer_parts(node))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return own, nested


def _bindings(scope: ast.AST, own: list[ast.AST]) -> dict[str, str | None]:
    """What each name a scope binds stands for: the name imported from the
    package (a package module's own name for a module), or None when the
    scope binds it to anything else (a parameter, a local, a def) too."""
    bound: dict[str, set] = {}
    if isinstance(scope, FUNCTIONS):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
            if arg is not None:
                bound.setdefault(arg.arg, set()).add(None)
    declared = set()
    for node in own:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.setdefault(node.id, set()).add(None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.setdefault(node.name, set()).add(None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, set()).add(None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                target = None if path[0] != "kohnert" else path[-1] if alias.asname else path[0]
                bound.setdefault(alias.asname or path[0], set()).add(target)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                target = alias.name if _from_package(node) else None
                bound.setdefault(alias.asname or alias.name, set()).add(target)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return {name: targets.pop() if len(targets) == 1 else None
            for name, targets in bound.items() if name not in declared}


def _reach(parts, scope, env: dict, modules: set[str], found: set) -> None:
    """Add to ``found`` what the names and module attributes that ``parts``
    of ``scope`` evaluate stand for, given ``env`` for the scopes around
    ``scope`` (and, for a module, its own bindings); then do the same for
    each nested scope."""
    own, nested = _walk(parts)
    here = env if isinstance(scope, ast.Module) else {**env, **_bindings(scope, own)}
    for node in own:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(here.get(node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                here.get(node.value.id) in modules:
            found.add(node.attr)
    inner = env if isinstance(scope, ast.ClassDef) else here     # methods skip the class
    for child in nested:
        _reach(_body_parts(child), child, inner, modules, found)


def reached(source: str, modules: set[str], defines=frozenset()) -> set[str]:
    """The names that code in ``source`` reaches through package imports or
    attributes of the package modules ``modules``, or through its own
    top-level definitions of ``defines``, each outside the statement that
    defines it."""
    tree = ast.parse(source)
    env = _bindings(tree, _walk(tree.body)[0])
    env.update((name, name) for name in defines)
    found = set()
    for stmt in tree.body:
        here = set()
        _reach([stmt], tree, env, modules, here)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            here.discard(stmt.name)
        found |= here
    return found - {None}


def exports(init: str) -> dict[str, str]:
    """Each name an ``__init__`` source re-exports, and its module."""
    return {alias.asname or alias.name: node.module
            for node in ast.parse(init).body if _from_package(node) for alias in node.names}


def unreached(init: str, sources: dict[str, str], users: list[str]) -> list[str]:
    """The names ``init`` re-exports that no other statement of the package
    modules ``sources`` (module name to source text, ``__init__`` left out)
    and no source of ``users`` reaches."""
    names = exports(init)
    modules = {"kohnert", *sources}
    found = set()
    for module, source in sources.items():
        found |= reached(source, modules, {n for n, home in names.items() if home == module})
    for source in users:
        found |= reached(source, modules)
    return sorted(set(names) - found)


def readme_example() -> str:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)[0]


def test_the_guard_sees_an_unreferenced_export():
    init = ("from .a import f, g, h, k, C, length\n"
            "from .b import used_by_b\n")
    sources = {
        "a": "def f(n):\n    return f(n - 1)\n"                   # only itself
             "def g():\n    return h()\n"
             "def h():\n    pass\n"
             "def k():\n    pass\n"
             "class C:\n    def make(self):\n        return C()\n"  # only its own methods
             "def length(w):\n    return 0\n"
             "def compositions_of(total, length):\n    return length\n",
        "b": "from .a import g as gee\n"
             "def used_by_b(f, k=None):\n"
             "    f()\n"                                            # a parameter
             "    return [f for f in k], (lambda k: k)(1), gee\n",  # locals
    }
    user = "from kohnert import a\nimport kohnert\nprint(a.k, kohnert.used_by_b)\n"
    assert unreached(init, sources, []) == ["C", "f", "k", "length", "used_by_b"]
    assert unreached(init, sources, [user]) == ["C", "f", "length"]


def test_the_guard_resolves_names_through_enclosing_scopes():
    modules = {"kohnert"}
    assert reached("def f():\n    from kohnert import x\n    return x\n", modules) == {"x"}
    assert reached("from kohnert import x\ndef f(x):\n    return x\n", modules) == set()
    assert reached("from kohnert import x\ndef f(y=x):\n    return y\n", modules) == {"x"}
    assert reached("from kohnert import x\nclass A:\n    x = 1\n    def m(self):\n"
                   "        return x\n", modules) == {"x"}
    assert reached("from kohnert import x\nx = 1\nprint(x)\n", modules) == set()


def test_every_export_is_reached_or_kept_on_purpose():
    init = (PACKAGE / "__init__.py").read_text()
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    users = [path.read_text() for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    users += [(ROOT / "tests" / "test_acceptance.py").read_text(), readme_example()]
    assert unreached(init, sources, users) == sorted(KEPT)
