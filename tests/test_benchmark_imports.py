"""The benchmark scripts still find every package name they use.

The scripts under ``benchmarks/`` import names from ``kohnert``, wrap
the public functions of the modules listed in ``tracing.LAYERS`` and wrap
the methods listed in ``tracing.METHODS``.  A name deleted from the
package would fail every benchmark operation, so these tests parse the
scripts (without running or changing them) and resolve each such name.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


def _package_imports(path: Path):
    """(module, name) for each ``from kohnert... import name`` and
    (module, None) for each ``import kohnert...`` in the script."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "kohnert":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kohnert":
                    yield alias.name, None


def _tracing_constant(name: str):
    tree = ast.parse((BENCHMARKS / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"benchmarks/tracing.py defines no {name}")


def test_benchmark_scripts_are_found():
    assert BENCHMARKS / "workloads.py" in SCRIPTS
    assert any(module == "kohnert" for path in SCRIPTS
               for module, _ in _package_imports(path))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_package_imports_resolve(path):
    for module, name in _package_imports(path):
        imported = importlib.import_module(module)
        if name is not None:
            assert hasattr(imported, name), f"{path.name}: {module}.{name} is gone"


def test_tracing_layers_import():
    layers = _tracing_constant("LAYERS")
    assert "crystal" in layers
    for layer in layers:
        importlib.import_module(f"kohnert.{layer}")


def test_tracing_methods_are_defined_on_their_classes():
    # Tracer.install reads cls.__dict__[meth], so an inherited or deleted
    # method would raise KeyError in every traced run
    methods = _tracing_constant("METHODS")
    assert ("Diagram", "move_cell") in methods["diagrams"]
    for layer, entries in methods.items():
        module = importlib.import_module(f"kohnert.{layer}")
        for cls_name, meth in entries:
            cls = getattr(module, cls_name)
            assert meth in cls.__dict__, f"kohnert.{layer}.{cls_name}.{meth} is gone"
