import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import resbvp

# resbvp.__main__ runs the command line on import.
MODULES = [m.name for m in pkgutil.iter_modules(resbvp.__path__, "resbvp.") if m.name != "resbvp.__main__"]
SOURCES = sorted(p for p in Path(resbvp.__file__).parent.glob("*.py") if p.name != "__init__.py")
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
# Traced names whose function is already gone; the benchmark's table
# drops them when it is next re-baselined.
UNTRACEABLE = {"linops.kernel_basis"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_import_is_used(path):
    assert not _unused_imports(path.read_text(encoding="utf-8"))


def test_unused_import_is_caught():
    source = "from .resonance import boundary_functional, boundary_functional_power\nboundary_functional(1, 2)\n"
    assert _unused_imports(source) == ["boundary_functional_power (line 1)"]


def _traced_names() -> list[str]:
    """``<layer>.<function>`` of every entry in the benchmark's TRACED table."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [f"{layer}.{name}" for layer, names in tracing.TRACED.items() for name in names]


def test_every_traced_function_exists():
    # A traced function that is gone would read 0 calls in its per-layer
    # metric instead of failing.
    missing = []
    for span in _traced_names():
        layer, _, name = span.partition(".")
        if span not in UNTRACEABLE and not callable(getattr(importlib.import_module(f"resbvp.{layer}"), name, None)):
            missing.append(span)
    assert not missing
