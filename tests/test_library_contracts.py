"""Source-level contracts of the library."""

import ast
from pathlib import Path

import polyham

SRC = Path(polyham.__file__).parent


def test_no_assert_in_library_code():
    # `python -O` strips assert statements, and a bare AssertionError is no
    # PolyhamError, so the CLI could not map it to an exit code
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert found == []


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *` only when someone runs it
    import importlib

    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "polyham" if path.stem == "__init__" else f"polyham.{path.stem}"
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", ())
        missing += [f"{name}.{x}" for x in exports if not hasattr(module, x)]
    assert missing == []
    namespace = {}
    exec("from polyham import *", namespace)
    assert "closest_pair" in namespace and "batch_nn" in namespace
