"""The library surface: every exported name has a caller outside the tests."""

import ast
import importlib
import inspect
from pathlib import Path

import qverify
from conftest import load_benchmark_module

ROOT = Path(__file__).resolve().parent.parent


def referenced_names() -> set[str]:
    """Identifiers used or imported in src/qverify (bar __init__.py), demos/
    and perfbench/.

    A `def` or `class` statement binds its name without using it, so it
    does not count.  A string equal to a name does: the benchmark's
    tracer names the functions it wraps in strings.
    """
    files = [p for p in (ROOT / "src" / "qverify").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):  # the name in `from .m import name as alias`
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    public = {
        name
        for name, value in vars(qverify).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(public - referenced_names()) == []


def test_every_traced_name_resolves(monkeypatch):
    # The benchmark's tracer patches these by name; a rename in src/
    # would crash a traced run.
    tracing = load_benchmark_module(monkeypatch, "tracing")
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"qverify.{module}"), attr, None)), (module, attr)
    for cls, attr, _ in tracing.METHODS:
        assert attr in cls.__dict__, (cls.__name__, attr)
