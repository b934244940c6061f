"""Source hygiene: no module imports a name it never uses, every import
sits at module level, and no public function takes ``**kwargs``."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "skewgb"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str):
    """Names bound by top-level imports that the module never loads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # string annotations are resolved lazily, but their names still count
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from typing import List, Sequence\n"
        "from .a import b as c\n"
        "def f(x: 'List[int]'):\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(4, "Sequence"), (5, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def nested_imports(source: str):
    """Lines of the imports inside a function or class body."""
    tree = ast.parse(source)
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        {
            node.lineno
            for scope in ast.walk(tree)
            if isinstance(scope, scopes)
            for node in ast.walk(scope)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_nested_import_detector():
    source = (
        "import os\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "def f():\n"
        "    from .fan import walk\n"
        "    def g():\n"
        "        import sys\n"
        "class C:\n"
        "    import re\n"
    )
    assert nested_imports(source) == [7, 9, 11]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_imports_below_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def keyword_catchalls(source: str):
    """Public functions and public-class methods (``Class.name``) that
    take a ``**kwargs`` parameter."""
    tree = ast.parse(source)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, funcs) and _is_public(node.name) and node.args.kwarg:
            found.append(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, funcs) and _is_public(item.name) and item.args.kwarg:
                    found.append(f"{node.name}.{item.name}")
    return found


def test_keyword_catchall_detector():
    source = (
        "def f(a, **kw):\n"
        "    def inner(**kw):\n"
        "        pass\n"
        "def _g(**kw):\n"
        "    pass\n"
        "def h(a, *args, b=1):\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self, **options):\n"
        "        pass\n"
        "    def m(self, **kw):\n"
        "        pass\n"
        "    def _p(self, **kw):\n"
        "        pass\n"
        "class _D:\n"
        "    def m(self, **kw):\n"
        "        pass\n"
    )
    assert keyword_catchalls(source) == ["f", "C.__init__", "C.m"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_keyword_catchalls(path):
    # a forwarded option that no caller sets can only misfire, as when a
    # fan seed was handed on to the fan of a Rees ring of another shape
    assert keyword_catchalls(path.read_text(encoding="utf-8")) == []
