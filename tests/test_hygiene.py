"""Source hygiene: no module imports a name it never uses."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "skewgb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
