"""Source hygiene: no module imports a name it never uses, every import
sits at module level, no public function takes ``**kwargs``, one route
leads from a weight to its weighted basis and initial ideal, each
repeated idiom has one home, and no value another source fixes is
restated."""

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


def call_sites(source: str, names):
    """(called name, enclosing ``Class.function``) of each call of one of
    ``names``, by plain name or as an attribute; "" at module level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                if called in names:
                    found.add((called, scope))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_call_site_detector():
    source = (
        "f(1)\n"
        "def g():\n"
        "    return mod.f(2) + h()\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            f()\n"
    )
    assert call_sites(source, {"f"}) == [("f", ""), ("f", "C.m.inner"), ("f", "g")]


# the only callers of the weighted basis, of its Rees completion and of
# the initial ideal read off it: everything else asks a ``_Bases`` memo,
# so nothing computes a basis the call already holds, and the public
# function reaches a Rees completion through a fresh ``_Bases``
ROUTE = {
    ("_initial_ideal_of", "groebner.py", "_Bases.at"),
    ("groebner_wrt_weight", "groebner.py", "_Bases.at"),
    ("groebner_wrt_weight", "cli.py", "cmd_gb"),
    ("_rees_basis", "groebner.py", "_Bases.at"),
    ("_rees_basis", "groebner.py", "groebner_wrt_weight"),
}


def routes(names):
    """(called name, module, scope) of every call of one of ``names``."""
    return {
        (name, path.name, scope)
        for path in ALL_MODULES
        for name, scope in call_sites(path.read_text(encoding="utf-8"), names)
    }


def test_single_route_from_weight_to_initial_ideal():
    assert routes({name for name, _module, _scope in ROUTE}) == ROUTE


# the fan searches a class for a certified positive weight only where a
# cone is reported, GR membership is asked, or a marked basis at a weight
# with a negative entry needs it; it steps off a weight by the epsilon
# bound only in one helper, in walks and in the public threshold
FAN_ROUTE = {
    ("_positive_rep", "fan.py", "_cone"),
    ("_positive_rep", "fan.py", "gr_region_contains"),
    ("_positive_rep", "fan.py", "_marked_basis"),
    ("_epsilon_bound", "fan.py", "_step"),
    ("_epsilon_bound", "fan.py", "walk"),
    ("_epsilon_bound", "fan.py", "epsilon_threshold"),
}


def test_fan_helper_routes():
    assert routes({name for name, _module, _scope in FAN_ROUTE}) == FAN_ROUTE


def test_bundled_basis_and_certificate_helpers_are_gone():
    # one helper returned the basis and the certificate together, so
    # callers that needed only the basis paid for the certificate
    gone = {"_reduced_marked_basis", "_class_has_positive"}
    assert routes(gone) == set()
    assert definitions(gone) == []


def definitions(names):
    """(name, module) of each function or class definition of one of ``names``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (node.name, path.name)
        for path in ALL_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, defs) and node.name in names
    )


def parameters(names):
    """(function, parameter, module) of each function parameter named one
    of ``names``."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted(
        (node.name, arg.arg, path.name)
        for path in ALL_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, funcs)
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg in names
    )


# what another source already fixes is not restated: the one Rees ring is
# built at the positive sample weight in one place, the budgets come from
# the environment alone, and a basis is a plain list
def test_rees_ring_built_only_at_the_positive_sample():
    assert routes({"rees_presentation"}) == {("rees_presentation", "rees.py", "_positive_rees")}
    assert [r for r in routes({"pr_sample_positive"}) if r[1] == "groebner.py"] == []


def test_budgets_are_no_parameters():
    assert parameters({"max_pairs", "max_steps"}) == []


def test_basis_wrapper_is_gone():
    assert definitions({"GroebnerBasis"}) == []


def foreign_attribute_modules(names):
    """Modules that access an attribute named one of ``names`` on an object
    other than ``self``."""
    return {
        path.name
        for path in ALL_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in names
        and getattr(node.value, "id", None) != "self"
    }


# each repeated idiom has one home: the relation tables are read through
# ``RingPresentation._relation_terms`` alone (PR(R), (M1)/(M2), the sample
# weight and the Rees tables; ``q1_entry`` and ``q2_entry`` stay public for
# callers outside the package), the integer view of a vector is taken only
# in polyhedra, and the top-degree split of a polynomial is written once
def test_relation_tables_read_only_by_relation_terms():
    assert routes({"q1_entry", "q2_entry"}) == set()
    # the kernel keeps tables of its own under the same names
    assert foreign_attribute_modules({"_q1", "_q2"}) == {"ring.py"}
    assert routes({"_relation_terms"}) == {
        ("_relation_terms", "weights.py", "_build_pr_halfspaces"),
        ("_relation_terms", "weights.py", "pr_sample_positive"),
        ("_relation_terms", "orders.py", "validate_order"),
        ("_relation_terms", "rees.py", "rees_presentation"),
    }
    assert definitions({"_x0_power"}) == []


# a weight outside PR(R) is refused in one helper, in one wording; the
# other membership tests are the boolean ones of the fan
def test_polynomial_region_refused_in_one_helper():
    assert routes({"_require_pr"}) == {
        ("_require_pr", "groebner.py", "groebner_wrt_weight"),
        ("_require_pr", "groebner.py", "_Bases.at"),
        ("_require_pr", "fan.py", "_cone"),
        ("_require_pr", "fan.py", "epsilon_threshold"),
        ("_require_pr", "fan.py", "walk"),
        ("_require_pr", "charvar.py", "gk_dim"),
        ("_require_pr", "rees.py", "_check_weight"),
    }
    assert routes({"pr_contains"}) == {
        ("pr_contains", "weights.py", "_require_pr"),
        ("pr_contains", "fan.py", "gr_region_contains"),
        ("pr_contains", "fan.py", "_step"),
        ("pr_contains", "fan.py", "_cross_facet"),
    }


def test_gcd_and_lcm_called_only_in_polyhedra():
    assert {module for _name, module, _scope in routes({"gcd", "lcm"})} == {"polyhedra.py"}


def test_top_split_defined_once_in_weights():
    assert definitions({"_top_split"}) == [("_top_split", "weights.py")]


# a cone's equalities are the reduced echelon basis that
# ``irredundant_strict`` returns; no module writes them another way
def test_equalities_have_one_writer():
    assert definitions({"_canonical_eq"}) == []
    assert routes({"irredundant_strict"}) == {("irredundant_strict", "fan.py", "_cone")}


# a Rees completion starts from generators of the x0-saturation, so its
# reduced basis has no element divisible by x0: nothing strips x0 (the
# test oracle keeps ``strip_x0``), no completion branches on the class of
# its order, and no saturation loop is left
def test_strip_x0_has_no_caller_in_src():
    assert routes({"strip_x0"}) == set()
    assert definitions({"strip_x0"}) == []
    assert "def strip_x0(" in (SRC.parent.parent / "tests" / "oracle.py").read_text(encoding="utf-8")
    assert routes({"isinstance"}) & {("isinstance", "groebner.py", "buchberger")} == set()
    assert "_SATURATION_ROUNDS" not in (SRC / "groebner.py").read_text(encoding="utf-8")


# an element of another ring is refused in one helper, once per public call
def test_ring_membership_checked_in_one_helper():
    assert routes({"_require_ring"}) == {
        ("_require_ring", "ring.py", "multiply"),
        ("_require_ring", "weights.py", "initial_form"),
        ("_require_ring", "groebner.py", "normal_form"),
        ("_require_ring", "groebner.py", "buchberger"),
    }
