"""Design guards on the library source, read with ``ast``.

* Imports sit at module level: a function-local import would hide an import
  cycle between the library modules.
* The cell order lives in one place: ``itertools.product`` over the letters
  "012" appears only inside ``geometry.words``.
* The certified edge route is exact arithmetic up to one final rounding: no
  function reachable from ``_certified_universal`` or ``riemann_kernel`` in
  ``forms.py`` references numpy, so the 2^n-row float arrays stay gone.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gasketforms"
MODULES = sorted(SRC.glob("*.py"))


def _is_letter_product(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and node.args):
        return False
    f = node.func
    named = (isinstance(f, ast.Attribute) and f.attr == "product") or (
        isinstance(f, ast.Name) and f.id == "product"
    )
    first = node.args[0]
    letters = (isinstance(first, ast.Constant) and first.value == "012") or (
        isinstance(first, ast.Name) and first.id == "_LETTERS"
    )
    return named and letters


def test_modules_found():
    assert {p.name for p in MODULES} >= {"geometry.py", "harmonic.py", "forms.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text())
    nested = [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_letter_products_only_in_words(path):
    tree = ast.parse(path.read_text())
    allowed = set()
    if path.name == "geometry.py":
        words = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "words")
        allowed = {id(n) for n in ast.walk(words)}
    stray = [n.lineno for n in ast.walk(tree) if _is_letter_product(n) and id(n) not in allowed]
    assert stray == []


def test_certified_edge_route_uses_no_numpy():
    tree = ast.parse((SRC / "forms.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo, seen = ["_certified_universal", "riemann_kernel"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert "np" not in names, f"{name} uses numpy"
        todo.extend(names & functions.keys())
    assert {"riemann_sum", "_monomial_riemann", "_refine_modes"} <= seen
