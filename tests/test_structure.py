"""Design guards on the library source, read with ``ast``.

* Imports sit at module level: a function-local import would hide an import
  cycle between the library modules.
* The cell order lives in one place: ``itertools.product`` over the letters
  "012" appears only inside ``geometry.words``.
* The certified routes are exact arithmetic up to one final rounding: no
  module of the library imports numpy, so the float engines stay gone and
  numpy stays out of the runtime dependencies.
* Every exact kernel is the limit of a cached level kernel: the limit
  builder ``forms._kernel_limit`` is the only caller of ``solve_unique``, so
  no hand-built kernel system comes back unnoticed.
* Integrals over a whole level come from one side-integral table: no loop
  or comprehension over ``edges_at_level`` integrates its edges one at a
  time.
* Every library function the benchmark traces still exists under its
  traced name, so a traced run does not stop at its first patch.
* The Hodge decomposition and the covering potentials are exact: the
  energy bound of the truncation tails, ``universal_energy_bound``, is
  called only by ``periods_up_to`` (for ``PeriodVector.level_sum_bound``)
  and by ``perimeter_identity_check``, so no tail comes back into them.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

import gasketforms

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


def test_no_module_imports_numpy():
    offenders = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            offenders += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "numpy"]
    assert offenders == []


def test_solve_unique_is_called_only_by_the_limit_builder():
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        builder = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_kernel_limit"]
        inside = {id(n) for b in builder for n in ast.walk(b)}
        sites += [
            (path.name, id(node) in inside)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "solve_unique"
        ]
    assert sites == [("forms.py", True)]


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_edge_integration_over_a_level(path):
    per_edge = {"integrate_edge", "integrate_term_exact"}
    stray = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.For):
            iters, bodies = [node.iter], node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            iters, bodies = [g.iter for g in node.generators], [node]
        else:
            continue
        if not any(_called_name(n) == "edges_at_level" for it in iters for n in ast.walk(it)):
            continue
        stray += [n.lineno for b in bodies for n in ast.walk(b) if _called_name(n) in per_edge]
    assert stray == []


def test_energy_bound_is_called_only_by_the_period_routes():
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                sites += [
                    (path.name, fn.name) for n in ast.walk(fn) if _called_name(n) == "universal_energy_bound"
                ]
    assert sorted(sites) == [("cohomology.py", "perimeter_identity_check"), ("cohomology.py", "periods_up_to")]


def test_bench_trace_targets_resolve():
    """Each (span, owner, attribute) the benchmark worker traces names a
    function the owner defines itself, looked up as the tracer does."""
    path = SRC.parent.parent / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    targets = worker._trace_targets(gasketforms)
    assert targets
    for name, owner, attr, _, _ in targets:
        assert callable(owner.__dict__[attr]), name
