"""Design guards on the library source, read with ``ast``.

* Imports sit at module level: a function-local import would hide an import
  cycle between the library modules.
* The cell order lives in one place: ``itertools.product`` over the letters
  "012" appears only inside ``geometry.words``.
* The certified routes are exact arithmetic up to one final rounding: no
  module of the library imports numpy, so the float engines stay gone and
  numpy stays out of the runtime dependencies.
* Every exact kernel is the limit of a cached level kernel: the limit
  builder ``kernels._kernel_limit`` is the only caller of ``solve_unique``,
  so no hand-built kernel system comes back unnoticed.
* The kernel module runs on integers: no ``Fraction`` is built in
  ``kernels.py`` outside the rational views ``edge_kernel`` and
  ``q_kernel`` and the constant ratio rho a limit is keyed by, so the
  integer solve ``solve_unique`` and the limit builder stay integer.
* Integrals over a whole level come from one side-integral table: no loop
  or comprehension over ``edges_at_level`` integrates its edges one at a
  time.
* Every exact edge integral goes through one route: the Riemann limits are
  built (``_kernel_limit(riemann_kernel, …)``) only by
  ``kernels._int_side_limits``, once, which ``forms._integral``,
  ``side_integral_table`` and ``edge_kernel`` read, so no second per-edge kernel route comes back
  unnoticed.
* Corner values descend once, on integers: no Fraction twin of the walk
  (``descend``, ``triples``, ``graph_energy``) is defined again, and the
  common denominator of the dz counts, ``_dz_den``, is defined only in
  ``forms.py`` beside the table it describes.
* The lacuna rule lives in ``forms.py``: no other module names its prefix
  counts (``_prefix_dz``) or avoiding tails (``_avoiding``), and the dz
  potential is written once, as ``forms._DZ``.
* Every library function the benchmark traces still exists under its
  traced name, so a traced run does not stop at its first patch, and every
  function whose cache it reports still has ``cache_info``.
* Vertices are integer lattice pairs inside the library: a ``Point`` of
  two ``Fraction``s is built only at the API boundary, by
  ``geometry.point`` and ``geometry.parse_vertex_id``.
* A piecewise-harmonic function is one frozen integer table:
  ``VertexFunction``'s fields are ``level``, ``den`` and ``seed``, and no
  library module reads its Point-keyed ``values`` view except
  ``VertexFunction.to_json``.
* Every exported name has a caller: a name ``__init__.py`` imports is
  referenced in ``src/`` outside its own definition and ``__init__.py``, or
  under ``bench/``, or is kept on ``_EXPORTS_WITHOUT_CALLERS`` for a reason,
  so no name that only the tests call is exported again unnoticed.
* The Hodge decomposition, the covering potentials and the perimeter
  identity are exact: the energy bound of the truncation tails,
  ``universal_energy_bound``, is called only by ``periods_up_to`` (for
  ``PeriodVector.level_sum_bound``), so no tail comes back into them.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
from pathlib import Path

import pytest

import gasketforms
from gasketforms.harmonic import VertexFunction

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
    assert {p.name for p in MODULES} >= {"geometry.py", "harmonic.py", "expr.py", "kernels.py", "forms.py"}


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
    assert sites == [("kernels.py", True)]


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_edge_integration_over_a_level(path):
    per_edge = {"integrate_edge", "integrate_path", "_integral", "_exact_count", "_monomial_count"}
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


def test_riemann_limits_are_built_only_by_the_side_limits():
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                sites += [
                    (path.name, fn.name)
                    for n in ast.walk(fn)
                    if _called_name(n) == "_kernel_limit"
                    and any(getattr(a, "id", None) == "riemann_kernel" for a in n.args[:1])
                ]
    assert sites == [("kernels.py", "_int_side_limits")]


def test_kernels_build_fractions_only_in_the_views_and_rho():
    tree = ast.parse((SRC / "kernels.py").read_text())
    names = {"edge_kernel", "q_kernel"}
    views = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
    assert len(views) == 2
    allowed = {id(n) for v in views for n in ast.walk(v)}
    # the ratio rho of a limit is its cache key, handed over as a Fraction
    allowed |= {id(n.args[2]) for n in ast.walk(tree) if _called_name(n) == "_kernel_limit" and len(n.args) == 3}
    stray = [n.lineno for n in ast.walk(tree) if _called_name(n) == "Fraction" and id(n) not in allowed]
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
    assert sites == [("cohomology.py", "periods_up_to")]


def test_one_integer_descent_and_one_dz_denominator():
    gone = {"descend", "triples", "graph_energy", "_dz_den"}
    defined = [
        (path.name, n.name)
        for path in MODULES
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.FunctionDef) and n.name in gone
    ]
    assert defined == [("forms.py", "_dz_den")]


def test_the_lacuna_rule_lives_in_forms():
    """Only ``forms.py`` names the prefix counts and the avoiding tails, and
    no second copy of the dz potential (``_ZETA``, ``_ZETA6``,
    ``dz_cell_triple``) is defined anywhere."""
    private = {"_prefix_dz", "_avoiding"}
    gone = {"_ZETA", "_ZETA6", "dz_cell_triple"}
    refs, defined = [], []
    for path in MODULES:
        for n in ast.walk(ast.parse(path.read_text())):
            names = {getattr(n, "id", None), getattr(n, "attr", None)}
            if isinstance(n, ast.ImportFrom):
                names |= {a.name for a in n.names}
            if names & private and path.name != "forms.py":
                refs.append(f"{path.name}:{n.lineno}")
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in gone:
                defined.append(f"{path.name}:{n.lineno}")
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id in gone:
                defined.append(f"{path.name}:{n.lineno}")
    assert refs == [] and defined == []


def _bench_worker():
    path = SRC.parent.parent / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_bench_trace_targets_resolve():
    """Each (span, owner, attribute) the benchmark worker traces names a
    function the owner defines itself, looked up as the tracer does."""
    targets = _bench_worker()._trace_targets(gasketforms)
    assert targets
    for name, owner, attr, _, _ in targets:
        assert callable(owner.__dict__[attr]), name


def test_bench_caches_resolve():
    """Every library function whose cache the benchmark worker reports
    (``_caches``) still has ``cache_info``."""
    names = {key.rsplit(".", 1)[0] for key in _bench_worker()._caches()}
    assert names
    for name in names:
        module, attr = name.split(".")
        assert hasattr(getattr(getattr(gasketforms, module), attr), "cache_info"), name


def test_points_are_built_only_at_the_api_boundary():
    """Vertices are lattice pairs inside the library: ``geometry.py`` builds
    a Fraction only in ``point`` and ``parse_vertex_id``, and no other
    module builds a Point, directly or through ``point``."""
    tree = ast.parse((SRC / "geometry.py").read_text())
    boundary = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in {"point", "parse_vertex_id"}]
    assert len(boundary) == 2
    allowed = {id(n) for fn in boundary for n in ast.walk(fn)}
    assert [n.lineno for n in ast.walk(tree) if _called_name(n) == "Fraction" and id(n) not in allowed] == []
    stray = [
        f"{path.name}:{n.lineno}"
        for path in MODULES
        if path.name != "geometry.py"
        for n in ast.walk(ast.parse(path.read_text()))
        if _called_name(n) in {"Point", "point"}
    ]
    assert stray == []


def test_vertex_function_is_one_frozen_integer_table():
    """Fields (level, den, seed), frozen; a function's ``values`` view (an
    attribute read, not a dict's ``values()`` call) is read in ``src/`` only
    by ``VertexFunction.to_json``."""
    assert [f.name for f in dataclasses.fields(VertexFunction)] == ["level", "den", "seed"]
    assert VertexFunction.__dataclass_params__.frozen
    reads = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        allowed = {
            id(n)
            for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "VertexFunction"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "to_json"
            for n in ast.walk(fn)
        }
        reads += [
            (path.name, id(n) in allowed)
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "values" and id(n) not in called
        ]
    assert reads == [("harmonic.py", True)]


# exported names that neither the library nor the benchmark calls, kept for
# the reason given
_EXPORTS_WITHOUT_CALLERS = {
    "q_level": "the paper's level energy Q_n",
    "counterexample_form": "the paper's completion counterexample, the oracle of nonorm_q_level",
    "perimeter_identity_check": "the perimeter identity of result (i)",
    "path_to_json": "the inverse of the CLI's path format",
    "dz_integral_edge": "the integral of one lacuna form over one edge, the unit of every dz table",
}


def _referenced(path: Path, skip_own: bool) -> set[str]:
    """The names, attributes and identifier strings a file reads; with
    ``skip_own``, not those inside the top-level definition of the same name."""
    out = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None) if skip_own else None
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                name = n.value  # the benchmark names its trace targets by string
            else:
                continue
            if name != own:
                out.add(name)
    return out


def test_every_export_has_a_caller():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names}
    used = set().union(
        *(_referenced(path, True) for path in MODULES if path.name != "__init__.py"),
        *(_referenced(path, False) for path in (SRC.parent.parent / "bench").glob("*.py")),
    )
    assert sorted(exported - used - set(_EXPORTS_WITHOUT_CALLERS)) == []
    assert sorted(set(_EXPORTS_WITHOUT_CALLERS) - (exported - used)) == []  # no stale reason
