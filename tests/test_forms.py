"""Integration of forms and the energy inner product, both routes."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketforms import cohomology as coh
from gasketforms import forms as fm
from gasketforms import kernels as kn
from gasketforms import verify
from gasketforms.certified import CertifiedValue
from gasketforms.errors import ExactnessUnavailableError, GasketError, NonConvergentError
from gasketforms.geometry import (
    OrientedEdge,
    edges_at_level,
    lacuna_path,
    perimeter_path,
    subdivide,
    validate_path,
    words,
)
from gasketforms.harmonic import VertexFunction, harmonic_basis, random_harmonic
from test_harmonic import H_MATRICES

F = Fraction
f0, f1, f2 = harmonic_basis()


# ---------------------------------------------------------------------------
# the lacuna forms
# ---------------------------------------------------------------------------

def test_dz_periods():
    for w in ["", "2", "01"]:
        z = fm.dz_form(w)
        assert fm.integrate_path(z, lacuna_path(w)).value == 1
        assert fm.integrate_path(z, perimeter_path(w)).value == -1
        for e in perimeter_path(w).edges:
            assert fm.integrate_edge(z, e).value == F(-1, 3)


def test_dz_vanishes_off_its_cell():
    z = fm.dz_form("0")
    assert fm.integrate_path(z, perimeter_path("1")).value == 0
    assert fm.integrate_path(z, lacuna_path("2")).value == 0


# ---------------------------------------------------------------------------
# edge integrals
# ---------------------------------------------------------------------------

def test_exact_df_telescopes():
    rng = random.Random(31)
    for _ in range(5):
        u = random_harmonic(rng.randint(0, 2), rng)
        for e in [OrientedEdge("", 1), OrientedEdge("12", 0), OrientedEdge("021", 2, -1)]:
            assert fm.integrate_edge(fm.d(u), e).value == u(e.target) - u(e.source)


def test_reversal_antisymmetry():
    w = fm.fdg(f0, f1)
    for e in [OrientedEdge("", 0), OrientedEdge("10", 2)]:
        assert fm.integrate_edge(w, e).value == -fm.integrate_edge(w, e.reversed()).value


def test_refinement_consistency_exact():
    w = fm.fdg(f0, f1) + fm.dz_form("0")
    for e in [OrientedEdge("", 1), OrientedEdge("2", 0, -1)]:
        a, b = e.children()
        whole = fm.integrate_edge(w, e).value
        assert whole == fm.integrate_edge(w, a).value + fm.integrate_edge(w, b).value


def test_path_additivity_and_cancellation():
    w = fm.fdg(f1, f2)
    p = perimeter_path("1")
    total = fm.integrate_path(w, p).value
    parts = sum(fm.integrate_edge(w, e).value for e in p.edges)
    assert total == parts
    back = p + p.reversed()
    cv = fm.integrate_path(w, back)
    assert cv.value == 0


def test_dyadic_oracle_matches_kernel_riemann():
    """I_n from the refinement-operator kernels equals the raw dyadic
    Riemann enumeration (independent code path)."""
    e = OrientedEdge("", 1)
    for n in (1, 3, 6, 8):
        subs = subdivide(e, n)
        brute = sum(
            f0.triple(s.cell)[(s.side + 1) % 3]
            * (f1.triple(s.cell)[(s.side + 1) % 3] - f1.triple(s.cell)[(s.side + 2) % 3])
            for s in subs
        )
        assert fm._monomial_riemann((f0,), f1, (), e, n) == brute


def test_dyadic_oracle_float_large_n():
    # float enumeration over 2^18 sub-edges against the exact kernel value
    e = OrientedEdge("", 2)
    exact = float(fm.integrate_edge(fm.fdg(f2, f0), e).value)
    a, b = (e.side + 2) % 3, (e.side + 1) % 3
    Hf = np.array([[[float(x) for x in row] for row in H] for H in H_MATRICES])
    arrs = {
        "f": np.array([[float(x) for x in f2.triple(e.cell)]]),
        "g": np.array([[float(x) for x in f0.triple(e.cell)]]),
    }
    for _ in range(18):
        arrs = {k: np.concatenate([v @ Hf[a].T, v @ Hf[b].T]) for k, v in arrs.items()}
    t, s = (e.side + 1) % 3, (e.side + 2) % 3
    approx = float(np.sum(arrs["f"][:, t] * (arrs["g"][:, t] - arrs["g"][:, s])))
    assert abs(approx - exact) < 1e-4


def test_dyadic_oracle_at_depth_24():
    """~1.7e7-term Riemann enumeration of the bottom edge against the exact
    kernel value, within 5e-6 (chunked so memory stays bounded)."""
    e = OrientedEdge("", 1)
    exact = float(fm.integrate_edge(fm.fdg(f0, f1), e).value)
    Hf = np.array([[[float(x) for x in row] for row in H] for H in H_MATRICES])
    a, b = 0, 2
    fa = np.array([[float(x) for x in f0.triple("")]])
    ga = np.array([[float(x) for x in f1.triple("")]])
    for _ in range(9):  # shared prefix depth
        fa = np.concatenate([fa @ Hf[a].T, fa @ Hf[b].T])
        ga = np.concatenate([ga @ Hf[a].T, ga @ Hf[b].T])
    total = 0.0
    chunk = 64
    for i in range(0, len(fa), chunk):
        fc, gc = fa[i : i + chunk], ga[i : i + chunk]
        for _ in range(15):  # remaining depth: 9 + 15 = 24
            fc = np.concatenate([fc @ Hf[a].T, fc @ Hf[b].T])
            gc = np.concatenate([gc @ Hf[a].T, gc @ Hf[b].T])
        total += float(np.sum(fc[:, 2] * (gc[:, 2] - gc[:, 0])))
    assert abs(total - exact) < 5e-6


def test_certified_contains_exact_integral():
    """A certified integral is the exact one rounded once: the nearest float,
    with half an ulp of it as the radius."""
    rng = random.Random(37)
    for _ in range(4):
        u = random_harmonic(rng.randint(0, 1), rng, span=3)
        v = random_harmonic(rng.randint(0, 1), rng, span=3)
        w = fm.fdg(u, v)
        e = OrientedEdge("0", rng.randint(0, 2))
        exact = fm.integrate_edge(w, e).value
        cert = fm.integrate_edge(w, e, mode="certified", tolerance=F(1, 10**5))
        assert cert.contains(exact)
        assert cert.value == float(exact) and cert.radius == F(math.ulp(float(exact))) / 2


def test_certified_containment_is_exact():
    """A point one ulp off the midpoint lies outside the half-ulp radius: no
    float allowance widens the enclosure."""
    w = fm.fdg(f0, f1)
    e = OrientedEdge("", 1)
    exact = fm.integrate_edge(w, e).value
    cv = fm.integrate_edge(w, e, mode="certified", tolerance=F(1, 10**9))
    outside = F(cv.value) + F(math.ulp(cv.value))
    assert cv.radius == F(math.ulp(cv.value)) / 2
    assert cv.contains(exact) and cv.encloses(CertifiedValue.from_exact(exact))
    assert not cv.contains(outside) and not cv.overlaps(CertifiedValue.from_exact(outside))


@pytest.mark.parametrize("cell", ["", "1", "20"])
@pytest.mark.parametrize("side", [0, 1, 2])
def test_certified_reversed_edges(cell, side):
    """Certified integrals enclose the exact one in both orientations, and
    reversing the edge negates the certified value."""
    w = fm.fdg(f0, f1)
    fwd = OrientedEdge(cell, side)
    back = fwd.reversed()
    tol = F(1, 10**4)
    cf = fm.integrate_edge(w, fwd, mode="certified", tolerance=tol)
    cb = fm.integrate_edge(w, back, mode="certified", tolerance=tol)
    assert cf.contains(fm.integrate_edge(w, fwd).value)
    assert cb.contains(fm.integrate_edge(w, back).value)
    assert cb.value == -cf.value and cb.radius == cf.radius


# ---------------------------------------------------------------------------
# the multilinear Riemann kernels: exact level-n sums of edge integrals
# ---------------------------------------------------------------------------

def _at(expr, cell, corner):
    """An expression's value at one corner of a cell, from the atoms' triples."""
    if isinstance(expr, fm.Const):
        return expr.c
    if isinstance(expr, fm.Atom):
        return expr.vf.triple(cell)[corner]
    vals = [_at(t, cell, corner) for t in expr.terms]
    if isinstance(expr, fm.Sum):
        return sum(vals)
    out = F(1)
    for v in vals:
        out *= v
    return out


def _brute_riemann(form, e, n):
    """I_n(e) by enumerating the level-n sub-edges in canonical orientation."""
    total = F(0)
    for sub in subdivide(e, n):
        t, s = (sub.side + 1) % 3, (sub.side + 2) % 3
        for term in form.terms:
            gt = term.g.triple(sub.cell)
            total += sub.sign * _at(term.left, sub.cell, t) * (gt[t] - gt[s]) * _at(term.right, sub.cell, s)
    return total


@st.composite
def _factor(draw, slots: int):
    """A factor with the given number of kernel slots, built as Const, Atom,
    Sum or Product; a Sum or a scaled atom that reduces to one function is
    one slot."""
    rng = random.Random(draw(st.integers(0, 10**6)))

    def vf():
        return fm.Atom(random_harmonic(draw(st.integers(0, 2)), rng, span=5))

    c = fm.Const(F(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
    if slots == 0:
        return c
    if slots == 1:
        return draw(st.sampled_from([vf(), fm.Sum([vf(), vf()]), fm.Product([c, vf()]), fm.Sum([vf(), c])]))
    return draw(st.sampled_from([
        fm.Product([vf(), vf()]),
        fm.Product([fm.Sum([vf(), c]), vf()]),
        fm.Sum([fm.Product([vf(), vf()]), fm.Product([c, vf(), vf()])]),
    ]))


@st.composite
def _shaped_forms(draw, single: bool = False):
    """One term L·dg·R with p slots in L and q in R; with ``single`` only the
    shapes whose L·R is one function (at most one non-constant factor)."""
    if single:
        p, q = draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
    else:
        p, q = draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([0, 1]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    g = random_harmonic(draw(st.integers(0, 2)), rng, span=5)
    return fm.SmoothForm(terms=(fm.FormTerm(draw(_factor(p)), g, draw(_factor(q))),))


edges = st.builds(
    OrientedEdge,
    st.text(alphabet="012", max_size=2),
    st.integers(0, 2),
    st.sampled_from([1, -1]),
)


def _base(form, e):
    return max([e.level] + [max(t.left.max_level(), t.g.level, t.right.max_level()) for t in form.terms])


@settings(max_examples=60)
@given(_shaped_forms(), edges, st.integers(0, 3))
def test_riemann_kernel_matches_enumeration(form, e, n):
    level = _base(form, e) + n
    assert fm.riemann_sum(form, e, level) == _brute_riemann(form, e, level)


@settings(max_examples=10)
@given(_shaped_forms(), edges)
def test_riemann_kernel_matches_float_enumeration_at_12(form, e):
    """Float oracle: corner values grown to level 12 with numpy, summed."""
    Hf = np.array([[[float(x) for x in row] for row in H] for H in H_MATRICES])
    # the side's sub-edges lie in the children s and t of its source and target corners
    s, t = (e.side + 2) % 3, (e.side + 1) % 3
    total = 0.0
    for sub in subdivide(e, _base(form, e)):
        cache = {}

        def grow(vf):
            if id(vf) not in cache:
                arr = np.array([[float(x) for x in vf.triple(sub.cell)]])
                for _ in range(12 - len(sub.cell)):
                    arr = np.concatenate([arr @ Hf[s].T, arr @ Hf[t].T])
                cache[id(vf)] = arr
            return cache[id(vf)]

        def cols(expr, col):
            if isinstance(expr, fm.Const):
                return float(expr.c)
            if isinstance(expr, fm.Atom):
                return grow(expr.vf)[:, col]
            vals = [cols(x, col) for x in expr.terms]
            return sum(vals) if isinstance(expr, fm.Sum) else np.prod(np.broadcast_arrays(*vals), axis=0)

        for term in form.terms:
            G = grow(term.g)
            total += sub.sign * float(np.sum(cols(term.left, t) * (G[:, t] - G[:, s]) * cols(term.right, s)))
    exact = float(fm.riemann_sum(form, e, 12))
    assert abs(exact - total) <= 1e-12 * (1 + abs(exact))


@given(_shaped_forms(), edges)
def test_certified_reversal_is_exact_negation(form, e):
    fwd = fm.integrate_edge(form, e, mode="certified")
    back = fm.integrate_edge(form, e.reversed(), mode="certified")
    assert back.value == -fwd.value and back.radius == fwd.radius


@settings(max_examples=40)
@given(_shaped_forms(), edges)
def test_exact_integral_is_additive_over_children(form, e):
    first, second = e.children()
    assert fm.integrate_edge(form, e).value == (
        fm.integrate_edge(form, first).value + fm.integrate_edge(form, second).value
    )


@settings(max_examples=20)
@given(_shaped_forms(), edges)
def test_certified_children_overlap_the_parent(form, e):
    first, second = (fm.integrate_edge(form, child, mode="certified") for child in e.children())
    assert (first + second).overlaps(fm.integrate_edge(form, e, mode="certified"))


@settings(max_examples=40)
@given(_shaped_forms(single=True), st.text(alphabet="012", max_size=2), st.booleans())
def test_exact_differential_closes_on_perimeters(form, cell, reverse):
    """L·dg·R + g·d(LR) = d(LR·g) integrates to 0 around every cell."""
    (term,) = form.terms
    du = form + fm.fdg(term.g, term.left_total().as_vf())
    path = perimeter_path(cell)
    assert fm.integrate_path(du, path.reversed() if reverse else path).value == 0


@settings(max_examples=30)
@given(st.integers(0, 10**6), st.text(alphabet="012", max_size=2), st.booleans())
def test_product_leibniz_closes_on_perimeters(seed, cell, reverse):
    """LR·dg + gL·dR + gR·dL = d(LRg) integrates to exactly 0 around every
    cell of levels 0-2, with L, R, g piecewise harmonic of levels 0-2."""
    rng = random.Random(seed)
    L, R, g = (fm.Atom(random_harmonic(rng.randint(0, 2), rng, span=5)) for _ in range(3))
    form = sum((fm.fdg(fm.Product([a, b]), c.vf) for a, b, c in ((L, R, g), (g, L, R), (g, R, L))), fm.SmoothForm())
    path = perimeter_path(cell)
    assert fm.integrate_path(form, path.reversed() if reverse else path).value == 0


@pytest.mark.parametrize("side", [0, 1, 2])
def test_bilinear_kernel_matches_fraction_refinement(side):
    """The (p, q) = (1, 0) kernel against M_(n+1) = sum_i H_i^T M_n H_i over
    the side's two child letters, in Fractions."""
    s, t = (side + 2) % 3, (side + 1) % 3
    M = [[F(0)] * 3 for _ in range(3)]
    M[t][t], M[t][s] = F(1), F(-1)
    for n in range(21):
        K = fm.riemann_kernel(side, 1, 0, n)
        assert [[F(K[3 * j + k], 5 ** (2 * n)) for k in range(3)] for j in range(3)] == M
        M = [
            [sum(H[a][j] * M[a][c] * H[c][k] for H in (H_MATRICES[s], H_MATRICES[t])
                 for a in range(3) for c in range(3)) for k in range(3)]
            for j in range(3)
        ]


def test_certified_meets_tolerance_and_reports_a_miss():
    w = fm.fdg(f0, f1)
    e = OrientedEdge("1", 2, -1)
    exact = fm.integrate_edge(w, e).value
    for tol in (F(1, 10**9), F(1, 10**15)):
        cv = fm.integrate_edge(w, e, mode="certified", tolerance=tol)
        assert cv.radius <= tol and abs(F(cv.value) - exact) <= cv.radius
    prod = fm.fdg(fm.Product([fm.Atom(f2), fm.Atom(f0)]), f1)
    assert fm.integrate_edge(prod, e, mode="certified").radius <= F(1, 10**9)
    # a tolerance below half an ulp cannot be met: the radius says so
    miss = fm.integrate_edge(w, e, mode="certified", tolerance=F(0))
    assert miss.radius > 0 and abs(F(miss.value) - exact) <= miss.radius


def test_riemann_budget_refuses_before_building():
    """Past 6 kernel slots or 256 monomials a term is refused before any
    kernel is built; 6 slots are within the budget."""
    e = OrientedEdge("", 1)
    wide = fm.fdg(fm.Product([fm.Atom(f) for f in (f0, f1, f2, f0, f1, f2)]), f1)  # 7 slots
    pair = fm.Sum([fm.Product([fm.Atom(f0), fm.Atom(f1)]), fm.Product([fm.Atom(f1), fm.Atom(f2)])])
    many = fm.fdg(fm.Product([pair] * 9), f1)  # 2^9 monomials
    cached = fm.riemann_kernel.cache_info().currsize
    for w in (wide, many):
        with pytest.raises(GasketError, match="budget"):
            fm.integrate_edge(w, e, mode="certified")
    assert fm.riemann_kernel.cache_info().currsize == cached
    assert len(fm.riemann_kernel(0, 3, 2, 1)) == 3**6


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_certified_path_is_the_exact_sum_rounded_once(rng):
    # one rounding of the exact total: the radius is half an ulp of the sum,
    # not one per edge
    form = fm.fdg(random_harmonic(rng.randint(0, 2), rng), random_harmonic(rng.randint(0, 2), rng))
    form = form + fm.SmoothForm(harmonic={"": F(rng.randint(1, 5), 7)})
    path = perimeter_path(rng.choice(["", "1", "20"]))
    exact = sum((fm.integrate_edge(form, e).value for e in path), F(0))
    cv = fm.integrate_path(form, path, mode="certified")
    assert cv == fm._valued(exact, "certified")
    assert cv.radius == F(math.ulp(float(exact))) / 2 and cv.contains(exact)
    assert fm.integrate_path(form, path).value == exact


def test_trace_property_certified():
    w = fm.fdg(f0, f2)
    left = fm.fdg(fm.Product([fm.Atom(f1), fm.Atom(f0)]), f2)
    right = fm.SmoothForm(terms=(fm.FormTerm(fm.Atom(f0), f2, fm.Atom(f1)),))
    p = perimeter_path("")
    a = fm.integrate_path(left, p, mode="certified")
    b = fm.integrate_path(right, p, mode="certified")
    assert abs(a.value - b.value) <= float(a.radius + b.radius)


def _fraction_kernel_integral(coeff, F_vf, g, e):
    """Exact integral of coeff·F dg (F None for 1) with the Fraction kernels
    ``edge_kernel`` on Fraction triples, one sub-edge at a time."""
    m = max(g.level, F_vf.level if F_vf is not None else 0)
    total = F(0)
    for sub in subdivide(e, max(m, e.level)):
        tg = g.triple(sub.cell)
        tf = F_vf.triple(sub.cell) if F_vf is not None else (1, 1, 1)
        M = fm.edge_kernel(sub.side)
        total += sub.sign * sum(tf[j] * M[j][k] * tg[k] for j in range(3) for k in range(3))
    return coeff * total


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.booleans(), st.text(alphabet="012", max_size=3), st.integers(0, 2),
       st.sampled_from([1, -1]))
def test_integer_kernels_match_fraction_kernels(seed, plain, cell, side, sign):
    """The integer route (``_integral``) of p = 0 and p = 1 monomials
    against the Fraction kernels."""
    rng = random.Random(seed)
    g = random_harmonic(rng.randint(0, 2), rng, span=7)
    F_vf = None if plain else random_harmonic(rng.randint(0, 2), rng, span=7)
    c = F(rng.randint(-9, 9), rng.randint(1, 9))
    e = OrientedEdge(cell, side, sign)
    left = fm.Const(c) if F_vf is None else fm.Product([fm.Const(c), fm.Atom(F_vf)])
    assert fm._integral(fm.fdg(left, g), (e,)) == _fraction_kernel_integral(c, F_vf, g, e)


def _direct_side_limit(i: int, p: int) -> list[Fraction]:
    """The (p, 0) Riemann limit over side i, built from that side's own kernels."""
    den, K = kn._kernel_limit(kn.riemann_kernel, (i, p, 0), F(1, 5 ** (p + 1)))
    return [F(x, den) for x in K]


def test_side_limits_of_one_factor_are_the_edge_kernels():
    for i in range(3):
        assert [x for row in fm.edge_kernel(i) for x in row] == _direct_side_limit(i, 1)


@pytest.mark.parametrize("p", range(4))
def test_side_limits_are_side_zero_turned(p):
    """Sides 1 and 2 of ``_int_side_limits``, read off side 0 by turning
    the corners, equal the limits built from their own Riemann kernels."""
    D, kernels = kn._int_side_limits(p)
    for i in (1, 2):
        assert [F(x, D) for x in kernels[i]] == _direct_side_limit(i, p)


@settings(max_examples=10)
@given(st.integers(0, 10**6), st.text(alphabet="012", max_size=2), st.integers(0, 2), st.sampled_from([1, -1]))
def test_product_monomial_is_additive_over_children(seed, cell, side, sign):
    """A p = 2 monomial integrates over an edge as the sum over its two
    children, both finer than the data level or not."""
    rng = random.Random(seed)
    a, b, g = (random_harmonic(rng.randint(0, 2), rng, span=7) for _ in range(3))
    e = OrientedEdge(cell, side, sign)
    form = fm.fdg(fm.Product([fm.Atom(a), fm.Atom(b)]), g)
    assert fm._integral(form, (e,)) == sum((fm._integral(form, (c,)) for c in e.children()), F(0))


def test_constant_factors_build_no_function(monkeypatch):
    """A term's constant factors (the default right factor ONE included) are
    read as constants: exact edge integration builds no VertexFunction for
    them, and the period and Hodge routes' refusal of products
    (``_normalized_terms``) stays, whichever factor holds the product."""
    rng = random.Random(5)
    u, v = random_harmonic(2, rng), random_harmonic(1, rng)
    e = OrientedEdge("01", 2)
    want = fm.integrate_edge(fm.fdg(u, v), e)

    def refuse(*args):
        raise AssertionError("a constant factor built a VertexFunction")

    monkeypatch.setattr(VertexFunction, "from_boundary", staticmethod(refuse))
    assert fm.integrate_edge(fm.fdg(u, v), e) == want
    product = fm.Product([fm.Atom(u), fm.Atom(v)])
    for left, right in (
        (product, fm.ONE),
        (product, fm.Const(F(2))),
        (fm.Const(F(2)), product),
        (fm.Atom(u), fm.Atom(v)),
    ):
        with pytest.raises(ExactnessUnavailableError, match="two non-constant"):
            fm._normalized_terms(fm.SmoothForm((fm.FormTerm(left, f2, right),)))


def test_a_term_reduces_its_factors_once(monkeypatch):
    """Repeated exact integrals of a term with a constant right factor reduce
    a·b to one function at most once, not once per call."""
    rng = random.Random(9)
    u, v = random_harmonic(2, rng), random_harmonic(1, rng)
    form = fm.SmoothForm((fm.FormTerm(fm.Atom(u), v, fm.Const(F(2))),))
    scale, calls = VertexFunction.scale, []
    monkeypatch.setattr(VertexFunction, "scale", lambda self, c: calls.append(c) or scale(self, c))
    values = {fm.integrate_edge(form, e).value for e in [OrientedEdge("01", 2)] * 3}
    assert values == {2 * fm.integrate_edge(fm.fdg(u, v), OrientedEdge("01", 2)).value}
    assert len(calls) <= 1


def test_exactness_unavailable_for_products():
    """Integrals and Q of products are exact; the period and Hodge routes
    (``_normalized_terms``) still refuse them."""
    w = fm.fdg(fm.Product([fm.Atom(f1), fm.Atom(f0)]), f2)
    e = OrientedEdge("", 1)
    assert fm.integrate_edge(w, e).exact and isinstance(fm.q_inner_exact(w, w), F)
    for route in (lambda: coh.periods_up_to(w, 1), lambda: coh.hodge_decompose(w, 1)):
        with pytest.raises(ExactnessUnavailableError):
            route()


# ---------------------------------------------------------------------------
# path integrals in integers (``_integral``), against independent routes
# ---------------------------------------------------------------------------

def _random_form(rng, products: bool):
    """A form with a lacuna part, an exact part and a one-factor term of
    random levels, plus, with ``products``, a two-factor left factor and a
    right factor."""
    vf = lambda: random_harmonic(rng.randint(0, 2), rng, span=7)  # noqa: E731
    lacunas = ["".join(rng.choice("012") for _ in range(rng.randint(0, 2))) for _ in range(2)]
    form = fm.SmoothForm(harmonic={w: F(rng.randint(-9, 9), rng.randint(1, 9)) for w in lacunas}, exact=vf())
    form = form + fm.fdg(fm.Product([fm.Const(F(rng.randint(-5, 5), 3)), fm.Atom(vf())]), vf())
    if products:
        form = form + fm.fdg(fm.Product([fm.Atom(vf()), fm.Atom(vf())]), vf())
        form = form + fm.SmoothForm((fm.FormTerm(fm.Atom(vf()), vf(), fm.Atom(vf())),))
    return form


def _random_path(rng, level: int, length: int):
    """A consecutive walk of ``length`` edges on the level-``level`` graph."""
    edges = [OrientedEdge(w, i, s) for w in words(level) for i in range(3) for s in (1, -1)]
    walk = [rng.choice(edges)]
    for _ in range(length - 1):
        walk.append(rng.choice([e for e in edges if e.source == walk[-1].target]))
    return validate_path(walk)


def _refined(rng, path, times: int):
    """The path with ``times`` random edges replaced by their two children:
    the same curve through edges of mixed levels."""
    edges = list(path.edges)
    for _ in range(times):
        k = rng.randrange(len(edges))
        edges[k : k + 1] = edges[k].children()
    return validate_path(edges)


def _edge_oracle(form, e) -> F:
    """The exact integral over one edge in Fractions: ``dz_integral_edge``
    per lacuna word, U at the two end points, and each monomial's side
    limits divided out and contracted with the ``triple``s of its factors
    on every sub-edge at the data level."""
    total = sum((k * fm.dz_integral_edge(w, e) for w, k in form.harmonic.items()), F(0))
    if form.exact is not None:
        total += form.exact(e.target) - form.exact(e.source)
    for t in form.terms:
        for c, left in t.monomials():
            slots = (*left, t.g)
            D, kernels = kn._int_side_limits(len(left))
            for sub in subdivide(e, max(e.level, *(f.level for f in slots))):
                triples = [f.triple(sub.cell) for f in slots]
                total += sub.sign * c * sum(
                    F(kernels[sub.side][int("".join(map(str, js)), 3)], D) * math.prod(x[j] for x, j in zip(triples, js))
                    for js in itertools.product(range(3), repeat=len(slots))
                )
    return total


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 1), st.integers(1, 6))
def test_one_level_path_is_the_side_table_sum(rng, above, length):
    """A path whose edges share one level L at or above the data level
    integrates to the signed sum of its edges' ``side_integral_table``
    entries at L."""
    form = _random_form(rng, products=False)
    L = fm._form_data_level(form) + above
    path = _random_path(rng, L, length)
    D, rows = fm.side_integral_table(form, L)
    want = F(sum(e.sign * rows[int(e.cell or "0", 3)][e.side] for e in path), D)
    assert fm.integrate_path(form, path).value == want


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.integers(0, 2), st.integers(1, 4), st.integers(0, 4))
def test_mixed_level_path_matches_the_edge_oracle(rng, products, level, length, refinements):
    """Paths through edges of mixed levels, coarser and finer than the data
    level, against the per-edge Fraction oracle; reversing the path negates
    the value exactly, and cutting it in two splits the value."""
    form = _random_form(rng, products)
    path = _refined(rng, _random_path(rng, level, length), refinements)
    value = fm.integrate_path(form, path).value
    assert value == sum((_edge_oracle(form, e) for e in path), F(0))
    assert fm.integrate_path(form, path.reversed()).value == -value
    k = rng.randrange(len(path) + 1)
    if 0 < k < len(path):
        first, second = validate_path(path.edges[:k]), validate_path(path.edges[k:])
        assert first + second == path
        assert fm.integrate_path(form, first).value + fm.integrate_path(form, second).value == value


def test_integrate_edge_is_the_one_edge_path():
    rng = random.Random(3)
    form = _random_form(rng, products=True)
    for e in (OrientedEdge("", 1), OrientedEdge("0", 2, -1), OrientedEdge("1201", 0)):
        path = validate_path([e])
        for mode in ("exact", "certified"):
            assert fm.integrate_edge(form, e, mode) == fm.integrate_path(form, path, mode)


def test_a_one_slot_monomial_integrates_by_endpoint_differences(monkeypatch):
    """c·dg integrates as c·(g(target) - g(source)), like the exact part: no
    sub-edge at g's level is visited, and the value is the kernel route's."""
    g = random_harmonic(3, random.Random(5))
    form, e = fm.fdg(fm.Const(F(2)), g), OrientedEdge("", 0)
    count, den = fm._monomial_count((g,), (e,), e.level)
    visited = []
    monkeypatch.setattr(fm, "subdivide", lambda *args: visited.append(args) or subdivide(*args))
    assert fm.integrate_edge(form, e).value == 2 * F(count, den) == 2 * (g(e.target) - g(e.source))
    assert visited == []


# ---------------------------------------------------------------------------
# the inner product
# ---------------------------------------------------------------------------

def test_q_equals_energy_on_exact_forms():
    rng = random.Random(41)
    for _ in range(5):
        u = random_harmonic(rng.randint(0, 2), rng)
        assert fm.q_inner_exact(fm.d(u), fm.d(u)) == u.energy()


def test_q_product_table():
    f = (f0, f1, f2)
    for i, j, k in itertools.product(range(3), repeat=3):
        v = fm.q_inner_exact(fm.d(f[i]), fm.fdg(f[j], f[k]))
        if i == j == k:
            assert v == 1
        elif (i == j != k) or (i != j == k):
            assert v == F(-1, 2)
        elif i == k != j:
            assert v == F(1, 2)
        else:
            assert v == 0


def test_q_lacuna_value():
    assert fm.q_inner_exact(fm.dz_form(""), fm.fdg(f0, f1)) == F(1, 15)


def test_q_dz_norm_and_cell_energy_oracle():
    # oracle: three cells, each the energy of a harmonic triple 1/6, 0, -1/6
    cell = F(5, 3) * (F(1, 36) + F(1, 36) + F(1, 9))
    assert 3 * cell == F(5, 6)
    for w in ["", "1", "20"]:
        assert fm.q_inner_exact(fm.dz_form(w), fm.dz_form(w)) == F(5, 6) * F(5, 3) ** len(w)


def test_q_orthogonality():
    rng = random.Random(43)
    for _ in range(6):
        u = random_harmonic(rng.randint(0, 2), rng)
        for w in ["", "0", "12"]:
            assert fm.q_inner_exact(fm.d(u), fm.dz_form(w)) == 0
    pairs = [("", "0"), ("0", "1"), ("01", "02"), ("012", "2"), ("120", "121")]
    for s, t in pairs:
        assert fm.q_inner_exact(fm.dz_form(s), fm.dz_form(t)) == 0


def test_q_bilinear_symmetry():
    a = fm.fdg(f0, f1)
    b = fm.fdg(f2, f1) + fm.dz_form("1")
    assert fm.q_inner_exact(a, b) == fm.q_inner_exact(b, a)


def test_q_certified_contains_exact():
    pairs = [
        (fm.d(f0), fm.fdg(f1, f2)),
        (fm.dz_form("0"), fm.dz_form("0")),
        (fm.fdg(f0, f1), fm.fdg(f0, f1)),
        (fm.d(f1) + fm.dz_form(""), fm.fdg(f2, f0)),
    ]
    for a, b in pairs:
        exact = fm.q_inner_exact(a, b)
        cv = fm.q_inner_certified(a, b, tolerance=F(1, 10**9), max_level=10, strict=False)
        assert cv.contains(exact)


def test_q_certified_is_the_exact_value_rounded_once():
    """Products included, and whatever ``max_level`` says: the nearest float
    to exact Q, with half an ulp of it as the radius."""
    omega = fm.fdg(fm.Product([fm.Atom(f0), fm.Atom(f1)]), f2)
    eta = omega + fm.dz_form("1")
    for a, b in ((omega, omega), (omega, eta)):
        exact = fm.q_inner_exact(a, b)
        want = CertifiedValue(float(exact), F(math.ulp(float(exact))) / 2)
        for max_level in (1, 8, 40):
            assert fm.q_inner_certified(a, b, max_level=max_level) == want


def test_q_certified_strict_raises_below_half_an_ulp():
    """A tolerance below half an ulp is a miss: NonConvergentError when
    strict, else the radius shows it."""
    w = fm.fdg(f0, f1)
    with pytest.raises(NonConvergentError):
        fm.q_inner_certified(w, w, tolerance=F(0))
    assert fm.q_inner_certified(w, w, tolerance=F(0), strict=False).radius > 0
    assert fm.q_inner_certified(w, w, tolerance=F(1, 10**12)).radius <= F(1, 10**12)


# ---------------------------------------------------------------------------
# the exact level sums of Q
# ---------------------------------------------------------------------------

def _brute_edge_value(form, e):
    """omega(e) by endpoint evaluation: the left factors a·b at the target."""
    t, s = (e.side + 1) % 3, (e.side + 2) % 3
    total = fm._integral(fm.SmoothForm(harmonic=form.harmonic, exact=form.exact), (e,))
    for term in form.terms:
        gt = term.g.triple(e.cell)
        total += _at(term.left, e.cell, t) * _at(term.right, e.cell, t) * (gt[t] - gt[s])
    return total


def _brute_level_sum(omega, eta, n):
    return F(5, 3) ** n * sum(
        (_brute_edge_value(omega, e) * _brute_edge_value(eta, e) for e in edges_at_level(n)), F(0)
    )


@st.composite
def _mixed_forms(draw):
    """A product left factor (on the left or split across both sides), a
    one-factor term, lacuna forms and an exact part, at data levels 0-2."""
    rng = random.Random(draw(st.integers(0, 10**6)))

    def vf():
        return random_harmonic(draw(st.integers(0, 2)), rng, span=5)

    a, b = fm.Atom(vf()), fm.Atom(vf())
    prod = fm.FormTerm(fm.Product([a, b]), vf()) if draw(st.booleans()) else fm.FormTerm(a, vf(), b)
    lac = {draw(st.text(alphabet="012", max_size=1)): F(rng.randint(-5, 5), rng.randint(1, 5))}
    form = fm.SmoothForm((prod, fm.FormTerm(fm.Atom(vf()), vf())), lac, vf())
    return form, fm._form_data_level(form)


@settings(max_examples=15)
@given(_mixed_forms(), _mixed_forms())
def test_q_level_sums_match_endpoint_enumeration(first, second):
    (omega, m1), (eta, m2) = first, second
    m = max(m1, m2)
    for a, b in ((omega, omega), (omega, eta)):
        level_sum = fm.q_level_sums(a, b, m)
        for n in range(m, m + 3):
            assert level_sum(n) == _brute_level_sum(a, b, n)


@settings(max_examples=10)
@given(_mixed_forms(), _mixed_forms())
def test_q_certified_is_exactly_symmetric(first, second):
    (omega, _), (eta, _) = first, second
    ab = fm.q_inner_certified(omega, eta, max_level=6, strict=False)
    ba = fm.q_inner_certified(eta, omega, max_level=6, strict=False)
    assert ab.value == ba.value and ab.radius == ba.radius


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.text(alphabet="012", max_size=2), st.text(alphabet="012", max_size=2))
def test_q_certified_lacuna_and_exact_forms_meet_the_tolerance(seed, s, t):
    """Without left factors the level sums are constant, so one level gives Q
    and the radius is the rounding alone."""
    rng = random.Random(seed)
    omega = fm.dz_form(s).scaled(F(rng.randint(1, 9), 7)) + fm.d(random_harmonic(rng.randint(0, 2), rng))
    eta = fm.dz_form(t) + fm.d(random_harmonic(rng.randint(0, 2), rng))
    for a, b in ((omega, omega), (omega, eta)):
        cv = fm.q_inner_certified(a, b)
        assert cv.radius <= math.ulp(cv.value)
        assert abs(F(cv.value) - fm.q_inner_exact(a, b)) <= cv.radius


def test_q_budget_refuses_before_building():
    """Q of a product of three factors with itself needs 8 kernel slots and is
    refused before any kernel is built; 6 slots are within the budget."""
    triple = fm.fdg(fm.Product([fm.Atom(f0), fm.Atom(f1), fm.Atom(f2)]), f1)
    cached = fm.q_level_kernel.cache_info().currsize
    with pytest.raises(GasketError, match="budget"):
        fm.q_inner_certified(triple, strict=False)
    assert fm.q_level_kernel.cache_info().currsize == cached
    assert len(fm.q_level_kernel(3, 1, 1)) == 3**6


def test_a_cold_deep_level_kernel_is_built_in_a_loop():
    """A level past the interpreter's recursion limit, asked for cold, gives
    the same sum as the levels read in increasing order: each cached level
    kernel reads its lower levels from the cache bottom up, not by one
    recursive frame per missing level.  Both on the (0, 0) shape."""
    e = OrientedEdge("", 0)
    calls = (
        (kn.q_level_kernel, (0, 0), fm.q_level_sums(fm.d(f1), fm.d(f1), 0)),
        (kn.riemann_kernel, (0, 0, 0), lambda n: fm.riemann_sum(fm.fdg(fm.ONE, f1), e, n)),
    )
    for kernel, shape, level_sum in calls:
        kernel.cache_clear()
        cold = level_sum(1200)
        kernel.cache_clear()
        for j in range(1201):
            kernel(*shape, j)
        assert level_sum(1200) == cold
        kernel.cache_clear()


def test_q_rescaling_identity():
    for w in ["0", "2", "01"]:
        lhs = fm.q_inner_exact(fm.dz_form(w), fm.fdg(f0, f1))
        pull_f = VertexFunction.from_boundary(*f0.triple(w))
        pull_g = VertexFunction.from_boundary(*f1.triple(w))
        rhs = F(5, 3) ** len(w) * fm.q_inner_exact(fm.dz_form(""), fm.fdg(pull_f, pull_g))
        assert lhs == rhs


def test_q_level_stabilizes_for_locally_exact_forms():
    z = fm.dz_form("")
    assert fm.q_level(z, 1) == F(5, 6)
    assert fm.q_level(z, 2) == F(5, 6)


def test_side_table_budget_refuses_before_any_walk(monkeypatch):
    """The side-integral table charges its 3^level cells before any walk:
    level 12 fits the budget, level 13 is refused, also when q_level and
    side_integrals_at reach it from a coarse form."""
    assert 3**12 <= fm._TABLE_ENTRIES_MAX < 3**13
    form = fm.fdg(f0, f1)
    q2 = fm.q_level(form, 2)

    def no_walk(self, n):
        raise AssertionError("cells walked before the budget check")

    with monkeypatch.context() as patched:
        patched.setattr(VertexFunction, "_levels", no_walk)
        for call in (fm.q_level, fm.side_integrals_at, fm.side_integral_table):
            for level in (13, 40, 10**6):
                with pytest.raises(GasketError, match="budget"):
                    call(form, level)
    monkeypatch.setattr(fm, "_TABLE_ENTRIES_MAX", 9)
    assert fm.q_level(form, 2) == q2
    with pytest.raises(GasketError, match="budget"):
        fm.q_level(form, 3)


# ---------------------------------------------------------------------------
# the completion counterexample (``verify``), against per-edge walkers
# ---------------------------------------------------------------------------

def counterexample_integral(n: int, e: OrientedEdge) -> Fraction:
    """Exact edge integral of the n-exact form, straight from its potentials."""
    g = verify._slope_function()
    scale = F(1, 2**n)

    def walk(edge: OrientedEdge) -> Fraction:
        word = edge.cell
        if len(word) >= n:
            if "1" in word[:n]:
                return F(0)
            t = g.triple(word[n:])
            return scale * (t[(edge.side + 1) % 3] - t[(edge.side + 2) % 3]) * edge.sign
        a, b = edge.children()
        return walk(a) + walk(b)

    return walk(e)


def limit_assignment_integral(e: OrientedEdge) -> Fraction:
    """The edge assignment 2^-k on the bottom edges w_sigma(e_1),
    sigma in {0,2}^k, zero elsewhere (the norm-completion limit object)."""
    if e.side != 1 or "1" in e.cell:
        return F(0)
    return F(e.sign, 2 ** len(e.cell))


def nonorm_qdiff_brute(n: int, k: int) -> Fraction:
    """Q_k[limit - omega_n] over all of E_k, edge by edge."""
    total = sum(((limit_assignment_integral(e) - counterexample_integral(n, e)) ** 2 for e in edges_at_level(k)), F(0))
    return F(5, 3) ** k * total


def test_counterexample_matches_potentials():
    for n in (1, 2):
        w = verify.counterexample_form(n)
        for word, side in [("", 0), ("", 1), ("0", 2), ("21", 1)]:
            e = OrientedEdge(word, side)
            assert fm.integrate_edge(w, e).value == counterexample_integral(n, e)


def test_counterexample_factorization_vs_brute():
    """Both routes of Q_k[limit - omega_n], the coarsened level-n table below
    n and the shared support-cell sum from n on, equal the edge walk."""
    for n in range(1, 5):
        for k in range(n + 3):
            assert verify.nonorm_q_level_diff(n, k) == nonorm_qdiff_brute(n, k), (n, k)


def test_counterexample_level_values():
    for n in (1, 3):
        for k in range(n, n + 3):
            assert verify.nonorm_q_level(n, k) == F(3, 2) * F(5, 6) ** n
    assert verify.nonorm_q_level_diff(3, 1) == F(1, 2) * F(10, 3) * F(4) ** -3


def test_counterexample_generic_q_route():
    """Q_k[omega_n] by both routes equals the generic ``q_level`` of the form
    and the edge walk."""
    w = verify.counterexample_form(1)
    assert fm.q_level(w, 1) == F(3, 2) * F(5, 6)
    assert fm.q_level(w, 2) == F(3, 2) * F(5, 6)
    for n in range(1, 5):
        w = verify.counterexample_form(n)
        for k in range(n + 3):
            walked = F(5, 3) ** k * sum((counterexample_integral(n, e) ** 2 for e in edges_at_level(k)), F(0))
            assert verify.nonorm_q_level(n, k) == walked == fm.q_level(w, k), (n, k)


@pytest.mark.parametrize("n, k", [(14, 0), (14, 13), (1, 15)])
def test_counterexample_refuses_tables_over_the_budget(n, k, monkeypatch):
    """A level sum whose table has more than the budget of cells (3^n below
    level n, 3^(k - n) from n on) is refused before any table is built."""

    def no_work(*args):
        raise AssertionError("table built before the budget check")

    monkeypatch.setattr(verify, "words", no_work)
    monkeypatch.setattr(verify, "_slope_function", no_work)
    for level_sum in (verify.nonorm_q_level, verify.nonorm_q_level_diff):
        with pytest.raises(GasketError, match="budget"):
            level_sum(n, k)


def test_counterexample_form_refuses_before_any_work(monkeypatch):
    """omega_n walks 2^n·3^(n+1) cells: n = 7 is within the table budget and
    n >= 8 is refused before any walk."""
    assert 2**7 * 3**8 <= fm._TABLE_ENTRIES_MAX < 2**8 * 3**9

    def no_work(*args):
        raise AssertionError("cells walked before the budget check")

    monkeypatch.setattr(verify, "words", no_work)
    for n in (8, 9, 10**6):
        with pytest.raises(GasketError, match="budget"):
            verify.counterexample_form(n)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_invalid_lacuna_words_are_refused():
    """A lacuna word with a letter outside 0, 1, 2 is refused when the form is
    built, from JSON too, and by the public dz integrals."""
    for bad in ("9", "0x", "12 ", 9):
        with pytest.raises(GasketError, match="invalid word"):
            fm.SmoothForm(harmonic={bad: F(1)})
        with pytest.raises(GasketError, match="invalid word"):
            fm.dz_form(bad)
        with pytest.raises(GasketError, match="invalid word"):
            fm.dz_integral_edge(bad, OrientedEdge("0", 1))
        with pytest.raises(GasketError, match="invalid word"):
            fm.dz_integral_path(bad, lacuna_path(""))
    with pytest.raises(GasketError, match="invalid word"):
        fm.SmoothForm.from_json({"harmonic": [["9", "1"]]})


def test_form_json_roundtrip():
    w = fm.fdg(f0, f1) + fm.dz_form("01").scaled(F(3, 7)) + fm.d(f2)
    back = fm.SmoothForm.from_json(w.to_json())
    e = OrientedEdge("1", 2)
    assert fm.integrate_edge(back, e).value == fm.integrate_edge(w, e).value
    assert back.harmonic == w.harmonic
