"""Lacuna periods and Hodge skeleton integrals read from one side-integral
table, against the per-edge integration they replace."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketforms import cohomology as coh
from gasketforms import covering as cov
from gasketforms import forms as fm
from gasketforms.certified import CertifiedValue
from gasketforms.errors import DepthTooSmallError, ExactnessUnavailableError, GasketError
from gasketforms.geometry import (
    P0, OrientedEdge, edges_at_level, is_prefix, lacuna_path, validate_path, vertex_id, words,
)
from gasketforms.harmonic import H_MATRICES, harmonic_basis, random_harmonic

F = Fraction
f0, f1, f2 = harmonic_basis()


# ---------------------------------------------------------------------------
# oracles: every lacuna and every skeleton edge integrated on its own
# ---------------------------------------------------------------------------

def _periods_by_paths(form, depth, mode="exact"):
    """Periods as one ``integrate_path`` per lacuna."""
    entries = {}
    for n in range(depth + 1):
        for w in words(n):
            entries[w] = fm.integrate_path(form, lacuna_path(w), mode=mode)
    bound = coh.universal_energy_bound(form)
    if any(len(sigma) > depth for sigma in form.harmonic):
        raise DepthTooSmallError("harmonic support deeper than the requested period depth")
    return coh.PeriodVector(depth, entries, bound)


def _periods_by_table(form, depth):
    """The table route the closed form replaced past the data level: one
    whole-form table at level max(m, depth + 1), coarsened to level 0, each
    period the sum of side i of the child tau+i."""
    D, rows = fm.side_integral_table(form, max(fm._form_data_level(form), depth + 1))
    tables = [rows]
    while len(tables[0]) > 1:
        tables.insert(0, fm._coarsen(tables[0]))
    return {
        w: F(r0[0] + r1[1] + r2[2], D)
        for n in range(depth + 1)
        for w, r0, r1, r2 in zip(words(n), tables[n + 1][0::3], tables[n + 1][1::3], tables[n + 1][2::3])
    }


def _k_tail_bound(level_sum_bound, depth):
    """The truncated route's bound for the level sums of |k| summed over all
    levels past the depth: (25/8)(3/5)^(depth+2)(5/2) times the bound."""
    return F(25, 8) * F(3, 5) ** (depth + 2) * F(5, 2) * level_sum_bound


def _edge_dz_tail(level_sum_bound, depth):
    """The truncated route's bound for the dropped dz terms on one edge."""
    return F(125, 48) * F(3, 5) ** (depth + 2) * level_sum_bound


def _truncated_hodge_by_edges(form, depth, mode="exact"):
    """The truncated Hodge decomposition: k = A* c over the words to the
    depth, every residual edge integrated on its own against every k, the
    dropped tails as radii."""
    periods = _periods_by_paths(form, depth, mode=mode)
    ktail = _k_tail_bound(periods.level_sum_bound, depth)
    k = {}
    for tau in periods.entries:
        acc = CertifiedValue.from_exact(0)
        for sigma, cv in periods.entries.items():
            if is_prefix(tau, sigma):
                acc = acc + cv.scaled(coh.a_entry(sigma, tau))
        k[tau] = CertifiedValue(acc.value, acc.radius + ktail)
    edge_dz_tail = _edge_dz_tail(periods.level_sum_bound, depth)

    def residual_edge(e):
        total = fm.integrate_edge(form, e, mode=mode)
        for tau, kcv in k.items():
            w = fm.dz_integral_edge(tau, e)
            if w != 0:
                total = total - kcv.scaled(w)
        return CertifiedValue(total.value, total.radius + edge_dz_tail)

    potential = _sweep(depth, residual_edge)
    pot_radius = max(cv.radius for cv in potential.values())
    return coh.HodgeDecomposition(depth, k, potential, pot_radius, ktail + pot_radius)


def _sweep(depth, residual_edge):
    """The primitive anchored at p_0, summed along a breadth-first tree of the
    level-depth graph from the residual of each tree edge."""
    adjacency = {}
    for e in edges_at_level(depth):
        adjacency.setdefault(e.source, []).append((e.target, e))
        adjacency.setdefault(e.target, []).append((e.source, e.reversed()))
    potential = {P0: CertifiedValue.from_exact(0)}
    frontier = [P0]
    while frontier:
        nxt = []
        for p in sorted(frontier, key=vertex_id):
            for q, e in sorted(adjacency[p], key=lambda t: vertex_id(t[0])):
                if q not in potential:
                    potential[q] = potential[p] + residual_edge(e)
                    nxt.append(q)
        frontier = nxt
    return potential


def _truncated_k(periods, depth):
    """k^(depth): A* c over the periods of the words up to the depth."""
    k = {}
    for sigma, cv in periods.items():
        if len(sigma) <= depth:
            for j in range(len(sigma) + 1):
                k[sigma[:j]] = k.get(sigma[:j], F(0)) + coh.a_entry(sigma, sigma[:j]) * cv.value
    return k


def _avoiding_sums(k, tau, side, top):
    """[a_n for n = |tau|..top]: a_n sums k over the words tau + r of length n
    whose r avoids the side letter."""
    level, sums = [tau], []
    for _ in range(len(tau), top + 1):
        sums.append(sum((k[w] for w in level), F(0)))
        level = [w + c for w in level for c in "012" if c != str(side)]
    return sums


def _hodge_by_edges(form, depth):
    """The exact decomposition by the closed-form tails: k to the level
    N = max(m, depth) from the de Rham extrapolation
    k = k^(D) + (9/16)(k^(D) - k^(D-1)) at D = N + 1 (the level-n parts of
    A* c shrink by 9/25 per level past max(m, |sigma| + 1)); on a level-depth
    edge the lacuna forms past the depth add -(s/3)(S - k), where the level
    sums a_n of S = sum of a_n shrink by 6/25 per level from N on, so
    S = a_depth + ... + a_(N-1) + (25/19) a_N.  Every residual edge is
    integrated on its own."""
    if any(len(sigma) > depth for sigma in form.harmonic):
        raise DepthTooSmallError("harmonic support deeper than the depth")
    top = max(fm._form_data_level(form), depth)
    periods = coh.periods_up_to(form, top + 1).entries
    kD, kD1 = _truncated_k(periods, top + 1), _truncated_k(periods, top)
    k = {w: kD[w] + F(9, 16) * (kD[w] - kD1[w]) for n in range(top + 1) for w in words(n)}

    def beyond(e):
        a = _avoiding_sums(k, e.cell, e.side, top)
        return -e.sign * (sum(a[:-1], F(0)) + F(25, 19) * a[-1] - k[e.cell]) / 3

    def residual_edge(e):
        total = fm.integrate_edge(form, e).value - beyond(e)
        for tau in k:
            if len(tau) <= depth:
                total -= k[tau] * fm.dz_integral_edge(tau, e)
        return CertifiedValue(total)

    exact_k = {w: CertifiedValue(k[w]) for n in range(depth + 1) for w in words(n)}
    return coh.HodgeDecomposition(depth, exact_k, _sweep(depth, residual_edge), F(0), F(0))


def _det_k(form, word):
    """(2/25) sum of c det[1; F; g] on the cell: k of the universal part on a
    cell at or below its data level."""
    return F(2, 25) * sum(
        (c * _det(Fvf.triple(word), g.triple(word)) for c, Fvf, g in fm._normalized_terms(form) if Fvf is not None),
        F(0),
    )


def _hodge_by_fraction_sweep(form, depth):
    """The S recursion in Fractions: k = (2/25)·det and S = (25/19)·k on the
    cells of level top = max(m, depth), then k_tau = c_tau + (1/3) sum_a
    S(tau+a, a) and S(tau, a) = k_tau + sum_{b != a} S(tau+b, a) up to the
    root, over the ``PeriodVector`` values; the primitive is the tree sweep
    of the residuals table - (prefix k pairing) + S/3 over the level-depth
    graph."""
    if any(len(sigma) > depth for sigma in form.harmonic):
        raise DepthTooSmallError("harmonic support deeper than the depth")
    top = max(fm._form_data_level(form), depth)
    periods = coh.periods_up_to(form, max(top - 1, 0)).entries
    k, S = {}, {}
    for w in words(top):
        k[w] = _det_k(form, w)
        S.update({(w, a): F(25, 19) * k[w] for a in "012"})
    for n in range(top - 1, -1, -1):
        for w in words(n):
            k[w] = periods[w].value + sum((S[w + a, a] for a in "012"), F(0)) / 3
            S.update({(w, a): k[w] + sum((S[w + b, a] for b in "012" if b != a), F(0)) for a in "012"})
    D, rows = fm.side_integrals_at(form, depth)

    def residual_edge(e):
        value = F(e.sign * rows[int(e.cell or "0", 3)][e.side], D)
        value -= sum((k[e.cell[:j]] * fm.dz_integral_edge(e.cell[:j], e) for j in range(depth)), F(0))
        return CertifiedValue(value + e.sign * S[e.cell, str(e.side)] / 3)

    exact_k = {w: CertifiedValue(k[w]) for n in range(depth + 1) for w in words(n)}
    return coh.HodgeDecomposition(depth, exact_k, _sweep(depth, residual_edge), F(0), F(0))


def _pairs(cvs):
    return [(key, cv.value, cv.radius) for key, cv in cvs.items()]


def _sorted_pairs(cvs):
    return sorted(_pairs(cvs), key=lambda t: vertex_id(t[0]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DepthTooSmallError:
        return DepthTooSmallError


# ---------------------------------------------------------------------------
# the table route equals the oracles
# ---------------------------------------------------------------------------

@st.composite
def _forms(draw):
    """(form, depth): F dg at data level m in 0-3 with F an atom or a Sum of
    two levels, a plain c·dg term, lacuna forms on words up to one letter
    longer than the depth, an optional exact part, depth in m-2..m+2."""
    m = draw(st.integers(0, 3))
    depth = draw(st.integers(max(m - 2, 0), m + 2))
    rng = random.Random(draw(st.integers(0, 10**6)))
    u, g = random_harmonic(m, rng, span=5), random_harmonic(m, rng, span=5)
    left = fm.Atom(u)
    if draw(st.booleans()):
        left = fm.Sum([left, fm.Atom(random_harmonic(max(m - 1, 0), rng, span=5))])
    form = fm.fdg(left, g) + fm.fdg(fm.Const(F(rng.randint(-3, 3), 2)), random_harmonic(rng.randint(0, m), rng))
    lengths = draw(st.lists(st.integers(0, depth + 1), max_size=3))
    form = form + fm.SmoothForm(harmonic={
        "".join(rng.choice("012") for _ in range(n)): F(rng.randint(-5, 5), rng.randint(1, 4)) for n in lengths
    })
    if draw(st.booleans()):
        form = form + fm.d(random_harmonic(rng.randint(0, m), rng))
    return form, depth


@settings(max_examples=40)
@given(_forms())
def test_periods_equal_the_path_oracle(case):
    form, depth = case
    got, want = _outcome(coh.periods_up_to, form, depth), _outcome(_periods_by_paths, form, depth)
    if want is DepthTooSmallError:
        assert got is DepthTooSmallError
        return
    assert _pairs(got.entries) == _pairs(want.entries)
    assert got.depth == want.depth and got.level_sum_bound == want.level_sum_bound


def test_periods_past_the_data_level_equal_the_table_and_path_routes():
    """At depths m .. m + 5 the closed form equals the table route and one
    integrate_path per lacuna: a pure lacuna form, a form whose universal
    level (1) is below its lacuna and exact level (2), and f0 df1 at level 0."""
    rng = random.Random(2)
    cases = [
        fm.SmoothForm(harmonic={"": F(1, 5), "1": F(2, 3), "2": F(-1, 4)}),
        fm.fdg(fm.Sum([fm.Atom(random_harmonic(1, rng, span=5)), fm.Atom(f1)]), f2)
        + fm.dz_form("0") + fm.d(random_harmonic(2, rng)),
        fm.fdg(f0, f1),
    ]
    for form in cases:
        m = fm._form_data_level(form)
        paths = _periods_by_paths(form, m + 5).entries
        for depth in range(m, m + 6):
            entries = coh.periods_up_to(form, depth).entries
            got = {w: cv.value for w, cv in entries.items()}
            assert got == _periods_by_table(form, depth)
            assert got == {w: cv.value for w, cv in paths.items() if len(w) <= depth}
            assert all(cv.radius == 0 for cv in entries.values())


def test_periods_build_one_table_at_the_data_level(monkeypatch):
    """One side-integral table per call, at the data level m = 2, at every
    depth below, at and past m."""
    levels = []

    def counted(form, level):
        levels.append(level)
        return fm.side_integral_table(form, level)

    monkeypatch.setattr(coh, "side_integral_table", counted)
    form = fm.fdg(random_harmonic(1, random.Random(4)), f1) + fm.dz_form("1")
    for depth in range(1, 6):
        levels.clear()
        assert len(coh.periods_up_to(form, depth).entries) == (3 ** (depth + 1) - 1) // 2
        assert levels == [2]


@settings(max_examples=25, deadline=None)
@given(_forms())
def test_hodge_equals_the_edge_oracle(case):
    form, depth = case
    depth = min(depth, 3)  # the oracle scans every k on every skeleton edge
    got, want = _outcome(coh.hodge_decompose, form, depth), _outcome(_hodge_by_edges, form, depth)
    if want is DepthTooSmallError:
        assert got is DepthTooSmallError
        return
    assert _pairs(got.k) == _pairs(want.k)
    assert _sorted_pairs(got.potential) == _sorted_pairs(want.potential)
    assert (got.potential_radius, got.residual_bound) == (0, 0)


@settings(max_examples=40, deadline=None)
@given(_forms())
def test_hodge_equals_the_fraction_sweep(case):
    """The integer recursion and descent equal the same recursion in
    Fractions with a tree sweep, value and radius of every k and potential
    entry."""
    form, depth = case
    depth = min(depth, 3)
    got, want = _outcome(coh.hodge_decompose, form, depth), _outcome(_hodge_by_fraction_sweep, form, depth)
    if want is DepthTooSmallError:
        assert got is DepthTooSmallError
        return
    assert _pairs(got.k) == _pairs(want.k)
    assert _sorted_pairs(got.potential) == _sorted_pairs(want.potential)


@settings(max_examples=20, deadline=None)
@given(_forms())
def test_exact_hodge_lies_inside_the_truncated_enclosures(case):
    """The truncated route with its (3/5)^depth tails as radii encloses the
    exact k and primitive."""
    form, depth = case
    depth = min(depth, 3)
    exact = _outcome(coh.hodge_decompose, form, depth)
    truncated = _outcome(_truncated_hodge_by_edges, form, depth)
    if truncated is DepthTooSmallError:
        assert exact is DepthTooSmallError
        return
    assert truncated.k.keys() == exact.k.keys() and truncated.potential.keys() == exact.potential.keys()
    for tau, cv in truncated.k.items():
        assert cv.contains(exact.k[tau].value)
    for p, cv in truncated.potential.items():
        assert cv.contains(exact.potential[p].value)


@settings(max_examples=20, deadline=None)
@given(_forms())
def test_certified_hodge_equals_the_edge_oracle(case):
    """The certified route stays an independent check: the certified
    truncated oracle's k and potential enclose the exact ones, and the
    certified lacuna integrals enclose the exact periods."""
    form, depth = case
    depth = min(depth, 2)
    exact = _outcome(coh.hodge_decompose, form, depth)
    certified = _outcome(_truncated_hodge_by_edges, form, depth, "certified")
    if certified is DepthTooSmallError:
        assert exact is DepthTooSmallError
        return
    periods = coh.periods_up_to(form, depth)
    for w, cv in _periods_by_paths(form, depth, mode="certified").entries.items():
        assert cv.contains(periods.entries[w].value)
    for tau, cv in certified.k.items():
        assert cv.contains(exact.k[tau].value)
    for p, cv in certified.potential.items():
        assert cv.contains(exact.potential[p].value)


def test_certified_routes_are_unchanged():
    """Certified lacuna and edge integration still enclose the exact periods,
    k and potential of a fixed form; the period and Hodge calls take no mode,
    and the Hodge call no tolerance."""
    form = fm.fdg(f0, f1) + fm.SmoothForm(harmonic={"2": F(1, 3)}) + fm.d(f2)
    periods = coh.periods_up_to(form, 2)
    certified = _periods_by_paths(form, 2, mode="certified")
    assert certified.entries.keys() == periods.entries.keys()
    for w, cv in certified.entries.items():
        assert cv.contains(periods.entries[w].value)
    exact, want = coh.hodge_decompose(form, 1), _truncated_hodge_by_edges(form, 1, mode="certified")
    assert want.k.keys() == exact.k.keys() and want.potential.keys() == exact.potential.keys()
    assert all(cv.contains(exact.k[tau].value) for tau, cv in want.k.items())
    assert all(cv.contains(exact.potential[p].value) for p, cv in want.potential.items())
    with pytest.raises(TypeError):
        coh.periods_up_to(form, 2, mode="certified")
    with pytest.raises(TypeError):
        coh.hodge_decompose(form, 1, mode="certified")
    with pytest.raises(TypeError):
        coh.hodge_decompose(form, 1, tolerance=F(1, 10**9))


def test_hodge_builds_one_table(monkeypatch):
    """One table at max(m, depth) = 2, one level shallower than the periods'
    max(m, depth + 1)."""
    levels = []

    def counted(form, level):
        levels.append(level)
        return fm.side_integral_table(form, level)

    def no_period_vector(*args):
        raise AssertionError("hodge_decompose built a PeriodVector")

    form = fm.fdg(f0, f1) + fm.dz_form("1") + fm.d(random_harmonic(2, random.Random(3)))
    want = coh.hodge_decompose(form, 2)
    monkeypatch.setattr(coh, "side_integral_table", counted)
    monkeypatch.setattr(coh, "PeriodVector", no_period_vector)
    got = coh.hodge_decompose(form, 2)
    assert levels == [2]
    assert _pairs(got.k) == _pairs(want.k) and _pairs(got.potential) == _pairs(want.potential)


# ---------------------------------------------------------------------------
# the exact decomposition against the projection route and path integrals
# ---------------------------------------------------------------------------

@st.composite
def _exact_cases(draw):
    """(form, depth): F dg at data level m in 0-3 plus a c·dg term, a lacuna
    form on a word shorter than m and an exact part, each drawn or not, and
    depth in 0..m + 1, at least the lacuna word's length."""
    m = draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    form = fm.fdg(random_harmonic(m, rng, span=5), random_harmonic(rng.randint(0, m), rng, span=5))
    form = form + fm.fdg(fm.Const(F(rng.randint(-3, 3), 2)), random_harmonic(rng.randint(0, m), rng))
    shortest = 0
    if m and draw(st.booleans()):
        word = "".join(rng.choice("012") for _ in range(rng.randint(0, m - 1)))
        form = form + fm.SmoothForm(harmonic={word: F(rng.randint(-5, 5), rng.randint(1, 4))})
        shortest = len(word)
    if draw(st.booleans()):
        form = form + fm.d(random_harmonic(rng.randint(0, m), rng))
    return form, draw(st.integers(shortest, m + 1))


@settings(max_examples=12, deadline=None)
@given(_exact_cases())
def test_every_k_equals_the_projection_route(case):
    form, depth = case
    hd = coh.hodge_decompose(form, depth)
    assert len(hd.k) == (3 ** (depth + 1) - 1) // 2
    for w, cv in hd.k.items():
        assert cv == coh.harmonic_coefficient(form, w), w
    assert hd.potential_radius == 0 and hd.residual_bound == 0


def _level_walk(draw, depth, closed):
    """A walk of up to eight steps on the level-depth graph, closed by a
    shortest way back when asked."""
    adjacency = {}
    for e in edges_at_level(depth):
        adjacency.setdefault(e.source, []).append(e)
        adjacency.setdefault(e.target, []).append(e.reversed())
    vertices = sorted(adjacency, key=vertex_id)
    start = p = vertices[draw(st.integers(0, len(vertices) - 1))]
    walk = []
    for choice in draw(st.lists(st.integers(0, 3), min_size=1, max_size=8)):
        walk.append(adjacency[p][choice % len(adjacency[p])])
        p = walk[-1].target
    if closed and p != start:
        prev, frontier = {p: None}, [p]
        while start not in prev:
            frontier = [x for q in frontier for e in adjacency[q] if e.target not in prev
                        for x in [e.target] if prev.setdefault(x, e) is e]
        back, x = [], start
        while prev[x] is not None:
            back.append(prev[x])
            x = prev[x].source
        walk.extend(reversed(back))
    return validate_path(walk)


@settings(max_examples=25, deadline=None)
@given(_exact_cases(), st.data())
def test_potential_difference_equals_the_path_integral(case, data):
    """On random open and closed walks of the level-depth graph, in both
    orientations, the covering potential gives the path integral exactly."""
    form, depth = case
    hd = coh.hodge_decompose(form, depth)
    for closed in (False, True):
        path = _level_walk(data.draw, depth, closed)
        assert path.closed or not closed
        for P in (path, path.reversed()):
            got = cov.potential_difference(form, P, depth, decomposition=hd)
            assert got.exact and got.value == fm.integrate_path(form, P).value


@settings(max_examples=25, deadline=None)
@given(_exact_cases())
def test_primitive_is_anchored_and_closes_on_every_edge(case):
    """U(p_0) = 0, U is defined once on each vertex of V_depth, and on every
    level-depth edge its difference is the residual of the form against the
    truncated harmonic form and the lacuna forms past the depth."""
    form, depth = case
    hd = coh.hodge_decompose(form, depth)
    assert hd.potential[P0] == CertifiedValue.from_exact(0)
    assert len(hd.potential) == (3 ** (depth + 1) + 3) // 2
    assert all(cv.exact for cv in hd.potential.values())
    harmonic = hd.harmonic_form()
    den, tables = hd.beyond
    for e in edges_at_level(depth):
        past = F(tables[depth][int(e.cell or "0", 3)][e.side], den)
        residual = fm.integrate_edge(form, e).value - fm.integrate_edge(harmonic, e).value - past
        assert hd.potential[e.target].value - hd.potential[e.source].value == residual


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), parts=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_side_table_matches_edge_integrals(level, seed, parts):
    """The whole-form table (universal, lacuna and exact parts, each drawn or
    not, of data level at most ``level``) against one ``integrate_edge`` per
    side, and q_level at every level up to it against the per-edge squares."""
    rng = random.Random(seed)
    universal, harmonic, exact = parts
    form = fm.SmoothForm()
    if universal:
        left = fm.Sum([fm.Atom(random_harmonic(rng.randint(0, level), rng)), fm.Atom(f2)])
        form = form + fm.fdg(left, random_harmonic(rng.randint(0, level), rng))
        form = form + fm.fdg(fm.Const(F(rng.randint(-3, 3), 3)), random_harmonic(rng.randint(0, level), rng))
    if harmonic and level:
        form = form + fm.SmoothForm(harmonic={
            "".join(rng.choice("012") for _ in range(rng.randint(0, level - 1))): F(rng.randint(-5, 5), 4)
            for _ in range(2)
        })
    if exact:
        form = form + fm.d(random_harmonic(rng.randint(0, level), rng))
    D, rows = fm.side_integral_table(form, level)
    assert len(rows) == 3**level
    for e in edges_at_level(level):
        assert F(rows[int(e.cell or "0", 3)][e.side], D) == fm.integrate_edge(form, e).value
    for n in range(level + 1):
        squares = sum((fm.integrate_edge(form, e).value ** 2 for e in edges_at_level(n)), F(0))
        assert fm.q_level(form, n) == F(5, 3) ** n * squares
    with pytest.raises(GasketError):
        fm.side_integral_table(form + fm.fdg(random_harmonic(level + 1, rng), f1), level)


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def test_products_raise_before_any_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(coh, "side_integral_table", no_table)
    form = fm.SmoothForm(terms=(fm.FormTerm(fm.Product([fm.Atom(f0), fm.Atom(f1)]), f2),))
    for call in (coh.periods_up_to, coh.hodge_decompose):
        with pytest.raises(ExactnessUnavailableError):
            call(form, 2)


def test_too_deep_harmonic_word_raises():
    form = fm.fdg(f0, f1) + fm.dz_form("0120")
    for call in (coh.periods_up_to, coh.hodge_decompose):
        with pytest.raises(DepthTooSmallError):
            call(form, 3)
    assert coh.periods_up_to(form, 4).entries["0120"].value != 0


def test_period_and_hodge_work_budget(monkeypatch):
    form = fm.fdg(f0, f1)
    # the refusal comes from the cell count alone: nothing is integrated, although
    # the table of f0 df1 is one cell at every depth
    with monkeypatch.context() as patched:
        patched.setattr(coh, "side_integral_table", lambda *args: pytest.fail("work started"))
        for call in (coh.periods_up_to, coh.hodge_decompose):
            with pytest.raises(GasketError, match="budget"):
                call(form, 30)
        # periods to depth 2 charge 3^3 = 27, so depth 3 is refused
        patched.setattr(fm, "_TABLE_ENTRIES_MAX", 27)
        with pytest.raises(GasketError, match="budget"):
            coh.periods_up_to(form, 3)
    # data of level 3 charges its 27 cells at depth 0
    monkeypatch.setattr(fm, "_TABLE_ENTRIES_MAX", 27)
    assert coh.periods_up_to(form, 2).entries
    assert coh.periods_up_to(fm.fdg(random_harmonic(3, random.Random(1)), f1), 0).entries
    with pytest.raises(GasketError, match="budget"):
        coh.periods_up_to(fm.fdg(random_harmonic(4, random.Random(1)), f1), 0)
    # a Hodge decomposition to depth 2 charges its prefix work, 3^3 · 3 = 81
    with pytest.raises(GasketError, match="budget"):
        coh.hodge_decompose(form, 2)
    monkeypatch.setattr(fm, "_TABLE_ENTRIES_MAX", 81)
    assert coh.hodge_decompose(form, 2).k
    with pytest.raises(GasketError, match="budget"):
        coh.hodge_decompose(form, 3)


def test_negative_depths_are_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(coh, "side_integral_table", no_work)
    monkeypatch.setattr(fm, "side_integral_table", no_work)
    monkeypatch.setattr(cov, "_dz_counts", no_work)
    form = fm.fdg(f0, f1) + fm.dz_form("")
    for call, arg in ((coh.periods_up_to, form), (coh.hodge_decompose, form), (fm.side_integrals_at, form),
                      (fm.q_level, form), (cov.homology_class, lacuna_path("0")),
                      (cov.effective_length, lacuna_path("0")), (cov.dz_path_integrals, lacuna_path("0")),
                      (cov.effective_length, validate_path([OrientedEdge("", 1)]))):
        with pytest.raises(DepthTooSmallError, match="negative"):
            call(arg, -1)


def test_hodge_budget_refuses_depth_11_before_any_work(monkeypatch):
    """3^12 cells fit the table budget, but 3^12 · 12 prefix steps do not;
    the refusal comes before the periods.  The covering set-up depth 4
    (3^5 · 5) stays well inside."""
    form = fm.fdg(f0, f1)
    assert 3**12 <= fm._TABLE_ENTRIES_MAX < 3**12 * 12
    with monkeypatch.context() as patched:
        patched.setattr(coh, "_period_tables", lambda *args, **kwargs: pytest.fail("work started"))
        with pytest.raises(GasketError, match="budget"):
            coh.hodge_decompose(form, 11)
    assert len(coh.hodge_decompose(form, 4).k) == (3**5 - 1) // 2


# ---------------------------------------------------------------------------
# the closed form of periods below the data level
# ---------------------------------------------------------------------------

def _period_kernel():
    """sum over i of H_i^T · edge_kernel(i) · H_i: the lacuna period of F dg
    on a cell as a bilinear form in the corner triples of F and g."""
    return [[
        sum(H_MATRICES[i][j][a] * fm.edge_kernel(i)[j][l] * H_MATRICES[i][l][b]
            for i in range(3) for j in range(3) for l in range(3))
        for b in range(3)] for a in range(3)]


def test_period_kernel_is_32_over_475_times_the_determinant():
    P = _period_kernel()
    ratio = P[0][1]
    assert P == [[0, ratio, -ratio], [-ratio, 0, ratio], [ratio, -ratio, 0]]
    assert ratio == F(32, 475)


def _det(F_t, g_t):
    """det[1, F, g] with the rows (1, 1, 1), F and g."""
    return (F_t[1] * g_t[2] - F_t[2] * g_t[1]) - (F_t[0] * g_t[2] - F_t[2] * g_t[0]) \
        + (F_t[0] * g_t[1] - F_t[1] * g_t[0])


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.integers(0, 2))
def test_periods_below_the_data_level_are_the_determinant(seed, m):
    rng = random.Random(seed)
    terms = [(F(rng.randint(-4, 4), rng.randint(1, 3)), random_harmonic(m, rng, span=5),
              random_harmonic(rng.randint(0, m), rng, span=5)) for _ in range(2)]
    form = fm.SmoothForm()
    for c, Fvf, g in terms:
        form = form + fm.fdg(fm.Product([fm.Const(c), fm.Atom(Fvf)]), g)
    ratio = _period_kernel()[0][1]
    pv = coh.periods_up_to(form, m + 2)
    for tau, cv in pv.entries.items():
        if len(tau) >= m:
            assert cv.value == ratio * sum(c * _det(Fvf.triple(tau), g.triple(tau)) for c, Fvf, g in terms)
