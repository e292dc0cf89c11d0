"""Lacuna periods and Hodge skeleton integrals read from one side-integral
table, against the per-edge integration they replace."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketforms import cohomology as coh
from gasketforms import forms as fm
from gasketforms.certified import CertifiedValue
from gasketforms.errors import DepthTooSmallError, ExactnessUnavailableError, GasketError
from gasketforms.geometry import P0, edges_at_level, is_prefix, lacuna_path, vertex_id, words
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


def _hodge_by_edges(form, depth, mode="exact"):
    """The Hodge decomposition with k = A* c over all pairs of words and
    every residual edge integrated on its own against every k."""
    periods = _periods_by_paths(form, depth, mode=mode)
    ktail = coh.k_tail_bound(periods.level_sum_bound, depth)
    k = {}
    for tau in periods.entries:
        acc = CertifiedValue.from_exact(0)
        for sigma, cv in periods.entries.items():
            if is_prefix(tau, sigma):
                acc = acc + cv.scaled(coh.a_entry(sigma, tau))
        k[tau] = CertifiedValue(acc.value, acc.radius + ktail)
    edge_dz_tail = F(125, 48) * coh.R35 ** (depth + 2) * periods.level_sum_bound

    def residual_edge(e):
        total = fm.integrate_edge(form, e, mode=mode)
        for tau, kcv in k.items():
            w = fm.dz_integral_edge(tau, e)
            if w != 0:
                total = total - kcv.scaled(w)
        return CertifiedValue(total.value, total.radius + edge_dz_tail)

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
    pot_radius = max(cv.radius for cv in potential.values())
    return coh.HodgeDecomposition(depth, k, potential, pot_radius, ktail + pot_radius)


def _hodge_by_fraction_sweep(form, depth):
    """The Hodge decomposition with Fraction arithmetic throughout: k = A* c
    over the ``PeriodVector`` values, and a tree sweep that adds each edge's
    residual integral and tail radius to its parent's."""
    periods = coh.periods_up_to(form, depth)
    D, rows = fm.side_integrals_at(form, depth)
    ktail = coh.k_tail_bound(periods.level_sum_bound, depth)
    kv = dict.fromkeys(periods.entries, F(0))
    for sigma, cv in periods.entries.items():
        for j in range(len(sigma) + 1):
            kv[sigma[:j]] += cv.value * coh.a_entry(sigma, sigma[:j])
    edge_dz_tail = F(125, 48) * coh.R35 ** (depth + 2) * periods.level_sum_bound
    points, steps, W, _, _ = coh._skeleton_tree(depth)
    values, radii = [F(0)], [F(0)]
    for parent, e, weights in steps:
        value = F(e.sign * rows[int(e.cell or "0", 3)][e.side], D)
        for tau, w in weights:
            value -= kv[tau] * F(w, W)
        values.append(values[parent] + value)
        radii.append(radii[parent] + ktail * sum(abs(F(w, W)) for _, w in weights) + edge_dz_tail)
    k = {tau: CertifiedValue(v, ktail) for tau, v in kv.items()}
    potential = {p: CertifiedValue(v, r) for p, v, r in zip(points, values, radii)}
    return coh.HodgeDecomposition(depth, k, potential, max(radii), ktail + max(radii))


def _pairs(cvs):
    return [(key, cv.value, cv.radius) for key, cv in cvs.items()]


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


@settings(max_examples=25)
@given(_forms())
def test_hodge_equals_the_edge_oracle(case):
    form, depth = case
    depth = min(depth, 3)  # the oracle scans every k on every skeleton edge
    got, want = _outcome(coh.hodge_decompose, form, depth), _outcome(_hodge_by_edges, form, depth)
    if want is DepthTooSmallError:
        assert got is DepthTooSmallError
        return
    assert _pairs(got.k) == _pairs(want.k)
    assert _pairs(got.potential) == _pairs(want.potential)
    assert (got.potential_radius, got.residual_bound) == (want.potential_radius, want.residual_bound)


@settings(max_examples=40, deadline=None)
@given(_forms())
def test_hodge_equals_the_fraction_sweep(case):
    """The integer k and skeleton sweep equal the same sweep in Fractions,
    value and radius of every k and potential entry."""
    form, depth = case
    depth = min(depth, 3)
    got, want = _outcome(coh.hodge_decompose, form, depth), _outcome(_hodge_by_fraction_sweep, form, depth)
    if want is DepthTooSmallError:
        assert got is DepthTooSmallError
        return
    assert _pairs(got.k) == _pairs(want.k)
    assert _pairs(got.potential) == _pairs(want.potential)
    assert (got.potential_radius, got.residual_bound) == (want.potential_radius, want.residual_bound)


@settings(max_examples=20, deadline=None)
@given(_forms())
def test_certified_hodge_equals_the_edge_oracle(case):
    """The certified route stays an independent check: the certified edge
    oracle's k and potential enclose the exact ones, and the certified
    lacuna integrals enclose the exact periods."""
    form, depth = case
    depth = min(depth, 2)
    exact = _outcome(coh.hodge_decompose, form, depth)
    certified = _outcome(_hodge_by_edges, form, depth, "certified")
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
    k and potential of a fixed form; the period and Hodge calls take no mode."""
    form = fm.fdg(f0, f1) + fm.SmoothForm(harmonic={"2": F(1, 3)}) + fm.d(f2)
    periods = coh.periods_up_to(form, 2)
    certified = _periods_by_paths(form, 2, mode="certified")
    assert certified.entries.keys() == periods.entries.keys()
    for w, cv in certified.entries.items():
        assert cv.contains(periods.entries[w].value)
    exact, want = coh.hodge_decompose(form, 1), _hodge_by_edges(form, 1, mode="certified")
    assert want.k.keys() == exact.k.keys() and want.potential.keys() == exact.potential.keys()
    assert all(cv.contains(exact.k[tau].value) for tau, cv in want.k.items())
    assert all(cv.contains(exact.potential[p].value) for p, cv in want.potential.items())
    with pytest.raises(TypeError):
        coh.periods_up_to(form, 2, mode="certified")
    with pytest.raises(TypeError):
        coh.hodge_decompose(form, 1, mode="certified")


def test_hodge_builds_one_table(monkeypatch):
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
    assert levels == [3]
    assert _pairs(got.k) == _pairs(want.k) and _pairs(got.potential) == _pairs(want.potential)


@pytest.mark.parametrize("depth", range(5))
def test_skeleton_tree_spans_the_level_graph(depth):
    points, steps, W, spreads, hops = coh._skeleton_tree(depth)
    all_words = [w for n in range(depth + 1) for w in words(n)]
    assert len(points) == len(set(points)) == (3 ** (depth + 1) + 3) // 2
    assert points[0] == P0 and len(steps) == len(points) - 1
    assert len(spreads) == len(hops) == len(points) and spreads[0] == hops[0] == 0
    denominators = set()
    for i, (parent, e, weights) in enumerate(steps, start=1):
        assert parent < i and e.level == depth
        assert (e.source, e.target) == (points[parent], points[i])
        # every dz_tau of |tau| <= depth that does not vanish on the edge, as integers over W
        want = {tau: v for tau in all_words if (v := fm.dz_integral_edge(tau, e)) != 0}
        assert {tau: F(w, W) for tau, w in weights} == want
        assert all(isinstance(w, int) for _, w in weights)
        denominators |= {v.denominator for v in want.values()}
        # the spread of a step is the sum of its absolute weights; the path sums add up
        assert F(spreads[i] - spreads[parent], W) == sum(abs(v) for v in want.values())
        assert hops[i] == hops[parent] + 1
    assert W == math.lcm(*denominators)
    assert coh._skeleton_tree(depth) is coh._skeleton_tree(depth)


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
    # the refusal comes from the cell count alone: nothing is integrated
    for call in (coh.periods_up_to, coh.hodge_decompose):
        with pytest.raises(GasketError, match="budget"):
            call(form, 30)
    # periods to depth 2 need the 27 cells of level 3; data of level 3 needs them at depth 0
    monkeypatch.setattr(coh, "_TABLE_ENTRIES_MAX", 27)
    assert coh.periods_up_to(form, 2).entries
    assert coh.periods_up_to(fm.fdg(random_harmonic(3, random.Random(1)), f1), 0).entries
    with pytest.raises(GasketError, match="budget"):
        coh.periods_up_to(form, 3)
    with pytest.raises(GasketError, match="budget"):
        coh.periods_up_to(fm.fdg(random_harmonic(4, random.Random(1)), f1), 0)
    # a Hodge decomposition to depth 2 charges its prefix work, 3^3 · 3 = 81
    with pytest.raises(GasketError, match="budget"):
        coh.hodge_decompose(form, 2)
    monkeypatch.setattr(coh, "_TABLE_ENTRIES_MAX", 81)
    assert coh.hodge_decompose(form, 2).k
    with pytest.raises(GasketError, match="budget"):
        coh.hodge_decompose(form, 3)


def test_hodge_budget_refuses_depth_11_before_any_work(monkeypatch):
    """3^12 cells fit the table budget, but 3^12 · 12 prefix steps do not;
    the refusal comes before the periods.  The covering set-up depth 4
    (3^5 · 5) stays well inside."""
    form = fm.fdg(f0, f1)
    assert 3**12 <= coh._TABLE_ENTRIES_MAX < 3**12 * 12
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
