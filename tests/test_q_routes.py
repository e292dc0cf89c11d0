"""Exact Q against its per-cell oracle and its one-level contraction (Q by
parts), Q's algebraic properties on products, the exact level sums (Riemann
and Q) against the exact values within their geometric tail bounds, and the
exact one-cell kernels."""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gasketforms import forms as fm
from gasketforms import kernels as kn
from gasketforms.errors import GasketError
from gasketforms.geometry import OrientedEdge
from gasketforms.harmonic import VertexFunction, harmonic_basis, random_harmonic
from test_certified import sqrt_upper

F = Fraction
F0 = F(0)
R35, R53 = F(3, 5), F(5, 3)
f0, f1, f2 = harmonic_basis()


# ---------------------------------------------------------------------------
# oracle: exact Q cell by cell and piece pair by piece pair, for pieces with
# at most one left factor
# ---------------------------------------------------------------------------

def graph_energy(u, v):
    """Level-0 bilinear graph energy summed over the three edges of a triangle."""
    return (
        (u[0] - u[1]) * (v[0] - v[1])
        + (u[1] - u[2]) * (v[1] - v[2])
        + (u[0] - u[2]) * (v[0] - v[2])
    )


def _pair_energy(u, vals):
    """E(u, v) through the vertex-Laplacian weights 2u_j - u_(j+1) - u_(j+2)
    of the harmonic triple u."""
    return sum((2 * u[j] - u[(j + 1) % 3] - u[(j + 2) % 3]) * vals[j] for j in range(3))


def _single_slot_q(g, h, k):
    """Q(dg, h dk) on one cell of 0-harmonic data, via the carre-du-champ
    identity; exact because all three pairings see a harmonic slot."""
    e1 = _pair_energy(g, [h[j] * k[j] for j in range(3)])
    e2 = _pair_energy(h, [g[j] * k[j] for j in range(3)])
    e3 = _pair_energy(k, [h[j] * g[j] for j in range(3)])
    return Fraction(e1 - e2 + e3, 2)


def _quad_q(F1t, g, F2t, k):
    W = fm.q_kernel()
    acc = F0
    for (a, b, c, dd), w in zip(itertools.product(range(3), repeat=4), W):
        acc += F1t[a] * g[b] * F2t[c] * k[dd] * w
    return acc


def _cell_pieces(form, m):
    """The form's pieces (c, left-factor triples, g triple) on every level-m
    cell in word order, c carrying the integer triples' denominators: one
    per monomial of a term's a·b, one per lacuna form on each cell inside
    C_sigma, and one for the exact part."""
    cells = [[] for _ in range(3**m)]

    def add(c, tables, start=0):
        c /= math.prod(den for den, _ in tables)
        for pieces, *ts in zip(cells[start:], *(table for _, table in tables)):
            pieces.append((c, tuple(ts[:-1]), ts[-1]))

    for t in form.terms:
        g = t.g.int_triples(m)
        for c, left in t.monomials():
            add(c, [f.int_triples(m) for f in left] + [g])
    for sigma, k in form.harmonic.items():
        if k:
            for start, (den, table, _) in fm._dz_cells(sigma, m):
                add(k, [(den, table)], start)
    if form.exact is not None:
        add(F(1), [form.exact.int_triples(m)])
    return cells


def exact_oracle(omega, eta):
    m = max(fm._form_data_level(omega), fm._form_data_level(eta))
    cells1, cells2 = _cell_pieces(omega, m), _cell_pieces(eta, m)
    total = F0
    for p1, p2 in zip(cells1, cells2):
        for c1, f1_, g1 in p1:
            for c2, f2_, g2 in p2:
                if not f1_ and not f2_:
                    val = graph_energy(g1, g2)
                elif not f1_:
                    val = _single_slot_q(g1, *f2_, g2)
                elif not f2_:
                    val = _single_slot_q(g2, *f1_, g1)
                else:
                    val = _quad_q(*f1_, g1, *f2_, g2)
                total += c1 * c2 * val
    return R53**m * total


def single_level_q(omega, eta):
    """Exact Q with both whole forms cut at one common level m: for each pair
    of left-factor counts, one moment per entry pair of the two shape
    tensors summed over every level-m cell, contracted with the one-cell
    kernel."""
    m = max(fm._form_data_level(omega), fm._form_data_level(eta))
    D1, tensors1 = fm._shape_tensors(omega, m)
    D2, tensors2 = fm._shape_tensors(eta, m)
    total = F0
    for p, A in tensors1.items():
        for r, B in tensors2.items():
            kden, K = kn._exact_q_kernel(p, r)
            moments = [sum(map(operator.mul, a, b)) for a in zip(*A) for b in zip(*B)]
            total += F(sum(map(operator.mul, K, moments)), kden)
    return R53**m * total / (D1 * D2)


# ---------------------------------------------------------------------------
# tail-bound oracles: how far the exact level sums (``riemann_sum``,
# ``q_level_sums``) may lie from the limit, from the factors' sups,
# oscillations and energies (the geometric (3/5)^n bounds)
# ---------------------------------------------------------------------------

def _sup(x):
    """An upper bound for sup |x|."""
    if isinstance(x, fm.Const):
        return abs(x.c)
    if isinstance(x, fm.Product):
        return math.prod((_sup(t) for t in x.terms), start=F(1))
    vf = x.as_vf()
    if vf is not None:
        return max(abs(v) for v in vf.values.values())
    return sum(_sup(t) for t in x.terms)


def _energy(x):
    """An upper bound for the energy of x; a product folds the Dirichlet-
    algebra bound E[uv] <= 2(|u|^2 E[v] + |v|^2 E[u])."""
    if isinstance(x, fm.Const):
        return F0
    vf = x.as_vf()
    if vf is not None:
        return vf.energy()
    if isinstance(x, fm.Sum):
        return len(x.terms) * sum(_energy(t) for t in x.terms)
    e, s = _energy(x.terms[0]), _sup(x.terms[0])
    for t in x.terms[1:]:
        e, s = 2 * (s * s * _energy(t) + _sup(t) ** 2 * e), s * _sup(t)
    return e


def _osc(x):
    """An upper bound for the oscillation of x over the gasket."""
    if isinstance(x, fm.Const):
        return F0
    if isinstance(x, fm.Product):
        return sum(
            math.prod((_sup(u) for j, u in enumerate(x.terms) if j != i), start=F(1)) * _osc(t)
            for i, t in enumerate(x.terms)
        )
    vf = x.as_vf()
    if vf is not None:
        return max(vf.values.values()) - min(vf.values.values())
    return sum(_osc(t) for t in x.terms)


def _osc_rate(x, n):
    """An upper bound for the oscillation of x on any level-n cell."""
    if x.as_const() is not None:
        return F0
    if isinstance(x, fm.Atom):
        return _osc(x) * R35 ** (n - x.max_level())
    if isinstance(x, fm.Sum):
        return sum(_osc_rate(t, n) for t in x.terms)
    return sum(
        math.prod((_sup(u) for j, u in enumerate(x.terms) if j != i), start=F(1)) * _osc_rate(t, n)
        for i, t in enumerate(x.terms)
    )


def _defect(x, n):
    """An upper bound for E[x] - E_n[x], the energy above the level-n
    harmonic interpolant: zero for piecewise-harmonic x, (3/5)^(2n)-small
    for products of such."""
    if x.as_vf() is not None:
        return F0
    if isinstance(x, fm.Sum):
        return 2 * sum(_defect(t, n) for t in x.terms)
    facts = [t for t in x.terms if t.as_const() is None]
    cmul = math.prod((abs(t.as_const()) for t in x.terms if t.as_const() is not None), start=F(1))
    rho = R35 ** (n - max(t.max_level() for t in facts))
    k = len(facts)
    subsets = [S for size in range(2, k + 1) for S in itertools.combinations(range(k), size)]
    total = F0
    for S in subsets:
        outside = math.prod((_sup(facts[j]) ** 2 for j in range(k) if j not in S), start=F(1))
        inner = sum(
            math.prod((_osc(facts[j]) ** 2 for j in S if j != i), start=F(1)) * _energy(facts[i]) for i in S
        )
        total += outside * 4 ** len(S) * inner * rho ** (2 * (len(S) - 1))
    return cmul * cmul * (len(subsets) + 1) * total


def _q_terms(form):
    """(coefficient, left factor or None, level, energy, oscillation of the
    differentiated function) per part of the form."""
    out = []
    for t in form.terms:
        left = t.left_total()
        out.append((F(1), None if left.as_const() == 1 else left, t.g.level, t.g.energy(), _osc(fm.Atom(t.g))))
    for sigma, k in form.harmonic.items():
        if k:
            out.append((k, None, len(sigma) + 1, F(5, 6) * R53 ** len(sigma), F(1, 3)))
    if form.exact is not None:
        U = form.exact
        out.append((F(1), None, U.level, U.energy(), _osc(fm.Atom(U))))
    return out


def q_tail_bound(omega, eta, n):
    """A bound for |Q(omega, eta) - Q~_n|, pair of parts by pair: a pair
    with a left factor F (one side's, or the product of both) adds
    |c c'|·(sqrt(dgk·defect_F)/2 + osc_F·sqrt(E_g·E_k)/2)."""
    total = F0
    for c1, l1, lv1, e1, o1 in _q_terms(omega):
        for c2, l2, lv2, e2, o2 in _q_terms(eta):
            parts = [x for x in (l1, l2) if x is not None]
            if not parts:
                continue
            F_ = parts[0] if len(parts) == 1 else fm.Product(parts)
            dgk = 2 * ((o1 * R35 ** (n - lv1)) ** 2 * e2 + (o2 * R35 ** (n - lv2)) ** 2 * e1)
            total += abs(c1 * c2) * (
                sqrt_upper(dgk * _defect(F_, n)) / 2 + _osc_rate(F_, n) * sqrt_upper(e1 * e2) / 2
            )
    return total


def riemann_tail_bound(form, n):
    """A bound for |I - I_n| over any edge: (3/2)(3/5)^n·K, K the sum over
    terms a·dg·b of |a| sqrt(E[g]E[b]) + |b| sqrt(E[a]E[g])."""
    K = F0
    for t in form.terms:
        Eg = t.g.energy()
        K += _sup(t.left) * sqrt_upper(Eg * _energy(t.right)) + _sup(t.right) * sqrt_upper(_energy(t.left) * Eg)
    return F(3, 2) * R35**n * K


# ---------------------------------------------------------------------------
# forms: data levels 0-2, Sum left factors, lacuna words of length 0-2, an
# optional exact part; with products, also a product of two functions
# ---------------------------------------------------------------------------

def _forms(products: bool):
    @st.composite
    def draw_form(draw):
        rng = random.Random(draw(st.integers(0, 10**6)))

        def vf():
            return random_harmonic(draw(st.integers(0, 2)), rng, span=5)

        kinds = ["atom", "sum", "const"] + (["product"] if products else [])

        def left():
            kind = draw(st.sampled_from(kinds))
            if kind == "atom":
                return fm.Atom(vf())
            if kind == "sum":
                return fm.Sum([fm.Atom(vf()), fm.Atom(vf())])
            if kind == "const":
                return fm.Const(F(rng.randint(-5, 5), rng.randint(1, 5)))
            return fm.Product([fm.Atom(vf()), fm.Atom(vf())])

        terms = tuple(fm.FormTerm(left(), vf()) for _ in range(draw(st.integers(int(products), 2))))
        words = draw(st.lists(st.text(alphabet="012", max_size=2), max_size=2))
        lacunas = {w: F(rng.randint(-5, 5), rng.randint(1, 5)) for w in words}
        exact = vf() if draw(st.booleans()) else None
        return fm.SmoothForm(terms, lacunas, exact)

    return draw_form()


@given(_forms(products=False), _forms(products=False))
def test_exact_q_equals_the_per_cell_oracle(omega, eta):
    for a, b in ((omega, eta), (eta, omega), (omega, omega)):
        assert fm.q_inner_exact(a, b) == exact_oracle(a, b)


@settings(max_examples=40)
@given(_forms(products=True), _forms(products=True), st.text(alphabet="012", min_size=3, max_size=3))
def test_q_by_parts_equals_the_single_level_contraction(omega, eta, word):
    """Each pair of parts at its own level and on its shared cells sums to
    the one-level contraction; the deeper lacuna form puts the parts of
    ``deep`` at least two levels apart, and ``twins`` holds two lacuna words
    of one length below their common prefix."""
    deep = omega + fm.dz_form(word).scaled(F(-2, 7))
    twins = fm.SmoothForm(harmonic={word + "0": F(1, 3), word[:2] + "12": F(-2, 5)})
    pairs = ((omega, eta), (eta, omega), (omega, omega), (deep, eta), (eta, deep), (deep, deep),
             (twins, eta), (deep + twins, deep + twins))
    for a, b in pairs:
        assert fm.q_inner_exact(a, b) == single_level_q(a, b)


@settings(max_examples=40)
@given(_forms(products=True), st.text(alphabet="012", max_size=4), st.integers(0, 2))
def test_shape_tensors_below_a_root_are_the_whole_level_sliced(form, root, extra):
    """Below a root, each function is walked from the root's own triple, or
    from its slice of the level seed when the root is coarser: the tensors
    are the whole-level walk's rows below the root, as rationals."""
    m = max(fm._form_data_level(form), len(root)) + extra
    D, tensors = fm._shape_tensors(form, m, root)
    Dw, whole = fm._shape_tensors(form, m)
    count = 3 ** (m - len(root))
    first = int(root or "0", 3) * count
    assert tensors.keys() <= whole.keys()
    for p, rows in whole.items():
        got = tensors.get(p, [[0] * 3 ** (p + 1)] * count)
        assert [[F(x, D) for x in r] for r in got] == [[F(x, Dw) for x in r] for r in rows[first : first + count]]


def test_shape_tensors_walk_only_below_a_deep_root(monkeypatch):
    """Q against dz_sigma for |sigma| = 10 reads the three level-11 cells
    inside C_sigma: no function walks a level wider than that, and a lacuna
    part above the root (dz_"") builds no whole-subtree dz table."""
    widths, tables = [], []
    levels = VertexFunction._levels
    dz_table = fm._dz_table

    def counted(self, n, root=""):
        for rows in levels(self, n, root):
            widths.append(len(rows))
            yield rows

    monkeypatch.setattr(VertexFunction, "_levels", counted)
    monkeypatch.setattr(fm, "_dz_table", lambda i, depth: tables.append(depth) or dz_table(i, depth))
    deep = fm.dz_form("0" * 10)
    for omega in (fm.fdg(f0, f1), fm.dz_form("")):
        assert fm.q_inner_exact(deep, omega) == fm.q_inner_exact(omega, deep)
    assert widths and max(widths) == 3
    assert tables and set(tables) == {0}


@given(st.dictionaries(st.text("012", max_size=3), st.integers(1, 9), min_size=1, max_size=3),
       st.text("012", max_size=4))
def test_shape_tensors_below_a_root_slice_the_whole_table(lacunas, root):
    """A lacuna form's tensors below any root are the rows of its whole
    table on the cells below that root (the walk below a deep root included)."""
    form = fm.SmoothForm(harmonic={s: F(k) for s, k in lacunas.items()})
    m = max(max(map(len, lacunas)) + 1, len(root))
    D, whole = fm._shape_tensors(form, m)
    Dr, below = fm._shape_tensors(form, m, root)
    first, count = int(root or "0", 3) * 3 ** (m - len(root)), 3 ** (m - len(root))
    for p, rows in whole.items():
        want = [[F(x, D) for x in row] for row in rows[first : first + count]]
        got = [[F(x, Dr) for x in row] for row in below[p]] if p in below else [[F0] * len(row) for row in want]
        assert got == want


def test_q_of_parts_on_disjoint_cells_builds_no_tensor(monkeypatch):
    """Lacuna forms below disjoint words share no cell: their Q is 0 with no
    tensor built; a pair that shares cells still builds its tensors."""
    built = []
    shape_tensors = fm._shape_tensors
    monkeypatch.setattr(fm, "_shape_tensors", lambda *args: built.append(args[1:]) or shape_tensors(*args))
    for s, t in (("0", "1"), ("01", "2"), ("12", "10"), ("2", "02")):
        assert fm.q_inner_exact(fm.dz_form(s), fm.dz_form(t)) == 0
        assert built == []
    assert fm.q_inner_exact(fm.dz_form("1"), fm.dz_form("10")) == 0
    assert built == [(3, "10"), (3, "10")]


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(1, 30), st.sampled_from([3, 9, 27, 81]), st.sampled_from([3, 9, 27, 81]))
@example(seed=1, cells=30, la=3, lb=3)  # by moments: 9 < 90
@example(seed=2, cells=3, la=27, lb=27)  # cell by cell: 81 < 729
@example(seed=3, cells=27, la=27, lb=9)  # a tie (243), cell by cell, the second tensor shorter
@example(seed=4, cells=9, la=3, lb=9)  # a tie (27), cell by cell, the first tensor shorter
def test_contract_cells_equals_the_moments_in_either_order(seed, cells, la, lb):
    """Cell by cell or by moments, the kernel contraction of two integer
    tensors on the same cells is the kernel dotted with their moments."""
    rng = random.Random(seed)
    rows1 = [[rng.randint(-9, 9) for _ in range(la)] for _ in range(cells)]
    rows2 = [[rng.randint(-9, 9) for _ in range(lb)] for _ in range(cells)]
    K = [rng.randint(-10**6, 10**6) for _ in range(la * lb)]
    assert fm._contract_cells(K, rows1, rows2) == sum(map(operator.mul, K, fm._moments(rows1, rows2)))


def _level_one_product():
    """A product form a·b·dh of level 1: one (2, 2) shape pair of 27-entry
    tensors on 3 cells, the shape of the bench's certified products."""
    rng = random.Random(7)
    a, h = random_harmonic(1, rng, span=5), random_harmonic(1, rng, span=5)
    return fm.fdg(fm.Product([fm.Atom(a), fm.Atom(random_harmonic(0, rng, span=5))]), h)


def test_a_level_one_product_self_pair_takes_no_moments(monkeypatch):
    """27·27 moments take 729 dot products and 3 cells take 81: the (2, 2)
    self-pair is contracted cell by cell."""
    prod = _level_one_product()
    D, tensors = fm._shape_tensors(prod, 1)
    assert list(tensors) == [2] and len(tensors[2]) == 3 and len(tensors[2][0]) == 27
    want = single_level_q(prod, prod)

    def no_moments(*args):
        raise AssertionError("moments were taken")

    monkeypatch.setattr(fm, "_moments", no_moments)
    assert fm.q_inner_exact(prod, prod) == want


def test_q_level_sums_keep_their_moments(monkeypatch):
    """The level sums take the moments once and reuse them at every level."""
    taken = []
    moments = fm._moments
    monkeypatch.setattr(fm, "_moments", lambda *args: taken.append(1) or moments(*args))
    prod = _level_one_product()
    level_sum = fm.q_level_sums(prod, prod, 1)
    assert taken == [1]
    assert level_sum(1) > 0 and level_sum(3) > 0
    assert taken == [1]


def test_exact_q_refuses_products_before_any_tensor(monkeypatch):
    """Products of three factors on both sides need 8 kernel slots: refused
    by the budget before any tensor is built, on either side."""
    def no_tensor(*args):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(fm, "_shape_tensors", no_tensor)
    w = fm.fdg(fm.Product([fm.Atom(f0), fm.Atom(f1), fm.Atom(f2)]), f2)
    for a, b in ((w, w), (w, w + fm.d(f0))):
        with pytest.raises(GasketError, match="budget"):
            fm.q_inner_exact(a, b)


# ---------------------------------------------------------------------------
# properties of exact Q
# ---------------------------------------------------------------------------

@settings(max_examples=15)
@given(_forms(products=False), _forms(products=False), _forms(products=False), st.integers(-7, 7))
def test_exact_q_is_symmetric_and_bilinear(a, b, c, k):
    assert fm.q_inner_exact(a, b) == fm.q_inner_exact(b, a)
    assert fm.q_inner_exact(a + b, c) == fm.q_inner_exact(a, c) + fm.q_inner_exact(b, c)
    assert fm.q_inner_exact(a.scaled(F(k, 3)), c) == F(k, 3) * fm.q_inner_exact(a, c)


@settings(max_examples=15)
@given(_forms(products=True), _forms(products=True))
def test_exact_q_polarizes_on_products(a, b):
    """Q(a + b) = Q(a) + 2Q(a, b) + Q(b), exactly."""
    q = fm.q_inner_exact
    assert q(a + b, a + b) == q(a, a) + 2 * q(a, b) + q(b, b)


# ---------------------------------------------------------------------------
# the exact level sums approach the exact values within their tail bounds
# ---------------------------------------------------------------------------

@settings(max_examples=15)
@given(_forms(products=True), _forms(products=True))
def test_q_level_sums_approach_exact_q_within_the_tail_bound(omega, eta):
    m = max(fm._form_data_level(omega), fm._form_data_level(eta))
    for a, b in ((omega, omega), (omega, eta)):
        exact = fm.q_inner_exact(a, b)
        level_sum = fm.q_level_sums(a, b, m)
        for n in range(max(1, m), max(1, m) + 4):
            assert abs(level_sum(n) - exact) <= q_tail_bound(a, b, n)


@settings(max_examples=30)
@given(
    _forms(products=True),
    st.builds(OrientedEdge, st.text(alphabet="012", max_size=2), st.integers(0, 2), st.sampled_from([1, -1])),
)
def test_riemann_sums_approach_the_exact_integral_within_the_tail_bound(form, e):
    universal = fm.SmoothForm(form.terms)
    exact = fm.integrate_edge(universal, e).value
    base = max(e.level, fm._universal_level(universal))
    for n in range(base, base + 4):
        assert abs(fm.riemann_sum(universal, e, n) - exact) <= riemann_tail_bound(universal, n)


# ---------------------------------------------------------------------------
# the exact one-cell kernels
# ---------------------------------------------------------------------------

def _kernel(p, r):
    den, K = kn._exact_q_kernel(p, r)
    return [F(x, den) for x in K]


@pytest.mark.parametrize("j", range(4))
def test_energy_kernel_is_the_renormalized_level_kernel(j):
    """Harmonic energy is level-invariant: (5/3)^j E_j = E_0."""
    level = fm.q_level_kernel(0, 0, j)
    assert _kernel(0, 0) == [R53**j * F(x, 5 ** (2 * j)) for x in level]


def test_quadrilinear_kernel_is_q_kernel():
    assert _kernel(1, 1) == list(fm.q_kernel())


def test_single_slot_kernels_are_the_carre_du_champ_pairings():
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _kernel(0, 1) == [_single_slot_q(g, h, k) for g, h, k in itertools.product(basis, repeat=3)]
    assert _kernel(1, 0) == [_single_slot_q(k, f, g) for f, g, k in itertools.product(basis, repeat=3)]


def test_single_slot_kernels_agree_under_the_slot_swap():
    """(1, 0) has slots L, g, k and (0, 1) slots g, M, k; Q(F dg, dk) is
    Q(dk, F dg)."""
    K10, K01 = _kernel(1, 0), _kernel(0, 1)
    for a, b, d in itertools.product(range(3), repeat=3):
        assert K10[(a * 3 + b) * 3 + d] == K01[(d * 3 + a) * 3 + b]
    assert any(K01)
