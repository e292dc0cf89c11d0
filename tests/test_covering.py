"""Norms, effective lengths, homology classes, group lengths, potentials."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gasketforms import cohomology as coh
from gasketforms import covering as cov
from gasketforms import forms as fm
from gasketforms.certified import CertifiedValue
from gasketforms.errors import DepthTooSmallError, GasketError
from gasketforms.geometry import (
    OrientedEdge,
    edges_at_level,
    lacuna_path,
    perimeter_path,
    subdivide,
    validate_path,
    vertex_id,
    words,
)
from gasketforms.harmonic import harmonic_basis, random_harmonic

F = Fraction
f0, f1, f2 = harmonic_basis()


# -- the two dual sequence norms: N' of a path's dz integrals is its
# effective length, and N of the harmonic coefficients bounds potentials

@dataclass(frozen=True)
class LevelSequence:
    """Per-level aggregates (sum of |.|, sup of |.|) up to a depth."""

    sums: tuple[Fraction, ...]
    sups: tuple[Fraction, ...]

    @staticmethod
    def from_values(values: dict[str, Fraction], depth: int) -> "LevelSequence":
        """Aggregate a finitely-supported word map over the levels 0..depth."""
        sums, sups = [F(0)] * (depth + 1), [F(0)] * (depth + 1)
        for w, v in values.items():
            if len(w) <= depth:
                sums[len(w)] += abs(v)
                sups[len(w)] = max(sups[len(w)], abs(v))
        return LevelSequence(tuple(sums), tuple(sups))


def norm_N(seq: LevelSequence) -> CertifiedValue:
    """sup_n (5/3)^n * (level-n sum)."""
    return CertifiedValue.from_exact(max((F(5, 3) ** n * s for n, s in enumerate(seq.sums)), default=F(0)))


def norm_Nprime(seq: LevelSequence) -> CertifiedValue:
    """sum_n (3/5)^n * (level-n sup)."""
    return CertifiedValue.from_exact(sum((F(3, 5) ** n * s for n, s in enumerate(seq.sups)), F(0)))


def test_norms_of_unit_vectors():
    for w in ["", "2", "01", "120"]:
        seq = LevelSequence.from_values({w: F(1)}, len(w))
        assert norm_N(seq).value == F(5, 3) ** len(w)
        assert norm_Nprime(seq).value == F(3, 5) ** len(w)


def test_norm_of_edge_dz_sequence():
    """The dz integrals over e1 to depth n: from level 0 on, 2^n words of
    each level n carry -1/3, so N' of the truncation plus its closed tail
    (1/3)(3/5)^(n+1)(5/2) is the exact effective length 5/6, while N grows
    like (10/3)^n / 3 without bound."""
    e1 = OrientedEdge("", 1)
    lam = cov.effective_length(validate_path([e1]))
    assert lam.exact and lam.value == F(5, 6)
    for n in range(6):
        seq = LevelSequence.from_values(cov.dz_path_integrals([e1], n), n)
        assert seq.sups == (F(1, 3),) * (n + 1)
        assert norm_Nprime(seq).value + F(1, 3) * F(3, 5) ** (n + 1) * F(5, 2) == lam.value
        assert norm_N(seq).value == F(10, 3) ** n / 3


def test_norm_N_of_periods_is_finite():
    """The lacuna periods of f0 df1 past its data level shrink by 9/25 per
    level in their level sums, so (5/3)^n times them decays and N is
    attained at a finite level: the truncations to depths 3 to 6 agree."""
    w = fm.fdg(f0, f1)
    norms = set()
    for depth in range(3, 7):
        values = {s: cv.value for s, cv in coh.periods_up_to(w, depth).entries.items()}
        cv = norm_N(LevelSequence.from_values(values, depth))
        assert cv.exact and cv.value < 10
        norms.add(cv.value)
    assert len(norms) == 1


def test_effective_length_of_edges():
    lam = cov.effective_length(validate_path([OrientedEdge("", 1)]))
    # oracle: sup 1/3 at every level, geometric sum (1/3) / (1 - 3/5)
    assert lam.exact and lam.value == F(1, 3) * F(5, 2)
    for n in range(4):
        bound = F(3, 5) ** (n - 1) * F(3 + 2 * n, 6)
        for letters in itertools.product("012", repeat=n):
            e = OrientedEdge("".join(letters), n % 3)
            lv = cov.effective_length(validate_path([e]))
            assert lv.value <= bound


def test_effective_length_subadditive():
    e = OrientedEdge("", 1)
    a, b = e.children()
    la = cov.effective_length(validate_path([a]), depth=5)
    lb = cov.effective_length(validate_path([b]), depth=5)
    lab = cov.effective_length(validate_path([a, b]), depth=5)
    assert lab.value - lab.radius <= la.upper() + lb.upper()


def test_homology_classes():
    for s in ["", "1", "20"]:
        g = cov.homology_class(lacuna_path(s), len(s) + 1)
        assert g.coords == {s: 1}
    g = cov.homology_class(perimeter_path(""), 3)
    words = [""] + ["".join(w) for n in (1, 2) for w in itertools.product("012", repeat=n)]
    assert g.coords == {w: -1 for w in words}
    e = OrientedEdge("", 0)
    assert cov.homology_class(validate_path([e, e.reversed()]), 2).is_zero()


def test_homology_is_additive_on_concatenation():
    p = lacuna_path("0")
    q_start = p.target
    # conjugate the second loop so both start at the same basepoint
    q = lacuna_path("0")
    both = p + q
    g = cov.homology_class(both, 2)
    assert g.coords == {"0": 2}


def test_phi_values_and_linearity():
    g_empty = cov.HomologyElement(2, {"": 1})
    assert cov.phi_hom("", g_empty) == 1
    assert cov.phi_hom("1", g_empty) == F(-1, 3)
    assert cov.phi_hom("11", cov.HomologyElement(3, {"": 1})) == 0
    a = cov.HomologyElement(2, {"": 2, "1": -1})
    b = cov.HomologyElement(2, {"0": 3})
    for s in ["", "0", "1"]:
        assert cov.phi_hom(s, a + b) == cov.phi_hom(s, a) + cov.phi_hom(s, b)


def test_group_length_values():
    assert cov.group_length(cov.HomologyElement(2, {})).value == 0
    gl = cov.group_length(cov.HomologyElement(1, {"": 1}))
    # oracle: 1 at level 0, sup 1/3 at every deeper level
    assert gl.exact and gl.value == 1 + F(1, 3) * F(3, 5) / (1 - F(3, 5))
    a = cov.HomologyElement(2, {"0": 1})
    b = cov.HomologyElement(2, {"1": 1})
    assert cov.group_length(a + b).value <= cov.group_length(a).value + cov.group_length(b).value


def test_group_length_detects_identity_exhaustively():
    words = [""] + list("012")
    for coords in itertools.product(range(-2, 3), repeat=4):
        g = cov.HomologyElement(2, {w: c for w, c in zip(words, coords) if c != 0})
        length = cov.group_length(g).value
        assert (length == 0) == g.is_zero()


def test_group_length_matches_direct_enumeration():
    """Cross-check the stabilized tail against brute-force level sups."""
    rng = random.Random(61)
    words = [""] + list("012")
    for _ in range(5):
        g = cov.HomologyElement(2, {w: rng.randint(-2, 2) for w in words})
        expected = cov.group_length(g).value

        items, b_thirds = list(g.coords.items()), coh.b_thirds

        def phi3(s):
            # 3·phi_s(g), an integer: b_thirds is 3·B by the same rule as b_rule
            total = 0
            for tau, c in items:
                total += c * b_thirds(s, tau)
            return total

        brute = F(0)
        for k in range(12):
            sup3 = max(abs(phi3("".join(s))) for s in itertools.product("012", repeat=k))
            brute += F(3, 5) ** k * F(sup3, 3)
        # the remaining tail is at most (max|coords| sum) * (3/5)^12 * 5/2
        slack = F(3, 5) ** 12 * F(5, 2) * sum(abs(c) for c in g.coords.values())
        assert brute <= expected <= brute + slack


def _group_length_by_subsets(g):
    """Oracle: per-level sups of 3·phi enumerated through the support, then
    the surviving prefix chains of the level past it with every set of
    letters a tail can use (no letter, then one to min(ell, 3) letters)."""
    L = g.support_level()
    if L < 0:
        return CertifiedValue.from_exact(0)
    total = F(0)
    for k in range(L + 1):
        sup = max(abs(sum(c * coh.b_thirds(w, tau) for tau, c in g.coords.items())) for w in words(k))
        total += F(3, 5) ** k * sup
    prefix_data = [
        [(c, pi[len(tau)]) for tau, c in g.coords.items() if c and coh.b_thirds(pi, tau)]
        for pi in words(L + 1)
    ]

    def sup_with_tail_length(ell):
        return max(
            abs(sum(c for c, b in alive if b not in used))
            for alive in prefix_data
            for r in ((0,) if ell == 0 else range(1, min(ell, 3) + 1))
            for used in itertools.combinations("012", r)
        )

    for k in range(L + 1, L + 4):
        total += F(3, 5) ** k * sup_with_tail_length(k - L - 1)
    total += sup_with_tail_length(3) * F(3, 5) ** (L + 4) * F(5, 2)
    return CertifiedValue.from_exact(total / 3)


@st.composite
def classes(draw):
    """A class of depth 1-6 with coordinates, zeros included, on every
    prefix of one word (a chain, whose coordinates share slots) and on up to
    two more words of every length below the depth."""
    depth = draw(st.integers(1, 6))
    chain = draw(st.text(alphabet="012", min_size=depth - 1, max_size=depth - 1))
    coords = {}
    for n in range(depth):
        for w in [chain[:n]] + draw(st.lists(st.text(alphabet="012", min_size=n, max_size=n), max_size=2)):
            coords[w] = draw(st.integers(-3, 3))
    return cov.HomologyElement(depth, coords)


@settings(max_examples=150)
@given(classes())
# the sup past the support with no tail letter (5) is above the one-letter sup (4)
@example(cov.HomologyElement(3, {"": -2, "0": -1, "01": -2}))
def test_group_length_equals_the_subset_enumeration(g):
    length = cov.group_length(g)
    expected = _group_length_by_subsets(g)
    assert length.exact and length.radius == 0
    assert length.value == expected.value


def test_group_length_reads_no_b_entries(monkeypatch):
    """The descent carries B's rule in its slots: it never asks for an entry."""
    cases = [cov.HomologyElement(1, {"": 1}), cov.HomologyElement(3, {"": 2, "1": -1, "02": 1}), cov.HomologyElement(5, {"2101": 1})]
    expected = [cov.group_length(g).value for g in cases]

    def no_entry(rho, tau):
        raise AssertionError("group_length read an entry of B")

    monkeypatch.setattr(cov, "b_thirds", no_entry)
    with pytest.raises(AssertionError):
        cov.phi_hom("", cases[0])  # the patch reaches covering's name
    assert [cov.group_length(g).value for g in cases] == expected


def test_group_length_budget_refuses_before_the_descent(monkeypatch):
    """The 3^(L+1) words of the last level are charged before any work: a
    support at length 11 fits the budget, at length 12 and 29 it is refused
    (a descent to length 30 would not return)."""
    assert 3**12 <= fm._TABLE_ENTRIES_MAX < 3**13
    for n in (12, 29):
        with pytest.raises(GasketError, match="budget"):
            cov.group_length(cov.HomologyElement(n + 1, {"": 1, "0" * n: 1}))
    monkeypatch.setattr(fm, "_TABLE_ENTRIES_MAX", 27)
    assert cov.group_length(cov.HomologyElement(3, {"12": 1})).exact
    with pytest.raises(GasketError, match="budget"):
        cov.group_length(cov.HomologyElement(4, {"120": 1}))


def test_potential_difference_reference_values():
    pd = cov.potential_difference(fm.dz_form(""), lacuna_path(""), 2)
    assert pd.exact and pd.value == 1
    e = OrientedEdge("01", 2)
    pd = cov.potential_difference(fm.d(f1), validate_path([e]), 3)
    assert pd.exact and pd.value == f1(e.target) - f1(e.source)


def test_potential_difference_matches_direct_integration():
    w = fm.fdg(f0, f1)
    path = perimeter_path("")
    pd = cov.potential_difference(w, path, 4)
    direct = fm.integrate_path(w, path)
    assert pd.overlaps(direct)


def test_potential_difference_affine_on_closed_paths():
    """On a closed path the primitive drops out: the potential difference is
    the k pairing with the deck homomorphisms of the path's class, plus the
    lacuna forms past the depth, which give -(2/19)·k on each level-depth
    sub-edge's cell (S - k = (6/19)·k at and below the data level), and it
    equals the path integral."""
    w = fm.fdg(f0, f1)
    depth = 3
    hd = coh.hodge_decompose(w, depth)
    path = perimeter_path("") + perimeter_path("")
    pd = cov.potential_difference(w, path, depth, decomposition=hd)
    g = cov.homology_class(path, depth + 1)
    pairing = sum((kcv.value * cov.phi_hom(s, g) for s, kcv in hd.k.items()), F(0))
    past = sum(
        (-e.sign * F(2, 19) * hd.k[sub.cell].value for e in path for sub in subdivide(e, depth)),
        F(0),
    )
    assert pd.exact and pd.value == pairing + past == fm.integrate_path(w, path).value


def test_hnorm_divergence_partial_sums():
    e1 = OrientedEdge("", 1)
    parts = cov.hnorm_divergence(e1, 13)
    assert parts[0] == F(2, 15)
    closed = [F(2, 15) * sum(F(6, 5) ** j for j in range(m + 1)) for m in range(14)]
    assert parts == closed
    assert all(b > a for a, b in zip(parts, parts[1:]))
    assert parts[11] > 1  # already past one well before eleven levels
    # the dual-norm length of the same integral data stays finite
    lam = cov.effective_length(validate_path([e1]))
    assert lam.value == F(5, 6)


def test_hnorm_divergence_deeper_edge():
    """The closed form 2^(n - n0)/9 from the edge level n0 on equals the
    level sums of the edge's whole dz table."""
    for e in (OrientedEdge("20", 1), OrientedEdge("1", 0, -1), OrientedEdge("012", 2)):
        parts = cov.hnorm_divergence(e, 8)
        assert all(b >= a for a, b in zip(parts, parts[1:]))
        level_sq = [F(0)] * 9
        for w, v in cov.dz_path_integrals([e], 8).items():
            level_sq[len(w)] += v * v
        assert parts == [F(6, 5) * sum(F(3, 5) ** n * level_sq[n] for n in range(m + 1)) for m in range(9)]


def test_duality_pairing_bound():
    rng = random.Random(67)
    words = [""] + ["".join(w) for n in (1, 2) for w in itertools.product("012", repeat=n)]
    for _ in range(10):
        kvals = {w: F(rng.randint(-5, 5), rng.randint(1, 4)) for w in words}
        bvals = {w: F(rng.randint(-5, 5), rng.randint(1, 4)) for w in words}
        kseq = LevelSequence.from_values(kvals, 2)
        bseq = LevelSequence.from_values(bvals, 2)
        pairing = sum((kvals[w] * bvals[w] for w in words), F(0))
        assert abs(pairing) <= norm_N(kseq).value * norm_Nprime(bseq).value


# ---------------------------------------------------------------------------
# the dz table of a path against per-word integration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _skeleton(n):
    """Vertices of the level-n graph, and the oriented edges leaving each."""
    out = {}
    for e in edges_at_level(n):
        out.setdefault(e.source, []).append(e)
        out.setdefault(e.target, []).append(e.reversed())
    return sorted(out, key=vertex_id), {p: sorted(es, key=str) for p, es in out.items()}


@st.composite
def walks(draw, closed=None, max_level=4):
    """A walk on the level 0-``max_level`` graph, closed by a shortest way
    back when asked, in either orientation."""
    n = draw(st.integers(0, max_level))
    vertices, adj = _skeleton(n)
    start = p = vertices[draw(st.integers(0, len(vertices) - 1))]
    edges = []
    for choice in draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)):
        edges.append(adj[p][choice % len(adj[p])])
        p = edges[-1].target
    if (draw(st.booleans()) if closed is None else closed) and p != start:
        prev, frontier = {p: None}, [p]
        while start not in prev:
            nxt = []
            for x in frontier:
                for e in adj[x]:
                    if e.target not in prev:
                        prev[e.target] = e
                        nxt.append(e.target)
            frontier = nxt
        back, x = [], start
        while prev[x] is not None:
            back.append(prev[x])
            x = prev[x].source
        edges.extend(reversed(back))
    path = validate_path(edges)
    return path.reversed() if draw(st.booleans()) else path


def _words_to(depth):
    return [w for n in range(depth + 1) for w in words(n)]


def _effective_length_by_candidates(path, depth):
    """Oracle: per-level sups over candidate words, each integrated over the
    whole path (the words a nonzero integral over some edge can have)."""
    edges = list(path)
    sups = []
    for k in range(depth + 1):
        candidates = set()
        for e in edges:
            if k <= e.level:
                candidates.add(e.cell[:k])
            else:
                letters = [c for c in "012" if c != str(e.side)]
                for head in "012":
                    for rest in itertools.product(letters, repeat=k - e.level - 1):
                        candidates.add(e.cell + head + "".join(rest))
        sups.append(max((abs(fm.dz_integral_path(w, path)) for w in candidates if len(w) == k), default=F(0)))
    tail_total = len(edges) * F(1, 3) * F(3, 5) ** (depth + 1) * F(5, 2)
    finite = sum((F(3, 5) ** k * s for k, s in enumerate(sups)), F(0))
    return CertifiedValue(finite + tail_total / 2, tail_total / 2)


@settings(max_examples=40)
@given(walks(), st.integers(0, 8))
def test_dz_table_matches_per_word_integration(path, depth):
    table = cov.dz_path_integrals(path, depth)
    assert 0 not in table.values()
    assert all(len(w) <= depth for w in table)
    for w in _words_to(depth):
        assert table.get(w, 0) == fm.dz_integral_path(w, path), w


@settings(max_examples=30)
@given(walks(), st.integers(0, 8))
def test_effective_length_matches_candidate_enumeration(path, depth):
    lam = cov.effective_length(path, depth)
    if len(path) > 1:
        assert lam == _effective_length_by_candidates(path, depth)
    else:
        assert lam.exact


@settings(max_examples=30)
@given(walks(closed=True), st.integers(0, 6))
def test_homology_class_matches_winding_numbers(path, depth):
    g = cov.homology_class(path, depth)
    coords = {w: coh.winding_number(path, w) for w in _words_to(depth - 1)}
    assert g.depth == depth and g.coords == {w: c for w, c in coords.items() if c != 0}


@settings(max_examples=50)
@given(walks(closed=True, max_level=3))
def test_deck_homomorphisms_are_path_integrals(path):
    """De Rham duality on closed walks: with g the homology class to depth
    L + 3, L the walk's finest edge level, the deck homomorphism of z_sigma
    on g is the integral of dz_sigma along the walk, for every |sigma| < L + 3."""
    L = max(e.level for e in path)
    g = cov.homology_class(path, L + 3)
    for sigma in _words_to(L + 2):
        assert cov.phi_hom(sigma, g) == fm.dz_integral_path(sigma, path), sigma


@settings(max_examples=60)
@given(walks(closed=True), st.text(alphabet="012", max_size=5))
def test_winding_number_matches_the_fraction_prefix_sum(path, sigma):
    """The integer prefix counts give the sum over the prefixes rho of
    A_{sigma,rho}·(integral of dz_rho along the path) in Fractions."""
    want = sum(
        (coh.a_entry(sigma, sigma[:j]) * fm.dz_integral_path(sigma[:j], path) for j in range(len(sigma) + 1)),
        F(0),
    )
    assert coh.winding_number(path, sigma) == want


@settings(max_examples=15)
@given(walks(closed=False), st.integers(1, 8))
def test_homology_class_of_open_path_is_refused(path, depth):
    if not path.closed:
        with pytest.raises(GasketError, match="closed path"):
            cov.homology_class(path, depth)


def test_invalid_lacuna_words_are_refused():
    closed = lacuna_path("1")
    for bad in ("05", "1x", "9"):
        with pytest.raises(GasketError, match="invalid word"):
            coh.winding_number(closed, bad)
        with pytest.raises(GasketError, match="invalid word"):
            cov.HomologyElement(4, {bad: 1})
        with pytest.raises(GasketError, match="invalid word"):
            cov.phi_hom(bad, cov.HomologyElement(4, {"0": 1}))


@settings(max_examples=25)
@given(walks(), st.integers(0, 8), st.booleans(), st.randoms(use_true_random=False))
def test_potential_difference_matches_per_word_sum(path, depth, exact, rng):
    # the value is U(t) - U(s) + sum k_sigma int dz_sigma + the lacuna forms
    # past the depth, read per edge from the decomposition's tables; the
    # radius is the potentials' radii, since every k radius is 0
    # (``HodgeDecomposition``), and there is no tail
    depth = max(depth, max(e.level for e in path))
    radius = (lambda: F(0)) if exact else (lambda: F(rng.randint(1, 9), rng.randint(1, 99)))
    k = {w: CertifiedValue(F(rng.randint(-9, 9), rng.randint(1, 9))) for w in _words_to(depth)}
    potential = {p: CertifiedValue(F(rng.randint(-9, 9)), radius()) for p in (path.source, path.target)}
    den = rng.randint(1, 99)
    tables = tuple(
        [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3**n)] if n <= 4 else [(0, 0, 0)] * 3**n
        for n in range(depth + 1)
    )
    dec = coh.HodgeDecomposition(depth, k, potential, F(0), F(0), (den, tables))
    pd = cov.potential_difference(fm.fdg(f0, f1), path, depth, decomposition=dec)
    dz = {w: fm.dz_integral_path(w, path) for w in k}
    past = sum((F(e.sign * tables[e.level][int(e.cell or "0", 3)][e.side], den) for e in path), F(0))
    expected = potential[path.target].value - potential[path.source].value + sum(
        (kcv.value * dz[w] for w, kcv in k.items()), F(0)
    )
    assert pd.value == expected + past
    assert pd.radius == potential[path.target].radius + potential[path.source].radius
    assert pd.exact == exact


def test_potential_difference_refuses_a_k_radius():
    # a radius on a k entry the path meets would be dropped from the result
    path = validate_path([OrientedEdge("", 0)])
    potential = {path.source: CertifiedValue.from_exact(0), path.target: CertifiedValue.from_exact(0)}
    k = {w: CertifiedValue.from_exact(F(1)) for w in _words_to(1)}
    assert cov.potential_difference(fm.d(f1), path, 1, decomposition=coh.HodgeDecomposition(1, k, potential, F(0), F(0))).exact
    k[""] = CertifiedValue(F(1), F(1, 3))
    with pytest.raises(GasketError, match="nonzero radius"):
        cov.potential_difference(fm.d(f1), path, 1, decomposition=coh.HodgeDecomposition(1, k, potential, F(0), F(0)))


def test_potential_difference_is_exact_when_no_k_meets_the_path():
    path = validate_path([OrientedEdge("0", 1)])  # dz_2 vanishes on C_0
    potential = {path.source: CertifiedValue.from_exact(1), path.target: CertifiedValue.from_exact(3)}
    for k in ({}, {"2": CertifiedValue.from_exact(F(1, 2))}):
        pd = cov.potential_difference(fm.d(f1), path, 1, decomposition=coh.HodgeDecomposition(1, k, potential, F(0), F(0)))
        assert pd.exact and type(pd.value) is F and pd.value == 2


def test_path_layers_build_one_dz_table_per_call(monkeypatch):
    calls, build = [], cov._dz_counts

    def counted(edges, depth):
        calls.append(depth)
        return build(edges, depth)

    monkeypatch.setattr(cov, "_dz_counts", counted)
    form = fm.fdg(f0, f1)
    dec = coh.hodge_decompose(form, 3)
    loop = perimeter_path("01")
    for run in (
        lambda: cov.effective_length(loop, 6),
        lambda: cov.effective_length(validate_path([OrientedEdge("1", 2)])),
        lambda: cov.homology_class(loop, 3),
        lambda: cov.potential_difference(form, loop, 3, decomposition=dec),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_potential_difference_refuses_decomposition_of_other_depth():
    path = perimeter_path("012")  # a level-3 walk
    form = fm.fdg(f0, f1)
    with pytest.raises(DepthTooSmallError):
        cov.potential_difference(form, path, 3, decomposition=coh.hodge_decompose(form, 1))
    shallow = validate_path([OrientedEdge("", 1)])
    with pytest.raises(DepthTooSmallError):
        cov.potential_difference(form, shallow, 1, decomposition=coh.hodge_decompose(form, 2))


def test_dz_table_work_budget(monkeypatch):
    path = perimeter_path("")
    # the refusal comes from the size count alone: no table is built
    with pytest.raises(GasketError, match="budget"):
        cov.dz_path_integrals(path, 40)
    with pytest.raises(GasketError, match="budget"):
        cov.homology_class(path, 14)
    with pytest.raises(GasketError, match="budget"):
        cov.effective_length(path, 10**6)
    with pytest.raises(GasketError, match="budget"):
        cov.potential_difference(fm.fdg(f0, f1), path, 30)  # before any Hodge decomposition
    # three level-0 edges to depth 2: 3 * (2^3 - 1) avoid-letter words
    monkeypatch.setattr(fm, "_TABLE_ENTRIES_MAX", 21)
    assert cov.dz_path_integrals(path, 2)
    monkeypatch.setattr(fm, "_TABLE_ENTRIES_MAX", 20)
    with pytest.raises(GasketError, match="budget"):
        cov.dz_path_integrals(path, 2)


@settings(max_examples=30, deadline=None)
@given(walks(max_level=2), st.randoms(use_true_random=False))
def test_reversing_a_path_negates_its_integral(path, rng):
    form = (
        fm.fdg(random_harmonic(rng.randint(0, 2), rng), random_harmonic(rng.randint(0, 2), rng))
        + fm.SmoothForm(harmonic={"".join(rng.choice("012") for _ in range(rng.randint(0, 2))): F(rng.randint(-5, 5), 3)})
        + fm.d(random_harmonic(rng.randint(0, 2), rng))
    )
    back = path.reversed()
    assert fm.integrate_path(form, back).value == -fm.integrate_path(form, path).value
    fwd, rev = (fm.integrate_path(form, P, mode="certified") for P in (path, back))
    assert rev.value == -fwd.value and rev.radius == fwd.radius
