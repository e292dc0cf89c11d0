"""Norms, effective lengths, homology classes, group lengths, potentials."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketforms import cohomology as coh
from gasketforms import covering as cov
from gasketforms import forms as fm
from gasketforms.certified import CertifiedValue
from gasketforms.errors import DepthTooSmallError, GasketError, UnboundedTailError
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


def test_norms_of_unit_vectors():
    for w in ["", "2", "01", "120"]:
        seq = cov.LevelSequence.from_values({w: F(1)}, len(w))
        assert cov.norm_N(seq).value == F(5, 3) ** len(w)
        assert cov.norm_Nprime(seq).value == F(3, 5) ** len(w)


def test_norm_of_edge_dz_sequence():
    e1 = OrientedEdge("", 1)
    seq = cov.dz_sequence_edge(e1)
    cv = cov.norm_Nprime(seq)
    assert cv.exact and cv.value == F(5, 6)
    with pytest.raises(UnboundedTailError):
        cov.norm_N(seq)


def test_norm_N_of_periods_is_finite():
    w = fm.fdg(f0, f1)
    pv = coh.periods_up_to(w, 3)
    values = {s: cv.value for s, cv in pv.entries.items()}
    tail = cov.TailBound(
        sum_coeff=F(5, 4) * F(3, 5) * pv.level_sum_bound, sum_ratio=F(3, 5),
        sup_coeff=F(5, 4) * F(3, 5) * pv.level_sum_bound, sup_ratio=F(3, 5),
    )
    seq = cov.LevelSequence.from_values(values, 3, tail)
    cv = cov.norm_N(seq)
    assert cv.value + cv.radius < 10  # finite, with a sound enclosure


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
    g_empty = cov.lacuna_class("", depth=2)
    assert cov.phi_hom("", g_empty) == 1
    assert cov.phi_hom("1", g_empty) == F(-1, 3)
    assert cov.phi_hom("11", cov.HomologyElement(3, {"": 1})) == 0
    a = cov.HomologyElement(2, {"": 2, "1": -1})
    b = cov.HomologyElement(2, {"0": 3})
    for s in ["", "0", "1"]:
        assert cov.phi_hom(s, a + b) == cov.phi_hom(s, a) + cov.phi_hom(s, b)


def test_group_length_values():
    assert cov.group_length(cov.HomologyElement(2, {})).value == 0
    gl = cov.group_length(cov.lacuna_class(""))
    # oracle: 1 at level 0, sup 1/3 at every deeper level
    assert gl.exact and gl.value == 1 + F(1, 3) * F(3, 5) / (1 - F(3, 5))
    a = cov.lacuna_class("0", 2)
    b = cov.lacuna_class("1", 2)
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

        def phi3(s):
            # b_rule is 1, -1/3 or 0, so 3·phi_s(g) is an integer
            total = 0
            for tau, c in g.coords.items():
                b = coh.b_rule(s, tau)
                total += c * (3 * b.numerator // b.denominator)
            return total

        brute = F(0)
        for k in range(12):
            sup3 = max(abs(phi3("".join(s))) for s in itertools.product("012", repeat=k))
            brute += F(3, 5) ** k * F(sup3, 3)
        # the remaining tail is at most (max|coords| sum) * (3/5)^12 * 5/2
        slack = F(3, 5) ** 12 * F(5, 2) * sum(abs(c) for c in g.coords.values())
        assert brute <= expected <= brute + slack


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
    e = OrientedEdge("20", 1)
    parts = cov.hnorm_divergence(e, 8)
    assert all(b >= a for a, b in zip(parts, parts[1:]))


def test_duality_pairing_bound():
    rng = random.Random(67)
    words = [""] + ["".join(w) for n in (1, 2) for w in itertools.product("012", repeat=n)]
    for _ in range(10):
        kvals = {w: F(rng.randint(-5, 5), rng.randint(1, 4)) for w in words}
        bvals = {w: F(rng.randint(-5, 5), rng.randint(1, 4)) for w in words}
        kseq = cov.LevelSequence.from_values(kvals, 2)
        bseq = cov.LevelSequence.from_values(bvals, 2)
        pairing = sum((kvals[w] * bvals[w] for w in words), F(0))
        assert abs(pairing) <= cov.norm_N(kseq).value * cov.norm_Nprime(bseq).value


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


@settings(max_examples=25)
@given(walks(), st.integers(0, 8), st.booleans(), st.randoms(use_true_random=False))
def test_potential_difference_matches_per_word_sum(path, depth, exact, rng):
    # the value is U(t) - U(s) + sum k_sigma int dz_sigma + the lacuna forms
    # past the depth, read per edge from the decomposition's tables; the
    # radius is the potentials' radii + sum r_sigma |int dz_sigma|, no tail
    depth = max(depth, max(e.level for e in path))
    radius = (lambda: F(0)) if exact else (lambda: F(rng.randint(1, 9), rng.randint(1, 99)))
    k = {w: CertifiedValue(F(rng.randint(-9, 9), rng.randint(1, 9)), radius()) for w in _words_to(depth)}
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
    radii = potential[path.target].radius + potential[path.source].radius
    assert pd.value == expected + past
    assert pd.radius == radii + sum((kcv.radius * abs(dz[w]) for w, kcv in k.items()), F(0))
    assert pd.exact == exact


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
    monkeypatch.setattr(coh, "_TABLE_ENTRIES_MAX", 21)
    assert cov.dz_path_integrals(path, 2)
    monkeypatch.setattr(coh, "_TABLE_ENTRIES_MAX", 20)
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
