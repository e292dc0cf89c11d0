"""Period matrices, winding numbers, Hodge decomposition."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketforms import cohomology as coh
from gasketforms import forms as fm
from gasketforms.certified import CertifiedValue
from gasketforms.errors import NotComparableError
from gasketforms.geometry import (
    P0,
    OrientedEdge,
    cell_corners,
    lacuna_path,
    perimeter_path,
    point,
    validate_path,
)
from gasketforms.harmonic import harmonic_basis, random_harmonic
from test_covering import walks

F = Fraction
f0, f1, f2 = harmonic_basis()


def test_b_entries():
    assert coh.b_entry("12", "12") == 1
    assert coh.b_entry("1", "") == F(-1, 3)
    assert coh.b_entry("", "1") == 0
    # branch letter repeated downstream kills the entry
    assert coh.b_entry("11", "") == 0
    assert coh.b_entry("10", "") == F(-1, 3)


def test_b_rule_matches_integration_sampled():
    rng = random.Random(47)
    words = [""] + ["".join(w) for n in (1, 2, 3) for w in itertools.product("012", repeat=n)]
    for _ in range(60):
        rho, tau = rng.choice(words), rng.choice(words)
        assert coh.b_entry(rho, tau) == coh.b_rule(rho, tau)


def test_a_entry_inverts_the_two_by_two_block():
    # oracle: the chain ("" , "1") has B = [[1, 0], [-1/3, 1]]; its inverse
    # is [[1, 0], [1/3, 1]]
    assert coh.a_entry("1", "1") == 1
    assert coh.a_entry("1", "") == F(1, 3)


def test_a_entry_not_comparable():
    with pytest.raises(NotComparableError):
        coh.a_entry("01", "1")
    # the chain matrices write the zeros off the prefix chain themselves
    chain, _, A = coh.TriangularKernel().chain_matrices("01")
    assert chain == ["", "0", "01"]
    assert [A[0][1], A[0][2], A[1][2]] == [0, 0, 0]


def test_a_range_and_inverse_on_chains():
    kern = coh.TriangularKernel()
    rng = random.Random(53)
    for _ in range(10):
        sigma = "".join(rng.choice("012") for _ in range(5))
        chain, B, A = kern.chain_matrices(sigma)
        n = len(chain)
        for r in range(n):
            assert A[r][r] == 1 and B[r][r] == 1
            for c in range(n):
                assert 0 <= A[r][c] <= 1
                assert sum(A[r][m] * B[m][c] for m in range(n)) == (1 if r == c else 0)


@lru_cache(maxsize=None)
def pairwise_a(sigma: str, tau: str) -> F:
    """Oracle: A_{sigma,tau} by the pairwise recursion A_{sigma,tau} = (1/3)
    sum of A_{sigma,rho} over the prefixes rho of sigma below tau with
    B_{rho,tau} = -1/3, for tau a prefix of sigma."""
    if tau == sigma:
        return F(1)
    rhos = (sigma[:j] for j in range(len(tau) + 1, len(sigma) + 1))
    return sum((pairwise_a(sigma, rho) for rho in rhos if coh.b_thirds(rho, tau)), F(0)) / 3


@settings(max_examples=200, deadline=None)
@given(st.text("012", max_size=10))
def test_a_row_matches_the_pairwise_recursion(sigma):
    row = coh.a_row(sigma)
    assert len(row) == len(sigma) + 1 and all(type(a) is int for a in row)
    for t, a in enumerate(row):
        assert F(a, 3 ** len(sigma)) == pairwise_a(sigma, sigma[:t]) == coh.a_entry(sigma, sigma[:t])


@settings(max_examples=100, deadline=None)
@given(st.text("012", max_size=12))
def test_integer_rows_invert_b_on_chains(sigma):
    """Row r of 3^|r|·A times 3·B is 3^(|r|+1) on the diagonal and 0
    elsewhere, in integers, on the whole prefix chain of sigma."""
    chain = [sigma[:j] for j in range(len(sigma) + 1)]
    for r in chain:
        row = coh.a_row(r)
        assert all(0 <= a <= 3 ** len(r) for a in row)
        for c in chain:
            prod = sum(a * coh.b_thirds(m, c) for m, a in zip(chain, row))
            assert prod == (3 ** (len(r) + 1) if r == c else 0)


def test_chain_matrices_match_the_pairwise_recursion():
    """(B, A) on every chain to length 4: B by the rule, A by the pairwise
    oracle and zero off the prefix order, as Fractions."""
    kern = coh.TriangularKernel()
    for n in range(5):
        for sigma in map("".join, itertools.product("012", repeat=n)):
            chain, B, A = kern.chain_matrices(sigma)
            assert chain == [sigma[:j] for j in range(n + 1)]
            assert B == [[coh.b_rule(r, t) for t in chain] for r in chain]
            assert A == [[pairwise_a(r, t) if r.startswith(t) else 0 for t in chain] for r in chain]
            assert all(type(x) is F for rows in (A, B) for row in rows for x in row)


def test_triangular_kernel_has_no_entry_methods():
    """Entries are read through ``b_entry`` and ``a_entry``; the kernel only
    assembles chains."""
    assert not hasattr(coh.TriangularKernel, "a") and not hasattr(coh.TriangularKernel, "b")


def _planar_winding(path, point) -> int:
    """Angle-sum winding oracle in the plane (float, then rounded)."""
    total = 0.0
    pts = [path.edges[0].source] + [e.target for e in path.edges]
    for a, b in zip(pts, pts[1:]):
        ax = float(a.x - point.x)
        ay = float(a.y - point.y) * math.sqrt(3)
        bx = float(b.x - point.x)
        by = float(b.y - point.y) * math.sqrt(3)
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    n = total / (2 * math.pi)
    assert abs(n - round(n)) < 1e-9
    return round(n)


def _lacuna_center(sigma):
    n = len(sigma) + 1
    c = point(cell_corners(sigma + "0")[1], n)  # one lacuna vertex
    d = point(cell_corners(sigma + "1")[2], n)  # another
    e = point(cell_corners(sigma + "2")[0], n)
    return type(c)((c.x + d.x + e.x) / 3, (c.y + d.y + e.y) / 3)


@pytest.mark.parametrize("sigma", ["", "0", "21"])
def test_winding_against_planar_oracle(sigma):
    """The exact winding number is minus the planar angle-sum winding (the
    lacuna convention counts clockwise loops positively)."""
    center = _lacuna_center(sigma)
    for path in [lacuna_path(sigma), perimeter_path(sigma), perimeter_path("")]:
        assert coh.winding_number(path, sigma) == -_planar_winding(path, center)


@settings(max_examples=60)
@given(walks(closed=True), st.text(alphabet="012", max_size=3))
def test_winding_of_random_closed_walks_against_planar_oracle(path, sigma):
    """The same planar oracle on random closed walks of the level 0-4 graphs:
    it reads only the walk's vertices and the lacuna centre, not the lacuna
    rule."""
    assert coh.winding_number(path, sigma) == -_planar_winding(path, _lacuna_center(sigma))


def test_winding_kronecker_and_concatenation():
    for s in ["", "1", "02"]:
        for t in ["", "1", "02", "2"]:
            assert coh.winding_number(lacuna_path(t), s) == (1 if s == t else 0)
    p = lacuna_path("1")
    doubled = p + p
    assert coh.winding_number(doubled, "1") == 2
    cancel = p + p.reversed()
    assert coh.winding_number(cancel, "1") == 0


def test_periods_of_reference_forms():
    pv = coh.periods_up_to(fm.dz_form("2"), 2)
    for w, cv in pv.entries.items():
        assert cv.value == coh.b_rule("2", w)
    pv = coh.periods_up_to(fm.d(f1), 2)
    assert all(cv.exact and cv.value == 0 for cv in pv.entries.values())
    pv = coh.periods_up_to(fm.fdg(f0, f1), 1)
    assert pv.entries[""].value != 0


def test_period_level_decay():
    rng = random.Random(59)
    u, v = random_harmonic(1, rng), random_harmonic(0, rng)
    w = fm.fdg(u, v)
    pv = coh.periods_up_to(w, 4)
    bound = u.energy() + v.energy()
    for n in range(5):
        assert pv.level_sum(n) <= F(5, 4) * F(3, 5) ** (n + 1) * bound


def test_hodge_of_exact_form():
    hd = coh.hodge_decompose(fm.d(f2), 2)
    assert all(cv.exact and cv.value == 0 for cv in hd.k.values())
    for p, cv in hd.potential.items():
        assert cv.exact and cv.value == f2(p) - f2(P0)


def test_hodge_k_routes_agree():
    w = fm.fdg(f0, f1)
    hd = coh.hodge_decompose(w, 2)
    for s in ["", "0", "11"]:
        proj = coh.harmonic_coefficient(w, s)
        assert proj.exact and proj.value != 0
        assert hd.k[s] == proj
    assert coh.harmonic_coefficient(w, "").value == F(2, 25)


def test_hodge_skeleton_primitive_consistency():
    """On every skeleton edge the primitive's difference is the form's
    integral minus the truncated harmonic form's, minus the lacuna forms past
    the depth: 2/19 of k on the edge's cell, since S - k = (6/19) k at and
    below the data level."""
    w = fm.fdg(f0, f1)
    depth = 2
    hd = coh.hodge_decompose(w, depth)
    omega_h = hd.harmonic_form()
    assert len(omega_h.harmonic) == 13  # every k is nonzero
    potential, k = hd.potential, hd.k  # views: one dict per read
    for letters in itertools.product("012", repeat=depth):
        word = "".join(letters)
        for side in range(3):
            e = OrientedEdge(word, side)
            lhs = potential[e.target] - potential[e.source]
            past = -F(2, 19) * k[word].value
            rhs = fm.integrate_edge(w, e).value - fm.integrate_edge(omega_h, e).value - past
            assert lhs.exact and lhs.value == rhs


def _truncated_k(periods, depth):
    """k^(depth) = A* c over the periods of the words up to the depth."""
    k = {}
    for sigma, cv in periods.items():
        if len(sigma) <= depth:
            for j in range(len(sigma) + 1):
                k[sigma[:j]] = k.get(sigma[:j], F(0)) + coh.a_entry(sigma, sigma[:j]) * cv.value
    return k


def test_k_is_the_de_rham_extrapolation():
    """k = k^(D) + (9/16)(k^(D) - k^(D-1)) for D >= m and D > |sigma|, with
    k^(D) = A* c truncated at D: the level-n parts of A* c shrink by exactly
    9/25 per level from there (data levels m = 0, 1, 2, lacuna and exact
    parts included)."""
    for m in range(3):
        rng = random.Random(m)
        form = fm.fdg(random_harmonic(m, rng), random_harmonic(m, rng)) + fm.d(random_harmonic(m, rng))
        if m:
            form = form + fm.SmoothForm(harmonic={"1" * (m - 1): F(2, 3)})
        hd = coh.hodge_decompose(form, m + 1)
        periods = coh.periods_up_to(form, m + 3).entries
        for D in range(max(m, 1), m + 4):
            kD, kD1 = _truncated_k(periods, D), _truncated_k(periods, D - 1)
            for sigma, cv in hd.k.items():
                if len(sigma) < D:
                    assert cv.value == kD[sigma] + F(9, 16) * (kD[sigma] - kD1.get(sigma, 0))


def test_perimeter_identity():
    for form, sigma, depth in ((fm.dz_form("1"), "1", 3), (fm.d(f0), "", 2), (fm.fdg(f0, f1), "", 6)):
        assert coh.perimeter_identity_check(form, sigma, depth) == CertifiedValue.from_exact(0)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_perimeter_identity_is_exact_on_random_forms(m):
    """Universal terms of data level m, a lacuna form and an exact part: the
    closed tail makes the identity exactly 0 at depths below, at and past m."""
    rng = random.Random(m)
    for _ in range(3):
        form = fm.fdg(random_harmonic(m, rng), random_harmonic(rng.randint(0, m), rng))
        form = form + fm.d(random_harmonic(rng.randint(0, m), rng))
        if m:
            form = form + fm.SmoothForm(harmonic={"2" * rng.randint(0, m - 1): F(rng.randint(1, 5), 3)})
        for sigma in ("", "1", "02"):
            for depth in range(max(len(sigma), max(map(len, form.harmonic), default=0)), m + 3):
                assert coh.perimeter_identity_check(form, sigma, depth) == CertifiedValue.from_exact(0)


def test_winding_integer_guard():
    # a non-closed path must be rejected before any integer check
    with pytest.raises(Exception):
        coh.winding_number(validate_path([OrientedEdge("", 1)]), "")
