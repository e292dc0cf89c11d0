"""Both Q routes against their per-cell and linear-scan oracles, Q's algebraic
properties, and the exact one-cell kernels."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketforms import forms as fm
from gasketforms.certified import sqrt_upper
from gasketforms.errors import ExactnessUnavailableError, NonConvergentError
from gasketforms.harmonic import graph_energy, harmonic_basis, random_harmonic

F = Fraction
F0 = F(0)
R35, R53 = F(3, 5), F(5, 3)
f0, f1, f2 = harmonic_basis()


# ---------------------------------------------------------------------------
# oracles: exact Q cell by cell and piece pair by piece pair, certified Q by a
# linear scan over the levels with every pair bound built per term pair
# ---------------------------------------------------------------------------

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


def exact_oracle(omega, eta):
    m = max(fm._form_data_level(omega), fm._form_data_level(eta))
    cells1, cells2 = fm._cell_pieces(omega, m), fm._cell_pieces(eta, m)
    for cells in (cells1, cells2):
        if any(len(left) > 1 for _, left, _ in cells[0]):
            raise ExactnessUnavailableError("product of two non-constant factors")
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


def _pair_radius_oracle(side1, side2):
    pairs = []
    for s in side1:
        for t in side2:
            if s.left is None and t.left is None:
                continue
            parts = [x.left for x in (s, t) if x.left is not None]
            Fexpr = parts[0] if len(parts) == 1 else fm.Product(parts)
            pairs.append((abs(s.coeff * t.coeff), s, t, fm._defect_ub(Fexpr), fm._osc_rate(Fexpr),
                          sqrt_upper(s.energy * t.energy)))

    def radius(n):
        total = F0
        for c, s, t, defect, osc, sqrt_EsEt in pairs:
            dgk = 2 * ((s.osc * R35 ** (n - s.level)) ** 2 * t.energy
                       + (t.osc * R35 ** (n - t.level)) ** 2 * s.energy)
            total += c * (sqrt_upper(dgk * defect(n)) / 2 + osc(n) * sqrt_EsEt / 2)
        return total

    return radius


def certified_oracle(omega, eta, tolerance, max_level, strict):
    """(value, radius, stop level) by the scan up from max(1, m)."""
    side1, side2 = fm._compile_certified(omega), fm._compile_certified(eta)
    m = max(fm._form_data_level(omega), fm._form_data_level(eta))
    level_sum = fm.q_level_sums(omega, eta, m)
    radius = _pair_radius_oracle(side1, side2)
    vals = []
    n = max(1, m)
    while True:
        vals.append(level_sum(n))
        rad = radius(n)
        if rad <= tolerance or n >= max_level:
            break
        n += 1
    if strict and rad > tolerance:
        raise NonConvergentError(f"certified Q radius {float(rad):.3g} exceeds the tolerance at level {n}")
    value = fm._extrapolate(vals)
    correction = abs(value - vals[-1])
    if correction > 4 * rad:
        raise NonConvergentError("extrapolation disagrees with the tail bound")
    v = float(value)
    return v, rad + correction + F(math.ulp(v)) / 2, n


def _outcome(call, *args):
    try:
        out = call(*args)
    except NonConvergentError as exc:
        return "raised", str(exc)
    return (out.value, out.radius) if isinstance(out, fm.CertifiedValue) else out[:2]


# ---------------------------------------------------------------------------
# forms: data levels 0-2, Sum left factors, lacuna words of length 0-2, an
# optional exact part; with products, also a left factor that only the
# certified route takes
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


def test_exact_q_refuses_products_before_any_tensor(monkeypatch):
    def no_tensor(*args):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(fm, "_shape_tensors", no_tensor)
    w = fm.fdg(fm.Product([fm.Atom(f0), fm.Atom(f1)]), f2)
    for a, b in ((w, fm.d(f0)), (fm.d(f0), w)):
        with pytest.raises(ExactnessUnavailableError):
            fm.q_inner_exact(a, b)


def _radius_at(omega, eta, below_cap, max_level):
    """The scan's radius a given number of levels below the cap, as a
    tolerance that stops the scan exactly there; 1/10 when the pair bounds
    cannot be built."""
    m = max(fm._form_data_level(omega), fm._form_data_level(eta))
    try:
        radius = _pair_radius_oracle(fm._compile_certified(omega), fm._compile_certified(eta))
    except NonConvergentError:
        return F(1, 10)
    return radius(max(1, m, max_level - below_cap))


@settings(max_examples=40)
@given(
    _forms(products=True),
    _forms(products=True),
    st.integers(6, 10),
    st.one_of(st.sampled_from([F(1), F(1, 10), F(1, 10**6), F(1, 10**9)]), st.integers(0, 5)),
    st.booleans(),
)
def test_certified_q_equals_the_linear_scan(omega, eta, max_level, tolerance, strict):
    """Fixed tolerances, and radii of the scan itself at the cap and up to
    five levels below it (an integer draw), so that the scan stops at the
    first level, between it and the cap, at the cap, or misses."""
    if isinstance(tolerance, int):
        tolerance = _radius_at(omega, eta, tolerance, max_level)
    for a, b in ((omega, eta), (eta, omega)):
        got = _outcome(fm.q_inner_certified, a, b, tolerance, max_level, strict)
        assert got == _outcome(certified_oracle, a, b, tolerance, max_level, strict)


@pytest.mark.parametrize("tolerance, below_cap", [(F(1, 10), True), (F(1, 10**9), False)])
def test_certified_q_stops_where_the_scan_stops(tolerance, below_cap):
    """One tolerance the scan meets below the cap, one it meets only at or
    past it: both give the oracle's value and radius."""
    omega = fm.fdg(fm.Sum([fm.Atom(f0), fm.Atom(f1)]), f2) + fm.dz_form("1")
    eta = fm.fdg(fm.Product([fm.Atom(f0), fm.Atom(f1)]), f2) + fm.d(f1)
    for a, b in ((omega, omega), (omega, eta)):
        v, r, n = certified_oracle(a, b, tolerance, 10, False)
        assert (1 < n < 10) == below_cap
        cv = fm.q_inner_certified(a, b, tolerance, 10, strict=False)
        assert (cv.value, cv.radius) == (v, r)


# ---------------------------------------------------------------------------
# properties of exact Q
# ---------------------------------------------------------------------------

@settings(max_examples=15)
@given(_forms(products=False), _forms(products=False), _forms(products=False), st.integers(-7, 7))
def test_exact_q_is_symmetric_and_bilinear(a, b, c, k):
    assert fm.q_inner_exact(a, b) == fm.q_inner_exact(b, a)
    assert fm.q_inner_exact(a + b, c) == fm.q_inner_exact(a, c) + fm.q_inner_exact(b, c)
    assert fm.q_inner_exact(a.scaled(F(k, 3)), c) == F(k, 3) * fm.q_inner_exact(a, c)


# ---------------------------------------------------------------------------
# the exact one-cell kernels
# ---------------------------------------------------------------------------

def _kernel(p, r):
    den, K = fm._exact_q_kernel(p, r)
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


def test_certified_q_raises_like_the_scan():
    """A left factor without a defect bound, and a tolerance missed at the
    cap in strict mode: the same NonConvergentError from both."""
    mixed = fm.fdg(fm.Sum([fm.Product([fm.Atom(f0), fm.Atom(f1)]), fm.Atom(f2)]), f1)
    plain = fm.fdg(f0, f1)
    for a, b, strict in ((mixed, plain, False), (plain, plain, True)):
        got = _outcome(fm.q_inner_certified, a, b, F(1, 10**9), 8, strict)
        assert got[0] == "raised"
        assert got == _outcome(certified_oracle, a, b, F(1, 10**9), 8, strict)
