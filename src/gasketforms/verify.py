"""The identity-verification suite behind ``gasketforms verify``.

Each check evaluates one family of exact identities or convergence bounds
at its stated depth and reports name, status, the expected and
computed values, and the error radius where one applies.  The report is
deterministic: fixed ordering, rationals as "p/q", fixed float formatting.
The completion counterexample of check 11 (the n-exact forms omega_n and
their limit edge assignment) lives here, out of the library core.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import cohomology as coh
from . import covering as cov
from . import forms as fm
from .errors import GasketError
from .geometry import OrientedEdge, edges_at_level, lacuna_path, level_corners, validate_path, words
from .harmonic import IntTriple, VertexFunction, harmonic_basis, random_harmonic

F0 = Fraction(0)
F1 = Fraction(1)
R35 = Fraction(3, 5)
R53 = Fraction(5, 3)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _item(name, ok, expected, got, radius=None) -> dict:
    return {
        "name": name,
        "status": "PASS" if ok else "FAIL",
        "expected": _fmt(expected),
        "got": _fmt(got),
        "radius": None if radius is None else f"{float(radius):.6g}",
    }


def _aijk_expected(i, j, k) -> Fraction:
    if i == j == k:
        return Fraction(1)
    if (i == j and j != k) or (i != j and j == k):
        return Fraction(-1, 2)
    if i == k and i != j:
        return Fraction(1, 2)
    return F0


def check_product_table() -> list[dict]:
    """Exact Q of the 27 basis products, and the independent route: the
    level-12 endpoint sums (``q_level_sums``) within 1e-6 of the known
    values."""
    f = harmonic_basis()
    bad = []
    worst = F0
    for i, j, k in itertools.product(range(3), repeat=3):
        omega, eta = fm.d(f[i]), fm.fdg(f[j], f[k])
        expected = _aijk_expected(i, j, k)
        v = fm.q_inner_exact(omega, eta)
        if v != expected:
            bad.append((i, j, k, v))
        worst = max(worst, abs(fm.q_level_sums(omega, eta, 0)(12) - expected))
    return [
        _item("product-table-exact-27", not bad, "all in {1, +-1/2, 0}",
              "all match" if not bad else f"{len(bad)} mismatches"),
        _item("product-table-certified-n12", worst <= Fraction(1, 10**6),
              "level-12 sums within 1e-6 of the known values", float(worst)),
    ]


def check_lacuna_pairing() -> list[dict]:
    f = harmonic_basis()
    w = fm.fdg(f[0], f[1])
    z = fm.dz_form("")
    v = fm.q_inner_exact(z, w)
    level12 = fm.q_level_sums(z, w, fm._form_data_level(z))(12)
    return [
        _item("lacuna-pairing-exact", v == Fraction(1, 15), Fraction(1, 15), v),
        _item("lacuna-pairing-certified", abs(level12 - Fraction(1, 15)) <= Fraction(1, 10**6),
              "level-12 sum within 1e-6 of 1/15", float(level12)),
    ]


def check_dz_norms() -> list[dict]:
    bad = 0
    count = 0
    for n in range(4):
        for s in words(n):
            v = fm.q_inner_exact(fm.dz_form(s), fm.dz_form(s))
            count += 1
            if v != Fraction(5, 6) * Fraction(5, 3) ** n:
                bad += 1
    return [_item("dz-norms-depth3", bad == 0, "(5/6)(5/3)^n", f"{count - bad}/{count} exact")]


def check_period_matrices() -> list[dict]:
    """B_{rho,tau} read from the period table of dz_rho to depth 4, checked
    against the combinatorial rule; A = B^-1 on every depth-5 prefix chain,
    in integers: row r of 3^|r|·A (``a_row``) lies in [0, 3^|r|], and times
    3·B (``b_thirds``) it is 3^(|r|+1) on the diagonal and 0 elsewhere."""
    words4 = [w for n in range(5) for w in words(n)]
    ok_b = True
    for rho in words4:
        periods = coh.periods_up_to(fm.dz_form(rho), 4).entries
        for tau in words4:
            v = periods[tau].value
            if v != coh.b_rule(rho, tau) or v not in (Fraction(1), Fraction(-1, 3), F0):
                ok_b = False
            if tau == rho and v != 1:
                ok_b = False
            if not rho.startswith(tau) and v != 0:
                ok_b = False
    ok_a = True
    ok_ab = True
    for sigma in words(5):
        chain = [sigma[:j] for j in range(len(sigma) + 1)]
        for r in chain:
            row = coh.a_row(r)
            if not all(0 <= a <= 3 ** len(r) for a in row):
                ok_a = False
            for c in chain:
                prod = sum(a * coh.b_thirds(m, c) for m, a in zip(chain, row))
                if prod != (3 ** (len(r) + 1) if r == c else 0):
                    ok_ab = False
    return [
        _item("period-matrix-entries-depth4", ok_b, "B in {1, -1/3, 0}, unitriangular", ok_b),
        _item("period-matrix-inverse-depth5", ok_a and ok_ab, "0 <= A <= 1 and AB = I", ok_a and ok_ab),
    ]


def check_winding_delta() -> list[dict]:
    words3 = [w for n in range(4) for w in words(n)]
    ok = True
    for sigma in words3:
        for tau in words3:
            v = coh.winding_number(lacuna_path(tau), sigma)
            if v != (1 if sigma == tau else 0):
                ok = False
    return [_item("winding-kronecker-depth3", ok, "delta(sigma,tau)", ok)]


def check_orthogonality() -> list[dict]:
    rng = random.Random(20240901)
    words2 = [w for n in range(3) for w in words(n)]
    ok_exact_part = True
    for _ in range(20):
        u = random_harmonic(rng.randint(0, 3), rng)
        for s in words2:
            if fm.q_inner_exact(fm.d(u), fm.dz_form(s)) != 0:
                ok_exact_part = False
    ok_dz = True
    for s in words2:
        for t in words2:
            if s == t:
                continue
            if fm.q_inner_exact(fm.dz_form(s), fm.dz_form(t)) != 0:
                ok_dz = False
    return [
        _item("orthogonality-exact-vs-lacuna", ok_exact_part, "0", ok_exact_part),
        _item("orthogonality-lacuna-pairs", ok_dz, "0", ok_dz),
    ]


def check_hodge_consistency(depth: int) -> list[dict]:
    f = harmonic_basis()
    w = fm.fdg(f[0], f[1])
    hd = coh.hodge_decompose(w, depth)
    ok_agree = True
    ok_nonzero = True
    for s in (w for n in range(depth + 1) for w in words(n)):
        proj = coh.harmonic_coefficient(w, s)
        if hd.k[s] != proj:
            ok_agree = False
        if proj.value == 0:
            ok_nonzero = False
    k0 = coh.harmonic_coefficient(w, "")
    return [
        _item("hodge-route-agreement", ok_agree, "period route = projection route", ok_agree),
        _item("hodge-k-empty", k0.exact and k0.value == Fraction(2, 25), Fraction(2, 25), k0.value),
        _item("hodge-k-nonzero-depth3", ok_nonzero, "all k nonzero", ok_nonzero),
    ]


def check_period_decay() -> list[dict]:
    rng = random.Random(77003)
    ok = True
    for _ in range(10):
        u = random_harmonic(rng.randint(0, 2), rng)
        v = random_harmonic(rng.randint(0, 2), rng)
        w = fm.fdg(u, v)
        pv = coh.periods_up_to(w, 6)
        bound_c = u.energy() + v.energy()
        for n in range(7):
            if pv.level_sum(n) > Fraction(5, 4) * R35 ** (n + 1) * bound_c:
                ok = False
    return [_item("period-level-decay", ok, "sum |c| <= (5/4)(3/5)^(n+1)(E[f]+E[g])", ok)]


def check_riemann_convergence() -> list[dict]:
    f = harmonic_basis()
    bound_c = Fraction(3, 4) * (f[0].energy() + f[1].energy())
    ok = True
    for side in range(3):
        e = OrientedEdge("", side)
        exact = fm.integrate_edge(fm.fdg(f[0], f[1]), e).value
        for n in range(1, 21):
            approx = fm._monomial_riemann((f[0],), f[1], (), e, n)
            if abs(approx - exact) > bound_c * R35**n:
                ok = False
    return [_item("riemann-tail-n20", ok, "|I_n - I| <= (3/4)(3/5)^n (E+E)", ok)]


def _random_paths(rng: random.Random, count: int):
    """Pairs of consecutive random walks on a random-level skeleton."""
    out = []
    while len(out) < count:
        level = rng.randint(1, 3)
        adjacency: dict = {}
        for e in edges_at_level(level):
            adjacency.setdefault(e.source, []).append(e)
            adjacency.setdefault(e.target, []).append(e.reversed())

        def walk(start, steps):
            edges = []
            p = start
            for _ in range(steps):
                e = rng.choice(adjacency[p])
                edges.append(e)
                p = e.target
            return validate_path(edges)

        start = rng.choice(sorted(adjacency, key=str))
        g1 = walk(start, rng.randint(1, 4))
        g2 = walk(g1.target, rng.randint(1, 4))
        out.append((g1, g2))
    return out


def check_effective_length() -> list[dict]:
    ok_bound = True
    for n in range(5):
        bound = R35 ** (n - 1) * Fraction(3 + 2 * n, 6)
        for e in edges_at_level(n):
            lv = cov.effective_length(validate_path([e]))
            if lv.value > bound:
                ok_bound = False
    lam = cov.effective_length(validate_path([OrientedEdge("", 1)]))
    ok_e1 = lam.exact and abs(lam.value - Fraction(5, 6)) <= Fraction(1, 10**12)
    rng = random.Random(555)
    ok_sub = True
    for g1, g2 in _random_paths(rng, 50):
        l1 = cov.effective_length(g1, depth=5)
        l2 = cov.effective_length(g2, depth=5)
        l12 = cov.effective_length(g1 + g2, depth=5)
        if l12.value - l12.radius > l1.upper() + l2.upper():
            ok_sub = False
    return [
        _item("effective-length-edge-bound", ok_bound, "(3/5)^(n-1)(3+2n)/6", ok_bound),
        _item("effective-length-e1", ok_e1, Fraction(5, 6), lam.value, radius=Fraction(1, 10**12)),
        _item("effective-length-subadditive", ok_sub, "lambda(ab) <= lambda(a)+lambda(b)", ok_sub),
    ]


# ---------------------------------------------------------------------------
# the completion counterexample: the n-exact forms omega_n and their limit
# ---------------------------------------------------------------------------

def _slope_function() -> VertexFunction:
    return VertexFunction.from_boundary(Fraction(-1, 2), F0, Fraction(1, 2))


def counterexample_form(n: int) -> fm.SmoothForm:
    """The n-exact form omega_n with local potentials 2^-n g(w_sigma^-1 ·)
    on the cells sigma in {0,2}^n (g the 0-harmonic slope with boundary
    -1/2, 0, 1/2), written in the universal part as cutoff·d(extension) per
    cell.  Each of the 2^n terms holds two integer tables of the 3^(n+1)
    level-(n+1) cells, so n past the table budget (n >= 8) is refused before
    any work."""
    if n < 1:
        raise GasketError("n must be at least 1")
    fm._check_budget(2 ** min(n, 64) * 3 ** min(n + 1, 64), f"the counterexample form omega_{n}")
    slope = _slope_function().scale(Fraction(1, 2**n))
    den = slope.int_triple("0")[0]
    corners = level_corners(n + 1)
    owners: dict[tuple[int, int], list[int]] = {}  # the cells each vertex is a corner of
    for u, c in enumerate(corners):
        for q in c:
            owners.setdefault(q, []).append(u)

    def table(vals: dict) -> list[IntTriple]:
        rows = [(0, 0, 0)] * len(corners)
        for u in {u for q in vals for u in owners[q]}:
            rows[u] = tuple(vals.get(q, 0) for q in corners[u])
        return rows

    terms = []
    for sigma in (w for w in words(n) if "1" not in w):
        first = int(sigma, 3) * 3  # the cells sigma+i
        pot = {q: x for i in range(3) for q, x in zip(corners[first + i], slope.int_triple(str(i))[1])}
        chi = dict.fromkeys(pot, 1)
        # a cell outside C_sigma meets it in at most one of its corners, whose
        # potential value it takes at all of its own corners
        for j in range(3):
            q0 = corners[first + j][j]
            for u in owners[q0]:
                for q in corners[u]:
                    pot.setdefault(q, pot[q0])
        terms.append(fm.FormTerm(fm.Atom(VertexFunction(n + 1, 1, table(chi))), VertexFunction(n + 1, den, table(pot))))
    return fm.SmoothForm(terms=tuple(terms))


def _check_counterexample_budget(n: int, k: int) -> None:
    """Refuse a level sum whose table is over the budget, before any work:
    3^n cells below level n, 3^(k - n) from n on."""
    top = n if k < n else k - n
    fm._check_budget(3 ** min(top, 64), f"the counterexample table at level {top}")


def _support_q(n: int, k: int, row: IntTriple) -> Fraction:
    """(5/3)^k sum over E_k of the squared values, for k < n, of the edge
    assignment whose level-n side table is row / 2^(n+1) on each support
    cell of {0,2}^n and zero elsewhere.  Both omega_n and the limit
    assignment add over children, so the level-k table is the level-n one
    coarsened (``forms._coarsen``)."""
    rows = [row if "1" not in w else (0, 0, 0) for w in words(n)]
    for _ in range(n - k):
        rows = fm._coarsen(rows)
    return R53**k * Fraction(sum(x * x for r in rows for x in r), 4 ** (n + 1))


def nonorm_q_level(n: int, k: int) -> Fraction:
    """Q_k[omega_n]: from level n on via the self-similar cell factorization
    (the 2^n support cells carry identical pulled-back data), below n from
    its level-n side table (-1, 2, -1) / 2^(n+1)."""
    _check_counterexample_budget(n, k)
    if k >= n:
        return Fraction(2, 4) ** n * R53**n * _slope_function().energy_at_level(k - n)
    return _support_q(n, k, (-1, 2, -1))


def _qdiff_relative(m: int) -> Fraction:
    """(5/3)^m sum over E_m of |limit assignment - d(slope)|^2, the level
    sum every support cell shares once pulled back: the slope's side
    differences against 2^-m on side 1 of the cells {0,2}^m, all values
    scaled by den·2^m to integers."""
    den, triples = _slope_function().int_triples(m)
    total = 0
    for w, (a, b, c) in zip(words(m), fm._differences(triples)):
        limit = den if "1" not in w else 0
        total += (a << m) ** 2 + (limit - (b << m)) ** 2 + (c << m) ** 2
    return R53**m * Fraction(total, (den << m) ** 2)


def nonorm_q_level_diff(n: int, k: int) -> Fraction:
    """Q_k[limit - omega_n], exactly: below n from the level-n side table
    (1, 0, 1) / 2^(n+1), from n on via the support cells' shared level sum."""
    _check_counterexample_budget(n, k)
    if k < n:
        return _support_q(n, k, (1, 0, 1))
    return Fraction(5, 6) ** n * _qdiff_relative(k - n)


def check_completion_counterexample() -> list[dict]:
    ok_plateau = True
    for n in range(1, 7):
        for k in range(n, n + 5):
            if nonorm_q_level(n, k) != Fraction(3, 2) * Fraction(5, 6) ** n:
                ok_plateau = False
    ok_diff = True
    for n in range(1, 7):
        for k in range(n):
            if nonorm_q_level_diff(n, k) != Fraction(1, 2) * Fraction(10, 3) ** k * Fraction(4) ** (-n):
                ok_diff = False
    ok_sup = True
    for n in range(1, 7):
        sup = max(nonorm_q_level_diff(n, k) for k in range(n + 9))
        if sup > 5 * Fraction(5, 6) ** n:
            ok_sup = False
    return [
        _item("counterexample-q-plateau", ok_plateau, "(3/2)(5/6)^n", ok_plateau),
        _item("counterexample-q-difference", ok_diff, "(1/2)(10/3)^k 4^-n", ok_diff),
        _item("counterexample-q-sup", ok_sup, "<= 5 (5/6)^n", ok_sup),
    ]


def check_divergent_edge_norm() -> list[dict]:
    e1 = OrientedEdge("", 1)
    L = 41
    partials = cov.hnorm_divergence(e1, L)
    closed = [Fraction(2, 15) * sum(Fraction(6, 5) ** j for j in range(m + 1)) for m in range(L + 1)]
    ok_closed = partials == closed
    ok_grow = all(b > a for a, b in zip(partials, partials[1:]))
    crossing = next(i for i, v in enumerate(partials) if v > 1000)
    lam = cov.effective_length(validate_path([e1]))
    ok_lam = lam.exact and lam.value == Fraction(5, 6)
    return [
        _item("hilbert-length-partials", ok_closed and ok_grow, "(2/15) sum (6/5)^n", ok_closed),
        _item("hilbert-length-divergence", partials[crossing] > 1000, "> 1000", f"at L={crossing}"),
        _item("hilbert-vs-dual-length", ok_lam, Fraction(5, 6), lam.value),
    ]


def check_harmonic_module() -> list[dict]:
    rng = random.Random(424243)
    ok_energy = True
    for _ in range(20):
        m = rng.randint(0, 3)
        u = random_harmonic(m, rng)
        levels = u.energy_levels(m + 6)
        if any(e != levels[0] for e in levels):
            ok_energy = False
    ok_osc = True
    for _ in range(20):
        u = random_harmonic(0, rng)
        for n in range(3):
            for w in words(n):
                parent = u.oscillation(w)
                for i in "012":
                    if u.oscillation(w + i) > R35 * parent:
                        ok_osc = False
    return [
        _item("energy-invariance", ok_energy, "E_n = E_m exactly", ok_energy),
        _item("oscillation-decay", ok_osc, "osc(child) <= (3/5) osc(cell)", ok_osc),
    ]


def check_integer_detection() -> list[dict]:
    words = [""] + list("012")
    ok = True
    for coords in itertools.product(range(-2, 3), repeat=4):
        if all(c == 0 for c in coords):
            continue
        g = cov.HomologyElement(2, dict(zip(words, coords)))
        found = False
        for s in words:
            v = cov.phi_hom(s, g)
            if v != 0 and v.denominator == 1:
                found = True
                break
        if not found:
            ok = False
    return [_item("deck-homomorphism-integer", ok, "some phi_sigma(g) in Z \\ {0}", ok)]


CHECKS = [
    ("1", lambda depth: check_product_table()),
    ("2", lambda depth: check_lacuna_pairing()),
    ("3", lambda depth: check_dz_norms()),
    ("4", lambda depth: check_period_matrices()),
    ("5", lambda depth: check_winding_delta()),
    ("6", lambda depth: check_orthogonality()),
    ("7", lambda depth: check_hodge_consistency(min(depth, 3))),
    ("8", lambda depth: check_period_decay()),
    ("9", lambda depth: check_riemann_convergence()),
    ("10", lambda depth: check_effective_length()),
    ("11", lambda depth: check_completion_counterexample()),
    ("12", lambda depth: check_divergent_edge_norm()),
    ("13", lambda depth: check_harmonic_module()),
    ("14", lambda depth: check_integer_detection()),
]


def run_suite(depth: int = 3) -> dict:
    """Every check at ``depth``."""
    suite = []
    for num, fn in CHECKS:
        for item in fn(depth):
            item["criterion"] = num
            suite.append(item)
    return {"suite": suite, "passed": all(s["status"] == "PASS" for s in suite)}
