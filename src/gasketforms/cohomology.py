"""Periods, the triangular period matrices, winding numbers, and the exact
Hodge decomposition.

B_{rho,tau} is the integral of dz_rho around the lacuna of C_tau; it is lower
unitriangular for the prefix order with entries in {1, -1/3, 0}, and its
inverse A solves a three-term chain recursion with entries in [0, 1].  The
winding form of a word sigma is sum_{rho <= sigma} A_{sigma,rho} dz_rho; its
closed-path integrals are integers that count turns around one lacuna only.

The Hodge decomposition is exact: k = A* c over every word, and a skeleton
primitive U of the exact part anchored at the corner p_0.  Below the data
level the lacuna periods are geometric in each cell (det H_i = 3/25), so k
closes in one recursion up from the table's level and U in one descent in
word order (``hodge_decompose``), on integers over one denominator.

Both read one whole-form integer side-integral table per call, coarsened
level by level (``_period_tables``), refused past ``_TABLE_ENTRIES_MAX``
entries before any work starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .certified import CertifiedValue
from .errors import (
    DepthTooSmallError,
    GasketError,
    NonIntegerResultError,
    NotComparableError,
)
from .forms import (
    SmoothForm,
    _coarsen,
    _form_data_level,
    _normalized_terms,
    _prefix_dz,
    _valued,
    dz_form,
    dz_integral_path,
    integrate_path,
    q_inner_exact,
    side_integral_table,
)
from .geometry import (
    ElementaryPath,
    OrientedEdge,
    Point,
    Word,
    cell_corners,
    is_prefix,
    lacuna_path,
    perimeter_path,
    vertex_id,
    words,
)
from .harmonic import IntTriple, VertexFunction

F0 = Fraction(0)
F1 = Fraction(1)
R35 = Fraction(3, 5)


# Work budget of the per-word tables (periods, skeletons, dz tables of paths,
# homology classes): a table of more entries is refused before any work.
_TABLE_ENTRIES_MAX = 2**20


def _check_budget(count: int, what: str) -> None:
    if count > _TABLE_ENTRIES_MAX:
        raise GasketError(f"{what} needs {count} entries, over the budget of {_TABLE_ENTRIES_MAX}")


def b_thirds(rho: Word, tau: Word) -> int:
    """3·B_{rho,tau} by the combinatorial rule: 3 on the diagonal, -1 when tau
    is a proper prefix of rho whose branch letter does not recur in rho."""
    if rho == tau:
        return 3
    if not is_prefix(tau, rho):
        return 0
    return 0 if rho[len(tau)] in rho[len(tau) + 1:] else -1


def b_rule(rho: Word, tau: Word) -> Fraction:
    """Combinatorial value of B_{rho,tau}."""
    return Fraction(b_thirds(rho, tau), 3)


@lru_cache(maxsize=None)
def b_entry(rho: Word, tau: Word) -> Fraction:
    """B_{rho,tau} by exact integration over the lacuna, asserted against the
    combinatorial rule (a vertex-only contact integrates to zero, which is
    what resolves the boundary case)."""
    value = dz_integral_path(rho, lacuna_path(tau))
    if value != b_rule(rho, tau):
        raise GasketError(f"period matrix mismatch at ({rho!r}, {tau!r})")
    return value


@lru_cache(maxsize=None)
def a_entry(sigma: Word, tau: Word, strict: bool = True) -> Fraction:
    """Entry of A = B^-1 on the prefix chain of sigma."""
    if not is_prefix(tau, sigma):
        if strict:
            raise NotComparableError(f"{tau!r} is not a prefix of {sigma!r}")
        return F0
    if tau == sigma:
        return F1
    acc = F0
    for j in range(len(tau) + 1, len(sigma) + 1):
        rho = sigma[:j]
        if b_thirds(rho, tau):
            acc += a_entry(sigma, rho)
    return acc / 3


class TriangularKernel:
    """Lazy view of the B and A matrices over prefix chains."""

    def b(self, rho: Word, tau: Word) -> Fraction:
        return b_entry(rho, tau)

    def a(self, sigma: Word, tau: Word) -> Fraction:
        return a_entry(sigma, tau)

    def chain_matrices(self, sigma: Word):
        """(B, A) restricted to the chain of prefixes of sigma."""
        chain = [sigma[:j] for j in range(len(sigma) + 1)]
        B = [[self.b(r, t) for t in chain] for r in chain]
        A = [[a_entry(r, t, strict=False) for t in chain] for r in chain]
        return chain, B, A


def _dz_den(edges: Iterable[OrientedEdge]) -> int:
    """A common denominator of the integrals of every dz form over the
    edges: -1/3 for a word through an edge's cell, and up to 6·5^(L-1) for a
    proper prefix of a level-L cell (``_prefix_dz``)."""
    top = max((e.level for e in edges), default=0)
    return 6 * 5 ** (top - 1) if top else 3


def _winding(sigma: Word, counts: dict[Word, int], den: int) -> int:
    """The winding number of sigma from integer dz counts over den (counts[w]
    = den·integral of dz_w along a path, missing words zero): 3^|sigma|·A is
    an integer, so the sum over the prefixes is one integer, divided once.
    NonIntegerResultError when the division leaves a remainder."""
    scale = 3 ** len(sigma)
    acc = 0
    for j in range(len(sigma) + 1):
        c = counts.get(sigma[:j])
        if c:
            a = a_entry(sigma, sigma[:j])
            acc += a.numerator * (scale // a.denominator) * c
    winding, rest = divmod(acc, scale * den)
    if rest:
        raise NonIntegerResultError(f"winding came out {Fraction(acc, scale * den)} for sigma={sigma!r}")
    return winding


def winding_number(path: ElementaryPath, sigma: Word) -> int:
    """Integral of the winding form of sigma along a closed path, from the
    integer counts den·integral of dz_rho of the prefixes rho of sigma.

    An edge (cell tau, side i, sign s) gives a proper prefix of tau its
    ``_prefix_dz`` value, and every prefix tau + r of sigma whose r avoids
    the letter i the value -s/3 (``dz_integral_edge``), counted over
    ``_dz_den``."""
    if not path.closed:
        raise GasketError("winding numbers need a closed path")
    den = _dz_den(path)
    counts = {sigma[:j]: 0 for j in range(len(sigma) + 1)}
    for e in path:
        tau = e.cell
        for w, v in _prefix_dz(tau, e.side):
            if w in counts:
                counts[w] += e.sign * v.numerator * (den // v.denominator)
        if is_prefix(tau, sigma):
            rest = sigma[len(tau):]
            stop = rest.find(str(e.side))
            third = e.sign * den // 3
            for k in range(len(rest) + 1 if stop < 0 else stop + 1):
                counts[tau + rest[:k]] -= third
    return _winding(sigma, counts, den)


# ---------------------------------------------------------------------------
# periods and the Hodge decomposition
# ---------------------------------------------------------------------------

def universal_energy_bound(form: SmoothForm) -> Fraction:
    """sum over non-exact universal terms of |c| (E[F] + E[g]); the constant
    in the lacuna-period level-sum decay (5/4)(3/5)^(n+1) * bound."""
    total = F0
    for c, Fvf, g in _normalized_terms(form):
        if Fvf is None or Fvf.is_constant():
            continue  # exact term: all periods vanish
        total += abs(c) * (Fvf.energy() + g.energy())
    return total


@dataclass(frozen=True)
class PeriodVector:
    depth: int
    entries: dict[Word, CertifiedValue]
    level_sum_bound: Fraction  # level-n sums of |c| bounded by (5/4)(3/5)^(n+1) * this

    def level_sum(self, n: int) -> Fraction:
        return sum(
            (abs(cv.value) for w, cv in self.entries.items() if len(w) == n and cv.exact),
            F0,
        )

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "entries": [
                [w, cv.to_json()["value"], float(cv.radius)]
                for w, cv in sorted(self.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ],
        }


def _levels_up(rows: list[IntTriple]) -> list[list[IntTriple]]:
    """A per-side table of one level and its coarsenings, level 0 first."""
    tables = [rows]
    while len(rows) > 1:
        rows = _coarsen(rows)
        tables.append(rows)
    return tables[::-1]


def _period_tables(form: SmoothForm, depth: int, top: int) -> tuple[int, list[list[IntTriple]], list[list[int]]]:
    """(D, tables, counts): the whole-form side-integral table at every level
    0..top, tables[n] at level n over D, coarsened from one
    ``side_integral_table`` at the top, and D times the lacuna periods of the
    level-n words, counts[n] for n < top: the lacuna of tau is side i of its
    child tau+i.  DepthTooSmallError when a harmonic word is longer than the
    depth, and GasketError past ``_TABLE_ENTRIES_MAX`` cells, before any work."""
    if any(len(sigma) > depth for sigma in form.harmonic):
        raise DepthTooSmallError("harmonic support deeper than the requested period depth")
    _check_budget(3 ** min(top, 64), f"the side-integral tables to level {top}")
    D, rows = side_integral_table(form, top)
    tables = _levels_up(rows)
    return D, tables, [[r0[0] + r1[1] + r2[2] for r0, r1, r2 in zip(T[0::3], T[1::3], T[2::3])] for T in tables[1:]]


def periods_up_to(form: SmoothForm, depth: int) -> PeriodVector:
    """c_sigma = integral of the form around the lacuna of C_sigma, for all
    |sigma| <= depth, exactly.

    One whole-form ``side_integral_table`` at level max(m, depth + 1), m the
    data level, is coarsened level by level: the lacuna of a level-n cell tau
    is side i of its child tau+i, for i = 0, 1, 2.  The periods are integer
    counts over one denominator, divided once per period.

    Raises ExactnessUnavailableError for a product of two non-constant
    factors, DepthTooSmallError when a harmonic word is longer than the
    depth, and GasketError when the 3^max(m, depth + 1) cells exceed
    ``_TABLE_ENTRIES_MAX``, all before any integration."""
    bound = universal_energy_bound(form)
    D, _, counts = _period_tables(form, depth, max(_form_data_level(form), depth + 1))
    entries = {w: CertifiedValue(Fraction(c, D)) for n in range(depth + 1) for w, c in zip(words(n), counts[n])}
    return PeriodVector(depth, entries, bound)


@dataclass(frozen=True)
class HodgeDecomposition:
    """Harmonic coefficients k_sigma for |sigma| <= depth and the skeleton
    primitive U on V_depth, both exact.  ``potential_radius``,
    ``residual_bound`` and every radius are 0; the fields are kept for the
    JSON and the benchmark.
    ``beyond`` = (den, tables) carries what a path pairing adds past the
    depth: tables[n][u][i] is den times the integral, over side i of the u-th
    level-n cell, of the lacuna forms deeper than the depth, the sum over
    |sigma| > depth of k_sigma dz_sigma."""

    depth: int
    k: dict[Word, CertifiedValue]
    potential: dict[Point, CertifiedValue]  # skeleton values on V_depth
    potential_radius: Fraction
    residual_bound: Fraction
    beyond: tuple[int, tuple[list[IntTriple], ...]] = (1, ())

    def harmonic_form(self) -> SmoothForm:
        """The harmonic representative truncated at the depth, the sum over
        |sigma| <= depth of k_sigma dz_sigma."""
        return SmoothForm(harmonic={w: cv.value for w, cv in self.k.items() if cv.value != 0})

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "entries": [
                [w, cv.to_json()["value"], float(cv.radius)]
                for w, cv in sorted(self.k.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ],
            "U_E": {
                "level": self.depth,
                "values": [
                    [vertex_id(p), cv.to_json()["value"]]
                    for p, cv in sorted(self.potential.items(), key=lambda kv: vertex_id(kv[0]))
                ],
                "radius": float(self.potential_radius),
            },
            "residual": float(self.residual_bound),
        }


def _k_at_universal_level(
    terms: list[tuple[Fraction, VertexFunction | None, VertexFunction]],
) -> tuple[int, int, list[int]]:
    """(mu, den, counts) for the normalized universal terms c F dg: mu their
    data level, and den times their k_rho = (2/25) sum of c det[1; F(rho);
    g(rho)] for the level-mu words in word order (F and g are harmonic there
    and det H_i = 3/25, so the periods below rho are geometric)."""
    terms = [(c, F, g) for c, F, g in terms if c and F is not None]
    mu = max((max(F.level, g.level) for _, F, g in terms), default=0)
    scaled = []
    for c, F, g in terms:
        (Df, tf), (Dg, tg) = F.int_triples(mu), g.int_triples(mu)
        dets = [
            f1 * g2 - f2 * g1 + f2 * g0 - f0 * g2 + f0 * g1 - f1 * g0
            for (f0, f1, f2), (g0, g1, g2) in zip(tf, tg)
        ]
        scaled.append((Fraction(2, 25) * c / (Df * Dg), dets))
    den = math.lcm(*(s.denominator for s, _ in scaled))
    counts = [0] * 3**mu
    for s, dets in scaled:
        w = s.numerator * (den // s.denominator)
        counts = [x + w * y for x, y in zip(counts, dets)]
    return mu, den, counts


def hodge_decompose(form: SmoothForm, depth: int) -> HodgeDecomposition:
    """Split the form into its harmonic coefficients k = A* c and a skeleton
    primitive U of the exact part, both exact.

    S(tau, a) sums k over the words tau + r whose r avoids the letter a.  At
    level top = max(m, depth), m the data level, k is the universal part's
    (``_k_at_universal_level``, times 3/25 per level below mu) and
    S = (25/19)·k.  Going up, B* k = c gives k_tau = c_tau + (1/3)·sum_a
    S(tau+a, a) and S(tau, a) = k_tau + sum over b != a of S(tau+b, a).

    Over side i of tau, sum k_sigma dz_sigma integrates to Phi(t) - Phi(s)
    - S(tau, i)/3, Phi the dz potentials of tau's proper prefixes weighted
    by their k, so every residual is exact and U descends in word order from
    U(p_0) = 0: a child's corners are its parent's corner plus the residuals
    of the two child sides through it.  All are integers over K (k),
    6·5^n·K (Phi on level n) and 6·5^depth·K (U), divided once per value.

    The budget charges 3^(depth + 1)·(depth + 1) before any work; products
    of two non-constant factors (ExactnessUnavailableError) and harmonic
    words longer than the depth (DepthTooSmallError) are refused before any
    table.
    """
    _check_budget(3 ** min(depth + 1, 64) * (depth + 1), f"the Hodge decomposition to depth {depth}")
    terms = _normalized_terms(form)
    top = max(_form_data_level(form), depth)
    D, tables, counts = _period_tables(form, depth, top)
    mu, kden, kdet = _k_at_universal_level(terms)
    below = top - mu
    K = math.lcm(D, 19 * kden * 25**below) * 3**top
    # level top: k = 19x and S = 25x over K, x read off the level-mu ancestor
    unit = 3**below * (K // (19 * kden * 25**below))
    x = [v * unit for v in kdet for _ in range(3**below)]
    kints, sums = [[19 * v for v in x]], [[(25 * v,) * 3 for v in x]]
    cscale = K // D
    for n in range(top - 1, -1, -1):
        ks, ss = [], []
        for c, A, B, C in zip(counts[n], *(sums[0][b::3] for b in range(3))):
            kv = c * cscale + (A[0] + B[1] + C[2]) // 3
            ks.append(kv)
            ss.append((kv + B[0] + C[0], kv + A[1] + C[1], kv + A[2] + B[2]))
        kints.insert(0, ks)
        sums.insert(0, ss)

    # residual of side i at level n, over 6·5^depth·K:
    # table·6·5^depth·K/D - 5^(depth - n)·(Phi(t) - Phi(s)) + 2·5^depth·S
    tscale, sscale = cscale * 6 * 5**depth, 2 * 5**depth
    T0, S0 = tables[0][0], sums[0][0]
    cells = [((0, 0, 0), (0, T0[2] * -tscale - sscale * S0[2], T0[1] * tscale + sscale * S0[1]))]
    for n in range(depth):
        step, k5 = 5 ** (depth - n - 1), 5 ** (n + 1)
        T, S, kn = tables[n + 1], sums[n + 1], kints[n]
        children = []
        for u, ((a0, a1, a2), U) in enumerate(cells):
            # Phi on child b is 5·H_b applied to Phi plus k_tau·zeta_b, which
            # over 6·5^(n+1)·K is kz at corner b + 1 and -kz at corner b + 2
            kz = kn[u] * k5
            s = a0 + a1 + a2
            x01, x02, x12 = s + a0 + a1, s + a0 + a2, s + a1 + a2
            phis = ((5 * a0, x01 + kz, x02 - kz), (x01 - kz, 5 * a1, x12 + kz), (x02 + kz, x12 - kz, 5 * a2))
            rows = zip(((0, 1, 2), (1, 2, 0), (2, 0, 1)), phis, T[3 * u : 3 * u + 3], S[3 * u : 3 * u + 3])
            for (b, i, j), f, t, sv in rows:
                # side i runs from corner b to corner j, side j from corner i to corner b
                ri = t[i] * tscale - step * (f[j] - f[b]) + sscale * sv[i]
                rj = t[j] * tscale - step * (f[b] - f[i]) + sscale * sv[j]
                corners = [0, 0, 0]
                corners[b], corners[i], corners[j] = U[b], U[b] - rj, U[b] + ri
                children.append((f, corners))
        cells = children
    uden = 6 * 5**depth * K
    # corner j of the cell tau+a+j...j is also corner a of tau+j+a...a, which
    # comes first in word order when j < a; corner j of j...j is a corner of V_0
    potential: dict[Point, CertifiedValue] = {}
    for w, (_, U) in zip(words(depth), cells):
        for j, p, value in zip("012", cell_corners(w), U):
            if w.rstrip(j)[-1:] < j:
                potential[p] = CertifiedValue(Fraction(value, uden))

    k = {w: CertifiedValue(Fraction(v, K)) for n in range(depth + 1) for w, v in zip(words(n), kints[n])}
    # past the depth: side i of rho carries -(1/3)(S(rho, i) - k_rho), over 3K
    beyond = _levels_up([(kv - s0, kv - s1, kv - s2) for kv, (s0, s1, s2) in zip(kints[depth], sums[depth])])
    return HodgeDecomposition(depth, k, potential, F0, F0, (3 * K, tuple(beyond)))


def harmonic_coefficient(form: SmoothForm, sigma: Word, mode: str = "exact") -> CertifiedValue:
    """Projection-route coefficient Q(dz_sigma, omega) / Q[dz_sigma], exactly;
    certified mode rounds it once."""
    norm = Fraction(5, 6) * Fraction(5, 3) ** len(sigma)
    return _valued(q_inner_exact(dz_form(sigma), form) / norm, mode)


def perimeter_identity_check(form: SmoothForm, sigma: Word, depth: int) -> CertifiedValue:
    """|integral over the perimeter of C_sigma + sum of lacuna periods below|
    together with its geometric tail bound; the periods come from one
    ``periods_up_to(form, depth)``, with its refusals."""
    if depth < len(sigma):
        raise DepthTooSmallError("depth must reach the cell level")
    periods = periods_up_to(form, depth).entries
    total = integrate_path(form, perimeter_path(sigma)).value
    total += sum((cv.value for w, cv in periods.items() if w.startswith(sigma)), F0)
    tail = Fraction(3, 4) * R35**depth * universal_energy_bound(form)
    return CertifiedValue(abs(total), tail)
