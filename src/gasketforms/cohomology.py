"""Periods, the triangular period matrices, winding numbers, and the exact
Hodge decomposition.

B_{rho,tau} is the integral of dz_rho around the lacuna of C_tau; it is lower
unitriangular for the prefix order with entries in {1, -1/3, 0}, and its
inverse A has entries in [0, 1], one integer row 3^|sigma|·A per word
(``a_row``) solving B's rule backward along the prefix chain.  The
winding form of a word sigma is sum_{rho <= sigma} A_{sigma,rho} dz_rho; its
closed-path integrals are integers that count turns around one lacuna only,
read from the integer path counts of the lacuna rule (``forms._dz_path_count``).

The Hodge decomposition is exact: k = A* c over every word, and a skeleton
primitive U of the exact part anchored at the corner p_0.  Below the data
level the lacuna periods are geometric in each cell (det H_i = 3/25), so k
closes in one recursion up from the table's level and U in one descent in
word order (``hodge_decompose``), on integers over one denominator.

Both read one whole-form integer side-integral table per call, coarsened
level by level (``_period_tables``): the periods at the data level m, and
past it the closed form from the cell determinants; the Hodge decomposition
at max(m, depth).  Both are refused past ``forms._TABLE_ENTRIES_MAX``
entries before any work starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certified import CertifiedValue
from .errors import (
    DepthTooSmallError,
    GasketError,
    NonIntegerResultError,
    NotComparableError,
)
from .forms import (
    SmoothForm,
    _check_budget,
    _check_depth,
    _coarsen,
    _dz_den,
    _dz_path_count,
    _form_data_level,
    _normalized_terms,
    dz_form,
    dz_integral_path,
    integrate_path,
    q_inner_exact,
    side_integral_table,
)
from .geometry import (
    ElementaryPath,
    Point,
    Word,
    check_word,
    is_prefix,
    lacuna_path,
    level_corners,
    perimeter_path,
    vertex_id,
    vertex_table,
    words,
)
from .harmonic import IntTriple, VertexFunction

F0 = Fraction(0)


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
def a_row(sigma: Word) -> tuple[int, ...]:
    """The integers 3^|sigma|·A_{sigma, sigma[:t]} for t = 0..|sigma|, each in
    [0, 3^|sigma|], in one pass from the end over suffix sums.  B's rule read
    backward: A_{sigma, sigma[:t]} is 1/3 of the sum of A_{sigma, sigma[:j]}
    over t < j <= f_t, f_t the next index of the letter sigma[t] in sigma,
    or |sigma| when it does not recur."""
    n = len(sigma)
    suffix = [0] * n + [3**n, 0]  # suffix[j] = the sum of the row from j on
    last: dict[str, int] = {}
    for t in range(n - 1, -1, -1):
        f = last.get(sigma[t], n)
        suffix[t] = suffix[t + 1] + (suffix[t + 1] - suffix[f + 1]) // 3
        last[sigma[t]] = t
    return tuple(a - b for a, b in zip(suffix, suffix[1:]))


@lru_cache(maxsize=None)
def a_entry(sigma: Word, tau: Word) -> Fraction:
    """Entry of A = B^-1 on the prefix chain of sigma, read from ``a_row``;
    NotComparableError when tau is not a prefix of sigma."""
    if not is_prefix(tau, sigma):
        raise NotComparableError(f"{tau!r} is not a prefix of {sigma!r}")
    return Fraction(a_row(sigma)[len(tau)], 3 ** len(sigma))


class TriangularKernel:
    """Lazy view of the B and A matrices over prefix chains."""

    def chain_matrices(self, sigma: Word):
        """(B, A) restricted to the chain of prefixes of sigma."""
        chain = [sigma[:j] for j in range(len(sigma) + 1)]
        B = [[b_entry(r, t) for t in chain] for r in chain]
        A = [[a_entry(r, t) if is_prefix(t, r) else F0 for t in chain] for r in chain]
        return chain, B, A


def _winding(sigma: Word, counts: dict[Word, int], den: int) -> int:
    """The winding number of sigma from integer dz counts over den (counts[w]
    = den·integral of dz_w along a path, missing words zero): the ``a_row``
    of sigma paired with the counts of its prefixes is one integer over
    3^|sigma|·den, divided once.  NonIntegerResultError when the division
    leaves a remainder."""
    acc = 0
    for j, a in enumerate(a_row(sigma)):
        c = counts.get(sigma[:j])
        if c:
            acc += a * c
    scale = 3 ** len(sigma) * den
    winding, rest = divmod(acc, scale)
    if rest:
        raise NonIntegerResultError(f"winding came out {Fraction(acc, scale)} for sigma={sigma!r}")
    return winding


def winding_number(path: ElementaryPath, sigma: Word) -> int:
    """Integral of the winding form of sigma along a closed path: the
    ``a_row`` of sigma paired with the integer counts den·integral of
    dz_rho (``_dz_path_count``) of the prefixes rho of sigma, den the path's
    ``_dz_den``."""
    check_word(sigma)
    if not path.closed:
        raise GasketError("winding numbers need a closed path")
    den = _dz_den(path)
    counts = {sigma[:j]: _dz_path_count(sigma[:j], path, den) for j in range(len(sigma) + 1)}
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
    depth, and GasketError past ``_TABLE_ENTRIES_MAX`` for 3^max(top, depth + 1),
    the cells of the table or of the level below the deepest periods, before
    any work."""
    if any(len(sigma) > depth for sigma in form.harmonic):
        raise DepthTooSmallError("harmonic support deeper than the requested period depth")
    level = max(top, depth + 1)
    _check_budget(3 ** min(level, 64), f"the period tables to level {level}")
    D, rows = side_integral_table(form, top)
    tables = _levels_up(rows)
    return D, tables, [[r0[0] + r1[1] + r2[2] for r0, r1, r2 in zip(T[0::3], T[1::3], T[2::3])] for T in tables[1:]]


def periods_up_to(form: SmoothForm, depth: int) -> PeriodVector:
    """c_sigma = integral of the form around the lacuna of C_sigma, for all
    |sigma| <= depth, exactly.

    Below the data level m the periods come from one whole-form
    ``side_integral_table`` at level m, coarsened level by level: the lacuna
    of a level-n cell tau is side i of its child tau+i, for i = 0, 1, 2, as
    integer counts over one denominator, divided once per period.  From
    level m on only the universal part has periods, geometric in each cell
    below its data level mu (det H_i = 3/25): c = (16/19)·k·(3/25)^(n - mu)
    = (32/475)·sum of c det[1; F; g], k from ``_k_at_universal_level``, one
    value per level-mu word shared by the words below it.

    Raises DepthTooSmallError for a negative depth first, then
    ExactnessUnavailableError for a product of two non-constant factors,
    DepthTooSmallError when a harmonic word is longer than the depth, and
    GasketError when 3^max(m, depth + 1) exceeds ``_TABLE_ENTRIES_MAX``, all
    before any integration."""
    _check_depth(depth)
    bound = universal_energy_bound(form)
    m = _form_data_level(form)
    D, _, counts = _period_tables(form, depth, m)
    entries = {w: CertifiedValue(Fraction(c, D)) for n in range(min(m, depth + 1)) for w, c in zip(words(n), counts[n])}
    if depth >= m:
        mu, kden, kdet = _k_at_universal_level(_normalized_terms(form))
        for n in range(m, depth + 1):
            scale, below = Fraction(16 * 3 ** (n - mu), 19 * kden * 25 ** (n - mu)), 3 ** (n - mu)
            values = [CertifiedValue(scale * v) for v in kdet]
            entries.update(zip(words(n), (cv for cv in values for _ in range(below))))
    return PeriodVector(depth, entries, bound)


@dataclass(frozen=True)
class HodgeDecomposition:
    """Harmonic coefficients k_sigma for |sigma| <= depth and the skeleton
    primitive U on V_depth, both exact.  ``potential_radius``,
    ``residual_bound`` and every radius are 0; the fields are kept for the
    JSON and the benchmark, and ``potential_difference`` refuses a k entry
    with a radius.
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

    A negative depth (DepthTooSmallError) is refused first.  The budget
    charges 3^(depth + 1)·(depth + 1) before any work; products of two
    non-constant factors (ExactnessUnavailableError) and harmonic words
    longer than the depth (DepthTooSmallError) are refused before any table.
    """
    _check_depth(depth)
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
    # cells that share a vertex give it the same U, since every residual is exact
    ints = {q: x for c, (_, U) in zip(level_corners(depth), cells) for q, x in zip(c, U)}
    potential = {p: CertifiedValue(Fraction(ints[q], uden)) for q, p in vertex_table(depth).items()}

    k = {w: CertifiedValue(Fraction(v, K)) for n in range(depth + 1) for w, v in zip(words(n), kints[n])}
    # past the depth: side i of rho carries -(1/3)(S(rho, i) - k_rho), over 3K
    beyond = _levels_up([(kv - s0, kv - s1, kv - s2) for kv, (s0, s1, s2) in zip(kints[depth], sums[depth])])
    return HodgeDecomposition(depth, k, potential, F0, F0, (3 * K, tuple(beyond)))


def harmonic_coefficient(form: SmoothForm, sigma: Word) -> CertifiedValue:
    """Projection-route coefficient Q(dz_sigma, omega) / Q[dz_sigma], exactly."""
    norm = Fraction(5, 6) * Fraction(5, 3) ** len(sigma)
    return CertifiedValue(q_inner_exact(dz_form(sigma), form) / norm)


def perimeter_identity_check(form: SmoothForm, sigma: Word, depth: int) -> CertifiedValue:
    """The integral over the perimeter of C_sigma plus every lacuna period
    below sigma, exactly: 0 when the identity holds, with radius 0.

    The periods to D = max(depth, m), m the data level, come from
    ``periods_up_to``; past D the level sums below sigma shrink by exactly
    9/25 per level (each cell's period is 3/25 of its parent's), so the tail
    is (9/16) times the level-D sum.  The refusals are those of
    ``periods_up_to(form, depth)``, after DepthTooSmallError for a depth
    short of the cell."""
    if depth < len(sigma):
        raise DepthTooSmallError("depth must reach the cell level")
    D = max(depth, _form_data_level(form))
    periods = periods_up_to(form, depth).entries
    if D > depth:
        periods = periods_up_to(form, D).entries
    below = [(len(w), cv.value) for w, cv in periods.items() if w.startswith(sigma)]
    total = integrate_path(form, perimeter_path(sigma)).value + sum((v for _, v in below), F0)
    return CertifiedValue(total + Fraction(9, 16) * sum((v for n, v in below if n == D), F0))
