"""Periods, the triangular period matrices, winding numbers, and the Hodge
decomposition with its truncation tails.

B_{rho,tau} is the integral of dz_rho around the lacuna of C_tau; it is lower
unitriangular for the prefix order with entries in {1, -1/3, 0}, and its
inverse A solves a three-term chain recursion with entries in [0, 1].  The
winding form of a word sigma is sum_{rho <= sigma} A_{sigma,rho} dz_rho; its
closed-path integrals are integers that count turns around one lacuna only.

The Hodge decomposition of a form with finite stored energy bounds is
computed from its periods: k = A* c truncated at a depth, with tails bounded
by the geometric decay of lacuna periods, and a skeleton primitive for the
residual exact part anchored at the corner p_0.  Both run on integer counts
over one denominator, divided once per output value: the periods over the
table's D, each k over D·3^depth (3^|sigma|·A_{sigma,tau} is an integer),
and the primitive over D·3^depth·W, W the common denominator of the
skeleton tree's dz weights; a radius is the k tail times the spread of the
point's tree path plus its hop count times the per-edge tail.

Both are exact and read one whole-form integer side-integral table per call
(``forms.side_integral_table``: universal, lacuna and exact parts), coarsened
level by level: a lacuna period sums side i of the three children of its
cell, and a skeleton edge reads its own side.  The per-word tables are
refused past ``_TABLE_ENTRIES_MAX`` entries before any work starts.
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
    P0,
    ElementaryPath,
    OrientedEdge,
    Point,
    Word,
    edges_at_level,
    is_prefix,
    lacuna_path,
    perimeter_path,
    vertex_id,
    words,
)
from .harmonic import IntTriple

F0 = Fraction(0)
F1 = Fraction(1)
R35 = Fraction(3, 5)
_THIRD = Fraction(1, 3)


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


def _period_tables(form: SmoothForm, depth: int) -> tuple[Fraction, int, list[list[int]], list[list[IntTriple]]]:
    """(bound, D, counts, tables): ``universal_energy_bound(form)``; D times
    the lacuna periods to the depth, counts[n] over the level-n words in word
    order; and the whole-form side-integral table at every level
    0..max(m, depth + 1), tables[n] at level n over D, coarsened from one
    ``side_integral_table`` at the top."""
    bound = universal_energy_bound(form)
    if any(len(sigma) > depth for sigma in form.harmonic):
        raise DepthTooSmallError("harmonic support deeper than the requested period depth")
    top = max(_form_data_level(form), depth + 1)
    _check_budget(3 ** min(top, 64), f"the lacuna and skeleton tables to depth {depth}")
    D, rows = side_integral_table(form, top)
    tables = [rows]
    while len(rows) > 1:
        rows = _coarsen(rows)
        tables.append(rows)
    tables.reverse()
    counts = [[r0[0] + r1[1] + r2[2] for r0, r1, r2 in zip(T[0::3], T[1::3], T[2::3])] for T in tables[1 : depth + 2]]
    return bound, D, counts, tables


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
    bound, D, counts, _ = _period_tables(form, depth)
    entries = {w: CertifiedValue(Fraction(c, D)) for n, row in enumerate(counts) for w, c in zip(words(n), row)}
    return PeriodVector(depth, entries, bound)


def k_tail_bound(level_sum_bound: Fraction, depth: int) -> Fraction:
    """Bound for sum_{|sigma| = m} |k_sigma| summed over all m > depth."""
    # level-m sums of |k| <= sum_{j >= m} levelsum_j(c) <= (25/8)(3/5)^(m+1) C
    return Fraction(25, 8) * R35 ** (depth + 2) * Fraction(5, 2) * level_sum_bound


def k_level_sum_bound(level_sum_bound: Fraction, m: int) -> Fraction:
    return Fraction(25, 8) * R35 ** (m + 1) * level_sum_bound


@dataclass(frozen=True)
class HodgeDecomposition:
    depth: int
    k: dict[Word, CertifiedValue]
    potential: dict[Point, CertifiedValue]  # skeleton values on V_depth
    potential_radius: Fraction
    residual_bound: Fraction

    def harmonic_form(self) -> SmoothForm:
        """The depth-truncated harmonic representative sum k_sigma dz_sigma
        (the exact midpoints; each k's radius bounds only the dropped tail)."""
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


SkeletonStep = tuple[int, OrientedEdge, tuple[tuple[Word, int], ...]]
SkeletonTree = tuple[tuple[Point, ...], tuple[SkeletonStep, ...], int, tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=None)
def _skeleton_tree(depth: int) -> SkeletonTree:
    """(points, steps, W, spreads, hops): the deterministic breadth-first tree
    of the level-``depth`` skeleton from p_0, frontiers and the neighbours of
    each point visited in ``vertex_id`` order.  The points are in visiting
    order; the step that reaches point i + 1 is (parent index, edge from the
    parent, weights), the weights (tau, W times the integral of dz_tau over
    the edge) for every tau that does not vanish on it: the prefixes of its
    cell (``_prefix_dz``) and the cell itself, -1/3.  W is the least common
    denominator of all the weights, spreads[i] is W times the sum of the
    absolute weights along the tree path from p_0 to point i, and hops[i] is
    the number of edges on that path."""
    adjacency: dict[Point, list[tuple[Point, OrientedEdge]]] = {}
    for e in edges_at_level(depth):
        adjacency.setdefault(e.source, []).append((e.target, e))
        adjacency.setdefault(e.target, []).append((e.source, e.reversed()))
    index = {P0: 0}
    reached: list[tuple[int, OrientedEdge, tuple[tuple[Word, Fraction], ...]]] = []
    frontier = [P0]
    while frontier:
        nxt: list[Point] = []
        for p in sorted(frontier, key=vertex_id):
            for q, e in sorted(adjacency[p], key=lambda t: vertex_id(t[0])):
                if q in index:
                    continue
                index[q] = len(index)
                reached.append((index[p], e, _prefix_dz(e.cell, e.side) + ((e.cell, -_THIRD),)))
                nxt.append(q)
        frontier = nxt
    W = math.lcm(*(w.denominator for _, _, weights in reached for _, w in weights))
    steps: list[SkeletonStep] = []
    spreads, hops = [0], [0]
    for parent, e, weights in reached:
        ints = tuple((tau, e.sign * w.numerator * (W // w.denominator)) for tau, w in weights)
        steps.append((parent, e, ints))
        spreads.append(spreads[parent] + sum(abs(w) for _, w in ints))
        hops.append(hops[parent] + 1)
    return tuple(index), tuple(steps), W, tuple(spreads), tuple(hops)


def hodge_decompose(
    form: SmoothForm,
    depth: int,
    tolerance: Fraction | None = None,
) -> HodgeDecomposition:
    """Split the form into harmonic coefficients (period route, k = A* c
    truncated at the depth) and a skeleton primitive for the exact part.

    The period counts and the skeleton edge integrals come from one
    whole-form integer side-integral table (``_period_tables``).  The
    primitive is anchored at U(p_0) = 0 and summed along the breadth-first
    tree of the level-``depth`` skeleton (``_skeleton_tree``, built once per
    depth) in one linear sweep; k, values and radii are integers over one
    denominator each (see the module docstring), divided once per value.

    The work budget charges 3^(depth + 1)·(depth + 1) against
    ``_TABLE_ENTRIES_MAX``: the prefix work of k = A* c over the periods and
    of the residuals over the 3^(depth + 1) skeleton edges, each of which
    reads up to depth + 1 prefixes.  Past it GasketError is raised before any
    work; the table then checks its own budget.
    """
    _check_budget(3 ** min(depth + 1, 64) * (depth + 1), f"the Hodge decomposition to depth {depth}")
    bound, D, counts, tables = _period_tables(form, depth)
    ktail = k_tail_bound(bound, depth)
    if tolerance is not None and ktail > tolerance:
        raise DepthTooSmallError(
            f"k-tail bound {float(ktail):.3g} exceeds tolerance at depth {depth}"
        )
    # k_tau = sum of A_{sigma,tau} c_sigma over the words sigma that tau
    # prefixes, as integers over D·3^depth (3^|sigma|·A_{sigma,tau} is one)
    kint = {w: 0 for n in range(depth + 1) for w in words(n)}
    for n, row in enumerate(counts):
        p3 = 3**n
        for sigma, c in zip(words(n), row):
            if c:
                c *= 3 ** (depth - n)
                for j in range(n + 1):
                    a = a_entry(sigma, sigma[:j])
                    kint[sigma[:j]] += a.numerator * (p3 // a.denominator) * c
    kden = D * 3**depth
    k = {tau: CertifiedValue(Fraction(v, kden), ktail) for tau, v in kint.items()}

    # residual edge integrals d U_E(e) = int_e (omega - omega_H): the dropped
    # dz terms contribute at most sum_{m > depth} levelsum_m(k) * 1/3
    edge_dz_tail = Fraction(125, 48) * R35 ** (depth + 2) * bound
    rows = tables[depth]
    points, steps, W, spreads, hops = _skeleton_tree(depth)
    scale = 3**depth * W
    values = [0]
    for parent, e, weights in steps:
        value = e.sign * rows[int(e.cell or "0", 3)][e.side] * scale
        for tau, w in weights:
            value -= kint[tau] * w
        values.append(values[parent] + value)
    # ktail·spread/W + hops·edge_dz_tail, as integers over rden
    rden = ktail.denominator * W * edge_dz_tail.denominator
    per_spread = ktail.numerator * edge_dz_tail.denominator
    per_hop = edge_dz_tail.numerator * ktail.denominator * W
    radii = [per_spread * s + per_hop * h for s, h in zip(spreads, hops)]
    potential = {
        p: CertifiedValue(Fraction(v, kden * W), Fraction(r, rden)) for p, v, r in zip(points, values, radii)
    }
    pot_radius = Fraction(max(radii), rden)
    return HodgeDecomposition(depth, k, potential, pot_radius, ktail + pot_radius)


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
