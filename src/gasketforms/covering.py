"""Effective lengths, finite-level homology, and potentials on the abelian
pro-covering.

Sequences indexed by words carry two dual norms: N takes the sup over levels
of (5/3)^n times the level sum, N' sums (3/5)^n times the level sup.  A path
has finite effective length when the sequence of its lacuna-form integrals is
N'-finite; that length controls potential differences of forms whose harmonic
coefficients are N-finite, through the pairing |sum a b| <= N(a) N'(b).

A path's lacuna-form integrals sigma -> int_path dz_sigma come from one
table, built in a single pass over the path's edges as integer counts over
one denominator by the lacuna rule of ``forms`` (``forms._dz_counts``;
``dz_path_integrals`` divides them);
effective lengths (its N' norm), homology classes (A applied to it) and
potential differences (its pairing with the harmonic coefficients) all read
that table and divide once per result.  Potential differences are exact:
the skeleton primitive's variation, the pairing with the exact k up to the
depth, and the lacuna forms past the depth, which the Hodge decomposition
carries per cell and side.

Points of the covering are never materialized: homology classes are integer
coordinate vectors over lacuna generators (winding numbers), the deck-group
homomorphisms phi_sigma are rows of the period matrix B, and group lengths
are N' norms of those rows, computed exactly in one integer descent of the
prefix tree: B's rule leaves three integer slots per word, and the level
past the class support gives the sups of every deeper level, which are
constant from three levels past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .certified import CertifiedValue
from .cohomology import HodgeDecomposition, _winding, b_thirds, hodge_decompose
from .errors import DepthTooSmallError, GasketError
from .forms import SmoothForm, _check_budget, _check_depth, _dz_counts
from .geometry import ElementaryPath, OrientedEdge, Word, check_word, words

F0 = Fraction(0)
R35 = Fraction(3, 5)


# ---------------------------------------------------------------------------
# the dz table of a path
# ---------------------------------------------------------------------------

def dz_path_integrals(path: Iterable[OrientedEdge], depth: int) -> dict[Word, Fraction]:
    """{sigma: integral of dz_sigma along the path} for every |sigma| <= depth
    whose value is nonzero, from the integer counts of ``_dz_counts``.
    DepthTooSmallError for a negative depth, before any work."""
    _check_depth(depth)
    den, counts = _dz_counts(list(path), depth)
    return {w: Fraction(c, den) for w, c in counts.items() if c}


# ---------------------------------------------------------------------------
# effective length
# ---------------------------------------------------------------------------

def effective_length(path: ElementaryPath, depth: int = 8) -> CertifiedValue:
    """N' of the lacuna-form integrals along the path, with per-level sups
    read from the integer dz counts.

    A single edge at level L is exact and does not read ``depth``: below L
    only the prefix words of its cell meet it, and from L on the sup is
    exactly 1/3, attained by the branch words avoiding the side letter, so
    the levels from L on add (1/3)(3/5)^L·(5/2).  Longer paths are exact up
    to the depth, with a conservative geometric tail.  DepthTooSmallError
    for a negative depth, before any work.
    """
    _check_depth(depth)
    edges = list(path)
    if len(edges) == 1:
        depth = edges[0].level - 1
    den, counts = _dz_counts(edges, depth)
    sups = [0] * (depth + 1)
    for w, c in counts.items():
        a = abs(c)
        if a > sups[len(w)]:
            sups[len(w)] = a
    finite = sum((R35**k * Fraction(s, den) for k, s in enumerate(sups)), F0)
    tail_total = len(edges) * Fraction(1, 3) * R35 ** (depth + 1) * Fraction(5, 2)
    if len(edges) == 1:
        return CertifiedValue.from_exact(finite + tail_total)
    return CertifiedValue(finite + tail_total / 2, tail_total / 2)


def hnorm_divergence(e: OrientedEdge, levels: int) -> list[Fraction]:
    """Partial sums of the squared Hilbert-norm effective length of an edge:
    (6/5) sum_{n <= L} (3/5)^n sum_{|sigma| = n} |int_e dz_sigma|^2.

    Below the edge level n0 only the prefix words of the edge's cell meet
    it, read from its integer dz counts; from n0 on the level sum is exactly
    2^(n - n0) / 9: one word per string avoiding the side letter, each
    integral -sign/3 (``dz_integral_edge``).
    """
    n0 = e.level
    den, counts = _dz_counts([e], min(levels, n0 - 1))
    level_sq = [0] * n0
    for w, c in counts.items():
        level_sq[len(w)] += c * c
    partial = F0
    out = []
    for n in range(levels + 1):
        partial += R35**n * (Fraction(level_sq[n], den * den) if n < n0 else Fraction(2 ** (n - n0), 9))
        out.append(Fraction(6, 5) * partial)
    return out


# ---------------------------------------------------------------------------
# finite-level homology and group lengths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyElement:
    """Integer coordinates over the lacuna generators of words shorter than
    the depth."""

    depth: int
    coords: dict[Word, int] = field(default_factory=dict)

    def __post_init__(self):
        for w in self.coords:
            if len(check_word(w)) >= self.depth:
                raise GasketError("coordinate word at or beyond the depth")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords.values())

    def __add__(self, other: "HomologyElement") -> "HomologyElement":
        depth = max(self.depth, other.depth)
        coords = dict(self.coords)
        for w, c in other.coords.items():
            coords[w] = coords.get(w, 0) + c
        return HomologyElement(depth, {w: c for w, c in coords.items() if c != 0})

    def __neg__(self) -> "HomologyElement":
        return HomologyElement(self.depth, {w: -c for w, c in self.coords.items()})

    def support_level(self) -> int:
        return max((len(w) for w, c in self.coords.items() if c != 0), default=-1)


def homology_class(path: ElementaryPath, depth: int) -> HomologyElement:
    """Coordinates of a closed path: winding numbers around each lacuna,
    sum_j A_{w, w[:j]} * (integral of dz_{w[:j]}) for every |w| < depth,
    read from the integer dz counts (3^|w| A_{w, w[:j]} is an integer).
    DepthTooSmallError for a negative depth."""
    _check_depth(depth)
    if depth > 0 and not path.closed:
        raise GasketError("winding numbers need a closed path")
    _check_budget((3 ** min(depth, 64) - 1) // 2, f"a homology class to depth {depth}")
    den, counts = _dz_counts(list(path), depth - 1)
    coords: dict[Word, int] = {}
    for n in range(depth):
        for w in words(n):
            winding = _winding(w, counts, den)
            if winding:
                coords[w] = winding
    return HomologyElement(depth, coords)


def phi_hom(sigma: Word, g: HomologyElement) -> Fraction:
    """The deck homomorphism of the potential z_sigma evaluated on g."""
    if len(check_word(sigma)) >= g.depth:
        raise GasketError("phi needs |sigma| below the class depth")
    return Fraction(sum(c * b_thirds(sigma, tau) for tau, c in g.coords.items()), 3)


def group_length(g: HomologyElement) -> CertifiedValue:
    """N' of the sequence phi_sigma(g): the deck-group length of g, exact.

    One descent of the prefix tree to the level L + 1 past the support L.
    B's rule gives 3·phi_rho(g) = 3·c_rho - sum_b c(rho[:j_b]), j_b the last
    index of the letter b in rho, so each word carries three integer slots,
    and extending rho by the letter a sets slot a to c_rho.  Levels 0..L
    take their sups directly.  Past the support, 3·phi of a word through pi
    at level L + 1 is minus the sum of pi's slots over the letters its tail
    does not use: no letter at L + 1, one at L + 2, one or two from L + 3
    on (three give 0), so every sup from L + 3 on is the same.  GasketError
    when the 3^(L+1) words of the last level are over the table budget,
    before any work.
    """
    L = g.support_level()
    if L < 0:
        return CertifiedValue.from_exact(0)
    _check_budget(3 ** min(L + 1, 64), f"a group length at support level {L}")
    coords: list[dict[int, int]] = [{} for _ in range(L + 1)]
    for w, c in g.coords.items():
        if c:
            coords[len(w)][int(w or "0", 3)] = c
    sups = []  # 3·the sup of |phi| per level, integers
    slots = [(0, 0, 0)]  # per word of the level, in lexicographic order
    for k in range(L + 1):
        level = [(coords[k].get(i, 0), s) for i, s in enumerate(slots)]
        sups.append(max(abs(3 * c - sum(s)) for c, s in level))
        if k < L:
            slots = [t for c, (x, y, z) in level for t in ((c, y, z), (x, c, z), (x, y, c))]
    # the words of level L + 1, one at a time: tails using no, one, two letters
    none = one = two = 0
    for c, (x, y, z) in level:
        for a, b, d in ((c, y, z), (x, c, z), (x, y, c)):
            t = a + b + d
            none = max(none, abs(t))
            one = max(one, abs(t - a), abs(t - b), abs(t - d))
            two = max(two, abs(a), abs(b), abs(d))
    sups += [none, one, max(one, two)]
    # sum_k (3/5)^k sups_k / 3, plus the tail from L + 4 on, (3/5)^(L+4)·(5/2)
    # times the last sup, over one denominator
    n = L + 4
    total = sum(2 * 3**k * 5 ** (n - k) * s for k, s in enumerate(sups)) + 5 * 3**n * sups[-1]
    return CertifiedValue.from_exact(Fraction(total, 6 * 5**n))


# ---------------------------------------------------------------------------
# potentials of N-finite forms
# ---------------------------------------------------------------------------

def potential_difference(
    form: SmoothForm,
    path: ElementaryPath,
    depth: int,
    decomposition: Optional[HodgeDecomposition] = None,
) -> CertifiedValue:
    """Integral of the form along the path through its covering potential,
    exactly: the skeleton primitive's variation, plus sum over |sigma| <=
    depth of k_sigma times the path's integer dz count, plus the lacuna
    forms past the depth, one ``beyond`` entry per edge.  A k entry the
    path meets must be exact (``HodgeDecomposition``): one with a radius is
    refused with ``GasketError``."""
    if max(e.level for e in path) > depth:
        raise DepthTooSmallError("path uses edges finer than the depth")
    if decomposition is not None and decomposition.depth != depth:
        raise DepthTooSmallError(
            f"decomposition has depth {decomposition.depth}, not the requested {depth}"
        )
    edges = list(path)
    den, counts = _dz_counts(edges, depth)
    dec = decomposition if decomposition is not None else hodge_decompose(form, depth)
    value = F0
    for sigma, c in counts.items():
        kcv = dec.k.get(sigma)
        if c and kcv is not None:
            if kcv.radius:
                raise GasketError(f"k[{sigma!r}] has a nonzero radius; a decomposition's k must be exact")
            value += kcv.value * c
    bden, tables = dec.beyond
    past = sum(e.sign * tables[e.level][int(e.cell or "0", 3)][e.side] for e in edges) if tables else 0
    total = dec.potential[path.target] - dec.potential[path.source]
    return total + CertifiedValue(value / den + Fraction(past, bden))
