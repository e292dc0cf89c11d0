"""Sequence norms, effective lengths, finite-level homology, and potentials
on the abelian pro-covering.

Sequences indexed by words carry two dual norms: N takes the sup over levels
of (5/3)^n times the level sum, N' sums (3/5)^n times the level sup.  A path
has finite effective length when the sequence of its lacuna-form integrals is
N'-finite; that length controls potential differences of forms whose harmonic
coefficients are N-finite, through the pairing |sum a b| <= N(a) N'(b).

A path's lacuna-form integrals sigma -> int_path dz_sigma come from one
table, built in a single pass over the path's edges as integer counts over
one denominator (``_dz_counts``; ``dz_path_integrals`` divides them);
effective lengths (its N' norm), homology classes (A applied to it) and
potential differences (its pairing with the harmonic coefficients) all read
that table and divide once per result.  Potential differences are exact:
the skeleton primitive's variation, the pairing with the exact k up to the
depth, and the lacuna forms past the depth, which the Hodge decomposition
carries per cell and side.

Points of the covering are never materialized: homology classes are integer
coordinate vectors over lacuna generators (winding numbers), the deck-group
homomorphisms phi_sigma are rows of the period matrix B, and group lengths
are N' norms of those rows, computed exactly by a stabilization argument for
the per-level sups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .certified import CertifiedValue
from .cohomology import (
    HodgeDecomposition,
    _check_budget,
    _dz_den,
    _winding,
    b_rule,
    b_thirds,
    hodge_decompose,
)
from .errors import (
    DepthTooSmallError,
    GasketError,
    UnboundedTailError,
)
from .forms import SmoothForm, _prefix_dz
from .geometry import ElementaryPath, OrientedEdge, Word, words

F0 = Fraction(0)
F1 = Fraction(1)
R35 = Fraction(3, 5)
R53 = Fraction(5, 3)


# ---------------------------------------------------------------------------
# level sequences and the two norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBound:
    """Geometric bounds for levels beyond the stored depth: level-n sup is at
    most sup_coeff * sup_ratio^n and the level-n sum at most
    sum_coeff * sum_ratio^n; ``sup_exact`` marks the sup bound as attained."""

    sup_coeff: Fraction = F0
    sup_ratio: Fraction = F1
    sum_coeff: Fraction = F0
    sum_ratio: Fraction = F1
    sup_exact: bool = False


@dataclass(frozen=True)
class LevelSequence:
    """Per-level aggregates (sum of |.|, sup of |.|) up to a depth, plus an
    optional tail descriptor; full per-word maps may be kept for inspection."""

    sums: tuple[Fraction, ...]
    sups: tuple[Fraction, ...]
    tail: Optional[TailBound] = None
    values: Optional[dict[Word, Fraction]] = None

    @property
    def depth(self) -> int:
        return len(self.sums) - 1

    @staticmethod
    def from_values(values: dict[Word, Fraction], depth: int, tail: Optional[TailBound] = None) -> "LevelSequence":
        """Aggregate a finitely-supported word map; ``depth`` may be -1 when
        every stored level is covered by the tail descriptor."""
        sums = []
        sups = []
        for n in range(depth + 1):
            level = [abs(v) for w, v in values.items() if len(w) == n]
            sums.append(sum(level, F0))
            sups.append(max(level, default=F0))
        return LevelSequence(tuple(sums), tuple(sups), tail, dict(values))


def norm_N(seq: LevelSequence) -> CertifiedValue:
    """sup_n (5/3)^n * (level-n sum)."""
    finite = max((R53**n * s for n, s in enumerate(seq.sums)), default=F0)
    t = seq.tail
    if t is None or t.sum_coeff == 0:
        return CertifiedValue.from_exact(finite)
    growth = R53 * t.sum_ratio
    if growth > 1:
        raise UnboundedTailError("level sums grow faster than (3/5)^n")
    d = seq.depth
    tail_sup = t.sum_coeff * R53 ** (d + 1) * t.sum_ratio ** (d + 1)
    hi = max(finite, tail_sup)
    return CertifiedValue((finite + hi) / 2, (hi - finite) / 2)


def norm_Nprime(seq: LevelSequence) -> CertifiedValue:
    """sum_n (3/5)^n * (level-n sup)."""
    finite = sum((R35**n * s for n, s in enumerate(seq.sups)), F0)
    t = seq.tail
    if t is None or t.sup_coeff == 0:
        return CertifiedValue.from_exact(finite)
    r = R35 * t.sup_ratio
    if r >= 1:
        raise UnboundedTailError("level sups do not decay against (3/5)^n")
    d = seq.depth
    tail_total = t.sup_coeff * t.sup_ratio ** (d + 1) * R35 ** (d + 1) / (1 - r)
    if t.sup_exact:
        return CertifiedValue.from_exact(finite + tail_total)
    return CertifiedValue(finite + tail_total / 2, tail_total / 2)


# ---------------------------------------------------------------------------
# the dz table of a path
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _avoiding(letter: str, max_len: int) -> tuple[str, ...]:
    """The strings of length 0..max_len over the two letters other than
    ``letter``, shortest first."""
    if max_len <= 0:
        return ("",) if max_len == 0 else ()
    shorter = _avoiding(letter, max_len - 1)  # ends with the 2^(max_len-1) of length max_len-1
    others = [c for c in "012" if c != letter]
    return shorter + tuple(r + c for r in shorter[len(shorter) // 2:] for c in others)


def _dz_counts(edges: list[OrientedEdge], depth: int) -> tuple[int, dict[Word, int]]:
    """(D, {sigma: D * integral of dz_sigma along the edges}) for every
    |sigma| <= depth that meets an edge (zero counts included), in one pass
    over the edges in integers.

    An edge (cell tau, side i, sign s) meets the lacunas of two kinds of
    words: a proper prefix tau[:k] (through the local potential of
    dz_{tau[:k]} on the sub-cell tau[:k+1]), and tau + r for every string r
    avoiding the letter i, each with value -s/3; see ``dz_integral_edge``.
    Refused with ``GasketError`` when the table would exceed
    ``cohomology._TABLE_ENTRIES_MAX`` entries.
    """
    size = sum(
        min(e.level, depth + 1) + (2 ** min(depth - e.level + 1, 64) - 1 if depth >= e.level else 0)
        for e in edges
    )
    _check_budget(size, f"the dz table to depth {depth}")
    den = _dz_den(edges)
    counts: dict[Word, int] = {}
    for e in edges:
        for w, v in _prefix_dz(e.cell, e.side):
            if len(w) > depth:
                break
            counts[w] = counts.get(w, 0) + e.sign * v.numerator * (den // v.denominator)
        third = e.sign * den // 3
        for w in map(e.cell.__add__, _avoiding(str(e.side), depth - e.level)):
            counts[w] = counts.get(w, 0) - third
    return den, counts


def dz_path_integrals(path: Iterable[OrientedEdge], depth: int) -> dict[Word, Fraction]:
    """{sigma: integral of dz_sigma along the path} for every |sigma| <= depth
    whose value is nonzero, from the integer counts of ``_dz_counts``."""
    den, counts = _dz_counts(list(path), depth)
    return {w: Fraction(c, den) for w, c in counts.items() if c}


# ---------------------------------------------------------------------------
# effective length
# ---------------------------------------------------------------------------

def dz_sequence_edge(e: OrientedEdge) -> LevelSequence:
    """The sequence sigma -> integral of dz_sigma over one edge.

    Exact at every level: below the edge level only the prefix word
    contributes, and from the edge level on the sup is exactly 1/3, attained
    by the branch words avoiding the side letter (while the level sums double
    per level, so the N-norm of this sequence diverges).
    """
    n = e.level
    tail = TailBound(sup_coeff=Fraction(1, 3), sup_ratio=F1, sup_exact=True,
                     sum_coeff=Fraction(1, 3) * Fraction(1, 2) ** n, sum_ratio=Fraction(2))
    return LevelSequence.from_values(dz_path_integrals([e], n - 1), n - 1, tail)


def effective_length(path: ElementaryPath, depth: int = 8) -> CertifiedValue:
    """N' of the lacuna-form integrals along the path.

    Single edges are exact (their per-level sups stabilize at 1/3); longer
    paths are exact up to the depth, with per-level sups read from the
    integer dz counts, and a conservative geometric tail.
    """
    edges = list(path)
    if len(edges) == 1:
        return norm_Nprime(dz_sequence_edge(edges[0]))
    den, counts = _dz_counts(edges, depth)
    sups = [0] * (depth + 1)
    for w, c in counts.items():
        a = abs(c)
        if a > sups[len(w)]:
            sups[len(w)] = a
    per_level_cap = len(edges) * Fraction(1, 3)
    tail_total = per_level_cap * R35 ** (depth + 1) * Fraction(5, 2)
    finite = sum((R35**k * Fraction(s, den) for k, s in enumerate(sups)), F0)
    return CertifiedValue(finite + tail_total / 2, tail_total / 2)


def hnorm_divergence(e: OrientedEdge, levels: int, check_to: int = 10) -> list[Fraction]:
    """Partial sums of the squared Hilbert-norm effective length of an edge:
    (6/5) sum_{n <= L} (3/5)^n sum_{|sigma| = n} |int_e dz_sigma|^2.

    Per-level squared sums are read from the edge's dz table up to
    ``check_to`` levels above the edge and continued with the branching
    count 2^(n - level) / 9 (one word per avoid-letter string, each integral
    1/3) that those levels verify.
    """
    n0 = e.level
    top = min(levels, n0 + check_to)
    level_sq = [F0] * (top + 1)
    for w, v in dz_path_integrals([e], top).items():
        level_sq[len(w)] += v * v
    partial = F0
    out = []
    for n in range(levels + 1):
        partial += R35**n * (level_sq[n] if n <= top else Fraction(2 ** (n - n0), 9))
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
        for w, c in list(self.coords.items()):
            if len(w) >= self.depth:
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
    read from the integer dz counts (3^|w| A_{w, w[:j]} is an integer)."""
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


def lacuna_class(sigma: Word, depth: Optional[int] = None) -> HomologyElement:
    if depth is None:
        depth = len(sigma) + 1
    return HomologyElement(depth, {sigma: 1})


def phi_hom(sigma: Word, g: HomologyElement) -> Fraction:
    """The deck homomorphism of the potential z_sigma evaluated on g."""
    if len(sigma) >= g.depth:
        raise GasketError("phi needs |sigma| below the class depth")
    return sum((c * b_rule(sigma, tau) for tau, c in g.coords.items()), F0)


def _phi_sup_at_level(g: HomologyElement, k: int) -> int:
    """3 * the sup of |phi_sigma(g)| over |sigma| = k, an integer."""
    return max(
        (abs(sum(c * b_thirds(w, tau) for tau, c in g.coords.items())) for w in words(k)),
        default=0,
    )


def group_length(g: HomologyElement, depth: Optional[int] = None) -> CertifiedValue:
    """N' of the sequence phi_sigma(g): the deck-group length of g.

    Exact: per-level sups are enumerated through the class support and the
    achievable sets of surviving branch letters stabilize three levels past
    the support, leaving a closed geometric tail.  The sups are taken in
    thirds, as integers, and the total is divided by 3 once.
    """
    L = g.support_level()
    if L < 0:
        return CertifiedValue.from_exact(0)
    total = F0
    # levels covered by direct enumeration
    direct_to = L if depth is None else max(L, min(depth, L + 3))
    for k in range(direct_to + 1):
        total += R35**k * _phi_sup_at_level(g, k)

    # beyond the support: 3 phi = -(sum of coordinates of the surviving
    # prefix chain); which subsets survive depends only on the length-(L+1)
    # prefix pi (tau survives it when B_{pi,tau} = -1/3, keeping its
    # coordinate and branch letter) and the set of letters used by the tail
    prefix_data = [
        [(c, pi[len(tau)]) for tau, c in g.coords.items() if c and b_thirds(pi, tau)]
        for pi in words(L + 1)
    ]

    def sup_with_tail_length(ell: int) -> int:
        """3 * the sup of |phi| at level L + 1 + ell, an integer: a tail of
        ell letters uses none of them when ell = 0, else 1 to min(ell, 3)."""
        return max(
            abs(sum(c for c, b in alive if b not in used))
            for alive in prefix_data
            for r in ((0,) if ell == 0 else range(1, min(ell, 3) + 1))
            for used in itertools.combinations("012", r)
        )

    for k in range(direct_to + 1, L + 4):
        total += R35**k * sup_with_tail_length(k - L - 1)
    stable = sup_with_tail_length(3)
    total += stable * R35 ** (L + 4) * Fraction(5, 2)
    return CertifiedValue.from_exact(total / 3)


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
    depth of k_sigma times the path's integer dz count (radii r_sigma·|count|),
    plus the lacuna forms past the depth, one ``beyond`` entry per edge."""
    if max(e.level for e in path) > depth:
        raise DepthTooSmallError("path uses edges finer than the depth")
    if decomposition is not None and decomposition.depth != depth:
        raise DepthTooSmallError(
            f"decomposition has depth {decomposition.depth}, not the requested {depth}"
        )
    edges = list(path)
    den, counts = _dz_counts(edges, depth)
    dec = decomposition if decomposition is not None else hodge_decompose(form, depth)
    value, radius = F0, F0
    for sigma, c in counts.items():
        kcv = dec.k.get(sigma)
        if c and kcv is not None:
            value += kcv.value * c
            radius += kcv.radius * abs(c)
    bden, tables = dec.beyond
    past = sum(e.sign * tables[e.level][int(e.cell or "0", 3)][e.side] for e in edges) if tables else 0
    total = dec.potential[path.target] - dec.potential[path.source]
    return total + CertifiedValue(value / den + Fraction(past, bden), radius / den)
