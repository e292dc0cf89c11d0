"""Sequence norms, effective lengths, finite-level homology, and potentials
on the abelian pro-covering.

Sequences indexed by words carry two dual norms: N takes the sup over levels
of (5/3)^n times the level sum, N' sums (3/5)^n times the level sup.  A path
has finite effective length when the sequence of its lacuna-form integrals is
N'-finite; that length controls potential differences of forms whose harmonic
coefficients are N-finite, through the pairing |sum a b| <= N(a) N'(b).

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
from typing import Optional

from .certified import CertifiedValue
from .cohomology import (
    HodgeDecomposition,
    b_rule,
    hodge_decompose,
    k_level_sum_bound,
    universal_energy_bound,
    winding_number,
)
from .errors import (
    DepthTooSmallError,
    GasketError,
    UnboundedTailError,
)
from .forms import SmoothForm, dz_integral_edge, dz_integral_path
from .geometry import ElementaryPath, OrientedEdge, Word, is_prefix, words

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
    values: dict[Word, Fraction] = {}
    for k in range(n):
        w = e.cell[:k]
        v = dz_integral_edge(w, e)
        if v != 0:
            values[w] = v
    tail = TailBound(sup_coeff=Fraction(1, 3), sup_ratio=F1, sup_exact=True,
                     sum_coeff=Fraction(1, 3) * Fraction(1, 2) ** n, sum_ratio=Fraction(2))
    return LevelSequence.from_values(values, n - 1, tail)


def effective_length(path: ElementaryPath, depth: int = 8) -> CertifiedValue:
    """N' of the lacuna-form integrals along the path.

    Single edges are exact (their per-level sups stabilize at 1/3); longer
    paths are exact up to the depth with a conservative geometric tail.
    """
    edges = list(path)
    if len(edges) == 1:
        e = edges[0]
        n = e.level
        finite = sum((R35**k * abs(dz_integral_edge(e.cell[:k], e)) for k in range(n)), F0)
        tail = Fraction(1, 3) * R35**n * Fraction(5, 2)
        return CertifiedValue.from_exact(finite + tail)
    # exact per-level sups up to the depth by candidate enumeration
    sups = []
    max_level = max(e.level for e in edges)
    for k in range(depth + 1):
        candidates: set[Word] = set()
        for e in edges:
            if k <= e.level:
                candidates.add(e.cell[:k])
            else:
                # words with a nonzero integral over this edge extend its cell
                # by a string avoiding the side letter; neighbours of those
                # (any first letter) are kept so no cross-edge word is missed
                letters = [c for c in "012" if c != str(e.side)]
                for head in "012":
                    for tail_letters in itertools.product(letters, repeat=k - e.level - 1):
                        candidates.add(e.cell + head + "".join(tail_letters))
        best = F0
        for w in candidates:
            if len(w) != k:
                continue
            v = abs(dz_integral_path(w, path))
            best = max(best, v)
        sups.append(best)
    per_level_cap = len(edges) * Fraction(1, 3)
    tail_total = per_level_cap * R35 ** (depth + 1) * Fraction(5, 2)
    finite = sum((R35**k * s for k, s in enumerate(sups)), F0)
    return CertifiedValue(finite + tail_total / 2, tail_total / 2)


def hnorm_divergence(e: OrientedEdge, levels: int, check_to: int = 10) -> list[Fraction]:
    """Partial sums of the squared Hilbert-norm effective length of an edge:
    (6/5) sum_{n <= L} (3/5)^n sum_{|sigma| = n} |int_e dz_sigma|^2.

    Per-level squared sums are enumerated exactly up to ``check_to`` levels
    above the edge and continued with the verified branching count
    2^(n - level) / 9 (one word per avoid-letter string, each integral 1/3).
    """
    n0 = e.level
    sums: list[Fraction] = []
    partial = F0
    out = []
    for n in range(levels + 1):
        if n < n0:
            v = dz_integral_edge(e.cell[:n], e)
            level_sq = v * v
        elif n - n0 <= check_to:
            letters = [c for c in "012" if c != str(e.side)]
            level_sq = F0
            if n == n0:
                level_sq = Fraction(1, 9)
            else:
                for head in "012":
                    for tail_letters in itertools.product(letters, repeat=n - n0 - 1):
                        w = e.cell + head + "".join(tail_letters)
                        v = dz_integral_edge(w, e)
                        level_sq += v * v
        else:
            level_sq = Fraction(2 ** (n - n0), 9)
        partial += R35**n * level_sq
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
    """Coordinates of a closed path: winding numbers around each lacuna."""
    coords: dict[Word, int] = {}
    for n in range(depth):
        for w in words(n):
            v = winding_number(path, w)
            if v != 0:
                coords[w] = v
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


def _phi_sup_at_level(g: HomologyElement, k: int) -> Fraction:
    return max(
        (abs(phi_sigma) for phi_sigma in (
            sum((c * b_rule(w, tau) for tau, c in g.coords.items()), F0)
            for w in words(k)
        )),
        default=F0,
    )


def group_length(g: HomologyElement, depth: Optional[int] = None) -> CertifiedValue:
    """N' of the sequence phi_sigma(g): the deck-group length of g.

    Exact: per-level sups are enumerated through the class support and the
    achievable sets of surviving branch letters stabilize three levels past
    the support, leaving a closed geometric tail.
    """
    L = g.support_level()
    if L < 0:
        return CertifiedValue.from_exact(0)
    total = F0
    # levels covered by direct enumeration
    direct_to = L if depth is None else max(L, min(depth, L + 3))
    for k in range(direct_to + 1):
        total += R35**k * _phi_sup_at_level(g, k)

    # beyond the support: phi = -(1/3) * sum of coordinates of the surviving
    # prefix chain; which subsets survive depends only on the length-(L+1)
    # prefix and the set of letters used by the remaining tail
    prefix_data: list[list[tuple[Word, str]]] = []
    for pi in words(L + 1):
        alive: list[tuple[Word, str]] = []
        for tau, c in g.coords.items():
            if c == 0 or not is_prefix(tau, pi):
                continue
            branch = pi[len(tau)]
            if branch not in pi[len(tau) + 1:]:
                alive.append((tau, branch))
        prefix_data.append(alive)

    def sup_with_tail_length(ell: int) -> Fraction:
        best = F0
        for alive in prefix_data:
            if ell == 0:
                v = abs(sum((g.coords[tau] for tau, _ in alive), 0))
                best = max(best, Fraction(v, 3))
                continue
            max_used = min(ell, 3)
            for r in range(1, max_used + 1):
                for used in itertools.combinations("012", r):
                    kept = sum((g.coords[tau] for tau, b in alive if b not in used), 0)
                    best = max(best, Fraction(abs(kept), 3))
        return best

    for k in range(direct_to + 1, L + 4):
        total += R35**k * sup_with_tail_length(k - L - 1)
    stable = sup_with_tail_length(3)
    total += stable * R35 ** (L + 4) * Fraction(5, 2)
    return CertifiedValue.from_exact(total)


# ---------------------------------------------------------------------------
# potentials of N-finite forms
# ---------------------------------------------------------------------------

def potential_difference(
    form: SmoothForm,
    path: ElementaryPath,
    depth: int,
    decomposition: Optional[HodgeDecomposition] = None,
) -> CertifiedValue:
    """Integral of the form along the path through its covering potential:
    the variation of the skeleton primitive plus the truncated series
    sum_sigma k_sigma * (integral of dz_sigma along the path)."""
    if max(e.level for e in path) > depth:
        raise DepthTooSmallError("path uses edges finer than the depth")
    dec = decomposition if decomposition is not None else hodge_decompose(form, depth)
    total = dec.potential[path.target] - dec.potential[path.source]
    for sigma, kcv in dec.k.items():
        w = dz_integral_path(sigma, path)
        if w != 0:
            total = total + kcv.scaled(w)
    # dropped dz terms pair against the per-level sup of the path integrals
    cbound = universal_energy_bound(form)
    per_level_sup = len(path.edges) * Fraction(1, 3)
    tail = F0
    if cbound != 0:
        tail = k_level_sum_bound(cbound, depth + 1) * Fraction(5, 2) * per_level_sup
    return CertifiedValue(total.value, total.radius + tail)
