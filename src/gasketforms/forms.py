"""Smooth 1-forms on the gasket: representation, integration, inner product.

A form is stored in three parts that are implicitly summed:

* a *universal* part, a list of terms a·dg·b with a, b pointwise expressions
  (``expr``) over piecewise-harmonic functions and g piecewise-harmonic; the
  term pairs with an oriented edge e as a(e+)·(g(e+) - g(e-))·b(e-);
* a *harmonic* part, a finitely supported rational combination of the unit
  lacuna forms dz_sigma (local potentials with corner values 1/6, 0, -1/6 on
  each sub-cell of C_sigma, arranged so the clockwise lacuna integral is 1);
* an *exact* part d(U) given by a potential U.

This module alone knows how an edge (cell tau, side i, sign s) meets the
lacuna forms: a proper prefix of tau through the potential ``_DZ``
descended over the rest of tau (``_prefix_dz``), every word tau + r whose
tail r avoids the letter i with -s/3, and no other word.  ``_dz_count``
reads one word's integer count (edge integrals, winding numbers), and
``_dz_counts`` a path's whole table to a depth (the covering layers).

Integrals and the energy inner product Q are exact, in rational arithmetic,
for every form within the kernel budget, products of functions included:
they contract the exact one-cell kernels of ``kernels`` with the factors'
integer corner triples.  A path integral (``_integral``; an edge is a
one-edge path) sums integer counts over all its edges, one denominator per
part (lacuna, exact, each monomial), and divides once; dU and c·dg take
endpoint differences, any other monomial the (p, 0) Riemann limits (the
right factors moved left).
``side_integral_table`` gives the whole form's integrals over the sides of
every cell of one level from one walk per function, and ``q_level`` sums
their squares.  Q splits each form into
parts by data level and sums over pairs of parts, each pair at the finer of
its two levels and on the cells both parts live on, contracting the
integer corner tensors with the one-cell kernels.  Certified mode is the
exact value rounded once to a float, with half an ulp as the radius.

The level-n sums themselves stay as the independent route: the dyadic
Riemann sums I_n (``riemann_sum``) and the endpoint level sums Q~_n =
(5/3)^n sum omega(e)·eta(e) (``q_level_sums``, both forms at one level),
both exact rationals.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .certified import CertifiedValue
from .errors import DepthTooSmallError, ExactnessUnavailableError, GasketError, NonConvergentError
from .expr import _MONOMIALS_MAX, ONE, Atom, Const, Expr, Product, _monomials
from .expr import Sum  # re-exported
from .geometry import ElementaryPath, OrientedEdge, Word, check_word, subdivide
from .harmonic import IntTriple, VertexFunction
from .kernels import _KERNEL_SLOTS_MAX, _exact_q_kernel, _int_side_limits, q_level_kernel, riemann_kernel
from .kernels import edge_kernel, q_kernel, solve_unique  # re-exported

F0 = Fraction(0)
F1 = Fraction(1)
R53 = Fraction(5, 3)


# ---------------------------------------------------------------------------
# form terms and smooth forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FormTerm:
    """One bimodule term a·dg·b; pairs with an edge as a(e+)·dg(e)·b(e-)."""

    left: Expr
    g: VertexFunction
    right: Expr = ONE

    def left_total(self) -> Expr:
        """The smooth-form equivalent single left factor a·b, built once per
        term, so its reduction to one function is kept too."""
        return self._left_total

    @cached_property
    def _left_total(self) -> Expr:
        if self.right.as_const() == 1:
            return self.left
        return Product([self.left, self.right])

    def monomials(self) -> tuple[tuple[Fraction, tuple[VertexFunction, ...]], ...]:
        """``_monomials`` of ``left_total``, expanded once per term."""
        return self._monomials

    @cached_property
    def _monomials(self) -> tuple[tuple[Fraction, tuple[VertexFunction, ...]], ...]:
        return tuple(_monomials(self.left_total()))

    def to_json(self) -> dict:
        return {"left": self.left.to_json(), "g": self.g.to_json(), "right": self.right.to_json()}

    @staticmethod
    def from_json(data: dict) -> "FormTerm":
        return FormTerm(
            Expr.from_json(data["left"]),
            VertexFunction.from_json(data["g"]),
            Expr.from_json(data["right"]),
        )


@dataclass(frozen=True, eq=False)
class SmoothForm:
    """universal terms + harmonic dz coefficients + exact potential; a lacuna
    word with a letter outside 0, 1, 2 raises GasketError."""

    terms: tuple[FormTerm, ...] = ()
    harmonic: dict[Word, Fraction] = field(default_factory=dict)
    exact: VertexFunction | None = None

    def __post_init__(self):
        for w in self.harmonic:
            check_word(w)

    def __add__(self, other: "SmoothForm") -> "SmoothForm":
        harm = dict(self.harmonic)
        for w, c in other.harmonic.items():
            harm[w] = harm.get(w, F0) + c
        ex = self.exact
        if other.exact is not None:
            ex = other.exact if ex is None else ex + other.exact
        return SmoothForm(self.terms + other.terms, harm, ex)

    def scaled(self, c) -> "SmoothForm":
        c = Fraction(c)
        terms = tuple(
            FormTerm(Product([Const(c), t.left]), t.g, t.right) for t in self.terms
        )
        harm = {w: c * k for w, k in self.harmonic.items()}
        ex = self.exact.scale(c) if self.exact is not None else None
        return SmoothForm(terms, harm, ex)

    def __neg__(self):
        return self.scaled(-1)

    def to_json(self) -> dict:
        return {
            "universal": [t.to_json() for t in self.terms],
            "harmonic": sorted(
                [[w, f"{k.numerator}/{k.denominator}"] for w, k in self.harmonic.items()]
            ),
            "exact": self.exact.to_json() if self.exact is not None else None,
        }

    @staticmethod
    def from_json(data: dict) -> "SmoothForm":
        """A missing field or a malformed value raises GasketError."""
        try:
            return SmoothForm(
                tuple(FormTerm.from_json(t) for t in data.get("universal", [])),
                {w: Fraction(s) for w, s in data.get("harmonic", [])},
                VertexFunction.from_json(data["exact"]) if data.get("exact") else None,
            )
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise GasketError(f"malformed form JSON: {exc!r}") from exc


def d(u: VertexFunction) -> SmoothForm:
    """The exact form dU."""
    return SmoothForm(exact=u)


def fdg(f: VertexFunction | Expr, g: VertexFunction) -> SmoothForm:
    left = f if isinstance(f, Expr) else Atom(f)
    return SmoothForm(terms=(FormTerm(left, g),))


def dz_form(sigma: Word) -> SmoothForm:
    """The harmonic lacuna form dz_sigma (unit clockwise lacuna period)."""
    return SmoothForm(harmonic={sigma: F1})


# ---------------------------------------------------------------------------
# the lacuna potentials and their exact edge integrals
# ---------------------------------------------------------------------------

# _DZ[i] is the potential of dz_sigma on the sub-cell sigma+i, over 6: the
# cell's shared vertex with C_sigma (corner i) gets 0 and the lacuna edge runs
# from -1/6 to +1/6 in the clockwise direction of the lacuna.
_DZ = tuple(VertexFunction(0, 6, [tuple((0, 1, -1)[(j - i) % 3] for j in range(3))]) for i in range(3))


def _dz_den(edges: Iterable[OrientedEdge]) -> int:
    """A common denominator of the integrals of every dz form over the
    edges: -1/3 for a word through an edge's cell, and 6·5^(L-1) for a
    proper prefix of a level-L cell (``_prefix_dz``)."""
    top = max((e.level for e in edges), default=0)
    return 6 * 5 ** (top - 1) if top else 3


@lru_cache(maxsize=None)
def _prefix_dz(cell: Word, side: int) -> tuple[int, tuple[tuple[Word, int], ...]]:
    """(den, counts): counts[k] is (cell[:k], den times the integral of
    dz_{cell[:k]} over the edge (cell, side, +1)) for each k < |cell|, zeros
    included, and den is ``_dz_den`` of the edge.  A count is the side
    difference of the potential ``_DZ`` on cell[:k+1], descended over the
    rest of the cell, times 5^k."""
    counts = []
    for k in range(len(cell)):
        _, t = _DZ[int(cell[k])].int_triple(cell[k + 1:])
        counts.append((cell[:k], 5**k * (t[(side + 1) % 3] - t[(side + 2) % 3])))
    return _dz_den([OrientedEdge(cell, side)]), tuple(counts)


def _dz_count(sigma: Word, e: OrientedEdge) -> tuple[int, int]:
    """(count, den): den (``_dz_den`` of the edge) times the integral of
    dz_sigma over the edge (cell tau, side i, sign s).  The edge meets a
    proper prefix of tau with its ``_prefix_dz`` count, every word tau + r
    whose tail r avoids the letter i with -s/3, and no other word."""
    den, counts = _prefix_dz(e.cell, e.side)
    if sigma.startswith(e.cell):
        return (0 if str(e.side) in sigma[e.level:] else -e.sign * den // 3), den
    if e.cell.startswith(sigma):
        return e.sign * counts[len(sigma)][1], den
    return 0, den


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
    over the edges in integers: each edge adds the ``_prefix_dz`` counts of
    its cell's proper prefixes and -s/3 for every word through its cell
    whose tail avoids its side letter (``_dz_count``).  Refused with
    ``GasketError`` when the table would exceed ``_TABLE_ENTRIES_MAX``
    entries."""
    size = sum(
        min(e.level, depth + 1) + (2 ** min(depth - e.level + 1, 64) - 1 if depth >= e.level else 0)
        for e in edges
    )
    _check_budget(size, f"the dz table to depth {depth}")
    den = _dz_den(edges)
    counts: dict[Word, int] = {}
    for e in edges:
        pden, prefix_counts = _prefix_dz(e.cell, e.side)
        scale = e.sign * (den // pden)
        for w, c in prefix_counts[: max(depth + 1, 0)]:
            counts[w] = counts.get(w, 0) + scale * c
        third = e.sign * den // 3
        for w in map(e.cell.__add__, _avoiding(str(e.side), depth - e.level)):
            counts[w] = counts.get(w, 0) - third
    return den, counts


def _dz_path_count(sigma: Word, edges: Iterable[OrientedEdge], den: int) -> int:
    """den times the integral of dz_sigma along the edges: their
    ``_dz_count``s brought onto den, a multiple of every edge's ``_dz_den``."""
    total = 0
    for e in edges:
        c, eden = _dz_count(sigma, e)
        total += c * (den // eden)
    return total


def dz_integral_edge(sigma: Word, e: OrientedEdge) -> Fraction:
    """Exact integral of dz_sigma over one oriented edge (``_dz_count``);
    an invalid word raises GasketError."""
    return Fraction(*_dz_count(check_word(sigma), e))


def dz_integral_path(sigma: Word, path: ElementaryPath) -> Fraction:
    """Exact integral of dz_sigma along the path: the edges' integer counts
    over the path's ``_dz_den``, divided once; an invalid word raises
    GasketError."""
    den = _dz_den(path)
    return Fraction(_dz_path_count(check_word(sigma), path, den), den)


# ---------------------------------------------------------------------------
# exact integration
# ---------------------------------------------------------------------------

def _normalized_terms(form: SmoothForm) -> list[tuple[Fraction, VertexFunction | None, VertexFunction]]:
    """(coefficient, left factor as a single function or None for 1, g), one
    per monomial of each term's a·b (``_monomials`` of ``left_total``; moving
    the right factors left integrates the same on every edge).  A monomial of
    two or more factors raises ExactnessUnavailableError: the period and
    Hodge routes take at most one left factor."""
    out = []
    for t in form.terms:
        for c, left in t.monomials():
            if len(left) > 1:
                raise ExactnessUnavailableError("product of two non-constant factors")
            out.append((c, left[0] if left else None, t.g))
    return out


def _term_level(t: FormTerm) -> int:
    """The data level of one universal term: the finest level of its functions."""
    return max(t.g.level, t.left.max_level(), t.right.max_level())


def _universal_level(form: SmoothForm) -> int:
    """The data level of the universal part: the finest level of its terms."""
    return max(map(_term_level, form.terms), default=0)


def _form_data_level(form: SmoothForm) -> int:
    """The level of the form's finest nonzero part."""
    m = _universal_level(form)
    for sigma, k in form.harmonic.items():
        if k:
            m = max(m, len(sigma) + 1)
    if form.exact is not None:
        m = max(m, form.exact.level)
    return m


DzTable = tuple[int, tuple[IntTriple, ...], tuple[IntTriple, ...]]


@lru_cache(maxsize=None)
def _dz_table(i: int, depth: int) -> DzTable:
    """(den, integer corner values, their ``_differences``) of the dz
    potential on the level-depth sub-cells of the cell sigma+i, in word order."""
    den, table = _DZ[i].int_triples(depth)
    return den, tuple(table), tuple(_differences(table))


def _dz_cells(sigma: Word, level: int) -> list[tuple[int, DzTable]]:
    """(index of its first level-``level`` cell, ``_dz_table``) for each child
    sigma+i of C_sigma: the dz_sigma potential on the cells inside it."""
    depth = level - len(sigma) - 1
    return [((int(sigma or "0", 3) * 3 + i) * 3**depth, _dz_table(i, depth)) for i in range(3)]


def _differences(triples: Iterable[IntTriple]) -> list[IntTriple]:
    """u(t) - u(s) over sides 0, 1, 2 (canonical orientation) of each cell."""
    return [(b - c, c - a, a - b) for a, b, c in triples]


def side_integral_table(form: SmoothForm, level: int) -> tuple[int, list[IntTriple]]:
    """(D, rows): row u holds D times the exact integrals of the whole form
    over sides 0, 1, 2 (canonical orientation) of the u-th level-``level``
    cell in word order.  ``level`` is at least ``_form_data_level(form)``.

    One integer walk per function (``int_triples``); a term c·F dg contracts
    the integer kernels with the triples of F and g, a term c·dg and the
    exact part give potential differences, and a lacuna form dz_sigma gives
    the potential differences of ``_dz_table`` on the cells inside C_sigma.
    Each column's rational scale is folded into D once, so a caller divides
    once per value it reads.  A table of more than ``_TABLE_ENTRIES_MAX``
    cells raises GasketError, and a product of two non-constant factors
    ExactnessUnavailableError, before any walk."""
    _check_budget(3 ** min(level, 64), f"the side-integral table at level {level}")
    terms = [(c, F, g) for c, F, g in _normalized_terms(form) if c != 0]
    if _form_data_level(form) > level:
        raise GasketError("side-integral table below the data level")
    if form.exact is not None:
        terms.append((F1, None, form.exact))
    functions = {id(vf): vf for _, F, g in terms for vf in (F, g) if vf is not None}
    walks = {key: vf.int_triples(level) for key, vf in functions.items()}
    # (scale, first cell, rows): the column of one part, over its cells only
    columns: list[tuple[Fraction, int, list[IntTriple]]] = []
    for c, F, g in terms:
        Dg, tg = walks[id(g)]
        if F is None:
            columns.append((c / Dg, 0, _differences(tg)))
            continue
        Df, tf = walks[id(F)]
        # each side's kernel K paired with (f, g) as sum over j, k of K[3j + k]·f_j·g_k
        Dk, ((p0, p1, p2, p3, p4, p5, p6, p7, p8), (q0, q1, q2, q3, q4, q5, q6, q7, q8),
             (r0, r1, r2, r3, r4, r5, r6, r7, r8)) = _int_side_limits(1)
        rows = [
            (
                f0 * (p0 * g0 + p1 * g1 + p2 * g2) + f1 * (p3 * g0 + p4 * g1 + p5 * g2) + f2 * (p6 * g0 + p7 * g1 + p8 * g2),
                f0 * (q0 * g0 + q1 * g1 + q2 * g2) + f1 * (q3 * g0 + q4 * g1 + q5 * g2) + f2 * (q6 * g0 + q7 * g1 + q8 * g2),
                f0 * (r0 * g0 + r1 * g1 + r2 * g2) + f1 * (r3 * g0 + r4 * g1 + r5 * g2) + f2 * (r6 * g0 + r7 * g1 + r8 * g2),
            )
            for (f0, f1, f2), (g0, g1, g2) in zip(tf, tg)
        ]
        columns.append((c / (Df * Dg * Dk), 0, rows))
    for sigma, k in form.harmonic.items():
        if k:
            columns += [(k / den, start, diffs) for start, (den, _, diffs) in _dz_cells(sigma, level)]
    D = math.lcm(*(scale.denominator for scale, _, _ in columns))
    # one integer list per side, each column added into it in place
    out0, out1, out2 = [0] * 3**level, [0] * 3**level, [0] * 3**level
    for scale, start, rows in columns:
        m = scale.numerator * (D // scale.denominator)
        for u, (a, b, c) in enumerate(rows, start):
            out0[u] += m * a
            out1[u] += m * b
            out2[u] += m * c
    return D, list(zip(out0, out1, out2))


def _coarsen(rows: list[IntTriple]) -> list[IntTriple]:
    """A side-integral table one level up: side i of a cell is the union of
    side i of its children (i + 2) mod 3 and (i + 1) mod 3."""
    return [
        (r1[0] + r2[0], r0[1] + r2[1], r0[2] + r1[2])
        for r0, r1, r2 in zip(rows[0::3], rows[1::3], rows[2::3])
    ]


def _check_depth(depth: int) -> None:
    """DepthTooSmallError for a negative depth or level, before any work."""
    if depth < 0:
        raise DepthTooSmallError(f"depth {depth} is negative")


# Work budget of the per-cell and per-word tables (side integrals, periods, dz
# tables of paths, homology classes): a larger table is refused before any work.
_TABLE_ENTRIES_MAX = 2**20


def _check_budget(count: int, what: str) -> None:
    if count > _TABLE_ENTRIES_MAX:
        raise GasketError(f"{what} needs {count} entries, over the budget of {_TABLE_ENTRIES_MAX}")


def side_integrals_at(form: SmoothForm, level: int) -> tuple[int, list[IntTriple]]:
    """``side_integral_table`` at any level: built at the data level when
    that is finer, then coarsened.  DepthTooSmallError for a negative level."""
    _check_depth(level)
    D, rows = side_integral_table(form, max(_form_data_level(form), level))
    while len(rows) > 3**level:
        rows = _coarsen(rows)
    return D, rows


def _contract(kernel: Sequence[int], slots: Sequence[VertexFunction], cell: Word) -> tuple[int, int]:
    """(value, den): a flat kernel over the slots' corners contracted with
    their integer corner triples on one cell, the last slot first, so that
    value/den is its contraction with the rational corner values."""
    acc, den = kernel, 1
    for f in reversed(slots):
        D, (x, y, z) = f.int_triple(cell)
        acc = [acc[i] * x + acc[i + 1] * y + acc[i + 2] * z for i in range(0, len(acc), 3)]
        den *= D
    return acc[0], den


def _monomial_riemann(
    left: Sequence[VertexFunction], g: VertexFunction, right: Sequence[VertexFunction], e: OrientedEdge, n: int
) -> Fraction:
    """Exact I_n(e) of L_1⋯L_p·dg·R_1⋯R_q for piecewise-harmonic factors: the
    level-n kernel contracted with the factors' corner triples on every
    sub-edge of e at the data level m (n >= m)."""
    slots = (*left, g, *right)
    m = max(e.level, *(f.level for f in slots))
    if n < m:
        raise GasketError("Riemann level below the data level")
    total = F0
    for sub in subdivide(e, m):
        value, den = _contract(riemann_kernel(sub.side, len(left), len(right), n - m), slots, sub.cell)
        total += Fraction(sub.sign * value, den)
    return total / 5 ** (len(slots) * (n - m))


def riemann_sum(form: SmoothForm, e: OrientedEdge, n: int) -> Fraction:
    """The level-n dyadic Riemann sum I_n(e) of the universal part, exactly;
    n must be at least the data level of every term.  A term beyond the work
    budget (_MONOMIALS_MAX, _KERNEL_SLOTS_MAX) raises GasketError."""
    monos = []
    for t in form.terms:
        lefts, rights = _monomials(t.left), _monomials(t.right)
        if len(lefts) * len(rights) > _MONOMIALS_MAX:
            raise GasketError(f"{len(lefts) * len(rights)} monomials exceed the Riemann budget of {_MONOMIALS_MAX}")
        monos += [(cl * cr, left, t.g, right) for cl, left in lefts for cr, right in rights]
    return sum((c * _monomial_riemann(left, g, right, e, n) for c, left, g, right in monos), F0)


def _exact_count(U: VertexFunction, edges: Sequence[OrientedEdge], top: int) -> tuple[int, int]:
    """(count, den): den times the integral of dU along the edges, the
    signed corner differences of U on each edge over den = U.den·5^(L -
    U.level), L the finer of top and U's level."""
    level, count = max(top, U.level), 0
    for e in edges:
        # corner j of a coarse cell is corner j of its descendant j...j at U's level
        pad = max(U.level - e.level, 0)
        j, i = (e.side + 1) % 3, (e.side + 2) % 3  # target and source corners at sign +1
        _, t = U.int_triple(e.cell + str(j) * pad)
        s = U.int_triple(e.cell + str(i) * pad)[1] if pad else t
        count += e.sign * (t[j] - s[i]) * 5 ** (level - e.level - pad)
    return count, U.den * 5 ** (level - U.level)


def _monomial_count(fs: tuple[VertexFunction, ...], edges: Sequence[OrientedEdge], top: int) -> tuple[int, int]:
    """(count, den): den times the integral of L_1⋯L_p·dg, fs = (L_1, ..,
    L_p, g), along the edges: the side limits ``_int_side_limits(p)``
    contracted with the factors' integer corner triples on every sub-edge
    at m_e = max(e.level, data level), scaled by 5^((L - m_e)·slots) onto
    the denominator at L, the finer of top and the data level."""
    m = max(f.level for f in fs)
    level, count = max(top, m), 0
    D, kernels = _int_side_limits(len(fs) - 1)
    for e in edges:
        m_e = max(e.level, m)
        scale = 5 ** ((level - m_e) * len(fs))
        for sub in subdivide(e, m_e):
            count += sub.sign * scale * _contract(kernels[sub.side], fs, sub.cell)[0]
    return count, D * math.prod(f.den * 5 ** (level - f.level) for f in fs)


def _integral(form: SmoothForm, edges: Sequence[OrientedEdge]) -> Fraction:
    """Exact integral of the form along the edges, in integers: each part
    sums one count over one denominator across the edges (a lacuna form
    ``_dz_path_count``, a one-slot piece dU or c·dg ``_exact_count``, every
    other monomial of a term's a·b ``_monomial_count``), and the parts are
    divided once together.  Every monomial is checked against the slot
    budget before any kernel is built."""
    pieces = [(c, (*left, t.g)) for t in form.terms for c, left in t.monomials()]
    slots = max([len(fs) for _, fs in pieces], default=0)
    if slots > _KERNEL_SLOTS_MAX:
        raise GasketError(f"a Riemann kernel of {slots} slots exceeds the budget of {_KERNEL_SLOTS_MAX}")
    top = max([e.level for e in edges])
    parts = []  # (c, count, den): the integral is the sum of the c·count/den
    if form.harmonic:
        den = _dz_den(edges)
        for sigma, k in form.harmonic.items():
            if k:
                parts.append((k, _dz_path_count(sigma, edges, den), den))
    if form.exact is not None:
        pieces.append((F1, (form.exact,)))
    for c, fs in pieces:
        count = _exact_count(fs[0], edges, top) if len(fs) == 1 else _monomial_count(fs, edges, top)
        parts.append((c, *count))
    total, den = 0, 1
    for c, n, d in parts:
        if n:
            d *= c.denominator
            lcm = math.lcm(den, d)
            total, den = total * (lcm // den) + c.numerator * n * (lcm // d), lcm
    return Fraction(total, den)


def _valued(v: Fraction, mode: str) -> CertifiedValue:
    """The exact value v, or in certified mode v rounded once to the nearest
    float with half an ulp of it as the radius."""
    if mode == "exact":
        return CertifiedValue.from_exact(v)
    if mode != "certified":
        raise GasketError(f"unknown mode {mode!r}")
    x = float(v)
    return CertifiedValue(x, Fraction(math.ulp(x)) / 2)


def integrate_edge(
    form: SmoothForm,
    e: OrientedEdge,
    mode: str = "exact",
    tolerance: Fraction = Fraction(1, 10**9),
) -> CertifiedValue:
    """Integral of a smooth form over one oriented edge: the one-edge path
    (``integrate_path``).  ``tolerance`` is not read: a caller that asks for
    less than half an ulp sees the miss in the radius."""
    return _integrated(form, (e,), mode)


def integrate_path(form: SmoothForm, path: ElementaryPath, mode: str = "exact") -> CertifiedValue:
    """Exact integral along the path (``_integral``), in certified mode
    rounded once (``_valued``); a form without universal terms keeps its
    exact value.  The value does not depend on the order of the edges: the
    reversed path gives exactly the negated value and the same radius."""
    return _integrated(form, path.edges, mode)


def _integrated(form: SmoothForm, edges: Sequence[OrientedEdge], mode: str) -> CertifiedValue:
    v = _integral(form, edges)
    if mode == "certified" and not form.terms:
        return CertifiedValue.from_exact(v)
    return _valued(v, mode)


# ---------------------------------------------------------------------------
# Q: exact route
# ---------------------------------------------------------------------------

def _shape_tensors(form: SmoothForm, m: int, root: Word = "") -> tuple[int, dict[int, list[list[int]]]]:
    """(D, per left-factor count p the integer tensors D·sum c·L_1⊗⋯⊗L_p⊗g
    of the form's pieces with p left factors), one flat row per level-m cell
    below ``root`` (every cell by default) in word order, first slot most
    significant.  The pieces are one per monomial of a term's a·b
    (``FormTerm.monomials``), one per lacuna form on each cell inside
    C_sigma, and one for the exact part, with the factors' integer corner
    values, each function walked only below the root (``int_triples``); m
    is at least the level of every nonzero part."""
    first, count = int(root or "0", 3) * 3 ** (m - len(root)), 3 ** (m - len(root))
    # (c, [(den, integer corner table)] per factor, the tables' first cell)
    families: list[tuple[Fraction, list[tuple[int, Sequence[IntTriple]]], int]] = []
    for t in form.terms:
        g = t.g.int_triples(m, root)
        families += [(c, [f.int_triples(m, root) for f in left] + [g], first) for c, left in t.monomials()]
    for sigma, k in form.harmonic.items():
        if k and len(root) > len(sigma) and root.startswith(sigma):
            # the root lies inside one child C_sigma+i: walk its dz potential only below the root
            child = root[: len(sigma) + 1]
            families.append((k, [_DZ[int(child[-1])].int_triples(m - len(child), root[len(child) :])], first))
        elif k:
            families += [(k, [(den, table)], start) for start, (den, table, _) in _dz_cells(sigma, m)]
    if form.exact is not None:
        families.append((F1, [form.exact.int_triples(m, root)], first))
    live = []  # (c over the tables' denominators, the rows below the root, their first row)
    for c, tables, start in families:
        lo, hi = max(start, first), min(start + len(tables[0][1]), first + count)
        if lo < hi:
            rows = [table[lo - start : hi - start] for _, table in tables]
            live.append((c / math.prod(den for den, _ in tables), rows, lo - first))
    D = math.lcm(*(c.denominator for c, _, _ in live))
    tensors: dict[int, list[list[int]]] = {}
    for c, rows, offset in live:
        scale = c.numerator * (D // c.denominator)
        if len(rows) - 1 not in tensors:
            tensors[len(rows) - 1] = [[0] * 3 ** len(rows) for _ in range(count)]
        per_cell = tensors[len(rows) - 1]
        for u, triples in enumerate(zip(*rows), offset):
            x = [scale]
            for t in triples:
                x = [a * b for a in x for b in t]
            per_cell[u] = list(map(operator.add, per_cell[u], x))
    return D, tensors


def _check_q_budget(omega: SmoothForm, eta: SmoothForm) -> None:
    """Refuse a pair of forms whose pieces need a Q kernel of more than
    _KERNEL_SLOTS_MAX slots (the most left factors of a piece on each side
    and the two d-slots) with GasketError, before any tensor is built."""
    slots = 2
    for form in (omega, eta):
        counts = [len(left) for t in form.terms for _, left in t.monomials()]
        if form.exact is not None or any(form.harmonic.values()):
            counts.append(0)
        if not counts:
            return  # a form without pieces pairs to 0
        slots += max(counts)
    if slots > _KERNEL_SLOTS_MAX:
        raise GasketError(f"a Q kernel of {slots} slots exceeds the budget of {_KERNEL_SLOTS_MAX}")


def _parts(form: SmoothForm) -> list[tuple[int, Word, SmoothForm]]:
    """The form split by data level into (level, root, part): the universal
    terms, the exact part and the lacuna forms dz_sigma (at level
    |sigma| + 1) of each level, living on the level-``level`` cells below
    the root word.  The root is the longest common prefix of the part's
    lacuna words, or the empty word when it has universal terms or the
    exact part."""
    terms: dict[int, list[FormTerm]] = {}
    for t in form.terms:
        terms.setdefault(_term_level(t), []).append(t)
    lacunas: dict[int, dict[Word, Fraction]] = {}
    for sigma, k in form.harmonic.items():
        if k:
            lacunas.setdefault(len(sigma) + 1, {})[sigma] = k
    U = form.exact
    levels = set(terms) | set(lacunas) | ({U.level} if U is not None else set())
    parts = []
    for level in levels:
        exact = U if U is not None and U.level == level else None
        root = "" if level in terms or exact is not None else os.path.commonprefix(list(lacunas[level]))
        part = form if len(levels) == 1 else SmoothForm(tuple(terms.get(level, ())), lacunas.get(level, {}), exact)
        parts.append((level, root, part))
    return parts


def _moments(rows1: list[list[int]], rows2: list[list[int]]) -> list[int]:
    """The moments of two tensors on the same cells (``_shape_tensors``
    rows): per entry pair, the first tensor's slots most significant, the
    dot product of the two entries over the cells."""
    return [sum(map(operator.mul, a, b)) for a, b in itertools.product(zip(*rows1), zip(*rows2))]


def _contract_cells(K: Sequence[int], rows1: list[list[int]], rows2: list[list[int]]) -> int:
    """The flat kernel K contracted with the outer product of two tensors on
    the same cells (``_shape_tensors`` rows, the first tensor's slots most
    significant), summed over the cells.  Either by moments (``_moments``),
    one dot product over the cells per entry pair, or cell by cell, one dot
    product of a slice of K with the longer tensor per entry of the shorter
    one: whichever takes fewer dot products, cell by cell on a tie."""
    la, lb = len(rows1[0]), len(rows2[0])
    if la * lb < len(rows1) * min(la, lb):
        return sum(map(operator.mul, K, _moments(rows1, rows2)))
    if la <= lb:
        slices, outer, inner = [K[a * lb : (a + 1) * lb] for a in range(la)], rows1, rows2
    else:
        slices, outer, inner = [K[b::lb] for b in range(lb)], rows2, rows1
    return sum(x * sum(map(operator.mul, s, v)) for u, v in zip(outer, inner) for x, s in zip(u, slices))


def _q_pair(t1: tuple[int, dict], t2: tuple[int, dict], level: int) -> Fraction:
    """Q between two parts, from their shape tensors on the same level-
    ``level`` cells: each pair of left-factor counts contracted with its
    one-cell kernel (``_exact_q_kernel``) over the integers in the cheaper
    order (``_contract_cells``), divided once, times (5/3)^level."""
    (D1, tensors1), (D2, tensors2) = t1, t2
    terms = [
        (*_exact_q_kernel(p, r), rows1, rows2)
        for p, rows1 in tensors1.items()
        for r, rows2 in tensors2.items()
    ]
    den = math.lcm(*(kden for kden, *_ in terms))
    total = sum(den // kden * _contract_cells(K, rows1, rows2) for kden, K, rows1, rows2 in terms)
    return Fraction(5**level * total, 3**level * den * D1 * D2)


def q_inner_exact(omega: SmoothForm, eta: SmoothForm) -> Fraction:
    """Q(omega, eta) in rational arithmetic.

    Each form is split into parts by data level (``_parts``), each part on
    the cells below its root word: a lacuna form dz_sigma alone lives on
    the cells inside C_sigma.  Q is bilinear, so it is the sum over pairs
    of parts, each pair taken at the finer of its two levels and only on
    the cells both parts live on (none when neither part's root word is a
    prefix of the other's); when eta is omega, each cross pair is taken
    once and doubled.  On those cells each part gives integer shape tensors
    (``_shape_tensors``), and on one cell Q is a fixed multilinear form in
    them, the limit of the level kernels (``_exact_q_kernel``), contracted
    over the integers cell by cell or by moments, whichever is cheaper
    (``_q_pair``).  Products of any shape within the slot budget are exact;
    a pair of forms of more slots raises GasketError before any tensor is
    built."""
    _check_q_budget(omega, eta)
    parts1 = _parts(omega)
    parts2 = parts1 if eta is omega else _parts(eta)
    tensors: dict[tuple[int, int, Word], tuple[int, dict]] = {}

    def tensor(part: SmoothForm, level: int, root: Word) -> tuple[int, dict]:
        key = (id(part), level, root)
        if key not in tensors:
            tensors[key] = _shape_tensors(part, level, root)
        return tensors[key]

    total = F0
    for i, (level1, root1, part1) in enumerate(parts1):
        for j, (level2, root2, part2) in enumerate(parts2):
            if eta is omega and j < i or not (root1.startswith(root2) or root2.startswith(root1)):
                continue
            level, root = max(level1, level2), max(root1, root2, key=len)
            value = _q_pair(tensor(part1, level, root), tensor(part2, level, root), level)
            total += value if i == j or eta is not omega else 2 * value
    return total


# ---------------------------------------------------------------------------
# Q: the level sums, and the certified value
# ---------------------------------------------------------------------------

def q_level_sums(omega: SmoothForm, eta: SmoothForm, m: int) -> Callable[[int], Fraction]:
    """n -> the endpoint level sum Q~_n(omega, eta) = (5/3)^n sum over E_n of
    omega(e)·eta(e), exactly, for n >= m >= the data level of both forms.

    Unlike exact Q, both whole forms are cut at the one level m: their
    shape tensors on the level-m cells are summed once into one moment per
    pair of left-factor counts (``_moments``), and each level sum contracts
    them with the cached ``q_level_kernel`` over the integers and divides
    once.  A pair with more than _KERNEL_SLOTS_MAX slots raises GasketError
    before any kernel is built (``_check_q_budget``)."""
    _check_q_budget(omega, eta)
    D1, tensors1 = _shape_tensors(omega, m)
    D2, tensors2 = (D1, tensors1) if eta is omega else _shape_tensors(eta, m)
    moments = [(p, r, _moments(rows1, rows2)) for p, rows1 in tensors1.items() for r, rows2 in tensors2.items()]
    top = max((p + r + 2 for p, r, _ in moments), default=0)

    def level_sum(n: int) -> Fraction:
        # kernel (p, r) is scaled by 5^((p + r + 2)·j); bring all to 5^(top·j)
        j = n - m
        total = sum(
            5 ** ((top - p - r - 2) * j) * sum(map(operator.mul, q_level_kernel(p, r, j), mom))
            for p, r, mom in moments
        )
        return Fraction(5**n * total, 3**n * 5 ** (top * j) * D1 * D2)

    return level_sum


def q_inner_certified(
    omega: SmoothForm,
    eta: SmoothForm | None = None,
    tolerance: Fraction = Fraction(1, 10**9),
    max_level: int = 12,
    strict: bool = True,
) -> CertifiedValue:
    """Q(omega, eta) exactly (``q_inner_exact``), rounded once to a float:
    the radius is half an ulp of the value.  ``max_level`` is not read.  A
    tolerance below the radius is a miss: NonConvergentError when
    ``strict``, else the radius shows it."""
    cv = _valued(q_inner_exact(omega, omega if eta is None else eta), "certified")
    if strict and cv.radius > Fraction(tolerance):
        raise NonConvergentError(f"certified Q radius {float(cv.radius):.3g} exceeds the tolerance")
    return cv


def q_level(form: SmoothForm, n: int) -> Fraction:
    """Q_n[form] = (5/3)^n sum over E_n of the exact edge integrals squared,
    read from the side-integral table at level n."""
    D, rows = side_integrals_at(form, n)
    return R53**n * Fraction(sum(x * x for row in rows for x in row), D * D)
