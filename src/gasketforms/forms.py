"""Smooth 1-forms on the gasket: representation, integration, inner product.

A form is stored in three parts that are implicitly summed:

* a *universal* part, a list of terms a·dg·b with a, b pointwise expressions
  over piecewise-harmonic functions and g piecewise-harmonic; the term pairs
  with an oriented edge e as a(e+)·(g(e+) - g(e-))·b(e-);
* a *harmonic* part, a finitely supported rational combination of the unit
  lacuna forms dz_sigma (local potentials with corner values 1/6, 0, -1/6 on
  each sub-cell of C_sigma, arranged so the clockwise lacuna integral is 1);
* an *exact* part d(U) given by a potential U.

Integrals and the energy inner product Q are exact, in rational arithmetic,
for every form within the kernel budget, products of functions included.
Every exact kernel is the limit of a cached integer level kernel:
``_kernel_limit`` finds the short recurrence of the sequence by one row
echelon modulo a prime, solves for its coefficients exactly
(``solve_unique``) and checks it in integers.  Edge integrals contract the
(p, 0) Riemann limits with the factors' integer corner triples (the right
factors moved left); ``side_integral_table`` gives the whole form's
integrals over the sides of every cell of one level from one walk per
function, and ``q_level`` sums their squares.  Q contracts per-cell moments
of the corner triples with its one-cell kernels.  Certified mode is the
exact value rounded once to a float, with half an ulp as the radius.

The level-n sums themselves stay as the independent route: the dyadic
Riemann sums I_n (``riemann_sum``) and the endpoint level sums Q~_n =
(5/3)^n sum omega(e)·eta(e) (``q_level_sums``), both exact rationals.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .certified import CertifiedValue
from .errors import (
    ExactnessUnavailableError,
    GasketError,
    NonConvergentError,
)
from .geometry import (
    ElementaryPath,
    OrientedEdge,
    Word,
    cell_corners,
    check_word,
    edges_at_level,
    is_prefix,
    subdivide,
    words,
)
from .harmonic import (
    H_MATRICES,
    IntTriple,
    Triple,
    VertexFunction,
    descend,
)

F0 = Fraction(0)
F1 = Fraction(1)
R53 = Fraction(5, 3)


# ---------------------------------------------------------------------------
# rational linear solve
# ---------------------------------------------------------------------------

def _primitive(row: list[int]) -> list[int]:
    """Divide an integer row by its content (the gcd of its entries)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def solve_unique(rows: list[list[Fraction | int]], rhs: list[Fraction | int]) -> list[Fraction]:
    """Solve an overdetermined consistent system with a unique solution.

    Fraction-free elimination: each augmented row is scaled once to coprime
    integers, rows below the pivot are replaced by p·row − f·pivot_row divided
    by their content, and the pivot of each column is the candidate of least
    magnitude, which keeps the integers short.  Fractions appear only in back
    substitution, so the solution is the same rationals as exact Gauss–Jordan.
    """
    if not rows or len(rhs) != len(rows) or any(len(r) != len(rows[0]) for r in rows):
        raise GasketError("linear system is empty or ragged")
    n = len(rows[0])
    aug = []
    for coeffs, b in zip(rows, rhs):
        row = list(coeffs) + [b]
        den = math.lcm(*(x.denominator for x in row))
        aug.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    r = 0
    for c in range(n):
        live = [k for k in range(r, len(aug)) if aug[k][c]]
        if not live:
            continue
        piv = min(live, key=lambda k: abs(aug[k][c]))
        aug[r], aug[piv] = aug[piv], aug[r]
        tail = aug[r][c:]
        p = tail[0]
        for k in range(r + 1, len(aug)):
            f = aug[k][c]
            if f:
                # columns before c are zero in both rows
                aug[k] = [0] * c + _primitive([p * x - f * y for x, y in zip(aug[k][c:], tail)])
        r += 1
    if any(aug[k][n] for k in range(r, len(aug))):
        raise GasketError("inconsistent linear system")
    if r < n:
        raise GasketError("linear system does not pin a unique solution")
    out = [F0] * n
    for c in reversed(range(n)):
        row = aug[c]
        out[c] = (row[n] - sum(row[j] * out[j] for j in range(c + 1, n))) / Fraction(row[c])
    return out


# ---------------------------------------------------------------------------
# pointwise expression algebra over piecewise-harmonic functions
# ---------------------------------------------------------------------------

class Expr:
    """Sum/product closure of piecewise-harmonic functions and constants."""

    def __call__(self, p) -> Fraction:
        raise NotImplementedError

    def atoms(self) -> list[VertexFunction]:
        return []

    def max_level(self) -> int:
        return 0

    def as_const(self) -> Optional[Fraction]:
        return None

    def as_vf(self) -> Optional[VertexFunction]:
        """Reduce to a single piecewise-harmonic function if possible.

        Sum and Product reduce once and keep the result: expressions and
        the functions in them are never mutated."""
        return None

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(data: dict) -> "Expr":
        kind = data["kind"]
        if kind == "const":
            return Const(Fraction(data["value"]))
        if kind == "vf":
            return Atom(VertexFunction.from_json(data["function"]))
        if kind == "sum":
            return Sum([Expr.from_json(t) for t in data["terms"]])
        if kind == "product":
            return Product([Expr.from_json(t) for t in data["terms"]])
        raise GasketError(f"unknown expression kind {kind!r}")


@dataclass(frozen=True)
class Const(Expr):
    c: Fraction

    def __call__(self, p):
        return self.c

    def as_const(self):
        return self.c

    def as_vf(self):
        return VertexFunction.constant(self.c)

    def to_json(self):
        return {"kind": "const", "value": f"{self.c.numerator}/{self.c.denominator}"}


@dataclass(frozen=True, eq=False)
class Atom(Expr):
    vf: VertexFunction

    def __call__(self, p):
        return self.vf(p)

    def atoms(self):
        return [self.vf]

    def max_level(self):
        return self.vf.level

    def as_const(self):
        if self.vf.is_constant():
            return next(iter(self.vf.values.values()))
        return None

    def as_vf(self):
        return self.vf

    def to_json(self):
        return {"kind": "vf", "function": self.vf.to_json()}


@dataclass(frozen=True, eq=False)
class Sum(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, terms: Iterable[Expr]):
        object.__setattr__(self, "terms", tuple(terms))

    def __call__(self, p):
        return sum(t(p) for t in self.terms)

    def atoms(self):
        return [a for t in self.terms for a in t.atoms()]

    def max_level(self):
        return max(t.max_level() for t in self.terms)

    def as_vf(self):
        return self._vf

    @cached_property
    def _vf(self) -> Optional[VertexFunction]:
        parts = [t.as_vf() for t in self.terms]
        if any(p is None for p in parts):
            return None
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out

    def as_const(self):
        vf = self.as_vf()
        if vf is not None and vf.is_constant():
            return next(iter(vf.values.values()))
        return None

    def to_json(self):
        return {"kind": "sum", "terms": [t.to_json() for t in self.terms]}


@dataclass(frozen=True, eq=False)
class Product(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, terms: Iterable[Expr]):
        flat: list[Expr] = []
        for t in terms:
            if isinstance(t, Product):
                flat.extend(t.terms)
            else:
                flat.append(t)
        object.__setattr__(self, "terms", tuple(flat))

    def __call__(self, p):
        out = F1
        for t in self.terms:
            out *= t(p)
        return out

    def atoms(self):
        return [a for t in self.terms for a in t.atoms()]

    def max_level(self):
        return max(t.max_level() for t in self.terms)

    def as_const(self):
        consts = [t.as_const() for t in self.terms]
        if any(c is None for c in consts):
            return None
        out = F1
        for c in consts:
            out *= c
        return out

    def as_vf(self):
        return self._vf

    @cached_property
    def _vf(self) -> Optional[VertexFunction]:
        c = F1
        nonconst: list[VertexFunction] = []
        for t in self.terms:
            tc = t.as_const()
            if tc is not None:
                c *= tc
                continue
            vf = t.as_vf()
            if vf is None:
                return None
            nonconst.append(vf)
        if len(nonconst) == 0:
            return VertexFunction.constant(c)
        if len(nonconst) == 1:
            return nonconst[0].scale(c)
        return None

    def to_json(self):
        return {"kind": "product", "terms": [t.to_json() for t in self.terms]}


ONE = Const(F1)


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
    """universal terms + harmonic dz coefficients + exact potential."""

    terms: tuple[FormTerm, ...] = ()
    harmonic: dict[Word, Fraction] = field(default_factory=dict)
    exact: VertexFunction | None = None

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
        return SmoothForm(
            tuple(FormTerm.from_json(t) for t in data.get("universal", [])),
            {check_word(w): Fraction(s) for w, s in data.get("harmonic", [])},
            VertexFunction.from_json(data["exact"]) if data.get("exact") else None,
        )


def d(u: VertexFunction) -> SmoothForm:
    """The exact form dU."""
    return SmoothForm(exact=u)


def fdg(f: VertexFunction | Expr, g: VertexFunction) -> SmoothForm:
    left = f if isinstance(f, Expr) else Atom(f)
    return SmoothForm(terms=(FormTerm(left, g),))


def dz_form(sigma: Word) -> SmoothForm:
    """The harmonic lacuna form dz_sigma (unit clockwise lacuna period)."""
    check_word(sigma)
    return SmoothForm(harmonic={sigma: F1})


def multiply_form(h: VertexFunction | Expr, form: SmoothForm, side: str = "left") -> SmoothForm:
    """h·omega or omega·h for a purely universal form."""
    if form.harmonic or form.exact is not None:
        raise GasketError("module action implemented for universal parts only")
    hx = h if isinstance(h, Expr) else Atom(h)
    if side == "left":
        terms = tuple(FormTerm(Product([hx, t.left]), t.g, t.right) for t in form.terms)
    else:
        terms = tuple(FormTerm(t.left, t.g, Product([t.right, hx])) for t in form.terms)
    return SmoothForm(terms=terms)


# ---------------------------------------------------------------------------
# the lacuna potentials and their exact edge integrals
# ---------------------------------------------------------------------------

# corner values of the local potential of dz_sigma on sub-cell sigma+i: the
# cell's shared vertex with C_sigma gets 0 and the lacuna edge runs from -1/6
# to +1/6 in the clockwise direction of the lacuna.
_ZETA = (F0, Fraction(1, 6), Fraction(-1, 6))


def dz_cell_triple(i: int) -> Triple:
    return tuple(_ZETA[(j - i) % 3] for j in range(3))  # type: ignore[return-value]


def dz_integral_edge(sigma: Word, e: OrientedEdge) -> Fraction:
    """Exact integral of dz_sigma over one oriented edge."""
    tau, i, s = e.cell, e.side, e.sign
    if is_prefix(tau, sigma):
        # the edge is a perimeter edge of a cell containing C_sigma's scope:
        # nonzero iff the remainder of sigma avoids the side letter
        rest = sigma[len(tau):]
        if str(i) not in rest:
            return Fraction(-s, 3)
        return F0
    if is_prefix(sigma, tau):
        sub = int(tau[len(sigma)])
        t = descend(dz_cell_triple(sub), tau[len(sigma) + 1:])
        return s * (t[(i + 1) % 3] - t[(i + 2) % 3])
    return F0


@lru_cache(maxsize=None)
def _prefix_dz(cell: Word, side: int) -> tuple[tuple[Word, Fraction], ...]:
    """(cell[:k], integral of dz_{cell[:k]} over the edge (cell, side, +1))
    for the k < |cell| whose value is nonzero, shortest first."""
    e = OrientedEdge(cell, side)
    values = ((cell[:k], dz_integral_edge(cell[:k], e)) for k in range(len(cell)))
    return tuple((w, v) for w, v in values if v != 0)


def dz_integral_path(sigma: Word, path: ElementaryPath) -> Fraction:
    return sum((dz_integral_edge(sigma, e) for e in path), F0)


# ---------------------------------------------------------------------------
# exact edge-integral kernels
# ---------------------------------------------------------------------------

# 5·H_i: the refinement matrices scaled to integers
_H5 = tuple(tuple(tuple(int(5 * x) for x in row) for row in H) for H in H_MATRICES)


def _refine_modes(T: Sequence[int], A: Sequence[Sequence[int]], k: int) -> list[int]:
    """The flat order-k tensor T with A applied to every mode:
    out[i_1..i_k] = sum_j T[j_1..j_k]·A[j_1][i_1]⋯A[j_k][i_k].

    Each pass transforms the last mode and moves it to the front, so k passes
    transform every mode once and restore the mode order."""
    third = len(T) // 3
    for _ in range(k):
        out = [0] * len(T)
        for r in range(third):
            x, y, z = T[3 * r : 3 * r + 3]
            for i in range(3):
                out[i * third + r] = x * A[0][i] + y * A[1][i] + z * A[2][i]
        T = out
    return T


# Work budget of the kernel routes.  A monomial with k slots (its factors and
# g) contracts a dense kernel of 3^k integers, its exact limit or a cached
# level, and a Product of Sums that do not reduce expands into the product of
# their monomial counts; larger forms are refused before any kernel is built.
_KERNEL_SLOTS_MAX = 6
_MONOMIALS_MAX = 256


@lru_cache(maxsize=None)
def riemann_kernel(side: int, p: int, q: int, n: int) -> tuple[int, ...]:
    """Level-n dyadic Riemann kernel of L_1⋯L_p(t)·(g(t) - g(s))·R_1⋯R_q(s)
    over one canonical side, t its target corner and s its source corner.

    A dense flat tensor over {0,1,2}^(p+1+q), slots in the order L_1..L_p, g,
    R_1..R_q with the first slot most significant, scaled by 5^((p+1+q)·n) to
    integers: contracted with the factors' corner triples on a cell it gives
    5^((p+1+q)·n)·I_n over that cell's side.  The level-0 sum seeds it; each
    level applies the side's two child letters (5·H_i on every mode) and adds,
    because the side's sub-edges lie in those two children."""
    k = p + 1 + q
    if k > _KERNEL_SLOTS_MAX:
        raise GasketError(f"a Riemann kernel of {k} slots exceeds the budget of {_KERNEL_SLOTS_MAX}")
    s, t = (side + 2) % 3, (side + 1) % 3
    if n == 0:
        R = [0] * 3**k  # flat index: the slots' corners read as base-3 digits
        R[int(f"{t}" * (p + 1) + f"{s}" * q, 3)] = 1
        R[int(f"{t}" * p + f"{s}" * (q + 1), 3)] = -1
        return tuple(R)
    prev = riemann_kernel(side, p, q, n - 1)
    return tuple(x + y for x, y in zip(_refine_modes(prev, _H5[s], k), _refine_modes(prev, _H5[t], k)))


def _roots_inside_unit_disc(poly: Sequence[Fraction]) -> bool:
    """Whether every root of the real polynomial ``poly`` (lowest degree
    first, leading coefficient nonzero) lies strictly inside the unit disc,
    by the Schur–Cohn (Jury) test in exact arithmetic.  Made monic, p of
    degree n >= 1 passes iff |p(0)| < 1 and (p(x) - p(0)·x^n·p(1/x)) / x, of
    degree n - 1 with leading coefficient 1 - p(0)^2, passes (Rouché's
    theorem on the unit circle); a constant has no roots."""
    while len(poly) > 1:
        poly = [x / poly[-1] for x in poly]
        a0 = poly[0]
        if abs(a0) >= 1:
            return False
        poly = [x - a0 * y for x, y in zip(poly[1:], reversed(poly[:-1]))]
    return True


# the prime of the modular row echelon that finds a recurrence's degree
_PRIME = 2**61 - 1


@lru_cache(maxsize=None)
def _kernel_limit(
    sequence: Callable[..., tuple[int, ...]], shape: tuple[int, ...], rho: Fraction
) -> tuple[int, tuple[int, ...]]:
    """(den, K): the limit of w_j = sequence(*shape, j)·rho^j, entry by entry
    as K/den with den the least common denominator.

    The w_j are a Krylov sequence T^j·w_0 of one refinement operator.  At the
    least d with w_d = sum_j c_j·w_j (j < d) the span of w_0..w_(d-1) is
    T-invariant, so P(x) = x^d - sum_j c_j·x^j annihilates the sequence and
    its recurrence holds for every j.  The sequence converges exactly when 1
    is a simple root of P and every other root lies strictly inside the unit
    disc; then, with P = (x - 1)·P~, the limit is the projection
    P~(T)·w_0 / P~(1) = sum_j p~_j·w_j / P~(1).  Both are checked, the disc
    by the exact Schur–Cohn test on P~ (``_roots_inside_unit_disc``):
    GasketError when either fails.

    d is found by one incremental row echelon of the integer level kernels
    u_j = w_j / rho^j modulo ``_PRIME``.  Its d pivot coordinates give a
    square system that is nonsingular mod p, so over the rationals too;
    ``solve_unique`` solves it for u_d = sum_j c'_j·u_j, and the recurrence
    is then checked on every coordinate in integers.  The rank mod p is at
    most the rank over the rationals, so a bad prime can only make d too
    small; the integer check refuses that with GasketError, so the builder
    never returns a wrong limit."""
    basis: list[tuple[int, list[int]]] = []  # (pivot, row reduced mod p with 1 at its pivot)
    u: list[tuple[int, ...]] = []
    while True:
        u.append(sequence(*shape, len(u)))
        v = [x % _PRIME for x in u[-1]]
        for piv, row in basis:
            f = v[piv]
            if f:
                v = [(a - f * b) % _PRIME for a, b in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            break
        inv = pow(v[piv], -1, _PRIME)
        basis.append((piv, [x * inv % _PRIME for x in v]))
    d = len(basis)
    *u, ud = u
    pivots = [piv for piv, _ in basis]
    c = solve_unique([[uj[i] for uj in u] for i in pivots], [ud[i] for i in pivots]) if d else []
    L = math.lcm(*(x.denominator for x in c))
    cl = [x.numerator * (L // x.denominator) for x in c]
    if any(sum(map(operator.mul, cl, column)) != L * y for *column, y in zip(*u, ud)):
        raise GasketError("kernel sequence fails its recurrence in integers: the modular degree is too small")
    # w_d = sum_j c'_j·rho^(d-j)·w_j; P, lowest degree first
    poly = [-x * rho ** (d - j) for j, x in enumerate(c)] + [F1]
    quotient = [sum(poly[k + 1 :]) for k in range(d)]  # P~ = P / (x - 1) when P(1) = 0
    if sum(poly) != 0 or sum(quotient) == 0:
        raise GasketError("kernel sequence does not converge: 1 is not a simple root of its recurrence")
    if not _roots_inside_unit_disc(quotient):
        raise GasketError("kernel sequence does not converge: its recurrence has a root other than 1 off the open unit disc")
    # K = sum_j p~_j·rho^j·u_j / P~(1), over integers with one denominator
    coeffs = [q * rho**j / sum(quotient) for j, q in enumerate(quotient)]
    L = math.lcm(*(x.denominator for x in coeffs))
    ints = [x.numerator * (L // x.denominator) for x in coeffs]
    K = [sum(map(operator.mul, ints, column)) for column in zip(*u)]
    g = math.gcd(L, *K)
    return L // g, tuple(x // g for x in K)


def edge_kernel(side: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact edge-integral kernel X over one canonical side, X[j][k]
    pairing the left factor's corner j with g's corner k: the limit of the
    Riemann kernels ``riemann_kernel(side, 1, 0, n)`` / 25^n."""
    den, K = _kernel_limit(riemann_kernel, (side, 1, 0), Fraction(1, 25))
    return tuple(tuple(Fraction(x, den) for x in K[3 * j : 3 * j + 3]) for j in range(3))


@lru_cache(maxsize=None)
def _int_edge_kernels() -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(Dk, kernels): Dk·edge_kernel(i) for the sides i = 0, 1, 2 over
    integers, each flattened row by row to pair with the outer product of two
    corner triples; Dk is the least common denominator of their entries."""
    limits = [_kernel_limit(riemann_kernel, (i, 1, 0), Fraction(1, 25)) for i in range(3)]
    Dk = math.lcm(*(den for den, _ in limits))
    return Dk, tuple(tuple(x * (Dk // den) for x in K) for den, K in limits)


# ---------------------------------------------------------------------------
# exact integration
# ---------------------------------------------------------------------------

def _normalize_term(term: FormTerm) -> tuple[Fraction, VertexFunction | None, VertexFunction]:
    """(coefficient, left factor as a single function or None for 1, g).

    Moving the right factor to the left is harmless here: the two universal
    representatives integrate identically on every edge.
    """
    lc = term.left.as_const()
    rc = term.right.as_const()
    if lc is not None and rc is not None:
        return lc * rc, None, term.g
    # a constant factor always reduces to a function: only the others can refuse
    lv = term.left.as_vf() if lc is None else None
    rv = term.right.as_vf() if rc is None else None
    if (lc is None and lv is None) or (rc is None and rv is None):
        raise ExactnessUnavailableError("term factor is not piecewise-harmonic")
    if rc is not None:
        return rc, lv, term.g
    if lc is not None:
        return lc, rv, term.g
    raise ExactnessUnavailableError("product of two non-constant factors")


def _normalized_terms(form: SmoothForm) -> list[tuple[Fraction, VertexFunction | None, VertexFunction]]:
    return [_normalize_term(t) for t in form.terms]


def integrate_term_exact(
    coeff: Fraction, F: VertexFunction | None, g: VertexFunction, e: OrientedEdge
) -> Fraction:
    """Exact integral of coeff·F dg (F None for 1) over one oriented edge: the
    integer kernel contracted with the integer corner triples (``int_triple``)
    of every sub-edge at the data level.  The sub-edges share one level, so
    their counts share one denominator and their sum is divided once."""
    if coeff == 0:
        return F0
    m = max(g.level, F.level if F is not None else 0)
    total = 0
    for sub in subdivide(e, max(m, e.level)):
        den, tg = g.int_triple(sub.cell)
        i = sub.side
        if F is None:
            total += sub.sign * (tg[(i + 1) % 3] - tg[(i + 2) % 3])
        else:
            Dk, kernels = _int_edge_kernels()
            Df, tf = F.int_triple(sub.cell)
            total += sub.sign * sum(map(operator.mul, kernels[i], [x * y for x in tf for y in tg]))
            den *= Df * Dk
    return coeff * Fraction(total, den)


def _universal_level(form: SmoothForm) -> int:
    """The data level of the universal part: the finest level of its terms."""
    return max((max(t.g.level, t.left.max_level(), t.right.max_level()) for t in form.terms), default=0)


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
    den, table = VertexFunction.from_boundary(*dz_cell_triple(i)).int_triples(depth)
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
    once per value it reads.  A product of two non-constant factors raises
    ExactnessUnavailableError before any walk."""
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
             (r0, r1, r2, r3, r4, r5, r6, r7, r8)) = _int_edge_kernels()
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


def side_integrals_at(form: SmoothForm, level: int) -> tuple[int, list[IntTriple]]:
    """``side_integral_table`` at any level: built at the data level when
    that is finer, then coarsened."""
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


def _monomial_exact(left: Sequence[VertexFunction], g: VertexFunction, e: OrientedEdge) -> Fraction:
    """Exact integral of L_1⋯L_p·dg over one oriented edge (p >= 2): the
    limit of the Riemann kernels, ``_kernel_limit`` of the (p, 0) kernels at
    rho 5^-(p+1), contracted like ``_monomial_riemann`` on every sub-edge of
    e at the data level."""
    slots = (*left, g)
    m = max(e.level, *(f.level for f in slots))
    rho = Fraction(1, 5 ** len(slots))
    total = F0
    for sub in subdivide(e, m):
        kden, K = _kernel_limit(riemann_kernel, (sub.side, len(left), 0), rho)
        value, den = _contract(K, slots, sub.cell)
        total += Fraction(sub.sign * value, den * kden)
    return total


def _monomials(expr: Expr) -> list[tuple[Fraction, tuple[VertexFunction, ...]]]:
    """expr as a sum of rational multiples of products of piecewise-harmonic
    functions; a factor that reduces to one function stays one factor.
    Raises GasketError beyond _MONOMIALS_MAX monomials, before expanding."""
    c = expr.as_const()
    if c is not None:
        return [(c, ())] if c else []
    vf = expr.as_vf()
    if vf is not None:
        return [(F1, (vf,))]
    parts = [_monomials(t) for t in expr.terms]  # a Product: Const and Atom always reduce
    count = sum(map(len, parts)) if isinstance(expr, Sum) else math.prod(map(len, parts))
    if count > _MONOMIALS_MAX:
        raise GasketError(f"{count} monomials exceed the Riemann budget of {_MONOMIALS_MAX}")
    if isinstance(expr, Sum):
        return [mono for part in parts for mono in part]
    out = [(F1, ())]
    for part in parts:
        out = [(c1 * c2, f1 + f2) for c1, f1 in out for c2, f2 in part]
    return out


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


def _integrate_universal_exact(form: SmoothForm, e: OrientedEdge) -> Fraction:
    """The universal part's exact integral over one edge.  Each term's a·b
    (``left_total``: the right factors move left, which integrates the same
    on every edge) is expanded into monomials (``_monomials``); one with at
    most one factor takes ``integrate_term_exact``, a product the kernel
    limit of its shape (``_monomial_exact``).  Every monomial is checked
    against the slot budget before any kernel is built."""
    monos = [(c, left, t.g) for t in form.terms for c, left in _monomials(t.left_total())]
    slots = max((len(left) + 1 for _, left, _ in monos), default=0)
    if slots > _KERNEL_SLOTS_MAX:
        raise GasketError(f"a Riemann kernel of {slots} slots exceeds the budget of {_KERNEL_SLOTS_MAX}")
    total = F0
    for c, left, g in monos:
        if len(left) <= 1:
            total += integrate_term_exact(c, left[0] if left else None, g, e)
        else:
            total += c * _monomial_exact(left, g, e)
    return total


def _integrate_fixed_parts(form: SmoothForm, e: OrientedEdge) -> Fraction:
    """Harmonic and exact parts integrate exactly in either mode."""
    total = F0
    for sigma, k in form.harmonic.items():
        if k != 0:
            total += k * dz_integral_edge(sigma, e)
    U = form.exact
    if U is not None:
        if e.level >= U.level:
            den, t = U.int_triple(e.cell)
            total += Fraction(e.sign * (t[(e.side + 1) % 3] - t[(e.side + 2) % 3]), den)
        else:
            # both endpoints lie in V_{e.level}, a subset of V_{U.level}
            total += U.values[e.target] - U.values[e.source]
    return total


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
    """Integral of a smooth form over one oriented edge.

    Certified mode returns the exact integral rounded once (``_valued``); a
    form without universal terms keeps its exact value.  ``tolerance`` is
    not read: a caller that asks for less than half an ulp sees the miss in
    the radius."""
    fixed = _integrate_fixed_parts(form, e)
    if mode == "certified" and not form.terms:
        return CertifiedValue.from_exact(fixed)
    return _valued(fixed + _integrate_universal_exact(form, e), mode)


def integrate_path(
    form: SmoothForm,
    path: ElementaryPath,
    mode: str = "exact",
    tolerance: Fraction = Fraction(1, 10**9),
) -> CertifiedValue:
    """Sum of edge integrals; radii add.  Float midpoints are summed exactly
    and rounded once, with half an ulp of the sum added to the radius, so the
    value does not depend on the order of the edges: the reversed path gives
    exactly the negated value and the same radius.  ``tolerance`` is not
    read, as in ``integrate_edge``."""
    parts = [integrate_edge(form, e, mode) for e in path]
    total = sum((Fraction(cv.value) for cv in parts), F0)
    radius = sum((cv.radius for cv in parts), F0)
    if all(isinstance(cv.value, Fraction) for cv in parts):
        return CertifiedValue(total, radius)
    v = float(total)
    return CertifiedValue(v, radius + Fraction(math.ulp(v)) / 2)


# ---------------------------------------------------------------------------
# Q: exact route
# ---------------------------------------------------------------------------

def q_kernel() -> tuple[Fraction, ...]:
    """Quadrilinear kernel W with W[f,g,h,k] = Q(f dg, h dk) on 0-harmonic
    basis 4-tuples: the (1, 1) limit ``_exact_q_kernel``."""
    den, K = _exact_q_kernel(1, 1)
    return tuple(Fraction(x, den) for x in K)


# (c, left-factor triples, g triple): the piece c·L_1⋯L_p·dg on one cell, with
# the factors' integer corner values; c carries their denominators
Piece = tuple[Fraction, tuple[IntTriple, ...], IntTriple]


def _cell_pieces(form: SmoothForm, m: int) -> list[list[Piece]]:
    """The form's pieces on every level-m cell, in word order: one per
    monomial of a term's a·b (``_monomials``), one per lacuna form on each
    cell inside C_sigma, and one for the exact part.  m is at least the level
    of every nonzero part."""
    cells: list[list[Piece]] = [[] for _ in range(3**m)]

    def add(c: Fraction, tables: list[tuple[int, Sequence[IntTriple]]], start: int = 0) -> None:
        c /= math.prod(den for den, _ in tables)
        for pieces, *ts in zip(cells[start:], *(table for _, table in tables)):
            pieces.append((c, tuple(ts[:-1]), ts[-1]))

    for t in form.terms:
        g = t.g.int_triples(m)
        for c, left in _monomials(t.left_total()):
            add(c, [f.int_triples(m) for f in left] + [g])
    for sigma, k in form.harmonic.items():
        if k:
            for start, (den, table, _) in _dz_cells(sigma, m):
                add(k, [(den, table)], start)
    if form.exact is not None:
        add(F1, [form.exact.int_triples(m)])
    return cells


def _shape_tensors(cells: list[list[Piece]]) -> tuple[int, dict[int, list[tuple[int, ...]]]]:
    """(D, per left-factor count p the integer tensors D·sum c·L_1⊗⋯⊗L_p⊗g
    over each cell's pieces with p left factors), stored entry by entry
    (first slot most significant), each entry a tuple over the cells."""
    D = math.lcm(*(c.denominator for pieces in cells for c, _, _ in pieces))
    tensors: dict[int, list[list[int]]] = {}
    for u, pieces in enumerate(cells):
        for c, left, g in pieces:
            x = [c.numerator * (D // c.denominator)]
            for t in (*left, g):
                x = [a * b for a in x for b in t]
            if len(left) not in tensors:
                tensors[len(left)] = [[0] * len(x) for _ in cells]
            per_cell = tensors[len(left)]
            per_cell[u] = list(map(operator.add, per_cell[u], x))
    return D, {p: list(zip(*per_cell)) for p, per_cell in tensors.items()}


def _moments(cells1: list[list[Piece]], cells2: list[list[Piece]]) -> tuple[int, list[tuple[int, int, list[int]]]]:
    """(D, [(p, r, moment)]): for each pair of left-factor counts p, r of the
    two forms' pieces, D times the sum over the cells of the outer product
    of their shape tensors (``_shape_tensors``), flat over the slots
    L_1..L_p, g, M_1..M_r, k.  A pair of more than _KERNEL_SLOTS_MAX slots
    raises GasketError before any tensor is built."""
    p = max((len(left) for pieces in cells1 for _, left, _ in pieces), default=None)
    r = max((len(left) for pieces in cells2 for _, left, _ in pieces), default=None)
    if p is not None and r is not None and p + r + 2 > _KERNEL_SLOTS_MAX:
        raise GasketError(f"a Q kernel of {p + r + 2} slots exceeds the budget of {_KERNEL_SLOTS_MAX}")
    D1, entries1 = _shape_tensors(cells1)
    D2, entries2 = (D1, entries1) if cells2 is cells1 else _shape_tensors(cells2)
    return D1 * D2, [
        (p, r, [sum(map(operator.mul, a, b)) for a in A for b in B])
        for p, A in entries1.items()
        for r, B in entries2.items()
    ]


def _exact_q_kernel(p: int, r: int) -> tuple[int, tuple[int, ...]]:
    """(den, K): K/den is Q on one cell of 0-harmonic data between pieces
    with p and r left factors, flat over the slots of their moment (L_1..L_p,
    g, M_1..M_r, k): the limit of the renormalized level kernels
    (5/3)^j·``q_level_kernel(p, r, j)`` / 5^((p+r+2)·j)."""
    return _kernel_limit(q_level_kernel, (p, r), Fraction(5, 3 * 5 ** (p + r + 2)))


def q_inner_exact(omega: SmoothForm, eta: SmoothForm) -> Fraction:
    """Q(omega, eta) in rational arithmetic.

    Both forms are cut into integer pieces on the cells of a common level m
    where all the data is 0-harmonic (``_cell_pieces``), and the pieces are
    summed over the cells into one moment per pair of left-factor counts
    (``_moments``).  On one cell Q is a fixed multilinear form in the corner
    triples, the limit of the level kernels (``_exact_q_kernel``).  Each
    moment is contracted with its kernel over the integers and the sum is
    divided once, times (5/3)^m.  Products of any shape within the slot
    budget are exact; a pair of more slots raises GasketError before any
    kernel is built."""
    m = max(_form_data_level(omega), _form_data_level(eta))
    cells1 = _cell_pieces(omega, m)
    cells2 = cells1 if eta is omega else _cell_pieces(eta, m)
    D, moments = _moments(cells1, cells2)
    kernels = [_exact_q_kernel(p, r) for p, r, _ in moments]
    den = math.lcm(*(kden for kden, _ in kernels))
    total = sum(den // kden * sum(map(operator.mul, K, mom)) for (kden, K), (_, _, mom) in zip(kernels, moments))
    return Fraction(5**m * total, 3**m * den * D)


# ---------------------------------------------------------------------------
# Q: the level sums, and the certified value
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def q_level_kernel(p: int, r: int, j: int) -> tuple[int, ...]:
    """One cell's share of the Q level sum j levels below it: the sum over
    its 3^j sub-cells and their sides of [L_1⋯L_p(t)·(g(t) - g(s))]·
    [M_1⋯M_r(t)·(k(t) - k(s))], t and s the side's target and source corners.

    Stored like ``riemann_kernel``: dense and flat over {0,1,2}^(p+r+2),
    slots L_1..L_p, g, M_1..M_r, k, scaled by 5^((p+r+2)·j) to integers.
    Each level applies all three letters (5·H_i on every mode) and adds.
    ``q_level_sums`` checks the slot budget before it builds any."""
    d = p + r + 2
    if j == 0:
        K = [0] * 3**d
        for i in range(3):
            t, s = (i + 1) % 3, (i + 2) % 3
            sign = {t: 1, s: -1}
            for a, b in itertools.product((t, s), repeat=2):
                K[int(f"{t}" * p + f"{a}" + f"{t}" * r + f"{b}", 3)] += sign[a] * sign[b]
        return tuple(K)
    prev = q_level_kernel(p, r, j - 1)
    return tuple(map(sum, zip(*(_refine_modes(prev, H, d) for H in _H5))))


def q_level_sums(omega: SmoothForm, eta: SmoothForm, m: int) -> Callable[[int], Fraction]:
    """n -> the endpoint level sum Q~_n(omega, eta) = (5/3)^n sum over E_n of
    omega(e)·eta(e), exactly, for n >= m >= the data level of both forms.

    The level-m cells' pieces are summed once into one moment per pair of
    left-factor counts (``_moments``, the same moments as exact Q); each
    level sum contracts them with the cached ``q_level_kernel`` over the
    integers and divides once.  A pair with more than _KERNEL_SLOTS_MAX
    slots (the left factors of both sides and the two d-slots) raises
    GasketError before any kernel is built."""
    cells1 = _cell_pieces(omega, m)
    D, moments = _moments(cells1, cells1 if eta is omega else _cell_pieces(eta, m))
    top = max((p + r + 2 for p, r, _ in moments), default=0)

    def level_sum(n: int) -> Fraction:
        # kernel (p, r) is scaled by 5^((p + r + 2)·j); bring all to 5^(top·j)
        j = n - m
        total = sum(
            5 ** ((top - p - r - 2) * j) * sum(map(operator.mul, q_level_kernel(p, r, j), mom))
            for p, r, mom in moments
        )
        return Fraction(5**n * total, 3**n * 5 ** (top * j) * D)

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


def q_inner(
    omega: SmoothForm,
    eta: SmoothForm | None = None,
    mode: str = "exact",
    tolerance: Fraction = Fraction(1, 10**9),
    max_level: int = 12,
    strict: bool = True,
) -> CertifiedValue:
    if eta is None:
        eta = omega
    if mode == "exact":
        return CertifiedValue.from_exact(q_inner_exact(omega, eta))
    if mode == "certified":
        return q_inner_certified(omega, eta, tolerance, max_level, strict)
    raise GasketError(f"unknown mode {mode!r}")


def q_level(form: SmoothForm, n: int) -> Fraction:
    """Q_n[form] = (5/3)^n sum over E_n of the exact edge integrals squared,
    read from the side-integral table at level n."""
    D, rows = side_integrals_at(form, n)
    return R53**n * Fraction(sum(x * x for row in rows for x in row), D * D)


# ---------------------------------------------------------------------------
# the level-n exact forms used in the completion counterexample
# ---------------------------------------------------------------------------

def _slope_function() -> VertexFunction:
    return VertexFunction.from_boundary(Fraction(-1, 2), F0, Fraction(1, 2))


def _support_words(n: int) -> list[Word]:
    return ["".join(w) for w in itertools.product("02", repeat=n)]


def counterexample_form(n: int) -> SmoothForm:
    """The n-exact form with local potentials 2^-n g(w_sigma^-1 ·) on the
    cells sigma in {0,2}^n (g the 0-harmonic slope with boundary -1/2, 0,
    1/2), written in the universal part as cutoff·d(extension) per cell."""
    if n < 1:
        raise GasketError("n must be at least 1")
    g = _slope_function()
    scale = Fraction(1, 2**n)
    level = n + 1
    terms = []
    for sigma in _support_words(n):
        corners = cell_corners(sigma)
        corner_vals = {p: scale * v for p, v in zip(corners, (Fraction(-1, 2), F0, Fraction(1, 2)))}
        chi_vals: dict = {}
        pot_vals: dict = {}
        for word in words(level):
            cs = cell_corners(word)
            if is_prefix(sigma, word):
                t = descend(tuple(scale * v for v in (Fraction(-1, 2), F0, Fraction(1, 2))), word[n:])
                for p, v in zip(cs, t):
                    chi_vals[p] = F1
                    pot_vals[p] = v
                continue
            shared = [p for p in cs if p in corner_vals]
            if len(shared) == 1:
                for p in cs:
                    pot_vals.setdefault(p, corner_vals[shared[0]])
        for word in words(level):
            for p in cell_corners(word):
                chi_vals.setdefault(p, F0)
                pot_vals.setdefault(p, F0)
        chi = VertexFunction(level, chi_vals)
        pot = VertexFunction(level, pot_vals)
        terms.append(FormTerm(Atom(chi), pot))
    return SmoothForm(terms=tuple(terms))


def counterexample_integral(n: int, e: OrientedEdge) -> Fraction:
    """Exact edge integral of the n-exact form, straight from its potentials."""
    g = _slope_function()
    scale = Fraction(1, 2**n)
    support = set(_support_words(n))

    def walk(edge: OrientedEdge) -> Fraction:
        word = edge.cell
        if len(word) >= n:
            if word[:n] not in support:
                return F0
            t = descend(g.triple(""), word[n:])
            d = t[(edge.side + 1) % 3] - t[(edge.side + 2) % 3]
            return scale * d * edge.sign
        a, b = edge.children()
        return walk(a) + walk(b)

    return walk(e)


def limit_assignment_integral(e: OrientedEdge) -> Fraction:
    """The edge assignment 2^-k on the bottom edges w_sigma(e_1),
    sigma in {0,2}^k, zero elsewhere (the norm-completion limit object)."""
    if e.side != 1 or any(c == "1" for c in e.cell):
        return F0
    return Fraction(e.sign, 2 ** len(e.cell))


def nonorm_q_level(n: int, k: int) -> Fraction:
    """Q_k of the n-exact counterexample form, via the self-similar cell
    factorization (the 2^n support cells carry identical pulled-back data)."""
    if k >= n:
        g = _slope_function()
        return Fraction(2, 4) ** n * R53**n * g.energy_at_level(k - n)
    total = F0
    for e in edges_at_level(k):
        v = counterexample_integral(n, e)
        total += v * v
    return R53**k * total


@lru_cache(maxsize=None)
def _qdiff_relative(m: int) -> Fraction:
    """(5/3)^m sum over E_m of |limit assignment - d(slope)|^2: the common
    pulled-back level sum shared by every support cell."""
    g = _slope_function()
    total = F0
    for word, t in zip(words(m), g.triples(m)):
        for side in range(3):
            e = OrientedEdge(word, side)
            dv = t[(side + 1) % 3] - t[(side + 2) % 3]
            v = limit_assignment_integral(e) - dv
            total += v * v
    return R53**m * total


def nonorm_q_level_diff(n: int, k: int) -> Fraction:
    """Q_k[limit - omega_n], exactly."""
    if k < n:
        return nonorm_qdiff_brute(n, k)
    # both objects restrict to the support cells with identical pulled data
    return Fraction(5, 6) ** n * _qdiff_relative(k - n)


def nonorm_qdiff_brute(n: int, k: int) -> Fraction:
    """Brute-force Q_k[limit - omega_n] over all of E_k (for cross-checks)."""
    total = F0
    for e in edges_at_level(k):
        v = limit_assignment_integral(e) - counterexample_integral(n, e)
        total += v * v
    return R53**k * total
