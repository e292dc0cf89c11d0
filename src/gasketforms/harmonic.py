"""Piecewise-harmonic finite-energy functions on the gasket.

A function is stored by its exact values on the vertex set V_m of one graph
approximation, held as one frozen integer table: the corner values of the
3^m level-m cells in word order, as integers over one denominator D in
lowest terms.  Below level m it is understood as the harmonic extension,
computed cell by cell with the 3x3 matrices H_i that map the corner values
of a cell to the corner values of its sub-cell i.  The matrices encode the
classical (2a+2b+c)/5 midpoint rule; rows sum to one, so constants are
preserved, and all entries are nonnegative, so the maximum principle holds
exactly on rational data.  Scaled by 5 the rule has integer entries, and it
is written once, as ``kernels._children5`` (the three children's triples of
one integer triple), which this module and the kernels both read: descent
runs on the integer triples and converts back once, as values over D·5^k
after k letters.  One level-by-level walk (``VertexFunction._levels``)
drives extension, sums and the per-cell triple tables: it expands
the integer triples of one level into those of the next in word order; a
single cell's triple (``VertexFunction.int_triple``) is its prefix's stored
triple descended letter by letter on integers.  Point-keyed values exist
only at the boundary: ``VertexFunction.from_values`` reads them and the
``values`` view builds them on demand.

The renormalized graph energies (5/3)^n sum_{E_n} |du|^2 agree for every
n >= m, which is what makes every quantity in this module an exact rational.
Energies walk no level past the finer stored one: E_n(u, v) is the Q level
sum Q~_n(du, dv), so each level's energy contracts the stored cells' moments
with the (0, 0) Q level kernel ``kernels.q_level_kernel(0, 0, d)``
(``_energies``).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Mapping

from .errors import GasketError
from .geometry import (
    CORNERS,
    Point,
    Word,
    level_corners,
    locate_vertex,
    vertex_id,
    parse_vertex_id,
    vertex_table,
    vertices_at_level,
)
from .kernels import IntTriple, _children5, q_level_kernel

Triple = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class VertexFunction:
    """An m-harmonic function: the integer corner triples ``seed`` of the
    level-m cells in word order over ``den``, in lowest terms (gcd(den, every
    entry) = 1, so equal functions compare and hash equal); harmonic below.
    A negative level, a den <= 0 or a seed of other than 3^level triples
    raises GasketError."""

    level: int
    den: int
    seed: tuple[IntTriple, ...]

    def __post_init__(self):
        if self.level < 0 or self.den <= 0 or len(self.seed) != 3 ** min(self.level, 64):
            raise GasketError("a cell table needs a level >= 0, a positive den and 3^level triples")
        g = math.gcd(self.den, *(x for t in self.seed for x in t))
        seed = self.seed if g == 1 else [(a // g, b // g, c // g) for a, b, c in self.seed]
        object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "seed", tuple(seed))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_values(level: int, values: Mapping[Point, Fraction]) -> "VertexFunction":
        """The function with the given values on V_level (the only keys read)."""
        table = vertex_table(level)
        vals = [Fraction(values[p]) for p in table.values()]
        D = math.lcm(*(v.denominator for v in vals))
        ints = {q: v.numerator * (D // v.denominator) for q, v in zip(table, vals)}
        return VertexFunction(level, D, [tuple(ints[q] for q in c) for c in level_corners(level)])

    @staticmethod
    def from_boundary(a, b, c) -> "VertexFunction":
        return VertexFunction.from_values(0, dict(zip(CORNERS, (a, b, c))))

    @staticmethod
    def constant(c) -> "VertexFunction":
        return VertexFunction.from_boundary(c, c, c)

    @staticmethod
    def basis(i: int) -> "VertexFunction":
        return VertexFunction(0, 1, [tuple(int(j == i) for j in range(3))])

    @property
    def values(self) -> dict[Point, Fraction]:
        """The values on V_m, keyed by Point: a new dict on every read."""
        ints = {q: x for c, t in zip(level_corners(self.level), self.seed) for q, x in zip(c, t)}
        return {p: Fraction(ints[q], self.den) for q, p in vertex_table(self.level).items()}

    # -- cell access -------------------------------------------------------
    def int_triple(self, word: Word) -> tuple[int, IntTriple]:
        """(den, integer corner values on C_word), the values being those
        integers over den = D·5^(|word| - level): the level-m seed triple of
        the word's prefix, descended letter by letter, each letter's child
        of ``_children5``.  Requires |word| >= level."""
        if len(word) < self.level:
            raise GasketError("cell is coarser than the stored level")
        t = self.seed[int(word[: self.level] or "0", 3)]
        rest = word[self.level :]
        for letter in rest:
            t = _children5(*t)[int(letter)]
        return self.den * 5 ** len(rest), t

    def triple(self, word: Word) -> Triple:
        """Corner values on C_word, ``int_triple`` divided once per value;
        requires |word| >= level."""
        den, (a, b, c) = self.int_triple(word)
        return Fraction(a, den), Fraction(b, den), Fraction(c, den)

    def __call__(self, p: Point) -> Fraction:
        word, j = locate_vertex(p, self.level)
        return self.triple(word)[j]

    # -- the cell walk, extension and energy ----------------------------------
    def _levels(self, n: int, root: Word = "") -> Iterator[list[IntTriple]]:
        """The integer corner triples of the cells below ``root`` of levels
        max(m, |root|)..n, one list per level in word order; level k is over
        D·5^(k - m).  The first level is the root's own triple
        (``int_triple``) or, for a root coarser than m, its slice of the
        seed; each later level holds the three children (``_children5``) of
        every cell of the one before, in letter order."""
        start = max(self.level, len(root))
        if n < start:
            raise GasketError("target level below stored level")
        count = 3 ** (start - len(root))
        first = int(root or "0", 3) * count
        rows = [self.int_triple(root)[1]] if start == len(root) else list(self.seed[first : first + count])
        yield rows
        for _ in range(n - start):
            children: list[IntTriple] = []
            for t in rows:
                children += _children5(*t)
            rows = children
            yield rows

    def int_triples(self, n: int, root: Word = "") -> tuple[int, list[IntTriple]]:
        """(den, integer corner values of the level-n cells below ``root``,
        every cell by default, in word order); the corner values are those
        integers over den."""
        for rows in self._levels(n, root):
            pass
        return self.den * 5 ** (n - self.level), rows

    def extend(self, n: int) -> "VertexFunction":
        return VertexFunction(n, *self.int_triples(n))

    def energy_at_level(self, n: int) -> Fraction:
        """(5/3)^n sum over E_n of |du|^2; equal to energy() for all n >= level."""
        return self.energy_with_at_level(self, n)

    def energy_with_at_level(self, other: "VertexFunction", n: int) -> Fraction:
        """(5/3)^n sum over E_n of du·dv."""
        return self._energies(other, n)[-1]

    def energy(self) -> Fraction:
        return self._energy

    @cached_property
    def _energy(self) -> Fraction:
        return self.energy_at_level(self.level)

    def energy_levels(self, n_max: int) -> list[Fraction]:
        """[E_m, ..., E_{n_max}]."""
        return self._energies(self, n_max)

    def _energies(self, other: "VertexFunction", n: int) -> list[Fraction]:
        """(5/3)^j sum over E_j of du·dv for j = k..n, k the finer stored level:
        the Q level sums of du and dv, the level-k moments sum_cells t_a·s_b
        contracted with K_d = ``q_level_kernel(0, 0, d)`` (over 25^d), read in
        increasing d, since a cold kernel recurses once per level it lacks."""
        k = max(self.level, other.level)
        if n < k:
            raise GasketError("target level below stored level")
        Du, tu = self.int_triples(k)
        Dv, tv = (Du, tu) if other is self else other.int_triples(k)
        mom = [sum(map(operator.mul, x, y)) for x in zip(*tu) for y in zip(*tv)]
        return [Fraction(5, 3) ** (k + d) * Fraction(sum(map(operator.mul, q_level_kernel(0, 0, d), mom)), Du * Dv * 25**d)
                for d in range(n - k + 1)]

    # -- pointwise bounds ----------------------------------------------------
    def oscillation(self, word: Word) -> Fraction:
        """max - min over C_word from the corner values below it; exact by
        the maximum principle."""
        den, rows = self.int_triples(max(self.level, len(word)), word)
        vals = [x for t in rows for x in t]
        return Fraction(max(vals) - min(vals), den)

    def laplacian_weights(self) -> dict[Point, Fraction]:
        """Vertex weights (5/3)^m sum_{y ~ x} (u(x) - u(y)) on V_m: each cell
        adds 3u(x) - (the sum of its corner values) at each corner x."""
        table = vertex_table(self.level)
        acc = dict.fromkeys(table, 0)
        for c, t in zip(level_corners(self.level), self.seed):
            s = sum(t)
            for q, x in zip(c, t):
                acc[q] += 3 * x - s
        scale = Fraction(5, 3) ** self.level / self.den
        return {table[q]: scale * v for q, v in acc.items()}

    def pairing(self, evaluate: Callable[[Point], Fraction]) -> Fraction:
        """E(self, v) = sum_x v(x) * weight(x) for any finite-energy v.

        Exact because the Laplacian weights of an m-harmonic function live on
        V_m and do not change under refinement.
        """
        return sum(evaluate(p) * w for p, w in self.laplacian_weights().items())

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "VertexFunction") -> "VertexFunction":
        n = max(self.level, other.level)
        (Da, ta), (Db, tb) = self.int_triples(n), other.int_triples(n)
        D = math.lcm(Da, Db)
        p, q = D // Da, D // Db
        return VertexFunction(n, D, [(p * a + q * x, p * b + q * y, p * c + q * z) for (a, b, c), (x, y, z) in zip(ta, tb)])

    def __sub__(self, other: "VertexFunction") -> "VertexFunction":
        return self + -other

    def __neg__(self) -> "VertexFunction":
        return VertexFunction(self.level, self.den, [(-a, -b, -c) for a, b, c in self.seed])

    def scale(self, c) -> "VertexFunction":
        p, q = Fraction(c).as_integer_ratio()
        return VertexFunction(self.level, self.den * q, [(p * a, p * b, p * c) for a, b, c in self.seed])

    def is_constant(self) -> bool:
        return len({x for t in self.seed for x in t}) == 1

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        items = sorted(((vertex_id(p), v) for p, v in self.values.items()))
        return {
            "level": self.level,
            "values": [[vid, f"{v.numerator}/{v.denominator}"] for vid, v in items],
        }

    @staticmethod
    def from_json(data: dict) -> "VertexFunction":
        """Refuses a negative level or a count other than |V_n| = (3^(n+1) + 3)/2 before listing V_n;
        a missing field or a malformed value raises GasketError."""
        try:
            level = int(data["level"])
            if level < 0 or len(data["values"]) != (3 ** (min(level, 64) + 1) + 3) // 2:
                raise GasketError("vertex set does not match the declared level")
            vals = {parse_vertex_id(vid): Fraction(s) for vid, s in data["values"]}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise GasketError(f"malformed vertex-function JSON: {exc!r}") from exc
        if set(vals) != set(vertices_at_level(level)):
            raise GasketError("vertex set does not match the declared level")
        return VertexFunction.from_values(level, vals)


def harmonic_basis() -> tuple[VertexFunction, VertexFunction, VertexFunction]:
    return VertexFunction.basis(0), VertexFunction.basis(1), VertexFunction.basis(2)


def random_harmonic(level: int, rng: random.Random, span: int = 9) -> VertexFunction:
    """m-harmonic function with random small rational values on V_m."""
    vals = {
        p: Fraction(rng.randint(-span, span), rng.randint(1, span))
        for p in vertices_at_level(level)
    }
    return VertexFunction.from_values(level, vals)
