"""Self-similar addressing and exact planar geometry of the Sierpinski gasket.

The gasket is the attractor of the three similitudes w_i(x) = p_i + (x - p_i)/2
with p_0 = (0,0), p_1 = (1/2, sqrt(3)/2), p_2 = (1,0).  A *word* over {0,1,2}
addresses the cell C_sigma = w_sigma(K); the empty word addresses the whole
gasket.  Every vertex of V_n is (X, Y·sqrt(3))/2^(n+1) with integers X, Y;
inside the package a vertex is that pair (``cell_corners``) and all identities
(vertex gluing, path consecutiveness) are integer equalities.  A ``Point`` of
two exact rationals is built only where the API hands a vertex out.

Conventions used throughout the package:

* side i of a cell is the edge opposite corner i, oriented from corner
  (i+2) mod 3 to corner (i+1) mod 3; with these orientations the three sides
  traverse the perimeter counter-clockwise;
* the lacuna of C_sigma (boundary of the removed middle triangle) consists of
  side i of the sub-cell sigma+i for i = 0,1,2, each in its canonical
  orientation; as a closed path this runs clockwise;
* an oriented edge is encoded as (cell word, side, sign) and serialized as
  "word/side/+" or "word/side/-".  The encoding is stable under refinement:
  both halves of an edge keep the side index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import GasketError, NonConsecutiveError

Word = str  # letters in {0,1,2}; "" is the empty word
Lattice = tuple[int, int]  # (X, Y): the point (X, Y·sqrt(3))/2^(n+1) of the level-n lattice

_LETTERS = "012"
_ROOT: tuple[Lattice, Lattice, Lattice] = ((0, 0), (1, 1), (2, 0))  # p_0, p_1, p_2 at level 0


@dataclass(frozen=True)
class Point:
    """Exact planar point: ``y`` stores the coefficient of sqrt(3)."""

    x: Fraction
    y: Fraction

    def __hash__(self):
        # from the integer parts: Fraction.__hash__ takes a modular inverse per call
        return hash((self.x.numerator, self.x.denominator, self.y.numerator, self.y.denominator))

    def __repr__(self):
        return f"Point({self.x}, {self.y}*sqrt3)"


def point(q: Lattice, n: int) -> Point:
    """The Point of the level-n lattice pair q."""
    return Point(Fraction(q[0], 2 ** (n + 1)), Fraction(q[1], 2 ** (n + 1)))


CORNERS = tuple(point(q, 0) for q in _ROOT)
P0, P1, P2 = CORNERS


def check_word(word: Word) -> Word:
    if not isinstance(word, str) or any(c not in _LETTERS for c in word):
        raise GasketError(f"invalid word {word!r}: letters must be in 0,1,2")
    return word


def is_prefix(tau: Word, sigma: Word) -> bool:
    """Prefix order: tau <= sigma."""
    return sigma.startswith(tau)


@lru_cache(maxsize=None)
def cell_corners(word: Word) -> tuple[Lattice, Lattice, Lattice]:
    """The level-|word| lattice pairs of the three vertices w_sigma(p_j),
    j = 0,1,2: the tail's corners plus the first letter's root corner
    shifted left by the tail's length."""
    if not word:
        return _ROOT
    k = len(word) - 1
    cx, cy = _ROOT[int(word[0])]
    return tuple((x + (cx << k), y + (cy << k)) for x, y in cell_corners(word[1:]))  # type: ignore[return-value]


def locate_vertex(p: Point, level: int) -> tuple[Word, int]:
    """(word, j): a cell of length >= level that has p as its corner j.

    One pass down the cell tree, carrying p in the coordinates of the current
    cell as an integer pair on a fine enough lattice.  Where two cells
    qualify the smallest letter wins, which keeps the result deterministic.
    """
    n = max(level, p.x.denominator.bit_length(), p.y.denominator.bit_length())
    fx, fy = p.x * 2 ** (n + 1), p.y * 2 ** (n + 1)
    if fx.denominator != 1 or fy.denominator != 1:
        raise GasketError(f"{p} is not a vertex of the gasket")
    word, x, y = "", fx.numerator, fy.numerator
    corners = [(cx << n, cy << n) for cx, cy in _ROOT]
    while len(word) <= n:
        if len(word) >= level and (x, y) in corners:
            return word, corners.index((x, y))
        for i, (cx, cy) in enumerate(corners):
            rx, ry = 2 * x - cx, 2 * y - cy
            if 0 <= ry <= rx and rx + ry <= 2 << n:  # inside the triangle of p_0, p_1, p_2
                word, x, y = word + _LETTERS[i], rx, ry
                break
        else:
            break
    raise GasketError(f"{p} is not a vertex of the gasket")


@dataclass(frozen=True)
class OrientedEdge:
    """Oriented edge of some graph approximation, encoded by containing cell,
    opposite-corner index and orientation sign."""

    cell: Word
    side: int
    sign: int = 1

    def __post_init__(self):
        if self.side not in (0, 1, 2) or self.sign not in (1, -1):
            raise GasketError(f"bad edge {self.cell}/{self.side}/{self.sign}")
        check_word(self.cell)

    @property
    def level(self) -> int:
        return len(self.cell)

    def _ends(self) -> tuple[Lattice, Lattice]:
        corners = cell_corners(self.cell)
        s = corners[(self.side + 2) % 3]
        t = corners[(self.side + 1) % 3]
        return (s, t) if self.sign == 1 else (t, s)

    @property
    def source(self) -> Point:
        return point(self._ends()[0], self.level)

    @property
    def target(self) -> Point:
        return point(self._ends()[1], self.level)

    @property
    def midpoint(self) -> Point:
        (sx, sy), (tx, ty) = self._ends()
        return point((sx + tx, sy + ty), self.level + 1)

    def reversed(self) -> "OrientedEdge":
        return OrientedEdge(self.cell, self.side, -self.sign)

    def children(self) -> tuple["OrientedEdge", "OrientedEdge"]:
        """The two consecutive level+1 edges covering this edge."""
        a = _LETTERS[(self.side + 2) % 3]
        b = _LETTERS[(self.side + 1) % 3]
        first = OrientedEdge(self.cell + a, self.side, self.sign)
        second = OrientedEdge(self.cell + b, self.side, self.sign)
        return (first, second) if self.sign == 1 else (second, first)

    def __str__(self):
        return f"{self.cell}/{self.side}/{'+' if self.sign == 1 else '-'}"

    @staticmethod
    def parse(text: str) -> "OrientedEdge":
        parts = text.split("/") if isinstance(text, str) else []
        if len(parts) != 3 or parts[2] not in "+-":
            raise GasketError(f"cannot parse edge {text!r}")
        return OrientedEdge(check_word(parts[0]), int(parts[1]), 1 if parts[2] == "+" else -1)


def subdivide(e: OrientedEdge, level: int) -> list[OrientedEdge]:
    """The 2^(level - e.level) consecutive descendants of e at the given level."""
    if level < e.level:
        raise GasketError("cannot subdivide to a coarser level")
    edges = [e]
    for _ in range(level - e.level):
        edges = [c for parent in edges for c in parent.children()]
    return edges


def words(n: int) -> Iterator[Word]:
    """The 3^n words of length n in lexicographic order: the cell order of
    every per-cell table in the package."""
    return map("".join, itertools.product(_LETTERS, repeat=n))


def edges_at_level(n: int) -> Iterator[OrientedEdge]:
    """All edges of E_n with canonical orientation, word-lexicographic, then by side."""
    for word in words(n):
        for side in range(3):
            yield OrientedEdge(word, side)


def level_corners(n: int) -> list[tuple[Lattice, Lattice, Lattice]]:
    """``cell_corners`` of the level-n cells in word order, in one walk: child
    i's corner j is its parent's corner i plus its corner j on the next lattice."""
    rows = [_ROOT]
    for _ in range(n):
        rows = [tuple((xi + xj, yi + yj) for xj, yj in c) for c in rows for xi, yi in c]
    return rows  # type: ignore[return-value]


@lru_cache(maxsize=None)
def vertex_table(n: int) -> dict[Lattice, Point]:
    """V_n: each lattice pair mapped to its Point, in (X, Y) order, which is (x, y) order."""
    return {q: point(q, n) for q in sorted({q for c in level_corners(n) for q in c})}


def vertices_at_level(n: int) -> list[Point]:
    """V_n, sorted by coordinates."""
    return list(vertex_table(n).values())


@dataclass(frozen=True)
class ElementaryPath:
    edges: tuple[OrientedEdge, ...]
    closed: bool

    @property
    def source(self) -> Point:
        return self.edges[0].source

    @property
    def target(self) -> Point:
        return self.edges[-1].target

    def reversed(self) -> "ElementaryPath":
        return ElementaryPath(tuple(e.reversed() for e in reversed(self.edges)), self.closed)

    def __add__(self, other: "ElementaryPath") -> "ElementaryPath":
        return validate_path(self.edges + other.edges)

    def __iter__(self):
        return iter(self.edges)

    def __len__(self):
        return len(self.edges)


def validate_path(edges: Sequence[OrientedEdge]) -> ElementaryPath:
    """Check consecutiveness on the lattice of the finest edge level and set the closed flag."""
    if not edges:
        raise GasketError("a path needs at least one edge")
    n = max(e.level for e in edges)
    ends = [tuple((x << n - e.level, y << n - e.level) for x, y in e._ends()) for e in edges]
    for k in range(1, len(edges)):
        if ends[k][0] != ends[k - 1][1]:
            raise NonConsecutiveError(k)
    return ElementaryPath(tuple(edges), ends[-1][1] == ends[0][0])


def perimeter_path(word: Word) -> ElementaryPath:
    """Counter-clockwise boundary of C_sigma (three edges of level |sigma|)."""
    return validate_path([OrientedEdge(word, 1), OrientedEdge(word, 0), OrientedEdge(word, 2)])


def lacuna_path(word: Word) -> ElementaryPath:
    """Clockwise boundary of the removed middle triangle of C_sigma.

    The three sides are side i of the sub-cell sigma+i; in their canonical
    orientations they chain into a clockwise loop.
    """
    return validate_path([OrientedEdge(word + _LETTERS[i], i) for i in range(3)])


def vertex_id(p: Point) -> str:
    """Stable textual id used in JSON serializations."""
    return f"{p.x.numerator}/{p.x.denominator}:{p.y.numerator}/{p.y.denominator}"


def parse_vertex_id(text: str) -> Point:
    """The Point of a ``vertex_id``; GasketError for malformed text."""
    try:
        xs, ys = text.split(":")
        xn, xd = xs.split("/")
        yn, yd = ys.split("/")
        return Point(Fraction(int(xn), int(xd)), Fraction(int(yn), int(yd)))
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise GasketError(f"cannot parse vertex id {text!r}") from exc


def path_to_json(path: ElementaryPath) -> list[str]:
    return [str(e) for e in path.edges]


def path_from_json(data: Sequence[str]) -> ElementaryPath:
    return validate_path([OrientedEdge.parse(t) for t in data])
