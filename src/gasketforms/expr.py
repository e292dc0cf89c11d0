"""Pointwise expressions over piecewise-harmonic functions.

An expression is a sum/product closure of piecewise-harmonic functions
(``Atom``) and rational constants (``Const``).  Sums and products reduce to
a single function where they can (``as_vf``); ``_monomials`` expands any
expression into rational multiples of products of functions, which is the
form every exact kernel contracts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable, Optional

from .errors import GasketError
from .harmonic import VertexFunction

F1 = Fraction(1)

# A Product of Sums that do not reduce expands into the product of their
# monomial counts; an expression past this many monomials is refused before
# it is expanded.
_MONOMIALS_MAX = 256


class Expr:
    """Sum/product closure of piecewise-harmonic functions and constants."""

    def max_level(self) -> int:
        return 0

    def as_const(self) -> Optional[Fraction]:
        """The value, when the expression reduces to a constant function."""
        vf = self.as_vf()
        if vf is not None and vf.is_constant():
            return Fraction(vf.seed[0][0], vf.den)
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

    def as_const(self):
        return self.c

    def as_vf(self):
        return VertexFunction.constant(self.c)

    def to_json(self):
        return {"kind": "const", "value": f"{self.c.numerator}/{self.c.denominator}"}


@dataclass(frozen=True, eq=False)
class Atom(Expr):
    vf: VertexFunction

    def max_level(self):
        return self.vf.level

    def as_vf(self):
        return self.vf

    def to_json(self):
        return {"kind": "vf", "function": self.vf.to_json()}


@dataclass(frozen=True, eq=False)
class Sum(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, terms: Iterable[Expr]):
        object.__setattr__(self, "terms", tuple(terms))

    def max_level(self):
        return max(t.max_level() for t in self.terms)

    def as_vf(self):
        return self._vf

    @cached_property
    def _vf(self) -> Optional[VertexFunction]:
        parts = [t.as_vf() for t in self.terms]
        if any(p is None for p in parts):
            return None
        return reduce(operator.add, parts)

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

    def max_level(self):
        return max(t.max_level() for t in self.terms)

    def as_const(self):
        consts = [t.as_const() for t in self.terms]
        return None if None in consts else math.prod(consts, start=F1)

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
