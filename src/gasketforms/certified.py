"""Certified values: a number together with a sound error radius.

Exact results carry a rational value and radius zero.  Certified numeric
results carry a float value and a rational radius: half an ulp when the
float is an exact value rounded once, plus the geometric tail constants of
a truncation where there is one; radii are always upper bounds, so
enclosures stay sound under addition and scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[Fraction, float]

_ZERO = Fraction(0)


def sqrt_upper(x: Fraction, scale: int = 10**12) -> Fraction:
    """A rational upper bound for sqrt(x), tight to ~1/scale relatively."""
    if x < 0:
        raise ValueError("sqrt of negative bound")
    if x == 0:
        return _ZERO
    n = x.numerator * x.denominator * scale * scale
    s = math.isqrt(n)
    if s * s < n:
        s += 1
    return Fraction(s, x.denominator * scale)


@dataclass(frozen=True)
class CertifiedValue:
    value: Number
    radius: Fraction = _ZERO

    def __post_init__(self):
        if self.radius is not _ZERO and self.radius < 0:
            raise ValueError("radius must be nonnegative")

    @property
    def exact(self) -> bool:
        return self.radius == 0 and isinstance(self.value, Fraction)

    @staticmethod
    def from_exact(v) -> "CertifiedValue":
        return CertifiedValue(Fraction(v), _ZERO)

    # -- interval views ------------------------------------------------------
    def lower(self) -> Number:
        return self.value - self.radius

    def upper(self) -> Number:
        return self.value + self.radius

    # comparisons are exact: a float midpoint is the rational it stores, and
    # the radii already cover the rounding that produced it
    def contains(self, x) -> bool:
        return abs(Fraction(self.value) - Fraction(x)) <= self.radius

    def encloses(self, other: "CertifiedValue") -> bool:
        """Whether every point of ``other`` lies in this enclosure."""
        return abs(Fraction(self.value) - Fraction(other.value)) + other.radius <= self.radius

    def overlaps(self, other: "CertifiedValue") -> bool:
        return abs(Fraction(self.value) - Fraction(other.value)) <= self.radius + other.radius

    # -- arithmetic ------------------------------------------------------------
    # computed exactly on the rationals the midpoints store; a result with a
    # float operand is rounded once, so half an ulp of it joins the radius
    def __add__(self, other: "CertifiedValue") -> "CertifiedValue":
        exact = Fraction(self.value) + Fraction(other.value)
        return _rounded(exact, self.radius + other.radius, self.value, other.value)

    def __sub__(self, other: "CertifiedValue") -> "CertifiedValue":
        exact = Fraction(self.value) - Fraction(other.value)
        return _rounded(exact, self.radius + other.radius, self.value, other.value)

    def __neg__(self) -> "CertifiedValue":
        return CertifiedValue(-self.value, self.radius)

    def scaled(self, c) -> "CertifiedValue":
        c = Fraction(c)
        return _rounded(Fraction(self.value) * c, self.radius * abs(c), self.value)

    def __repr__(self):
        if self.exact:
            return f"CertifiedValue({self.value})"
        return f"CertifiedValue({float(self.value)!r} ± {float(self.radius):.3e})"

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> dict:
        if self.exact:
            v = self.value
            return {"value": f"{v.numerator}/{v.denominator}", "radius": 0.0, "exact": True}
        r = float(self.radius)
        if r < self.radius:  # round the radius up so a round trip never shrinks it
            r = math.nextafter(r, math.inf)
        return {"value": float(self.value), "radius": r, "exact": False}

    @staticmethod
    def from_json(data: dict) -> "CertifiedValue":
        if data.get("exact"):
            return CertifiedValue.from_exact(Fraction(data["value"]))
        return CertifiedValue(float(data["value"]), Fraction(float(data["radius"])))


def _rounded(exact: Fraction, radius: Fraction, *operands: Number) -> CertifiedValue:
    """The exact result, or, when an operand is a float, the result rounded
    once to a float with half an ulp of it added to the radius."""
    if not any(isinstance(x, float) for x in operands):
        return CertifiedValue(exact, radius)
    v = float(exact)
    return CertifiedValue(v, radius + Fraction(math.ulp(v)) / 2)
