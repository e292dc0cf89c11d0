"""Certified-value arithmetic and soundness helpers."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gasketforms.certified import CertifiedValue

F = Fraction


def sqrt_upper(x: Fraction, scale: int = 10**12) -> Fraction:
    """A rational upper bound for sqrt(x), tight to ~1/scale relatively (the
    tail bounds of the test oracles take it)."""
    if x < 0:
        raise ValueError("sqrt of negative bound")
    if x == 0:
        return F(0)
    n = x.numerator * x.denominator * scale * scale
    s = math.isqrt(n)
    if s * s < n:
        s += 1
    return Fraction(s, x.denominator * scale)


def test_exact_flag():
    assert CertifiedValue.from_exact(F(3, 7)).exact
    assert not CertifiedValue(0.42, F(1, 100)).exact


def test_radius_positivity():
    with pytest.raises(ValueError):
        CertifiedValue(F(1), F(-1))


def test_interval_arithmetic():
    a = CertifiedValue(F(1, 2), F(1, 10))
    b = CertifiedValue(F(1, 3), F(1, 20))
    s = a + b
    assert s.value == F(5, 6) and s.radius == F(3, 20)
    d = a - b
    assert d.value == F(1, 6) and d.radius == F(3, 20)
    assert (-a).value == F(-1, 2)
    sc = a.scaled(F(-2))
    assert sc.value == -1 and sc.radius == F(1, 5)


def test_float_arithmetic_covers_its_rounding():
    a, b = CertifiedValue(0.1), CertifiedValue(0.2)
    assert (a + b).contains(F(0.1) + F(0.2))
    assert (a - b).contains(F(0.1) - F(0.2))
    assert a.scaled(F(1, 3)).contains(F(0.1) / 3)
    # exact values stay exact
    assert (CertifiedValue(F(1, 10)) + CertifiedValue(F(1, 5))).exact


@given(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
)
def test_mixed_float_and_exact_arithmetic_covers_its_rounding(x, q):
    """A float midpoint combined with an exact rational: the result is the
    exact rational result rounded once, so it contains it."""
    a, b = CertifiedValue(x), CertifiedValue.from_exact(q)
    for got, want in ((a + b, F(x) + q), (b + a, q + F(x)), (a - b, F(x) - q), (b - a, q - F(x)),
                      (a.scaled(q), F(x) * q)):
        assert isinstance(got.value, float) and got.contains(want)


def test_containment():
    a = CertifiedValue(F(1, 2), F(1, 10))
    assert a.contains(F(9, 20))
    assert not a.contains(F(7, 10))
    assert a.encloses(CertifiedValue(F(1, 2), F(1, 20)))
    assert a.overlaps(CertifiedValue(F(3, 5), F(1, 100)))


def test_sqrt_upper_is_sound_and_tight():
    for x in [F(2), F(3, 5), F(1, 3), F(17, 11), F(0)]:
        u = sqrt_upper(x)
        assert u * u >= x
        if x > 0:
            assert u * u <= x * (1 + F(1, 10**10))


def test_json_roundtrip():
    a = CertifiedValue.from_exact(F(-5, 9))
    assert CertifiedValue.from_json(a.to_json()).value == F(-5, 9)
    b = CertifiedValue(0.125, F(1, 1000))
    back = CertifiedValue.from_json(b.to_json())
    assert back.value == 0.125 and abs(back.radius - F(1, 1000)) < F(1, 10**12)


@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.fractions(min_value=0, max_value=10, max_denominator=10**18),
)
def test_json_roundtrip_never_shrinks_radius(value, radius):
    cv = CertifiedValue(value, radius)
    back = CertifiedValue.from_json(json.loads(json.dumps(cv.to_json())))
    assert back.value == value
    assert back.radius >= radius
