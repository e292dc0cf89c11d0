"""Property tests of the integer harmonic descent against a Fraction oracle."""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gasketforms import forms as fm
from gasketforms import geometry as geo
from gasketforms.geometry import OrientedEdge, cell_corners, point, vertices_at_level
from gasketforms.harmonic import H_MATRICES, VertexFunction

values = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def words(min_size: int, max_size: int):
    return st.text(alphabet="012", min_size=min_size, max_size=max_size)


@st.composite
def vertex_functions(draw, max_level: int = 3) -> VertexFunction:
    level = draw(st.integers(0, max_level))
    points = vertices_at_level(level)
    vals = draw(st.lists(values, min_size=len(points), max_size=len(points)))
    return VertexFunction.from_values(level, dict(zip(points, vals)))


def reference_descend(t, word):
    """Letter-by-letter descent in Fraction arithmetic with the H_i matrices."""
    for letter in word:
        H = H_MATRICES[int(letter)]
        t = tuple(H[j][0] * t[0] + H[j][1] * t[1] + H[j][2] * t[2] for j in range(3))
    return tuple(t)


@given(vertex_functions(), words(0, 4), st.data())
def test_triple_matches_fraction_reference(u, rest, data):
    prefix = data.draw(words(u.level, u.level))
    corners = tuple(u.values[point(q, len(prefix))] for q in cell_corners(prefix))
    want = reference_descend(corners, rest)
    den, ints = u.int_triple(prefix + rest)
    assert all(isinstance(x, int) for x in ints)
    assert tuple(Fraction(x, den) for x in ints) == want
    assert u.triple(prefix + rest) == want
    # every cell of one level shares the denominator, so sums over cells divide once
    other = data.draw(words(len(prefix + rest), len(prefix + rest)))
    assert u.int_triple(other)[0] == den


@given(vertex_functions(), st.integers(1, 2), st.data())
def test_evaluation_matches_extension(u, gap, data):
    ext = u.extend(u.level + gap)
    points = [p for p in ext.values if p not in u.values]
    for p in data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=5)):
        assert u(p) == ext.values[p]


@given(vertex_functions(), st.integers(0, 3))
def test_energy_levels_equal_energy(u, above):
    levels = u.energy_levels(u.level + above)
    assert len(levels) == above + 1
    assert all(e == u.energy() for e in levels)


def walk_energy(u, v, n):
    """(5/3)^n sum over E_n of du·dv, summed edge by edge over every level-n
    cell of the integer walk and divided once (test oracle only)."""
    (Du, tu), (Dv, tv) = u.int_triples(n), v.int_triples(n)
    total = sum((a - b) * (x - y) + (b - c) * (y - z) + (a - c) * (x - z) for (a, b, c), (x, y, z) in zip(tu, tv))
    return Fraction(5, 3) ** n * Fraction(total, Du * Dv)


@settings(max_examples=50)
@given(vertex_functions(), vertex_functions(), st.integers(0, 4))
def test_energies_equal_the_level_walk(u, v, above):
    """The Gram recursion gives each level's sum exactly as the cell walk does."""
    assume(u.level != v.level)
    assert u.energy_levels(u.level + above) == [walk_energy(u, u, n) for n in range(u.level, u.level + above + 1)]
    n = max(u.level, v.level) + above
    assert u.energy_with_at_level(v, n) == walk_energy(u, v, n)


@settings(max_examples=20)
@given(vertex_functions())
def test_energy_levels_far_past_any_walk(u):
    """Sixty levels past the data, where a level walk would visit 3^60 times
    the data's cells: every level energy is still energy()."""
    levels = u.energy_levels(u.level + 60)
    assert len(levels) == 61 and all(e == u.energy() for e in levels)


@given(vertex_functions(), st.integers(0, 5), st.sampled_from([1, -1]), st.data())
def test_exact_part_telescopes(u, level, sign, data):
    # edges both coarser and finer than the stored level of U
    e = OrientedEdge(data.draw(words(level, level)), data.draw(st.integers(0, 2)), sign)
    ext = u.extend(max(u.level, level)).values
    assert fm.integrate_edge(fm.d(u), e).value == ext[e.target] - ext[e.source]


@given(vertex_functions(), vertex_functions(), vertex_functions(), st.data())
def test_sum_left_factor_is_stable(u, w, g, data):
    e = OrientedEdge(data.draw(words(0, 3)), data.draw(st.integers(0, 2)), data.draw(st.sampled_from([1, -1])))
    form = fm.fdg(fm.Sum([fm.Atom(u), fm.Atom(w)]), g)
    first = fm.integrate_edge(form, e).value
    assert fm.integrate_edge(form, e).value == first
    assert fm.integrate_edge(form, e).value == first
    assert fm.integrate_edge(fm.fdg(u + w, g), e).value == first


@given(st.integers(0, 3))
def test_words_are_lexicographic(n):
    assert list(geo.words(n)) == ["".join(t) for t in itertools.product("012", repeat=n)]


def _rational_table(vf, n):
    den, rows = vf.int_triples(n)
    return [tuple(Fraction(x, den) for x in t) for t in rows]


@given(vertex_functions(), st.integers(0, 3))
def test_triples_match_triple(u, above):
    n = u.level + above
    assert _rational_table(u, n) == [u.triple(w) for w in geo.words(n)]


@given(vertex_functions(), st.integers(0, 2))
def test_extension_matches_triples(u, above):
    n = u.level + above
    ext = u.extend(n).values
    for w in geo.words(n):
        assert tuple(ext[point(q, n)] for q in cell_corners(w)) == u.triple(w)


@given(vertex_functions(), vertex_functions(), st.integers(0, 2))
def test_energy_pairing_symmetric_and_level_free(u, v, above):
    m = max(u.level, v.level)
    value = u.energy_with_at_level(v, m)
    assert v.energy_with_at_level(u, m) == value
    assert u.energy_with_at_level(v, m + above) == value


@given(vertex_functions(), st.data())
def test_oscillation_of_coarse_cell(u, data):
    word = data.draw(words(0, u.level))
    vals = [x for w in geo.words(u.level - len(word)) for x in u.triple(word + w)]
    assert u.oscillation(word) == max(vals) - min(vals)


def dz_literal(i):
    """The dz potential on the sub-cell sigma+i as literal Fractions: corner
    values 0, 1/6, -1/6 rotated so that corner i gets 0."""
    zeta = (Fraction(0), Fraction(1, 6), Fraction(-1, 6))
    return tuple(zeta[(j - i) % 3] for j in range(3))


@given(words(1, 8), st.integers(0, 2))
def test_prefix_dz_counts_match_fraction_descent(cell, side):
    # counts[k] is (cell[:k], den times the side difference of the dz
    # potential of cell[:k] on the sub-cell cell[:k+1], descended over the
    # rest of the cell in Fractions), zeros included
    den, counts = fm._prefix_dz(cell, side)
    assert den == fm._dz_den([OrientedEdge(cell, side)])
    want = []
    for k in range(len(cell)):
        t = reference_descend(dz_literal(int(cell[k])), cell[k + 1:])
        want.append((cell[:k], (t[(side + 1) % 3] - t[(side + 2) % 3]) * den))
    assert all(isinstance(c, int) for _, c in counts)
    assert counts == tuple(want)


@settings(max_examples=60)
@given(words(0, 4), st.integers(0, 2), st.sampled_from([1, -1]), st.sampled_from(["coarse", "fine", "any"]), st.data())
def test_dz_integral_edge_matches_the_literal_potential(sigma, side, sign, kind, data):
    """Every branch of the lacuna rule against the potential itself, on edges
    of levels 0-6 whose cell is a prefix of sigma (the coarse perimeter), a
    word below sigma, or any word: the edge cut to level max(L, |sigma| + 1),
    each sub-edge inside C_sigma adding the difference of the literal dz
    potential of its child of C_sigma, descended in Fractions; a sub-edge
    outside C_sigma adds nothing."""
    if kind == "coarse":
        cell = sigma[: data.draw(st.integers(0, len(sigma)))]
    elif kind == "fine":
        cell = sigma + data.draw(words(1, 6 - len(sigma)))
    else:
        cell = data.draw(words(0, 6))
    e = OrientedEdge(cell, side, sign)
    want = Fraction(0)
    for sub in geo.subdivide(e, max(len(cell), len(sigma) + 1)):
        if sub.cell.startswith(sigma):
            rest = sub.cell[len(sigma):]
            t = reference_descend(dz_literal(int(rest[0])), rest[1:])
            want += sub.sign * (t[(sub.side + 1) % 3] - t[(sub.side + 2) % 3])
    assert fm.dz_integral_edge(sigma, e) == want
    count, den = fm._dz_count(sigma, e)
    assert (count, den) == (want * den, fm._dz_den([e]))


@given(vertex_functions())
def test_int_triples_are_a_fresh_table_every_call(u):
    # the level-m triples are computed once per function and cached; a caller
    # that mutates a returned table must not reach that cache
    for n in (u.level, u.level + 1):
        den, first = u.int_triples(n)
        kept = list(first)
        first[0] = (10**9, 0, 0)
        first.append((1, 2, 3))
        assert u.int_triples(n) == (den, kept)


@given(vertex_functions(max_level=2), st.integers(0, 2))
def test_extension_and_json_round_trip_keep_the_walk(u, gap):
    # equal as rationals: the stored values of an extension may have a
    # smaller common denominator than D·5^gap
    n = u.level + gap
    ext = u.extend(n)
    copy = VertexFunction.from_json(u.to_json())
    for level in range(u.level, n + 3):
        table = _rational_table(u, level)
        assert _rational_table(copy, level) == table
        if level >= n:
            assert _rational_table(ext, level) == table


# ---------------------------------------------------------------------------
# the stored integer table against a Fraction oracle on ``values``
# ---------------------------------------------------------------------------

def reference_values(u: VertexFunction, n: int) -> dict:
    """u on V_n in Fractions: the corners of each level-n cell, its prefix's
    corner values read from ``u.values`` and descended by the H_i matrices."""
    vals = u.values
    out = {}
    for w in geo.words(n):
        corners = tuple(vals[point(q, u.level)] for q in cell_corners(w[: u.level]))
        out.update(zip((point(q, n) for q in cell_corners(w)), reference_descend(corners, w[u.level :])))
    return out


@given(vertex_functions(max_level=4), vertex_functions(max_level=4), values, st.integers(0, 2))
def test_algebra_matches_fraction_oracle(u, w, c, gap):
    n = max(u.level, w.level)
    ou, ow = reference_values(u, n), reference_values(w, n)
    assert (u + w).values == {p: ou[p] + ow[p] for p in ou}
    assert (u - w).values == {p: ou[p] - ow[p] for p in ou}
    assert (-u).values == {p: -v for p, v in u.values.items()}
    assert u.scale(c).values == {p: c * v for p, v in u.values.items()}
    assert u.extend(u.level + gap).values == reference_values(u, u.level + gap)


@given(vertex_functions(max_level=4), st.integers(1, 2))
def test_round_trips_and_equal_functions_compare_equal(u, gap):
    n = u.level + gap
    ext = u.extend(n)
    copies = [VertexFunction.from_values(u.level, u.values), VertexFunction.from_json(u.to_json()),
              u.scale(3).scale(Fraction(1, 3)), (u + u) - u, -(-u)]
    for v in copies:
        assert v == u and hash(v) == hash(u)
        assert v.values == u.values
    rebuilt = VertexFunction.from_values(n, reference_values(u, n))
    assert rebuilt == ext and hash(rebuilt) == hash(ext)
    assert math.gcd(ext.den, *(x for t in ext.seed for x in t)) == 1


@given(vertex_functions(max_level=3))
def test_values_is_a_read_only_view(u):
    energy, triple, before = u.energy(), u.triple("0" * u.level), u.values
    vals = u.values
    first = next(iter(vals))
    vals[first] += 7
    assert u.values == before and u(first) == before[first]
    assert u.energy() == energy and u.triple("0" * u.level) == triple
    for field, value in (("level", u.level + 1), ("den", 1), ("seed", ()), ("values", {})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(u, field, value)
