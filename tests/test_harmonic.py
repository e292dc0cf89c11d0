"""Harmonic extension, exact energies, oscillation, vertex weights."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gasketforms import geometry, harmonic, kernels
from gasketforms.errors import GasketError
from gasketforms.geometry import P0, P1, P2, Point, vertices_at_level
from gasketforms.harmonic import (
    VertexFunction,
    harmonic_basis,
    random_harmonic,
)

F = Fraction

# The harmonic extension matrices, written here from the (2a+2b+c)/5 rule and
# not read from the library, so the tests check its integer rule against a
# second writing: H_i maps a cell's corner values to those of its sub-cell i,
# row j being the value at w_i(p_j), the midpoint of corners i and j for j != i.
_1, _2 = F(1, 5), F(2, 5)
H_MATRICES = (
    ((F(1), F(0), F(0)), (_2, _2, _1), (_2, _1, _2)),
    ((_2, _2, _1), (F(0), F(1), F(0)), (_1, _2, _2)),
    ((_2, _1, _2), (_1, _2, _2), (F(0), F(0), F(1))),
)


def midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2, (a.y + b.y) / 2)


def test_extension_matrix_entries():
    """The library's integer rule is five times the reference matrices, and
    each row of 5·H_i sums to 5, so constants are kept."""
    assert kernels._H5 == tuple(tuple(tuple(5 * x for x in row) for row in H) for H in H_MATRICES)
    assert all(sum(row) == 5 for H5 in kernels._H5 for row in H5)


def test_extension_of_first_basis_function():
    f0 = VertexFunction.basis(0).extend(1)
    assert f0.values[midpoint(P0, P1)] == F(2, 5)
    assert f0.values[midpoint(P0, P2)] == F(2, 5)
    assert f0.values[midpoint(P1, P2)] == F(1, 5)


def test_constant_extension():
    c = VertexFunction.constant(F(7, 3)).extend(3)
    assert set(c.values.values()) == {F(7, 3)}


@pytest.mark.parametrize("a,b,c", [(1, 0, 0), (3, -2, 5), (F(1, 3), F(1, 7), F(2, 5))])
def test_midpoint_rule(a, b, c):
    # oracle: expand h = a f0 + b f1 + c f2 through the basis extensions
    h = VertexFunction.from_boundary(a, b, c)
    assert h(midpoint(P0, P1)) == (2 * F(a) + 2 * F(b) + F(c)) / 5
    assert h(midpoint(P1, P2)) == (2 * F(b) + 2 * F(c) + F(a)) / 5
    assert h(midpoint(P0, P2)) == (2 * F(a) + 2 * F(c) + F(b)) / 5


def test_energies_of_basis():
    f0, f1, _ = harmonic_basis()
    # level-0 sum: edges (p0,p1), (p1,p2), (p0,p2) with differences 1,0,1
    assert f0.energy() == 2
    # cross-check through the extension oracle at level 1
    assert f0.energy_at_level(1) == 2
    assert f0.energy_with_at_level(f1, 0) == -1
    # pairing against a constant vanishes
    rng = random.Random(7)
    for _ in range(5):
        u = random_harmonic(rng.randint(0, 2), rng)
        assert u.energy_with_at_level(VertexFunction.constant(4), u.level) == 0


def test_energy_invariance_exact():
    rng = random.Random(11)
    for _ in range(6):
        m = rng.randint(0, 2)
        u = random_harmonic(m, rng)
        levels = u.energy_levels(m + 4)
        assert all(e == levels[0] for e in levels)
    # a level below the stored one is refused
    u = random_harmonic(2, rng)
    for energies in (u.energy_levels, u.energy_at_level, lambda n: VertexFunction.basis(0).energy_with_at_level(u, n)):
        with pytest.raises(GasketError):
            energies(1)


def test_maximum_principle():
    rng = random.Random(13)
    for _ in range(6):
        u = random_harmonic(0, rng)
        lo, hi = min(u.values.values()), max(u.values.values())
        ext = u.extend(3)
        assert all(lo <= v <= hi for v in ext.values.values())


def test_oscillation_values():
    f0 = VertexFunction.basis(0)
    assert f0.oscillation("") == 1
    assert f0.oscillation("1") == F(2, 5)  # boundary values 2/5, 0, 1/5
    assert VertexFunction.constant(3).oscillation("02") == 0


def test_oscillation_decay():
    rng = random.Random(17)
    for _ in range(6):
        u = random_harmonic(0, rng)
        for w in ["", "0", "1", "2", "01", "22"]:
            parent = u.oscillation(w)
            for i in "012":
                assert u.oscillation(w + i) <= F(3, 5) * parent


def test_laplacian_weights():
    f0 = VertexFunction.basis(0)
    w = f0.laplacian_weights()
    assert w[P0] == 2 and w[P1] == -1 and w[P2] == -1
    const = VertexFunction.constant(5)
    assert all(v == 0 for v in const.laplacian_weights().values())
    # the one-cell restriction of a lacuna potential
    z = VertexFunction.from_boundary(F(1, 6), 0, F(-1, 6))
    wz = z.laplacian_weights()
    assert wz[P0] == F(1, 2) and wz[P1] == 0 and wz[P2] == F(-1, 2)


def test_laplacian_weights_sum_to_zero():
    rng = random.Random(19)
    for _ in range(6):
        u = random_harmonic(rng.randint(0, 2), rng)
        assert sum(u.laplacian_weights().values()) == 0


def test_pairing_equals_energy():
    rng = random.Random(23)
    for _ in range(5):
        u = random_harmonic(1, rng)
        v = random_harmonic(2, rng)
        assert u.pairing(v) == u.energy_with_at_level(v, 2)


def test_evaluation_at_deep_vertices():
    f0 = VertexFunction.basis(0)
    ext = f0.extend(4)
    for p in vertices_at_level(4):
        assert f0(p) == ext.values[p]


def test_json_roundtrip():
    rng = random.Random(29)
    u = random_harmonic(2, rng)
    v = VertexFunction.from_json(u.to_json())
    assert v.level == u.level and v.values == u.values


def test_json_refuses_a_wrong_vertex_count_before_enumerating(monkeypatch):
    """A negative level, or a value count other than |V_n| = (3^(n+1) + 3)/2,
    is refused before V_n is enumerated, at any level."""
    good = random_harmonic(1, random.Random(3)).to_json()

    def no_enumeration(n):
        raise AssertionError(f"V_{n} enumerated")

    monkeypatch.setattr(harmonic, "vertices_at_level", no_enumeration)
    for data in ({"level": 40, "values": []}, {"level": 10**9, "values": []}, {"level": -1, "values": []},
                 {"level": 2, "values": good["values"]}, {"level": 0, "values": good["values"]}):
        with pytest.raises(GasketError, match="vertex set"):
            VertexFunction.from_json(data)


def test_malformed_cell_tables_are_refused():
    """A negative level, a den <= 0 or a seed of other than 3^level triples is
    refused at construction, at any level, without exponentiating a huge one."""
    for level, den, seed in ((1, 1, [(0, 0, 1)]), (0, 0, [(0, 0, 1)]), (0, -2, [(0, 0, 1)]),
                             (-1, 1, [(0, 0, 1)]), (0, 1, []), (10**9, 1, [(0, 0, 1)])):
        with pytest.raises(GasketError, match="cell table"):
            VertexFunction(level, den, seed)
    assert VertexFunction(1, 2, [(0, 0, 1)] * 3).den == 2


def test_energy_at_level_walks_once(monkeypatch):
    """energy_at_level(n) walks once, and no level past the stored one; a
    pairing walks each function no further than the finer stored level."""
    rng = random.Random(31)
    u, v = random_harmonic(3, rng), random_harmonic(1, rng)
    energy, cross = u.energy(), u.energy_with_at_level(v, 3)
    walks = []
    levels = VertexFunction._levels

    def counted(self, n, *rest):
        walks.append(n)
        return levels(self, n, *rest)

    monkeypatch.setattr(VertexFunction, "_levels", counted)
    assert u.energy_at_level(6) == energy
    assert walks == [3]
    assert v.energy_with_at_level(u, 7) == cross
    assert walks == [3, 3, 3]


def test_triples_read_the_seed_without_cell_corners(monkeypatch):
    """``triple`` and ``int_triple`` index the stored seed by the word's
    prefix and descend on integers: no corner walk, no Point lookup."""
    u = random_harmonic(2, random.Random(7))
    want = {w: u.triple(w) for w in ("00", "12", "012", "22101")}

    def refuse(arg):
        raise AssertionError(f"corners of {arg!r} read by a seeded function")

    monkeypatch.setattr(harmonic, "level_corners", refuse)
    monkeypatch.setattr(harmonic, "vertex_table", refuse)
    monkeypatch.setattr(geometry, "cell_corners", refuse)
    for w, t in want.items():
        den, ints = u.int_triple(w)
        assert u.triple(w) == t == tuple(F(x, den) for x in ints)
