"""Addressing, exact planar geometry, edges, and paths."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gasketforms.errors import GasketError, NonConsecutiveError
from gasketforms.geometry import (
    CORNERS,
    OrientedEdge,
    P0,
    P1,
    P2,
    Point,
    apply_word,
    barycentric,
    cell_corners,
    cell_geometry,
    edges_at_level,
    lacuna_path,
    locate_vertex,
    midpoint,
    perimeter_path,
    refine_edge,
    signed_area2,
    subdivide,
    validate_path,
    vertex_id,
    parse_vertex_id,
    vertices_at_level,
    path_from_json,
    path_to_json,
)

H = Fraction(1, 2)


def test_top_cell_vertices():
    cg = cell_geometry("")
    assert cg.vertices == (Point(Fraction(0), Fraction(0)),
                           Point(H, H),
                           Point(Fraction(1), Fraction(0)))


def test_top_lacuna_vertices_are_midpoints():
    # oracle: apply x -> p_i + (x - p_i)/2 to the corner set directly
    mids = {midpoint(P0, P1), midpoint(P0, P2), midpoint(P1, P2)}
    lac = cell_geometry("").lacuna
    assert {e.source for e in lac.edges} == mids
    assert lac.closed


def test_fixed_point_of_first_map():
    for m in range(1, 6):
        assert apply_word("0" * m, P0) == P0
        assert cell_corners("0" * m)[0] == P0


def test_refine_bottom_edge():
    e = OrientedEdge("", 1)  # p0 -> p2
    a, b, mid = refine_edge(e)
    assert mid == Point(H, Fraction(0))
    assert a.source == P0 and a.target == mid
    assert b.source == mid and b.target == P2


def test_refine_left_edge_midpoint():
    # the edge p0 -> p1 is side 2 reversed
    e = OrientedEdge("", 2, -1)
    assert e.source == P0 and e.target == P1
    _, _, mid = refine_edge(e)
    assert mid == Point(Fraction(1, 4), Fraction(1, 4))


def test_refine_reversal_antisymmetry():
    e = OrientedEdge("", 1)
    a, b, _ = refine_edge(e)
    ra, rb, _ = refine_edge(e.reversed())
    assert ra == b.reversed() and rb == a.reversed()


def test_perimeter_and_lacuna_paths_close():
    for w in ["", "0", "21", "102"]:
        assert perimeter_path(w).closed
        assert lacuna_path(w).closed


def test_nonconsecutive_error_index():
    e1 = OrientedEdge("", 1)        # p0 -> p2
    e2 = OrientedEdge("", 2, -1)    # p0 -> p1
    with pytest.raises(NonConsecutiveError) as err:
        validate_path([e1, e2])
    assert err.value.index == 1


def test_subdivision_counts_and_consecutiveness():
    e = OrientedEdge("2", 0)
    for n in range(1, 5):
        subs = subdivide(e, e.level + n)
        assert len(subs) == 2**n
        path = validate_path(subs)
        assert path.source == e.source and path.target == e.target


def test_child_cells_inside_parent_and_shared_vertex():
    for w in ["", "1", "02"]:
        parent = set(cell_corners(w))
        for i in range(3):
            child = cell_corners(w + str(i))
            for p in child:
                lam = barycentric(p)
                # stays inside the parent's hull
                assert all(0 <= c <= 1 for c in lam)
            assert set(child) & parent == {apply_word(w, CORNERS[i])}


def test_orientations_by_signed_area():
    for w in ["", "2", "01"]:
        tri = [e.source for e in perimeter_path(w).edges]
        assert signed_area2(*tri) > 0  # counter-clockwise
        tri = [e.source for e in lacuna_path(w).edges]
        assert signed_area2(*tri) < 0  # clockwise


def test_vertex_denominators():
    for m in range(4):
        for p in vertices_at_level(m):
            assert (p.x * 2 ** (m + 1)).denominator == 1
            assert (p.y * 2 ** (m + 1)).denominator == 1


def test_edge_count_per_level():
    assert sum(1 for _ in edges_at_level(3)) == 3**4


def test_serialization_roundtrips():
    e = OrientedEdge("021", 2, -1)
    assert OrientedEdge.parse(str(e)) == e
    p = lacuna_path("10")
    assert path_from_json(path_to_json(p)) == p
    for q in vertices_at_level(2):
        assert parse_vertex_id(vertex_id(q)) == q


def test_locate_vertex():
    for n in range(4):
        for p in vertices_at_level(n):
            for level in range(4):
                word, j = locate_vertex(p, level)
                assert len(word) >= level and cell_corners(word)[j] == p
    # the junction of cells 0 and 1 resolves to the smaller letter
    assert locate_vertex(midpoint(P0, P1), 1) == ("0", 1)
    for q in (Point(Fraction(1, 3), Fraction(0)), Point(Fraction(2), Fraction(0))):
        with pytest.raises(GasketError):
            locate_vertex(q, 0)
