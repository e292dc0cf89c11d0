"""Addressing, exact planar geometry, edges, and paths.

The integer lattice of ``geometry`` is checked against a plane oracle kept
here: the similitudes w_i on ``Point``s of two exact rationals."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gasketforms.errors import GasketError, NonConsecutiveError
from gasketforms.geometry import (
    CORNERS,
    OrientedEdge,
    P0,
    P1,
    P2,
    Point,
    cell_corners,
    edges_at_level,
    lacuna_path,
    locate_vertex,
    perimeter_path,
    point,
    subdivide,
    validate_path,
    vertex_id,
    parse_vertex_id,
    vertices_at_level,
    path_from_json,
    path_to_json,
    words,
)

H = Fraction(1, 2)


# -- the plane oracle --------------------------------------------------------

def midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) * H, (a.y + b.y) * H)


def apply_word(word: str, p: Point) -> Point:
    """w_sigma = w_{sigma_1} o ... o w_{sigma_m} (innermost map is the last letter)."""
    for c in reversed(word):
        p = midpoint(CORNERS[int(c)], p)
    return p


def signed_area2(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of (a,b,c) in units of sqrt(3); > 0 iff ccw."""
    return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)


def barycentric(p: Point) -> tuple[Fraction, Fraction, Fraction]:
    """Coordinates of p with respect to (p_0, p_1, p_2)."""
    l1 = 2 * p.y
    l2 = p.x - p.y
    return (1 - l1 - l2, l1, l2)


def corner_points(word: str) -> tuple[Point, ...]:
    return tuple(point(q, len(word)) for q in cell_corners(word))


# -- tests -------------------------------------------------------------------


def test_top_cell_vertices():
    assert corner_points("") == (Point(Fraction(0), Fraction(0)),
                                 Point(H, H),
                                 Point(Fraction(1), Fraction(0)))
    assert [e.source for e in perimeter_path("")] == [P0, P2, P1]


def test_top_lacuna_vertices_are_midpoints():
    # oracle: apply x -> p_i + (x - p_i)/2 to the corner set directly
    mids = {midpoint(P0, P1), midpoint(P0, P2), midpoint(P1, P2)}
    lac = lacuna_path("")
    assert {e.source for e in lac.edges} == mids
    assert lac.closed


def test_fixed_point_of_first_map():
    for m in range(1, 6):
        assert apply_word("0" * m, P0) == P0
        assert cell_corners("0" * m)[0] == (0, 0)


def test_refine_bottom_edge():
    e = OrientedEdge("", 1)  # p0 -> p2
    (a, b), mid = e.children(), e.midpoint
    assert mid == Point(H, Fraction(0))
    assert a.source == P0 and a.target == mid
    assert b.source == mid and b.target == P2


def test_refine_left_edge_midpoint():
    # the edge p0 -> p1 is side 2 reversed
    e = OrientedEdge("", 2, -1)
    assert e.source == P0 and e.target == P1
    assert e.midpoint == Point(Fraction(1, 4), Fraction(1, 4))


def test_refine_reversal_antisymmetry():
    e = OrientedEdge("", 1)
    a, b = e.children()
    ra, rb = e.reversed().children()
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
        parent = set(corner_points(w))
        for i in range(3):
            child = corner_points(w + str(i))
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
                assert len(word) >= level and corner_points(word)[j] == p
    # the junction of cells 0 and 1 resolves to the smaller letter
    assert locate_vertex(midpoint(P0, P1), 1) == ("0", 1)
    for q in (Point(Fraction(1, 3), Fraction(0)), Point(Fraction(2), Fraction(0))):
        with pytest.raises(GasketError):
            locate_vertex(q, 0)


def test_lattice_corners_equal_the_plane_oracle_to_level_6():
    for n in range(7):
        for w in words(n):
            assert corner_points(w) == tuple(apply_word(w, c) for c in CORNERS)


@given(st.text(alphabet="012", max_size=12))
def test_lattice_corners_equal_the_plane_oracle(w):
    assert corner_points(w) == tuple(apply_word(w, c) for c in CORNERS)


@given(st.text(alphabet="012", max_size=12), st.integers(0, 2), st.integers(0, 12))
def test_point_round_trips_through_locate_vertex(w, j, level):
    """A corner's Point, handed out at its own lattice level, is located
    again at every level: the cell found has the same Point as a corner."""
    p = point(cell_corners(w)[j], len(w))
    word, i = locate_vertex(p, level)
    assert len(word) >= level and point(cell_corners(word)[i], len(word)) == p


@given(st.integers(0, 8), st.sampled_from([
    Point(Fraction(1, 3), Fraction(0)),  # off every dyadic lattice
    Point(Fraction(0), Fraction(7, 5)),
    Point(Fraction(1, 2), Fraction(1, 8)),  # dyadic, inside the removed middle triangle
    Point(Fraction(-1, 2**12), Fraction(0)),  # dyadic, outside the gasket
]))
def test_an_off_lattice_point_is_refused(level, p):
    with pytest.raises(GasketError):
        locate_vertex(p, level)


def _adjacency(level: int) -> dict:
    out: dict = {}
    for e in edges_at_level(level):
        out.setdefault(e.source, []).append(e)
        out.setdefault(e.target, []).append(e.reversed())
    return out


ADJACENCY = [_adjacency(n) for n in range(4)]


@given(st.integers(0, 2**32))
def test_consecutiveness_agrees_with_point_equality(seed):
    """A random walk on a random-level graph, with some edges refined (so
    its levels mix) and, half the time, one edge replaced by a random edge:
    ``validate_path`` accepts exactly the walks whose Points chain, and
    closes exactly the loops."""
    rng = random.Random(seed)
    adj = ADJACENCY[rng.randrange(4)]
    p = rng.choice(sorted(adj, key=vertex_id))
    edges = []
    for _ in range(rng.randint(1, 6)):
        edges.append(rng.choice(adj[p]))
        p = edges[-1].target
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(edges))
        edges[k : k + 1] = edges[k].children()
    if rng.random() < 0.5:
        word = "".join(rng.choice("012") for _ in range(rng.randint(0, 4)))
        edges[rng.randrange(len(edges))] = OrientedEdge(word, rng.randrange(3), rng.choice((1, -1)))
    if all(b.source == a.target for a, b in zip(edges, edges[1:])):
        assert validate_path(edges).closed == (edges[-1].target == edges[0].source)
    else:
        with pytest.raises(NonConsecutiveError):
            validate_path(edges)


@pytest.mark.parametrize("n", range(6))
def test_vertices_are_sorted_by_coordinates(n):
    pts = vertices_at_level(n)
    assert pts == sorted(pts, key=lambda p: (p.x, p.y))
    assert len(pts) == (3 ** (n + 1) + 3) // 2
    assert set(pts) == {p for w in words(n) for p in corner_points(w)}


@given(st.integers(0, 6), st.integers(0, 2**7), st.integers(0, 2**7))
def test_equal_points_hash_equal(n, X, Y):
    """A Point from ``point``, from ``parse_vertex_id`` and from int
    coordinates (where they are integers) compare and hash equal."""
    p = point((X, Y), n)
    same = [parse_vertex_id(vertex_id(p)), Point(Fraction(p.x), Fraction(p.y))]
    if p.x.denominator == p.y.denominator == 1:
        same.append(Point(int(p.x), int(p.y)))
    for q in same:
        assert q == p and hash(q) == hash(p)
    assert len({p, *same}) == 1
    assert point((X + 1, Y), n) != p


def test_int_and_fraction_corners_are_one_key():
    assert {Point(0, 0): "p0"}[P0] == "p0" and {P2: "p2"}[Point(1, 0)] == "p2"
