import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (bundled, dilate_polygon, dilate_polytope,
                      lattice_polygons, mat_vec, point_counts,
                      random_unimodular2)
from fanoscope.polytope import (LatticePolytope, Polygon, PolytopeError,
                                _edge_lengths, embed_polygon,
                                gorenstein_index, identity24, pick_area)


def test_hull_p3_simplex():
    p = LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    assert len(p.vertices) == 4
    assert len(p.edges) == 6
    assert len(p.facets) == 4


def test_hull_discards_interior():
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    p = LatticePolytope(pts + [(0, 0, 0)])
    assert len(p.vertices) == 8


def test_hull_octahedron():
    p = bundled("octahedron")
    assert len(p.vertices) == 6
    assert len(p.edges) == 12
    assert len(p.facets) == 8


def test_hull_degenerate():
    with pytest.raises(PolytopeError, match="not full-dimensional"):
        LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_polar_dual_p3():
    p = bundled("p3")
    d = p.polar_dual()
    assert sorted(d.vertices) == [(-1, -1, -1), (-1, -1, 3), (-1, 3, -1),
                                  (3, -1, -1)]


def test_polar_dual_octahedron_cube():
    octa = bundled("octahedron")
    cube = octa.polar_dual()
    assert sorted(cube.vertices) == sorted(
        (x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1))


def test_polar_dual_b1_rational():
    b1 = LatticePolytope([(0, 0, 1), (-1, -1, -1), (-1, 5, -1), (5, -1, -1)])
    d = b1.polar_dual()
    assert (Fraction(-1, 2), Fraction(-1, 2), -1) in d.vertices


def test_polar_requires_interior_origin():
    shifted = LatticePolytope([(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)])
    with pytest.raises(PolytopeError, match="origin"):
        shifted.polar_dual()


def test_reflexive_flags():
    assert bundled("p3").is_reflexive()
    v2 = bundled("v2")
    assert v2.is_fano() and not v2.is_reflexive()


def test_involution_on_reflexives():
    for name in ("p3", "cube", "octahedron", "b3_cubic", "q3_quadric"):
        p = bundled(name)
        assert sorted(p.polar_dual().polar_dual().vertices) == \
            sorted(p.vertices)


def test_dual_edge_of_p3_has_length_four():
    p = bundled("p3")
    e1 = p.vertices.index((0, 1, 0))
    e2 = p.vertices.index((0, 0, 1))
    k = next(k for k, e in enumerate(p.edges)
             if e.vertex_ids == frozenset((e1, e2)))
    assert list(_edge_lengths(p))[k] == (1, 4)


def test_lattice_point_counts():
    d = bundled("p3").polar_dual()
    assert point_counts(d) == (35, 1, 34)
    d3 = bundled("b3_cubic").polar_dual()
    assert point_counts(d3)[0] == 15
    v2dual3 = dilate_polytope(bundled("v2").polar_dual(), 3)
    assert point_counts(v2dual3)[2] == 11
    assert v2dual3.boundary_area() == 18


def test_reflexive_dual_has_single_interior_point():
    for name in ("p3", "cube", "octahedron", "q3_quadric"):
        d = bundled(name).polar_dual()
        assert point_counts(d)[1] == 1


def test_gorenstein_examples():
    assert gorenstein_index([(2, -1), (-1, 2)]) == 1
    assert gorenstein_index([(1, 1), (-1, 1)]) == 1
    assert gorenstein_index([(0, 2), (1, 2)]) == 2
    assert gorenstein_index([(1, 0, 3), (-1, 0, 3)]) == 3
    assert gorenstein_index([(0, 0, 1)]) == 1
    assert gorenstein_index([(5, -1, -1), (-1, 5, -1), (-1, -1, 5)]) == 3
    with pytest.raises(PolytopeError, match="strictly convex"):
        gorenstein_index([(1, 0), (-1, 0)])


def test_reflexive_facets_have_index_one():
    p = bundled("p3")
    for f in p.facets:
        assert gorenstein_index([p.vertices[i] for i in f.cycle]) == 1


def test_pick_examples():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    assert pick_area(tri) == 1
    big = dilate_polygon(tri, 3)
    assert pick_area(big) == 9
    assert big.point_counts() == (10, 1, 9)
    slab = Polygon([(0, 0), (6, 0), (0, 2)])
    assert pick_area(slab) == 12
    assert slab.point_counts()[1] == 2


def test_pick_matches_shoelace_random():
    rng = random.Random(3)
    done = 0
    while done < 1000:
        pts = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(6)]
        try:
            poly = Polygon(pts)
        except PolytopeError:
            continue
        assert pick_area(poly) == poly.two_area()
        done += 1


def test_pick_embedded_in_3d():
    poly, _, _ = embed_polygon([(0, 0, 0), (2, 0, 2), (0, 3, 0), (2, 3, 2)])
    assert pick_area(poly) == 12  # 2 x 3 rectangle in its own lattice


def test_embed_polygon_refuses_points_off_one_plane():
    with pytest.raises(PolytopeError, match="vectors do not span a plane"):
        embed_polygon([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_identity24():
    assert identity24(bundled("p3")) == 24
    assert identity24(bundled("cube")) == 24
    assert identity24(bundled("octahedron")) == 24
    with pytest.raises(PolytopeError, match="reflexive"):
        identity24(bundled("v2"))


def test_polygon_invariance_under_gl2():
    rng = random.Random(9)
    hexagon = Polygon([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    for _ in range(10):
        m = random_unimodular2(rng)
        im = Polygon([tuple(mat_vec(m, list(v))) for v in hexagon.vertices])
        assert im.point_counts() == hexagon.point_counts()
        assert abs(im.two_area()) == hexagon.two_area()


def ref_lattice_points(poly):
    """The bounding-box scan that `Polygon.lattice_points` replaced."""
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    normals = poly.edge_normals()
    pts = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if all(n[0] * x + n[1] * y >= c for n, c in normals):
                pts.append((x, y))
    return pts


def ref_point_counts(poly):
    normals = poly.edge_normals()
    total = interior = 0
    for p in ref_lattice_points(poly):
        total += 1
        if all(n[0] * p[0] + n[1] * p[1] > c for n, c in normals):
            interior += 1
    return total, interior, total - interior


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lattice_polygons())
def test_scanline_points_match_bounding_box_scan(poly):
    assert poly.lattice_points() == ref_lattice_points(poly)
    assert poly.point_counts() == ref_point_counts(poly)


def test_lattice_point_memo_is_not_shared_with_callers():
    poly = Polygon([(0, 0), (3, 0), (0, 2)])
    pts = poly.lattice_points()
    want = list(pts)
    pts.append((9, 9))
    pts[0] = (7, 7)
    assert poly.lattice_points() == want
    assert poly.point_counts() == (len(want), 1, len(want) - 1)
    assert isinstance(poly.edge_normals(), tuple)
