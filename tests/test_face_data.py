"""Face data of LatticePolytope against the routines it replaced, over
GL(3,Z) images of the bundled polytopes and their polar duals."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unimodular3
from fanoscope.fileio import bundled_polytopes
from fanoscope.linalg import mat_vec, saturate, solve_in_span
from fanoscope.polytope import (LatticePolytope, Polygon, PolytopeError,
                                _clean, _facet_cycle, _frac, cross, dot,
                                plane_coords, vsub)

NAMES = sorted(k for k in bundled_polytopes() if k != "polygons")

FACE = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)


def ref_embed_polygon(points3):
    pts = [_frac(p) for p in points3]
    base = pts[0]
    dirs = [vsub(p, base) for p in pts[1:]]
    denom = 1
    for d in dirs:
        for x in d:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    rows = [[int(x * denom) for x in d] for d in dirs if any(d)]
    basis = saturate(rows)
    if len(basis) != 2:
        raise PolytopeError("points do not span a plane")
    coords = []
    for p in pts:
        sol = solve_in_span(basis, list(vsub(p, base)))
        if sol is None:
            raise PolytopeError("point outside the plane")
        coords.append(tuple(sol))
    return Polygon(coords), [tuple(b) for b in basis], _clean(base)


def ref_facet_cycle(verts, ids, normal):
    poly, basis, base = ref_embed_polygon(verts)
    lookup = {}
    for vid, v in zip(ids, verts):
        sol = solve_in_span(basis, list(vsub(_frac(v), _frac(base))))
        lookup[tuple(sol)] = vid
    cycle = [lookup[_frac(v)] for v in poly.vertices]
    b0, b1 = basis
    if dot(cross(b0, b1), normal) < 0:
        cycle = [cycle[0]] + cycle[:0:-1]
    return tuple(cycle)


@st.composite
def polytopes(draw):
    """A GL(3,Z) image of a bundled polytope or of its polar dual."""
    p = LatticePolytope(bundled_polytopes()[draw(st.sampled_from(NAMES))]
                        ["vertices"])
    if draw(st.booleans()):
        p = p.polar_dual()
    m = random_unimodular3(random.Random(draw(st.integers(0, 2 ** 32))))
    return LatticePolytope([tuple(mat_vec(m, list(v))) for v in p.vertices])


def rotations(cycle):
    return {cycle[i:] + cycle[:i] for i in range(len(cycle))}


@FACE
@given(polytopes())
def test_facet_cycle_matches_embedding_route(p):
    for f in p.facets:
        ids = sorted(f.vertex_ids)
        old = ref_facet_cycle([p.vertices[i] for i in ids], ids, f.normal)
        assert f.cycle in rotations(old)
        assert f.cycle[0] == ids[0]


def test_facet_cycle_rejects_points_off_the_convex_cycle():
    square = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (1, 1, 0)]
    assert _facet_cycle(square, range(4), (0, 0, 1)) == (0, 1, 2, 3)
    with pytest.raises(PolytopeError, match="cycle"):
        _facet_cycle(square, range(5), (0, 0, 1))


SMALL = st.integers(-5, 5)
VECTORS = st.tuples(SMALL, SMALL, SMALL)
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(VECTORS, VECTORS, RATIONALS, RATIONALS, st.integers(-3, 3))
def test_plane_coords_matches_solve_in_span(b0, b1, x, y, off):
    c = cross(b0, b1)
    if not any(c):
        return
    v = tuple(x * p + y * q + off * n for p, q, n in zip(b0, b1, c))
    got = plane_coords((b0, b1), v)
    ref = solve_in_span([list(b0), list(b1)], list(v))
    if off:
        assert got is None and ref is None
    else:
        assert got == (x, y) == tuple(ref)


@FACE
@given(polytopes())
def test_dual_face_vertices_match_facet_scan(p):
    faces = ([[vid] for vid in range(len(p.vertices))]
             + [sorted(e.vertex_ids) for e in p.edges]
             + [sorted(f.vertex_ids) for f in p.facets])
    for face in faces:
        scan = [p.dual_vertex(f) for f in p.facets
                if all(vid in f.vertex_ids for vid in face)]
        assert p.dual_face_vertices(face) == scan


@FACE
@given(polytopes())
def test_polar_dual_is_built_once_and_is_an_involution(p):
    d = p.polar_dual()
    assert d is p.polar_dual()
    assert d.polar_dual().vertices == p.vertices
