import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (dilate_polygon, edge_vector_multiset, face_length,
                      lattice_polygons, mat_vec, normalized,
                      random_unimodular2, ref_minkowski_sum, segment,
                      triangle)
from fanoscope.minkowski import enumerate_smooth_decompositions
from fanoscope.polytope import Polygon, PolytopeError

HEXAGON = Polygon([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = Polygon([(0, 0), (1, 0), (0, 1)])


def decompose(poly):
    """The smooth decompositions of a polygon, read off its edge word."""
    return enumerate_smooth_decompositions(edge_vector_multiset(poly))


def test_edge_vector_multisets():
    assert edge_vector_multiset(SQUARE) == sorted(
        [(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert edge_vector_multiset(HEXAGON) == sorted(
        [(0, 1), (-1, 0), (-1, -1), (0, -1), (1, 0), (1, 1)])
    two = dilate_polygon(TRIANGLE, 2)
    assert edge_vector_multiset(two) == sorted(
        [(1, 0), (1, 0), (-1, 1), (-1, 1), (0, -1), (0, -1)])


def test_hexagon_has_exactly_two():
    decos = decompose(HEXAGON)
    assert len(decos) == 2
    by_triangles = {sum(1 for s in d if s.kind == "triangle"): d for d in decos}
    assert set(by_triangles) == {0, 2}
    segs = by_triangles[0]
    assert sorted(s.vectors[0] for s in segs) == [(0, 1), (1, 0), (1, 1)]
    tris = by_triangles[2]
    assert all(s.kind == "triangle" for s in tris)


def test_square_and_triangle_unique():
    assert len(decompose(SQUARE)) == 1
    decos = decompose(TRIANGLE)
    assert len(decos) == 1 and decos[0][0].kind == "triangle"


def test_side_two_square_is_four_segments():
    decos = decompose(dilate_polygon(SQUARE, 2))
    assert len(decos) == 1
    assert [s.kind for s in decos[0]] == ["segment"] * 4


def test_minkowski_sum_examples():
    assert ref_minkowski_sum([segment((1, 0)), segment((0, 1))]) == SQUARE
    t = triangle((1, 0), (-1, 1), (0, -1))
    assert ref_minkowski_sum([t] * 6) == dilate_polygon(TRIANGLE, 6)
    for deco in decompose(HEXAGON):
        assert ref_minkowski_sum(deco) == normalized(HEXAGON)


def test_no_decomposition():
    poly = Polygon([(0, 0), (2, 1), (1, 2)])  # area-3 empty triangle
    assert decompose(poly) == []


def test_count_invariant_under_gl2():
    rng = random.Random(17)
    for poly in (HEXAGON, dilate_polygon(SQUARE, 2),
                 dilate_polygon(TRIANGLE, 3)):
        base = len(decompose(poly))
        for _ in range(6):
            m = random_unimodular2(rng)
            im = Polygon([tuple(mat_vec(m, list(v))) for v in poly.vertices])
            assert len(decompose(im)) == base


def test_summand_face_lengths():
    t = triangle((1, 0), (-1, 1), (0, -1)).polygon_vertices()
    assert face_length(t, (0, 1)) == 1
    assert face_length(t, (1, 2)) == 0  # generic functional hits a vertex
    s = segment((1, 0)).polygon_vertices()
    assert face_length(s, (0, 1)) == 1
    assert face_length(s, (0, -1)) == 1
    assert face_length(s, (1, 0)) == 0


def ref_enumerate(polygon: Polygon):
    """The enumerator as it was, copying the Counter at every step.  Its
    refusal of a non-integral polygon is `Polygon`'s own now."""
    word = Counter(edge_vector_multiset(polygon))
    found = set()

    def rec(counter, acc):
        if not counter:
            found.add(tuple(sorted(acc)))
            return
        v = min(counter)
        rest = counter.copy()
        rest[v] -= 1
        if not rest[v]:
            del rest[v]
        neg = tuple(-x for x in v)
        # segment {v, -v}
        if rest.get(neg):
            nxt = rest.copy()
            nxt[neg] -= 1
            if not nxt[neg]:
                del nxt[neg]
            rec(nxt, acc + [segment(v)])
        # triangles {v, w, -v-w}
        tried = set()
        for w in list(rest):
            third = (-v[0] - w[0], -v[1] - w[1])
            key = frozenset((w, third))
            if key in tried:
                continue
            tried.add(key)
            if abs(v[0] * w[1] - v[1] * w[0]) != 1:
                continue
            nxt = rest.copy()
            if w == third:
                if nxt[w] < 2:
                    continue
                nxt[w] -= 2
            else:
                if not nxt.get(third):
                    continue
                nxt[w] -= 1
                nxt[third] -= 1
            for k in (w, third):
                if k in nxt and not nxt[k]:
                    del nxt[k]
            rec(nxt, acc + [triangle(v, w, third)])

    rec(word, [])
    out = []
    target = normalized(polygon)
    for deco in sorted(found, key=lambda d: (sum(1 for s in d if s.kind == "triangle"), d)):
        if ref_minkowski_sum(deco) != target:
            raise PolytopeError("enumerated decomposition fails to re-sum")
        out.append(deco)
    return out


def outcome(f, *args):
    """The result, or the type and message of the error raised."""
    try:
        return f(*args)
    except PolytopeError as err:
        return f"{type(err).__name__}: {err}"


SHAPES = ([(0, 0), (1, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 1)],
          [(0, 0), (1, -1)], [(0, 0), (1, 0), (0, 1)],
          [(0, 0), (-1, 0), (0, -1)], [(0, 0), (1, 0), (1, 1)],
          [(0, 0), (-1, 0), (-1, -1)])


def shape_sum(shapes):
    pts = {(0, 0)}
    for shape in shapes:
        pts = {(p[0] + q[0], p[1] + q[1]) for p in pts for q in shape}
    return pts


@st.composite
def smooth_sums(draw):
    """Minkowski sums of 1-4 unit segments and unimodular triangles with
    edges in few directions, moved by one GL(2,Z) map: polygons with
    several smooth decompositions."""
    pts = shape_sum(draw(st.lists(st.sampled_from(SHAPES), min_size=1,
                                  max_size=4)))
    m = random_unimodular2(random.Random(draw(st.integers(0, 2 ** 32))))
    try:
        return Polygon([tuple(mat_vec(m, list(p))) for p in pts])
    except PolytopeError:  # parallel segments only
        assume(False)


DILATED = st.builds(dilate_polygon, lattice_polygons(),
                    st.sampled_from([1, 2, 3]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(DILATED, smooth_sums()))
def test_enumerator_matches_the_counter_copy_route(poly):
    assert outcome(decompose, poly) == outcome(ref_enumerate, poly)


def test_enumerator_matches_on_every_sum_of_four_shapes():
    # many decompositions, reached along many orders of the boundary word
    polys = [dilate_polygon(HEXAGON, k) for k in (1, 2, 3)]
    for shapes in combinations_with_replacement(SHAPES, 4):
        try:
            polys.append(Polygon(shape_sum(shapes)))
        except PolytopeError:  # parallel segments only
            continue
    several = 0
    for poly in polys:
        got = decompose(poly)
        assert got == ref_enumerate(poly)
        several += len(got) > 1
    assert several >= 80


def test_enumerator_rejects_a_non_integral_polygon():
    # the polygon is refused as it is built; its word has no lattice
    # lengths, and its edge vectors are refused as a non-integral word
    verts = [(0, 0), (Fraction(1, 2), 0), (0, 1)]
    assert outcome(Polygon, verts) == \
        "PolytopeError: polygon coordinates must be ints"
    edges = [tuple(b - a for a, b in zip(u, v))
             for u, v in zip(verts, verts[1:] + verts[:1])]
    assert outcome(enumerate_smooth_decompositions, edges) == \
        "PolytopeError: decompositions of a non-integral word"
