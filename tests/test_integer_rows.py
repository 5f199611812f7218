"""The analyze path's P* and slab-polygon kernels on integer rows, each
against its body as it was (the `ref_*` copies and `face_length` in
conftest), on GL(3,Z) images of every bundled polytope and on their polar
duals, among them the rational P* of v2 and b1, and on those images shrunk, or
on drawn polygons.
An outcome is a result or the class and message of what was raised.
`match_summand_slabs` is checked against the `face_length` of each
functional on the summand's vertex list.

`LatticePolytope.vertex_rows` must be the `clear_denominators` pair of
the vertices, which a polar dual reads off the facets of its P
(`polytope._facet_rows`) with no `Fraction` built; P shrunk by 2 or 3 has
rational facet levels, and so gives every kernel rational input.
"""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (W_SIMPLEX, bundled, edge_vector_multiset,
                      lattice_polygons, mat_vec, plane_normal,
                      random_unimodular3, ref_annihilators,
                      ref_boundary_area, ref_cell_class_data,
                      ref_dual_from_faces, ref_edge_normals,
                      ref_lattice_points, ref_match_summand_slabs,
                      ref_sections_one_pass, sections_refusal)
from test_face_data import ref_cell_class_data as smith_cell_class_data
from test_line_fan_routes import spied
from test_sweep_memos import SWEEP_BASES
from fanoscope.degeneration import (DegenerationError, match_summand_slabs,
                                    polygon_of_sections, quotient_functional,
                                    ray_lattice)
from fanoscope.fileio import bundled_polytopes
from fanoscope.invariants import _cell_divisibilities
from fanoscope.linalg import clear_denominators
from fanoscope.minkowski import enumerate_smooth_decompositions
from fanoscope.polytope import LatticePolytope, PolytopeError

NAMES = sorted(k for k in bundled_polytopes() if k != "polygons")
ROWS = settings(max_examples=120, deadline=None, derandomize=True,
                database=None)
SLABS = settings(max_examples=400, deadline=None, derandomize=True,
                 database=None)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerationError, PolytopeError) as exc:
        return type(exc), str(exc)


def image(name, seed):
    """The bundled polytope (seed 0) or its image under a seeded GL(3,Z)
    map, built anew."""
    verts = bundled(name).vertices
    if seed:
        m = random_unimodular3(random.Random(seed))
        verts = [tuple(mat_vec(m, list(v))) for v in verts]
    return LatticePolytope(verts)


@st.composite
def polytopes(draw):
    """A GL(3,Z) image of a bundled polytope, or that image shrunk by 2 or
    3, whose facet levels are then rational, or the polar dual of either."""
    p = image(draw(st.sampled_from(NAMES)), draw(st.integers(0, 10 ** 6)))
    k = draw(st.sampled_from((1, 1, 2, 3)))
    if k > 1:
        p = LatticePolytope([tuple(Fraction(x, k) for x in v)
                             for v in p.vertices])
    return p.polar_dual() if draw(st.booleans()) else p


def test_the_draws_reach_rational_duals():
    assert not image("v2", 5).polar_dual().is_integral
    assert not image("b1", 5).polar_dual().is_integral
    assert image("v2", 5).polar_dual().vertex_rows[1] == 3
    assert image("b1", 5).polar_dual().vertex_rows[1] == 2


# ---------------------------------------------------------------------------
# P*'s rows and the kernels that read them


@ROWS
@given(polytopes())
def test_vertex_rows_are_the_cleared_vertices(p):
    rows, d = clear_denominators(p.vertices)
    assert p.vertex_rows == (tuple(map(tuple, rows)), d)
    assert all(type(x) is int for row in p.vertex_rows[0] for x in row)


def faces(p):
    return (p.vertices,
            [(f.normal, f.level, f.vertex_ids, f.cycle, f.dual)
             for f in p.facets],
            [(e.vertex_ids, e.facet_ids) for e in p.edges])


@ROWS
@given(st.sampled_from(NAMES), st.integers(0, 10 ** 6))
def test_dual_from_faces_matches_the_fraction_route(name, seed):
    p = image(name, seed)
    assert faces(p._dual_from_faces()) == faces(ref_dual_from_faces(p))


@ROWS
@given(polytopes())
def test_boundary_area_matches_the_fraction_route(p):
    got, want = p.boundary_area(), ref_boundary_area(p)
    assert (got, type(got)) == (want, type(want))


@ROWS
@given(polytopes())
def test_lattice_points_by_columns_match_the_box_scan(p):
    assert outcome(p.lattice_points) == outcome(ref_lattice_points, p)


@ROWS
@given(polytopes())
def test_edge_annihilators_match_the_fraction_route(p):
    _, want = ref_annihilators(SimpleNamespace(dual=p))
    assert p.edge_annihilators() == tuple(want)
    assert p.edge_annihilators() is p.edge_annihilators()


@ROWS
@given(polytopes())
def test_cell_class_data_matches_the_fraction_route(p):
    assert list(_cell_divisibilities(p)) == \
        [ref_cell_class_data(p, f) for f in p.facets]


# a candidate for B1 with Fano index 2 (ROADMAP item 21)
B1_CANDIDATE = ((-1, -2, 2), (-1, 1, -1), (2, -2, -1), (2, 1, 2))


def fano_bases():
    """The bundled Fano polytopes, W, the B1 candidate and the `sweep`
    bases."""
    sweep = json.loads(SWEEP_BASES.read_text())["sweep_bases"]
    return ([bundled(name).vertices for name in NAMES]
            + [W_SIMPLEX, B1_CANDIDATE]
            + [doc["vertices"] for doc in sweep.values()])


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_edge_facts_match_the_references_on_fano_polytopes(seed):
    # P*'s annihilators against the rows route, and each cell's
    # divisibility against the Fraction and the Smith routes
    for verts in fano_bases():
        if seed:
            m = random_unimodular3(random.Random(seed))
            verts = [tuple(mat_vec(m, list(v))) for v in verts]
        p = LatticePolytope(verts)
        assert p.is_fano()
        dual = p.polar_dual()
        rows = dual.vertex_rows[0]
        assert dual.edge_annihilators() == tuple(
            plane_normal(*(rows[i] for i in sorted(e.vertex_ids)))
            for e in dual.edges)
        cells = list(_cell_divisibilities(dual))
        assert cells == [ref_cell_class_data(dual, f) for f in dual.facets]
        assert cells == [smith_cell_class_data(dual, f)
                         for f in dual.facets]


def test_boundary_area_divides_once(monkeypatch):
    # one exact quotient over d^2: none on v2's P*, whose area is integral
    # (the per-facet quotients built some), and one for W's 27/2
    duals = [bundled("v2").polar_dual(), LatticePolytope(W_SIMPLEX)
             .polar_dual()]
    built = []
    spied(monkeypatch, Fraction, "__new__", built)
    areas = [dual.boundary_area() for dual in duals]
    monkeypatch.undo()
    assert len(built) == 1
    assert areas == [2, Fraction(27, 2)] and type(areas[0]) is int


@ROWS
@given(polytopes())
def test_quotient_functionals_read_off_rows(p):
    # normal_fan_data pairs each vertex's ray basis with the row of each
    # neighbour, where it paired it with the (possibly rational) vertex
    rows = p.vertex_rows[0]
    for e in p.edges:
        a, b = e.vertex_ids
        for u, w in ((a, b), (b, a)):
            basis = ray_lattice(rows[u])
            assert quotient_functional(basis, rows[w]) == \
                quotient_functional(basis, p.vertices[w])


# ---------------------------------------------------------------------------
# slab polygons


@SLABS
@given(lattice_polygons(), st.sampled_from((1, 1, 2, 3)))
def test_edge_normals_match_the_generic_route(poly, k):
    # the cycle shrunk by k, rational for k > 1, has the same normals in
    # the same order, at the levels divided by k
    got = poly.edge_normals()
    assert got == ref_edge_normals(poly.vertices)
    shrunk = tuple(tuple(Fraction(x, k) for x in v) for v in poly.vertices)
    assert [(n, Fraction(c, k)) for n, c in got] == \
        list(ref_edge_normals(shrunk))
    assert [(type(n0), type(n1), type(c)) for (n0, n1), c in got] == \
        [(int, int, int)] * len(got)


def sections_outcome(fn, *args):
    try:
        sec = fn(*args)
    except DegenerationError as exc:
        return sections_refusal(exc)
    return (sec.dim, [(x, type(x)) for p in sec.points for x in p],
            sec.vertices(), sec.spans, [type(s) for s in sec.spans])


@SLABS
@given(lattice_polygons(span=3), st.data())
def test_polygon_of_sections_matches_the_generic_route(poly, data):
    normals = [n for n, _ in poly.edge_normals()]
    coeffs = data.draw(st.lists(st.integers(-3, 6), min_size=len(normals),
                                max_size=len(normals)))
    assert sections_outcome(polygon_of_sections, poly, coeffs) == \
        sections_outcome(ref_sections_one_pass, normals, coeffs)


@SLABS
@given(lattice_polygons(span=3), st.data())
def test_match_summand_slabs_matches_face_lengths(poly, data):
    decos = enumerate_smooth_decompositions(edge_vector_multiset(poly))
    if not decos:
        return
    deco = data.draw(st.sampled_from(decos))
    summand = data.draw(st.sampled_from(deco))
    # the summand's own edge normals, either way round, and drawn ones
    vecs = [(-y, x) for x, y in summand.vectors]
    vecs += [(-x, -y) for x, y in vecs]
    vecs += data.draw(st.lists(st.tuples(st.integers(-3, 3),
                                         st.integers(-3, 3))
                               .filter(any), max_size=4))
    names = data.draw(st.lists(st.sampled_from(vecs), max_size=5,
                               unique=True))
    functionals = {f"S{i}": f for i, f in enumerate(names)}
    assert outcome(match_summand_slabs, summand, functionals) == \
        outcome(ref_match_summand_slabs, summand, functionals)

