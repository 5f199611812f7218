"""Lattice polygons only: slab polygons on integer plane coordinates, and
sections decided nef and Cartier before they are built.

`normal_fan_data` builds the slab triangle 0, va, vb of each edge of P* from
P*'s vertex rows, the vertices times their common denominator, and
`line_fan_data` maps each slab's slice scaled by the slice's common
denominator, so each slab polygon is a lattice polygon: the rational one of
the unscaled route times a positive integer, with the same edge normals in
the same order.  The unscaled route is kept here as vertex cycles
(`ref_vertices`) read by `ref_edge_normals` and a `RefSlab`, and every slab
must have the same normals, coefficients, roles, section points and spans
on both.  The line-fan half of that is `check_route` in
`tests/test_line_fan_routes.py`, on `base_routes` (b3_cubic, the products,
v2's and b1's line fans) and their GL(3,Z) images.

`polygon_of_sections` keeps the corner of each slab vertex as a
homogeneous triple and builds `Sections` from integer points only, after nef
and Cartier; it must give the outcome of the old candidate scan
(`ref_sections_one_pass`) on the polygon of the scan's normals
(`polygon_with_normals`).  `Polygon` takes int coordinates only.
"""

import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest

from conftest import (EmptyLinearSystem, bundled, mat_vec,
                      polygon_with_normals, random_unimodular3,
                      ref_sections_one_pass, ref_vertices, sections_refusal,
                      unchecked)
from test_line_fan_routes import RefSlab, normals
from fanoscope import degeneration
from fanoscope.degeneration import (ROLE_BOUNDARY, DegenerationError,
                                    NotCartier, NotNef, Slab,
                                    normal_fan_data, polygon_of_sections)
from fanoscope.fileio import bundled_polytopes, data_from_fixture, load_fixture
from fanoscope.linalg import primitive
from fanoscope.polytope import (LatticePolytope, Polygon, PolytopeError,
                                gorenstein_index, plane_basis, plane_coords)

FANO = sorted(k for k in bundled_polytopes() if k != "polygons"
              and LatticePolytope(bundled_polytopes()[k]["vertices"]).is_fano())


def ref_normal_fan_slabs(dual, values):
    """The slabs of normal-fan data by the unscaled route: the triangle 0,
    va, vb of each edge of P* in the coordinates of `plane_basis([va, vb])`,
    rational where P* is, as `normal_fan_data` built it."""
    out = []
    for i, e in enumerate(dual.edges):
        a_id, b_id = sorted(e.vertex_ids)
        va, vb = dual.vertices[a_id], dual.vertices[b_id]
        ca, cb = plane_coords(plane_basis([va, vb]), [va, vb])
        verts = ref_vertices([(0, 0), ca, cb])
        coeffs, roles = [], []
        for x, y in zip(verts, verts[1:] + verts[:1]):
            pair = {x, y}
            if pair == {ca, cb}:
                coeffs.append(values[i])
                roles.append(ROLE_BOUNDARY)
            else:
                coeffs.append(0)
                roles.append(f"ray:v{a_id if ca in pair else b_id}")
        out.append(RefSlab(f"E{i}", verts, tuple(coeffs), tuple(roles)))
    return out


def ref_label(p, e):
    """l(E*) // r(E*) for the edge e of P*: the lattice length of its dual
    edge E* = [v, w] over `gorenstein_index`."""
    v, w = (p.vertices[j] for j in e.facet_ids)
    return gcd(*(x - y for x, y in zip(v, w))) // gorenstein_index([v, w])


def labelled(p, labels):
    """The slabs of P's normal-fan data, built without the check: with the
    labels it derives, or with labels in their place on the polygons and
    roles its slab loop gives, whose own sections may be refused."""
    if labels is None:
        return unchecked(normal_fan_data, p).slabs
    specs = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Slab, "shared",
                  staticmethod(lambda built, *spec: specs.append(spec)))
        unchecked(normal_fan_data, p)
    return [Slab(name, poly, tuple(labels if r == ROLE_BOUNDARY else c
                                   for c, r in zip(coeffs, roles)), roles)
            for name, poly, coeffs, roles in specs]


def slab_key(s):
    return (s.name, normals(s), s.coeffs, s.roles, s.sections.dim,
            s.sections.points, s.spans, s.two_area, sum(s.spans),
            s.i_count)


def slabs_outcome(build):
    """The keys of the slabs that build() gives, or the refusal of the
    first slab whose sections are refused."""
    try:
        return [slab_key(s) for s in build()]
    except (EmptyLinearSystem, NotNef, NotCartier) as exc:
        return sections_refusal(exc)


def images(name, seed):
    """The bundled polytope, its seeded GL(3,Z) image, and both dilated by
    2 and 3, whose polar duals are the first two shrunk: rational P*."""
    p = bundled(name)
    m = random_unimodular3(random.Random(seed))
    q = LatticePolytope([tuple(mat_vec(m, list(v))) for v in p.vertices])
    out = [p, q]
    for k in (2, 3):
        out += [LatticePolytope([tuple(k * x for x in v) for v in r.vertices])
                for r in (p, q)]
    return out


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("name", FANO)
def test_normal_fan_slabs_match_the_unscaled_route(name, seed, monkeypatch):
    # only the slab loop is compared, so the ray pass is left out (b1's
    # facets have no smooth decomposition) and the data is built without
    # the construction check, which its ray edges then fail; k P is not
    # Fano (its vertices are not primitive), so its memo is set by hand:
    # the slab loop reads P* alone, and P* is P's shrunk by k
    monkeypatch.setattr(degeneration, "_ray_decompositions",
                        lambda p: iter(()))
    rational = 0
    for p in images(name, seed):
        p._fano = True
        dual = p.polar_dual()
        rational += dual.vertex_rows[1] > 1
        # the labels l(E*) / r(E*) it derives, then 0 and 1
        for labels in (None, 0, 1):
            values = {i: ref_label(p, e) if labels is None else labels
                      for i, e in enumerate(dual.edges)}
            want = slabs_outcome(lambda: ref_normal_fan_slabs(dual, values))
            got = slabs_outcome(lambda: labelled(p, labels))
            assert got == want, (name, labels)
            if isinstance(got[0], type):
                continue
            # the triangle is the unscaled one times the rows' denominator
            d = dual.vertex_rows[1]
            for slab, ref in zip(labelled(p, labels),
                                 ref_normal_fan_slabs(dual, values)):
                assert slab.polygon.vertices == tuple(
                    tuple(d * x for x in v) for v in ref.vertices)
    assert rational >= 4


def test_v2_builds_few_fractions(monkeypatch):
    # the rational slab route built 42: v2's three slab triangles with
    # rational vertices, hulled, cleaned and read by `edge_normals` in
    # `Fraction`s; what is left is v2's rational P*
    doc = load_fixture("v2")
    built = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    data_from_fixture(doc)
    monkeypatch.undo()
    assert len(built) <= 9


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(2, 1), 2.0, True])
def test_polygon_takes_int_coordinates_only(x):
    with pytest.raises(PolytopeError,
                       match="^polygon coordinates must be ints$"):
        Polygon([(0, 0), (x, 0), (0, 1)])
    with pytest.raises(PolytopeError,
                       match="^polygon coordinates must be ints$"):
        Polygon([(0, 0), (2, 0), (0, x)])
    assert Polygon([[0, 0], [2, 0], [0, 1]]).vertices == \
        ((0, 0), (2, 0), (0, 1))


def ccw_normals(rng):
    """1 to 9 distinct primitive normals sorted by angle, drawn in a box of
    side 9, so corners of non-unimodular pairs are often rational, and in
    half the draws with the opposite of one of them; one in ten is
    reversed, for the order refusal."""
    def half(v):  # 0 on angles in [0, pi), 1 on [pi, 2 pi)
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def ccw(u, v):
        return half(u) - half(v) or u[1] * v[0] - u[0] * v[1]

    draws = {(rng.randint(-4, 4), rng.randint(-4, 4))
             for _ in range(rng.randint(3, 8))} - {(0, 0)}
    pool = {primitive(n) for n in draws}
    if rng.randrange(2):
        pool.add(tuple(-x for x in rng.choice(sorted(pool))))
    out = sorted(pool, key=cmp_to_key(ccw))
    return out[::-1] if rng.randrange(10) == 0 else out


def sections_outcome(sec):
    """The sections with each span keyed by its edge's normal, as a
    polygon's edges start at its lex-least vertex."""
    return (sec.dim, [(x, type(x)) for p in sec.points for x in p],
            sec.vertices(), sorted(zip(sec.normals, sec.spans)),
            [type(s) for s in sec.spans])


@pytest.mark.parametrize("seed", range(4))
def test_sections_match_the_old_candidate_scan(seed):
    rng = random.Random(f"sections {seed}")
    seen = set()
    for _ in range(300):
        ns = ccw_normals(rng)
        coeffs = [rng.randint(-2, 8) for _ in ns]
        if rng.randrange(2):  # the support numbers of a few lattice points
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3))
                   for _ in range(rng.randint(1, 4))]
            coeffs = [-min(x * n0 + y * n1 for x, y in pts) for n0, n1 in ns]
            coeffs[rng.randrange(len(ns))] += rng.choice((-1, 0, 0, 1))
        for i, (x, y) in enumerate(ns):  # a strip of width 0: S is flat
            if (-x, -y) in ns and rng.randrange(2):
                coeffs[ns.index((-x, -y))] = -coeffs[i]
        poly = polygon_with_normals(ns)
        try:
            want = ref_sections_one_pass(ns, coeffs)
        except DegenerationError as exc:
            seen.add(type(exc))
            if poly is None:  # the order refusal, retired with the list
                assert str(exc) == "edge normals are not in ccw order"
                continue
            want = sections_refusal(exc)
        else:
            seen.add(want.dim + 10)
            want = sections_outcome(want)
        coeff = dict(zip(ns, coeffs))
        try:
            got = sections_outcome(polygon_of_sections(
                poly, [coeff[n] for n, _ in poly.edge_normals()]))
        except DegenerationError as exc:
            got = sections_refusal(exc)
        assert got == want
    # every refusal and every dimension of S is reached
    assert {EmptyLinearSystem, NotNef, NotCartier, DegenerationError,
            10, 11, 12} <= seen
