import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NORMAL_FAN_POLYTOPES, EmptyLinearSystem, bundled,
                      bundled_polygon, dual_face_vertices,
                      edge_vector_multiset, face_length, lattice_polygons,
                      mat_vec, product_labels, random_unimodular2,
                      random_unimodular3,
                      ref_check_compatibility, ref_check_convexity,
                      ref_check_smooth_edge_data, ref_facet_in_ray_coords,
                      ref_product_data, ref_sections_one_pass, ref_vertices,
                      relabelled, sections_refusal, unchecked)
from fanoscope import degeneration
from fanoscope.degeneration import (ROLE_BOUNDARY, DegenerationData,
                                    DegenerationError, NotCartier, NotNef,
                                    Sections, Slab, decomposition_regimes,
                                    line_fan_data, method1_data,
                                    normal_fan_data, polygon_of_sections,
                                    product_data, ray_lattice)
from fanoscope.fileio import bundled_polytopes, data_from_fixture, load_fixture
from fanoscope.invariants import euler_product
from fanoscope.minkowski import enumerate_smooth_decompositions
from fanoscope.polytope import (LatticePolytope, Polygon, PolytopeError,
                                dot, gorenstein_index, is_integral)


def b3_data():
    return line_fan_data(bundled("b3_cubic"), (0, 0, 1),
                         [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                         [{"meets": (0, 0, 1), "value": 3}], name="B3")


def slab_counts(vertices, coeffs):
    """(2A, b, i) of the sections of a slab with boundary edges."""
    slab = Slab("s", Polygon(vertices), coeffs, (ROLE_BOUNDARY,) * len(coeffs))
    return slab.two_area, slab.b_count, slab.i_count


# the standard triangle, its normals (0, 1), (-1, -1), (1, 0)
TRIANGLE = Polygon([(0, 0), (1, 0), (0, 1)])


def test_sections_cubic_slab():
    # coefficient 3 on the far edge of a P^2-shaped slab gives 3x the
    # standard triangle with one interior and nine boundary points
    sec = polygon_of_sections(TRIANGLE, (0, 3, 0))
    assert sec.dim == 2
    assert sec.spans == (3, 3, 3)
    assert slab_counts([(0, 0), (1, 0), (0, 1)], (0, 3, 0)) == (9, 9, 1)


def test_sections_v2_slabs():
    big = polygon_of_sections(TRIANGLE, (0, 6, 0))
    assert big.spans == (6, 6, 6)
    assert slab_counts([(0, 0), (1, 0), (0, 1)], (0, 6, 0)) == (36, 18, 10)
    skew = polygon_of_sections(Polygon([(0, 0), (3, 0), (0, 1)]), (0, 6, 0))
    assert skew.spans == (6, 2, 2)
    assert slab_counts([(0, 0), (3, 0), (0, 1)], (0, 6, 0)) == (12, 10, 2)
    assert sorted(skew.vertices()) == [(0, 0), (0, 2), (6, 0)]


def test_sections_errors():
    # an empty system holds no corner, so it is not nef
    with pytest.raises(NotNef):
        polygon_of_sections(TRIANGLE, (0, -1, 0))
    # normals (0, 1), (-1, 0), (-1, -1), (1, 0)
    with pytest.raises(NotNef):
        polygon_of_sections(Polygon([(0, 0), (1, 0), (1, 1), (0, 2)]),
                            (0, 3, 2, 0))
    # normals (0, 1), (-1, -2), (1, 0)
    with pytest.raises(NotCartier):
        polygon_of_sections(Polygon([(0, 0), (2, 0), (0, 1)]), (0, 1, 0))


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1, 5)])
def test_sections_need_one_coefficient_per_edge(coeffs):
    triangle = Polygon([(0, 0), (2, 0), (0, 2)])
    message = f"{len(coeffs)} coefficients for a slab polygon of 3 edges"
    with pytest.raises(DegenerationError, match=f"^{message}$"):
        polygon_of_sections(triangle, coeffs)
    with pytest.raises(DegenerationError, match=f"^{message}$"):
        Slab("X", triangle, coeffs, (ROLE_BOUNDARY,) * 3)


@pytest.fixture
def checked(monkeypatch):
    """The data that `DegenerationData.validate` checks, in call order."""
    out = []
    real = DegenerationData.validate
    monkeypatch.setattr(DegenerationData, "validate",
                        lambda self: out.append(self) or real(self))
    return out


def test_every_route_hands_out_checked_data(checked):
    # the last check each route runs is on the data it returns
    p3 = bundled("p3")
    routes = {
        "normal_fan_data": lambda: normal_fan_data(p3),
        "method1_data": lambda: method1_data(p3),
        "line_fan_data": b3_data,
        "product_data": lambda: product_data(bundled_polygon("hexagon")),
        "data_from_fixture": lambda: data_from_fixture(load_fixture("b1")),
        "DegenerationData": lambda: DegenerationData("empty", "slabs", [], []),
        "replace": lambda: replace(method1_data(p3), name="renamed")}
    for name, build in routes.items():
        checked.clear()
        data = build()
        assert checked and checked[-1] is data, name


def test_method1_p3_counts():
    d = method1_data(bundled("p3"))
    assert (d.p_count, d.d_count, d.n_count) == (4, 0, 24)
    assert d.boundary_count == 24
    assert len(d.slabs) == len(d.dual.edges)
    assert [s.two_area for s in d.slabs] == [4] * 6
    assert ref_check_convexity(d) == []
    assert ref_check_smooth_edge_data(d) == []
    assert ref_check_compatibility(d) == []


def test_method1_cube_and_octahedron():
    dc = method1_data(bundled("cube"))
    assert (dc.p_count, dc.d_count, dc.n_count, dc.boundary_count) == \
        (0, 24, 48, 24)
    do = method1_data(bundled("octahedron"))
    assert (do.p_count, do.n_count, do.boundary_count) == (8, 24, 24)
    assert len(do.slabs) == len(do.dual.edges) == 12


def test_method1_rejects_non_reflexive():
    with pytest.raises(DegenerationError, match="reflexive"):
        method1_data(bundled("v2"))


def test_method1_rejects_undecomposable():
    # the cubic-example polytope has facets with no smooth decomposition
    with pytest.raises(DegenerationError, match="no smooth Minkowski"):
        method1_data(bundled("b3_cubic"))


def test_v2_normal_fan_data():
    d = normal_fan_data(bundled("v2"), name="V2")
    assert (d.p_count, d.d_count, d.n_count, d.boundary_count) == \
        (20, 0, 144, 24)
    areas = sorted(s.two_area for s in d.slabs)
    assert areas == [12, 12, 12, 36, 36, 36]
    assert ref_check_compatibility(d) == []


def test_line_fan_b3():
    d = b3_data()
    assert (d.p_count, d.d_count, d.n_count) == (3, 0, 27)
    assert d.boundary_count == 18
    assert d.vertex_count == 0
    assert all(s.two_area == 9 for s in d.slabs)


def test_line_fan_needs_vertex_or_facet_exit():
    # the ray through (1, 1, -1) leaves the polar simplex through an edge
    with pytest.raises(DegenerationError):
        line_fan_data(bundled("p3"), (1, 1, -1), [(1, 0, 0), (0, 1, 0),
                                                  (-1, -1, 0)], [])


def test_line_fan_rejects_a_rule_point_off_3_space():
    for meets in ((0, 0), (0, 0, 1, 0)):
        with pytest.raises(DegenerationError, match="not a point of 3-space"):
            line_fan_data(bundled("b3_cubic"), (0, 0, 1),
                          [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                          [{"meets": (0, 0, 1), "value": 3},
                           {"meets": meets, "value": 1}])


def test_products():
    for name, boundary, base in (("diamond", 16, 4), ("triangle", 18, 3),
                                 ("hexagon", 12, 6), ("pentagon", 14, 5)):
        q = bundled_polygon(name)
        d = product_data(q, name)
        assert (d.p_count, d.n_count) == (0, 0)
        assert d.boundary_count == boundary
        assert 12 - sum(product_labels(q)) == base
        assert d.vertex_count == 0


def test_product_rejects_non_reflexive_base():
    with pytest.raises(DegenerationError, match="reflexive"):
        product_data(Polygon([(1, 0), (0, 1), (-1, -3)]))


# one polygon of each of the 16 GL(2,Z) classes of reflexive polygons, by
# their number of boundary points, 3 to 9
REFLEXIVE_POLYGONS = (
    [(1, 0), (0, 1), (-1, -1)],
    [(-1, -1), (1, 0), (-1, 1)],
    [(-1, -1), (0, -1), (1, 1), (-1, 0)],
    [(-1, -1), (1, 0), (1, 1), (-1, 0)],
    [(-1, -1), (0, -1), (1, 2), (-1, 0)],
    [(-1, -1), (0, -1), (1, 0), (0, 1), (-1, 0)],
    [(-1, -1), (2, -1), (-1, 1)],
    [(-1, -1), (0, -1), (1, 1), (1, 2), (-1, 0)],
    [(-1, -1), (1, -1), (1, 1), (-1, 0)],
    [(-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)],
    [(-1, -1), (2, -1), (0, 1), (-1, 0)],
    [(-1, -1), (0, -1), (2, 1), (0, 1), (-1, 0)],
    [(-1, -1), (1, -1), (1, 2), (-1, 0)],
    [(-1, -1), (1, -1), (1, 1), (-1, 1)],
    [(-1, -1), (3, -1), (-1, 1)],
    [(-1, -1), (2, -1), (-1, 2)])


def reflexive_class(q: Polygon):
    """A key of q's GL(2,Z) class, for a reflexive q: the least sorted
    vertex tuple of its images with an edge on y = -1 and that edge's
    least vertex at (0, -1), over every edge and both orientations."""
    keys = []
    for sign in (1, -1):
        p = Polygon([(sign * x, y) for x, y in q.vertices])
        for (n0, n1), _ in p.edge_normals():
            # g = [[a, b], [n0, n1]] of determinant 1 takes the edge to
            # y = -1: a n1 = 1 mod n0, as gcd(n0, n1) = 1
            a = n1 if n0 == 0 else pow(n1, -1, abs(n0)) if abs(n0) > 1 else 0
            b = 0 if n0 == 0 else (a * n1 - 1) // n0
            image = [(a * x + b * y, n0 * x + n1 * y) for x, y in p.vertices]
            k = min(x for x, y in image if y == -1)
            keys.append(tuple(sorted((x + k * y, y) for x, y in image)))
    return min(keys)


def test_the_reflexive_polygons_are_the_16_classes():
    polygons = [Polygon(q) for q in REFLEXIVE_POLYGONS]
    assert all(c == -1 for q in polygons for _, c in q.edge_normals())
    assert len({reflexive_class(q) for q in polygons}) == 16
    # the key is a class invariant
    h = random_unimodular2(random.Random(7))
    for q in polygons:
        moved = Polygon([tuple(mat_vec(h, list(v))) for v in q.vertices])
        assert reflexive_class(moved) == reflexive_class(q)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32))
def test_product_slabs_carry_one_label_each(seed):
    # the sum a_v that `euler_product` and the product b2 read off the slab
    # coefficients: slab k carries exactly one nonzero coefficient, the
    # a_v of vertex k, on every reflexive base polygon and its images
    h = random_unimodular2(random.Random(seed))
    for verts in REFLEXIVE_POLYGONS:
        q = Polygon([tuple(mat_vec(h, list(v))) for v in verts])
        labels = product_labels(q)
        d = product_data(q)
        assert [[c for c in s.coeffs if c] for s in d.slabs] == [
            [a] for a in labels]
        assert sum(sum(s.coeffs) for s in d.slabs) == sum(labels)
        assert euler_product(d) == 2 * sum(labels)


def product_record(build, q, name=""):
    """Everything of build(q, name) that a report or check reads: name,
    kind, P's vertices, each slab's name, polygon, coefficients and roles,
    the ray summands and `vertex_count`; or the refusal."""
    try:
        d = build(q, name)
    except (DegenerationError, PolytopeError) as exc:
        return type(exc), str(exc)
    return (d.name, d.kind, d.polytope.vertices,
            [(s.name, s.polygon.vertices, s.coeffs, s.roles) for s in d.slabs],
            d.ray_summands, d.vertex_count)


# base polygons that product_data refuses: the origin on an edge or a
# vertex, outside, and three that are not reflexive
REFUSED_BASES = (
    [(0, 0), (1, 0), (0, 1)],
    [(-1, 0), (1, 0), (0, 1)],
    [(1, 1), (2, 1), (1, 2)],
    [(1, 0), (0, 1), (-1, -3)],
    [(-3, -1), (1, 0), (0, 1)],
    [(-1, -1), (3, -1), (-1, 2)])


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32))
def test_closed_form_products_equal_the_line_fan_route(seed):
    # `product_data` builds its slabs from Q alone; `ref_product_data` is
    # the line-fan route it replaced, over every reflexive class, its
    # GL(2,Z) images and the refused bases
    h = random_unimodular2(random.Random(seed))
    for verts in REFLEXIVE_POLYGONS + REFUSED_BASES:
        for q in (Polygon(verts),
                  Polygon([tuple(mat_vec(h, list(v))) for v in verts])):
            for name in ("", "Q"):
                want = product_record(ref_product_data, q, name)
                assert product_record(product_data, q, name) == want
                assert isinstance(want[0], type) == (verts in REFUSED_BASES)


def test_product_data_checks_once_and_slices_nothing(monkeypatch, checked):
    sliced = []
    real = degeneration.line_fan_data
    monkeypatch.setattr(degeneration, "line_fan_data", lambda *args, **kw:
                        sliced.append(args) or real(*args, **kw))
    data = product_data(bundled_polygon("hexagon"))
    assert len(checked) == 1 and checked[0] is data
    assert sliced == []


@pytest.mark.parametrize("name", ["b3_cubic", "v2"])
def test_fan_fixtures_are_checked_once(checked, name):
    # b3_cubic states b2, which goes on a copy of the checked data
    doc = load_fixture(name)
    data = data_from_fixture(doc)
    assert len(checked) == 1
    assert checked[0].slabs is data.slabs
    assert checked[0].ray_summands is data.ray_summands
    stated = {"b2": (doc["b2"]["value"], doc["b2"]["source"])} \
        if "b2" in doc else {}
    assert data.stated == stated


def test_compatibility_names_each_broken_ray_and_slab():
    # every label 0 where a/r = 1 is needed: p3's 4 rays meet 3 slabs each;
    # construction refuses the data at its first slab, where the retired
    # check reported every (ray, slab) pair
    p3 = normal_fan_data(bundled("p3"))
    with pytest.raises(DegenerationError) as err:
        relabelled(p3, 0)
    assert str(err.value) == "slab E0: edge span 0 != 1 attachments for ray:v0"
    out = ref_check_compatibility(unchecked(relabelled, p3, 0))
    assert len(out) == 12
    assert out[0] == "ray v0, slab E0: degree 1 != a/r = 0/1"


@pytest.mark.parametrize("name", ["mm2_2", "b1"])
def test_checks_do_not_apply_to_slab_fixtures(name):
    # mm2_2 has no polytope and b1 has one; neither has a fan to check
    data = data_from_fixture(load_fixture(name))
    assert (data.dual is None) == (name == "mm2_2")
    assert ref_check_convexity(data) == []
    assert ref_check_smooth_edge_data(data) == []
    assert ref_check_compatibility(data) == []


def test_edge_data_bounds_checked():
    # construction refuses every label below other than l(E*); the retired
    # checks, run on the data built without the check, say which
    p3, cube = normal_fan_data(bundled("p3")), normal_fan_data(bundled("cube"))
    builds = ((p3, 2), (p3, 0), (cube, 0))
    for data, labels in builds:
        with pytest.raises(DegenerationError, match="attachments"):
            relabelled(data, labels)
    d, d0, dc = (unchecked(relabelled, data, labels)
                 for data, labels in builds)
    # a_E = l(E*) + 1 violates convexity on every edge
    assert len(ref_check_convexity(d)) == 6
    # a_E = 0 with l(E*) = 1 still counts as smooth (0 = l - 1); a_E = -1
    # breaks convexity
    assert ref_check_convexity(d0) == []
    assert ref_check_smooth_edge_data(d0) == []
    # a negative label empties the slab linear system: no corner is a
    # section, so it is not nef
    with pytest.raises(NotNef):
        relabelled(p3, {0: -1})
    # on the cube l(E*) = 2, so a_E = 0 is convex but no longer smooth
    assert ref_check_convexity(dc) == []
    assert len(ref_check_smooth_edge_data(dc)) == 12


def test_boundary_identity():
    # sum b_s - 3p - 2d = boundary intersection count, for every bundled case
    for make in (lambda: method1_data(bundled("p3")),
                 lambda: method1_data(bundled("cube")),
                 lambda: normal_fan_data(bundled("v2")),
                 b3_data,
                 lambda: product_data(bundled_polygon("diamond"))):
        d = make()
        total_b = sum(s.b_count for s in d.slabs)
        assert total_b - 3 * d.p_count - 2 * d.d_count == d.boundary_count


def ref_polygon_of_sections(normals, coeffs):
    """The Fraction candidate scan that `polygon_of_sections` replaced."""
    k = len(normals)
    cands = set()
    for i in range(k):
        for j in range(i + 1, k):
            (a, b), (c, d) = normals[i], normals[j]
            det = a * d - b * c
            if det == 0:
                continue
            rx = Fraction(-coeffs[i] * d + coeffs[j] * b, det)
            ry = Fraction(-coeffs[j] * a + coeffs[i] * c, det)
            if all(n[0] * rx + n[1] * ry >= -q for n, q in zip(normals, coeffs)):
                cands.add((rx, ry))
    if not cands:
        raise EmptyLinearSystem("empty linear system")
    pts = []
    for (x, y) in cands:
        pts.append((int(x) if x.denominator == 1 else x,
                    int(y) if y.denominator == 1 else y))
    verts = ref_vertices(pts)

    def support_min(n):
        return min(dot(n, p) for p in verts)

    for n, q in zip(normals, coeffs):
        if support_min(n) != -q:
            raise NotNef(f"divisor not nef: slack on edge with normal {n}")
    for i in range(k):
        j = (i + 1) % k
        tight = [p for p in verts
                 if dot(normals[i], p) == -coeffs[i]
                 and dot(normals[j], p) == -coeffs[j]]
        if not tight:
            raise NotNef("divisor not nef: support function breaks on a "
                         "vertex cone")
        if not any(is_integral(p) for p in tight):
            raise NotCartier("not Cartier: no integral section witness at a "
                             "vertex cone")
    return Sections(pts)


def fraction_scan(normals, coeffs):
    """`ref_polygon_of_sections` with each span read off its vertices."""
    sec = ref_polygon_of_sections(normals, coeffs)
    sec.spans = tuple(face_length(sec.vertices(), n) for n in normals)
    return sec


def outcome(fn, *args):
    try:
        sec = fn(*args)
    except DegenerationError as exc:
        return sections_refusal(exc)
    return sec.dim, [(x, type(x)) for p in sec.points for x in p], \
        sec.vertices(), sec.spans


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lattice_polygons(span=3), st.data())
def test_polygon_of_sections_matches_fraction_scan(poly, data):
    # the corners of consecutive edge lines against both old scans over
    # every pair of edge lines: the same sections, spans and NotCartier,
    # and NotNef where they found no corner or an edge with slack; the
    # one-pass copy still runs the retired ccw check, which every polygon's
    # normals pass
    normals = [n for n, _ in poly.edge_normals()]
    coeffs = data.draw(st.lists(st.integers(-3, 6), min_size=len(normals),
                                max_size=len(normals)))
    got = outcome(polygon_of_sections, poly, coeffs)
    assert got == outcome(fraction_scan, normals, coeffs)
    assert got == outcome(ref_sections_one_pass, normals, coeffs)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lattice_polygons(span=3), st.data())
def test_sections_follow_a_unimodular_map(poly, data):
    # on g P + t, with each edge's coefficient carried to its image, S is
    # g S (inner normals map by g^-T, so sections map by g) with the span
    # of each edge on its image, or it is refused with the same class
    g = random_unimodular2(random.Random(data.draw(st.integers(0, 10**6))))
    tx, ty = data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9))

    def lin(m):
        return tuple(mat_vec(g, m))

    def move(v):
        x, y = lin(v)
        return x + tx, y + ty

    edges = poly.edges()
    coeff = {e: data.draw(st.integers(-3, 6)) for e in edges}
    image = Polygon([move(v) for v in poly.vertices])
    back = {frozenset(map(move, e)): e for e in edges}
    image_edges = [back[frozenset(e)] for e in image.edges()]

    def run(polygon, keys):
        try:
            sec = polygon_of_sections(polygon, [coeff[e] for e in keys])
        except DegenerationError as exc:
            return type(exc)
        return sec
    want, got = run(poly, edges), run(image, image_edges)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type)
    assert got.dim == want.dim
    assert got.points == tuple(sorted(map(lin, want.points)))
    span = dict(zip(edges, want.spans))
    assert got.spans == tuple(span[e] for e in image_edges)


def ref_decomposition_regimes(p):
    """`decomposition_regimes` through P*: one enumeration per ray, of the
    facet read off P*'s incidence sets and divided by the Gorenstein index
    that `gorenstein_index` computes."""
    dual = p.polar_dual()
    out = []
    for vid, vert in enumerate(dual.vertices):
        w_basis = ray_lattice(vert)
        facet = ref_facet_in_ray_coords(dual, vid, w_basis)
        r = gorenstein_index(dual_face_vertices(dual, [vid]))
        if any(x % r for v in facet for x in v):
            raise DegenerationError(
                f"no smooth Minkowski decomposition: facet of ray {vid} is "
                f"not divisible by its index {r}")
        target = Polygon([tuple(x // r for x in v) for v in facet])
        out.append(enumerate_smooth_decompositions(
            edge_vector_multiset(target)))
    return out


def regimes_outcome(f, p):
    try:
        return f(p)
    except (DegenerationError, PolytopeError) as err:
        return f"{type(err).__name__}: {err}"


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.none(), st.integers(0, 2 ** 32)))
def test_decomposition_regimes_match_the_per_ray_route(seed):
    # seed None: the bundled polytopes themselves; else GL(3,Z) images
    table = bundled_polytopes()
    for name in sorted(k for k in table if k != "polygons"):
        verts = table[name]["vertices"]
        if seed is not None:
            m = random_unimodular3(random.Random(seed))
            verts = [tuple(mat_vec(m, list(v))) for v in verts]
        p = LatticePolytope(verts)
        got = regimes_outcome(decomposition_regimes, p)
        assert got == regimes_outcome(ref_decomposition_regimes, p)
        if isinstance(got, list):
            # one list object per ray, so no caller can alias two rays
            assert len({id(r) for r in got}) == len(got)


def attached(data, vid):
    """(kind, summand) of each entry that `normal_fan_data` gives ray v{vid}."""
    return [(s.kind, s.summand) for s in data.ray_summands
            if s.ray == f"v{vid}"]


@pytest.mark.parametrize("seed", [None, 5, 11])
def test_decomposition_regimes_index_the_normal_fan_choices(seed):
    # `decompositions` and `--decomposition i,j,...` read the same lists:
    # index c of ray vid is what `normal_fan_data` attaches for choice c,
    # on v2 (r = 3) too, where the undivided facet would list other ones
    for name in NORMAL_FAN_POLYTOPES + ("v2",):
        p = bundled(name)
        if seed is not None:
            m = random_unimodular3(random.Random(seed))
            p = LatticePolytope([tuple(mat_vec(m, list(v)))
                                 for v in p.vertices])
        regimes = decomposition_regimes(p)
        for vid, decos in enumerate(regimes):
            assert decos
            for c, deco in enumerate(decos):
                choice = [0] * len(regimes)
                choice[vid] = c
                data = normal_fan_data(p, choice)
                assert attached(data, vid) == [
                    (s.kind, None if s.kind == "point" else s) for s in deco]
