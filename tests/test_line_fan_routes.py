"""The integer line-fan route against the `Fraction` route it replaced.

The `ref_*` functions are the slab geometry as it was: the plane slice and
the Sutherland-Hodgman clip in `Fraction`s, a containing-edge scan over
every edge of the polar polytope, the `Fraction` exit parameter and its
hit point, and slab spans from `face_length` over sections found by the
`Fraction` candidate scan; `_ray_target` reaches the ray's facet by the
hop from P* back to P that `_dual_facet` makes, builds it as a `Polygon`
(`ref_cycle_in_ray_coords`) and reads its index with `gorenstein_index`,
and the enumerator reads that polygon's word divided by the index.  The
old slab polygons had rational vertices; they are kept here as vertex
cycles (`ref_vertices`) with normals from `ref_edge_normals`, and each new
slab polygon must be its old one times a positive integer.  Every route
must give the same slabs (edge normals, coefficients, roles, sections,
spans, counts), ray summands and vertex count, or raise the same exception
with the same message.  The edge values, which the slab coefficients
read, are compared with the segment scan on their own
(`test_rule_values_match_the_segment_scan`).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (_along_line, _exit_point, _frac, _two_cone, bundled,
                      bundled_polygon, clip_halfplane,
                      edge_vector_multiset, face_length, lattice_polygons,
                      mat_vec, on_segment, random_unimodular2,
                      random_unimodular3, ref_cycle_in_ray_coords,
                      ref_edge_normals, ref_product_rules, ref_vertices,
                      unchecked, unproject, whole_plane_slice)
from test_degeneration import ref_polygon_of_sections
from fanoscope.degeneration import (ROLE_BOUNDARY, ROLE_SPINE,
                                    DegenerationError, NotCartier,
                                    RaySummand, _containing_edge,
                                    _plane_slice, _rule_values,
                                    line_fan, line_fan_data,
                                    match_summand_slabs, product_data,
                                    quotient_functional, ray_lattice)
from fanoscope.fileio import (bundled_polytopes, data_from_fixture,
                              load_fixture)
from fanoscope.invariants import analyze
from fanoscope.linalg import clear_denominators, primitive
from fanoscope.minkowski import enumerate_smooth_decompositions
from fanoscope.polytope import (LatticePolytope, Polygon, PolytopeError,
                                dot, gorenstein_index, lattice_length,
                                plane_basis, plane_coords, plane_normal,
                                _clean, _quotient)

# ---------------------------------------------------------------------------
# the Fraction route


class RefSlab:
    """`Slab` as it was: sections from the Fraction candidate scan, spans
    from `face_length` on each normal, and (2A, b, i) from `counts`, the
    `Sections.counts` that the sections' spans replaced.  Its polygon is
    the ccw vertex cycle `vertices`, rational or not."""

    def __init__(self, name, vertices, coeffs, roles):
        self.name, self.vertices = name, vertices
        self.coeffs, self.roles = coeffs, roles
        normals = [n for n, _ in ref_edge_normals(vertices)]
        self.normals = normals
        self.sections = ref_polygon_of_sections(normals, list(self.coeffs))
        verts = self.sections.vertices()
        self.spans = tuple(face_length(verts, n) for n in normals)
        self.two_area, b_conv, i_conv = self.counts(self.sections)
        span_sum = sum(self.spans)
        if self.sections.dim == 2 and span_sum != b_conv:
            raise DegenerationError("section polygon spans do not add to its "
                                    "boundary count")
        self.b_count = span_sum
        self.i_count = (self.two_area + 2 - self.b_count) // 2
        if (self.two_area + 2 - self.b_count) % 2:
            raise DegenerationError("odd Pick defect in slab sections")

    @staticmethod
    def counts(sec):
        """(two_area, b, i) with the degenerate-slab convention b = both-sided
        boundary length and i solved from Pick."""
        two_a = sec.two_area()
        if sec.dim == 2:
            _, i, b = sec.polygon.point_counts()
            return two_a, b, i
        if sec.dim == 1:
            ell = lattice_length(sec.points[0], sec.points[-1])
            return 0, 2 * ell, 1 - ell
        return 0, 0, 1


def ref_two_cone(dirv, w):
    """The 2-cone spanned by the line through dirv and the ray through w:
    (plane basis, primitive annihilator of the plane, primitive functional
    on plane coordinates that vanishes on the line and is >= 0 on w)."""
    basis = plane_basis([dirv, w])
    dir2, w2 = plane_coords(basis, [dirv, w])
    side = primitive((-dir2[1], dir2[0]))
    if dot(side, w2) < 0:
        side = tuple(-x for x in side)
    return basis, plane_normal(dirv, w), side


def ref_exit_parameter(poly: LatticePolytope, dirv):
    ts = []
    for f in poly.facets:
        pace = dot(f.normal, dirv)
        if pace < 0:
            ts.append(Fraction(f.level) / pace)
    if not ts:
        raise DegenerationError("line does not exit the polytope")
    return min(ts)


def ref_plane_slice(poly: LatticePolytope, nu):
    """Vertices of the section of a 3-polytope by the plane ann(nu)."""
    pts = set()
    for v in poly.vertices:
        if dot(nu, v) == 0:
            pts.add(_frac(v))
    for e in poly.edges:
        a, b = (poly.vertices[i] for i in sorted(e.vertex_ids))
        ga, gb = dot(nu, a), dot(nu, b)
        if ga * gb < 0:
            t = Fraction(ga) / (ga - gb)
            pts.add(tuple(Fraction(x) + t * (y - x) for x, y in zip(a, b)))
    if len(pts) < 3:
        raise DegenerationError("plane slice is degenerate")
    return sorted(pts)


def ref_clip_halfplane(coords, side):
    """Sutherland-Hodgman clip of a convex polygon to <., side> >= 0."""
    vs = list(ref_vertices(coords))
    out = []
    for i, a in enumerate(vs):
        b = vs[(i + 1) % len(vs)]
        da, db = dot(side, a), dot(side, b)
        if da >= 0:
            out.append(a)
        if (da > 0 > db) or (da < 0 < db):
            t = Fraction(da) / (da - db)
            out.append(tuple(Fraction(x) + t * (y - x) for x, y in zip(a, b)))
    if len(set(out)) < 3:
        raise DegenerationError("clipped slab is degenerate")
    return out


def ref_containing_edge(poly: LatticePolytope, a3, b3):
    for i, e in enumerate(poly.edges):
        ea, eb = (poly.vertices[j] for j in sorted(e.vertex_ids))
        if on_segment(a3, ea, eb) and on_segment(b3, ea, eb):
            return i
    return None


def ref_two_cone_containing(two_cones, v):
    """Annihilator of the first of the `_two_cone` triples whose 2-cone
    holds v, or None."""
    for basis, nu, side in two_cones:
        if dot(nu, v) == 0 and dot(side, plane_coords(basis, [v])[0]) >= 0:
            return nu
    return None


def _dual_facet(p_dual: LatticePolytope, vertex):
    """(P, the facet of P dual to a vertex of P*), for P the polar dual of
    p_dual, which every P* built by `_dual_from_faces` keeps."""
    p = p_dual.polar_dual()
    return p, next(f for f in p.facets if f.dual == vertex)


def _ray_target(p_dual: LatticePolytope, vertex_id: int, w_basis,
                ray) -> Polygon:
    """`ref_cycle_in_ray_coords` of the facet dual to a vertex of P*,
    divided by the facet's Gorenstein index r; raises, naming the ray,
    unless r divides every vertex."""
    p, f = _dual_facet(p_dual, p_dual.vertices[vertex_id])
    facet = ref_cycle_in_ray_coords(p, f, w_basis)
    r = gorenstein_index([p.vertices[i] for i in f.cycle])
    if any(x % r for v in facet for x in v):
        raise DegenerationError(
            f"no smooth Minkowski decomposition: facet of ray {ray} is not "
            f"divisible by its index {r}")
    return Polygon([tuple(x // r for x in v) for v in facet])


def ref_line_fan(p: LatticePolytope, direction, rays2d, edge_rule,
                 ray_summand_spec="auto"):
    """`line_fan_data` as it was, up to the slabs, ray summands and vertex
    count."""
    if not p.is_fano():
        raise DegenerationError("P is not a Fano polytope")
    dual = p.polar_dual()
    dirv, fan_rays = line_fan(direction, rays2d)
    w_basis = ray_lattice(dirv)
    rules = [(_clean(rule["meets"]), int(rule["value"])) for rule in edge_rule]
    edge_values = {}  # a_E: the value of the first rule whose point is on E
    for i, e in enumerate(dual.edges):
        ea, eb = (dual.vertices[j] for j in sorted(e.vertex_ids))
        edge_values[i] = next((value for meets, value in rules
                               if on_segment(meets, ea, eb)), 0)

    # the spine: P^dual intersected with the minimal line
    t_hi = ref_exit_parameter(dual, dirv)
    t_lo = ref_exit_parameter(dual, tuple(-x for x in dirv))

    two_cones = [ref_two_cone(dirv, w) for w in fan_rays]
    slabs = []
    slab_functionals = {}
    for k, w in enumerate(fan_rays):
        basis, nu, side = two_cones[k]  # side cuts out the w-halfplane
        pts = ref_plane_slice(dual, nu)
        coords = plane_coords(basis, pts)
        verts = ref_vertices(ref_clip_halfplane(coords, side))
        coeffs, roles = [], []
        for a, b in zip(verts, verts[1:] + verts[:1]):
            a3 = unproject(basis, a)
            b3 = unproject(basis, b)
            if _along_line(a3, dirv) and _along_line(b3, dirv):
                coeffs.append(0)
                roles.append(ROLE_SPINE)
                continue
            eidx = ref_containing_edge(dual, a3, b3)
            coeffs.append(0 if eidx is None else edge_values[eidx])
            roles.append(ROLE_BOUNDARY)
        sname = f"S{k}"
        slabs.append(RefSlab(sname, verts, tuple(coeffs), tuple(roles)))
        slab_functionals[sname] = quotient_functional(w_basis, w)

    ray_summands = []
    for ray_id, tpar, rdir in (("rho_plus", t_hi, dirv),
                               ("rho_minus", t_lo, tuple(-x for x in dirv))):
        hit = tuple(tpar * x for x in rdir)
        tight = [f for f in dual.facets if dot(f.normal, hit) == f.level]
        vertex_hit = None
        for vid, v in enumerate(dual.vertices):
            if v == hit:
                vertex_hit = vid
        if vertex_hit is None:
            if len(tight) != 1:
                raise DegenerationError(
                    f"{ray_id}: the ray leaves through a face of unsupported "
                    "dimension")
            ray_summands.append(RaySummand(ray_id, "point"))
            continue
        spec = ray_summand_spec
        if isinstance(spec, dict):
            spec = ray_summand_spec.get(ray_id, "auto")
        if spec == "auto":
            decos = enumerate_smooth_decompositions(edge_vector_multiset(
                _ray_target(dual, vertex_hit, w_basis, ray_id)))
            if not decos:
                raise DegenerationError("no smooth Minkowski decomposition "
                                        f"for {ray_id}")
            deco = decos[-1]  # prefer the triangle-rich canonical choice
        else:
            deco = tuple(spec)
        for s in deco:
            if s.kind == "point":
                ray_summands.append(RaySummand(ray_id, "point"))
            else:
                hits = match_summand_slabs(s, slab_functionals)
                ray_summands.append(RaySummand(ray_id, s.kind, hits, s))

    # vertices of the polar polytope in no 2-cone keep their corner
    v_count = sum(1 for v in dual.vertices if not _along_line(v, dirv)
                  and ref_two_cone_containing(two_cones, v) is None)
    return slabs, ray_summands, v_count


# ---------------------------------------------------------------------------
# routes: (P, direction, rays2d, edge rule) of a line fan


def typed(points):
    return [tuple((x, type(x)) for x in p) for p in points]


def normals(slab):
    """A `Slab`'s edge normals, off its lattice polygon, or a `RefSlab`'s,
    off its vertex cycle."""
    if isinstance(slab, RefSlab):
        return slab.normals
    return [n for n, _ in slab.polygon.edge_normals()]


def summary(slabs, ray_summands, v_count):
    return ([(s.name, normals(s), s.coeffs, s.roles,
              s.sections.dim, typed(s.sections.points),
              typed(s.sections.vertices()), s.spans, s.two_area, s.b_count,
              s.i_count) for s in slabs],
            [(r.ray, r.kind, r.slabs, r.summand) for r in ray_summands],
            v_count)


def outcome(fn, *args):
    try:
        return summary(*fn(*args))
    except (DegenerationError, PolytopeError) as exc:
        return type(exc), str(exc)


def new_route(p, direction, rays2d, rule):
    """The route's data built without the construction check, which the
    unlabeled b1 and v2 routes fail: their slab geometry still compares."""
    d = unchecked(line_fan_data, p, direction, rays2d, rule)
    return d.slabs, d.ray_summands, d.vertex_count


def product_route(q: Polygon):
    """The line fan that `product_data` builds over the base polygon q, by
    the `Fraction` polar of q (`ref_product_rules`)."""
    p, rules = ref_product_rules(q)
    rule = [{"meets": meets, "value": value} for meets, value in rules]
    return p, (0, 0, 1), [(v[0], v[1], 0) for v in q.vertices], rule


PLANE_RAYS = [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]
PRODUCTS = ("diamond", "hexagon", "pentagon", "triangle")


def base_routes():
    doc = load_fixture("b3_cubic")
    routes = {"b3_cubic": (LatticePolytope(doc["polytope"]), doc["direction"],
                           doc["rays2d"], doc["edge_data"])}
    for name in PRODUCTS:
        routes[name] = product_route(bundled_polygon(name))
    # leaves the polar simplex through an edge: raises
    routes["p3_edge_exit"] = (bundled("p3"), (1, 1, -1), PLANE_RAYS, [])
    # non-reflexive P: rational vertices of the polar polytope
    routes["b1"] = (bundled("b1"), (0, 0, 1), PLANE_RAYS, [])
    routes["b1_not_cartier"] = (
        bundled("b1"), (0, 0, 1), PLANE_RAYS,
        [{"meets": (Fraction(-1, 2), Fraction(-1, 2), -1), "value": 1}])
    routes["v2"] = (bundled("v2"), (1, 0, 0),
                    [(0, 1, 0), (0, 0, 1), (0, -1, -1)],
                    [{"meets": ("-1/6", "1/3", "-1/6"), "value": 1}])
    # a ray of the quotient fan on the line: raises
    routes["hexagon_cone_flat_ray"] = (bundled("hexagon_cone"), (1, 1, 0),
                                       PLANE_RAYS, [])
    # generic directions: the ray leaves through one of several facets
    routes["octahedron_generic"] = (bundled("octahedron"), (1, 1, 2),
                                    PLANE_RAYS,
                                    [{"meets": (1, 1, 1), "value": 1}])
    routes["hexagon_cone_generic"] = (
        bundled("hexagon_cone"), (2, 1, 0),
        [(1, 0, 0), (0, 0, 1), (-1, 0, 0), (0, 0, -1)], [])
    # e1 and -e2 are one ray mod (2, 1, 0), and all four lie on one line
    # there: raises
    routes["hexagon_cone_collinear_rays"] = (
        bundled("hexagon_cone"), (2, 1, 0),
        [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)], [])
    routes["v2_generic"] = (bundled("v2"), (1, 1, 2), PLANE_RAYS, [])
    routes["b1_generic"] = (bundled("b1"), (1, 2, 0),
                            [(1, 0, 0), (0, 0, 1), (-1, 0, -1)], [])
    return routes


def inverse3(m):
    """Inverse of an integer matrix of determinant +-1, by cofactors."""
    cof = [[m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]
    det = sum(m[0][j] * cof[0][j] for j in range(3))
    assert det in (1, -1)
    return [[cof[j][i] * det for j in range(3)] for i in range(3)]


def image(route, g):
    """The route moved by g: P by g, the fan and the rule points (in the
    space of the polar polytope) by g^-T."""
    p, direction, rays2d, rule = route
    gi = inverse3(g)
    git = [[gi[j][i] for j in range(3)] for i in range(3)]

    def dual_map(v):
        return tuple(mat_vec(git, [Fraction(x) for x in v]))

    return (LatticePolytope([tuple(mat_vec(g, list(v))) for v in p.vertices]),
            dual_map(direction), [dual_map(w) for w in rays2d],
            [{"meets": dual_map(r["meets"]), "value": r["value"]}
             for r in rule])


def check_route(route):
    want = outcome(ref_line_fan, *route)
    assert outcome(new_route, *route) == want
    if isinstance(want[0], type):
        return want
    # each slab polygon is the old one times a positive integer, and the
    # plane-filtered containing edge equals the full scan on every edge of
    # every slab
    p, direction, rays2d, _ = route
    dual = p.polar_dual()
    dirv = primitive(direction)
    rows, den = clear_denominators(dual.vertices)
    olds = ref_line_fan(*route)[0]
    for w, slab, old in zip(rays2d, new_route(*route)[0], olds):
        scale = next(Fraction(x) / y for v, u in
                     zip(slab.polygon.vertices, old.vertices)
                     for x, y in zip(v, u) if y)
        assert scale > 0 and scale.denominator == 1
        assert slab.polygon.vertices == tuple(tuple(scale * x for x in u)
                                              for u in old.vertices)
        basis = plane_basis([dirv, primitive(w)])
        nu, _ = _two_cone(dirv, primitive(w))
        _, flat = whole_plane_slice(dual, rows, den, nu)
        verts = old.vertices
        for a, b in zip(verts, verts[1:] + verts[:1]):
            a3, b3 = unproject(basis, a), unproject(basis, b)
            assert _containing_edge(dual, flat, a3, b3) == \
                ref_containing_edge(dual, a3, b3)
    return want


def test_bundled_line_fans_match_the_fraction_route():
    routes = base_routes()
    got = {name: check_route(route) for name, route in routes.items()}
    assert got["p3_edge_exit"] == (
        DegenerationError,
        "rho_plus: the ray leaves through a face of unsupported dimension")
    assert got["b1_not_cartier"] == (
        NotCartier, "not Cartier: no integral section witness at a vertex "
        "cone")
    incomplete = {"hexagon_cone_flat_ray", "hexagon_cone_collinear_rays"}
    for name in incomplete:
        assert got[name] == (DegenerationError,
                             "line fan needs a complete quotient fan")
    for name in set(routes) - {"p3_edge_exit", "b1_not_cartier"} - incomplete:
        assert not isinstance(got[name][0], type), name
    # with no labels, b1's and v2's spines meet summands: construction
    # refuses them
    for name in ("b1", "v2"):
        with pytest.raises(DegenerationError) as err:
            line_fan_data(*routes[name])
        assert str(err.value) == "slab S0: spine span 0 != 6 attachments"
    # the fixture and product entry points build the same slabs
    fixture = data_from_fixture(load_fixture("b3_cubic"))
    assert summary(fixture.slabs, fixture.ray_summands,
                   fixture.vertex_count) == got["b3_cubic"]
    for name in PRODUCTS:
        d = product_data(bundled_polygon(name), name)
        assert summary(d.slabs, d.ray_summands, d.vertex_count) == got[name]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32))
def test_gl3_images_match_the_fraction_route(seed):
    g = random_unimodular3(random.Random(seed))
    for route in base_routes().values():
        check_route(image(route, g))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32))
def test_gl2_images_of_product_bases_match_the_fraction_route(seed):
    h = random_unimodular2(random.Random(seed))
    for name in PRODUCTS:
        q = Polygon([tuple(mat_vec(h, list(v)))
                     for v in bundled_polygon(name).vertices])
        route = product_route(q)
        assert not isinstance(check_route(route)[0], type)
        d = product_data(q)
        assert summary(d.slabs, d.ray_summands,
                       d.vertex_count) == outcome(ref_line_fan, *route)


def edge_ends(dual):
    return [tuple(dual.vertices[j] for j in sorted(e.vertex_ids))
            for e in dual.edges]


def ref_rule_values(dual, rules):
    edge_values = {}  # a_E: the value of the first rule whose point is on E
    for i, (ea, eb) in enumerate(edge_ends(dual)):
        edge_values[i] = next((value for meets, value in rules
                               if on_segment(meets, ea, eb)), 0)
    return edge_values


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.none(), st.integers(0, 2 ** 32)))
def test_rule_values_match_the_segment_scan(seed):
    # rule points at every vertex, edge point and facet centre of each polar
    # polytope, and just off them; values tell the rules apart, and a vertex
    # (on several edges) comes before the edge points.  A rule whose point
    # is on no edge is refused
    table = bundled_polytopes()
    for name in sorted(k for k in table if k != "polygons"):
        verts = table[name]["vertices"]
        if seed is not None:
            m = random_unimodular3(random.Random(seed))
            verts = [tuple(mat_vec(m, list(v))) for v in verts]
        dual = LatticePolytope(verts).polar_dual()
        vs = dual.vertices
        pts = list(vs)
        for e in dual.edges:
            a, b = (vs[i] for i in sorted(e.vertex_ids))
            pts += [tuple(Fraction(x + 2 * y, 3) for x, y in zip(a, b)),
                    tuple(2 * y - x for x, y in zip(a, b))]
        for f in dual.facets:
            pts.append(tuple(Fraction(sum(c), len(f.cycle))
                             for c in zip(*(vs[i] for i in f.cycle))))
        pts += [tuple(x + Fraction(1, 7) for x in p) for p in pts[::3]]
        rules = [(_clean(p), k + 1) for k, p in enumerate(pts)]
        labels = [any(on_segment(p, *ends) for ends in edge_ends(dual))
                  for p, _ in rules]
        for (p, value), label in zip(rules, labels):
            if not label:
                with pytest.raises(DegenerationError, match="on no edge"):
                    _rule_values(dual, [(p, value)])
        rules = [r for r, label in zip(rules, labels) if label]
        rng = random.Random(seed or 0)
        for order in (rules, rules[::-1], rng.sample(rules, len(rules))):
            assert _rule_values(dual, order) == ref_rule_values(dual, order)


# ---------------------------------------------------------------------------
# products read off Q's edge normals, and the slice cut to the 2-cone


def product_outcome(q: Polygon):
    """(P, slab coefficients, each slab's nonzero ones) of `product_data`
    over q, or its refusal."""
    try:
        d = product_data(q)
    except (DegenerationError, PolytopeError) as exc:
        return type(exc), str(exc)
    return (d.polytope.vertices, [s.coeffs for s in d.slabs],
            [[c for c in s.coeffs if c] for s in d.slabs])


def ref_product_outcome(q: Polygon):
    """The same by the `Fraction` polar of q and its tight-vertex search,
    with slab k's one nonzero coefficient the value of vertex k's rule."""
    try:
        p, rules = ref_product_rules(q)
        d = line_fan_data(p, (0, 0, 1), [(x, y, 0) for x, y in q.vertices],
                          [{"meets": m, "value": v} for m, v in rules])
    except (DegenerationError, PolytopeError) as exc:
        return type(exc), str(exc)
    return p.vertices, [s.coeffs for s in d.slabs], [[v] for _, v in rules]


def test_products_match_the_polar_route_on_bundled_bases_and_images():
    for seed in (None, 3, 17, 29, 41):
        for name in PRODUCTS:
            q = bundled_polygon(name)
            if seed is not None:
                h = random_unimodular2(random.Random(seed))
                q = Polygon([tuple(mat_vec(h, list(v))) for v in q.vertices])
            want = ref_product_outcome(q)
            assert not isinstance(want[0], type), (name, seed)
            assert product_outcome(q) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_products_match_the_polar_route_on_drawn_polygons(data):
    # a drawn polygon, mostly in a 3 x 3 box (reflexive whenever the origin
    # is interior), moved to put a drawn lattice point of it at the origin,
    # an interior one where it has one, and maybe shrunk by 2 or 3: each
    # refusal comes in the same order and words, and rational vertices are
    # refused by `Polygon`, before any product is built
    q = data.draw(lattice_polygons(span=data.draw(st.sampled_from((1, 1, 2)))))
    pts, edges = q.lattice_points(), q.edge_normals()
    inner = [v for v in pts if all(dot(n, v) > c for n, c in edges)]
    ox, oy = data.draw(st.sampled_from(inner or pts))
    k = data.draw(st.sampled_from((1, 1, 1, 2, 3)))
    moved = [(x - ox, y - oy) for x, y in q.vertices]
    if any(x % k for v in moved for x in v):
        with pytest.raises(PolytopeError,
                           match="^polygon coordinates must be ints$"):
            Polygon([tuple(Fraction(x, k) for x in v) for v in moved])
        return
    q = Polygon([(x // k, y // k) for x, y in moved])
    assert product_outcome(q) == ref_product_outcome(q)


def slice_routes(seed):
    """(name, P*, its spine, each 2-cone's (nu, half)) of every line fan of
    `base_routes` that `line_fan` accepts, moved by a seeded GL(3,Z) map
    unless the seed is None."""
    routes = base_routes()
    if seed is not None:
        g = random_unimodular3(random.Random(seed))
        routes = {name: image(route, g) for name, route in routes.items()}
    for name, (p, direction, rays2d, _) in routes.items():
        try:
            dirv, fan_rays = line_fan(direction, rays2d)
        except DegenerationError:
            continue
        dual = p.polar_dual()
        rows, den = dual.vertex_rows
        levels = [dot(f.normal, rows[f.cycle[0]]) for f in dual.facets]
        spine = []
        for r in (dirv, tuple(-x for x in dirv)):
            num, t_den = _exit_point(dual, levels, r)
            spine.append(tuple(_quotient(x * num, t_den * den) for x in r))
        yield name, dual, spine, [_two_cone(dirv, w) for w in fan_rays]


@pytest.mark.parametrize("seed", [None, 5, 23, 71])
def test_slice_inside_the_two_cone_matches_slice_then_clip(seed):
    # as multisets: no slice point is the spine's end, and none comes twice
    ends_on_vertices = 0
    for name, dual, spine, cones in slice_routes(seed):
        rows, den = dual.vertex_rows
        ends_on_vertices += sum(e in dual.vertices for e in spine)
        for nu, half in cones:
            whole, flat = whole_plane_slice(dual, rows, den, nu)
            pts, got_flat = _plane_slice(dual, rows, den, nu, half)
            assert Counter(pts + spine) == \
                Counter(clip_halfplane(whole, half, spine)), name
            assert got_flat == flat
    assert ends_on_vertices  # a spine that leaves P* through a vertex


def test_products_and_b3_cubic_build_no_fraction(monkeypatch):
    built = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    for name in PRODUCTS:
        analyze(product_data(bundled_polygon(name), name))
    analyze(data_from_fixture(load_fixture("b3_cubic")))
    monkeypatch.undo()
    assert built == []
