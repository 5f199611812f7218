import ast
import copy
import inspect
import itertools
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from fanoscope.degeneration import (ROLE_BOUNDARY, ROLE_SPINE,
                                    DegenerationData, DegenerationError,
                                    NotCartier, NotNef, RaySummand, Sections,
                                    Slab, _attach, _edge_name, _exit,
                                    _ray_name, _ray_word, _space_order,
                                    _tied, line_fan, line_fan_data,
                                    quotient_functional, ray_lattice)
from fanoscope.discriminant import DiscriminantGraph, Node, dual_graph
from fanoscope.fileio import bundled_polytopes, load_fixture
from fanoscope.linalg import (clear_denominators, kernel_basis, lex_positive,
                              primitive, saturate)
from fanoscope.minkowski import Summand, enumerate_smooth_decompositions
from fanoscope.polytope import (Edge, Facet, LatticePolytope, Polygon,
                                PolytopeError, _clean, _hull2d, _lattice_index,
                                _quotient, cross, dot, embed_polygon,
                                gorenstein_index, is_integral,
                                lattice_length, plane_basis, plane_coords,
                                vadd, vsub)



def plane_normal(a, b):
    """`polytope.plane_normal` as it was, the rows reference of
    `LatticePolytope.edge_annihilators`: the primitive lex-positive
    annihilator of the plane spanned by a and b."""
    return lex_positive(primitive(cross(a, b)))


def ref_edge_length(p: LatticePolytope, edge) -> int:
    """`LatticePolytope.edge_length` as it was: the lattice length of an
    edge of p."""
    a, b = (p.vertices[i] for i in sorted(edge.vertex_ids))
    return lattice_length(a, b)


def ref_dual_edge_length(p: LatticePolytope, edge) -> int:
    """`LatticePolytope.dual_edge_length` as it was: the lattice length of
    the edge of the polar dual through the dual vertices of the edge's two
    facets."""
    f1, f2 = (p.facets[i] for i in sorted(edge.facet_ids))
    return lattice_length(f1.dual, f2.dual)

def db_path():
    path = os.environ.get("FANOSCOPE_DB")
    if path and os.path.exists(path):
        return path
    return None


needs_db = pytest.mark.skipif(db_path() is None,
                              reason="reflexive database not supplied "
                                     "(set FANOSCOPE_DB)")


@pytest.fixture(scope="session")
def database():
    from fanoscope.fileio import ingest_database
    return {i: p for i, p in ingest_database(db_path())}


def _frac(v):
    return tuple(Fraction(x) for x in v)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def facet_polygon(p: LatticePolytope, facet):
    """The facet as a Polygon in its saturated rank-2 lattice (what
    `LatticePolytope.facet_polygon` returned)."""
    pts = [p.vertices[i] for i in facet.cycle]
    poly, basis, base = embed_polygon(pts)
    return poly, basis, base


def dilate_polygon(poly: Polygon, k) -> Polygon:
    """k * poly, as `Polygon.dilate` returned it."""
    return Polygon([tuple(k * x for x in v) for v in poly.vertices])


def dilate_polytope(p: LatticePolytope, k) -> LatticePolytope:
    """k * P, as `LatticePolytope.dilate` returned it."""
    return LatticePolytope([tuple(k * x for x in v) for v in p.vertices])


def same_polytope(p, q) -> bool:
    """`LatticePolytope.__eq__` as it was: the same sorted vertex tuple."""
    return isinstance(q, LatticePolytope) and p.vertices == q.vertices


def ref_facet_in_ray_coords(p_dual: LatticePolytope, vertex_id: int,
                            w_basis):
    """Dual facet of a vertex of the polar polytope, written in W-coords and
    translation-normalized: the lex-least point is a vertex, and it moves to
    the origin.  Its vertex cycle (`ref_vertices`), rational on some polar
    duals."""
    # `degeneration.facet_in_ray_coords` as it was, before it read the facet
    # cycle of P: the facet's vertices from the incidence sets of P*, mapped
    # by `plane_coords` and hulled.
    verts = dual_face_vertices(p_dual, [vertex_id])
    coords = plane_coords(w_basis, [vsub(v, verts[0]) for v in verts])
    low = min(coords)
    return ref_vertices([vsub(c, low) for c in coords])


def dual_face_vertices(p: LatticePolytope, vertex_ids):
    """The dual vertices of the facets of p through all the given vertex
    ids, in facet order (`LatticePolytope.dual_face_vertices` as it was,
    for a proper face): the vertices of the face dual to theirs."""
    return [f.dual for f in p.facets
            if all(vid in f.vertex_ids for vid in vertex_ids)]


def ref_cycle_in_ray_coords(p: LatticePolytope, facet, w_basis):
    """`degeneration.facet_in_ray_coords` as it was, before the ray pass
    read the edge word: a facet of P in the coordinates of a basis (b0, b1)
    of the plane parallel to it, translation-normalized, the facet cycle
    reversed when <b0 x b1, n> < 0.  It passed `hull=False`; the hull of a
    convex cycle is the same polygon, given here as its vertex cycle
    (`ref_vertices`), rational on some polar duals."""
    b0, b1 = w_basis
    c = cross(b0, b1)
    ex, ey = cross(b1, c), cross(c, b0)
    norm2 = dot(c, c)
    cycle = facet.cycle if dot(c, facet.normal) > 0 else facet.cycle[::-1]
    raw = [(dot(ex, v), dot(ey, v)) for v in map(p.vertices.__getitem__,
                                                  cycle)]
    x0, y0 = min(raw)
    return ref_vertices([(_quotient(x - x0, norm2), _quotient(y - y0, norm2))
                         for x, y in raw])


def ref_ray_target(p: LatticePolytope, f, w_basis, ray):
    """`degeneration._ray_target` as it was: `ref_cycle_in_ray_coords` of
    P's facet f divided by r = -f.level; raises, naming the ray, unless r
    divides every vertex.  Its edge word is what `_ray_word` gives.  A
    vertex cycle, as `ref_cycle_in_ray_coords` gives it."""
    facet = ref_cycle_in_ray_coords(p, f, w_basis)
    r = -f.level
    if r == 1:
        return facet
    if any(x % r for v in facet for x in v):
        raise DegenerationError(
            f"no smooth Minkowski decomposition: facet of ray {ray} is not "
            f"divisible by its index {r}")
    return ref_vertices([tuple(x // r for x in v) for v in facet])


def word_polygon(word) -> Polygon:
    """The convex polygon whose boundary word is `word`: its letters in
    ccw angular order, summed from the origin."""
    def half(v):  # 0 on angles in [0, pi), 1 on [pi, 2 pi)
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def ccw(u, v):
        return half(u) - half(v) or u[1] * v[0] - u[0] * v[1]

    pts = [(0, 0)]
    for v in sorted(word, key=cmp_to_key(ccw)):
        pts.append(vadd(pts[-1], v))
    return Polygon(pts)


def on_segment(p, a, b) -> bool:
    """p lies on the segment [a, b], a != b (`degeneration._on_segment` as
    it was)."""
    pa, ab = vsub(p, a), vsub(b, a)
    return not any(cross(pa, ab)) and 0 <= dot(pa, ab) <= dot(ab, ab)


def point_counts(p: LatticePolytope):
    """(total, interior, boundary) lattice points of p, as
    `LatticePolytope.point_counts` returned them."""
    total = interior = 0
    for x in p.lattice_points():
        total += 1
        if all(dot(f.normal, x) > f.level for f in p.facets):
            interior += 1
    return total, interior, total - interior


def raise_lines(module):
    """The line of every `raise` statement in module's source."""
    tree = ast.parse(inspect.getsource(module))
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise)}


def executed_lines(fn, modules):
    """Call fn under a `sys.settrace` tracer that follows only the frames
    of `modules`; returns (what fn raised, or None; the {(module name,
    line)} that ran)."""
    files = {m.__file__: m.__name__ for m in modules}
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((files[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    except Exception as exc:  # returned for the caller to check
        return exc, ran
    finally:
        sys.settrace(old)
    return None, ran


def bundled(name) -> LatticePolytope:
    return LatticePolytope(bundled_polytopes()[name]["vertices"])


def bundled_polygon(name) -> Polygon:
    return Polygon(bundled_polytopes()["polygons"][name])


def product_labels(q: Polygon):
    """a_v = l(v*) for each vertex v of a reflexive polygon Q, in its
    order, read off Q's edge normals: vertex i lies on edges i - 1 and i,
    so v* is [n_(i-1), n_i]."""
    normals = [n for n, _ in q.edge_normals()]
    return [gcd(a - c, b - d)
            for (a, b), (c, d) in zip(normals[-1:] + normals[:-1], normals)]


def dual_labels(p: LatticePolytope):
    """l(E*) / r(E*) for each edge E of P*, in its order, as
    `normal_fan_data`'s docstring derives it: E* = [v, w] is the edge of P
    through the vertices dual to E's two facets, l its lattice length and
    r its Gorenstein index."""
    dual = p.polar_dual()
    return [ref_dual_edge_length(dual, e)
            // gorenstein_index([p.vertices[j] for j in e.facet_ids])
            for e in dual.edges]


def edge_labels(data):
    """{edge i: its label} of normal-fan data, read off the one boundary
    edge of slab E<i>, where `normal_fan_data` puts it."""
    return {i: s.coeffs[s.roles.index(ROLE_BOUNDARY)]
            for i, s in enumerate(data.slabs)}


def malformed_slab_fixtures():
    """id -> (mm2_2's slab fixture with one fault, the message with which
    `DegenerationData.validate` refuses it), one per raise of `validate`,
    and "endpoints", whose ray edges no longer sum to 3p + 2d, which the
    per-slab checks refuse at the slab that lost an attachment.  mm2_2 has
    12 triangles, and its ray edges span 36 = 3p."""
    messages = {
        "endpoints": "slab P2: edge span 4 != 3 attachments for ray:R1",
        "edge_span": "slab P112a: edge span 2 != 4 attachments for ray:R1",
        "spine": "slab P2: spine span 4 != 0 attachments",
        "unattached": "slab P2: unattached ray edges {'ray:R5': 4}"}
    docs = {key: load_fixture("mm2_2") for key in messages}
    # one R1 triangle fewer, so 3p = 33 below the same spans
    docs["endpoints"]["rays"]["R1"][0]["count"] = 3
    # P112a's two ray edges swapped: the total still matches 3p, but R1
    # meets a span-2 edge with 4 attachments
    docs["edge_span"]["slabs"][1]["roles"] = {"0": "ray:R3", "2": "ray:R1"}
    # R2's triangles leave P2 for F1, and P2's R2 edge becomes a spine, or
    # the edge of a ray with no summands
    for key, role in (("spine", "spine"), ("unattached", "ray:R5")):
        docs[key]["rays"]["R2"][0]["slabs"] = ["P112b", "SQb", "F1"]
        docs[key]["slabs"][0]["roles"]["2"] = role
    return {key: (docs[key], messages[key]) for key in messages}


def unparsable_slab_fixtures():
    """id -> (mm2_2's slab fixture with one value of the wrong shape, the
    message of the `ParseError` that refuses it, naming the slab or ray and
    the key).  mm2_2's first slab, P2, is a triangle."""
    def slab(**kw):
        return lambda d: d["slabs"][0].update(kw)

    def edge(key, idx, value):
        return lambda d: d["slabs"][0][key].update({idx: value})

    def entry(**kw):
        return lambda d: d["rays"]["R1"][0].update(kw)

    changes = {
        "coeffs_index": (edge("coeffs", "3", 1),
                         "slab P2: coeffs key '3' names no edge 0..2"),
        "roles_index": (edge("roles", "7", "spine"),
                        "slab P2: roles key '7' names no edge 0..2"),
        "coeffs_list": (slab(coeffs=[0, 4, 0]), "slab P2: coeffs must be "
                        "a JSON object, not [0, 4, 0]"),
        "roles_list": (slab(roles=["ray:R1"]), "slab P2: roles must be a "
                       "JSON object, not ['ray:R1']"),
        "role_number": (edge("roles", "0", 5),
                        "slab P2: roles['0'] must be a JSON string, not 5"),
        "coeffs_value": (edge("coeffs", "1", "4"),
                         "slab P2: coeffs['1'] must be a JSON integer, not "
                         "'4'"),
        "rays_list": (lambda d: d.update(rays=[]),
                      "slab fixture rays must be a JSON object, not []"),
        "entries_object": (lambda d: d["rays"].update(R1={"kind": "point"}),
                           "ray R1 must be a JSON list, not {'kind': "
                           "'point'}"),
        "slabs_number": (entry(slabs=3),
                         "ray R1 entry slabs must be a JSON list, not 3"),
        "count_fraction": (entry(count=1.5), "ray R1 entry count must be "
                           "a JSON integer, not 1.5"),
        "count_text": (entry(count="four"), "ray R1 entry count must be a "
                       "JSON integer, not 'four'"),
        "entry_kind": (entry(kind="disk"), "ray R1 entry kind must be "
                       "point, segment or triangle, not 'disk'"),
        "entry_unknown_slab": (entry(slabs=["NOPE", "P2", "SQa"]),
                               "ray R1 entry slabs must be 3 distinct slabs "
                               "of the fixture for a triangle, not "
                               "['NOPE', 'P2', 'SQa']"),
        "entry_segment_on_three": (entry(kind="segment"),
                                   "ray R1 entry slabs must be 2 distinct "
                                   "slabs of the fixture for a segment, not "
                                   "['P2', 'P112a', 'SQa']"),
        "entry_point_on_slabs": (entry(kind="point"),
                                 "ray R1 entry slabs must be 0 distinct "
                                 "slabs of the fixture for a point, not "
                                 "['P2', 'P112a', 'SQa']"),
        "entry_repeated_slab": (entry(slabs=["P2", "P2", "SQa"]),
                                "ray R1 entry slabs must be 3 distinct "
                                "slabs of the fixture for a triangle, not "
                                "['P2', 'P2', 'SQa']"),
        "vertex_count": (lambda d: d.update(vertex_count="x"),
                         "fixture vertex_count must be a JSON integer, "
                         "not 'x'"),
        "b2_value": (lambda d: d["b2"].update(value="two"),
                     "fixture b2 value must be a JSON integer, not 'two'"),
        "slab_name_repeated": (lambda d: d["slabs"].append(
                                   copy.deepcopy(d["slabs"][5])),
                               "slab F1: the name of an earlier slab")}
    out = {}
    for key, (change, message) in changes.items():
        doc = load_fixture("mm2_2")
        change(doc)
        out[key] = (doc, message)
    return out


def mistyped_fixtures():
    """id -> (a bundled fixture with one value of the wrong JSON type, or
    with a key its kind does not read, and the message of the `ParseError`
    that refuses it, naming the key)."""
    # v2's edge labels are derived, so a fixture that still carries them,
    # in any form, is refused by its key; a choice is a list
    labels = "fixture key 'edge_values' is not read by a normal_fan fixture"
    choices = "choice must be a list of integers, not "
    changes = {
        "edge_values_list": ("v2", {"edge_values": [6, 6, 6]}, labels),
        "edge_values_text": ("v2", {"edge_values": "6"}, labels),
        "edge_values_fraction": ("v2", {"edge_values": 6.5}, labels),
        "edge_values_true": ("v2", {"edge_values": True}, labels),
        "edge_value_text": ("v2", {"edge_values": {"0": "6"}}, labels),
        "choice_number": ("v2", {"choice": 5}, choices + "5"),
        "choice_text": ("v2", {"choice": "0000"}, choices + "'0000'"),
        "choice_entry_text": ("v2", {"choice": ["0", 0, 0, 0]},
                              choices + "['0', 0, 0, 0]"),
        "choice_value_text": ("v2", {"choice": {"0": "1"}},
                              choices + "{'0': '1'}"),
        "choice_object": ("v2", {"choice": {"0": 0, "1": 0, "2": 0, "3": 0}},
                          choices + "{'0': 0, '1': 0, '2': 0, '3': 0}"),
        "polytope_empty": ("v2", {"polytope": []},
                           "fixture polytope: expected 3-space points"),
        "polytope_point": ("v2", {"polytope": [[1, 0, 0], 5]},
                           "fixture polytope entry must be a list of 3 "
                           "integers, not 5"),
        "kind_list": ("mm2_2", {"kind": ["slabs"]},
                      "unknown fixture kind ['slabs']"),
        "name_number": ("mm2_2", {"name": 5},
                        "fixture name must be a JSON string, not 5"),
        "slabs_object": ("mm2_2", {"slabs": {}},
                         "slab fixture slabs must be a JSON list, not {}"),
        "slab_name_list": ("mm2_2", {"slabs": [{"name": [],
                                                 "polygon": [[0, 0], [1, 0],
                                                             [0, 1]]}]},
                           "slab 0 name must be a JSON string, not []"),
        "slab_polygon_text": ("mm2_2", {"slabs": [{"name": "S",
                                                    "polygon": "abc"}]},
                              "slab S: polygon must be a JSON list, not "
                              "'abc'"),
        "direction_letter": ("b3_cubic", {"direction": "z"},
                             "direction must be a list of 3 integers, not "
                             "'z'"),
        "direction_plane": ("b3_cubic", {"direction": [0, 1]},
                            "direction must be a list of 3 integers, not "
                            "[0, 1]"),
        "rays2d_number": ("b3_cubic", {"rays2d": 3},
                          "rays2d must be a JSON list, not 3"),
        "edge_data_object": ("b3_cubic",
                             {"edge_data": {"meets": [0, 0, 1], "value": 3}},
                             "edge_data must be a JSON list, not {'meets': "
                             "[0, 0, 1], 'value': 3}"),
        "edge_data_without_meets": ("b3_cubic", {"edge_data": [{"value": 3}]},
                                    "edge_data entry 0 without required key "
                                    "'meets'"),
        "meets_true": ("b3_cubic", {"edge_data": [{"meets": [0, 0, True],
                                                    "value": 3}]},
                       "edge_data entry 0 meets must be a list of 3 "
                       "numbers, not [0, 0, True]"),
        "edge_data_value": ("b3_cubic", {"edge_data": [{"meets": [0, 0, 1],
                                                         "value": "3"}]},
                            "edge_data entry 0 value must be a JSON integer, "
                            "not '3'")}
    out = {}
    for key, (name, change, message) in changes.items():
        # keys sorted, as in the bundled files
        doc = {**load_fixture(name), **change}
        out[key] = (dict(sorted(doc.items())), message)
    out["base_polygon_3d"] = (
        {"kind": "product", "base_polygon": [[1, 0, 0], [0, 1, 0]]},
        "base_polygon entry must be a list of 2 integers, not [1, 0, 0]")
    return out


# id -> (the text of a polytope file, the message of the `ParseError` that
# refuses it, naming the key)
MISTYPED_POLYTOPES = {
    "vertices_number": ('{"vertices": 5}',
                        "polytope vertices must be a JSON list, not 5"),
    "vertices_text": ('{"vertices": "abc"}',
                      "polytope vertices must be a JSON list, not 'abc'"),
    "vertices_nested": ('{"vertices": [[[1]]]}', "polytope vertices entry "
                        "must be a list of 3 integers, not [[1]]"),
    "json_list": ("[1, 2]", "polytope JSON must be a JSON object")}

P3_ROW = {"name": "P3", "palp": 0, "degree": 64, "p": 4, "n": 24, "chi": 4,
          "method": "db"}


def mistyped_manifests():
    """id -> (a table manifest with one fault, the message of the
    `ParseError` that refuses it, naming the key and the row)."""
    def row(**kw):
        return {"rows": [P3_ROW, {k: v for k, v in {**P3_ROW, **kw}.items()
                                  if v is not None}]}

    return {
        "list": ([P3_ROW], "manifest must be a JSON object"),
        "no_rows": ({"row": [P3_ROW]}, "manifest without required key "
                    "'rows'"),
        "rows_object": ({"rows": P3_ROW}, "manifest rows must be a JSON "
                        f"list, not {P3_ROW!r}"),
        "row_text": ({"rows": ["P3"]},
                     "manifest row 0 must be a JSON object"),
        "no_degree": (row(degree=None), "manifest row 1 without required "
                      "key 'degree'"),
        "degree_text": (row(degree="64"), "manifest row 1 degree must be a "
                        "JSON integer, not '64'"),
        "palp_text": (row(palp="0"), "manifest row 1 palp must be a JSON "
                      "integer, not '0'"),
        "method_list": (row(method=["db"]), "manifest row 1 method must be "
                        "a JSON string, not ['db']"),
        "unknown_polygon": (row(method="product:circle"), "manifest row 1 "
                            "method names no bundled product 'circle'"),
        "unknown_fixture": (row(method="fixture:p3"), "manifest row 1 "
                            "method names no bundled fixture 'p3'")}


# the kernel-rows route that `ray_lattice` took before its closed form,
# the reference basis of the ray-order property test
def ref_ray_lattice(dir3):
    u = primitive(dir3)
    ker = kernel_basis([list(u)])
    denom = 1
    for v in ker:
        for x in v:
            denom = denom * Fraction(x).denominator // gcd(denom, Fraction(x).denominator)
    rows = [[int(Fraction(x) * denom) for x in v] for v in ker]
    basis = saturate(rows)
    return [tuple(b) for b in basis]


def random_unimodular3(rng: random.Random):
    """Random element of GL(3, Z) as a product of elementary matrices."""
    from fanoscope.linalg import identity
    m = identity(3)
    for _ in range(8):
        e = identity(3)
        i, j = rng.sample(range(3), 2)
        op = rng.randrange(3)
        if op == 0:
            e[i][j] = rng.randrange(-2, 3)
        elif op == 1:
            e[i][i] = 0
            e[j][j] = 0
            e[i][j] = 1
            e[j][i] = 1
        else:
            e[i][i] = -1
        m = mat_mul(m, e)
    return m


# a non-reflexive Fano simplex whose edge E5 of P* has l(E*) = r(E*) = 2
W_SIMPLEX = ((-2, 0, -1), (-2, 0, 1), (0, -2, -1), (2, 2, 1))

NORMAL_FAN_POLYTOPES = ("b4_intersection", "cube", "hexagon_cone",
                        "octahedron", "p3", "q3_quadric")


def normal_fan_routes(seed=None):
    """Degeneration data of every bundled normal-fan route: the v2 fixture
    and each method-1 polytope under each decomposition choice, 8 in all.
    With a seed, the same routes on the images of the polytopes (v2's
    included) under one seeded GL(3,Z) map."""
    from fanoscope.degeneration import (decomposition_regimes, method1_data,
                                        normal_fan_data)
    from fanoscope.fileio import data_from_fixture, load_fixture

    def image(name):
        verts = bundled(name).vertices
        if seed is not None:
            m = random_unimodular3(random.Random(seed))
            verts = [tuple(mat_vec(m, list(v))) for v in verts]
        return LatticePolytope(verts)

    datas = [data_from_fixture(load_fixture("v2")) if seed is None
             else normal_fan_data(image("v2"))]
    for name in NORMAL_FAN_POLYTOPES:
        p = image(name)
        counts = [len(r) for r in decomposition_regimes(p)]
        datas += [method1_data(p, choice)
                  for choice in itertools.product(*map(range, counts))]
    return datas


def densify(rows, ncols):
    """{column: entry} rows written out as full-width lists."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def random_unimodular2(rng: random.Random):
    from fanoscope.linalg import identity
    m = identity(2)
    for _ in range(6):
        e = identity(2)
        if rng.randrange(2):
            e[0][1] = rng.randrange(-2, 3)
        else:
            e[1][0] = rng.randrange(-2, 3)
        if rng.randrange(4) == 0:
            e[0][0] *= -1
        m = mat_mul(m, e)
    return m


@st.composite
def lattice_polygons(draw, span=5):
    """Integral polygons: hulls of points drawn in [-span, span]^2, or boxes
    with a corner cut (so vertical and horizontal edges are common), moved
    by a translation."""
    coord = st.integers(-span, span)
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
    else:
        x0, y0 = draw(coord), draw(coord)
        w, h = draw(st.integers(1, span + 1)), draw(st.integers(1, span + 1))
        cut = draw(st.integers(0, min(w, h)))
        pts = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h - cut),
               (x0 + w - cut, y0 + h), (x0, y0 + h)]
    tx, ty = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    try:
        return Polygon([(x + tx, y + ty) for x, y in pts])
    except PolytopeError:
        assume(False)


def ref_hull3d_facets(pts, ipts):
    """`polytope._hull3d_facets` as it was, with every value of every
    candidate plane computed: (primitive inner normal, level, member
    indices) of every facet of the hull of pts; ipts are the same points
    scaled to integers, on which every candidate plane is tested."""
    n = len(pts)
    if n < 4:
        raise PolytopeError("not full-dimensional")
    seen = {}
    planes = set()  # every plane tested so far, in one orientation
    for i, j, k in combinations(range(n), 3):
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = ipts[i], ipts[j], ipts[k]
        ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
        vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
        a, b, c = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        g = gcd(a, b, c)
        if g == 0:
            continue
        if a < 0 or (a == 0 and (b < 0 or (b == 0 and c < 0))):
            g = -g  # the lex-larger of the two orientations
        a, b, c = a // g, b // g, c // g
        lvl = a * x0 + b * y0 + c * z0
        if (a, b, c, lvl) in planes:
            continue
        planes.add((a, b, c, lvl))
        vals = [a * x + b * y + c * z for x, y, z in ipts]
        if min(vals) == lvl:
            nrm = (a, b, c)
        elif max(vals) == lvl:
            nrm = (-a, -b, -c)
        else:
            continue
        seen[nrm] = (dot(nrm, pts[i]),
                     [m for m, v in enumerate(vals) if v == lvl])
    facets = [(nrm, c, members) for nrm, (c, members) in seen.items()]
    if len(facets) < 4:
        raise PolytopeError("not full-dimensional")
    return facets


def edge_vector_multiset(poly: Polygon):
    """Boundary word, sorted: each edge contributes its lattice length
    of copies of its primitive direction; the multiset sums to zero
    and is what `enumerate_smooth_decompositions` takes
    (`Polygon.edge_vector_multiset` as it was)."""
    out = []
    for a, b in poly.edges():
        length = lattice_length(a, b)
        out.extend([tuple(x // length for x in vsub(b, a))] * length)
    return sorted(out)


def normalized(poly: Polygon) -> Polygon:
    """poly moved so that its lex-least vertex sits at the origin
    (`Polygon.normalized` as it was)."""
    v0 = poly.vertices[0]
    return Polygon([vsub(v, v0) for v in poly.vertices])


def ref_minkowski_sum(summands):
    """`minkowski.minkowski_sum` as it was, reading a summand's vertices
    once per accumulated point: the Minkowski sum of summands as a
    translation-normalized polygon or, when degenerate, the sorted vertex
    list of the sum."""
    pts = [(0, 0)]
    for s in summands:
        pts = sorted({(x + u, y + w)
                      for x, y in pts for u, w in s.polygon_vertices()})
    mx, my = min(pts)
    pts = [(x - mx, y - my) for x, y in pts]
    try:
        return Polygon(pts)
    except PolytopeError:
        return sorted(set(pts))


# `minkowski.segment` and `minkowski.triangle` as they were: the enumerator
# now keys its summands by plain (kind, vectors) tuples


def segment(v) -> Summand:
    return Summand("segment", (lex_positive(v),))


def triangle(v1, v2, v3) -> Summand:
    """Canonical triangle summand: ccw edge cycle rotated to lex-min start."""
    vs = [tuple(v1), tuple(v2), tuple(v3)]
    d = vs[0][0] * vs[1][1] - vs[0][1] * vs[1][0]
    if d < 0:
        vs = [vs[0], vs[2], vs[1]]  # reorder the same vectors into a ccw cycle
    k = min(range(3), key=lambda i: vs[i])
    return Summand("triangle", tuple(vs[k:] + vs[:k]))


# ---------------------------------------------------------------------------
# the kernels as they were before they read integer rows, the references of
# `tests/test_integer_rows.py`: each body is the routine's own, verbatim,
# with `self` the polygon or polytope passed in


def face_length(points, n) -> int:
    """Lattice length of the face of conv(points) that minimizes <., n>;
    0 at a vertex (`polytope.face_length` as it was)."""
    vals = [dot(n, p) for p in points]
    lo = min(vals)
    face = [p for p, v in zip(points, vals) if v == lo]
    return lattice_length(min(face), max(face))


def ref_edge_normals(vertices):
    """`Polygon.edge_normals` as it was: one `primitive` and one `dot` per
    edge, on a ccw vertex cycle, possibly rational (a `Polygon`'s vertices
    or `ref_vertices`)."""
    out = []
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        d = vsub(b, a)
        n = primitive((-d[1], d[0]))  # inner for ccw orientation
        out.append((n, dot(n, a)))
    return tuple(out)


def ref_lattice_points(self):
    """`LatticePolytope.lattice_points` as it was: every point of the
    bounding box tested against every facet."""
    if not self.is_integral:
        raise PolytopeError("lattice points of a non-integral polytope")
    lo = [min(v[i] for v in self.vertices) for i in range(3)]
    hi = [max(v[i] for v in self.vertices) for i in range(3)]
    pts = []
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            for z in range(lo[2], hi[2] + 1):
                p = (x, y, z)
                if all(dot(f.normal, p) >= f.level for f in self.facets):
                    pts.append(p)
    return pts


def ref_boundary_area(self):
    """`LatticePolytope.boundary_area` as it was, on the (possibly
    rational) vertices."""
    total = 0
    for f in self.facets:
        vs = [self.vertices[i] for i in f.cycle]
        s = reduce(vadd, map(cross, vs, vs[1:] + vs[:1]))
        total += _quotient(abs(dot(s, f.normal)), dot(f.normal, f.normal))
    return _clean((total,))[0]


def ref_dual_from_faces(self) -> LatticePolytope:
    """`LatticePolytope._dual_from_faces` as it was: orientation signs and
    levels read off the dual's (possibly rational) vertices."""
    vertices = tuple(f.dual for f in self.facets)
    rings = [{} for _ in self.vertices]  # adjacent facets around v
    for e in self.edges:
        f, g = e.facet_ids
        for v in e.vertex_ids:
            rings[v].setdefault(f, []).append(g)
            rings[v].setdefault(g, []).append(f)
    facets = []
    for v, ring in enumerate(rings):
        normal = primitive(self.vertices[v])
        start = min(ring)
        nxt, other = ring[start]
        # ccw about the normal: the other neighbour is on the left
        a = vertices[start]
        if dot(cross(vsub(vertices[nxt], a), vsub(vertices[other], a)),
               normal) < 0:
            nxt = other
        cycle = [start]
        for _ in range(len(ring) - 1):
            cycle.append(nxt)
            x, y = ring[nxt]
            nxt = y if x == cycle[-2] else x
        facets.append(Facet(normal, dot(normal, a), frozenset(cycle),
                            tuple(cycle)))
    edges = sorted((Edge(e.facet_ids, e.vertex_ids) for e in self.edges),
                   key=lambda e: sorted(e.vertex_ids))
    dual = LatticePolytope.__new__(LatticePolytope)
    dual._set_faces(vertices, tuple(facets), tuple(edges))
    dual._dual = self
    return dual


def ref_annihilators(data):
    """`gamma._annihilators` as it was, built anew on each call from the
    dual's (possibly rational) vertices."""
    dual = data.dual
    nus = [plane_normal(*(dual.vertices[i] for i in sorted(e.vertex_ids)))
           for e in dual.edges]
    return dual, nus


def ref_cell_class_data(dual: LatticePolytope, facet):
    """`invariants._cell_class_data` as it was, on the dual's (possibly
    rational) vertices."""
    rays = [facet.normal]
    cyc = list(facet.cycle)
    k = len(cyc)
    # k times the centroid: only the sign of <m, .> is read
    interior = tuple(map(sum, zip(*(dual.vertices[i] for i in cyc))))
    for t in range(k):
        a = dual.vertices[cyc[t]]
        b = dual.vertices[cyc[(t + 1) % k]]
        m = primitive(cross(a, b))
        if dot(m, interior) < 0:
            m = tuple(-x for x in m)
        rays.append(m)
    return _lattice_index(rays[1:])[1] // _lattice_index(rays)[1]


def ref_vertices(points):
    """The vertices of conv(points), rational or not, as `Sections` and
    `Polygon` gave them when they took rational points: the sorted points,
    or for 3 or more the hull, ccw from the lex-least vertex, each with its
    integral coordinates as ints."""
    pts = sorted({_clean(p) for p in points})
    return tuple(_hull2d(pts) if len(pts) >= 3 else pts)


class EmptyLinearSystem(DegenerationError):
    """The refusal of an empty system by the reference sections routines;
    `polygon_of_sections` refuses it as `NotNef`, since an empty S holds no
    corner of its vertex cones."""


def sections_refusal(exc):
    """A refusal of sections as `polygon_of_sections` must repeat it: the
    class alone for a divisor that is not nef, whose message the nef
    criterion words on its corners (`NotNef` for the references' empty
    system too), and the class and message otherwise."""
    if isinstance(exc, (NotNef, EmptyLinearSystem)):
        return NotNef
    return type(exc), str(exc)


def polygon_with_normals(normals):
    """A lattice polygon whose inner edge normals are `normals`, a complete
    fan in ccw order (each turn to the left, winding once), or None for any
    other list.  Its edge vectors are l_i t_i, t_i = n_i turned right, with
    l = the sum over i of the relation den t_i + A t_j + B t_(j+1) = 0 that
    puts -t_i in the cone of two consecutive t's, so each l_i >= den > 0."""
    k = len(normals)
    lower = [y < 0 or y == 0 > x for x, y in normals]
    if (k < 3 or any(a * d - b * c <= 0 for (a, b), (c, d) in
                     ((normals[i - 1], normals[i]) for i in range(k)))
            or sum(lower[i - 1] and not lower[i] for i in range(k)) != 1):
        return None
    t = [(n1, -n0) for n0, n1 in normals]
    lengths = [0] * k
    for u in range(k):
        u0, u1 = t[u]
        for j in range(k):
            (v0, v1), (w0, w1) = t[j], t[(j + 1) % k]
            a, b = u1 * w0 - u0 * w1, v1 * u0 - v0 * u1
            if a >= 0 and b >= 0:
                lengths[u] += v0 * w1 - v1 * w0
                lengths[j] += a
                lengths[(j + 1) % k] += b
                break
    pts, x, y = [], 0, 0
    for (t0, t1), l in zip(t, lengths):
        pts.append((x, y))
        x, y = x + l * t0, y + l * t1
    assert (x, y) == (0, 0)
    return Polygon(pts)


def ref_sections_one_pass(normals, coeffs) -> Sections:
    """`degeneration.polygon_of_sections` as it was: the corner test as an
    `all`, the slack test on the (possibly rational) vertices, Cartier as
    `is_integral` per vertex and each span a `lattice_length`.  The
    vertices of rational corners are `ref_vertices`, and `Sections` is
    built once they are integral."""
    k = len(normals)
    lower = [y < 0 or y == 0 > x for x, y in normals]
    if (any(a * d - b * c <= 0 for (a, b), (c, d) in
            ((normals[i - 1], normals[i]) for i in range(k)))
            or sum(lower[i - 1] and not lower[i] for i in range(k)) != 1):
        raise DegenerationError("edge normals are not in ccw order")
    cuts = [(n0, n1, -q) for (n0, n1), q in zip(normals, coeffs)]
    cands = set()
    for i in range(k):
        a, b = normals[i]
        for j in range(i + 1, k):
            c, d = normals[j]
            den = a * d - b * c
            if den == 0:
                continue
            # the corner of edges i and j in homogeneous coordinates (x:y:den)
            x = -coeffs[i] * d + coeffs[j] * b
            y = -coeffs[j] * a + coeffs[i] * c
            if den < 0:
                x, y, den = -x, -y, -den
            if all(n0 * x + n1 * y >= lvl * den for n0, n1, lvl in cuts):
                cands.add((x // den if x % den == 0 else Fraction(x, den),
                           y // den if y % den == 0 else Fraction(y, den)))
    if not cands:
        raise EmptyLinearSystem("empty linear system")
    verts = ref_vertices(cands)
    faces = []
    for n, q in zip(normals, coeffs):
        vals = [n[0] * x + n[1] * y for x, y in verts]
        if min(vals) != -q:
            raise NotNef(f"divisor not nef: slack on edge with normal {n}")
        faces.append([v for v, x in zip(verts, vals) if x == -q])
    if not all(map(is_integral, verts)):
        raise NotCartier("not Cartier: no integral section witness at a "
                         "vertex cone")
    sec = Sections(cands, normals, coeffs)
    sec.spans = tuple(lattice_length(min(f), max(f)) for f in faces)
    return sec


def ref_validate(self):
    """`DegenerationData.validate` as it was, verbatim, with `self` the data:
    the global ray-endpoint sum 3p + 2d, then the per-slab checks."""
    total_ray = sum(sum(s.ray_spans().values()) for s in self.slabs)
    if total_ray != 3 * self.p_count + 2 * self.d_count:
        raise DegenerationError(
            "ray-side endpoints do not match 3p + 2d "
            f"({total_ray} != {3 * self.p_count + 2 * self.d_count})")
    # per-slab per-ray attachment counts
    for slab in self.slabs:
        expect = {}
        for rs in self.ray_summands:
            if slab.name in rs.slabs:
                key = f"ray:{rs.ray}"
                expect[key] = expect.get(key, 0) + 1
        got = slab.ray_spans()
        spine = got.pop(ROLE_SPINE, 0)
        for key, cnt in expect.items():
            if key in got:
                if got[key] != cnt:
                    raise DegenerationError(
                        f"slab {slab.name}: edge span {got[key]} != "
                        f"{cnt} attachments for {key}")
                del got[key]
                expect[key] = 0
        spine_expect = sum(v for v in expect.values())
        if spine != spine_expect:
            raise DegenerationError(
                f"slab {slab.name}: spine span {spine} != "
                f"{spine_expect} attachments")
        if any(got.values()):
            raise DegenerationError(
                f"slab {slab.name}: unattached ray edges {got}")
    return True


def ref_match_summand_slabs(summand: Summand, slab_functionals: dict):
    """`degeneration.match_summand_slabs` as it was: the summand's vertex
    list and one `face_length` per functional."""
    verts = summand.polygon_vertices()
    hits = [name for name, f in slab_functionals.items()
            if face_length(verts, f) >= 1]
    need = {"segment": 2, "triangle": 3}[summand.kind]
    if len(hits) != need:
        raise DegenerationError(
            f"unmatched summand direction: {summand} met {hits}")
    return tuple(sorted(hits))


def polygon_polar(q: Polygon):
    """`degeneration._polygon_polar` as it was: the polar vertices n / -c
    of Q's edges (n, c), built as `Fraction`s."""
    verts = []
    for n, c in q.edge_normals():
        if c >= 0:
            raise DegenerationError("origin not interior to the base polygon")
        verts.append(tuple(Fraction(x, -c) for x in n))
    return [tuple(int(x) if x.denominator == 1 else x for x in v) for v in verts]


def dual_edge_length(v, qdualverts):
    """`degeneration._dual_edge_length` as it was.  Length of the edge of
    the polar dual on which v evaluates to -1.  The origin is interior to
    Q, so <u_e, .> >= -1 on Q for the polar vertex u_e of each edge e, with
    equality exactly on e's line; v lies on the lines of its two edges
    only, so two u are tight."""
    tight = [u for u in qdualverts if dot(u, v) == -1]
    return lattice_length(tight[0], tight[1])


def ref_product_rules(q: Polygon):
    """`degeneration.product_data` as it was, up to the line fan it builds:
    (P, [(point, value)] of its edge rule), or the refusal, in the old
    order (origin interior, then reflexive).  Its first refusal, a base
    polygon that is not integral, is `Polygon`'s own now."""
    qdualverts = polygon_polar(q)
    if not all(is_integral(v) for v in qdualverts):
        raise DegenerationError("base polygon must be reflexive "
                                "(r(v*) = 1 everywhere)")
    p = LatticePolytope([(v[0], v[1], 0) for v in qdualverts]
                        + [(0, 0, 1), (0, 0, -1)])
    return p, [((v[0], v[1], 0), dual_edge_length(v, qdualverts))
               for v in q.vertices]


def ref_product_data(q: Polygon, name="") -> DegenerationData:
    """`degeneration.product_data` as it was, through `line_fan_data`: the
    line fan over P* = Q x [-1, 1], one rule (v_k, 0) -> a_k per vertex of
    Q, then a `replace` that sets the kind (and checks the data again)."""
    edges = q.edge_normals()
    if any(c >= 0 for _, c in edges):
        raise DegenerationError("origin not interior to the base polygon")
    if any(c != -1 for _, c in edges):
        raise DegenerationError("base polygon must be reflexive "
                                "(r(v*) = 1 everywhere)")
    normals = [n for n, _ in edges]
    p = LatticePolytope([(x, y, 0) for x, y in normals]
                        + [(0, 0, 1), (0, 0, -1)])
    rules = [{"meets": (x, y, 0), "value": lattice_length(normals[i - 1], n)}
             for i, ((x, y), n) in enumerate(zip(q.vertices, normals))]
    data = line_fan_data(p, (0, 0, 1), [(x, y, 0) for x, y in q.vertices],
                         rules, name=name or "product data")
    return replace(data, kind="product")


def whole_plane_slice(poly: LatticePolytope, rows, den, nu):
    """`degeneration._plane_slice` as it was, before it took the 2-cone's
    half: vertices of the section of a 3-polytope by the plane ann(nu),
    and the ids of the polytope's edges that lie in that plane.

    rows are the polytope's vertices times den.  A vertex on the plane is
    kept as it is; an edge [a, b] with g = <nu, .> of opposite signs at its
    ends crosses it at (g_b a - g_a b) / (g_b - g_a), one exact quotient.
    The plane passes through the origin, interior to poly (= P* for a Fano
    P), so the section is a polygon and these are at least 3 points.
    """
    g = [dot(nu, v) for v in rows]
    pts = {v for v, x in zip(poly.vertices, g) if x == 0}
    flat = []
    for i, e in enumerate(poly.edges):
        ia, ib = e.vertex_ids
        ga, gb = g[ia], g[ib]
        if ga * gb < 0:
            d = (gb - ga) * den
            pts.add(tuple(_quotient(gb * x - ga * y, d)
                          for x, y in zip(rows[ia], rows[ib])))
        elif ga == gb == 0:
            flat.append(i)
    return list(pts), flat


def clip_halfplane(points, half, chord):
    """`degeneration._clip_halfplane` as it was.  Points whose hull is the
    part of the convex polygon conv(points) on <., half> >= 0, given the
    ends of its chord on <., half> = 0: the points strictly inside the
    half, then the chord's two ends.  The polygon is a `_plane_slice`,
    with the origin in its relative interior, and `half` is not zero on
    its plane (it is > 0 on the 2-cone's ray), so it is > 0 at some
    vertex: the first part is never empty."""
    return [p for p in points if dot(half, p) > 0] + list(chord)


def unproject(basis, coord2):
    """`degeneration._unproject` as it was: the point x*b0 + y*b1."""
    return tuple(coord2[0] * b0 + coord2[1] * b1
                 for b0, b1 in zip(basis[0], basis[1]))


def unchecked(build, *args, **kwargs):
    """What build(*args, **kwargs) returns with the construction check
    (`DegenerationData.validate`) switched off: data that construction
    refuses, for the reference copies of the checks it retired."""
    real = DegenerationData.validate
    DegenerationData.validate = lambda self: True
    try:
        return build(*args, **kwargs)
    finally:
        DegenerationData.validate = real


def relabelled(data, labels):
    """Normal-fan data with its edge labels, and so its boundary
    coefficients, set to labels: one int for every edge, or {edge: label}
    over the labels it has.  `replace` checks the copy; under `unchecked`
    it gives data that construction refuses.  A slab's sections still
    refuse a label they cannot take."""
    values = edge_labels(data)
    values.update(dict.fromkeys(values, labels) if isinstance(labels, int)
                  else labels)
    built = {}  # shared as `normal_fan_data` shares them
    slabs = [Slab.shared(built, s.name, s.polygon,
                         tuple(values[i] if r == ROLE_BOUNDARY else c
                               for c, r in zip(s.coeffs, s.roles)), s.roles)
             for i, s in enumerate(data.slabs)]
    return replace(data, slabs=slabs)


def ref_check_convexity(data: DegenerationData):
    """`degeneration.check_convexity` as it was, verbatim but for the
    labels, read off the slabs (`edge_labels`)."""
    out = []
    if data.kind != "normal_fan" or data.dual is None:
        return out
    labels = edge_labels(data)
    for i, e in enumerate(data.dual.edges):
        a = labels.get(i, 0)
        hi = ref_dual_edge_length(data.dual, e)
        if not 0 <= a <= hi:
            out.append(f"edge {i}: a = {a} outside [0, {hi}]")
    return out


def ref_check_smooth_edge_data(data: DegenerationData):
    """`degeneration.check_smooth_edge_data` as it was, verbatim but for
    the labels, read off the slabs (`edge_labels`)."""
    out = []
    if data.kind != "normal_fan" or data.dual is None:
        return out
    labels = edge_labels(data)
    for i, e in enumerate(data.dual.edges):
        a = labels.get(i, 0)
        ell = ref_dual_edge_length(data.dual, e)
        if a not in (ell - 1, ell):
            out.append(f"edge {i}: a = {a} not in {{{ell - 1}, {ell}}}")
    return out


def ref_check_compatibility(data: DegenerationData):
    """`degeneration.check_compatibility` as it was, verbatim but for the
    labels, read off the slabs (`edge_labels`): the pullback degree of
    L_rho on each invariant curve must equal a_E / r(F*); reported per
    (ray, slab)."""
    out = []
    if data.kind != "normal_fan" or data.dual is None:
        return out
    dual, labels = data.dual, edge_labels(data)
    for vid, f in enumerate(data.polytope.facets):
        r = -f.level
        summands = [s for s in data.ray_summands if s.ray == _ray_name(vid)]
        for i, e in enumerate(dual.edges):
            if vid not in e.vertex_ids:
                continue
            sname = _edge_name(i)
            got = sum(1 for s in summands if sname in s.slabs)
            a = labels.get(i, 0)
            if a != got * r:
                out.append(f"ray v{vid}, slab {sname}: degree {got} != "
                           f"a/r = {a}/{r}")
    return out


def ref_assemble_with_stub_raises(data: DegenerationData):
    """`discriminant.assemble_global` as it was, verbatim, with its
    "missing stub" and "unconsumed stubs" raises."""
    total = DiscriminantGraph()
    slab_stubs = {}
    for slab in data.slabs:
        piece, stubs = dual_graph(slab)
        total.nodes.extend(piece.nodes)
        total.edges.extend(piece.edges)
        ray_pools = {}
        for i, role in enumerate(slab.roles):
            if role == ROLE_BOUNDARY or not stubs.get(i):
                continue
            ray_pools.setdefault(role, []).extend(stubs[i])
        slab_stubs[slab.name] = ray_pools
    for si, rs in enumerate(data.ray_summands):
        if rs.kind == "point":
            continue
        mine = []
        for sname in rs.slabs:
            pools = slab_stubs.get(sname, {})
            pool = pools.get(f"ray:{rs.ray}") or pools.get(ROLE_SPINE)
            if not pool:
                raise DegenerationError("compatibility violated: missing "
                                        f"stub for {rs.ray} in {sname}")
            mine.append(pool.pop(0))
        if rs.kind == "triangle":
            ident = f"p{si}/{rs.ray}"
            total.nodes.append(Node(ident, "positive", rs.ray, (0, 0)))
            for stub in mine:
                total.edges.append(tuple(sorted((ident, stub))))
        else:
            total.edges.append(tuple(sorted(mine)))
    leftovers = [v for pools in slab_stubs.values()
                 for ids in pools.values() for v in ids]
    if leftovers:
        raise DegenerationError("compatibility violated: unconsumed stubs "
                                f"{leftovers}")
    p, n, _ = total.census()
    if p != data.p_count or n != data.n_count:
        raise DegenerationError("graph census disagrees with slab arithmetic")
    return total


# ---------------------------------------------------------------------------
# the line-fan helpers that read P*'s facets and cones, verbatim, which
# `line_fan_data` replaced by reading P's vertices (`_exit`) and the cross
# products d x v (`_free_corners`): the references of
# `tests/test_retired_raises.py` and the spine and 2-cones of
# `tests/test_line_fan_routes.py`


def _two_cone(dirv, w):
    """The 2-cone spanned by the line through dirv and the ray through w:
    (primitive annihilator nu of the plane, a functional `half` that
    vanishes on the line and is > 0 on w).  The cone is where <nu, .> = 0
    and <half, .> >= 0."""
    nu = plane_normal(dirv, w)
    half = cross(nu, dirv)
    if dot(half, w) < 0:
        half = tuple(-x for x in half)
    return nu, half


def _along_line(p, dirv) -> bool:
    return all(p[i] * dirv[j] == p[j] * dirv[i]
               for i, j in ((0, 1), (0, 2), (1, 2)))


def _exit_point(poly: LatticePolytope, levels, r):
    """(num, den), den > 0: the ray through r leaves poly at r * num / den,
    in the units of `levels` (each facet's level times the common
    denominator of the vertices).

    poly is P* for a Fano P, so it is bounded and has the origin inside:
    the ray through r != 0 leaves it, through a facet with <n, r> < 0.
    """
    best = None
    for f, lvl in zip(poly.facets, levels):
        pace = dot(f.normal, r)
        if pace < 0 and (best is None or lvl * best[1] > best[0] * pace):
            best = (-lvl, -pace)
    return best


def _two_cone_containing(two_cones, v):
    """Annihilator of the first of the `_two_cone` pairs whose 2-cone
    holds v, or None."""
    for nu, half in two_cones:
        if dot(nu, v) == 0 and dot(half, v) >= 0:
            return nu
    return None


# ---------------------------------------------------------------------------
# the slab helpers that sliced P* in 3-space, verbatim, which
# `line_fan_data` replaced by reading each slab off P's vertices as the
# polar of their projection to the 2-cone's plane, and the route they
# made (`ref_line_fan_data`): the references of
# `tests/test_line_fan_routes.py` and `tests/test_retired_raises.py`


def _rule_values(poly: LatticePolytope, rules):
    """{edge id: the value of the first (point, value) rule whose point is
    on the edge, else 0}.  A point of poly lies on an edge exactly when it
    lies on both facets through the edge; a rule whose point is on no edge
    labels nothing and is refused."""
    values = dict.fromkeys(range(len(poly.edges)), 0)
    for meets, value in reversed(rules):  # the first rule writes last
        gaps = [dot(f.normal, meets) - f.level for f in poly.facets]
        hits = [i for i, e in enumerate(poly.edges)
                if all(gaps[j] == 0 for j in e.facet_ids)]
        if min(gaps) < 0 or not hits:
            raise DegenerationError(f"edge rule point {meets} lies on no "
                                    "edge of the polar polytope")
        values.update(dict.fromkeys(hits, value))
    return values


def _plane_slice(poly: LatticePolytope, rows, den, nu, half):
    """The vertices of the section of a 3-polytope by the plane ann(nu) at
    which <half, .> > 0, and the ids of the polytope's edges in the plane.

    rows are the polytope's vertices times den.  A vertex on the plane is
    kept as it is; an edge [a, b] with g = <nu, .> of opposite signs at its
    ends crosses it at (g_b a - g_a b) / (g_b - g_a), one exact quotient,
    built only where <half, g_b a - g_a b> (g_b - g_a) > 0.  The plane
    passes through the origin, interior to poly (= P* for a Fano P), so
    the section is a polygon around the origin, and `half`, which is > 0 on
    the 2-cone's ray, is > 0 at one of its vertices: never none.
    """
    g = [dot(nu, v) for v in rows]
    pts = [v for v, r, x in zip(poly.vertices, rows, g)
           if x == 0 and dot(half, r) > 0]
    flat = []
    for i, e in enumerate(poly.edges):
        ia, ib = e.vertex_ids
        ga, gb = g[ia], g[ib]
        if ga * gb < 0:
            num = [gb * x - ga * y for x, y in zip(rows[ia], rows[ib])]
            if dot(half, num) * (gb - ga) > 0:
                d = (gb - ga) * den
                pts.append(tuple(_quotient(x, d) for x in num))
        elif ga == gb == 0:
            flat.append(i)
    return pts, flat


def _containing_edge(poly: LatticePolytope, edge_ids, a3, b3):
    """The first of the given edges of poly that holds both a3 and b3,
    points of poly: as in `_rule_values`, a point of poly lies on an edge
    exactly when it lies on both facets through the edge."""
    for i in edge_ids:
        if all(dot(f.normal, x) == f.level for x in (a3, b3)
               for f in map(poly.facets.__getitem__, poly.edges[i].facet_ids)):
            return i
    return None


def ref_line_fan_data(p: LatticePolytope, direction, rays2d, edge_rule,
                      name="") -> DegenerationData:
    """`degeneration.line_fan_data` as it was, verbatim but for `_exit`,
    which returned the spine's end r / t where it now returns t, and
    `_free_corners`, which read P*'s vertex rows where it now reads P's
    facet normals, both inlined: it slices P* in 3-space."""
    if not p.is_fano():
        raise DegenerationError("P is not a Fano polytope")
    dual = p.polar_dual()
    dirv, fan_rays = line_fan(direction, rays2d)
    w_basis = ray_lattice(dirv)
    rules = [(_clean(rule["meets"]), int(rule["value"])) for rule in edge_rule]
    for meets, _ in rules:
        if len(meets) != 3:
            raise DegenerationError(f"edge rule point {meets} is not a point "
                                    "of 3-space")
    labels = _rule_values(dual, rules)

    rows, den = dual.vertex_rows
    # the spine: P^dual cut by the minimal line, from rho_minus to rho_plus
    rays = (("rho_plus", dirv), ("rho_minus", tuple(-x for x in dirv)))
    exits = [_exit(p, r) for _, r in rays]
    spine = [tuple(_quotient(x, t) for x in r)
             for (_, r), (t, _, _) in zip(rays, exits)]

    slabs = []
    built = {}  # (polygon, coeffs) -> its first slab, within this call
    slab_functionals = {}
    for k, w in enumerate(fan_rays):
        # w's 2-cone: <nu, .> = 0 and <half, .> >= 0, half 0 on the line
        nu = plane_normal(dirv, w)
        half = cross(nu, dirv)
        half = tuple(-x for x in half) if dot(half, w) < 0 else half
        pts, flat = _plane_slice(dual, rows, den, nu, half)
        pts += spine
        coords = plane_coords(plane_basis([dirv, w]),
                              clear_denominators(pts)[0])
        space = dict(zip(coords, pts))
        chord = set(coords[-2:])
        poly = Polygon(coords)
        coeffs, roles = [], []
        for a, b in poly.edges():
            if {a, b} == chord:
                coeffs.append(0)
                roles.append(ROLE_SPINE)
                continue
            eidx = (_containing_edge(dual, flat, space[a], space[b])
                    if flat else None)
            coeffs.append(0 if eidx is None else labels[eidx])
            roles.append(ROLE_BOUNDARY)
        sname = f"S{k}"
        slabs.append(Slab.shared(built, sname, poly, tuple(coeffs),
                                 tuple(roles)))
        slab_functionals[sname] = quotient_functional(w_basis, w)

    ray_summands = []
    for (ray_id, _), (_, tight, fid) in zip(rays, exits):
        if tight == 1:  # through the inside of a facet of P*
            ray_summands.append(RaySummand(ray_id, "point"))
            continue
        if tight == 2:
            raise DegenerationError(
                f"{ray_id}: the ray leaves through a face of unsupported "
                "dimension")
        # through vertex fid of P*, dual to P's facet fid
        decos = enumerate_smooth_decompositions(
            _ray_word(p, p.facets[fid], w_basis, ray_id))
        if not decos:
            raise DegenerationError("no smooth Minkowski decomposition "
                                    f"for {ray_id}")
        if _tied(decos):
            decos = _space_order(decos, w_basis)
        # prefer the triangle-rich canonical choice
        ray_summands += _attach(ray_id, decos[-1], slab_functionals)

    cones = {primitive(cross(dirv, w)) for w in fan_rays}
    return DegenerationData(
        name=name or "line-fan data",
        kind="line_fan",
        slabs=slabs,
        ray_summands=ray_summands,
        polytope=p,
        vertex_count=sum(1 for v in rows if any(dv := cross(dirv, v))
                         and primitive(dv) not in cones),
    )


# ---------------------------------------------------------------------------
# the fast path's table of facet fan patterns and its variant generator,
# verbatim, which `gamma.barT_hypothesis` replaced by the del Pezzo
# criterion (at most 5 rays, no self-intersection below -1): the
# references of `tests/test_gamma.py` and `tests/test_shared_geometry.py`


_ALLOWED_PATTERNS = {
    (1, 1, 1),            # P^2
    (0, 0, 0, 0),         # P^1 x P^1
    (1, 0, -1, 0),        # F_1 (Hirzebruch)
    (-1, -1, -1, 0, 0),   # dP_7
}


def _cyclic_variants(seq):
    seq = list(seq)
    out = set()
    for s in (seq, seq[::-1]):
        for i in range(len(s)):
            out.add(tuple(s[i:] + s[:i]))
    return out
