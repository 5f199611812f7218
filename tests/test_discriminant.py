import random

from hypothesis import assume, given, settings

from conftest import (bundled, bundled_polygon, dilate_polygon,
                      lattice_polygons)
from fanoscope.degeneration import (line_fan_data, method1_data,
                                    normal_fan_data, product_data)
from fanoscope.discriminant import (assemble_global, dual_graph, export_json,
                                    max_triangulation, render_svg)
from fanoscope.polytope import Polygon, PolytopeError, pick_area, vsub


def test_triangulation_counts():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    assert len(max_triangulation(tri).triangles) == 1
    assert len(max_triangulation(dilate_polygon(tri, 2)).triangles) == 4
    assert len(max_triangulation(Polygon([(0, 0), (4, 0),
                                          (0, 1)])).triangles) == 4


def test_triangulation_count_equals_area_random():
    rng = random.Random(31)
    done = 0
    while done < 60:
        pts = [(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(5)]
        try:
            poly = Polygon(pts)
        except PolytopeError:
            continue
        tri = max_triangulation(poly)
        assert len(tri.triangles) == pick_area(poly)
        assert len(tri.points) == poly.point_counts()[0]
        done += 1


def test_p3_slab_graph():
    data = method1_data(bundled("p3"))
    piece, stubs = dual_graph(data.slabs[0])
    negatives = [v for v in piece.nodes if v.kind == "negative"]
    assert len(negatives) == 4
    # four boundary stubs on the far edge, one on each ray edge
    sizes = sorted(len(v) for v in stubs.values() if v)
    assert sizes == [1, 1, 4]


def test_global_census():
    cases = [
        (method1_data(bundled("p3")), (4, 24, 24)),
        (method1_data(bundled("octahedron")), (8, 24, 24)),
        (normal_fan_data(bundled("v2"), 6), (20, 144, 24)),
        (line_fan_data(bundled("b3_cubic"), (0, 0, 1),
                       [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                       [{"meets": (0, 0, 1), "value": 3}]), (3, 27, 18)),
    ]
    for data, want in cases:
        assert assemble_global(data).census() == want


def test_segment_strands_have_no_positive_node():
    data = method1_data(bundled("cube"))
    graph = assemble_global(data)
    assert graph.census() == (0, 48, 24)


def test_product_graph_is_boundary_only():
    data = product_data(bundled_polygon("hexagon"))
    graph = assemble_global(data)
    assert graph.census() == (0, 0, 12)
    svg = render_svg(data, graph)
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_svg_and_json_deterministic():
    data = method1_data(bundled("p3"))
    graph = assemble_global(data)
    assert render_svg(data, graph) == render_svg(data, assemble_global(data))
    doc = export_json(graph)
    assert set(doc) == {"nodes", "edges"}
    kinds = {v["kind"] for v in doc["nodes"]}
    # stub nodes are the attachment points on ray edges
    assert kinds == {"negative", "positive", "boundary", "stub"}
    ids = {v["id"] for v in doc["nodes"]}
    assert all(a in ids and b in ids for a, b in doc["edges"])


def ref_max_triangulation(polygon):
    """The two-scan insertion (edge scan, then containment scan) that
    `max_triangulation` replaced; returns (points, triangles)."""
    pts = sorted(polygon.lattice_points())
    verts = list(polygon.vertices)
    v0 = min(verts)
    k = verts.index(v0)
    ordered = verts[k:] + verts[:k]
    tris = []
    idx = {p: i for i, p in enumerate(pts)}
    for t in range(1, len(ordered) - 1):
        tris.append((idx[v0], idx[ordered[t]], idx[ordered[t + 1]]))

    def inside(p, t):
        a, b, c = (pts[i] for i in t)
        s1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        s2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
        s3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
        return (s1 >= 0 and s2 >= 0 and s3 >= 0) or \
               (s1 <= 0 and s2 <= 0 and s3 <= 0)

    def on_edge(p, a, b):
        ab, ap = vsub(b, a), vsub(p, a)
        if ab[0] * ap[1] - ab[1] * ap[0] != 0:
            return False
        d = ab[0] * ap[0] + ab[1] * ap[1]
        return 0 < d < ab[0] ** 2 + ab[1] ** 2

    used = {i for t in tris for i in t}
    for pi, p in enumerate(pts):
        if pi in used:
            continue
        host_edge = None
        for ti, t in enumerate(tris):
            for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                if on_edge(p, pts[e[0]], pts[e[1]]):
                    host_edge = e
                    break
            if host_edge:
                break
        if host_edge:
            a, b = host_edge
            new = []
            for t in tris:
                es = {frozenset((t[0], t[1])), frozenset((t[1], t[2])),
                      frozenset((t[2], t[0]))}
                if frozenset((a, b)) in es:
                    c = next(x for x in t if x not in (a, b))
                    new.append(tuple(sorted((a, pi, c))))
                    new.append(tuple(sorted((pi, b, c))))
                else:
                    new.append(t)
            tris = new
        else:
            host = next(ti for ti, t in enumerate(tris) if inside(p, t))
            a, b, c = tris[host]
            tris = (tris[:host] + tris[host + 1:]
                    + [tuple(sorted((a, b, pi))), tuple(sorted((b, c, pi))),
                       tuple(sorted((a, c, pi)))])
        used.add(pi)
    return pts, sorted(tris)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattice_polygons(span=3))
def test_max_triangulation_matches_two_scan_insertion(poly):
    assume(poly.point_counts()[0] <= 40)
    tri = max_triangulation(poly)
    assert (tri.points, tri.triangles) == ref_max_triangulation(poly)
    # every lattice point is a vertex, so Pick makes each triangle unimodular
    for t in tri.triangles:
        (ax, ay), (bx, by), (cx, cy) = (tri.points[i] for i in t)
        assert abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) == 1


