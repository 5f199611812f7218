import random
import sys
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (bundled, bundled_polygon, dilate_polygon,
                      lattice_polygons, mat_vec, random_unimodular2)
from test_shared_geometry import builders
from fanoscope import discriminant
from fanoscope.degeneration import (DegenerationError, RaySummand,
                                    line_fan_data, method1_data,
                                    normal_fan_data, product_data)
from fanoscope.discriminant import (DiscriminantGraph, Node, assemble_global,
                                    dual_graph, export_json,
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
        (normal_fan_data(bundled("v2")), (20, 144, 24)),
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


def section_polygons():
    """The distinct section polygons of every bundled degeneration
    (`builders`), those of the `bundled` bench workload among them."""
    return list(dict.fromkeys(s.sections.polygon for build in builders()
                              for s in build().slabs if s.sections.dim == 2))


@pytest.mark.parametrize("seed", (None, 5, 23))
def test_max_triangulation_matches_two_scan_insertion_on_sections(seed):
    polys = section_polygons()
    assert max(poly.point_counts()[0] for poly in polys) >= 28
    rng = random.Random(seed)
    for poly in polys:
        if seed is not None:  # a GL(2,Z) image, translated
            g = random_unimodular2(rng)
            tx, ty = rng.randrange(-9, 10), rng.randrange(-9, 10)
            poly = Polygon([(x + tx, y + ty) for x, y in
                            (mat_vec(g, list(v)) for v in poly.vertices)])
        tri = max_triangulation(poly)
        assert (tri.points, tri.triangles) == ref_max_triangulation(poly)


# ---------------------------------------------------------------------------
# node positions: ints in sixths of a lattice unit


def test_discriminant_builds_no_fraction(monkeypatch):
    """Assembly, export and drawing build no `Fraction` from a
    `discriminant` frame, on every bundled degeneration that assembles
    (24: the 23 targets of the `bundled` bench workload among them)."""
    datas = [build() for build in builders()]
    real = Fraction.__new__
    built = []

    def spy(cls, *args, **kwargs):
        f = sys._getframe(1)
        while f and f.f_globals.get("__name__") != "fanoscope.discriminant":
            f = f.f_back
        if f:
            built.append(f.f_code.co_name)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    drawn = 0
    for data in datas:
        try:
            data.validate()
        except DegenerationError:
            continue  # labels that construction refuses, built unchecked
        graph = assemble_global(data)
        export_json(graph)
        render_svg(data, graph)
        drawn += 1
    assert drawn >= 23 and built == []


SIXTHS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                   *(st.integers(-10 ** 6, 10 ** 6).map(k.__mul__)
                     for k in (2, 3, 6)),
                   st.integers(2 ** 60, 2 ** 100),
                   st.integers(-2 ** 100, -2 ** 60))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SIXTHS, SIXTHS)
def test_positions_print_as_fractions_of_six(x, y):
    graph = DiscriminantGraph([Node("n", "negative", "S", (x, y)),
                               Node("m", "stub", "S", (y, 0))])
    assert export_json(graph)["nodes"][0]["pos"] == [str(Fraction(x, 6)),
                                                     str(Fraction(y, 6))]
    assert export_json(graph)["nodes"][1]["pos"] == [str(Fraction(y, 6)),
                                                     "0"]
    assert x / 6 == float(Fraction(x, 6))
    # a node of no drawn slab sits at the (40, 40) pad, 36 units per unit
    cx, cy = (40 + float(Fraction(z, 6)) * 36 for z in (x, y))
    circle = render_svg(SimpleNamespace(slabs=[]), graph).split("\n")[1]
    assert circle.startswith(f'<circle cx="{cx:.1f}" cy="{cy:.1f}"')


# ---------------------------------------------------------------------------
# ray summands on slabs the data does not have


@pytest.mark.parametrize("kind, slabs", [("triangle", ("X", "Y", "Z")),
                                         ("segment", ("X", "Y"))])
def test_summand_on_an_unknown_slab_is_refused(monkeypatch, kind, slabs):
    # refused as the data is built, naming the summand: no consumer runs
    # (`validate` passed it, and `assemble_global` ended in a KeyError,
    # later in "missing stub for v0 in X")
    from fanoscope import gamma, invariants
    ran = []
    for module, name in ((invariants, "analyze"), (gamma, "build_system"),
                         (discriminant, "assemble_global")):
        monkeypatch.setattr(module, name, lambda data, name=name:
                            ran.append(name))
    data = method1_data(bundled("p3"))
    rs = RaySummand("v0", kind, slabs)
    for consume in (invariants.analyze, gamma.build_system,
                    discriminant.assemble_global):
        with pytest.raises(DegenerationError) as err:
            consume(replace(data, ray_summands=data.ray_summands + (rs,)))
        assert str(err.value) == (
            f"ray summand 4 (v0, {kind}): slabs must be {len(slabs)} "
            f"distinct slabs of the data, not {list(slabs)}")
    assert ran == []
    # the data itself cannot be changed
    with pytest.raises(AttributeError):
        data.ray_summands.append(rs)
    with pytest.raises(FrozenInstanceError):
        data.ray_summands[0].slabs = slabs
    with pytest.raises(FrozenInstanceError):
        data.slabs[0].roles = ("boundary",) * 3


def test_degeneration_dataclasses_are_frozen():
    data = method1_data(bundled("p3"))
    for obj, field_name in ((data, "name"), (data.slabs[0], "coeffs"),
                            (data.ray_summands[0], "kind")):
        assert type(obj).__dataclass_params__.frozen
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field_name, getattr(obj, field_name))
    assert type(data.slabs) is type(data.ray_summands) is tuple
