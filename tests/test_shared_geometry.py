"""Geometry built once per degeneration against the routes that rebuilt it.

The `ref_*` functions are the code as it was: one `Slab` built per slab,
the dual graph of each slab from its own maximal triangulation, and facet
fan patterns read off each facet re-embedded as a `Polygon` in its plane
lattice.  Shared slabs must equal fresh ones, graphs must match node for
node and edge for edge, and patterns must agree up to the rotation and
reversal that `_cyclic_variants` forgives, `None` included.
"""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NORMAL_FAN_POLYTOPES, bundled, bundled_polygon,
                      facet_polygon, lattice_polygons, mat_vec,
                      random_unimodular3, relabelled, unchecked)
from test_line_fan_routes import base_routes
from fanoscope.degeneration import (ROLE_BOUNDARY, ROLE_SPINE,
                                    DegenerationData, DegenerationError,
                                    Slab, decomposition_regimes,
                                    line_fan_data, method1_data,
                                    normal_fan_data, product_data)
from fanoscope.discriminant import (DiscriminantGraph, Node,
                                    assemble_global, dual_graph, export_json,
                                    max_triangulation)
from fanoscope.fileio import data_from_fixture, list_fixtures, load_fixture
from fanoscope.gamma import _cyclic_variants, _fan_pattern, barT_hypothesis
from fanoscope.linalg import primitive
from fanoscope.polytope import (LatticePolytope, PolytopeError, cross, dot,
                                lattice_length, vsub)

SEEDS = (None, 3, 17)


# ---------------------------------------------------------------------------
# the routes as they were


def ref_slab(built, name, polygon, coeffs, roles):
    """Slab construction as it was: one `Slab` per slab."""
    return Slab(name, polygon, coeffs, roles)


def _tri_centroid(pts, t):
    return (Fraction(sum(pts[i][0] for i in t), 3),
            Fraction(sum(pts[i][1] for i in t), 3))


def ref_dual_graph(slab) -> tuple:
    if slab.sections.dim < 2:
        graph = DiscriminantGraph()
        # degenerate sections: a_v parallel strands from side to side
        ell = 0
        if slab.sections.dim == 1:
            a, b = slab.sections.points[0], slab.sections.points[-1]
            ell = lattice_length(a, b)
        stubs = {}
        sides = [i for i, s in enumerate(slab.spans) if s > 0]
        for i in sides:
            ids = []
            for k in range(slab.spans[i]):
                ident = f"{slab.name}/stub{i}.{k}"
                graph.nodes.append(Node(ident, "boundary" if
                                        slab.roles[i] == ROLE_BOUNDARY else
                                        "stub", slab.name, (k, i)))
                ids.append(ident)
            stubs[i] = ids
        # connect strand k across the two sides
        if len(sides) == 2 and ell:
            for k in range(ell):
                graph.edges.append((stubs[sides[0]][k], stubs[sides[1]][k]))
        return graph, stubs

    tri = max_triangulation(slab.sections.polygon)
    graph = DiscriminantGraph()
    names = {}
    for ti, t in enumerate(tri.triangles):
        ident = f"{slab.name}/n{ti}"
        names[t] = ident
        graph.nodes.append(Node(ident, "negative", slab.name,
                                _tri_centroid(tri.points, t)))
    edge_tris = {}
    for t in tri.triangles:
        for u, v in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edge_tris.setdefault((u, v) if u < v else (v, u), []).append(t)
    edge_tris = sorted(edge_tris.items())
    for _, ts in edge_tris:
        if len(ts) == 2:
            graph.edges.append(tuple(sorted((names[ts[0]], names[ts[1]]))))
    # boundary stubs: unit segments of the section polygon boundary, mapped
    # to the slab edge whose support line they lie on
    normals = [n for n, _ in slab.polygon.edge_normals()]
    stubs = {i: [] for i in range(len(normals))}
    counter = 0
    for key, ts in edge_tris:
        if len(ts) != 1:
            continue
        t = ts[0]
        a, b = (tri.points[i] for i in key)
        owner_edge = None
        for i, n in enumerate(normals):
            lvl = -slab.coeffs[i]
            if dot(n, a) == lvl and dot(n, b) == lvl:
                owner_edge = i
                break
        if owner_edge is None:
            raise DegenerationError("boundary segment on no support line")
        mid = (Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2))
        ident = f"{slab.name}/s{counter}"
        counter += 1
        kind = ("boundary" if slab.roles[owner_edge] == ROLE_BOUNDARY
                else "stub")
        graph.nodes.append(Node(ident, kind, slab.name, mid))
        graph.edges.append(tuple(sorted((names[t], ident))))
        stubs[owner_edge].append(ident)
    for ids in stubs.values():
        ids.sort()
    got = {i: len(v) for i, v in stubs.items() if v}
    want = {i: s for i, s in enumerate(slab.spans) if s}
    if got != want:
        raise DegenerationError("compatibility violated: stub counts do not "
                                "match section edge spans")
    return graph, stubs


def ref_assemble_global(data: DegenerationData) -> DiscriminantGraph:
    total = DiscriminantGraph()
    slab_stubs = {}
    for slab in data.slabs:
        piece, stubs = ref_dual_graph(slab)
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
            pools = slab_stubs[sname]
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


def ref_fan_pattern(polygon):
    """Self-intersection sequence of the smooth complete fan normal to a
    polygon; None when the fan is singular."""
    rays = [n for n, _ in polygon.edge_normals()]
    k = len(rays)
    pattern = []
    for i in range(k):
        a, b, c = rays[(i - 1) % k], rays[i], rays[(i + 1) % k]
        if abs(b[0] * c[1] - b[1] * c[0]) != 1:
            return None
        # a + c = -(D^2) b; b is nonzero since |det(b, c)| = 1
        idx = 0 if b[0] else 1
        lam, rem = divmod(a[idx] + c[idx], b[idx])
        if rem or a[0] + c[0] != lam * b[0] or a[1] + c[1] != lam * b[1]:
            return None
        pattern.append(-lam)
    return tuple(pattern)


_ALLOWED_PATTERNS = {(1, 1, 1), (0, 0, 0, 0), (1, 0, -1, 0),
                     (-1, -1, -1, 0, 0)}


def ref_barT_hypothesis(data: DegenerationData):
    p = data.polytope
    for f in p.facets:
        poly, _, _ = facet_polygon(p, f)
        pat = ref_fan_pattern(poly)
        if pat is None:
            return False
        if not any(v in _ALLOWED_PATTERNS for v in _cyclic_variants(pat)):
            return False
    return True


# ---------------------------------------------------------------------------
# the bundled degenerations


def image(p: LatticePolytope, seed):
    if seed is None:
        return p
    m = random_unimodular3(random.Random(seed))
    return LatticePolytope([tuple(mat_vec(m, list(v))) for v in p.vertices])


def builders(seed=None):
    """Zero-argument builders of the bundled degenerations: each method-1
    polytope under each decomposition choice and relabelled 0, 1, 0, ...,
    and v2's normal fan, moved by one seeded GL(3,Z) map when a seed is
    given; without one, also the four products and every fixture.  The
    alternating labels fail the construction check, so that data is built
    without it, for its slabs."""
    out = []
    for name in NORMAL_FAN_POLYTOPES:
        p = image(bundled(name), seed)
        counts = [len(r) for r in decomposition_regimes(p)]
        out += [lambda p=p, c=c: method1_data(p, c)
                for c in itertools.product(*map(range, counts))]
        # alternating labels: equal slab polygons with unequal coefficients
        # on data built here, so that only the relabelled slabs are built
        out.append(lambda d=normal_fan_data(p): unchecked(relabelled, d, {
            i: i % 2 for i in range(len(d.slabs))}))
    v2 = image(bundled("v2"), seed)
    out.append(lambda: normal_fan_data(v2))
    if seed is None:
        out += [lambda q=q: product_data(bundled_polygon(q))
                for q in ("diamond", "hexagon", "pentagon", "triangle")]
        out += [lambda stem=stem: data_from_fixture(load_fixture(stem))
                for stem in list_fixtures() if "kind" in load_fixture(stem)]
    return out


def slab_view(s):
    sec = s.sections
    return (s.name, s.polygon.vertices, s.coeffs, s.roles, sec.dim,
            tuple(sec.vertices()), sec.points, s.spans,
            s.two_area, s.b_count, s.i_count)


def slabs_outcome(build):
    try:
        return [slab_view(s) for s in build().slabs]
    except (DegenerationError, PolytopeError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def slab_inits(monkeypatch):
    """Counts `Slab.__init__` calls."""
    calls = []
    init = Slab.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Slab, "__init__", counted)
    return calls


# ---------------------------------------------------------------------------
# slabs


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_slabs_equal_fresh_ones(monkeypatch, slab_inits, seed):
    copies = 0
    for build in builders(seed):
        slab_inits.clear()
        data = build()
        keys = {(s.polygon, s.coeffs) for s in data.slabs}
        assert len(slab_inits) == len(keys)
        copies += len(data.slabs) - len(keys)
        with monkeypatch.context() as m:
            m.setattr(Slab, "shared", staticmethod(ref_slab))
            ref = build()
        assert [slab_view(s) for s in data.slabs] == \
            [slab_view(s) for s in ref.slabs]
    assert copies > 0


def test_shared_line_fan_slabs_raise_alike(monkeypatch):
    for p, direction, rays2d, rule in base_routes().values():
        def build():
            return line_fan_data(p, direction, rays2d, rule)
        got = slabs_outcome(build)
        with monkeypatch.context() as m:
            m.setattr(Slab, "shared", staticmethod(ref_slab))
            assert slabs_outcome(build) == got


# ---------------------------------------------------------------------------
# graph pieces


def graph_view(graph, printed):
    return ([(v.ident, v.kind, v.slab, tuple(map(printed, v.pos)))
             for v in graph.nodes], list(graph.edges), graph.census())


def graph_outcome(fn, *args):
    """Positions compare in printed form: the routes here hold `Fraction`s
    in lattice units, `discriminant` holds ints in sixths."""
    printed = (str if fn in (ref_dual_graph, ref_assemble_global)
               else lambda x: str(Fraction(x, 6)))
    try:
        out = fn(*args)
    except DegenerationError as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):  # dual_graph: (piece, stubs)
        return graph_view(out[0], printed), out[1]
    return graph_view(out, printed)


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_pieces_match_the_per_slab_route(seed):
    for build in builders(seed):
        data = build()
        for slab in data.slabs:
            assert graph_outcome(dual_graph, slab) == \
                graph_outcome(ref_dual_graph, slab)
        try:
            data.validate()
        except DegenerationError:
            continue  # built without the check: its slabs alone compare
        want = graph_outcome(ref_assemble_global, data)
        assert graph_outcome(assemble_global, data) == want
        assert graph_outcome(assemble_global, data) == want  # memo kept
        if not isinstance(want[0], type):  # it did not raise
            assert export_json(assemble_global(data)) == \
                export_json(assemble_global(data))


def test_graph_pieces_are_kept_on_the_sections(monkeypatch):
    from fanoscope import discriminant
    calls = []
    real = discriminant.max_triangulation
    monkeypatch.setattr(discriminant, "max_triangulation",
                        lambda poly: calls.append(poly) or real(poly))
    data = method1_data(bundled("octahedron"))
    assemble_global(data)
    first = len(calls)
    assemble_global(data)
    assert first == len({id(s.sections) for s in data.slabs
                         if s.sections.dim == 2})
    assert len(calls) == first


# ---------------------------------------------------------------------------
# facet fan patterns


def variants(pattern):
    return None if pattern is None else _cyclic_variants(pattern)


def pattern_polytopes():
    """Every bundled polytope, its polar dual when integral, and their
    images under seeded GL(3,Z) maps."""
    from fanoscope.fileio import bundled_polytopes
    base = []
    for name in bundled_polytopes():
        if name == "polygons":
            continue
        p = bundled(name)
        base.append(p)
        dual = p.polar_dual()
        if dual.is_integral:
            base.append(LatticePolytope(dual.vertices))
    return base + [image(p, seed) for seed in (5, 11) for p in base]


def test_fan_patterns_match_the_embedding_route():
    patterns = set()
    for p in pattern_polytopes():
        for f in p.facets:
            got = _fan_pattern([p.vertices[i] for i in f.cycle], f.normal)
            want = ref_fan_pattern(facet_polygon(p, f)[0])
            assert variants(got) == variants(want)
            patterns.add(want)
        data = SimpleNamespace(polytope=p)
        assert barT_hypothesis(data) == ref_barT_hypothesis(data)
    assert None in patterns and len(patterns) > 2


def test_fan_pattern_needs_a_lattice_basis_at_each_corner():
    # a parallelogram of area 2: every d_(i-1) + d_(i+1) is 0 * d_i, but no
    # two consecutive edge directions span the lattice
    cycle = [(0, 0, 0), (1, 0, 0), (2, 2, 0), (1, 2, 0)]
    assert _fan_pattern(cycle, (0, 0, 1)) is None
    assert _fan_pattern([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
                        (0, 0, -1)) == (0, 0, 0, 0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lattice_polygons(), st.integers(-3, 3), st.integers(0, 2 ** 32))
def test_fan_pattern_in_a_moved_plane(polygon, height, seed):
    """A drawn polygon lifted to z = height and moved by GL(3,Z) has the
    pattern of the polygon."""
    m = random_unimodular3(random.Random(seed))
    cycle = [tuple(mat_vec(m, [x, y, height])) for x, y in polygon.vertices]
    normal = primitive(cross(vsub(cycle[1], cycle[0]),
                             vsub(cycle[2], cycle[0])))
    assert variants(_fan_pattern(cycle, normal)) == \
        variants(ref_fan_pattern(polygon))
