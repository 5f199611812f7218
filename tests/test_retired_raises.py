"""The theorems behind the checks that no input can fire, asserted on the
bundled data, its seeded GL(3,Z) and GL(2,Z) images, and random polygons
and polytopes.

Each check is gone from its routine, whose docstring holds the proof:
`ray_lattice`'s plane, `product_data`'s two edge lines at each vertex,
`_exit_point` and `_plane_slice`'s non-empty half on a line fan,
`build_system`'s coplanar segment cones, `gamma_dimension`'s lower bound 3,
`_graph_piece` and `dual_graph`'s boundary segments, the re-sum of every
smooth decomposition (`enumerate_smooth_decompositions`), the plane of
every point that `normal_fan_data` and `line_fan_data` map to plane
coordinates, the host triangle of every point in `max_triangulation`, the
rank of a cell's edge functionals (`_cell_class_data`), the ring of
facets around a vertex (`_dual_from_faces`), the cycle of a facet's
vertices (`_facet_cycle`), the ray-endpoint sum 3p + 2d that the
per-slab checks of `DegenerationData.validate` imply, the stub pools that
`assemble_global` uses up exactly on checked data, and the one label
a_E = l(E*) / r(E*) that the check accepts on each edge of normal-fan data
(`normal_fan_data`), which is l(E*) on a reflexive P (`analyze`), where
the deleted `check_convexity`, `check_smooth_edge_data` and
`check_compatibility` report nothing.  The unimodular triangles of
`max_triangulation` are also asserted in `tests/test_discriminant.py`.

The fallbacks that no input reaches are gone the same way: `Sections`'
corners always make a polygon, the enumerator yields no point summand
(`build_system`, `Summand`, `_attach`), a vertical edge never empties a
column of `Polygon._lattice_scan`, and a degenerate section of
`dual_graph` has no side or two of its length.
"""

import random
from dataclasses import replace
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NORMAL_FAN_POLYTOPES, W_SIMPLEX, bundled,
                      bundled_polygon, edge_vector_multiset, lattice_polygons,
                      malformed_slab_fixtures, mat_vec, normal_fan_routes,
                      normalized, polygon_polar, random_unimodular2,
                      ref_assemble_with_stub_raises, ref_check_compatibility,
                      ref_check_convexity, ref_check_smooth_edge_data,
                      ref_minkowski_sum, ref_validate, relabelled, unchecked,
                      whole_plane_slice, word_polygon)
from test_face_data import polytopes
from test_minkowski import DILATED, decompose, smooth_sums
from test_shared_geometry import SEEDS, image
from test_slab_checks import bundled_slabs
from fanoscope import degeneration, invariants
from fanoscope.degeneration import (DegenerationError, RaySummand,
                                    _exit_point, _plane_slice, _two_cone,
                                    decomposition_regimes, line_fan,
                                    line_fan_data, method1_data,
                                    normal_fan_data, ray_lattice)
from fanoscope.discriminant import (_graph_piece, assemble_global, dual_graph,
                                    export_json, max_triangulation)
from fanoscope.fileio import (bundled_polytopes, data_from_fixture,
                              list_fixtures, load_fixture)
from fanoscope.gamma import build_system, gamma_dimension
from fanoscope.invariants import _cell_class_data
from fanoscope.linalg import clear_denominators, primitive, rank
from fanoscope.minkowski import enumerate_smooth_decompositions
from fanoscope.polytope import (LatticePolytope, Polygon, PolytopeError,
                                _quotient, cross, dot, lattice_length,
                                plane_basis, plane_coords, vsub)

NAMES = sorted(k for k in bundled_polytopes() if k != "polygons")


def neg(v):
    return tuple(-x for x in v)


def fano_images(seed):
    return [p for p in (image(bundled(name), seed) for name in NAMES)
            if p.is_fano()]


# ---------------------------------------------------------------------------
# ray_lattice: two vectors of the plane ann(u), with cross product +-u


def assert_plane_basis(u, basis):
    """basis is a lattice basis of ann(u): two vectors that kill u, whose
    cross product is +-primitive(u)."""
    assert len(basis) == 2 and not any(dot(b, u) for b in basis)
    assert cross(*basis) in (primitive(u), neg(primitive(u)))


def test_ray_lattice_is_a_plane_on_a_box():
    for u in product(range(-3, 4), repeat=3):
        if any(u):
            assert_plane_basis(u, ray_lattice(u))


@pytest.mark.parametrize("seed", SEEDS)
def test_ray_lattice_is_a_plane_on_facet_normals(seed):
    for p in fano_images(seed):
        for f in p.facets:
            assert_plane_basis(f.dual, ray_lattice(f.dual))


# ---------------------------------------------------------------------------
# product_data: vertex i of a reflexive polygon is on the lines of edges
# i - 1 and i alone, so two polar vertices are tight at it


@pytest.mark.parametrize("seed", SEEDS)
def test_two_polar_vertices_are_tight_at_each_vertex(seed):
    for name in bundled_polytopes()["polygons"]:
        q = bundled_polygon(name)
        if seed is not None:
            m = random_unimodular2(random.Random(seed))
            q = Polygon([tuple(mat_vec(m, list(v))) for v in q.vertices])
        for poly in (q, Polygon(polygon_polar(q))):
            edges = poly.edge_normals()
            k = len(edges)
            polar = polygon_polar(poly)
            for i, v in enumerate(poly.vertices):
                assert [j for j, (n, c) in enumerate(edges)
                        if dot(n, v) == c] == sorted({(i - 1) % k, i})
                assert sum(dot(u, v) == -1 for u in polar) == 2


# ---------------------------------------------------------------------------
# a line fan's exit points, plane slices and clipped slabs


def complete_fans(p, rng, count=20):
    """(direction, rays) of `count` line fans that `line_fan` accepts: the
    line through a vertex of P* or a small random vector, rays from
    {-1, 0, 1}^3."""
    box = [v for v in product((-1, 0, 1), repeat=3) if any(v)]
    lines = [primitive(v) for v in p.polar_dual().vertices]
    lines += [(0, 0, 1), (1, 0, 0)]
    fans = []
    while len(fans) < count:
        d = (rng.choice(lines) if rng.random() < 0.5 else
             rng.choice(box + [(1, 2, 0), (2, -1, 1), (0, 1, -2)]))
        try:
            fans.append(line_fan(d, rng.sample(box, rng.randint(3, 5))))
        except DegenerationError:
            pass
    return fans


@pytest.mark.parametrize("seed", SEEDS)
def test_line_fan_cuts_are_never_degenerate(seed):
    rng = random.Random(f"line fans {seed}")  # a str seed is reproducible
    for p in fano_images(seed):
        dual = p.polar_dual()
        rows, den = clear_denominators(dual.vertices)
        levels = [dot(f.normal, rows[f.cycle[0]]) for f in dual.facets]
        for d, rays in complete_fans(p, rng):
            spine = []
            for r in (d, neg(d)):
                # P* is bounded with the origin inside: the ray leaves it
                num, t_den = _exit_point(dual, levels, r)
                assert num > 0 and t_den > 0
                end = tuple(_quotient(x * num, t_den * den) for x in r)
                assert min(dot(f.normal, end) - f.level
                           for f in dual.facets) == 0
                spine.append(end)
            for w in rays:
                nu, half = _two_cone(d, w)
                # a plane through the origin cuts P* in a polygon, which
                # holds the spine; both scaled by one common denominator
                pts, _ = whole_plane_slice(dual, rows, den, nu)
                basis = plane_basis([d, w])
                scaled, _ = clear_denominators(pts + spine)
                cut = Polygon(plane_coords(basis, scaled[:len(pts)]))
                assert all(dot(n, x) >= c
                           for x in plane_coords(basis, scaled[len(pts):])
                           for n, c in cut.edge_normals())
                # half is not zero on the plane, so it is > 0 at a vertex
                inside, _ = _plane_slice(dual, rows, den, nu, half)
                assert inside
                assert all(dot(half, x) > 0 for x in inside)


# ---------------------------------------------------------------------------
# Gamma: coplanar segment cones and 3 + triangles independent solutions


@pytest.mark.parametrize("seed", SEEDS)
def test_gamma_segments_are_coplanar_and_dimension_is_at_least_3(seed):
    for data in normal_fan_routes(seed):
        system = build_system(data)
        nus, index = system.nu, {s: i for i, s in
                                 enumerate(system.cone_names)}
        solutions = [[dot(m, nu) for nu in nus] + list(m) * system.triangles
                     for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for rs in data.ray_summands:
            if rs.kind == "segment":
                c1, c2 = (index[s] for s in rs.slabs)
                assert nus[c1] == nus[c2]
        # each triangle's covector v_a: its three cones' planes hold v_a
        triangles = [rs for rs in data.ray_summands if rs.kind == "triangle"]
        for t, rs in enumerate(triangles):
            vec = [0] * (system.n_alpha + system.n_aux)
            start = system.n_alpha + 3 * t
            vec[start:start + 3] = data.dual.vertices[int(rs.ray[1:])]
            solutions.append(vec)
        assert len(solutions) == 3 + system.triangles
        assert not any(sum(x * vec[j] for j, x in row.items())
                       for row in system.rows for vec in solutions)
        assert rank(solutions) == len(solutions)
        assert gamma_dimension(data) >= 3


# ---------------------------------------------------------------------------
# the discriminant graph's boundary segments


@pytest.mark.parametrize("seed", SEEDS)
def test_boundary_segments_lie_on_their_edge_lines(seed):
    for slab in bundled_slabs(seed):
        sec = slab.sections
        if sec.dim < 2:
            continue
        for _, mid, owner in _graph_piece(sec)[2]:  # mid in sixths
            assert dot(sec.normals[owner], mid) == -6 * sec.coeffs[owner]
        _, stubs = dual_graph(slab)
        assert ({i: len(ids) for i, ids in stubs.items() if ids}
                == {i: s for i, s in enumerate(slab.spans) if s})


# ---------------------------------------------------------------------------
# enumerate_smooth_decompositions: a partition of the edge word re-sums


def assert_resums(poly, decos):
    """Every decomposition sums to poly, moved to the origin."""
    target = normalized(poly)
    for deco in decos:
        assert ref_minkowski_sum(deco) == target


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(DILATED, smooth_sums()))
def test_every_decomposition_resums_on_random_polygons(poly):
    assert_resums(poly, decompose(poly))


@pytest.fixture
def enumerated(monkeypatch):
    """Every (polygon, its decompositions) that `degeneration` enumerates,
    the polygon rebuilt from the edge word that it passes."""
    seen = []

    def spy(word):
        decos = enumerate_smooth_decompositions(word)
        seen.append((word_polygon(word), decos))
        return decos

    monkeypatch.setattr(degeneration, "enumerate_smooth_decompositions", spy)
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_every_decomposition_resums_on_bundled_facets(enumerated, seed):
    # each facet/r of every bundled polytope, and the line fans' rho+-
    for name in NAMES:
        try:
            decomposition_regimes(image(bundled(name), seed))
        except DegenerationError:
            assert name == "b1"  # a facet not divisible by its index
    bundled_slabs(seed)
    assert len(enumerated) >= 50
    assert sum(len(decos) > 1 for _, decos in enumerated) >= 5
    for poly, decos in enumerated:
        assert_resums(poly, decos)


# ---------------------------------------------------------------------------
# normal_fan_data and line_fan_data: every point lies in its basis's plane


@pytest.mark.parametrize("seed", SEEDS)
def test_fan_points_lie_in_their_planes(monkeypatch, seed):
    batches = []

    def spy(basis, points):
        coords = plane_coords(basis, points)
        batches.append(coords)
        return coords

    monkeypatch.setattr(degeneration, "plane_coords", spy)
    bundled_slabs(seed)
    rng = random.Random(f"fan planes {seed}")
    for p in fano_images(seed):
        for d, rays in complete_fans(p, rng, count=4):
            try:
                line_fan_data(p, d, rays, [])
            except (DegenerationError, PolytopeError):
                pass  # refused later, as at an undecomposable exit vertex
    assert len(batches) > 300
    assert not any(None in coords for coords in batches)


# ---------------------------------------------------------------------------
# max_triangulation: the triangles cover the polygon throughout


def assert_tiles(poly):
    """Unimodular triangles on every lattice point, of total area 2A."""
    tri = max_triangulation(poly)
    areas = []
    for t in tri.triangles:
        (ax, ay), (bx, by), (cx, cy) = (tri.points[i] for i in t)
        areas.append(abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)))
    assert set(areas) == {1} and sum(areas) == poly.two_area()
    assert {i for t in tri.triangles for i in t} == set(range(len(tri.points)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattice_polygons(span=3))
def test_triangles_cover_random_polygons(poly):
    assert_tiles(poly)


@pytest.mark.parametrize("seed", SEEDS)
def test_triangles_cover_every_section_polygon(seed):
    polys = {s.sections.polygon for s in bundled_slabs(seed)
             if s.sections.dim == 2}
    assert len(polys) >= 10
    for poly in polys:
        assert_tiles(poly)


# ---------------------------------------------------------------------------
# _cell_class_data: the edge functionals of a cell have rank 3


@pytest.mark.parametrize("seed", SEEDS)
def test_cell_edge_functionals_have_rank_3(monkeypatch, seed):
    ranks = []
    real = invariants._lattice_index

    def spy(rows):
        out = real(rows)
        ranks.append(out[0])
        return out

    monkeypatch.setattr(invariants, "_lattice_index", spy)
    for p in fano_images(seed):
        dual = p.polar_dual()
        for f in dual.facets:
            _cell_class_data(dual, f)
    assert len(ranks) > 100 and set(ranks) == {3}


# ---------------------------------------------------------------------------
# _dual_from_faces: the facets around a vertex close into one ring


def assert_rings(p):
    """Each facet of P*'s cycle runs once over the vertices on its plane,
    each step along an edge of P*."""
    d = p.polar_dual()
    edges = {e.vertex_ids for e in d.edges}
    for f in d.facets:
        on = {i for i, x in enumerate(d.vertices)
              if dot(f.normal, x) == f.level}
        assert len(f.cycle) == len(on) and set(f.cycle) == on
        steps = zip(f.cycle, f.cycle[1:] + f.cycle[:1])
        assert all(frozenset(step) in edges for step in steps)


@pytest.mark.parametrize("seed", SEEDS)
def test_dual_facet_rings_close_on_bundled_polytopes(seed):
    for name in NAMES:
        p = image(bundled(name), seed)
        if p.origin_interior():
            assert_rings(p)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(polytopes())
def test_dual_facet_rings_close_on_random_polytopes(p):
    assert_rings(p)


# ---------------------------------------------------------------------------
# _facet_cycle: the vertices of a facet close into one ccw cycle


def assert_facet_cycles(p):
    """Each facet cycle runs once over the vertices on the facet's plane,
    from the lowest id, ccw about the inner normal: every other vertex of
    the facet lies strictly left of each step."""
    for f in p.facets:
        on = {i for i, x in enumerate(p.vertices)
              if dot(f.normal, x) == f.level}
        assert len(f.cycle) == len(on) and set(f.cycle) == on
        assert f.cycle[0] == min(on)
        vs = [p.vertices[i] for i in f.cycle]
        for a, b in zip(vs, vs[1:] + vs[:1]):
            assert all(dot(cross(vsub(b, a), vsub(c, a)), f.normal) > 0
                       for c in vs if c not in (a, b))


@pytest.mark.parametrize("seed", SEEDS)
def test_facet_cycles_close_on_bundled_polytopes(seed):
    for name in NAMES:
        p = image(bundled(name), seed)
        assert_facet_cycles(p)
        if p.origin_interior():
            # P* hulled, not read off P's faces: rational vertices too
            assert_facet_cycles(LatticePolytope(p.polar_dual().vertices))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(polytopes())
def test_facet_cycles_close_on_images(p):
    assert_facet_cycles(p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=4,
                max_size=14))
def test_facet_cycles_close_on_random_polytopes(points):
    # hulls of random points, with points inside and on faces and edges
    try:
        p = LatticePolytope(points)
    except PolytopeError:  # flat
        return
    assert_facet_cycles(p)


# ---------------------------------------------------------------------------
# Sections: the points handed in are vertices of S, so three make a polygon


@st.composite
def section_systems(draw):
    """(polygon, coeffs): a drawn polygon with a coefficient drawn for each
    of its edges."""
    polygon = draw(lattice_polygons(span=3))
    k = len(polygon.vertices)
    return polygon, draw(st.lists(st.integers(-2, 4), min_size=k, max_size=k))


def assert_points_are_vertices(sec):
    assert sec.dim == min(len(sec.points), 3) - 1
    if sec.dim == 2:
        assert sorted(sec.polygon.vertices) == list(sec.points)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(section_systems())
def test_section_corners_are_vertices_on_drawn_systems(system):
    handed = []

    class Spy(degeneration.Sections):
        def __init__(self, points, *args):
            handed.append(points)
            super().__init__(points, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(degeneration, "Sections", Spy)
        try:
            degeneration.polygon_of_sections(*system)
        except DegenerationError:  # not nef or not Cartier
            pass
    for points in handed:
        assert_points_are_vertices(degeneration.Sections(points))


@pytest.mark.parametrize("seed", SEEDS)
def test_section_corners_are_vertices_on_bundled_slabs(seed):
    for slab in bundled_slabs(seed):
        assert_points_are_vertices(slab.sections)


# ---------------------------------------------------------------------------
# the enumerator yields no point summand, so every ray summand of a normal
# fan lies on slabs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(DILATED, smooth_sums()))
def test_no_decomposition_of_a_random_polygon_holds_a_point(poly):
    for deco in enumerate_smooth_decompositions(edge_vector_multiset(poly)):
        assert {s.kind for s in deco} <= {"segment", "triangle"}


@pytest.mark.parametrize("seed", SEEDS)
def test_normal_fan_ray_summands_lie_on_slabs(seed):
    for data in normal_fan_routes(seed):
        for rs in data.ray_summands:
            assert rs.kind == rs.summand.kind in ("segment", "triangle")
            assert len(rs.slabs) == {"segment": 2, "triangle": 3}[rs.kind]


# ---------------------------------------------------------------------------
# Polygon._lattice_scan: a vertical edge never empties a scanned column


def brute_points(poly):
    """(lattice points, interior count) of poly, by testing every point of
    its bounding box against its edge inequalities."""
    xs, ys = zip(*poly.vertices)
    pts, interior = [], 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            gaps = [n[0] * x + n[1] * y - c for n, c in poly.edge_normals()]
            if min(gaps) >= 0:
                pts.append((x, y))
                interior += min(gaps) > 0
    return pts, interior


def assert_scan(poly):
    xs = [v[0] for v in poly.vertices]
    for (n0, n1), c in poly.edge_normals():
        if n1 == 0:
            assert all(c - n0 * x <= 0 for x in range(min(xs), max(xs) + 1))
    pts, interior = brute_points(poly)
    assert poly.lattice_points() == pts
    assert poly.point_counts() == (len(pts), interior, len(pts) - interior)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(lattice_polygons(span=3))
def test_scan_matches_the_bounding_box_on_random_polygons(poly):
    assert_scan(poly)


@pytest.mark.parametrize("seed", SEEDS)
def test_scan_matches_the_bounding_box_on_section_polygons(seed):
    slabs = bundled_slabs(seed)
    polys = {s.sections.polygon for s in slabs if s.sections.dim == 2}
    polys |= {s.polygon for s in slabs}
    assert any(n1 == 0 for poly in polys for (_, n1), _ in poly.edge_normals())
    for poly in polys:
        assert_scan(poly)


# ---------------------------------------------------------------------------
# dual_graph: a degenerate section has no side, or two of its length


@pytest.mark.parametrize("seed", SEEDS)
def test_degenerate_sections_have_two_sides_of_their_length(seed):
    found = 0
    for slab in bundled_slabs(seed):
        sec = slab.sections
        if sec.dim == 2:
            continue
        sides = [s for s in slab.spans if s]
        if sec.dim == 0:
            assert sides == []
        else:
            ell = lattice_length(sec.points[0], sec.points[-1])
            assert ell > 0 and sides == [ell, ell]
        graph, _ = dual_graph(slab)
        assert len(graph.edges) == sum(sides) // 2
        found += 1
    assert found >= 18


# ---------------------------------------------------------------------------
# validate: the per-slab checks imply the ray-endpoint sum 3p + 2d


KIND_SLABS = {"point": 0, "segment": 2, "triangle": 3}


def refusal(fn, *args):
    try:
        fn(*args)
    except DegenerationError as exc:
        return str(exc)
    return None


def perturbed(data, rng, wild=False):
    """A builder of `data` with one to three of its summands repeated or
    dropped, slab roles redrawn, or summands moved to other distinct
    slabs, each list of the size its drawn kind needs: `replace`, which
    checks the result.  With wild, a role may be "foo" and a moved summand
    may name a slab the data does not have."""
    slabs, summands = list(data.slabs), list(data.ray_summands)
    names = [s.name for s in slabs] + ["NOPE"] * wild
    rays = sorted({s.ray for s in summands})
    roles = (["boundary", "spine", "ray:none"] + [f"ray:{r}" for r in rays]
             + ["foo"] * wild)
    for _ in range(rng.randint(1, 3)):
        what = rng.randrange(3) if summands else 1
        i = rng.randrange(len(summands)) if summands else None
        if what == 0 and rng.randrange(2):
            summands.append(summands[i])
        elif what == 0:
            del summands[i]
        elif what == 1:
            k = rng.randrange(len(slabs))
            new = list(slabs[k].roles)
            new[rng.randrange(len(new))] = rng.choice(roles)
            slabs[k] = replace(slabs[k], roles=tuple(new))
        else:
            kind = rng.choice(sorted(KIND_SLABS))
            summands[i] = RaySummand(summands[i].ray, kind,
                                     tuple(rng.sample(names, KIND_SLABS[kind])))
    return partial(replace, data, slabs=slabs, ray_summands=summands)


def perturbed_fixture(doc, rng, wild=False):
    return perturbed(data_from_fixture(doc), rng, wild)


def perturbed_method1(p, rng, wild=False):
    return perturbed(method1_data(p), rng, wild)


def perturbations(seed, per_fixture, per_polytope, wild=False):
    """Builders of perturbed data: the malformed mm2_2 fixtures, and the
    bundled slab fixtures and method-1 data, each perturbed."""
    rng = random.Random(f"validate {seed}")
    builds = [partial(data_from_fixture, doc)
              for doc, _ in malformed_slab_fixtures().values()]
    for name in list_fixtures():
        doc = load_fixture(name)
        if doc.get("kind") == "slabs":
            builds += [perturbed_fixture(doc, rng, wild)
                       for _ in range(per_fixture)]
    for name in NORMAL_FAN_POLYTOPES:
        builds += [perturbed_method1(bundled(name), rng, wild)
                   for _ in range(per_polytope)]
    return builds


@pytest.mark.parametrize("seed", SEEDS)
def test_per_slab_checks_refuse_what_the_endpoint_sum_refused(seed):
    # the perturbed data keeps its slab names unique and each summand on
    # its kind's number of distinct slabs of the data; within that,
    # construction refuses exactly what the old `validate` did, with the
    # old message wherever the old sum passed
    sums = 0
    for build in perturbations(seed, 25, 6):
        old, new = refusal(ref_validate, unchecked(build)), refusal(build)
        assert (old is None) == (new is None), old
        if old is not None and old.startswith("ray-side endpoints"):
            sums += 1
        else:
            assert new == old
    assert sums >= 10


# ---------------------------------------------------------------------------
# assemble_global: checked data uses up every stub pool exactly


@pytest.mark.parametrize("seed", SEEDS)
def test_stub_pools_are_used_up_on_checked_data(seed):
    # summands repeated, dropped or moved (onto an unknown slab too), and
    # roles redrawn (to "foo" or an unused ray too): what construction
    # accepts, the old assembly with its stub raises glues into the same
    # graph, and whatever those raises refused, construction refuses
    accepted = stubs = 0
    for build in perturbations(seed, 40, 20, wild=True):
        old = refusal(ref_assemble_with_stub_raises, unchecked(build))
        try:
            data = build()
        except DegenerationError:
            if old is not None and old.startswith("compatibility violated"):
                stubs += 1
            continue
        assert old is None
        accepted += 1
        assert export_json(assemble_global(data)) == export_json(
            ref_assemble_with_stub_raises(data))
    assert accepted >= 40 and stubs >= 400


# ---------------------------------------------------------------------------
# normal_fan_data: the one label the check accepts is l(E*) / r(E*)


def accepted_labels(data, i, top):
    """The labels 0..top of edge i that construction accepts, every other
    edge keeping the label `normal_fan_data` derived."""
    out = []
    for label in range(top + 1):
        try:
            relabelled(data, {i: label})
        except DegenerationError:
            continue
        out.append(label)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_checked_normal_fan_labels_are_the_dual_lengths(seed):
    # each edge of P* has one label that construction accepts, and it is
    # the one `normal_fan_data` derives: l(E*) on a reflexive P (so
    # `analyze` needs no scan for method-1 data) and on v2, where the
    # three deleted checks report nothing, and l(E*) / r(E*) on W
    for name in NORMAL_FAN_POLYTOPES + ("v2", "W"):
        p = image(LatticePolytope(W_SIMPLEX) if name == "W" else bundled(name),
                  seed)
        data = normal_fan_data(p)
        dual = data.dual
        labels = [data.edge_values[i] for i in range(len(dual.edges))]
        assert [s.coeffs[s.roles.index("boundary")]
                for s in data.slabs] == labels
        for i, label in enumerate(labels):
            assert accepted_labels(data, i, 2 * label + 2) == [label], (
                name, i)
        lengths = [dual.dual_edge_length(e) for e in dual.edges]
        if name == "W":
            # l(E*) = 2 on every edge, and r(E*) = 2 on the one whose dual
            # edge is [(-2, 0, -1), (-2, 0, 1)] before the map
            assert (lengths, sorted(labels)) == ([2] * 6, [1] + [2] * 5)
            continue
        assert labels == lengths
        assert ref_check_convexity(data) == []
        assert ref_check_smooth_edge_data(data) == []
        assert ref_check_compatibility(data) == []
