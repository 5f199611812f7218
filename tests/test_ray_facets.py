"""Ray words read off P's facet cycles, and the sweep path without P* or
a polygon.

P lists its facets in P*'s vertex order (`tests/test_facet_order.py`),
and a facet's Gorenstein index is -level.  `_ray_word` reads the edge word of a facet of
P, divided by r, in a ray basis with two integer functionals.  It is
checked against the route it replaced, `ref_ray_target` (conftest), which
built the facet as a `Polygon` (`ref_cycle_in_ray_coords`), then a second
one divided by r, and read its word; and that route against the one before
it, `ref_facet_in_ray_coords`, which intersected P*'s incidence sets, went
through `plane_coords` and took a 2-D hull.  `decomposition_regimes` and
`identity24` read P's face data and build no P* and no `Polygon`.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import (NORMAL_FAN_POLYTOPES, _along_line, bundled,
                      bundled_polygon, edge_vector_multiset, mat_vec,
                      product_labels,
                      random_unimodular3, ref_cycle_in_ray_coords,
                      ref_dual_edge_length, ref_edge_length,
                      ref_facet_in_ray_coords, ref_minkowski_sum,
                      ref_ray_target)
from test_line_fan_routes import spied
from test_sweep_memos import SWEEP_BASES
from fanoscope import cli
from fanoscope.degeneration import (DegenerationError, _ray_word,
                                    decomposition_regimes,
                                    line_fan_data, method1_data,
                                    normal_fan_data, product_data,
                                    ray_lattice)
from fanoscope.fileio import bundled_polytopes
from fanoscope.invariants import euler_number, euler_smooth_mink
from fanoscope.polytope import (LatticePolytope, Polygon, PolytopeError,
                                cross, dot, gorenstein_index, identity24)

NAMES = sorted(k for k in bundled_polytopes() if k != "polygons")
PRODUCTS = ("diamond", "hexagon", "pentagon", "triangle")
SEEDS = range(12)
FLIP = [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]


def image_map(seed, flip=False):
    """The seeded GL(3,Z) map, composed with a reflection when `flip` so
    that both orientations occur for every seed."""
    m = random_unimodular3(random.Random(seed))
    return [mat_vec(m, row) for row in FLIP] if flip else m


def image(p, seed, flip=False):
    m = image_map(seed, flip)
    return LatticePolytope([tuple(mat_vec(m, list(v))) for v in p.vertices])


def same_polygon(got, want):
    # equal vertex cycles in the same order, with the same int/Fraction
    # types
    assert repr(got) == repr(want)


def word_outcome(fn, *args):
    """The word fn gives, as a tuple, or the type and message of its
    error."""
    try:
        return tuple(fn(*args))
    except (DegenerationError, PolytopeError) as err:
        return f"{type(err).__name__}: {err}"


def ref_word(p, f, w_basis, ray):
    return edge_vector_multiset(Polygon(ref_ray_target(p, f, w_basis, ray)))


def check_word(p, f, w_basis, ray):
    """`_ray_word` against the edge word of `ref_ray_target`.  On a P with
    rational vertices (a polar dual; no builder passes one) a facet at
    level -1 that is not integral in the ray basis is a rational vertex
    cycle, which `Polygon` refuses (its word has no lattice lengths);
    `_ray_word` refuses it as not divisible by its index 1."""
    got = word_outcome(_ray_word, p, f, w_basis, ray)
    want = word_outcome(ref_word, p, f, w_basis, ray)
    if want == "PolytopeError: polygon coordinates must be ints":
        assert not p.is_integral and f.level == -1
        want = ("DegenerationError: no smooth Minkowski decomposition: "
                f"facet of ray {ray} is not divisible by its index 1")
    assert got == want


def check_every_facet(p):
    """P's facets in P*'s vertex order, and all three routes on every facet
    of p in the ray basis of its dual vertex; P* is built here only to
    check them.  Returns the signs of <b0 x b1, n> met, which pick the
    facet cycle's direction."""
    dual = p.polar_dual()
    signs = set()
    for vid, f in enumerate(p.facets):
        assert f.dual == dual.vertices[vid]
        w_basis = ray_lattice(f.dual)
        same_polygon(ref_cycle_in_ray_coords(p, f, w_basis),
                     ref_facet_in_ray_coords(dual, vid, w_basis))
        check_word(p, f, w_basis, vid)
        signs.add(dot(cross(*w_basis), f.normal) > 0)
    return signs


@pytest.mark.parametrize("name", NAMES)
def test_ray_facets_match_the_hull_route_on_bundled_polytopes(name):
    check_every_facet(bundled(name))


@pytest.mark.parametrize("name", NAMES)
def test_ray_facets_match_on_polar_duals(name):
    # cycles built by _dual_from_faces, with rational vertices where P is
    # not reflexive
    check_every_facet(bundled(name).polar_dual())


@pytest.mark.parametrize("name", NAMES)
def test_ray_facets_match_on_gl3z_images(name):
    # with and without the reflection, so each seed gives one image of
    # each orientation
    signs = set()
    for seed in SEEDS:
        for flip in (False, True):
            q = image(bundled(name), seed, flip)
            signs |= check_every_facet(q) | check_every_facet(q.polar_dual())
    assert signs == {True, False}


def moved_line_fan(p, line, rays, rule, m=None, name=""):
    """`line_fan_data(p, line, rays, rule)`, or its image with P* moved by
    the map m: P moves by the inverse transpose, the fan and the edge
    rule's points (which live with P*) by m."""
    if m is not None:
        r0, r1, r2 = map(tuple, m)
        sign = dot(r0, cross(r1, r2))  # +-1
        inv_t = [[sign * x for x in row]
                 for row in (cross(r1, r2), cross(r2, r0), cross(r0, r1))]
        p = LatticePolytope([tuple(mat_vec(inv_t, list(v)))
                             for v in p.vertices])
        line, *rays = (tuple(mat_vec(m, list(v))) for v in [line] + rays)
        rule = [dict(r, meets=tuple(mat_vec(m, list(r["meets"]))))
                for r in rule]
    return line_fan_data(p, line, rays, rule, name=name)


def line_direction(m=None):
    """The minimal line of `b3_data` and `product_image`, or its image
    under m."""
    return (0, 0, 1) if m is None else tuple(mat_vec(m, [0, 0, 1]))


def b3_data(m=None):
    """The b3_cubic line-fan data, or its image under m."""
    return moved_line_fan(bundled("b3_cubic"), (0, 0, 1),
                          [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                          [{"meets": (0, 0, 1), "value": 3}], m, "B3")


def product_image(name, m):
    """The line fan of `product_data` on a bundled polygon, moved by m."""
    q = bundled_polygon(name)
    data = product_data(q, name)
    rays = [(x, y, 0) for x, y in q.vertices]
    rule = [{"meets": r, "value": a}
            for r, a in zip(rays, product_labels(q))]
    return moved_line_fan(data.polytope, (0, 0, 1), rays, rule, m, name)


def line_fan_rays():
    """(P, P*, vertex id, ray basis) of every polar vertex on the minimal line
    of b3_cubic's data, its seeded images and the 4 products: the facets
    whose ray summands `line_fan_data` builds.  The products have no polar
    vertex on their line."""
    maps = [None] + [image_map(seed, flip) for seed in SEEDS
                     for flip in (False, True)]
    datas = [(b3_data(m), line_direction(m)) for m in maps]
    datas += [(product_data(bundled_polygon(n), n), line_direction())
              for n in PRODUCTS]
    for data, dirv in datas:
        dual = data.dual
        for vid, v in enumerate(dual.vertices):
            if _along_line(v, dirv):
                yield data.polytope, dual, vid, ray_lattice(dirv)


def test_ray_facets_match_on_line_fan_rays():
    signs = set()
    for p, dual, vid, w_basis in line_fan_rays():
        f = p.facets[vid]
        assert f.dual == dual.vertices[vid]
        same_polygon(ref_cycle_in_ray_coords(p, f, w_basis),
                     ref_facet_in_ray_coords(dual, vid, w_basis))
        check_word(p, f, w_basis, vid)
        signs.add(dot(cross(*w_basis), f.normal) > 0)
    # the ray basis is ccw about the facet's normal on some and cw on others
    assert signs == {True, False}


# ---------------------------------------------------------------------------
# a ray vertex is smooth by construction


def ref_d1_verdict(data, ray, f, w_basis):
    """The D1 check of the retired smooth-data verdicts, which construction
    makes unneeded: r times the Minkowski sum of the ray's summands against
    the facet v*."""
    summands = [s.summand for s in data.ray_summands
                if s.ray == ray and s.summand is not None]
    total = ref_minkowski_sum(summands) if summands else None
    if not isinstance(total, Polygon):
        return "violation: ray carries no surface summands"
    r = -f.level
    scaled = Polygon([tuple(r * x for x in v) for v in total.vertices])
    if scaled.vertices == ref_cycle_in_ray_coords(data.polytope, f, w_basis):
        return "smooth"
    return "violation: v* != r P_L + S_v"


def d1_vertices(data, dirv):
    """(ray name, facet of P, ray basis) of every polar vertex on a ray of
    the data's fan: every vertex of a normal fan (dirv None), and a line
    fan's vertices on its minimal line, through dirv."""
    facets = data.polytope.facets
    if dirv is None:
        for vid, f in enumerate(facets):
            yield f"v{vid}", f, ray_lattice(f.dual)
        return
    for v, f in zip(data.dual.vertices, facets):
        if _along_line(v, dirv):
            ray = "rho_plus" if dot(v, dirv) > 0 else "rho_minus"
            yield ray, f, ray_lattice(dirv)


def ray_datas(name, seed=None, flip=False):
    """(data, its minimal line or None) of a bundled target, or of its
    seeded image: every method-1 choice, v2's normal fan with a_E = 6, or
    the line fan of b3_cubic or a product."""
    m = None if seed is None else image_map(seed, flip)
    if name == "b3_cubic":
        return [(b3_data(m), line_direction(m))]
    if name in PRODUCTS:
        return [(product_image(name, m), line_direction(m))]
    p = bundled(name) if m is None else image(bundled(name), seed, flip)
    if name == "v2":
        return [(normal_fan_data(p), None)]
    counts = [len(r) for r in decomposition_regimes(p)]
    return [(method1_data(p, choice), None)
            for choice in itertools.product(*map(range, counts))]


@pytest.mark.parametrize("name", NORMAL_FAN_POLYTOPES
                         + ("v2", "b3_cubic") + PRODUCTS)
def test_ray_summands_resum_to_their_facet(name):
    # what construction holds without checking it: r times the sum of a
    # ray's summands is its facet, so S_v is a point and D1 is smooth
    indices = set()
    for seed, flip in [(None, False)] + [(seed, flip) for seed in SEEDS
                                         for flip in (False, True)]:
        for data, dirv in ray_datas(name, seed, flip):
            for ray, f, w_basis in d1_vertices(data, dirv):
                assert ref_d1_verdict(data, ray, f, w_basis) == "smooth"
                indices.add(-f.level)
    # the products have no polar vertex on their line
    assert indices == ({1, 3} if name == "v2" else
                       set() if name in PRODUCTS else {1})


# ---------------------------------------------------------------------------
# a facet's Gorenstein index is -level


def integral_images(name):
    """The bundled polytope, its seeded images of both orientations, and
    the polar duals among them that are integral."""
    p = bundled(name)
    polys = [p] + [image(p, seed, flip) for seed in SEEDS
                   for flip in (False, True)]
    return polys + [q.polar_dual() for q in polys if q.is_reflexive()]


@pytest.mark.parametrize("name", NAMES)
def test_facet_gorenstein_index_is_minus_level(name):
    # on Z^3 the primitive functional of a facet is its normal, so the
    # index of the cone over it is the facet's lattice distance from 0
    indices = set()
    for q in integral_images(name):
        for f in q.facets:
            assert gorenstein_index([q.vertices[i] for i in f.cycle]) == \
                -f.level
            indices.add(-f.level)
    assert max(indices) == {"v2": 3, "b1": 2}.get(name, 1)


@pytest.mark.parametrize("name", NAMES)
def test_reflexive_edges_have_gorenstein_index_one(name):
    # what `method1_data` relies on without checking: an edge of a
    # reflexive P lies on a facet at level -1, whose normal restricts to a
    # primitive functional on the edge's saturated lattice
    reflexive = [q for q in integral_images(name) if q.is_reflexive()]
    assert bool(reflexive) == bundled(name).is_reflexive()
    for q in reflexive:
        for e in q.edges:
            assert gorenstein_index([q.vertices[i]
                                     for i in e.vertex_ids]) == 1


# ---------------------------------------------------------------------------
# no P* on the sweep path


@pytest.mark.parametrize("name", NAMES)
def test_sweep_path_builds_no_polar_dual(name):
    p = bundled(name)
    if name == "b1":
        # a facet at level -2 whose vertices 2 does not divide
        with pytest.raises(DegenerationError, match="^no smooth Minkowski "
                           "decomposition: facet of ray 0 is not divisible "
                           "by its index 2$"):
            decomposition_regimes(p)
    else:
        decomposition_regimes(p)
    if p.is_reflexive():
        identity24(p)
    assert p._dual is None


def test_sweep_path_builds_no_polygon(monkeypatch):
    # each ray's facet is decomposed from its edge word alone
    built = []
    init = Polygon.__init__

    def counted(self, points):
        built.append(points)
        init(self, points)
    reflexive = [bundled(name) for name in NAMES
                 if bundled(name).is_reflexive()]
    polys = reflexive + [image(p, seed, flip) for p in reflexive
                         for seed in SEEDS for flip in (False, True)]
    monkeypatch.setattr(Polygon, "__init__", counted)
    regimes = [decomposition_regimes(p) for p in polys]
    assert built == []
    assert sum(len(r) for r in regimes) > 1000


@pytest.mark.parametrize("name", ["cube", "v2", "octahedron", "mm2_5"])
def test_decompositions_command_builds_no_polar_dual(name, monkeypatch,
                                                      capsys):
    builds = []
    polar_dual = LatticePolytope.polar_dual

    def counted(self):
        if self._dual is None:
            builds.append(self)
        return polar_dual(self)
    monkeypatch.setattr(LatticePolytope, "polar_dual", counted)
    assert cli.main(["decompositions", name]) == 0
    assert builds == []
    # each entry's dual vertex is still P*'s vertex of that index
    dual = polar_dual(bundled(name))
    assert [e["dual_vertex"] for e in json.loads(capsys.readouterr().out)] \
        == [[str(x) for x in v] for v in dual.vertices]


ON_FACET = [(1, 0, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]


def test_origin_on_a_facet_raises_as_before():
    p = LatticePolytope(ON_FACET)
    with pytest.raises(PolytopeError, match="^origin is not interior$"):
        decomposition_regimes(p)
    with pytest.raises(PolytopeError, match="^origin is not interior$"):
        p.polar_dual()


def test_rational_vertices_raise_before_any_ray():
    # the cube with its vertices halved has the origin inside and r = 1/2
    # on every facet, which `_ray_word` cannot read
    half = (Fraction(-1, 2), Fraction(1, 2))
    half_cube = LatticePolytope(list(itertools.product(half, repeat=3)))
    assert half_cube.origin_interior()
    with pytest.raises(PolytopeError, match="^decompositions need an "
                       "integral polytope$"):
        decomposition_regimes(half_cube)


def test_origin_on_a_facet_cli_line(tmp_path, capsys):
    path = tmp_path / "on_facet.json"
    path.write_text('{"vertices": %s}' % [list(v) for v in ON_FACET])
    assert cli.main(["decompositions", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ('{"error": "PolytopeError", "message": "not a Fano '
                   'polytope: vertices must be primitive with the origin '
                   'strictly interior"}\n')


# ---------------------------------------------------------------------------
# identity24 by gcds


def edge_route(p):
    return sum(ref_edge_length(p, e) * ref_dual_edge_length(p, e)
               for e in p.edges)


def test_identity24_matches_the_edge_length_route():
    checked = 0
    for name in NAMES:
        p = bundled(name)
        if not p.is_reflexive():
            continue
        polys = [p, p.polar_dual()]
        polys += [image(p, seed, flip) for seed in SEEDS
                  for flip in (False, True)]
        for q in polys + [q.polar_dual() for q in polys[2:]]:
            assert identity24(q) == edge_route(q) == 24
            checked += 1
    assert checked > 0


def test_closed_euler_form_matches_the_polar_route(monkeypatch):
    # `euler_smooth_mink` reads sum l(E)^2 l(E*) off the edges E of P,
    # where it read sum l(E) l(E*)^2 off those of P*; neither it nor
    # `identity24` calls `polar_dual`
    sweep = json.loads(SWEEP_BASES.read_text())["sweep_bases"]
    bases = [bundled(name) for name in NAMES] + [
        LatticePolytope(doc["vertices"]) for doc in sweep.values()]
    checked = 0
    for p in bases:
        if not p.is_reflexive():
            continue
        for q in [p, image(p, 1), image(p, 2, True)]:
            try:
                data = method1_data(q)
            except DegenerationError:  # mm2_5: a facet with no decomposition
                continue
            dual = data.dual
            want = 24 + data.p_count - sum(
                ref_edge_length(dual, e) * ref_dual_edge_length(dual, e) ** 2
                for e in dual.edges)
            calls = []
            spied(monkeypatch, LatticePolytope, "polar_dual", calls)
            assert euler_smooth_mink(data) == want == euler_number(data)
            assert identity24(q) == 24
            monkeypatch.undo()
            assert calls == []
            checked += 1
    assert checked == 3 * 22


def test_identity24_refuses_non_reflexive():
    with pytest.raises(PolytopeError, match="reflexive"):
        identity24(bundled("v2"))
