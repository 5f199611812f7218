"""Face data and lattice indices of faces against the routines they
replaced, over GL(3,Z) images of the bundled polytopes and their polar
duals."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (_frac, facet_polygon, mat_vec, point_counts,
                      random_unimodular3)
from test_linalg import ref_snf
from fanoscope.degeneration import (method1_data, normal_fan_data,
                                    ray_lattice)
from fanoscope.fileio import bundled_polytopes
from fanoscope.invariants import (InvariantError, _cell_class_data, degree,
                                  fano_index)
from fanoscope.linalg import (LinalgError, clear_denominators, kernel_basis,
                              lex_positive, primitive, saturate, solve_in_span)
from fanoscope.polytope import (LatticePolytope, Polygon,
                                PolytopeError, _clean,
                                _hull3d_facets, _lattice_index, cross, dot,
                                gorenstein_index, is_integral, plane_coords,
                                plane_normal, vsub)

NAMES = sorted(k for k in bundled_polytopes() if k != "polygons")

FACE = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)


def ref_embed_polygon(points3):
    """(the polygon of the points' coordinates in a saturated basis of
    their plane, times their common denominator d, the basis, the base
    point, d): scaled to be a lattice polygon, with the same vertex order."""
    pts = [_frac(p) for p in points3]
    base = pts[0]
    dirs = [vsub(p, base) for p in pts[1:]]
    denom = 1
    for d in dirs:
        for x in d:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    rows = [[int(x * denom) for x in d] for d in dirs if any(d)]
    basis = saturate(rows)
    if len(basis) != 2:
        raise PolytopeError("points do not span a plane")
    coords = []
    for p in pts:
        sol = solve_in_span(basis, list(vsub(p, base)))
        if sol is None:
            raise PolytopeError("point outside the plane")
        coords.append(tuple(sol))
    rows, d = clear_denominators(coords)
    return (Polygon(map(tuple, rows)), [tuple(b) for b in basis],
            _clean(base), d)


def ref_facet_cycle(verts, ids, normal):
    poly, basis, base, d = ref_embed_polygon(verts)
    lookup = {}
    for vid, v in zip(ids, verts):
        sol = solve_in_span(basis, list(vsub(_frac(v), _frac(base))))
        lookup[tuple(x * d for x in sol)] = vid
    cycle = [lookup[_frac(v)] for v in poly.vertices]
    b0, b1 = basis
    if dot(cross(b0, b1), normal) < 0:
        cycle = [cycle[0]] + cycle[:0:-1]
    return tuple(cycle)


@st.composite
def polytopes(draw):
    """A GL(3,Z) image of a bundled polytope or of its polar dual."""
    p = LatticePolytope(bundled_polytopes()[draw(st.sampled_from(NAMES))]
                        ["vertices"])
    if draw(st.booleans()):
        p = p.polar_dual()
    m = random_unimodular3(random.Random(draw(st.integers(0, 2 ** 32))))
    return LatticePolytope([tuple(mat_vec(m, list(v))) for v in p.vertices])


def rotations(cycle):
    return {cycle[i:] + cycle[:i] for i in range(len(cycle))}


@FACE
@given(polytopes())
def test_facet_cycle_matches_embedding_route(p):
    for f in p.facets:
        ids = sorted(f.vertex_ids)
        old = ref_facet_cycle([p.vertices[i] for i in ids], ids, f.normal)
        assert f.cycle in rotations(old)
        assert f.cycle[0] == ids[0]


def ref_plane_coords(basis, v):
    b0, b1 = basis
    c = cross(b0, b1)
    den = lcm(*(x.denominator for x in v))
    if den != 1:
        v = [int(x * den) for x in v]
    if dot(c, v) != 0:
        return None
    norm2 = dot(c, c) * den
    return (Fraction(dot(cross(v, b1), c), norm2),
            Fraction(dot(cross(b0, v), c), norm2))


SMALL = st.integers(-5, 5)
VECTORS = st.tuples(SMALL, SMALL, SMALL)
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(VECTORS, VECTORS, RATIONALS, RATIONALS, st.integers(-3, 3))
def test_plane_coords_matches_solve_in_span(b0, b1, x, y, off):
    c = cross(b0, b1)
    if not any(c):
        return
    v = tuple(x * p + y * q + off * n for p, q, n in zip(b0, b1, c))
    got, = plane_coords((b0, b1), [v])
    ref = solve_in_span([list(b0), list(b1)], list(v))
    assert got == ref_plane_coords((b0, b1), v)
    if off:
        assert got is None and ref is None
    else:
        assert got == (x, y) == tuple(ref)
        # an int exactly where the quotient is integral
        assert [type(t) is int for t in got] == [t.denominator == 1
                                                  for t in (x, y)]


def ref_point_plane_coords(basis, v):
    """`plane_coords` as it was, one point at a time: v x b1 = x*c and
    b0 x v = y*c with c = b0 x b1."""
    b0, b1 = basis
    c = cross(b0, b1)
    (v,), den = clear_denominators([v])  # integer arithmetic from here on
    if dot(c, v) != 0:
        return None
    norm2 = dot(c, c) * den
    return (ref_quotient(dot(cross(v, b1), c), norm2),
            ref_quotient(dot(cross(b0, v), c), norm2))


def ref_quotient(num: int, den: int):
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


@st.composite
def plane_batches(draw):
    """(basis, points): a basis with b0 x b1 != 0 and 0-6 points
    x*b0 + y*b1 + off*(b0 x b1), with int or Fraction x, y and off (off = 0
    on the plane)."""
    b0, b1 = draw(VECTORS), draw(VECTORS)
    c = cross(b0, b1)
    assume(any(c))
    points = []
    for _ in range(draw(st.integers(0, 6))):
        coeff = draw(st.sampled_from([SMALL, RATIONALS]))
        x, y = draw(coeff), draw(coeff)
        off = draw(coeff) if draw(st.booleans()) else 0
        points.append(tuple(x * p + y * q + off * n
                            for p, q, n in zip(b0, b1, c)))
    return (b0, b1), points


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(plane_batches())
def test_plane_coords_matches_the_point_route(batch):
    basis, points = batch
    want = [ref_point_plane_coords(basis, v) for v in points]
    got = plane_coords(basis, points)
    assert repr(got) == repr(want)  # same values, same int/Fraction types


@FACE
@given(polytopes())
def test_polar_dual_is_built_once_and_is_an_involution(p):
    d = p.polar_dual()
    assert d is p.polar_dual()
    assert d.polar_dual().vertices == p.vertices


def face_fields(p):
    """Every piece of face data, in the polytope's own order."""
    return (p.vertices,
            [(f.normal, f.level, f.vertex_ids, f.cycle, f.dual)
             for f in p.facets],
            [(e.vertex_ids, e.facet_ids) for e in p.edges])


@FACE
@given(polytopes())
def test_polar_dual_from_faces_equals_hull_built_dual(p):
    d = p.polar_dual()
    assert face_fields(d) == face_fields(
        LatticePolytope([f.dual for f in p.facets]))
    assert d.polar_dual() is p


def test_polar_dual_from_faces_keeps_rational_duals():
    for name in ("b1", "v2"):  # not reflexive: P* has rational vertices
        p = LatticePolytope(bundled_polytopes()[name]["vertices"])
        d = p.polar_dual()
        assert not d.is_integral
        assert face_fields(d) == face_fields(
            LatticePolytope([f.dual for f in p.facets]))
        assert [f.dual for f in d.facets] == list(p.vertices)


def generic_hull3d_facets(pts):
    """The triple scan with generic vector helpers, before integer
    inlining."""
    seen = {}
    planes = set()
    for i, j, k in combinations(range(len(pts)), 3):
        nrm = cross(vsub(pts[j], pts[i]), vsub(pts[k], pts[i]))
        if all(x == 0 for x in nrm):
            continue
        nrm = primitive(nrm)
        nrm = max(nrm, tuple(-x for x in nrm))
        c = dot(nrm, pts[i])
        if (nrm, c) in planes:
            continue
        planes.add((nrm, c))
        vals = [dot(nrm, p) for p in pts]
        if min(vals) == c:
            pass
        elif max(vals) == c:
            nrm = tuple(-x for x in nrm)
            c = -c
            vals = [-v for v in vals]
        else:
            continue
        seen[(nrm, c)] = [m for m, v in enumerate(vals) if v == c]
    return [(nrm, c, members) for (nrm, c), members in seen.items()]


@FACE
@given(polytopes(), st.integers(1, 3))
def test_hull_facets_match_generic_triple_scan(p, den):
    # the origin and edge midpoints are points that are not vertices;
    # den > 1 makes every coordinate rational
    extra = [(0, 0, 0)] + [
        tuple(Fraction(x + y, 2) for x, y in
              zip(*(p.vertices[i] for i in sorted(e.vertex_ids))))
        for e in p.edges[:3]]
    pts = sorted({_clean(tuple(Fraction(x, den) for x in v))
                  for v in list(p.vertices) + extra})
    got = _hull3d_facets(pts, clear_denominators(pts)[0])
    assert sorted(got) == sorted(generic_hull3d_facets(pts))


def assert_annihilator_basis(u, basis):
    """basis is two integer vectors that annihilate u, with cross product
    the lex-positive primitive u."""
    assert len(basis) == 2
    assert all(len(b) == 3 and all(type(x) is int for x in b) for b in basis)
    assert not any(dot(b, u) for b in basis)
    assert cross(*basis) == lex_positive(primitive(u))


def test_ray_lattice_is_the_closed_form_basis_of_the_annihilator():
    for u in product(range(-5, 6), repeat=3):
        if any(u):
            assert_annihilator_basis(u, ray_lattice(u))
    for name in NAMES:
        for seed in (None, 1, 2, 3):
            for f in bundled_image(name, seed).facets:
                assert_annihilator_basis(f.normal, ray_lattice(f.normal))
                if f.dual is not None:
                    assert_annihilator_basis(f.dual, ray_lattice(f.dual))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PolytopeError, LinalgError, InvariantError) as exc:
        return f"{type(exc).__name__}: {exc}"


def ref_gorenstein_index(face_vertices):
    """The saturate -> solve_in_span -> affine-normal route."""
    pts = [tuple(int(x) for x in _frac(p)) if is_integral(p) else None
           for p in face_vertices]
    if any(p is None for p in pts):
        raise PolytopeError("Gorenstein index needs integral vertices")
    basis = saturate([list(p) for p in pts])
    r = len(basis)
    coords = []
    for p in pts:
        sol = solve_in_span(basis, list(p))
        if sol is None:
            raise PolytopeError("face outside its saturation")
        coords.append(tuple(sol))
    diffs = [list(vsub(c, coords[0])) for c in coords[1:]]
    adim = len(saturate(diffs)) if any(any(d) for d in diffs) else 0
    if adim != r - 1:
        raise PolytopeError("cone over the face is not strictly convex")
    normal = ref_affine_normal(coords, r)
    level = dot(normal, coords[0])
    if level > 0:
        normal = tuple(-x for x in normal)
        level = -level
    if level == 0:
        raise PolytopeError("cone over the face is not strictly convex")
    return -int(level)


def ref_affine_normal(coords, r):
    rows = [list(vsub(c, coords[0])) for c in coords[1:]]
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not rows:
        if r != 1:
            raise PolytopeError("face is not a hyperplane section")
        return (1,)
    ker = kernel_basis(rows)
    if len(ker) != 1:
        raise PolytopeError("face is not a hyperplane section")
    return primitive(ker[0])


@FACE
@given(polytopes())
def test_gorenstein_index_matches_saturation_route(p):
    faces = ([[vid] for vid in range(len(p.vertices))]
             + [sorted(e.vertex_ids) for e in p.edges]
             + [f.cycle for f in p.facets])
    for face in faces:
        pts = [p.vertices[i] for i in face]
        assert outcome(gorenstein_index, pts) == \
            outcome(ref_gorenstein_index, pts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=5),
                 st.lists(VECTORS, min_size=1, max_size=5)))
def test_gorenstein_index_matches_saturation_route_on_point_sets(pts):
    assert outcome(gorenstein_index, pts) == outcome(ref_gorenstein_index, pts)


def ref_ann_functional(plane_basis_vectors):
    rows = [[Fraction(x) for x in v] for v in plane_basis_vectors]
    ker = kernel_basis(rows)
    assert len(ker) == 1
    return lex_positive(primitive(ker[0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(VECTORS, VECTORS)
def test_plane_normal_matches_kernel_route(a, b):
    if any(cross(a, b)):
        assert plane_normal(a, b) == ref_ann_functional([a, b])


def ref_index_in_saturation(v, basis):
    sat = saturate(basis)
    coeffs = solve_in_span(sat, list(v))
    assert coeffs is not None
    assert all(c.denominator == 1 for c in coeffs)
    return gcd(*map(int, coeffs))


def ref_fano_index(data):
    """The kernel_basis + index_in_saturation route on rank-one data."""
    dual = data.dual
    d_values = [_cell_class_data(dual, f) for f in dual.facets]
    rows = []
    for e in dual.edges:
        f1, f2 = sorted(e.facet_ids)
        row = [0] * len(dual.facets)
        row[f1] = d_values[f2]
        row[f2] = -d_values[f1]
        rows.append(row)
    kernel = kernel_basis(rows)
    if len(kernel) != 1:
        raise InvariantError("not rank one")
    return ref_index_in_saturation(d_values, [primitive(kernel[0])])


RANK_ONE = {"p3": method1_data, "q3_quadric": method1_data,
            "cube": method1_data, "b4_intersection": method1_data,
            "v2": lambda p: normal_fan_data(p)}


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.none(), st.integers(0, 2 ** 32)))
def test_fano_index_matches_kernel_route(seed):
    # seed None: the bundled models themselves; else one GL(3,Z) image
    for name, build in RANK_ONE.items():
        verts = bundled_polytopes()[name]["vertices"]
        if seed is not None:
            m = random_unimodular3(random.Random(seed))
            verts = [tuple(mat_vec(m, list(v))) for v in verts]
        data = build(LatticePolytope(verts))
        assert fano_index(data, 1, degree(data.polytope)) == \
            ref_fano_index(data)


# ---------------------------------------------------------------------------
# lattice indices, cell class divisibility, boundary areas and degrees from
# integer minors, against the Smith, embedding and dilation routes


def ref_lattice_index(rows):
    """The SNF route: the number and the product of the nonzero invariant
    factors of the rows."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0, 1
    s, _, _ = ref_snf(rows)
    factors = [s[i][i] for i in range(min(len(s), len(s[0]))) if s[i][i]]
    return len(factors), prod(factors)


@st.composite
def rows_of_low_rank(draw):
    """1-6 integer rows with 2 or 3 columns, each a small combination of 1-3
    drawn generators, so ranks below the column count are common."""
    ncols = draw(st.integers(2, 3))
    entry = st.integers(-6, 6)
    gens = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = [draw(st.integers(-3, 3)) for _ in gens]
        out.append([sum(c * g[j] for c, g in zip(coeffs, gens))
                    for j in range(ncols)])
    return out


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(rows_of_low_rank())
def test_lattice_index_matches_smith_route(rows):
    assert _lattice_index(rows) == ref_lattice_index(rows)


def ref_cell_class_data(dual, facet):
    """The SNF-V route: the gcd of the free coordinates of the first row of
    V, with a Fraction centroid for the sign of each edge functional."""
    rays = [facet.normal]
    cyc = list(facet.cycle)
    k = len(cyc)
    interior = [Fraction(sum(dual.vertices[i][j] for i in cyc), k)
                for j in range(3)]
    for t in range(k):
        a = dual.vertices[cyc[t]]
        b = dual.vertices[cyc[(t + 1) % k]]
        m = primitive(cross(a, b))
        if dot(m, interior) < 0:
            m = tuple(-x for x in m)
        rays.append(m)
    nrays = len(rays)
    relations = [[rays[j][i] for j in range(nrays)] for i in range(3)]
    s, _, v = ref_snf(relations)
    r = sum(1 for i in range(min(len(s), nrays)) if s[i][i] != 0)
    # class of the base divisor = image of the first basis vector; free
    # coordinates live past the first r slots of x * V
    y = v[0]
    free = y[r:]
    g = 0
    for x in free:
        g = gcd(g, abs(x))
    if g == 0:
        raise InvariantError("base divisor class is torsion in a cell")
    return g


def bundled_image(name, seed):
    """A bundled polytope, or with a seed its image under one seeded GL(3,Z)
    map."""
    verts = bundled_polytopes()[name]["vertices"]
    if seed is not None:
        m = random_unimodular3(random.Random(seed))
        verts = [tuple(mat_vec(m, list(v))) for v in verts]
    return LatticePolytope(verts)


SEEDS = settings(max_examples=12, deadline=None, derandomize=True,
                 database=None)


@SEEDS
@given(st.one_of(st.none(), st.integers(0, 2 ** 32)))
def test_cell_class_data_matches_smith_route(seed):
    for name in NAMES:
        dual = bundled_image(name, seed).polar_dual()
        for f in dual.facets:
            assert outcome(_cell_class_data, dual, f) == \
                outcome(ref_cell_class_data, dual, f)


def ref_boundary_area(p):
    """The embedding route: each facet as a Polygon in its saturated plane
    lattice, its area truncated with int()."""
    total = 0
    for f in p.facets:
        poly, _, _ = facet_polygon(p, f)
        total += int(poly.two_area())
    return total


@FACE
@given(st.one_of(polytopes(),
                 st.lists(VECTORS, min_size=4, max_size=10)))
def test_boundary_area_matches_embedding_route(p):
    if not isinstance(p, LatticePolytope):  # a hull of drawn lattice points
        try:
            p = LatticePolytope(p)
        except PolytopeError:
            assume(False)
    assume(p.is_integral)
    assert p.boundary_area() == ref_boundary_area(p)


def test_boundary_area_of_a_rational_polytope_is_exact():
    # v2's polar dual has a vertex at -(1, 1, 1)/3; int() on each facet
    # area gave 1
    assert bundled_image("v2", None).polar_dual().boundary_area() == 2


def ref_degree(p):
    """The dilation route for non-reflexive P: clear the denominators of P*,
    build the dilated hull, divide its boundary area by k^2."""
    if not p.is_fano():
        raise InvariantError("degree needs a Fano polytope")
    dual = p.polar_dual()
    if p.is_reflexive():
        total, _, _ = point_counts(dual)
        deg = 2 * total - 6
        if deg != ref_boundary_area(dual):
            raise InvariantError("degree cross-check failed")
        return deg
    rows, k = clear_denominators(dual.vertices)
    scaled = LatticePolytope(rows)
    area = ref_boundary_area(scaled)
    if area % (k * k):
        raise InvariantError("dilated boundary area is not divisible by k^2")
    return area // (k * k)


@SEEDS
@given(st.one_of(st.none(), st.integers(0, 2 ** 32)))
def test_degree_matches_dilation_route(seed):
    for name in NAMES:
        p = bundled_image(name, seed)
        assert degree(p) == ref_degree(p)
    assert not bundled_image("v2", seed).is_reflexive()
