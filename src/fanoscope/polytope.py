"""Lattice polytopes in ranks 2 and 3: hulls, face data, duality, counting.

Coordinates are exact (int / Fraction).  3-polytopes carry their facet
normals, facet vertex cycles and edge list; 2-polygons are stored with a
canonical counterclockwise vertex order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .linalg import primitive, saturate, solve_in_span

Vec = tuple


class PolytopeError(ValueError):
    pass


def _frac(v):
    return tuple(Fraction(x) for x in v)


def _clean(v):
    """Exact coordinates; those with denominator 1 become ints (stable repr /
    JSON)."""
    return tuple(x if type(x) is int
                 else int(x) if Fraction(x).denominator == 1 else Fraction(x)
                 for x in v)


def is_integral(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def lattice_length(a, b) -> int:
    """Number of lattice points on the integral segment [a, b] minus one."""
    d = vsub(b, a)
    if not is_integral(d):
        raise PolytopeError("lattice length of a non-integral segment")
    g = 0
    for x in d:
        g = gcd(g, abs(int(x)))
    return g


# ---------------------------------------------------------------------------
# polygons


class Polygon:
    """Convex lattice polygon with canonical ccw vertex order."""

    def __init__(self, points, hull=True):
        pts = [_clean(p) for p in points]
        if hull:
            verts = _hull2d(pts)
        else:
            verts = pts
        if len(verts) < 3:
            raise PolytopeError("not full-dimensional")
        # rotate so the lex-least vertex comes first
        k = min(range(len(verts)), key=lambda i: verts[i])
        self.vertices = tuple(verts[k:] + verts[:k])

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)})"

    @property
    def is_integral(self):
        return all(is_integral(v) for v in self.vertices)

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def edge_normals(self):
        """Primitive inner normal and support level per ccw edge."""
        out = []
        for a, b in self.edges():
            d = vsub(b, a)
            n = primitive((-d[1], d[0]))  # inner for ccw orientation
            out.append((n, dot(n, a)))
        return out

    def two_area(self):
        """Normalized area (twice the Euclidean area), exact."""
        vs = self.vertices
        s = sum(vs[i][0] * vs[(i + 1) % len(vs)][1]
                - vs[(i + 1) % len(vs)][0] * vs[i][1]
                for i in range(len(vs)))
        return _clean((s,))[0]

    def contains(self, p) -> bool:
        p = _frac(p)
        return all(dot(n, p) >= c for n, c in self.edge_normals())

    def lattice_points(self):
        if not self.is_integral:
            raise PolytopeError("lattice points of a non-integral polygon")
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        normals = self.edge_normals()
        pts = []
        for x in range(min(xs), max(xs) + 1):
            for y in range(min(ys), max(ys) + 1):
                if all(n[0] * x + n[1] * y >= c for n, c in normals):
                    pts.append((x, y))
        return pts

    def point_counts(self):
        """(total, interior, boundary) lattice point counts."""
        normals = self.edge_normals()
        total = interior = 0
        for p in self.lattice_points():
            total += 1
            if all(dot(n, p) > c for n, c in normals):
                interior += 1
        return total, interior, total - interior

    def boundary_lattice_points(self):
        normals = self.edge_normals()
        return [p for p in self.lattice_points()
                if any(dot(n, p) == c for n, c in normals)]

    def translate(self, t):
        return Polygon([vadd(v, t) for v in self.vertices], hull=False)

    def normalized(self):
        """Translate so the lex-least vertex sits at the origin."""
        v0 = min(self.vertices)
        return self.translate(tuple(-x for x in v0))

    def dilate(self, k):
        return Polygon([tuple(k * x for x in v) for v in self.vertices], hull=False)

    def edge_vector_multiset(self):
        """ccw boundary word: each edge contributes length copies of its
        primitive direction; the multiset sums to zero."""
        out = []
        for a, b in self.edges():
            d = vsub(b, a)
            step = primitive(d)
            out.extend([step] * lattice_length(a, b))
        return sorted(out)


def _hull2d(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(ps):
        res = []
        for p in ps:
            while len(res) >= 2:
                o, a = res[-2], res[-1]
                crossz = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if crossz <= 0:
                    res.pop()
                else:
                    break
            res.append(p)
        return res

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise PolytopeError("not full-dimensional")
    return hull


def pick_area(polygon: Polygon) -> int:
    """Normalized area 2A via Pick's theorem (2A = 2i + b - 2), cross-checked
    against the shoelace sum."""
    if not polygon.is_integral:
        raise PolytopeError("Pick's theorem needs an integral polygon")
    _, i, b = polygon.point_counts()
    by_pick = 2 * i + b - 2
    if by_pick != polygon.two_area():
        raise PolytopeError("Pick / shoelace mismatch")
    return by_pick


def plane_coords(basis, v):
    """Coordinates (x, y) with v = x*b0 + y*b1 for a rank-2 basis (b0, b1)
    of a plane through the origin in 3-space (integer b0, b1; rational v);
    None when v is off the plane.

    With c = b0 x b1: v x b1 = x*c and b0 x v = y*c, so both coordinates are
    one exact quotient by |c|^2.
    """
    b0, b1 = basis
    c = cross(b0, b1)
    den = lcm(*(x.denominator for x in v))
    if den != 1:
        v = [int(x * den) for x in v]  # integer arithmetic from here on
    if dot(c, v) != 0:
        return None
    norm2 = dot(c, c) * den
    return (Fraction(dot(cross(v, b1), c), norm2),
            Fraction(dot(cross(b0, v), c), norm2))


def embed_polygon(points3):
    """Project coplanar 3-space points to their saturated rank-2 sublattice.

    Returns (Polygon, basis, base_point): point = base + x*b0 + y*b1.
    """
    base = points3[0]
    dirs = [vsub(p, base) for p in points3]
    denom = lcm(*(x.denominator for d in dirs for x in d))
    basis = saturate([[int(x * denom) for x in d] for d in dirs if any(d)])
    if len(basis) != 2:
        raise PolytopeError("points do not span a plane")
    coords = []
    for d in dirs:
        xy = plane_coords(basis, d)
        if xy is None:
            raise PolytopeError("point outside the plane")
        coords.append(xy)
    return Polygon(coords), [tuple(b) for b in basis], _clean(base)


# ---------------------------------------------------------------------------
# 3-polytopes


class Facet:
    __slots__ = ("normal", "level", "vertex_ids", "cycle", "dual")

    def __init__(self, normal, level, vertex_ids, cycle):
        self.normal = normal          # primitive inner normal (ints)
        self.level = level            # min of <normal, .> over the polytope
        self.vertex_ids = vertex_ids  # frozenset of vertex indices
        self.cycle = cycle            # vertex indices in cyclic order
        # vertex of the polar dual: normal / -level (None at level 0)
        if level == -1:
            self.dual = normal
        elif level:
            self.dual = _clean(tuple(Fraction(n, -level) for n in normal))
        else:
            self.dual = None

    def __repr__(self):
        return f"Facet(n={self.normal}, c={self.level})"


class Edge:
    __slots__ = ("vertex_ids", "facet_ids")

    def __init__(self, vertex_ids, facet_ids):
        self.vertex_ids = vertex_ids
        self.facet_ids = facet_ids


class LatticePolytope:
    """Full-dimensional polytope in rank 3 with exact face data.

    The face data (facets with their cycles and dual vertices, edges, the
    vertex -> facets incidence) is built once here; the polar dual is built
    on the first call to `polar_dual` and kept.
    """

    def __init__(self, points):
        pts = sorted({_clean(p) for p in points})
        if not pts or len(pts[0]) != 3:
            raise PolytopeError("expected 3-space points")
        facets_raw = _hull3d_facets(pts)
        on_facets = {i: set() for i in range(len(pts))}
        for fi, (_, _, members) in enumerate(facets_raw):
            for m in members:
                on_facets[m].add(fi)
        vertex_ids = [i for i in range(len(pts)) if len(on_facets[i]) >= 3]
        self.vertices = tuple(pts[i] for i in vertex_ids)
        reindex = {old: new for new, old in enumerate(vertex_ids)}
        facets = []
        for normal, level, members in facets_raw:
            ids = frozenset(reindex[m] for m in members if m in reindex)
            facets.append(Facet(normal, level, ids,
                                _facet_cycle(self.vertices, ids, normal)))
        facets.sort(key=lambda f: f.normal)
        self.facets = tuple(facets)
        self.edges = tuple(_edges_from_facets(self.facets))
        self._facets_at = {
            vid: frozenset(fi for fi, f in enumerate(self.facets)
                           if vid in f.vertex_ids)
            for vid in range(len(self.vertices))}
        self._dual = None
        self._fano = None

    def __repr__(self):
        return f"LatticePolytope({list(self.vertices)})"

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    # -- basic predicates ---------------------------------------------------

    @property
    def is_integral(self):
        return all(is_integral(v) for v in self.vertices)

    def origin_interior(self) -> bool:
        return all(f.level < 0 for f in self.facets)

    def is_fano(self) -> bool:
        if self._fano is None:
            self._fano = (self.is_integral and self.origin_interior()
                          and all(primitive(v) == v for v in self.vertices))
        return self._fano

    def is_reflexive(self) -> bool:
        return self.is_fano() and all(f.level == -1 for f in self.facets)

    # -- duality ------------------------------------------------------------

    def dual_vertex(self, facet: Facet):
        """Vertex of the polar dual corresponding to a facet."""
        if facet.dual is None:
            raise PolytopeError("facet through the origin has no dual vertex")
        return facet.dual

    def polar_dual(self) -> "LatticePolytope":
        if self._dual is None:
            if not self.origin_interior():
                raise PolytopeError("origin is not interior")
            self._dual = LatticePolytope([f.dual for f in self.facets])
        return self._dual

    def dual_face_vertices(self, vertex_ids):
        """Vertices (in the dual) of the face dual to the face spanned by the
        given vertex ids: the dual vertices of all facets containing it."""
        common = None
        for vid in vertex_ids:
            fs = self._facets_at.get(vid, frozenset())
            common = fs if common is None else (common & fs)
        if not common:
            raise PolytopeError("not a proper face")
        return [self.dual_vertex(self.facets[fi]) for fi in sorted(common)]

    # -- counting -----------------------------------------------------------

    def lattice_points(self):
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

    def point_counts(self):
        total = interior = 0
        for p in self.lattice_points():
            total += 1
            if all(dot(f.normal, p) > f.level for f in self.facets):
                interior += 1
        return total, interior, total - interior

    def dilate(self, k):
        return LatticePolytope([tuple(k * x for x in v) for v in self.vertices])

    def facet_polygon(self, facet: Facet):
        """The facet as a Polygon in its saturated rank-2 lattice."""
        pts = [self.vertices[i] for i in facet.cycle]
        poly, basis, base = embed_polygon(pts)
        return poly, basis, base

    def boundary_area(self) -> int:
        """Normalized area of the boundary: sum of facet areas in their own
        lattices."""
        total = 0
        for f in self.facets:
            poly, _, _ = self.facet_polygon(f)
            total += int(poly.two_area())
        return total

    def edge_length(self, edge: Edge) -> int:
        a, b = (self.vertices[i] for i in sorted(edge.vertex_ids))
        return lattice_length(a, b)

    def dual_edge_length(self, edge: Edge) -> int:
        f1, f2 = (self.facets[i] for i in sorted(edge.facet_ids))
        return lattice_length(self.dual_vertex(f1), self.dual_vertex(f2))


def _hull3d_facets(pts):
    n = len(pts)
    if n < 4:
        raise PolytopeError("not full-dimensional")
    seen = {}
    planes = set()  # every plane tested so far, in one orientation
    for i, j, k in combinations(range(n), 3):
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
    if not seen:
        raise PolytopeError("not full-dimensional")
    facets = [(nrm, c, members) for (nrm, c), members in seen.items()]
    if len(facets) < 4:
        raise PolytopeError("not full-dimensional")
    return facets


def _facet_cycle(points, ids, normal):
    """Order facet vertex ids cyclically, ccw about the inner normal.

    The successor of a is the vertex b with every other facet vertex c on
    its left: <(b - a) x (c - a), normal> >= 0.  The walk starts at the
    lowest id and must close over all of them.
    """
    ids = sorted(ids)
    succ = {}
    for a in ids:
        pa = points[a]
        for b in ids:
            if b == a:
                continue
            ab = vsub(points[b], pa)
            if all(dot(cross(ab, vsub(points[c], pa)), normal) >= 0
                   for c in ids if c != a and c != b):
                succ[a] = b
                break
    cycle = [ids[0]]
    for _ in ids[1:]:
        nxt = succ.get(cycle[-1])
        if nxt is None or nxt in cycle:
            break
        cycle.append(nxt)
    if len(cycle) != len(ids) or succ.get(cycle[-1]) != cycle[0]:
        raise PolytopeError("facet vertices do not close into a convex cycle")
    return tuple(cycle)


def _edges_from_facets(facets):
    edges = []
    seen = set()
    for i, j in combinations(range(len(facets)), 2):
        shared = facets[i].vertex_ids & facets[j].vertex_ids
        if len(shared) == 2:
            key = frozenset(shared)
            if key not in seen:
                seen.add(key)
                edges.append(Edge(key, frozenset((i, j))))
    edges.sort(key=lambda e: sorted(e.vertex_ids))
    return edges


def convex_hull(points):
    """Exact convex hull dispatching on the ambient rank (2 or 3)."""
    pts = list(points)
    if not pts:
        raise PolytopeError("no points")
    if len(pts[0]) == 2:
        return Polygon(pts)
    return LatticePolytope(pts)


# ---------------------------------------------------------------------------
# lattice invariants of faces


def gorenstein_index(face_vertices) -> int:
    """Gorenstein index r(Q) of the cone over an integral face Q.

    r is the (positive) level of Q against the primitive inner normal inside
    the saturated sublattice spanned by Q, of rank dim(Q) + 1.
    """
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
    # affine dimension of Q inside the rank-r lattice must be r - 1,
    # otherwise the cone over Q is not strictly convex
    diffs = [list(vsub(c, coords[0])) for c in coords[1:]]
    adim = len(saturate(diffs)) if any(any(d) for d in diffs) else 0
    if adim != r - 1:
        raise PolytopeError("cone over the face is not strictly convex")
    # primitive u with <u, q> = const < 0 on Q
    normal = _affine_normal(coords, r)
    level = dot(normal, coords[0])
    if level > 0:
        normal = tuple(-x for x in normal)
        level = -level
    if level == 0:
        raise PolytopeError("cone over the face is not strictly convex")
    return -int(level)


def _affine_normal(coords, r):
    """Primitive integer functional constant on the given rank-(r-1) affine
    set of rational points in Z^r."""
    rows = [list(vsub(c, coords[0])) for c in coords[1:]]
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not rows:
        if r != 1:
            raise PolytopeError("face is not a hyperplane section")
        return (1,)
    # kernel of the difference matrix, 1-dimensional
    from .linalg import kernel_basis
    ker = kernel_basis(rows)
    if len(ker) != 1:
        raise PolytopeError("face is not a hyperplane section")
    return primitive(ker[0])


def identity24(p: LatticePolytope) -> int:
    """Sum of l(E) * l(E*) over the edges of the polar dual."""
    if not p.is_reflexive():
        raise PolytopeError("identity24 needs a reflexive polytope")
    total = 0
    for e in p.edges:
        total += p.edge_length(e) * p.dual_edge_length(e)
    return total
