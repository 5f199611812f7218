"""Lattice polytopes in ranks 2 and 3: hulls, face data, duality, counting.

3-space coordinates are exact (int / Fraction): 3-polytopes carry their
facet normals, facet vertex cycles and edge list, and a kernel that reads
a possibly rational vertex list reads it as integer rows over one common
denominator (`clear_denominators`, `LatticePolytope.vertex_rows`).
2-polygons are lattice polygons: int coordinates, in a canonical
counterclockwise vertex order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add, mul, sub

from .linalg import clear_denominators, lex_positive, primitive, saturate

Vec = tuple


class PolytopeError(ValueError):
    pass


def _clean(v):
    """Exact coordinates; those with denominator 1 become ints (stable repr /
    JSON)."""
    v = tuple(v)
    if all(type(x) is int for x in v):
        return v
    return tuple(x if type(x) is int
                 else int(x) if Fraction(x).denominator == 1 else Fraction(x)
                 for x in v)


def is_integral(v) -> bool:
    return all(type(x) is int or x.denominator == 1 for x in v)


def vsub(a, b):
    return tuple(map(sub, a, b))


def vadd(a, b):
    return tuple(map(add, a, b))


def dot(a, b):
    return sum(map(mul, a, b))


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def lattice_length(a, b) -> int:
    """Number of lattice points on the integral segment [a, b] minus one."""
    d = vsub(b, a)
    if all(type(x) is int for x in d):
        return gcd(*d)
    if not is_integral(d):
        raise PolytopeError("lattice length of a non-integral segment")
    return gcd(*map(int, d))


# ---------------------------------------------------------------------------
# polygons


class Polygon:
    """Convex lattice polygon with canonical ccw vertex order."""

    def __init__(self, points):
        pts = [tuple(p) for p in points]
        if any(type(x) is not int for p in pts for x in p):
            raise PolytopeError("polygon coordinates must be ints")
        verts = _hull2d(pts)
        if len(verts) < 3:
            raise PolytopeError("not full-dimensional")
        self.vertices = tuple(verts)  # lex-least first, as `_hull2d` gives
        self._scan = None      # memo of (lattice points, point counts)

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)})"

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def edge_normals(self):
        """Primitive inner normal n and support level <n, a> per ccw edge
        [a, b]: the turned edge (-dy, dx) divided by its gcd."""
        vs = self.vertices
        out = []
        for (xa, ya), (xb, yb) in zip(vs, vs[1:] + vs[:1]):
            n0, n1 = ya - yb, xb - xa  # inner for ccw orientation
            g = gcd(n0, n1)
            n0, n1 = n0 // g, n1 // g
            out.append(((n0, n1), n0 * xa + n1 * ya))
        return tuple(out)

    def two_area(self):
        """Normalized area (twice the Euclidean area), exact."""
        vs = self.vertices
        return sum(vs[i][0] * vs[(i + 1) % len(vs)][1]
                   - vs[(i + 1) % len(vs)][0] * vs[i][1]
                   for i in range(len(vs)))

    def _lattice_scan(self):
        """(points, (total, interior, boundary)) from one scanline pass.

        Column x meets the polygon in the y range cut out by the edge
        inequalities n0*x + n1*y >= c, each an exact ceil/floor division;
        interior points satisfy them strictly.  Points come in (x, y) order.
        A vertical edge (n1 = 0) is x >= min x or x <= max x, so r <= 0 on
        every scanned column: it only strips its own column's interior.
        """
        if self._scan is None:
            xs = [v[0] for v in self.vertices]
            ys = [v[1] for v in self.vertices]
            normals = self.edge_normals()
            ymin, ymax = min(ys), max(ys)
            pts = []
            interior = 0
            for x in range(min(xs), max(xs) + 1):
                lo = ilo = ymin
                hi = ihi = ymax
                for (n0, n1), c in normals:
                    r = c - n0 * x          # need n1*y >= r (> r inside)
                    if n1 > 0:
                        lo = max(lo, -(-r // n1))
                        ilo = max(ilo, r // n1 + 1)
                    elif n1 < 0:
                        hi = min(hi, r // n1)
                        ihi = min(ihi, -(-r // n1) - 1)
                    elif r == 0:
                        ilo, ihi = 1, 0
                pts.extend((x, y) for y in range(lo, hi + 1))
                interior += max(0, min(hi, ihi) - max(lo, ilo) + 1)
            total = len(pts)
            self._scan = (tuple(pts), (total, interior, total - interior))
        return self._scan

    def lattice_points(self):
        return list(self._lattice_scan()[0])

    def point_counts(self):
        """(total, interior, boundary) lattice point counts."""
        return self._lattice_scan()[1]


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
    _, i, b = polygon.point_counts()
    by_pick = 2 * i + b - 2
    if by_pick != polygon.two_area():
        raise PolytopeError("Pick / shoelace mismatch")
    return by_pick


def plane_coords(basis, points):
    """Coordinates (x, y) with v = x*b0 + y*b1 of each point v, for a rank-2
    basis (b0, b1) of a plane through the origin in 3-space (integer b0, b1;
    rational points); None for a point off the plane.

    With c = b0 x b1: v x b1 = x*c and b0 x v = y*c, so by the triple
    product x = <v, b1 x c> / |c|^2 and y = <v, c x b0> / |c|^2, each one
    exact quotient (an int when it divides, else a Fraction).  c and the
    least common denominator are computed once for the whole batch.
    """
    b0, b1 = basis
    c = cross(b0, b1)
    ex, ey = cross(b1, c), cross(c, b0)
    rows, den = clear_denominators(points)  # integer arithmetic from here on
    norm2 = dot(c, c) * den
    return [None if dot(c, v) else
            (_quotient(dot(ex, v), norm2), _quotient(dot(ey, v), norm2))
            for v in rows]


def _quotient(num: int, den: int):
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def plane_basis(vectors):
    """Saturated basis of the rank-2 sublattice spanned by rational vectors
    in 3-space."""
    rows, _ = clear_denominators(vectors)
    basis = saturate([r for r in rows if any(r)])
    if len(basis) != 2:
        raise PolytopeError("vectors do not span a plane")
    return [tuple(b) for b in basis]


def embed_polygon(points3):
    """Project coplanar 3-space points to their saturated rank-2 sublattice.

    Returns (Polygon, basis, base_point): point = base + x*b0 + y*b1.
    """
    base = points3[0]
    dirs = [vsub(p, base) for p in points3]
    basis = plane_basis(dirs)
    return Polygon(plane_coords(basis, dirs)), basis, _clean(base)


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

    The face data (facets with their cycles and dual vertices, edges with
    their vertex and facet ids) is built once here; the polar dual is read
    off it on the first call to `polar_dual` and kept, and so are the
    vertices as integer rows (`vertex_rows`) and the edge annihilators
    (`edge_annihilators`), on first use.

    Ids follow polar duality.  Vertices are sorted.  Facets are sorted by
    their dual vertex, and the facets at level 0, which have none, come
    last, sorted by normal.  So facet i of P is dual to vertex i of P*,
    and facet j of P* to vertex j of P.  Edges are sorted by their vertex
    ids.
    """

    # memos read on first use; None here, so a construction stores nothing
    _rows = None
    _annihilators = None

    def __init__(self, points):
        pts = sorted({_clean(p) for p in points})
        if not pts or len(pts[0]) != 3:
            raise PolytopeError("expected 3-space points")
        ipts, _ = clear_denominators(pts)  # same facets, integer arithmetic
        facets_raw = _hull3d_facets(pts, ipts)
        on_facets = [0] * len(pts)
        for _, _, members in facets_raw:
            for m in members:
                on_facets[m] += 1
        vertex_ids = [i for i in range(len(pts)) if on_facets[i] >= 3]
        reindex = {old: new for new, old in enumerate(vertex_ids)}
        ivertices = [ipts[i] for i in vertex_ids]
        facets = []
        for normal, level, members in facets_raw:
            ids = frozenset(reindex[m] for m in members if m in reindex)
            facets.append(Facet(normal, level, ids,
                                _facet_cycle(ivertices, ids, normal)))
        facets.sort(key=lambda f: (f.dual is None, f.dual or f.normal))
        self._set_faces(tuple(pts[i] for i in vertex_ids), tuple(facets),
                        _edges_from_facets(facets))

    def _set_faces(self, vertices, facets, edges):
        self.vertices = vertices
        self.facets = facets
        self.edges = edges
        self._dual = None
        self._fano = None

    def __repr__(self):
        return f"LatticePolytope({list(self.vertices)})"

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

    @property
    def vertex_rows(self):
        """(rows, d): the vertices times their least common denominator d,
        as tuples of ints, in vertex order; d = 1 on an integral polytope.
        Computed on first use; a polar dual gets them from the facets of
        its P (`_facet_rows`)."""
        if self._rows is None:
            rows, d = clear_denominators(self.vertices)
            self._rows = tuple(map(tuple, rows)), d
        return self._rows

    def edge_annihilators(self):
        """The primitive lex-positive annihilator of the plane through the
        origin and each edge, in edge order, computed once, with the origin
        interior.  It is v - w for the dual vertices v and w of the edge's
        two facets, as both ends m of the edge have <v, m> = <w, m> = -1;
        on the polar dual of a Fano P, v and w are two integer vertices of
        P."""
        if self._annihilators is None:
            facets = self.facets
            self._annihilators = tuple(
                lex_positive(primitive(vsub(*(facets[i].dual
                                              for i in e.facet_ids))))
                for e in self.edges)
        return self._annihilators

    # -- duality ------------------------------------------------------------

    def polar_dual(self) -> "LatticePolytope":
        if self._dual is None:
            if not self.origin_interior():
                raise PolytopeError("origin is not interior")
            self._dual = self._dual_from_faces()
        return self._dual

    def _dual_from_faces(self) -> "LatticePolytope":
        """P* read off the face lattice of P, with no hull, in the ids of
        P: facet i of P gives vertex i of P*, f.dual; vertex v of P gives
        facet v of P*, with normal primitive(v) and as cycle the ring of P's
        facets around v; and every edge of P is an edge of P* with its
        vertex and facet ids swapped, sorted by its new vertex ids.  These
        are the ids the hull gives (the class docstring): P's facets are
        sorted by dual vertex, and P's vertices are sorted and are the duals
        of P*'s facets.  P*'s vertex rows come from P's facets
        (`_facet_rows`), and the orientation and levels are read off them.

        The walk around v closes over its whole ring with no check.  Each
        edge of P lies on exactly two facets (`_edges_from_facets`), so in
        the ring of v every facet has exactly two neighbours: the facets
        across its two edges through v.  The facets and edges of P at v are
        the edges and vertices of one convex polygon, the vertex figure of P
        at v, so the ring is that polygon's one cycle, and the walk from any
        facet returns to it after visiting them all.
        `tests/test_retired_raises.py` checks every ring of the bundled
        polytopes, their GL(3,Z) images and random polytopes.
        """
        vertices = tuple(f.dual for f in self.facets)
        rows, d = _facet_rows(self.facets)
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
            # ccw about the normal: the other neighbour is on the left; the
            # rows are the vertices times d > 0, so the sign is the same
            a = rows[start]
            if dot(cross(vsub(rows[nxt], a), vsub(rows[other], a)),
                   normal) < 0:
                nxt = other
            cycle = [start]
            for _ in range(len(ring) - 1):
                cycle.append(nxt)
                x, y = ring[nxt]
                nxt = y if x == cycle[-2] else x
            facets.append(Facet(normal, _quotient(dot(normal, a), d),
                                frozenset(cycle), tuple(cycle)))
        edges = sorted((Edge(e.facet_ids, e.vertex_ids) for e in self.edges),
                       key=lambda e: sorted(e.vertex_ids))
        dual = LatticePolytope.__new__(LatticePolytope)
        dual._set_faces(vertices, tuple(facets), tuple(edges))
        dual._dual = self
        dual._rows = rows, d
        return dual

    # -- counting -----------------------------------------------------------

    def lattice_points(self):
        """The lattice points in (x, y, z) order, one (x, y) column of the
        bounding box at a time: the column meets P in the z range cut out
        by the facet inequalities n0*x + n1*y + n2*z >= c, each an exact
        ceil/floor division, as in `Polygon._lattice_scan`.  A facet with
        n2 = 0 keeps the whole column or empties it."""
        if not self.is_integral:
            raise PolytopeError("lattice points of a non-integral polytope")
        (x0, x1), (y0, y1), (z0, z1) = ((min(c), max(c))
                                        for c in zip(*self.vertices))
        cuts = [(*f.normal, f.level) for f in self.facets]
        pts = []
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                lo, hi = z0, z1
                for n0, n1, n2, c in cuts:
                    r = c - n0 * x - n1 * y  # need n2*z >= r
                    if n2 > 0:
                        lo = max(lo, -(-r // n2))
                    elif n2 < 0:
                        hi = min(hi, r // n2)
                    elif r > 0:
                        hi = lo - 1
                        break
                pts.extend((x, y, z) for z in range(lo, hi + 1))
        return pts

    def boundary_area(self):
        """Normalized area of the boundary: the sum of the facet areas, each
        in its own lattice.

        Over a facet cycle, sum v_i x v_(i+1) is twice the vector area, and
        the facet's lattice has covolume |n| for the primitive normal n, so
        the facet's normalized area is <sum v_i x v_(i+1), n> / <n, n>.
        It is read off the vertex rows r_i, the vertices times d, so the
        sum is d^2 times as large.  The sum is also sum (r_i - r_0) x
        (r_(i+1) - r_0), and the differences lie in n^perp, a rank-2 lattice
        whose basis has cross product +-n, so it is k n for an integer k:
        each facet gives |k| with no remainder, and the total is one exact
        quotient over d^2, an int when it is integral.
        """
        rows, d = self.vertex_rows
        total = 0
        for f in self.facets:
            n0, n1, n2 = f.normal
            s = 0  # <sum a x b, n> over the edges a -> b of the cycle
            ax, ay, az = rows[f.cycle[-1]]
            for i in f.cycle:
                bx, by, bz = rows[i]
                s += (n0 * (ay * bz - az * by) + n1 * (az * bx - ax * bz)
                      + n2 * (ax * by - ay * bx))
                ax, ay, az = bx, by, bz
            total += abs(s) // (n0 * n0 + n1 * n1 + n2 * n2)
        return _quotient(total, d * d)


def _facet_rows(facets):
    """(rows, d): the polar dual's vertices n / (-c), one per facet with
    primitive normal n and level c < 0, times their least common
    denominator d, as tuples of ints.  With -c = p/q in lowest terms,
    n / (-c) = n q / p, and n is primitive, so its least denominator is p
    and d is the lcm of the p: the `clear_denominators` pair of the dual
    vertices, with no `Fraction` built."""
    ratios = [(-f.level).as_integer_ratio() for f in facets]
    d = lcm(*(p for p, _ in ratios))
    return tuple(tuple(x * (q * (d // p)) for x in f.normal)
                 for f, (p, q) in zip(facets, ratios)), d


def _hull3d_facets(pts, ipts):
    """(primitive inner normal, level, member indices) of every facet of the
    hull of pts; ipts are the same points scaled to integers, on which
    every candidate plane is tested.  A plane is dropped at its first point
    on the far side and kept only after every point has been tested."""
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
        side = 0  # <., (a, b, c)> - lvl at the first point off the plane
        for x, y, z in ipts:
            v = a * x + b * y + c * z - lvl
            if side * v < 0:
                break
            side = side or v
        else:
            nrm = (a, b, c) if side >= 0 else (-a, -b, -c)
            seen[nrm] = (dot(nrm, pts[i]),
                         [m for m, (x, y, z) in enumerate(ipts)
                          if a * x + b * y + c * z == lvl])
    facets = [(nrm, c, members) for nrm, (c, members) in seen.items()]
    if len(facets) < 4:
        raise PolytopeError("not full-dimensional")
    return facets


def _facet_cycle(points, ids, normal):
    """Order facet vertex ids cyclically, ccw about the inner normal.

    The successor of a is the vertex b with every other facet vertex c on
    its left: <(b - a) x (c - a), normal> > 0.  One tournament pass finds
    it, keeping the rightmost candidate.

    The walk from the lowest id closes over all of them with no check.
    `LatticePolytope.__init__` passes the points on at least 3 facet
    planes: exactly the vertices of the facet, which are in strictly
    convex position.  Seen from a vertex a, the other vertices then lie in
    an angle below pi with no two on one ray from a, so "c is right of
    a -> b" orders them strictly and the tournament finds the one that is
    right of no other, a's ccw neighbour on the facet polygon.  So the
    successors run once around that polygon.  `tests/test_retired_raises.py`
    checks every facet cycle of the bundled polytopes, their GL(3,Z)
    images and random polytopes.
    """
    ids = sorted(ids)
    n0, n1, n2 = normal
    succ = {}
    for a in ids:
        ax, ay, az = points[a]
        rest = []
        for q in ids:
            if q != a:
                x, y, z = points[q]
                rest.append((q, x - ax, y - ay, z - az))
        # <(b - a) x (c - a), n> = <n x (b - a), c - a>
        b, x, y, z = rest[0]
        w0, w1, w2 = n1 * z - n2 * y, n2 * x - n0 * z, n0 * y - n1 * x
        for q, x, y, z in rest[1:]:
            if w0 * x + w1 * y + w2 * z < 0:
                b = q
                w0, w1, w2 = n1 * z - n2 * y, n2 * x - n0 * z, n0 * y - n1 * x
        succ[a] = b
    cycle = [ids[0]]
    for _ in ids[1:]:
        cycle.append(succ[cycle[-1]])
    return tuple(cycle)


def _edges_from_facets(facets):
    """Edges from consecutive vertices of the facet cycles; each edge lies
    on exactly two facets."""
    on = {}  # sorted vertex id pair -> the facets on that edge
    for fi, f in enumerate(facets):
        cyc = f.cycle
        for t, u in enumerate(cyc):
            w = cyc[t - 1]
            on.setdefault((u, w) if u < w else (w, u), []).append(fi)
    return tuple(Edge(frozenset(key), frozenset(fs))
                 for key, fs in sorted(on.items()))


# ---------------------------------------------------------------------------
# lattice invariants of faces


def gorenstein_index(face_vertices) -> int:
    """Gorenstein index r(Q) of the cone over an integral face Q.

    Let L be the saturation of span(Q) and u the primitive functional on L
    with <u, Q> = -r.  When the vertex differences D have rank rank(Q) - 1
    they span ker(u) over Q, so span(Q) = Z*q0 + D has index r * [sat D : D]
    in L: r is the quotient of the two lattice indices.
    """
    if not all(is_integral(p) for p in face_vertices):
        raise PolytopeError("Gorenstein index needs integral vertices")
    pts = [[int(x) for x in p] for p in face_vertices]
    rank_q, index_q = _lattice_index(pts)
    rank_d, index_d = _lattice_index([list(vsub(p, pts[0])) for p in pts[1:]])
    if rank_d != rank_q - 1:
        raise PolytopeError("cone over the face is not strictly convex")
    return index_q // index_d


def _lattice_index(rows):
    """(rank, [saturation : lattice]) of the lattice spanned by integer rows
    in 2- or 3-space (rows in 2-space padded with z = 0): the rank and the
    gcd of the nonzero maximal minors, which is the product of the nonzero
    invariant factors.  The minors are the triple products, then the
    components of the pairwise cross products, then the entries."""
    rows = [tuple(r) + (0,) * (3 - len(r)) for r in rows if any(r)]
    g = gcd(*(dot(a, cross(b, c)) for a, b, c in combinations(rows, 3)))
    if g:
        return 3, g
    g = gcd(*(x for a, b in combinations(rows, 2) for x in cross(a, b)))
    if g:
        return 2, g
    g = gcd(*(x for r in rows for x in r))
    return (1, g) if g else (0, 1)


def _edge_lengths(p: LatticePolytope):
    """(l(E), l(E*)) for each edge E of a reflexive P, read off P's face
    data: the gcd of the difference of E's vertices, and that of the dual
    vertices of its two facets, which are integral.  P* is not built."""
    for e in p.edges:
        a, b = (p.vertices[i] for i in e.vertex_ids)
        f, g = (p.facets[i].dual for i in e.facet_ids)
        yield gcd(*vsub(a, b)), gcd(*vsub(f, g))


def identity24(p: LatticePolytope) -> int:
    """Sum of l(E) * l(E*) over the edges E of a reflexive P
    (`_edge_lengths`)."""
    if not p.is_reflexive():
        raise PolytopeError("identity24 needs a reflexive polytope")
    return sum(a * b for a, b in _edge_lengths(p))
