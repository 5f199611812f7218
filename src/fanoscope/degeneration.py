"""Degeneration data on Fano 3-polytopes: fans, edge/ray data, slabs, checks.

A slab is a codimension-one cell c of the decomposition of the polar polytope
by a generalized fan, together with divisor coefficients on its edges.  All
node counting is driven by the slab's polygon of sections.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from math import gcd

from .linalg import clear_denominators, lex_positive, primitive
from .minkowski import Summand, enumerate_smooth_decompositions
from .polytope import (LatticePolytope, Polygon, PolytopeError, cross, dot,
                       lattice_length, pick_area, plane_basis, plane_coords,
                       plane_normal, _clean, _quotient)


class DegenerationError(ValueError):
    pass


class NotNef(DegenerationError):
    pass


class NotCartier(DegenerationError):
    pass


# ---------------------------------------------------------------------------
# polygon of sections


class Sections:
    """Solution set {m : <m, n_i> >= -a_i}; a polygon, segment or point.

    The normals, coefficients and face `spans` (set by
    `polygon_of_sections`) are kept, and `graph_piece` is the memo of the
    slab-independent part of the dual graph (built by discriminant).
    `points` are corners of S, each the one point of S on two non-parallel
    edge lines, so they are vertices and three or more make a polygon.
    """

    def __init__(self, points, normals=(), coeffs=()):
        pts = sorted(set(points))
        self.points = tuple(pts)
        self.normals = tuple(normals)
        self.coeffs = tuple(coeffs)
        self.spans = ()
        self.graph_piece = None
        self.polygon = Polygon(pts) if len(pts) >= 3 else None
        self.dim = min(len(pts), 3) - 1

    def vertices(self):
        if self.dim == 2:
            return self.polygon.vertices
        return self.points

    def two_area(self) -> int:
        if self.dim < 2:
            return 0
        return pick_area(self.polygon)


def polygon_of_sections(polygon, coeffs) -> Sections:
    """S = {m : <m, n_i> >= -a_i} for the slab polygon's inner edge normals
    n_i and the coefficients a_i, checked nef and Cartier on its corners;
    `spans[i]` is the lattice length of S's face on <., n_i> = -a_i.

    The normals of a `Polygon` turn left and wind once, and its vertex i
    lies on edges i - 1 and i, so its vertex cone is spanned by n_(i-1) and
    n_i and holds one corner m_i, where those edge lines meet: the toric
    nef criterion (Cox-Little-Schenck, Toric Varieties, section 6.1 and
    Theorem 6.3.12) reads the divisor as nef iff every m_i lies in S,
    Cartier iff every m_i is integral, and then S = conv(m_i) with
    [m_i, m_(i+1)] its face on edge line i.  An empty S holds no m_i, so it
    is refused as not nef.

    Nef is tested on the walls, m_i against edge i + 1 alone.  On edge line
    i, <., n_(i+1)> falls along t_i, n_i turned right, to -a_(i+1) at
    m_(i+1), so m_i passes iff m_(i+1) - m_i is a nonnegative multiple of
    t_i.  If every m_i passes, then along the closed walk m_(j+1), ..., m_j
    the value <., n_j> first rises and then falls, as n_i turns through the
    half-turn after n_j and then the other, so no corner drops below its
    value -a_j at both ends: every m_i lies in S.

    Each corner is a homogeneous triple (x, y, den), den = det(n_(i-1),
    n_i) > 0, so every test runs on local integers.
    """
    normals = [n for n, _ in polygon.edge_normals()]
    k = len(normals)
    if len(coeffs) != k:
        raise DegenerationError(f"{len(coeffs)} coefficients for a slab "
                                f"polygon of {k} edges")
    corners = []
    for i in range(k):
        (a, b), (c, d) = normals[i - 1], normals[i]
        p, q = coeffs[i - 1], coeffs[i]
        corners.append((q * b - p * d, p * c - q * a, a * d - b * c))
    for i, (x, y, den) in enumerate(corners):
        j = (i + 1) % k
        (c, d), q = normals[j], coeffs[j]
        if c * x + d * y < -q * den:
            raise NotNef(f"divisor not nef: the corner of slab vertex "
                         f"{polygon.vertices[i]} breaks edge {j}")
    if any(x % den or y % den for x, y, den in corners):
        raise NotCartier("not Cartier: no integral section witness at a "
                         "vertex cone")
    points = [(x // den, y // den) for x, y, den in corners]
    sec = Sections(points, normals, coeffs)
    sec.spans = tuple(gcd(xb - xa, yb - ya) for (xa, ya), (xb, yb)
                      in zip(points, points[1:] + points[:1]))
    return sec


# ---------------------------------------------------------------------------
# slabs

ROLE_BOUNDARY = "boundary"
ROLE_SPINE = "spine"


@dataclass(frozen=True)
class Slab:
    """A slab polygon with a coefficient and a role per edge.  Its sections
    S give 2A = `two_area`, b = `b_count`, the sum of S's face spans, and
    i = `i_count` = (2A + 2 - b) / 2.  A polygon S has its edges on distinct
    edge lines and spans 0 elsewhere, so the spans sum to Pick's b.  A
    segment of length l is the face of two opposite edge lines and an end
    of the rest, so b = 2l and 2A + 2 - b = 2 - 2l is even; a point has b = 0.
    """
    name: str
    polygon: Polygon
    coeffs: tuple
    roles: tuple
    sections: Sections = field(init=False)
    spans: tuple = field(init=False)
    two_area: int = field(init=False)
    i_count: int = field(init=False)

    def __post_init__(self):
        sec = polygon_of_sections(self.polygon, self.coeffs)
        two_area, b = sec.two_area(), sum(sec.spans)
        # frozen: the derived fields are set once, here
        vars(self).update(sections=sec, spans=sec.spans, two_area=two_area,
                          i_count=(two_area + 2 - b) // 2)

    @classmethod
    def shared(cls, built, name, polygon, coeffs, roles):
        """A slab built once per (polygon, coeffs) key of `built`, a dict
        that lives for one degeneration: a repeat key gets a copy of the
        first slab with its own name and roles, which `__post_init__` does
        not read."""
        key = (polygon, coeffs)
        first = built.get(key)
        if first is None:
            first = built[key] = cls(name, polygon, coeffs, roles)
            return first
        slab = copy.copy(first)
        vars(slab).update(name=name, roles=roles)
        return slab

    @property
    def b_count(self) -> int:
        return sum(self.spans)

    @property
    def boundary_points(self) -> int:
        return sum(s for s, r in zip(self.spans, self.roles)
                   if r == ROLE_BOUNDARY)

    def ray_spans(self) -> dict:
        out = {}
        for s, r in zip(self.spans, self.roles):
            if r == ROLE_SPINE or r.startswith("ray:"):
                out[r] = out.get(r, 0) + s
        return out


# ---------------------------------------------------------------------------
# generalized fans


def line_fan(direction, rays2d):
    """(d, rays): the primitive direction of the fan's minimal cone, a line,
    and the primitive generators of its 2-cones mod the line.  Mod the
    line `rays2d` must make a complete fan: none on the line, no two
    equal, not all in one closed half-plane (every angular gap < pi).  Ray r
    is d x r mod the line, and r to s turns about d as det(d, r, s)."""
    d = primitive(direction)
    rays = [primitive(r) for r in rays2d]
    images = [cross(d, r) for r in rays]
    turns = [[dot(d, cross(r, s)) for s in rays] for r in rays]
    if (len(rays) < 3 or not all(map(any, images))
            or len(set(map(primitive, images))) < len(rays)
            or any(min(t) >= 0 or max(t) <= 0 for t in turns)):
        raise DegenerationError("line fan needs a complete quotient fan")
    return d, rays


# how many slabs a ray summand of each kind names
SUMMAND_SLABS = {"point": 0, "segment": 2, "triangle": 3}


@dataclass(frozen=True)
class RaySummand:
    ray: str
    kind: str                     # point | segment | triangle
    slabs: tuple = ()
    summand: Summand | None = None


# ---------------------------------------------------------------------------
# degeneration data


@dataclass(frozen=True)
class DegenerationData:
    """Slabs and ray summands, checked once, when built (`validate`), and
    frozen: a changed copy comes from `dataclasses.replace`, which checks
    it again.  `stated` maps what a fixture states to (value, source).
    `validate` reads neither `stated` nor `vertex_count`, so
    `data_from_fixture` sets the two a fixture pins on a copy of the
    checked data (`copy.copy`, then `vars().update`, as `Slab.shared`
    names a copy), with no second check."""
    name: str
    kind: str                          # normal_fan | line_fan | product | slabs
    slabs: tuple
    ray_summands: tuple                # RaySummand entries (points included)
    polytope: LatticePolytope | None = None
    vertex_count: int = 0
    stated: dict = field(default_factory=dict)

    def __post_init__(self):
        vars(self).update(slabs=tuple(self.slabs),
                          ray_summands=tuple(self.ray_summands))
        self.validate()

    @property
    def dual(self) -> LatticePolytope | None:
        """P*, which P keeps once built, or None without P."""
        return None if self.polytope is None else self.polytope.polar_dual()

    # -- node census ---------------------------------------------------------

    @property
    def p_count(self) -> int:
        return sum(1 for s in self.ray_summands if s.kind == "triangle")

    @property
    def d_count(self) -> int:
        return sum(1 for s in self.ray_summands if s.kind == "segment")

    @property
    def j_count(self) -> int:
        return self.p_count + self.d_count

    @property
    def n_count(self) -> int:
        return sum(s.two_area for s in self.slabs)

    @property
    def boundary_count(self) -> int:
        return sum(s.boundary_points for s in self.slabs)

    def validate(self):
        """The check that construction runs; raises DegenerationError naming
        the slab, edge or summand at fault.  Slab names are distinct, each
        edge's role is boundary, spine or `ray:<r>`, each summand is a
        point, segment or triangle on 0, 2 or 3 distinct slabs of the data,
        and each slab's ray and spine spans equal the summands of each ray
        that name it, counted in one pass.  So the ray-side spans total
        3p + 2d, and `assemble_global` uses up its stub pools exactly."""
        counts = {}  # slab name -> {ray role: summands that name the slab}
        for slab in self.slabs:
            if slab.name in counts:
                raise DegenerationError(f"slab {slab.name}: the name of an "
                                        "earlier slab")
            if len(slab.roles) != len(slab.spans):
                raise DegenerationError(f"slab {slab.name}: {len(slab.roles)} "
                                        f"roles for {len(slab.spans)} edges")
            for i, role in enumerate(slab.roles):
                if role not in (ROLE_BOUNDARY, ROLE_SPINE) and not (
                        isinstance(role, str) and role[:4] == "ray:" != role):
                    raise DegenerationError(
                        f"slab {slab.name}: edge {i} has role {role!r}, not "
                        "boundary, spine or ray:<r>")
            counts[slab.name] = {}
        for i, rs in enumerate(self.ray_summands):
            need = (SUMMAND_SLABS.get(rs.kind) if isinstance(rs.kind, str)
                    else None)
            if need is None:
                raise DegenerationError(
                    f"ray summand {i} ({rs.ray}): kind must be point, segment "
                    f"or triangle, not {rs.kind!r}")
            if len(rs.slabs) != need or len(set(rs.slabs) & counts.keys()
                                            ) != need:
                raise DegenerationError(
                    f"ray summand {i} ({rs.ray}, {rs.kind}): slabs must be "
                    f"{need} distinct slabs of the data, not {list(rs.slabs)}")
            key = f"ray:{rs.ray}"
            for name in rs.slabs:
                counts[name][key] = counts[name].get(key, 0) + 1
        for slab in self.slabs:
            want = counts[slab.name]
            got = slab.ray_spans()
            spine = got.pop(ROLE_SPINE, 0)
            spine_want = 0  # the attachments of rays with no edge here
            for key, cnt in want.items():
                span = got.pop(key, None)
                if span is None:
                    spine_want += cnt
                elif span != cnt:
                    raise DegenerationError(
                        f"slab {slab.name}: edge span {span} != "
                        f"{cnt} attachments for {key}")
            if spine != spine_want:
                raise DegenerationError(
                    f"slab {slab.name}: spine span {spine} != "
                    f"{spine_want} attachments")
            if any(got.values()):
                raise DegenerationError(
                    f"slab {slab.name}: unattached ray edges {got}")
        return True


# ---------------------------------------------------------------------------
# geometric construction helpers


def ray_lattice(dir3):
    """Basis (b0, b1) of W = ann(u) in the opposite lattice, u = (a, b, c)
    the lex-positive primitive direction of dir3, so -dir3 gets the same
    one.  With g = gcd(a, b) = a x + b y, it is (b/g, -a/g, 0) and
    (c x, c y, -g), or e1, e2 when a = b = 0: both annihilate u, and
    b0 x b1 = u is primitive, so they span all of W."""
    a, b, c = lex_positive(primitive(dir3))
    if a == b == 0:
        return [(1, 0, 0), (0, 1, 0)]
    # extended Euclid: g = a x + b y and r = a s + b t, down to r = 0
    g, x, y, (r, s, t) = a, 1, 0, ((b, 0, 1) if b > 0 else (-b, 0, -1))
    while r:
        q = g // r
        g, x, y, r, s, t = r, s, t, g - q * r, x - q * s, y - q * t
    return [(b // g, -a // g, 0), (c * x, c * y, -g)]


def _ray_word(p: LatticePolytope, f, w_basis, ray):
    """The edge word of P's facet f divided by its Gorenstein index
    r = -f.level (P is integral, so L = Z^3 and u is f's normal), in the
    coordinates of a basis (b0, b1) of the plane parallel to it.

    With c = b0 x b1, a vector d of the plane is x*b0 + y*b1 for
    x = <d, b1 x c> / <c, c> and y = <d, c x b0> / <c, c>, so each edge
    b - a of the facet cycle is read by two integer functionals (the
    difference of their values at b and a) and divided by <c, c> r.  The
    cycle is ccw about the inner normal n, so it is ccw in (x, y) when
    <c, n> > 0 and is reversed otherwise.  The vertices of the facet moved
    to the origin are the partial sums of its edges, so r divides them all
    exactly when it divides every edge; where it does not, this raises,
    naming the ray.
    """
    (p0, p1, p2), (q0, q1, q2) = w_basis
    c0, c1, c2 = p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0
    x0, x1, x2 = q1 * c2 - q2 * c1, q2 * c0 - q0 * c2, q0 * c1 - q1 * c0
    y0, y1, y2 = c1 * p2 - c2 * p1, c2 * p0 - c0 * p2, c0 * p1 - c1 * p0
    r = -f.level
    den = (c0 * c0 + c1 * c1 + c2 * c2) * r
    n0, n1, n2 = f.normal
    cycle = f.cycle if c0 * n0 + c1 * n1 + c2 * n2 > 0 else f.cycle[::-1]
    pts = [(x0 * u + x1 * v + x2 * w, y0 * u + y1 * v + y2 * w)
           for u, v, w in (p.vertices[i] for i in cycle)]
    word = []
    xa, ya = pts[-1]
    for xb, yb in pts:
        x, y = xb - xa, yb - ya
        if x % den or y % den:
            raise DegenerationError(
                f"no smooth Minkowski decomposition: facet of ray {ray} is "
                f"not divisible by its index {r}")
        x, y = x // den, y // den
        g = gcd(x, y)
        word += [(x // g, y // g)] * g
        xa, ya = xb, yb
    return tuple(sorted(word))


def quotient_functional(w_basis, m_point):
    """Functional on W induced by pairing with a point of the dual space."""
    f = (dot(m_point, w_basis[0]), dot(m_point, w_basis[1]))
    return primitive(f)


def match_summand_slabs(summand: Summand, slab_functionals: dict):
    """Slab names whose quotient direction supports an edge of the summand.

    slab_functionals: slab name -> primitive functional on W.
    Raises when a summand edge direction matches no slab.

    The face of the summand on which f is least is an edge, of lattice
    length >= 1, exactly when f takes its least value at two or more of
    the summand's vertices, which are distinct lattice points.  The
    vertices are 0 and the partial sums of its first two edge vectors (a
    segment has one; a triangle's third closes its cycle), so the values
    are read off <f, v> for those vectors.
    """
    hits = []
    for name, (f0, f1) in slab_functionals.items():
        vals = [0]
        for x, y in summand.vectors[:2]:
            vals.append(vals[-1] + f0 * x + f1 * y)
        if vals.count(min(vals)) > 1:
            hits.append(name)
    need = SUMMAND_SLABS[summand.kind]
    if len(hits) != need:
        raise DegenerationError(
            f"unmatched summand direction: {summand} met {hits}")
    return tuple(sorted(hits))


def _attach(ray: str, deco, functionals) -> list:
    """The RaySummand entries of one ray's decomposition: each segment or
    triangle goes to the slabs that `match_summand_slabs` finds among
    `functionals`."""
    return [RaySummand(ray, s.kind, match_summand_slabs(s, functionals), s)
            for s in deco]


# ---------------------------------------------------------------------------
# method 1: smooth Minkowski decompositions on a normal fan


def _edge_name(i: int) -> str:
    return f"E{i}"


def _ray_name(i: int) -> str:
    return f"v{i}"


def normal_fan_data(p: LatticePolytope, choice=None,
                    name="") -> DegenerationData:
    """Degeneration data with the normal fan of P.  choice: None (the first
    decomposition of every ray) or one decomposition index per vertex of
    P*, in its order.  Each edge E of P* gets the label
    a_E = l(E*) / r(E*) = l(E*)^2 // gcd(v x w), E* = [v, w] its dual edge.

    That label is the only one the construction check can accept.  E's
    ends are m_a = n_a / r_a and m_b, the duals of P's facets F_a and F_b
    through E* (n_a primitive, r_a = -level), and E's slab is
    conv(0, m_a, m_b) in the plane ann(v - w), with a_E on [m_a, m_b] and
    0 on its ray edges.  On the plane v and w agree and are -1 on E.  The
    integral functionals on its lattice are N / Z e, e = (v - w) / l(E*),
    where v is d times a primitive class, d = gcd(e x v) =
    gcd(v x w) / l(E*) = r(E*) (`gorenstein_index`: Z v + Z w has index
    gcd(v x w) in its saturation, Z(w - v) has index l(E*)).  So
    [m_a, m_b] is at lattice height 1 / r(E*), and the sections are the
    slab triangle scaled by a_E r(E*): their face on ray a's edge is
    [0, a_E r(E*) n_a / r_a], of span a_E r(E*) / r_a.  Ray a's summands
    are unit segments and triangles that sum to F_a / r_a (`_ray_word`),
    and one names E exactly when its face where <m_b, .> is least is an
    edge; that face of F_a / r_a is E* / r_a, so they number l(E*) / r_a.
    The check equates the two: a_E r(E*) = l(E*).  Where r(E*) does not
    divide l(E*), no label passes, and construction refuses the one
    built here.  `tests/test_retired_raises.py` moves each label and finds
    this one alone accepted.
    """
    if not p.is_fano():
        raise DegenerationError("P is not a Fano polytope")
    dual = p.polar_dual()
    if choice is not None and len(choice) != len(dual.vertices):
        raise DegenerationError(
            f"got {len(choice)} decomposition indices, need one per vertex "
            f"0..{len(dual.vertices) - 1} of the polar dual")
    # one pass over P*'s edges: labels, slabs, and (edge, other end) by end
    slabs = []
    built = {}  # (polygon, coeffs) -> its first slab, within this call
    ends = [[] for _ in dual.vertices]
    rows = dual.vertex_rows[0]
    for i, e in enumerate(dual.edges):
        a_id, b_id = sorted(e.vertex_ids)
        ends[a_id].append((i, b_id))
        ends[b_id].append((i, a_id))
        # facet j of P* is dual to vertex j of P
        v, w = (p.vertices[j] for j in e.facet_ids)
        ell = gcd(*(x - y for x, y in zip(v, w)))
        label = ell * ell // gcd(*cross(v, w))
        # P*'s rows lie in the saturated plane lattice: int coordinates
        basis = plane_basis([dual.vertices[a_id], dual.vertices[b_id]])
        ca, cb = plane_coords(basis, [rows[a_id], rows[b_id]])
        poly = Polygon([(0, 0), ca, cb])
        coeffs, roles = [], []
        for edge in poly.edges():  # [ca, cb], or a ray's edge from 0
            boundary = set(edge) == {ca, cb}
            coeffs.append(label if boundary else 0)
            roles.append(ROLE_BOUNDARY if boundary else
                         f"ray:{_ray_name(a_id if ca in edge else b_id)}")
        slabs.append(Slab.shared(built, _edge_name(i), poly, tuple(coeffs),
                                 tuple(roles)))

    ray_summands = []
    for vid, (w_basis, decos) in enumerate(_ray_decompositions(p)):
        if not decos:
            raise DegenerationError(
                f"no smooth Minkowski decomposition for the facet dual "
                f"to vertex {vid}")
        idx = 0 if choice is None else choice[vid]
        if not 0 <= idx < len(decos):
            raise DegenerationError(
                f"decomposition index {idx} out of range for vertex {vid}")
        # quotient functionals of the 2-cones at this ray, read off the
        # vertex rows, which lie on the rays of P*'s vertices
        functionals = {_edge_name(i): quotient_functional(w_basis, rows[other])
                       for i, other in ends[vid]}
        ray_summands += _attach(_ray_name(vid), decos[idx], functionals)

    return DegenerationData(
        name=name or "normal-fan data",
        kind="normal_fan",
        slabs=slabs,
        ray_summands=ray_summands,
        polytope=p,
    )


def method1_data(p: LatticePolytope, choice=None, name="") -> DegenerationData:
    """Construction from smooth Minkowski decompositions: Sigma the normal
    fan, a_E = l(E*), J the chosen facet decompositions.

    Method 1 assumes r(E*) = 1 on every edge E* of P, so that
    `normal_fan_data`'s label l(E*) / r(E*) is l(E*), and reflexivity
    proves it.  E* lies on a facet of P at level -1.  That facet's normal
    restricts to an integral functional on the saturated lattice of the
    cone over E*, constant on E*; it takes the value -1 there, so it is
    primitive, and r(E*) = |-1| = 1.  `tests/test_ray_facets.py` asserts
    this on every bundled reflexive polytope and its GL(3,Z) images.
    """
    if not p.is_reflexive():
        raise DegenerationError("method 1 needs a reflexive polytope")
    return normal_fan_data(p, choice, name or "method-1 data")


def _ray_decompositions(p: LatticePolytope, vids=None):
    """For each ray, in P*'s vertex order, which is the order of P's
    facets (`LatticePolytope`), or for the rays vids: its `ray_lattice`
    basis and the smooth Minkowski decompositions of its facet divided by
    r, read off its edge word (`_ray_word`, which raises where r does not
    divide), in `_space_order` where two have one length.  Within this
    call, rays with equal words share one enumeration and its tie flag."""
    found = {}  # edge word -> its decompositions, and whether they tie
    for vid in range(len(p.facets)) if vids is None else vids:
        f = p.facets[vid]
        w_basis = ray_lattice(f.normal)
        word = _ray_word(p, f, w_basis, vid)
        if word not in found:
            decos = enumerate_smooth_decompositions(word)
            found[word] = decos, _tied(decos)
        decos, tied = found[word]
        yield w_basis, _space_order(decos, w_basis) if tied else decos


def _tied(decos) -> bool:
    """Whether two of the decompositions, which come sorted by their
    number of summands, have the same number (most lists hold one)."""
    return len(decos) > 1 and any(len(a) == len(b)
                                  for a, b in zip(decos, decos[1:]))


def _space_order(decos, basis):
    """The decompositions of a ray's facet, given in the coordinates of
    the basis (b0, b1) of its plane, sorted by their number of summands
    and then by their summands read in 3-space.

    The enumerator orders decompositions of one length by their summands
    in ray coordinates, which depend on the basis; this order does not.
    Summand T lifts to the polygon of points x*b0 + y*b1 for (x, y) in T,
    the same summand of the facet divided by r in 3-space whatever the
    basis, so its lifted vertices, moved to put the lex-least at the
    origin, are a key of T up to translation.  A decomposition is the
    multiset of its summands, so the sorted keys tell any two apart.
    """
    (p0, p1, p2), (q0, q1, q2) = basis

    def key(deco):
        out = []
        for s in deco:
            pts = [(x * p0 + y * q0, x * p1 + y * q1, x * p2 + y * q2)
                   for x, y in s.polygon_vertices()]
            m0, m1, m2 = min(pts)
            out.append(sorted((a - m0, b - m1, c - m2) for a, b, c in pts))
        return -len(deco), sorted(out)

    return sorted(decos, key=key)


def decomposition_regimes(p: LatticePolytope):
    """All decomposition choices per ray: list of lists of Summand tuples,
    one per vertex of P* in its order (facet i of P is dual to vertex i of
    P*), indexed as `normal_fan_data`'s `choice`.  Read off the edge words
    of P's facets, so neither P* nor a facet polygon is built; each ray
    gets a list of its own.  `_ray_word` reads an integral P.
    """
    _check_decomposable(p)
    return [list(decos) for _, decos in _ray_decompositions(p)]


def facet_regime(p: LatticePolytope, vid: int):
    """Entry vid of `decomposition_regimes(p)`, read off P's facet vid
    alone, so another facet's refusal does not refuse it."""
    _check_decomposable(p)
    return next(_ray_decompositions(p, [vid]))[1]


def _check_decomposable(p: LatticePolytope):
    if not p.is_integral:
        raise PolytopeError("decompositions need an integral polytope")
    if not p.origin_interior():
        raise PolytopeError("origin is not interior")


# ---------------------------------------------------------------------------
# line fans (complete-intersection style data) and products


def line_fan_data(p: LatticePolytope, direction, rays2d, edge_rule,
                  name="") -> DegenerationData:
    """Degeneration data whose fan has a one-dimensional minimal cone.

    edge_rule: {"meets": point, "value": a} entries; an edge of the polar
    polytope lying in a 2-cone gets the value when it contains the point.

    The geometry runs on the polar polytope's vertices times their common
    denominator (`rows`), so every test is on integers and a coordinate
    becomes a `Fraction` only where it is not integral.  A slab's points
    all lie in its 2-cone's plane <nu, .> = 0, which its basis spans: the
    slice's points satisfy it (`_plane_slice`), and so do the spine's ends,
    which lie on the line.  So `plane_coords` maps them, scaled by their
    common denominator, one to one to int coordinates (scaling keeps the
    edge normals), and a slab vertex's 3-space point is found by them.
    The spine's ends and the face each ray leaves P* through are read off
    P's vertices (`_exit`), and the free corners off d x v (`_free_corners`).
    """
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
    spine = [end for end, _, _ in exits]

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

    return DegenerationData(
        name=name or "line-fan data",
        kind="line_fan",
        slabs=slabs,
        ray_summands=ray_summands,
        polytope=p,
        vertex_count=_free_corners(rows, dirv, fan_rays),
    )


def product_data(q: Polygon, name="") -> DegenerationData:
    """Product construction from a reflexive base polygon Q, in closed form:
    the data that `line_fan_data` builds for P = conv(n_i x 0, +-e3), the
    line through e3, the 2-cones through Q's vertices v_k and the rules
    (v_k, 0) -> a_k, built from Q alone and checked once.

    Q's edges (n, c) give P* = Q x [-1, 1] and the labels: the polar vertex
    n / -c is integral exactly when c = -1, as n is primitive, and vertex k
    of Q lies on the lines of edges k - 1 and k alone, so a_k = l(v_k*) is
    the lattice length of [n_(k-1), n_k].  A vertex of a reflexive Q is
    primitive (a lattice point inside [0, v_k] would be a second interior
    point), so it is its 2-cone's ray.  The line-fan route returns this:
    - the plane through e3 and v_k meets Q in a segment through the
      interior point 0, whose end on v_k's side is v_k, so it meets P*'s
      half on that side in [0, v_k] x [-1, 1], whose boundary there is the
      vertical edge {v_k} x [-1, 1] and two open segments inside the
      facets z = +-1: no edge of P* crosses it, and the slab is
      conv((v_k, +-1), +-e3) in the basis plane_basis([e3, v_k]) that
      `line_fan_data` takes, so coordinates and reports are the same;
    - +-e3 is interior to the facet z = +-1, as 0 is interior to Q, so the
      ray through it leaves P* through that facet alone and rho_plus and
      rho_minus are point summands;
    - every vertex (v_j, +-1) of P* lies in 2-cone j, so `vertex_count`
      is 0;
    - the rule point (v_k, 0) lies on the vertical edge at v_k alone, so
      that edge, the slab's far edge, carries a_k, and no other rule
      labels it;
    - the spine carries 0, and the edges from e3 and -e3 to (v_k, +-1) lie
      on no edge of P*, as their points other than (v_k, +-1) lie inside a
      facet z = +-1: they are boundary edges with 0.
    So slab k carries exactly one nonzero coefficient, a_k, and sum a_v is
    the sum of all slab coefficients, which `tests/test_degeneration.py`
    asserts on every reflexive base polygon and its GL(2,Z) images, with
    the data equal to the line-fan route's."""
    edges = q.edge_normals()
    if any(c >= 0 for _, c in edges):
        raise DegenerationError("origin not interior to the base polygon")
    if any(c != -1 for _, c in edges):
        raise DegenerationError("base polygon must be reflexive "
                                "(r(v*) = 1 everywhere)")
    normals = [n for n, _ in edges]
    p = LatticePolytope([(x, y, 0) for x, y in normals]
                        + [(0, 0, 1), (0, 0, -1)])
    slabs = []
    built = {}  # (polygon, coeffs) -> its first slab, within this call
    for k, ((x, y), n) in enumerate(zip(q.vertices, normals)):
        basis = plane_basis([(0, 0, 1), (x, y, 0)])
        top, bottom, up, down = plane_coords(
            basis, [(x, y, 1), (x, y, -1), (0, 0, 1), (0, 0, -1)])
        poly = Polygon([top, bottom, up, down])
        far, spine = {top, bottom}, {up, down}
        a = lattice_length(normals[k - 1], n)
        coeffs, roles = [], []
        for edge in poly.edges():
            coeffs.append(a if set(edge) == far else 0)
            roles.append(ROLE_SPINE if set(edge) == spine else ROLE_BOUNDARY)
        slabs.append(Slab.shared(built, f"S{k}", poly, tuple(coeffs),
                                 tuple(roles)))
    return DegenerationData(
        name=name or "product data",
        kind="product",
        slabs=slabs,
        ray_summands=[RaySummand("rho_plus", "point"),
                      RaySummand("rho_minus", "point")],
        polytope=p,
    )


# -- small geometric helpers -------------------------------------------------


def _exit(p: LatticePolytope, r):
    """(end, k, fid): the ray through r, primitive, leaves P* at end =
    r / -m, m = min <v, r> over P's vertices, k of which reach it, and
    through vertex fid of P* when k > 2 (fid is None otherwise).

    P* = {y : <v, y> >= -1} is bounded around 0 (P is Fano), so m < 0
    and t r, t >= 0, is in P* iff t <= 1 / -m.  The facets v* through end are those with
    <v, r> = m, so the ray leaves through the face dual to P's face F
    where <., r> is least (Ziegler, Lectures on Polytopes, ch. 2): a facet
    when F is a vertex (k = 1), an edge when F is one (k = 2), else the
    vertex dual to the facet F, whose primitive inner normal is r."""
    vals = [dot(v, r) for v in p.vertices]
    m = min(vals)
    k = vals.count(m)
    fid = (next(i for i, f in enumerate(p.facets) if f.normal == r)
           if k > 2 else None)
    return tuple(_quotient(x, -m) for x in r), k, fid


def _free_corners(rows, dirv, fan_rays) -> int:
    """How many vertices v of P* (`rows`) lie on neither the line through
    d = dirv nor a 2-cone: those with d x v != 0 whose primitive is no
    fan ray w's primitive d x w.  v = a d + b w gives d x v = b (d x w),
    and d x v = b (d x w) gives d x (v - b w) = 0, so v = a d + b w: v off
    the line is in w's 2-cone (b > 0) iff the primitives agree."""
    cones = {primitive(cross(dirv, w)) for w in fan_rays}
    return sum(1 for v in rows
               if any(dv := cross(dirv, v)) and primitive(dv) not in cones)


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
