"""Per-slab discriminant graphs: maximal triangulations of the section
polygons, their dual trivalent graphs, global assembly and SVG export."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from .degeneration import ROLE_BOUNDARY, ROLE_SPINE, DegenerationData, DegenerationError
from .polytope import Polygon


@dataclass
class UnimodularTriangulation:
    polygon: Polygon
    points: list                      # all lattice points used
    triangles: list                   # index triples into points


def max_triangulation(polygon: Polygon) -> UnimodularTriangulation:
    """Full lattice triangulation into unimodular triangles.

    Deterministic: fan from the lex-least vertex, then insert the remaining
    lattice points in lex order.  One scan of orientation triples finds the
    triangles that hold the point: a zero side puts it on that edge, and
    both triangles along the edge are split, else the one triangle is.
    Every lattice point becomes a vertex, so each triangle holds no lattice
    point but its corners, and Pick's theorem makes it unimodular.  Each
    point finds a host: the fan covers the polygon, and a split replaces
    its hosts by triangles with the same union (the new vertex is on their
    boundary or inside), so the triangles cover the polygon throughout.
    The triangles are kept by index triple with their corners, and the
    result is sorted, so the order in which they were found is irrelevant.
    """
    pts = polygon.lattice_points()
    verts = polygon.vertices  # lex-least first (`Polygon`)
    idx = {p: i for i, p in enumerate(pts)}
    fan = ((idx[verts[0]], idx[verts[k]], idx[verts[k + 1]])
           for k in range(1, len(verts) - 1))
    # index triple -> its corners' coordinates, in the triple's order
    tris = {t: (*pts[t[0]], *pts[t[1]], *pts[t[2]]) for t in fan}
    used = {i for t in tris for i in t}
    for pi, (px, py) in enumerate(pts):
        if pi in used:
            continue
        hosts = []
        for t, (ax, ay, bx, by, cx, cy) in tris.items():
            s1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            s2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
            s3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
            if s1 >= 0 <= s2 and s3 >= 0 or s1 <= 0 >= s2 and s3 <= 0:
                hosts.append((t, (s1, s2, s3)))
        t, s = hosts[0]
        if 0 in s:
            side = s.index(0)
            a, b = t[side], t[(side + 1) % 3]
            new = []
            for host, _ in hosts:
                c = sum(host) - a - b  # the corner off the edge
                new += [tuple(sorted((a, pi, c))), tuple(sorted((pi, b, c)))]
        else:
            a, b, c = t
            new = [tuple(sorted((a, b, pi))), tuple(sorted((b, c, pi))),
                   tuple(sorted((a, c, pi)))]
        for host, _ in hosts:
            del tris[host]
        for t in new:
            tris[t] = (*pts[t[0]], *pts[t[1]], *pts[t[2]])
        used.add(pi)
    return UnimodularTriangulation(polygon, pts, sorted(tris))


# ---------------------------------------------------------------------------
# graphs


@dataclass(slots=True)
class Node:
    ident: str
    kind: str       # "negative" | "positive" | "boundary" | "stub"
    slab: str
    pos: tuple      # ints, in sixths of a lattice unit


@dataclass
class DiscriminantGraph:
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)

    def census(self):
        kinds = Counter(v.kind for v in self.nodes)
        return kinds["positive"], kinds["negative"], kinds["boundary"]

    def to_dict(self):
        """Positions print as `str(Fraction(x, 6))`, each distinct x once."""
        text = {}
        for x in {x for v in self.nodes for x in v.pos}:
            g = gcd(x, 6)
            text[x] = str(x // g) if g == 6 else f"{x // g}/{6 // g}"
        return {
            "nodes": [{"id": v.ident, "kind": v.kind, "slab": v.slab,
                       "pos": [text[x] for x in v.pos]} for v in self.nodes],
            "edges": sorted(self.edges),
        }


def _graph_piece(sections):
    """The part of a slab's dual graph that depends only on its sections,
    built once per `Sections` and kept on it: (centroids, pairs, segments).

    Positions are ints in sixths.  centroids holds one position per
    triangle of the maximal triangulation, twice the sum of its corners;
    pairs holds the interior edges as triangle index pairs, each ordered as
    the node names sort; segments holds (triangle index, midpoint, owner
    edge) per unit boundary segment, the owner being the slab edge whose
    support line holds it.  Both lists follow the sorted triangulation
    edges.  S is cut out by its edge lines, so a unit segment on its
    boundary lies in one face of S, on one of those lines.
    """
    if sections.graph_piece is not None:
        return sections.graph_piece
    tri = max_triangulation(sections.polygon)
    pts = tri.points
    centroids = tuple((2 * (pts[a][0] + pts[b][0] + pts[c][0]),
                       2 * (pts[a][1] + pts[b][1] + pts[c][1]))
                      for a, b, c in tri.triangles)
    edge_tris = {}
    for ti, t in enumerate(tri.triangles):
        for u, v in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edge_tris.setdefault((u, v) if u < v else (v, u), []).append(ti)
    lines = [(*n, -q) for n, q in zip(sections.normals, sections.coeffs)]
    pairs, segments = [], []
    for key, ts in sorted(edge_tris.items()):
        if len(ts) == 2:
            # names n<i> and n<j> of one slab sort as str(i) and str(j) do
            i, j = ts
            pairs.append((i, j) if str(i) < str(j) else (j, i))
        elif len(ts) == 1:
            (ax, ay), (bx, by) = pts[key[0]], pts[key[1]]
            owner_edge = next(i for i, (n0, n1, lvl) in enumerate(lines)
                              if n0 * ax + n1 * ay == lvl == n0 * bx + n1 * by)
            mid = (3 * (ax + bx), 3 * (ay + by))
            segments.append((ts[0], mid, owner_edge))
    sections.graph_piece = (centroids, tuple(pairs), tuple(segments))
    return sections.graph_piece


def dual_graph(slab) -> tuple:
    """Dual-graph piece of one slab: trivalent interior vertices plus stubs
    keyed by the polygon edge they exit through.

    Returns (graph, stubs) where stubs maps a slab edge index to the ordered
    list of stub node ids on that edge.  On a polygon S the edge lines are
    distinct and two of them share no segment, so line i owns exactly the
    span_i unit segments of S's face on it: edge i gets span_i stubs.  A
    point S has no side of positive span, a segment S two of its length.
    """
    if slab.sections.dim < 2:
        graph = DiscriminantGraph()
        # degenerate sections: a_v parallel strands from side to side
        stubs = {}
        sides = [i for i, s in enumerate(slab.spans) if s > 0]
        for i in sides:
            ids = []
            for k in range(slab.spans[i]):
                ident = f"{slab.name}/stub{i}.{k}"
                graph.nodes.append(Node(ident, "boundary" if
                                        slab.roles[i] == ROLE_BOUNDARY else
                                        "stub", slab.name, (6 * k, 6 * i)))
                ids.append(ident)
            stubs[i] = ids
        # connect strand k across the two sides
        graph.edges.extend(zip(*(stubs[i] for i in sides)))
        return graph, stubs

    centroids, pairs, segments = _graph_piece(slab.sections)
    name = slab.name
    names = [f"{name}/n{ti}" for ti in range(len(centroids))]
    graph = DiscriminantGraph(
        [Node(ident, "negative", name, pos)
         for ident, pos in zip(names, centroids)],
        [(names[i], names[j]) for i, j in pairs])
    # boundary stubs: unit segments of the section polygon boundary, on the
    # slab edge whose support line they lie on
    stubs = {i: [] for i in range(len(slab.sections.normals))}
    for counter, (ti, mid, owner_edge) in enumerate(segments):
        ident = f"{name}/s{counter}"
        kind = ("boundary" if slab.roles[owner_edge] == ROLE_BOUNDARY
                else "stub")
        graph.nodes.append(Node(ident, kind, name, mid))
        graph.edges.append((names[ti], ident))  # "n" sorts before "s"
        stubs[owner_edge].append(ident)
    for ids in stubs.values():
        ids.sort()
    return graph, stubs


def assemble_global(data: DegenerationData) -> DiscriminantGraph:
    """Glue the per-slab pieces: one positive trivalent node per triangle
    summand, pass-through strands per segment summand.

    Every stub pool is used up exactly.  Edge i gets span_i stubs
    (`dual_graph`), pooled by role, which is boundary, spine or a ray, and
    every summand names distinct slabs of the data (`validate`).  Per slab,
    the check equates a ray's span with the summands of that ray naming the
    slab where the ray has an edge, and the spine span with the rest: so a
    ray's own pool is never empty when it is asked, nor the spine's."""
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
            pools = slab_stubs[sname]
            pool = pools.get(f"ray:{rs.ray}") or pools[ROLE_SPINE]
            mine.append(pool.pop(0))
        if rs.kind == "triangle":
            ident = f"p{si}/{rs.ray}"
            total.nodes.append(Node(ident, "positive", rs.ray, (0, 0)))
            for stub in mine:
                total.edges.append(tuple(sorted((ident, stub))))
        else:
            total.edges.append(tuple(sorted(mine)))
    p, n, _ = total.census()
    if p != data.p_count or n != data.n_count:
        raise DegenerationError("graph census disagrees with slab arithmetic")
    return total


# ---------------------------------------------------------------------------
# rendering


_COLORS = {"negative": "#d62728", "positive": "#1f77b4",
           "boundary": "#2ca02c", "stub": "#999999"}


def render_svg(data: DegenerationData, graph: DiscriminantGraph | None = None) -> str:
    """Deterministic schematic drawing: slabs side by side in their section
    coordinates, positive nodes in a strip underneath."""
    if graph is None:
        graph = assemble_global(data)
    scale = 36
    pad = 40
    offsets = {}
    x_cursor = pad
    heights = []
    for slab in data.slabs:
        xs, ys = zip(*slab.sections.vertices())
        w = float(max(xs) - min(xs)) * scale + 2 * pad
        offsets[slab.name] = (x_cursor - float(min(xs)) * scale,
                              pad - float(min(ys)) * scale)
        heights.append(float(max(ys) - min(ys)) * scale + 2 * pad)
        x_cursor += w
    height = max(heights) + 80 if heights else 200
    width = x_cursor + pad

    # positive nodes go left to right in their order in the graph
    pos = {}
    strip = 0
    for v in graph.nodes:
        if v.kind == "positive":
            pos[v.ident] = 40.0 + 30.0 * strip, height - 30.0
            strip += 1
        else:
            ox, oy = offsets.get(v.slab, (pad, pad))
            pos[v.ident] = (ox + v.pos[0] / 6 * scale,
                            oy + v.pos[1] / 6 * scale)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">']
    for a, b in sorted(graph.edges):
        (x1, y1), (x2, y2) = pos[a], pos[b]
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                     f'y2="{y2:.1f}" stroke="#555" stroke-width="1"/>')
    for v in graph.nodes:
        x, y = pos[v.ident]
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                     f'fill="{_COLORS.get(v.kind, "#000")}"><title>'
                     f'{v.ident}</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts)


def export_json(graph: DiscriminantGraph) -> dict:
    return graph.to_dict()
