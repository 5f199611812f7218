"""The limit of the quotient-space functor over the ray-data diagram.

For normal-fan data the system has one scalar unknown per 2-cone (the value
against the canonical primitive annihilator of its plane) plus one auxiliary
covector per two-dimensional summand; its solution space computes the second
Betti number of the fibration as dim Gamma - 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degeneration import DegenerationData, DegenerationError, _edge_name
from .linalg import nullity, primitive
from .polytope import cross, dot, vadd, vsub


class GammaError(DegenerationError):
    pass


@dataclass
class GammaSystem:
    rows: list                 # {column: entry} over alpha_0.., aux...
    n_alpha: int
    n_aux: int                 # 3 per 2-dim summand
    triangles: int
    nu: list                   # canonical annihilator per 2-cone
    cone_names: list


def build_system(data: DegenerationData) -> GammaSystem:
    """Linear system whose solutions are the limit elements.

    Segment summands identify the two scalars on their (coplanar) cones;
    triangle summands tie three scalars to a single auxiliary covector.

    A segment of ray v_a runs along some s in W = ann(v_a), and each cone it
    is matched to, over the dual edge [v_a, v_b], has <v_b, s> = 0, so both
    cone planes are s^perp and `edge_annihilators` gives both the same nu,
    the primitive lex-positive annihilator of that plane.  The system holds
    its own list of the nu, which P* keeps as a tuple.
    `baseline_ok` fails on a row whose cones do not share a nu.
    """
    if data.kind != "normal_fan":
        raise GammaError("the Betti formula needs a complete normal fan "
                         "(0-dimensional minimal cone)")
    dual = data.dual
    nus = dual.edge_annihilators()
    edge_index = {_edge_name(i): i for i in range(len(dual.edges))}
    n_alpha = len(dual.edges)
    rows = []
    aux = n_alpha  # first column of the next triangle's covector
    for rs in data.ray_summands:
        cones = [edge_index[s] for s in rs.slabs]
        if rs.kind == "segment":
            c1, c2 = cones
            rows.append({c1: 1, c2: -1})
        else:
            rows.extend(_tie(c, aux, nus[c]) for c in cones)
            aux += 3  # one auxiliary covector per triangle
    n_aux = aux - n_alpha
    return GammaSystem(rows, n_alpha, n_aux, n_aux // 3, list(nus),
                       [_edge_name(i) for i in range(n_alpha)])


def _tie(c, aux, nu):
    """The row -alpha_c + <m, nu> = 0 for the covector m held in columns
    aux..aux+2."""
    row = {c: -1}
    for k, x in enumerate(nu):
        if x:
            row[aux + k] = x
    return row


def baseline_ok(system: GammaSystem) -> bool:
    """The 3-dimensional torus baseline alpha_sigma = <m, nu_sigma> must
    satisfy every equation (with aux = m for each triangle).  The equations
    are linear in m, so checking the three unit vectors proves it for all m."""
    vecs = [[dot(m, nu) for nu in system.nu] + list(m) * system.triangles
            for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return not any(sum(r * vec[j] for j, r in row.items())
                   for row in system.rows for vec in vecs)


def gamma_dimension(data: DegenerationData) -> int:
    """dim Gamma = nullity - triangles >= 3: the torus baseline (alpha =
    <m, nu>, each triangle's covector m) and, per triangle of ray v_a, v_a
    in that triangle's covector (its cones' planes hold v_a) are 3 +
    triangles independent solutions, as the nu of a complete fan span
    3-space; `tests/test_retired_raises.py` builds them."""
    system = build_system(data)
    if not baseline_ok(system):
        raise GammaError("baseline missing: the torus subspace fails the "
                         "equations")
    return nullity(system.rows, system.n_alpha + system.n_aux) - system.triangles


def b2(data: DegenerationData) -> int:
    return gamma_dimension(data) - 2


# ---------------------------------------------------------------------------
# fast path through the constructible system on the one-skeleton


def _fan_pattern(cycle, normal):
    """Self-intersection sequence of the smooth complete fan normal to a
    polygon given by its vertex cycle in 3-space and the primitive normal
    of its plane; None when the fan is singular.

    With d_i the primitive direction of edge i, the fan is smooth when each
    d_i x d_(i+1) is +-normal (a basis of the plane's lattice), and then
    d_(i-1) + d_(i+1) = lam d_i, with -lam the self-intersection.  The
    sequence may come reversed, as the cycle's orientation is not fixed.
    """
    k = len(cycle)
    dirs = [primitive(vsub(cycle[(i + 1) % k], cycle[i])) for i in range(k)]
    unit = (normal, tuple(-x for x in normal))
    pattern = []
    for i in range(k):
        a, b, c = dirs[i - 1], dirs[i], dirs[(i + 1) % k]
        if cross(b, c) not in unit:
            return None
        s = vadd(a, c)
        idx = next(j for j, x in enumerate(b) if x)
        lam, rem = divmod(s[idx], b[idx])
        if rem or any(x != lam * y for x, y in zip(s, b)):
            return None
        pattern.append(-lam)
    return tuple(pattern)


def barT_hypothesis(data: DegenerationData):
    """Every facet of P must have normal fan among P^2, P^1xP^1, F_1, dP_7:
    a smooth fan (`_fan_pattern` is not None) of at most 5 rays with no
    self-intersection below -1.

    On a smooth complete toric surface each D_i is a P^1, so adjunction
    gives -K.D_i = D_i^2 + 2, and by toric Kleiman -K is ample iff every
    D_i^2 >= -1.  The smooth toric del Pezzo surfaces are P^2, P^1xP^1,
    F_1, dP_7 and dP_6, and only dP_6 has 6 rays."""
    p = data.polytope
    patterns = (_fan_pattern([p.vertices[i] for i in f.cycle], f.normal)
                for f in p.facets)
    return all(pat is not None and len(pat) <= 5 and min(pat) >= -1
               for pat in patterns)


def barT_sections(data: DegenerationData) -> int | None:
    """Dimension of the global sections of the quotient system on the
    one-skeleton of the polar polytope, which equals dim Gamma under the
    facet hypothesis; None when the hypothesis fails."""
    if data.kind != "normal_fan":
        raise GammaError("fast path needs a complete normal fan")
    if not barT_hypothesis(data):
        return None
    dual = data.dual
    nus = dual.edge_annihilators()
    n_alpha = len(dual.edges)
    n_rays = len(dual.vertices)
    # one tie per end of each edge; the row order does not change the nullity
    rows = [_tie(i, n_alpha + 3 * vid, nus[i])
            for i, e in enumerate(dual.edges) for vid in e.vertex_ids]
    return nullity(rows, n_alpha + 3 * n_rays) - n_rays
