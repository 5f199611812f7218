"""Numerical invariants of the torus-fibration model attached to
degeneration data: Euler number, anti-canonical degree, Betti numbers and
the Fano index."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .degeneration import DegenerationData, DegenerationError
from .gamma import b2 as gamma_b2, barT_sections
from .polytope import LatticePolytope, _edge_lengths, _lattice_index


class InvariantError(DegenerationError):
    pass


# ---------------------------------------------------------------------------
# Euler number


def euler_number(data: DegenerationData) -> int:
    """Euler number, computed by both available formulas.

    Formula A: 2 sum_s (1 - i_s) - 2|J| + V(B).
    Formula B (node census): p - n + |Delta . boundary| + V(B).
    A disagreement means invalid data or a bug and raises.
    """
    e_slab = (2 * sum(1 - s.i_count for s in data.slabs)
              - 2 * data.j_count + data.vertex_count)
    e_node = (data.p_count - data.n_count + data.boundary_count
              + data.vertex_count)
    if e_slab != e_node:
        raise InvariantError(f"formula mismatch: {e_slab} != {e_node}")
    if e_slab % 2:
        raise InvariantError(f"odd Euler number {e_slab}: invalid data")
    return e_slab


def euler_smooth_mink(data: DegenerationData) -> int:
    """Closed form for method-1 data: 24 + T - sum l(E) l(E*)^2 over the
    edges E of P*, which is the sum of l(E)^2 l(E*) over the edges E of
    the reflexive P (`_edge_lengths`), with no P* built."""
    p = data.polytope
    if data.kind != "normal_fan" or p is None or not p.is_reflexive():
        raise InvariantError("closed form only applies to method-1 data")
    return 24 + data.p_count - sum(a * a * b for a, b in _edge_lengths(p))


def euler_product(data: DegenerationData) -> int:
    """Product construction: e = 2 * sum a_v = 2 e(dP_d) with d = 12 - sum,
    read as the sum of all slab coefficients (`product_data`)."""
    if data.kind != "product":
        raise InvariantError("not product data")
    return 2 * sum(sum(s.coeffs) for s in data.slabs)


# ---------------------------------------------------------------------------
# degree


def degree(p: LatticePolytope) -> int:
    """Anti-canonical degree: the normalized boundary area of P*,
    cross-checked against 2|P* . M| - 6 for reflexive P."""
    if not p.is_fano():
        raise InvariantError("degree needs a Fano polytope")
    dual = p.polar_dual()
    area = dual.boundary_area()
    if p.is_reflexive():
        deg = 2 * len(dual.lattice_points()) - 6
        if deg != area:
            raise InvariantError("degree cross-check failed")
        return deg
    if type(area) is not int:
        raise InvariantError(f"boundary area {area} of the polar dual is "
                             f"not an integer")
    return area


def b3_from(e: int, b2: int) -> int:
    """b3 = 2 + 2 b2 - e; must be a non-negative even integer."""
    b3 = 2 + 2 * b2 - e
    if b3 < 0 or b3 % 2:
        raise InvariantError(f"inconsistent invariants: b3 = {b3}")
    return b3


def p1c1_expected(deg: int) -> int:
    return deg - 48


# ---------------------------------------------------------------------------
# Fano index


def _cell_divisibilities(dual: LatticePolytope):
    """Divisibility of the base divisor of each maximal cell, the cone over
    a facet of the polar polytope, in facet order (`fano_index`)."""
    stars = [[f.normal] for f in dual.facets]
    for e, nu in zip(dual.edges, dual.edge_annihilators()):
        for j in e.facet_ids:
            stars[j].append(nu)
    for rays in stars:
        yield _lattice_index(rays[1:])[1] // _lattice_index(rays)[1]


def fano_index(data: DegenerationData, b2: int, degree: int) -> int:
    """Divisibility index of the boundary class in second cohomology, given
    the model's b2 and degree.

    One integer coordinate x_f per maximal cell (cone over a facet f of
    the polar polytope), glued along walls; returns the saturation index
    of the boundary tuple d in the kernel.  Only valid for rank-one data.

    A cell's rays are the facet normal and the annihilators of the edges
    on the facet (`edge_annihilators`, the memo that Gamma reads): for
    consecutive vertices a, b of the facet, primitive(a x b) is +-nu of
    their edge, and `_lattice_index` reads only gcds of minors, so neither
    the sign nor the order of the rays matters.  The base divisor (the
    first ray) is divisible by d_f = d3(rays[1:]) / d3(rays), d3 the gcd
    of the 3x3 minors.  It is never torsion, which needs the other rays to
    have rank < 3: they are the inner normals of the cone over the facet,
    which is strictly convex (the origin is interior to the polar
    polytope, so off the facet) and 3-dimensional, so its dual cone, which
    they span, is 3-dimensional.

    The kernel is the line through d, so the index is gcd(d).  Each wall's
    gluing row, d_g x_f - d_f x_g = 0, equates x_f / d_f across its two
    cells, and every d_f >= 1 (a gcd of minors divided by the gcd of a
    superset of them).  The facet graph of a 3-polytope is connected, so
    x / d is constant: nullity 1, and no row is built.
    `tests/test_invariants.py` builds the rows and asserts it on every
    bundled Fano polytope and its GL(3,Z) images.
    """
    if "boundary_components" in data.stated:
        k = data.stated["boundary_components"][0]
        if degree != k ** 3:
            raise InvariantError("cannot determine the index from boundary "
                                 "components")
        return k
    if data.kind != "normal_fan" or data.dual is None:
        raise InvariantError("not rank one: index computed only on "
                             "normal-fan data")
    if b2 != 1:
        raise InvariantError("not rank one")
    return gcd(*_cell_divisibilities(data.dual))


# ---------------------------------------------------------------------------
# report


@dataclass
class InvariantReport:
    name: str
    degree: int
    p: int
    n: int
    d_segments: int
    boundary_count: int
    vertex_count: int
    euler: int
    b2: int | None
    b3: int | None
    fano_index: int | None
    p1c1: int
    provenance: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "name": self.name,
            "degree": self.degree,
            "p": self.p,
            "n": self.n,
            "segments": self.d_segments,
            "boundary_points": self.boundary_count,
            "vertex_count": self.vertex_count,
            "euler": self.euler,
            "p1c1": self.p1c1,
            "provenance": dict(sorted(self.provenance.items())),
        }
        if self.b2 is not None:
            out["b2"] = self.b2
            out["b3"] = self.b3
        if self.fano_index is not None:
            out["index"] = self.fano_index
        return out


def analyze(data: DegenerationData) -> InvariantReport:
    """Full invariant report for degeneration data, which construction has
    checked (`DegenerationData.validate`).

    Normal-fan data on a reflexive P has a_E = l(E*) on every edge E of
    P*, so the closed form applies: its label is l(E*) / r(E*), the only
    one the check accepts (`normal_fan_data`), and r(E*) = 1 on a
    reflexive P (`method1_data`).
    """
    prov = {}
    e = euler_number(data)
    prov["euler"] = "slab formula + node census"
    if (data.kind == "normal_fan" and data.polytope is not None
            and data.polytope.is_reflexive()):
        closed = euler_smooth_mink(data)
        if closed != e:
            raise InvariantError(f"formula mismatch: closed form {closed} != {e}")
        prov["euler"] += " + closed form"
    if data.kind == "product":
        closed = euler_product(data)
        if closed != e:
            raise InvariantError(f"formula mismatch: product form {closed} != {e}")
        prov["euler"] += " + product form"
    if data.polytope is not None:
        deg = degree(data.polytope)
        prov["degree"] = ("2|P*.M| - 6" if data.polytope.is_reflexive()
                          else "dilated boundary area")
    elif "degree" in data.stated:
        deg, source = data.stated["degree"]
        prov["degree"] = f"source: {source}"
    else:
        raise InvariantError("no degree source available")

    b2v = None
    if data.kind == "normal_fan":
        b2v = gamma_b2(data)
        prov["b2"] = "dim Gamma - 2"
        fast = barT_sections(data)
        if fast is not None:
            if fast - 2 != b2v:
                raise InvariantError("fast-path b2 disagrees with the limit")
            prov["b2"] += " (fast path agrees)"
    elif data.kind == "product":
        b2v = euler_product(data) // 2 - 1  # sum a_v - 1
        prov["b2"] = "product closed form"
    elif "b2" in data.stated:
        b2v, source = data.stated["b2"]
        prov["b2"] = f"source: {source}"

    b3v = b3_from(e, b2v) if b2v is not None else None

    idx = None
    if "boundary_components" in data.stated:
        idx = fano_index(data, b2v, deg)
        prov["index"] = "homologous boundary components"
    elif data.kind == "normal_fan" and b2v == 1:
        idx = fano_index(data, b2v, deg)
        prov["index"] = "H^2 gluing kernel"

    return InvariantReport(
        name=data.name,
        degree=deg,
        p=data.p_count,
        n=data.n_count,
        d_segments=data.d_count,
        boundary_count=data.boundary_count,
        vertex_count=data.vertex_count,
        euler=e,
        b2=b2v,
        b3=b3v,
        fano_index=idx,
        p1c1=p1c1_expected(deg),
        provenance=prov,
    )
