"""Every `raise` left in `degeneration`, `gamma`, `invariants` and
`discriminant`, executed by a named pin.

A pin is an input that reaches one raise through the package's entry points
(the builders' arguments, a fixture document, a polytope), or, for an aim-3
cross-check, a run that breaks one of its two derivations with
`monkeypatch`.  Each pin runs once under `executed_lines`, a tracer that
follows only these four files; it must raise its exact class and message,
and the audit fails unless every raise line of the four files ran under
some pin.  The checks that no input can fire are gone, with their proofs in
the routines' docstrings and their theorems asserted in
`tests/test_retired_raises.py`.
"""

from fractions import Fraction
from functools import partial

import pytest

from conftest import (bundled, bundled_polygon, executed_lines,
                      malformed_slab_fixtures, raise_lines)
from test_discriminant import _StrayPoint
from test_slab_checks import PINNED
from fanoscope import degeneration, discriminant, gamma, invariants
from fanoscope.degeneration import (DegenerationData, DegenerationError,
                                    RaySummand, _coords_in,
                                    decomposition_regimes, line_fan_data,
                                    method1_data, normal_fan_data,
                                    polygon_of_sections, product_data)
from fanoscope.discriminant import assemble_global, max_triangulation
from fanoscope.fileio import data_from_fixture, load_fixture
from fanoscope.gamma import (GammaError, barT_sections, build_system,
                             gamma_dimension)
from fanoscope.invariants import (InvariantError, _cell_class_data, analyze,
                                  analyze_degree, b3_from, degree,
                                  euler_number, euler_product,
                                  euler_smooth_mink, fano_index)
from fanoscope.polytope import Facet, LatticePolytope, Polygon, PolytopeError

MODULES = (degeneration, gamma, invariants, discriminant)

# a vertex that is not primitive
NOT_FANO = [(2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
RAYS = [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]


def broken(target, name, fn, run):
    """run() with target.name replaced by fn(the original)."""
    def call():
        real = getattr(target, name)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(target, name, fn(real))
            run()
    return call


def fixture_data(name, drop=None):
    """A bundled fixture's data, with the key `drop` left out."""
    doc = load_fixture(name)
    doc.pop(drop, None)
    return data_from_fixture(doc)


def malformed(key):
    return data_from_fixture(malformed_slab_fixtures()[key][0])


def analyze_malformed(key):
    analyze(malformed(key))


def odd_euler():
    data = fixture_data("mm2_2")
    data.vertex_count += 1
    euler_number(data)


def extra_segment():
    data = method1_data(bundled("p3"))
    data.ray_summands.append(RaySummand("v0", "segment", ("E0", "E1")))
    euler_number(data)


def moved_segment():
    """hexagon_cone under choice 0: v3's segment moved from (E2, E9) to
    (E2, E3), two cones that are not coplanar."""
    p = bundled("hexagon_cone")
    data = normal_fan_data(p, None, [0] * len(p.polar_dual().vertices))
    rs = next(s for s in data.ray_summands
              if s.ray == "v3" and s.slabs == ("E2", "E9"))
    rs.slabs = ("E2", "E3")
    gamma_dimension(data)


def torsion_cell():
    """A "facet" of P3* cut down to one edge: its two edge functionals are
    m and -m."""
    dual = bundled("p3").polar_dual()
    f = dual.facets[0]
    _cell_class_data(dual, Facet(f.normal, f.level, f.vertex_ids,
                                 f.cycle[:2]))


def plus(k):
    """For `broken`: the original plus k."""
    return lambda real: lambda *args: real(*args) + k


def validate_pins():
    return {f"degeneration.validate: {key}": (partial(analyze_malformed, key),
                                              DegenerationError, message)
            for key, (_, message) in malformed_slab_fixtures().items()}


def sections_pins():
    return {f"degeneration.polygon_of_sections: {key}":
            (partial(polygon_of_sections, normals, coeffs), cls, message)
            for key, (normals, coeffs, cls, message) in PINNED.items()}


# name -> (call, exception class, message)
PINS = {
    **sections_pins(),
    **validate_pins(),
    "degeneration.line_fan: two rays": (
        lambda: line_fan_data(bundled("p3"), (0, 0, 1), RAYS[:2], []),
        DegenerationError, "line fan needs a complete quotient fan"),
    "degeneration._coords_in: off the plane": (
        lambda: _coords_in(((1, 0, 0), (0, 1, 0)), [(0, 0, 1)]),
        DegenerationError, "point outside its plane"),
    "degeneration._ray_target: b1's index-2 facet": (
        lambda: decomposition_regimes(bundled("b1")), DegenerationError,
        "no smooth Minkowski decomposition: facet of ray 0 is not divisible "
        "by its index 2"),
    "degeneration.match_summand_slabs: a triangle on two cones": (
        lambda: line_fan_data(bundled("p3"), (-1, -1, -1),
                              [(-1, -1, 0), (-1, 0, -1), (1, -1, 0)], []),
        DegenerationError,
        "unmatched summand direction: Summand(kind='triangle', "
        "vectors=((-1, 1), (0, -1), (1, 0))) met ['S0', 'S1']"),
    "degeneration._check_keys: choice off the dual": (
        lambda: normal_fan_data(bundled("p3"), None, {9: 0}),
        DegenerationError,
        "choice key 9 names no vertex 0..3 of the polar dual"),
    "degeneration.normal_fan_data: not Fano": (
        lambda: normal_fan_data(LatticePolytope(NOT_FANO)),
        DegenerationError, "P is not a Fano polytope"),
    "degeneration.normal_fan_data: one index for four rays": (
        lambda: normal_fan_data(bundled("p3"), None, [0]),
        DegenerationError, "got 1 decomposition indices, need one per "
        "vertex 0..3 of the polar dual"),
    "degeneration.normal_fan_data: mm2_5 has an undecomposable facet": (
        lambda: method1_data(bundled("mm2_5")), DegenerationError,
        "no smooth Minkowski decomposition for the facet dual to vertex 1"),
    "degeneration.normal_fan_data: index -1": (
        lambda: method1_data(bundled("hexagon_cone"), [0, 0, 0, -1, 0, 0, 0]),
        DegenerationError,
        "decomposition index -1 out of range for vertex 3"),
    "degeneration.method1_data: v2": (
        lambda: method1_data(bundled("v2")), DegenerationError,
        "method 1 needs a reflexive polytope"),
    "degeneration.decomposition_regimes: origin on a facet": (
        lambda: decomposition_regimes(LatticePolytope(
            [(1, 0, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)])),
        PolytopeError, "origin is not interior"),
    "degeneration.line_fan_data: not Fano": (
        lambda: line_fan_data(LatticePolytope(NOT_FANO), (0, 0, 1), RAYS,
                              []),
        DegenerationError, "P is not a Fano polytope"),
    "degeneration.line_fan_data: a rule point in the plane": (
        lambda: line_fan_data(bundled("b3_cubic"), (0, 0, 1), RAYS,
                              [{"meets": (0, 0), "value": 1}]),
        DegenerationError,
        "edge rule point (0, 0) is not a point of 3-space"),
    "degeneration.line_fan_data: exit through an edge": (
        lambda: line_fan_data(bundled("p3"), (1, 1, -1), RAYS, []),
        DegenerationError, "rho_plus: the ray leaves through a face of "
        "unsupported dimension"),
    "degeneration.line_fan_data: b1's undecomposable exit vertex": (
        lambda: line_fan_data(bundled("b1"), (0, 2, -1),
                              [(-1, -1, -1), (-1, -1, 0), (1, 0, 1)], []),
        DegenerationError, "no smooth Minkowski decomposition for rho_plus"),
    "degeneration.product_data: a rational vertex": (
        lambda: product_data(Polygon([(-1, -1), (1, 0),
                                      (Fraction(-1, 2), 1)])),
        DegenerationError, "base polygon must be integral"),
    "degeneration.product_data: not reflexive": (
        lambda: product_data(Polygon([(1, 0), (0, 1), (-1, -3)])),
        DegenerationError,
        "base polygon must be reflexive (r(v*) = 1 everywhere)"),
    "degeneration._polygon_polar: origin outside": (
        lambda: product_data(Polygon([(1, 0), (2, 0), (1, 1)])),
        DegenerationError, "origin not interior to the base polygon"),
    "gamma.build_system: a product": (
        lambda: build_system(product_data(bundled_polygon("diamond"))),
        GammaError, "the Betti formula needs a complete normal fan "
        "(0-dimensional minimal cone)"),
    "gamma.gamma_dimension: a segment on two planes": (
        moved_segment, GammaError,
        "baseline missing: the torus subspace fails the equations"),
    "gamma.barT_sections: a product": (
        lambda: barT_sections(product_data(bundled_polygon("diamond"))),
        GammaError, "fast path needs a complete normal fan"),
    "invariants.euler_number: an extra segment": (
        extra_segment, InvariantError, "formula mismatch: 2 != 4"),
    "invariants.euler_number: mm2_2 with one vertex more": (
        odd_euler, InvariantError, "odd Euler number -33: invalid data"),
    "invariants.euler_smooth_mink: a product": (
        lambda: euler_smooth_mink(product_data(bundled_polygon("diamond"))),
        InvariantError, "closed form only applies to method-1 data"),
    "invariants.euler_product: p3": (
        lambda: euler_product(method1_data(bundled("p3"))),
        InvariantError, "not product data"),
    "invariants.degree: not Fano": (
        lambda: degree(LatticePolytope(NOT_FANO)), InvariantError,
        "degree needs a Fano polytope"),
    "invariants.degree: boundary area broken": (
        broken(LatticePolytope, "boundary_area", plus(2),
               lambda: degree(bundled("p3"))),
        InvariantError, "degree cross-check failed"),
    "invariants.degree: P(1,1,1,2)": (
        lambda: degree(LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                        (-1, -1, -2)])),
        InvariantError, "boundary area 125/2 of the polar dual is not an "
        "integer"),
    "invariants.b3_from: odd": (
        lambda: b3_from(5, 1), InvariantError,
        "inconsistent invariants: b3 = -1"),
    "invariants._cell_class_data: torsion": (
        torsion_cell, InvariantError,
        "base divisor class is torsion in a cell"),
    "invariants.fano_index: b1 with degree 27": (
        lambda: fano_index(fixture_data("b1"), 1, 27), InvariantError,
        "cannot determine the index from boundary components"),
    "invariants.fano_index: b3_cubic": (
        lambda: fano_index(fixture_data("b3_cubic"), 1, 24), InvariantError,
        "not rank one: index computed only on normal-fan data"),
    "invariants.fano_index: b2 = 3": (
        lambda: fano_index(method1_data(bundled("octahedron")), 3, 48),
        InvariantError, "not rank one"),
    "invariants.analyze_degree: mm2_2 without a degree": (
        lambda: analyze_degree(fixture_data("mm2_2", drop="degree")),
        InvariantError, "no degree source available"),
    "invariants.analyze: closed form broken": (
        broken(invariants, "euler_smooth_mink", plus(2),
               lambda: analyze(method1_data(bundled("p3")))),
        InvariantError, "formula mismatch: closed form 6 != 4"),
    "invariants.analyze: product form broken": (
        broken(invariants, "euler_product", plus(2),
               lambda: analyze(product_data(bundled_polygon("diamond")))),
        InvariantError, "formula mismatch: product form 18 != 16"),
    "invariants.analyze: fast path broken": (
        broken(invariants, "barT_sections", plus(1),
               lambda: analyze(method1_data(bundled("p3")))),
        InvariantError, "fast-path b2 disagrees with the limit"),
    "discriminant.max_triangulation: a stray point": (
        lambda: max_triangulation(_StrayPoint([(0, 0), (2, 0), (0, 2)])),
        DegenerationError,
        "lattice point (10, 10) lies in no triangle of the triangulation"),
    "discriminant.assemble_global: mm2_2 edge span": (
        lambda: assemble_global(malformed("edge_span")), DegenerationError,
        "compatibility violated: missing stub for R1 in P112a"),
    "discriminant.assemble_global: mm2_2 endpoints": (
        lambda: assemble_global(malformed("endpoints")), DegenerationError,
        "compatibility violated: unconsumed stubs ['P2/s8', 'P112a/s7', "
        "'SQa/s8']"),
    "discriminant.assemble_global: node census broken": (
        broken(DegenerationData, "n_count",
               lambda real: property(lambda self: real.fget(self) + 1),
               lambda: assemble_global(method1_data(bundled("p3")))),
        DegenerationError, "graph census disagrees with slab arithmetic"),
}


@pytest.fixture(scope="module")
def runs():
    return {key: executed_lines(call, MODULES)
            for key, (call, _, _) in PINS.items()}


def raise_sites():
    return {(m.__name__, line) for m in MODULES for line in raise_lines(m)}


@pytest.mark.parametrize("key", sorted(PINS))
def test_pin_raises_its_exact_error(runs, key):
    _, cls, message = PINS[key]
    exc, ran = runs[key]
    assert type(exc) is cls and str(exc) == message
    assert ran & raise_sites()


def test_every_raise_line_runs_under_a_pin(runs):
    ran = set().union(*(lines for _, lines in runs.values()))
    assert sorted(raise_sites() - ran) == []
