"""Every `raise`, `except` handler and `continue` left in the package,
executed by a named pin.

A pin is an input that reaches one raise through the package's entry points
(the CLI and its files, fixture documents, the builders' and the public
routines' arguments), or, for an aim-3 cross-check, a run that breaks one
of its two derivations with `monkeypatch`.  Each pin runs once under
`executed_lines`, a tracer that follows only the package's own files; it
must raise its exact class and message, and the audit fails unless every
raise line of every module ran under some pin.

The fallbacks, each `continue` and the first statement of each `except`
handler, are audited the same way, by the pins of `PINS` and `REACHES`.
A reach pin runs a fallback and returns: it must return its pinned
result.  A fallback counts as run only under a pin named for the routine
that holds it (the top-level function or `Class.method` before the
colon), since most fallbacks also run on the way to other routines'
raises; and each reach pin must be the one pin of its routine that runs
some fallback, so dropping it fails the audit.

`MODULES` is read off the package, so a new module is audited with no
edit here.  No module may hold an `assert` statement: `python -O` strips
them, so a check must be a raise with a pin.  A tracer sees lines, so no
audited statement may share its line with another.  The checks and
fallbacks that no input can fire are gone, with their proofs in the
routines' docstrings and their theorems asserted in
`tests/test_retired_raises.py`.
"""

import ast
import contextlib
import importlib
import io
import inspect
import json
import os
import pkgutil
import tempfile
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from itertools import product

import pytest

import fanoscope
from conftest import (MISTYPED_POLYTOPES, bundled, bundled_polygon,
                      executed_lines, malformed_slab_fixtures,
                      mistyped_fixtures, mistyped_manifests, raise_lines,
                      unparsable_slab_fixtures)
from fanoscope import cli, invariants
from fanoscope.cli import _resolve_data, build_parser
from fanoscope.degeneration import (DegenerationData, DegenerationError,
                                    NotCartier, NotNef,
                                    RaySummand, decomposition_regimes,
                                    line_fan_data, method1_data,
                                    normal_fan_data, polygon_of_sections,
                                    product_data)
from fanoscope.discriminant import assemble_global, max_triangulation
from fanoscope.fileio import (ParseError, data_from_fixture, ingest_database,
                              load_fixture, parse_polytope, read_manifest,
                              read_target)
from fanoscope.gamma import (GammaError, barT_sections, build_system,
                             gamma_dimension)
from fanoscope.invariants import (InvariantError, analyze, b3_from, degree,
                                  euler_number, euler_product,
                                  euler_smooth_mink, fano_index)
from fanoscope.linalg import (LinalgError, hnf, lex_positive, primitive,
                              rank, saturate, snf)
from fanoscope.minkowski import Summand, enumerate_smooth_decompositions
from fanoscope.polytope import (LatticePolytope, Polygon, PolytopeError,
                                gorenstein_index, identity24, lattice_length,
                                pick_area, plane_basis)

MODULES = tuple(importlib.import_module(f"fanoscope.{m.name}")
                for m in pkgutil.iter_modules(fanoscope.__path__))

# a vertex that is not primitive
NOT_FANO = [(2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
# four points of the plane z = 0
FLAT = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
# the origin on the facet z = 0
ORIGIN_ON_FACET = [(1, 0, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]
RAYS = [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]
HALF = [(0, 0), (Fraction(1, 2), 0), (0, 1)]
UNIT = [(0, 0), (1, 0), (0, 1)]
# the cube with its vertices halved: the origin inside, r = 1/2 on each facet
HALF_CUBE = list(product((Fraction(-1, 2), Fraction(1, 2)), repeat=3))
P3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]


def broken(target, name, fn, run):
    """run() with target.name replaced by fn(the original)."""
    def call():
        real = getattr(target, name)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(target, name, fn(real))
            run()
    return call


def plus(k):
    """For `broken`: the original plus k."""
    return lambda real: lambda *args: real(*args) + k


def in_file(read, name, text):
    """read(path) of a file `name` holding text, in a scratch directory."""
    def call():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(text)
            return read(path)
    return call


def database(text):
    return in_file(lambda path: list(ingest_database(path)), "db.txt", text)


P3_DB = "3 4\n1 0 0 -1\n0 1 0 -1\n0 0 1 -1\n"


def fixture_data(name, drop=None):
    """A bundled fixture's data, with the key `drop` left out."""
    doc = load_fixture(name)
    doc.pop(drop, None)
    return data_from_fixture(doc)


def malformed(key):
    return data_from_fixture(malformed_slab_fixtures()[key][0])


def odd_euler():
    data = fixture_data("mm2_2")
    euler_number(replace(data, vertex_count=data.vertex_count + 1))


def moved_segments():
    """hexagon_cone under choice 0 with v3's segments on (E2, E9) and
    (E5, E7) moved to (E2, E7) and (E5, E9): each slab keeps its count of
    v3's summands, so construction accepts it, but E2 and E7 are cones
    that are not coplanar."""
    p = bundled("hexagon_cone")
    data = normal_fan_data(p, [0] * len(p.polar_dual().vertices))
    moved = {("E2", "E9"): ("E2", "E7"), ("E5", "E7"): ("E5", "E9")}
    gamma_dimension(replace(data, ray_summands=[
        replace(s, slabs=moved[s.slabs]) if s.ray == "v3"
        and s.slabs in moved else s for s in data.ray_summands]))


def with_summand(rs):
    """p3's method-1 data, whose 4 summands are triangles, with rs added."""
    data = method1_data(bundled("p3"))
    return replace(data, ray_summands=data.ray_summands + (rs,))


def with_slab(i, **changes):
    """mm2_2's data with its slab i changed (slab 0 is the triangle P2)."""
    data = fixture_data("mm2_2")
    slabs = list(data.slabs)
    slabs[i] = replace(slabs[i], **changes)
    return replace(data, slabs=slabs)


def level_zero_dual_vertex():
    p = LatticePolytope(ORIGIN_ON_FACET)
    p.dual_vertex(next(f for f in p.facets if f.level == 0))


def validate_pins():
    """One pin per raise of `validate`, each refused as its data is built:
    "endpoints" reaches the edge span raise that "edge_span" pins
    already."""
    summand = "ray summand 4 (v0{}): "
    pins = {
        "a repeated slab name": (
            lambda: with_slab(0, name="F1"), "slab F1: the name of an "
            "earlier slab"),
        "two roles on a triangle": (
            lambda: with_slab(0, roles=("boundary", "spine")),
            "slab P2: 2 roles for 3 edges"),
        "an unknown role": (
            lambda: with_slab(0, roles=("boundary", "foo", "spine")),
            "slab P2: edge 1 has role 'foo', not boundary, spine or "
            "ray:<r>"),
        "a disk summand": (
            lambda: with_summand(RaySummand("v0", "disk", ("E0", "E1"))),
            summand.format("") + "kind must be point, segment or triangle, "
            "not 'disk'"),
        "a triangle on unknown slabs": (
            lambda: with_summand(RaySummand("v0", "triangle",
                                            ("X", "Y", "Z"))),
            summand.format(", triangle") + "slabs must be 3 distinct slabs "
            "of the data, not ['X', 'Y', 'Z']")}
    pins.update({key: (partial(malformed, key), message)
                 for key, (_, message) in malformed_slab_fixtures().items()
                 if key != "endpoints"})
    return {f"degeneration.validate: {key}": (call, DegenerationError,
                                              message)
            for key, (call, message) in pins.items()}


def cli_error(*argv):
    """cli.main(argv)'s exit code and its one JSON error line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, json.loads(err.getvalue())


def cli_run(*argv):
    """cli.main(argv)'s exit code, its stdout and its JSON stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), list(map(json.loads,
                                          err.getvalue().splitlines()))


def database_ids(text):
    with pytest.warns(UserWarning, match="database has 1 entries"):
        return [ident for ident, _ in database(text)()]


def unparsable_pins():
    return {f"fileio.data_from_fixture: {key}": (
        partial(data_from_fixture, doc), ParseError, message)
        for key, (doc, message) in unparsable_slab_fixtures().items()}


def mistyped_pins():
    """The pins of the values that `fileio` refuses for their JSON type."""
    pins = {f"fileio.data_from_fixture: {key}": (
        partial(data_from_fixture, doc), ParseError, message)
        for key, (doc, message) in mistyped_fixtures().items()}
    pins.update({f"fileio.parse_polytope: {key}": (
        partial(parse_polytope, text), ParseError, message)
        for key, (text, message) in MISTYPED_POLYTOPES.items()})
    pins.update({f"fileio.read_manifest: {key}": (
        in_file(read_manifest, "rows.json", json.dumps(doc)), ParseError,
        message) for key, (doc, message) in mistyped_manifests().items()})
    return pins


def sections(vertices, coeffs):
    return partial(polygon_of_sections, Polygon(vertices), coeffs)


# name -> (call, exception class, message)
PINS = {
    **validate_pins(),
    **unparsable_pins(),
    **mistyped_pins(),
    "degeneration.polygon_of_sections: too few coefficients": (
        sections([(0, 0), (2, 0), (0, 2)], (1, 1)), DegenerationError,
        "2 coefficients for a slab polygon of 3 edges"),
    # an empty system: no corner is a section
    "degeneration.polygon_of_sections: empty": (
        sections([(0, 0), (1, 0), (0, 1)], (0, -1, 0)), NotNef,
        "divisor not nef: the corner of slab vertex (0, 0) breaks edge 1"),
    # edge 1's line, normal (-1, 0), misses S
    "degeneration.polygon_of_sections: slack": (
        sections([(0, 0), (1, 0), (1, 1), (0, 2)], (0, 3, 2, 0)), NotNef,
        "divisor not nef: the corner of slab vertex (1, 0) breaks edge 2"),
    "degeneration.polygon_of_sections: not_cartier": (
        sections([(0, 0), (2, 0), (0, 1)], (0, 1, 0)), NotCartier,
        "not Cartier: no integral section witness at a vertex cone"),
    "degeneration.line_fan: two rays": (
        lambda: line_fan_data(bundled("p3"), (0, 0, 1), RAYS[:2], []),
        DegenerationError, "line fan needs a complete quotient fan"),
    "degeneration._ray_word: b1's index-2 facet": (
        lambda: decomposition_regimes(bundled("b1")), DegenerationError,
        "no smooth Minkowski decomposition: facet of ray 0 is not divisible "
        "by its index 2"),
    "degeneration.match_summand_slabs: a triangle on two cones": (
        lambda: line_fan_data(bundled("p3"), (-1, -1, -1),
                              [(-1, -1, 0), (-1, 0, -1), (1, -1, 0)], []),
        DegenerationError,
        "unmatched summand direction: Summand(kind='triangle', "
        "vectors=((-1, 0), (0, -1), (1, 1))) met ['S0', 'S1']"),
    "degeneration.normal_fan_data: not Fano": (
        lambda: normal_fan_data(LatticePolytope(NOT_FANO)),
        DegenerationError, "P is not a Fano polytope"),
    "degeneration.normal_fan_data: one index for four rays": (
        lambda: normal_fan_data(bundled("p3"), [0]),
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
    "degeneration.decomposition_regimes: the cube halved": (
        lambda: decomposition_regimes(LatticePolytope(HALF_CUBE)),
        PolytopeError, "decompositions need an integral polytope"),
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
    "degeneration._rule_values: a rule point outside P*": (
        lambda: line_fan_data(bundled("b3_cubic"), (0, 0, 1), RAYS,
                              [{"meets": (0, 0, 1), "value": 3},
                               {"meets": (50, 50, 50), "value": 7}]),
        DegenerationError, "edge rule point (50, 50, 50) lies on no edge of "
        "the polar polytope"),
    "degeneration.line_fan_data: exit through an edge": (
        lambda: line_fan_data(bundled("p3"), (1, 1, -1), RAYS, []),
        DegenerationError, "rho_plus: the ray leaves through a face of "
        "unsupported dimension"),
    "degeneration.line_fan_data: b1's undecomposable exit vertex": (
        lambda: line_fan_data(bundled("b1"), (0, 2, -1),
                              [(-1, -1, -1), (-1, -1, 0), (1, 0, 1)], []),
        DegenerationError, "no smooth Minkowski decomposition for rho_plus"),
    "degeneration.product_data: not reflexive": (
        lambda: product_data(Polygon([(1, 0), (0, 1), (-1, -3)])),
        DegenerationError,
        "base polygon must be reflexive (r(v*) = 1 everywhere)"),
    "degeneration.product_data: origin outside": (
        lambda: product_data(Polygon([(1, 0), (2, 0), (1, 1)])),
        DegenerationError, "origin not interior to the base polygon"),
    "gamma.build_system: a product": (
        lambda: build_system(product_data(bundled_polygon("diamond"))),
        GammaError, "the Betti formula needs a complete normal fan "
        "(0-dimensional minimal cone)"),
    "gamma.gamma_dimension: a segment on two planes": (
        moved_segments, GammaError,
        "baseline missing: the torus subspace fails the equations"),
    "gamma.barT_sections: a product": (
        lambda: barT_sections(product_data(bundled_polygon("diamond"))),
        GammaError, "fast path needs a complete normal fan"),
    # one segment more in the slab formula's |J| than the data holds
    "invariants.euler_number: an extra segment": (
        broken(DegenerationData, "d_count",
               lambda real: property(lambda self: real.fget(self) + 1),
               lambda: euler_number(method1_data(bundled("p3")))),
        InvariantError, "formula mismatch: 2 != 4"),
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
    "invariants.fano_index: b1 with degree 27": (
        lambda: fano_index(fixture_data("b1"), 1, 27), InvariantError,
        "cannot determine the index from boundary components"),
    "invariants.fano_index: b3_cubic": (
        lambda: fano_index(fixture_data("b3_cubic"), 1, 24), InvariantError,
        "not rank one: index computed only on normal-fan data"),
    "invariants.fano_index: b2 = 3": (
        lambda: fano_index(method1_data(bundled("octahedron")), 3, 48),
        InvariantError, "not rank one"),
    "invariants.analyze: mm2_2 without a degree": (
        lambda: analyze(fixture_data("mm2_2", drop="degree")),
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
    # mm2_2 with a broken edge span never reaches assemble_global's stub
    # pools: building its data refuses it at the slab that fails
    "discriminant.assemble_global: mm2_2 edge span": (
        lambda: assemble_global(malformed("edge_span")), DegenerationError,
        "slab P112a: edge span 2 != 4 attachments for ray:R1"),
    "discriminant.assemble_global: mm2_2 endpoints": (
        lambda: assemble_global(malformed("endpoints")), DegenerationError,
        "slab P2: edge span 4 != 3 attachments for ray:R1"),
    "discriminant.assemble_global: node census broken": (
        broken(DegenerationData, "n_count",
               lambda real: property(lambda self: real.fget(self) + 1),
               lambda: assemble_global(method1_data(bundled("p3")))),
        DegenerationError, "graph census disagrees with slab arithmetic"),
    "polytope.lattice_length: a half step": (
        lambda: lattice_length((0, 0), (Fraction(1, 2), 0)), PolytopeError,
        "lattice length of a non-integral segment"),
    "polytope.Polygon: two points": (
        lambda: Polygon([(0, 0), (1, 0)]), PolytopeError,
        "not full-dimensional"),
    "polytope.Polygon: a rational vertex": (
        lambda: Polygon(HALF), PolytopeError,
        "polygon coordinates must be ints"),
    "polytope._hull2d: three points on a line": (
        lambda: Polygon([(0, 0), (1, 0), (2, 0)]), PolytopeError,
        "not full-dimensional"),
    "polytope.pick_area: shoelace broken": (
        broken(Polygon, "two_area", plus(2),
               lambda: pick_area(Polygon(UNIT))),
        PolytopeError, "Pick / shoelace mismatch"),
    "polytope.plane_basis: one line": (
        lambda: plane_basis([(1, 0, 0), (2, 0, 0)]), PolytopeError,
        "vectors do not span a plane"),
    "polytope.LatticePolytope: points of the plane": (
        lambda: LatticePolytope([(1, 0), (0, 1), (-1, -1)]), PolytopeError,
        "expected 3-space points"),
    "polytope.LatticePolytope.dual_vertex: a level-0 facet": (
        level_zero_dual_vertex, PolytopeError,
        "facet through the origin has no dual vertex"),
    "polytope.LatticePolytope.polar_dual: origin on a facet": (
        lambda: LatticePolytope(ORIGIN_ON_FACET).polar_dual(), PolytopeError,
        "origin is not interior"),
    "polytope.LatticePolytope.lattice_points: a rational vertex": (
        lambda: LatticePolytope([(Fraction(1, 2), 0, 0)] + P3[1:])
        .lattice_points(), PolytopeError,
        "lattice points of a non-integral polytope"),
    "polytope._hull3d_facets: three points": (
        lambda: LatticePolytope(P3[:3]), PolytopeError,
        "not full-dimensional"),
    "polytope._hull3d_facets: four points on a plane": (
        lambda: LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                 (1, 1, 0)]),
        PolytopeError, "not full-dimensional"),
    "polytope.gorenstein_index: a rational vertex": (
        lambda: gorenstein_index([(Fraction(1, 2), 0, 1)]), PolytopeError,
        "Gorenstein index needs integral vertices"),
    "polytope.gorenstein_index: a face through the origin": (
        lambda: gorenstein_index([(1, 0, 0), (-1, 0, 0)]), PolytopeError,
        "cone over the face is not strictly convex"),
    "polytope.identity24: v2": (
        lambda: identity24(bundled("v2")), PolytopeError,
        "identity24 needs a reflexive polytope"),
    "linalg.hnf: no rows": (
        lambda: hnf([]), LinalgError, "hnf of empty matrix"),
    "linalg.snf: no rows": (
        lambda: snf([]), LinalgError, "snf of empty matrix"),
    "linalg.saturate: a rational row": (
        lambda: saturate([[Fraction(1, 2), 0]]), LinalgError,
        "saturate needs integer rows"),
    "linalg.primitive: zero": (
        lambda: primitive((0, 0, 0)), LinalgError,
        "zero vector has no primitive representative"),
    "linalg.lex_positive: zero": (
        lambda: lex_positive((0, 0, 0)), LinalgError, "zero vector"),
    "minkowski.Summand: a disk": (
        lambda: Summand("disk", ()), ValueError,
        "unknown summand kind 'disk'"),
    "minkowski.Summand: a segment of two vectors": (
        lambda: Summand("segment", ((1, 0), (0, 1))), ValueError,
        "vectors ((1, 0), (0, 1)) do not make a segment summand"),
    "minkowski.Summand: a triangle of two vectors": (
        lambda: Summand("triangle", ((1, 0), (-1, 0))), ValueError,
        "vectors ((1, 0), (-1, 0)) do not make a triangle summand"),
    "minkowski.Summand: a triangle that does not close": (
        lambda: Summand("triangle", ((1, 0), (0, 1), (0, -1))), ValueError,
        "vectors ((1, 0), (0, 1), (0, -1)) do not make a triangle summand"),
    "minkowski.Summand: a triangle of area 2": (
        lambda: Summand("triangle", ((2, 0), (0, 1), (-2, -1))), ValueError,
        "vectors ((2, 0), (0, 1), (-2, -1)) do not make a triangle summand"),
    "minkowski.enumerate_smooth_decompositions: a half step": (
        lambda: enumerate_smooth_decompositions(
            [(Fraction(1, 2), 0), (Fraction(-1, 2), 1), (0, -1)]),
        PolytopeError, "decompositions of a non-integral word"),
    "fileio.parse_polytope: cut-off JSON": (
        lambda: parse_polytope('{"vertices": [[1, 0, 0],'), ParseError,
        "bad JSON polytope: Expecting value: line 1 column 25 (char 24)"),
    "fileio.parse_polytope: JSON without vertices": (
        lambda: parse_polytope('{"name": "p3"}'), ParseError,
        "polytope JSON without vertices"),
    "fileio.parse_polytope: letters in the header": (
        lambda: parse_polytope("a b\n1 2 3"), ParseError,
        "bad matrix polytope: invalid literal for int() with base 10: 'a'"),
    "fileio.parse_polytope: one number in the header": (
        lambda: parse_polytope("3\n1 0 0 -1\n0 1 0 -1\n0 0 1 -1"),
        ParseError, "matrix header must be 'rows cols'"),
    "fileio.parse_polytope: one row of three": (
        lambda: parse_polytope("3 4\n1 0 0 -1"), ParseError,
        "matrix body does not match header 3x4"),
    "fileio._polytope: no text": (
        lambda: parse_polytope(""), ParseError,
        "bad matrix polytope: list index out of range"),
    "fileio._orient: a square matrix of 2": (
        lambda: parse_polytope("2 2\n1 0\n0 1"), ParseError,
        "neither dimension is 3"),
    "fileio._build: points of the plane": (
        lambda: parse_polytope(json.dumps({"vertices": FLAT})), ParseError,
        "polytope vertices: not full-dimensional"),
    "fileio._build: not Fano": (
        lambda: parse_polytope(json.dumps({"vertices": NOT_FANO})),
        PolytopeError, "not a Fano polytope: vertices must be primitive "
        "with the origin strictly interior"),
    "fileio.ingest_database: a cut-off block": (
        database("3 4\n1 0 0 -1\n0 1 0 -1\n"), ParseError,
        "database block 0 is truncated"),
    "fileio.ingest_database: a letter": (
        database("3 4\n1 0 x -1\n0 1 0 -1\n0 0 1 -1\n"), ParseError,
        "database block 0: invalid literal for int() with base 10: 'x'"),
    "fileio.ingest_database: a short row": (
        database("3 4\n1 0 0 -1\n0 1 0\n0 0 1 -1\n"), ParseError,
        "database block 0 is ragged"),
    # a block whose hull fails, and one that holds no 3-space points
    "fileio.ingest_database: a flat block": (
        database(P3_DB + "3 3\n1 0 0\n0 1 0\n0 0 1\n"), ParseError,
        "database block 1: not full-dimensional"),
    "fileio.ingest_database: a square block of 2": (
        database(P3_DB + "2 2\n1 0\n0 1\n"), ParseError,
        "database block 1: neither dimension is 3"),
    "fileio._json: a cut-off fixture": (
        in_file(read_target, "bad.json", '{"kind": "slabs", "slabs": ['),
        ParseError, "bad JSON polytope: Expecting value: line 1 column 29 "
        "(char 28)"),
    "fileio._json_int: a manifest integer of 5,000 digits": (
        in_file(read_manifest, "rows.json", '{"rows": ' + "1" * 5000 + "}"),
        ParseError, "bad JSON integer: Exceeds the limit (4300 digits) for "
        "integer string conversion: value has 5000 digits; use "
        "sys.set_int_max_str_digits() to increase the limit"),
    "fileio._rules: an edge rule point at infinity": (
        lambda: data_from_fixture({**load_fixture("b3_cubic"), "edge_data": [
            {"meets": [float("inf"), 0, 1], "value": 3}]}), ParseError,
        "edge_data entry 0 meets must be finite, not [inf, 0, 1]"),
    "fileio._require: a list": (
        lambda: data_from_fixture([1, 2]), ParseError,
        "fixture must be a JSON object"),
    "fileio._require: a product without its polygon": (
        lambda: data_from_fixture({"kind": "product"}), ParseError,
        "product fixture without required key 'base_polygon'"),
    "fileio._per_edge: a letter key": (
        lambda: data_from_fixture({"kind": "slabs", "slabs": [
            {"name": "S0", "polygon": [[0, 0], [1, 0], [0, 1]],
             "coeffs": {"a": 1}}]}),
        ParseError, "slab S0: coeffs key 'a' is not an integer"),
    "fileio.data_from_fixture: unknown kind": (
        lambda: data_from_fixture({"kind": "torus"}), ParseError,
        "unknown fixture kind 'torus'"),
    "fileio.data_from_fixture: a key no kind reads": (
        lambda: data_from_fixture({"kind": "product", "base_polygon": UNIT,
                                   "colour": "red"}),
        ParseError, "fixture key 'colour' is not read by a product fixture"),
    "fileio._slab_fixture: a polygon out of order": (
        lambda: data_from_fixture({"kind": "slabs", "slabs": [
            {"name": "S0", "polygon": [[0, 1], [0, 0], [1, 0]]}]}),
        ParseError, "slab S0: polygon must be listed in canonical ccw order "
        "starting at the lex-least vertex; canonical is [[0, 0], [1, 0], "
        "[0, 1]]"),
    "cli._resolve_data: indices for a product": (
        lambda: _resolve_data("diamond", "0"), DegenerationError,
        "diamond has no decomposition choice: --decomposition indices apply "
        "to a polytope only"),
    # no polytope at hand has so many: no bundled or sweep polytope has
    # more than 4 choices, nor any of 11,991 reflexive hulls of random
    # points of {-2, ..., 2}^3 or their polar duals
    "cli._resolve_data: ten rays of two choices": (
        broken(cli, "decomposition_regimes",
               lambda real: lambda p: [[(), ()]] * 10,
               lambda: _resolve_data("p3", "auto")),
        DegenerationError, "1024 decomposition choices; pick one"),
    "cli._decomposition_indices: a letter": (
        lambda: _resolve_data("p3", "0,x"), ParseError,
        "--decomposition index 'x' is not an integer"),
    "cli.cmd_decompositions: a facet past the last": (
        lambda: cli.cmd_decompositions(build_parser().parse_args(
            ["decompositions", "p3", "--facet", "4"])),
        DegenerationError, "--facet 4 names no facet 0..3"),
    "cli._Parser.error: no command": (
        lambda: build_parser().parse_args([]), ParseError,
        "the following arguments are required: command"),
}

P2_FAN = [(0, -1, -1), (0, 0, 1), (0, 1, 0)]  # P^2's fan mod (1, 0, 0)
# the triangle (0, 0), (2, 1), (1, 2), of area 3
AREA_3_WORD = [(2, 1), (-1, 1), (-1, -2)]

# name -> (call, its result)
REACHES = {
    "cli.main: a letter for an index": (
        lambda: cli_error("analyze", "p3", "--decomposition", "0,x"),
        (2, {"error": "ParseError",
             "message": "--decomposition index 'x' is not an integer"})),
    "cli.main: b1's index-2 facet": (
        lambda: cli_error("decompositions", "b1"),
        (1, {"error": "DegenerationError",
             "message": "no smooth Minkowski decomposition: facet of ray 0 "
                        "is not divisible by its index 2"})),
    # both rays rho+- leave P* through a facet
    "degeneration.line_fan_data: p3 mod (-1, 0, 0)": (
        lambda: [s.kind for s in line_fan_data(bundled("p3"), (-1, 0, 0),
                                               P2_FAN, []).ray_summands],
        ["point", "point"]),
    # conv(2e1, e2, e3, -e1-e2-e3) has a facet at level -2: its row fails
    # after P3's passes
    "cli.cmd_verify24: a block that is not reflexive": (
        in_file(lambda path: cli_run("verify24", "--db", path), "db.txt",
                P3_DB + "3 4\n2 0 0 -1\n0 1 0 -1\n0 0 1 -1\n"),
        (1, "id,sum,pass\n0,24,pass\n"
            "1,n/a,FAIL: identity24 needs a reflexive polytope\n",
         [{"warning": "UserWarning",
           "message": "database has 2 entries, expected 4319"},
          {"error": "verify24", "message": "rows failed: [1]"}])),
    # conv(+-2e1, +-e2, +-e3) has facets of index 2 with no smooth
    # decomposition: P3's row fails and the table goes on
    "cli._match_db_row: an index-2 facet": (
        lambda: cli._match_db_row(
            {"name": "P3", "degree": 64, "p": 4, "n": 24, "chi": 4},
            LatticePolytope([(2, 0, 0), (-2, 0, 0), (0, 1, 0), (0, -1, 0),
                             (0, 0, 1), (0, 0, -1)])),
        (None, "no smooth Minkowski decomposition: facet of ray 0 is not "
               "divisible by its index 2")),
    "discriminant.max_triangulation: the unit square": (
        lambda: max_triangulation(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        .triangles, [(0, 2, 3), (0, 3, 1)]),
    # b1's rho_minus is a point summand, on no slab
    "discriminant.assemble_global: b1's point ray": (
        lambda: assemble_global(fixture_data("b1")).census(), (6, 66, 22)),
    "fileio.ingest_database: a title line and an end line": (
        lambda: database_ids("reflexive 3-polytopes\n3 4 p3\n1 0 0 -1\n"
                             "0 1 0 -1\n0 0 1 -1\nend\n"), [0]),
    # the zero row is never a pivot, so the third column has none
    "linalg._echelon: a zero row": (
        lambda: rank([[1, 0, 1], [0, 1, 1], [0, 0, 0]]), 2),
    # no letter pairs off: -v is never in the word and no turn is unimodular
    "minkowski.enumerate_smooth_decompositions: the area-3 triangle": (
        lambda: enumerate_smooth_decompositions(AREA_3_WORD), []),
    # the centre is on a line with each pair of opposite vertices
    "polytope._hull3d_facets: the octahedron and its centre": (
        lambda: len(LatticePolytope(list(bundled("octahedron").vertices)
                                    + [(0, 0, 0)]).facets), 8),
}


def run(call):
    """(what call raised, or None; the lines it ran; what it returned)."""
    out = []
    exc, ran = executed_lines(lambda: out.append(call()), MODULES)
    return exc, ran, out[0] if out else None


@pytest.fixture(scope="module")
def runs():
    return {key: run(call) for key, (call, *_) in {**PINS, **REACHES}.items()}


def raise_sites():
    return {(m.__name__, line) for m in MODULES for line in raise_lines(m)}


def routine(key):
    """The routine a pin is named for: its name up to the colon."""
    return key.partition(":")[0]


@cache
def fallback_sites():
    """{(module name, line): routine} for each `continue` statement and the
    first statement of each `except` handler in the package; the routine is
    the top-level function or `Class.method` that holds it, named as pins
    are (the module alone for one outside every routine)."""
    out = {}
    for m in MODULES:
        short = m.__name__.rpartition(".")[2]
        tree = ast.parse(inspect.getsource(m))
        routines = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                routines.append((node, node.name))
            elif isinstance(node, ast.ClassDef):
                routines += [(f, f"{node.name}.{f.name}") for f in node.body
                             if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Continue):
                line = node.lineno
            elif isinstance(node, ast.ExceptHandler):
                line = node.body[0].lineno
            else:
                continue
            out[(m.__name__, line)] = next(
                (f"{short}.{name}" for f, name in routines
                 if f.lineno <= line <= f.end_lineno), short)
    return out


def named_runs(runs, name):
    """The lines run under the pins named for routine `name`."""
    return set().union(*(ran for key, (_, ran, _) in runs.items()
                         if routine(key) == name))


def test_no_module_holds_an_assert():
    # `python -O` strips asserts, and the audit reads raises only
    found = [(m.__name__, node.lineno) for m in MODULES
             for node in ast.walk(ast.parse(inspect.getsource(m)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_modules_hold_the_whole_package():
    # a module added later joins the audit with no edit here
    assert {m.__name__ for m in MODULES} >= {
        f"fanoscope.{name}" for name in
        ("cli", "degeneration", "discriminant", "fileio", "gamma",
         "invariants", "linalg", "minkowski", "polytope")}


def test_audited_lines_hold_one_statement():
    # `if x: continue` would run its line whether or not it continued, and
    # `except E: pass` its line whenever an exception is matched against it
    for m in MODULES:
        tree = ast.parse(inspect.getsource(m))
        starts = Counter(node.lineno for node in ast.walk(tree)
                         if isinstance(node, (ast.stmt, ast.ExceptHandler)))
        lines = raise_lines(m) | {line for (name, line) in fallback_sites()
                                  if name == m.__name__}
        assert sorted(line for line in lines if starts[line] > 1) == []


@pytest.mark.parametrize("key", sorted(PINS))
def test_pin_raises_its_exact_error(runs, key):
    _, cls, message = PINS[key]
    exc, ran, _ = runs[key]
    assert type(exc) is cls and str(exc) == message
    assert ran & raise_sites()


def test_every_raise_line_runs_under_a_pin(runs):
    ran = set().union(*(lines for _, lines, _ in runs.values()))
    assert sorted(raise_sites() - ran) == []


@pytest.mark.parametrize("key", sorted(REACHES))
def test_reach_pin_returns_its_result(runs, key):
    exc, ran, result = runs[key]
    assert exc is None and result == REACHES[key][1]
    # it runs a fallback of its routine that no other pin of it runs
    others = named_runs({k: v for k, v in runs.items() if k != key},
                        routine(key))
    assert {site for site, name in fallback_sites().items()
            if name == routine(key) and site in ran} - others


def test_every_fallback_runs_under_a_pin_of_its_routine(runs):
    assert sorted(site for site, name in fallback_sites().items()
                  if site not in named_runs(runs, name)) == []
