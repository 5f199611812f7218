"""The slab layer's checks that a theorem retired, kept as references.

`polygon_of_sections` reads nef, Cartier and the face spans off the corners
of the slab polygon's vertex cones, and `Slab` takes b from the spans with
no check of its own; the proofs are in their docstrings.  `RefSlab` still
runs the old vertex-cone loop (in `ref_polygon_of_sections`),
`Sections.counts` and both of `Slab`'s raises, and must agree with the new
code on random lattice polygons and on every slab of every bundled route,
up to the wording of a refusal as not nef (`sections_refusal`).  The raises
that are left are pinned in `tests/test_raise_audit.py`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (lattice_polygons, random_unimodular3, sections_refusal,
                      unchecked)
from test_line_fan_routes import RefSlab, base_routes, image
from test_shared_geometry import SEEDS, builders
from fanoscope.degeneration import (ROLE_BOUNDARY, DegenerationError, Slab,
                                    line_fan_data)
from fanoscope.polytope import PolytopeError

# the messages of the checks that no input can fire
RETIRED = {"divisor not nef: support function breaks on a vertex cone",
           "section polygon spans do not add to its boundary count",
           "odd Pick defect in slab sections"}


def slab_outcome(cls, name, polygon, coeffs, roles):
    """The refusal (`sections_refusal`), or the slab's sections and counts;
    for `RefSlab`, also that `counts` gives the slab's (2A, b, i)."""
    try:
        slab = cls(name, polygon, coeffs, roles)
    except DegenerationError as exc:
        assert str(exc) not in RETIRED
        return sections_refusal(exc)
    sec = slab.sections
    if cls is RefSlab:
        assert RefSlab.counts(sec) == (slab.two_area, sum(slab.spans),
                                       slab.i_count)
    return (sec.dim, tuple(sec.vertices()), slab.spans, slab.two_area,
            sum(slab.spans), slab.i_count)


def check_slab(name, polygon, coeffs, roles):
    want = slab_outcome(RefSlab, name, polygon.vertices, coeffs, roles)
    assert slab_outcome(Slab, name, polygon, coeffs, roles) == want


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lattice_polygons(span=3), st.data())
def test_slab_matches_the_retired_checks(poly, data):
    k = len(poly.vertices)
    coeffs = data.draw(st.lists(st.integers(-3, 6), min_size=k, max_size=k))
    check_slab("s", poly, tuple(coeffs), (ROLE_BOUNDARY,) * k)


def bundled_slabs(seed):
    """Every slab of the bundled degenerations (`builders`) and of the
    line-fan routes whose slabs build, all moved by the seeded GL(3,Z)
    map; the routes are built without the construction check."""
    out = [s for build in builders(seed) for s in build().slabs]
    g = None if seed is None else random_unimodular3(random.Random(seed))
    for route in base_routes().values():
        try:
            out += unchecked(line_fan_data, *(route if g is None
                                              else image(route, g))).slabs
        except (DegenerationError, PolytopeError):
            pass
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_bundled_slabs_match_the_retired_checks(seed):
    for s in bundled_slabs(seed):
        check_slab(s.name, s.polygon, s.coeffs, s.roles)
