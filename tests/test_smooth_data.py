"""Every verdict of `check_smooth_data`, reached by a pinned input.

A polar vertex on a ray of the fan (D1) is smooth by construction: the proof
is in `check_smooth_data`'s docstring and `tests/test_ray_facets.py` asserts
it.  The vertices inside a 2-cone (D2, the Cayley condition) and the corners
(D3) are reached here by complete line fans on `polytopes.json` entries,
each with its whole verdict dict pinned; the incomplete ones that `line_fan`
refuses are pinned as such.  `test_every_verdict_is_reached` reads the
verdict literals out of the source, so a branch that no pinned input
reaches fails at once.
"""

import ast
import inspect
from fractions import Fraction

import pytest

from conftest import bundled
from fanoscope import degeneration
from fanoscope.degeneration import (DegenerationError, check_smooth_data,
                                    line_fan_data)
from fanoscope.polytope import LatticePolytope, PolytopeError

SMOOTH = "smooth"
CORNER = "corner"
NOT_GORENSTEIN = "violation: cone over v* is not Gorenstein"
NOT_CAYLEY = "violation: v* is not a Cayley sum of two segments"
NEITHER = "violation: neither label equals its dual length"
NOT_SIMPLICIAL = "violation: cone over v* is not simplicial"
NOT_SMOOTH = "violation: cone over v* is not smooth"
LABEL_GAP_3 = "violation: |a(F1*) - a(F2*)| = 3 > 1"


def rational_end(eidx):
    return (f"violation: edge {eidx} of P* has a rational end, so its "
            f"Cayley segment has no dual length")


# id -> ((polytope, line, rays2d, edge rule), verdicts).  Every quotient
# fan here is complete; `INCOMPLETE` holds the fans that `line_fan` refuses.
P2_FAN = [(0, -1, -1), (0, 0, 1), (0, 1, 0)]  # P^2's fan mod (1, 0, 0)
PINNED = {
    "p3_corner_complete": (("p3", (-1, 0, 0), P2_FAN, []),
                           {0: SMOOTH, 1: CORNER, 2: CORNER, 3: SMOOTH}),
    "q3_not_simplicial_complete": (("q3_quadric", (-1, 0, 0), P2_FAN, []),
                                   {0: NOT_SIMPLICIAL, 1: CORNER, 2: CORNER,
                                    3: CORNER, 4: CORNER}),
    "b1_not_smooth_complete": (("b1", (-1, 1, -1), [(0, -1, 0), (0, 0, 1),
                                                    (1, 0, 0)], []),
                               {0: NOT_SMOOTH, 1: NOT_CAYLEY, 2: NOT_SMOOTH,
                                3: NOT_SMOOTH}),
    # v2's facet dual to vertex 0 is at level -3
    "v2_not_gorenstein": (("v2", (-1, 0, 1), [(-1, -1, -1), (-1, 1, -1),
                                               (0, 0, 1)], []),
                          {0: NOT_GORENSTEIN, 1: SMOOTH, 2: NOT_SMOOTH,
                           3: SMOOTH}),
    # label 3 on the edges at two vertices: vertex 3's two labels are
    # within 1 of each other and neither is its dual length
    "mm2_5_neither_label": (("mm2_5", (-1, 0, 0), P2_FAN,
                             [{"meets": (0, -1, -1), "value": 3},
                              {"meets": (1, 0, 0), "value": 3}]),
                            {0: LABEL_GAP_3, 1: NOT_SIMPLICIAL,
                             2: NOT_SIMPLICIAL, 3: NEITHER, 4: LABEL_GAP_3,
                             5: LABEL_GAP_3, 6: SMOOTH}),
    # a Cayley segment dual to an edge of P* with a rational end, which has
    # no lattice length to hold the label against; label 6 on the edges at
    # P*'s rational vertex gives the spines their span
    "v2_rational_dual_edge": (("v2", (-1, -1, -1), [(0, 0, 1), (0, 1, 0),
                                                    (1, 0, 0)],
                               [{"meets": (Fraction(-1, 3),) * 3,
                                 "value": 6}]),
                              {0: SMOOTH, 1: rational_end(0),
                               2: rational_end(1), 3: rational_end(2)}),
    # the cubic model's d = 2 vertices break the Cayley label bound
    "b3_label_gap": (("b3_cubic", (0, 0, 1), [(1, 0, 0), (0, 1, 0),
                                              (-1, -1, 0)],
                      [{"meets": (0, 0, 1), "value": 3}]),
                     {0: LABEL_GAP_3, 1: SMOOTH, 2: LABEL_GAP_3,
                      3: LABEL_GAP_3}),
}


# id -> (polytope, line, rays2d): two of p3's and cube's rays are one ray
# mod the line, and b1's leave a half-plane empty; the last adds a second
# ray through (0, 1, 0) mod the line to a complete fan
INCOMPLETE = {
    "p3_corner": ("p3", (-1, -1, -1), [(-1, -1, 0), (-1, -1, 1),
                                       (-1, 0, -1)]),
    "b1_not_smooth": ("b1", (-1, 5, -1), [(-1, -1, -1), (-1, -1, 0),
                                          (0, 0, 1)]),
    "cube_not_simplicial": ("cube", (-1, -1, -1), [(-1, -1, 0), (-1, -1, 1),
                                                   (-1, 0, -1)]),
    "p3_one_ray_twice": ("p3", (-1, 0, 0), P2_FAN + [(-1, 1, 0)]),
}


# id -> (polytope, line, rays2d, the message of the construction check):
# the earlier inputs of three verdicts above, whose spines meet summands
# that no spine span holds
REFUSED = {
    "v2_not_gorenstein": ("v2", (-1, 0, 0), P2_FAN,
                          "slab S0: spine span 0 != 6 attachments"),
    "mm2_5_neither_label": ("mm2_5", (-1, 0, 0), P2_FAN,
                            "slab S0: spine span 0 != 3 attachments"),
    "v2_rational_dual_edge": ("v2", (-1, -1, -1), [(0, 0, 1), (0, 1, 0),
                                                   (1, 0, 0)],
                              "slab S0: spine span 0 != 2 attachments"),
}


def pinned_data(key):
    (name, line, rays, rule), _ = PINNED[key]
    return line_fan_data(bundled(name), line, rays, rule, name=key)


@pytest.mark.parametrize("key", sorted(REFUSED))
def test_unlabeled_fans_are_refused_as_they_are_built(key):
    name, line, rays, message = REFUSED[key]
    with pytest.raises(DegenerationError) as err:
        line_fan_data(bundled(name), line, rays, [])
    assert str(err.value) == message


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_line_fan_verdicts(key):
    assert check_smooth_data(pinned_data(key)) == PINNED[key][1]


@pytest.mark.parametrize("key", sorted(INCOMPLETE))
def test_incomplete_quotient_fan_is_refused(key):
    name, line, rays = INCOMPLETE[key]
    with pytest.raises(DegenerationError,
                       match="^line fan needs a complete quotient fan$"):
        line_fan_data(bundled(name), line, rays, [], name=key)


def test_rational_dual_edge_verdict_names_the_refused_edge(monkeypatch):
    # `_d2_verdict` gives a Cayley segment dual to an edge of P* with a
    # rational end, which `edge_length` refuses, a verdict naming that edge
    data = pinned_data("v2_rational_dual_edge")
    refused = []
    edge_length = LatticePolytope.edge_length

    def counted(self, edge):
        try:
            return edge_length(self, edge)
        except PolytopeError:
            refused.append(data.dual.edges.index(edge))
            raise
    monkeypatch.setattr(LatticePolytope, "edge_length", counted)
    verdicts = check_smooth_data(data)
    assert refused
    assert sorted(v for v in verdicts.values() if v != SMOOTH) == \
        sorted(map(rational_end, refused))


def verdict_literals():
    """The verdicts `check_smooth_data`, `_d2_verdict` and `_d3_verdict`
    return or store, as written in the source: a string literal as it is,
    an f-string as its literal head."""
    out = set()
    for fn in (degeneration.check_smooth_data, degeneration._d2_verdict,
               degeneration._d3_verdict):
        tree = ast.parse(inspect.getsource(fn))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Return) or (
                    isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Subscript))):
                continue
            # a verdict may be a call's argument, as in dict.fromkeys(ids, v)
            for v in [node.value] + list(getattr(node.value, "args", ())):
                if isinstance(v, ast.Constant) and isinstance(v.value, str):
                    out.add(v.value)
                elif isinstance(v, ast.JoinedStr):
                    out.add(v.values[0].value + "{")
    return out


def test_every_verdict_is_reached():
    literals = verdict_literals()
    assert {SMOOTH, CORNER, NOT_SMOOTH, "violation: |a(F1*) - a(F2*)| = {"} \
        <= literals
    reached = {v for _, verdicts in PINNED.values() for v in verdicts.values()}
    for literal in literals:
        head, brace, _ = literal.partition("{")
        assert any(v == literal or (brace and v.startswith(head))
                   for v in reached), literal
