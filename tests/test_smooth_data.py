"""Line fans on `polytopes.json` entries, pinned as they are built.

The complete line fans of `PINNED` build, each with its node census and
its count of polar vertices in no cone of the fan pinned; the incomplete
ones that `line_fan` refuses are pinned as such, and so are the unlabeled
fans whose spines meet summands that no spine span holds.  These fans
reached every verdict of the retired smooth-data check: the paper's models
are checked by construction, and that check is what runs here.
"""

from fractions import Fraction

import pytest

from conftest import bundled
from fanoscope.degeneration import DegenerationError, line_fan_data

# id -> ((polytope, line, rays2d, edge rule), (p, d, n, boundary points,
# polar vertices in no cone of the fan)).  Every quotient fan here is
# complete; `INCOMPLETE` holds the fans that `line_fan` refuses.
P2_FAN = [(0, -1, -1), (0, 0, 1), (0, 1, 0)]  # P^2's fan mod (1, 0, 0)
PINNED = {
    "p3_corner_complete": (("p3", (-1, 0, 0), P2_FAN, []), (0, 0, 0, 0, 2)),
    "q3_not_simplicial_complete": (("q3_quadric", (-1, 0, 0), P2_FAN, []),
                                   (0, 0, 0, 0, 5)),
    "b1_not_smooth_complete": (("b1", (-1, 1, -1), [(0, -1, 0), (0, 0, 1),
                                                    (1, 0, 0)], []),
                               (0, 0, 0, 0, 3)),
    # v2's facet dual to vertex 0 is at level -3
    "v2_not_gorenstein": (("v2", (-1, 0, 1), [(-1, -1, -1), (-1, 1, -1),
                                               (0, 0, 1)], []),
                          (0, 0, 0, 0, 1)),
    # label 3 on the edges at two vertices
    "mm2_5_neither_label": (("mm2_5", (-1, 0, 0), P2_FAN,
                             [{"meets": (0, -1, -1), "value": 3},
                              {"meets": (1, 0, 0), "value": 3}]),
                            (3, 0, 21, 12, 2)),
    # label 6 on the edges at P*'s rational vertex gives the spines their
    # span
    "v2_rational_dual_edge": (("v2", (-1, -1, -1), [(0, 0, 1), (0, 1, 0),
                                                    (1, 0, 0)],
                               [{"meets": (Fraction(-1, 3),) * 3,
                                 "value": 6}]),
                              (2, 0, 18, 6, 0)),
    # the cubic model
    "b3_label_gap": (("b3_cubic", (0, 0, 1), [(1, 0, 0), (0, 1, 0),
                                              (-1, -1, 0)],
                      [{"meets": (0, 0, 1), "value": 3}]),
                     (3, 0, 27, 18, 0)),
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
# the unlabeled fans first tried for three keys of `PINNED`, whose spines
# meet summands that no spine span holds
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
def test_pinned_line_fans_build(key):
    d = pinned_data(key)
    assert len(d.slabs) == 3
    assert (d.p_count, d.d_count, d.n_count, d.boundary_count,
            d.vertex_count) == PINNED[key][1]


@pytest.mark.parametrize("key", sorted(INCOMPLETE))
def test_incomplete_quotient_fan_is_refused(key):
    name, line, rays = INCOMPLETE[key]
    with pytest.raises(DegenerationError,
                       match="^line fan needs a complete quotient fan$"):
        line_fan_data(bundled(name), line, rays, [], name=key)
