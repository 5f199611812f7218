"""The sweep path's ray pass: one `ray_lattice` basis per facet line, one
vertex list per summand in `match_summand_slabs`, and hull planes dropped
at their first point on the far side.

`_ray_decompositions` shares a basis between opposite facets because
`ray_lattice(u) == ray_lattice(-u)`; that is checked here on every
primitive direction of a box and on the facets of seeded GL(3,Z) images.
`ref_hull3d_facets` (conftest) is the routine as it was.  The count guards
fail if the memo or the hoist stops saving calls, or if the memo outlives
one call; another fails if the enumerator builds more than one `Summand`
per distinct summand of its result.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from conftest import (bundled, mat_vec, random_unimodular3,
                      ref_hull3d_facets)
from fanoscope import degeneration
from fanoscope.degeneration import (DegenerationError, decomposition_regimes,
                                    method1_data, ray_lattice)
from fanoscope.fileio import bundled_polytopes
from fanoscope.linalg import clear_denominators, lex_positive
from fanoscope.minkowski import Summand, enumerate_smooth_decompositions
from fanoscope.polytope import LatticePolytope, PolytopeError, _hull3d_facets

NAMES = sorted(k for k in bundled_polytopes() if k != "polygons")
SEEDS = (None, 1, 2, 3)


def images(name):
    """The bundled polytope and its images under the seeded GL(3,Z) maps."""
    p = bundled(name)
    out = [p]
    for seed in SEEDS[1:]:
        m = random_unimodular3(random.Random(seed))
        out.append(LatticePolytope([tuple(mat_vec(m, list(v)))
                                    for v in p.vertices]))
    return out


def neg(v):
    return tuple(-x for x in v)


# ---------------------------------------------------------------------------
# ray_lattice is even in its direction


def test_ray_lattice_is_even_on_a_box():
    for u in product(range(-6, 7), repeat=3):
        if any(u) and gcd(*u) == 1:
            assert ray_lattice(u) == ray_lattice(neg(u)), u


@pytest.mark.parametrize("name", NAMES)
def test_ray_lattice_is_even_on_facet_normals(name):
    for p in images(name):
        for f in p.facets:
            want = ray_lattice(f.dual)
            assert ray_lattice(neg(f.dual)) == want
            assert ray_lattice(f.normal) == ray_lattice(neg(f.normal)) == want


# ---------------------------------------------------------------------------
# hull planes dropped at their first split point


def random_cloud(rng):
    """Points in a small box, so that coplanar and collinear triples are
    common, with some repeated, a few on one line, and some interior ones
    (rational when the box is halved)."""
    pts = [tuple(rng.randint(-2, 2) for _ in range(3))
           for _ in range(rng.randint(3, 9))]
    pts += rng.sample(pts, rng.randint(0, 2))  # repeats
    a, d = pts[0], (rng.randint(-1, 1), rng.randint(-1, 1), 1)
    pts += [tuple(x + t * y for x, y in zip(a, d))
            for t in range(rng.randint(0, 3))]  # a line through a point
    for _ in range(rng.randint(0, 2)):  # centroids of four points
        quad = rng.sample(pts, 4) if len(pts) >= 4 else pts
        pts.append(tuple(Fraction(sum(c), len(quad)) for c in zip(*quad)))
    rng.shuffle(pts)
    if rng.randrange(3) == 0:
        pts = [tuple(Fraction(x, 2) for x in v) for v in pts]
    return pts


def flat_cloud(rng):
    """Points on one plane: a seeded lattice plane, or a line."""
    m = random_unimodular3(rng)
    span = rng.choice([(1, 1), (1, 0)])
    return [tuple(mat_vec(m, [s * span[0], t * span[1], 0]))
            for s, t in product(range(-2, 3), repeat=2)][:rng.randint(4, 25)]


def hull_outcome(fn, pts):
    try:
        return sorted(fn(pts, clear_denominators(pts)[0]))
    except PolytopeError as exc:
        return str(exc)


def test_hull_facets_match_the_full_scan_on_random_clouds():
    rng = random.Random(19)
    full = 0
    for _ in range(400):
        pts = random_cloud(rng)
        got = hull_outcome(_hull3d_facets, pts)
        assert got == hull_outcome(ref_hull3d_facets, pts)
        full += not isinstance(got, str)
    assert full > 200  # most clouds are full-dimensional


def test_flat_input_is_not_full_dimensional():
    rng = random.Random(7)
    for _ in range(50):
        pts = flat_cloud(rng)
        assert hull_outcome(_hull3d_facets, pts) == \
            hull_outcome(ref_hull3d_facets, pts) == "not full-dimensional"


# ---------------------------------------------------------------------------
# count guards


@pytest.fixture
def calls(monkeypatch):
    """Counts of `degeneration.saturate` and `Summand.polygon_vertices`
    calls, and of `polygon_vertices` calls per `match_summand_slabs`."""
    counts = {"saturate": 0, "vertices": 0, "per_match": []}
    saturate, vertices = degeneration.saturate, Summand.polygon_vertices
    match = degeneration.match_summand_slabs

    def counted_saturate(rows):
        counts["saturate"] += 1
        return saturate(rows)

    def counted_vertices(self):
        counts["vertices"] += 1
        return vertices(self)

    def counted_match(summand, functionals):
        before = counts["vertices"]
        out = match(summand, functionals)
        counts["per_match"].append(counts["vertices"] - before)
        return out

    monkeypatch.setattr(degeneration, "saturate", counted_saturate)
    monkeypatch.setattr(Summand, "polygon_vertices", counted_vertices)
    monkeypatch.setattr(degeneration, "match_summand_slabs", counted_match)
    return counts


@pytest.mark.parametrize("name", NAMES)
def test_one_saturate_per_facet_line(calls, name):
    for p in images(name):
        lines = {lex_positive(f.normal) for f in p.facets}
        # twice, so that a memo outliving one call would show
        for _ in range(2):
            calls["saturate"] = 0
            try:
                decomposition_regimes(p)
            except DegenerationError:
                # b1: a facet not divisible by its index stops the pass
                assert name == "b1"
                assert 0 < calls["saturate"] <= len(lines)
                continue
            assert calls["saturate"] == len(lines)


@pytest.mark.parametrize("name", NAMES)
def test_one_vertex_list_per_summand(calls, name):
    for p in images(name):
        try:
            regimes = decomposition_regimes(p)
        except DegenerationError:
            assert name == "b1"
            continue
        if p.is_reflexive() and all(regimes):
            calls["per_match"].clear()
            method1_data(p)
            assert calls["per_match"]
            assert set(calls["per_match"]) == {1}


def ray_words():
    """Every distinct ray word of the bundled reflexive polytopes and their
    seeded GL(3,Z) images."""
    words = set()
    for name in NAMES:
        for p in images(name):
            if p.is_reflexive():
                words.update(degeneration._ray_word(p, f, ray_lattice(f.dual),
                                                    vid)
                             for vid, f in enumerate(p.facets))
    return sorted(words)


def test_one_summand_built_per_distinct_summand(monkeypatch):
    # the enumerator keys its summands by (kind, vectors) and validates
    # each distinct one once, when it builds the result
    built = [0]
    post_init = Summand.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Summand, "__post_init__", counted)
    words = ray_words()
    assert len(words) > 20
    for word in words:
        built[0] = 0
        decos = enumerate_smooth_decompositions(word)
        assert built[0] <= len({s for deco in decos for s in deco}), word
