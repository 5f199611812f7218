"""The sweep path's ray pass: one closed-form `ray_lattice` basis per
facet, no vertex list in `match_summand_slabs`, and hull planes dropped at
their first point on the far side.

`ray_lattice(u) == ray_lattice(-u)` is checked here on every primitive
direction of a box and on the facets of seeded GL(3,Z) images.  A spy
fails if the ray pass or `identity24` reaches the Smith or Hermite forms.
Two property tests pin what a `--decomposition` index names: each ray's
list, read in 3-space, is the list under the kernel-rows basis
`ref_ray_lattice` (conftest) on the bundled polytopes, the `sweep` bases
and their images; decompositions of one length, which none of those has
but the octagon prism's facets do, are in the order of their summands read
in 3-space, the same under either basis and under any other.
The enumerator's own order of such ties, in ray coordinates, is pinned
too.  `ref_hull3d_facets` (conftest) is the routine as it was.  A count
guard fails if method1_data builds more than one vertex list per summand
or `match_summand_slabs` builds any; another fails if the enumerator
builds more than one `Summand` per distinct summand of its result.
"""

import json
import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from conftest import (bundled, mat_vec, random_unimodular2,
                      random_unimodular3, ref_hull3d_facets, ref_ray_lattice,
                      unchecked)
from fanoscope import degeneration, linalg
from fanoscope.degeneration import (DegenerationError, decomposition_regimes,
                                    facet_regime, line_fan_data, method1_data,
                                    ray_lattice)
from fanoscope.fileio import bundled_polytopes
from fanoscope.linalg import clear_denominators, lex_positive
from fanoscope.minkowski import Summand, enumerate_smooth_decompositions
from fanoscope.polytope import (LatticePolytope, PolytopeError,
                                _hull3d_facets, identity24)

NAMES = sorted(k for k in bundled_polytopes() if k != "polygons")
SEEDS = (None, 1, 2, 3)
# the 20 reflexive bases of the benchmark's `sweep` corpus, read only
SWEEP_BASES = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def seeded_images(p, seeds):
    """p and its images under the GL(3,Z) maps of the given seeds."""
    out = [p]
    for seed in seeds:
        m = random_unimodular3(random.Random(seed))
        out.append(LatticePolytope([tuple(mat_vec(m, list(v)))
                                    for v in p.vertices]))
    return out


def images(name):
    """The bundled polytope and its images under the seeded GL(3,Z) maps."""
    return seeded_images(bundled(name), SEEDS[1:])


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
# what a --decomposition index names


def in_space(basis, deco):
    """A decomposition read in 3-space through its ray's basis: each
    segment as its vector up to sign, each triangle as the set of its edge
    vectors up to sign."""
    def lift(v):
        return lex_positive(tuple(v[0] * a + v[1] * b
                                  for a, b in zip(*basis)))
    return sorted((s.kind, tuple(sorted(map(lift, s.vectors))))
                  for s in deco)


def ref_regime(p, vid):
    """Facet vid's kernel-rows basis and its decompositions read in it."""
    f = p.facets[vid]
    basis = ref_ray_lattice(f.normal)
    return basis, enumerate_smooth_decompositions(
        degeneration._ray_word(p, f, basis, vid))


def test_decomposition_order_matches_the_kernel_route():
    # on the bundled polytopes, the `sweep` bases and 14 seeded GL(3,Z)
    # images of each, every ray's list read in 3-space is the list under
    # the kernel-rows basis, entry by entry, so a --decomposition index
    # names what it named before the closed form.  No ray there has two
    # decompositions of one length, so the order is the length order
    bases = [bundled(name) for name in NAMES] + [
        LatticePolytope(doc["vertices"]) for doc in
        json.loads(SWEEP_BASES.read_text())["sweep_bases"].values()]
    multi = 0
    for p in [q for b in bases for q in seeded_images(b, range(1, 15))]:
        try:
            regimes = decomposition_regimes(p)
        except DegenerationError:
            assert not p.is_reflexive()  # b1: a facet not divisible by r
            continue
        for vid, decos in enumerate(regimes):
            ref_basis, ref = ref_regime(p, vid)
            basis = ray_lattice(p.facets[vid].normal)
            assert [in_space(basis, d) for d in decos] == \
                [in_space(ref_basis, d) for d in ref], (p.vertices, vid)
            multi += len(decos) > 1
    assert multi >= 50


# a centrally symmetric octagon with two smooth decompositions into four
# summands; the prism over it has it as two facets
OCTAGON = ((-2, -2), (-1, -2), (1, -1), (2, 0), (2, 2), (1, 2), (-1, 1),
           (-2, 0))


def octagon_facets():
    """(P, facet id) of both octagons of the prism and of its 14 seeded
    GL(3,Z) images.  The prism's sides are not divisible by their index,
    so its octagons are read one facet at a time."""
    prism = LatticePolytope([(x, y, z) for x, y in OCTAGON for z in (-1, 1)])
    return [(p, vid) for p in seeded_images(prism, range(1, 15))
            for vid, f in enumerate(p.facets) if -f.level == 1]


def test_tied_decompositions_are_in_ray_coordinate_order():
    # the enumerator orders decompositions of one length by their summands
    # in the coordinates of the ray's `ray_lattice` basis, and its set per
    # length is the kernel route's; `_space_order` then reorders the ties
    ties = 0
    for p, vid in octagon_facets():
        f = p.facets[vid]
        basis = ray_lattice(f.normal)
        decos = enumerate_smooth_decompositions(
            degeneration._ray_word(p, f, basis, vid))
        assert decos == sorted(decos, key=lambda d: (-len(d), d))
        ref_basis, ref = ref_regime(p, vid)
        assert sorted((len(d), in_space(basis, d)) for d in decos) == \
            sorted((len(d), in_space(ref_basis, d)) for d in ref)
        assert sorted(facet_regime(p, vid), key=lambda d: (-len(d), d)) \
            == decos
        ties += degeneration._tied(decos)
    assert ties == 30  # both octagons of the prism and of its 14 images


def test_tied_decompositions_are_in_space_order(monkeypatch):
    # each index names the same decomposition read in 3-space whether the
    # ray's basis is the closed form or the kernel-rows one, which the
    # enumerator's order, in ray coordinates, does not do on 6 facets
    closed, kernel, swapped = [], [], 0
    for p, vid in octagon_facets():
        basis = ray_lattice(p.facets[vid].normal)
        decos = facet_regime(p, vid)
        assert degeneration._tied(decos)
        closed.append([in_space(basis, d) for d in decos])
        # the enumerator's lists under the two bases
        raw = enumerate_smooth_decompositions(
            degeneration._ray_word(p, p.facets[vid], basis, vid))
        ref_basis, ref = ref_regime(p, vid)
        swapped += ([in_space(basis, d) for d in raw]
                    != [in_space(ref_basis, d) for d in ref])
    monkeypatch.setattr(degeneration, "ray_lattice", ref_ray_lattice)
    for p, vid in octagon_facets():
        basis = ref_ray_lattice(p.facets[vid].normal)
        kernel.append([in_space(basis, d) for d in facet_regime(p, vid)])
    assert len(closed) == 30  # both octagons of the prism and its images
    assert kernel == closed
    assert swapped == 6


def test_space_order_is_free_of_the_basis():
    # under any basis of the facet's plane, GL(2,Z) images of the closed
    # form's with either orientation, a tied list is the same in 3-space
    rng = random.Random(28)
    for p, vid in octagon_facets():
        f = p.facets[vid]
        b0, b1 = ray_lattice(f.normal)
        want = [in_space((b0, b1), d) for d in facet_regime(p, vid)]
        for _ in range(4):
            (a, b), (c, d) = random_unimodular2(rng)
            basis = (tuple(a * x + b * y for x, y in zip(b0, b1)),
                     tuple(c * x + d * y for x, y in zip(b0, b1)))
            decos = enumerate_smooth_decompositions(
                degeneration._ray_word(p, f, basis, vid))
            assert degeneration._tied(decos)
            ordered = degeneration._space_order(decos, basis)
            assert [in_space(basis, d) for d in ordered] == want
            assert [len(d) for d in ordered] == sorted(map(len, decos),
                                                       reverse=True)


def test_space_order_puts_more_summands_first():
    # two segments before one triangle, though the triangle's lifted
    # vertices sort first
    two = (Summand("segment", ((1, 0),)), Summand("segment", ((1, 1),)))
    one = (Summand("triangle", ((1, 0), (-1, 1), (0, -1))),)
    basis = ((1, 0, 0), (0, 1, 0))
    assert degeneration._space_order([one, two], basis) == [two, one]


def octagon_line_fan():
    """The octagon prism's line fan along its axis, with one ray per edge
    of the octagon, on the edge's inner normal: both rays leave P* at a
    vertex dual to an octagon, whose decompositions tie."""
    prism = LatticePolytope([(x, y, z) for x, y in OCTAGON for z in (-1, 1)])
    rays = []
    for (ax, ay), (bx, by) in zip(OCTAGON, OCTAGON[1:] + OCTAGON[:1]):
        g = gcd(bx - ax, by - ay)
        rays.append(((ay - by) // g, (bx - ax) // g, 0))
    return prism, rays


def test_line_fan_takes_one_tied_decomposition_under_any_basis(monkeypatch):
    # the last entry of each ray's list, read in 3-space, is the same
    # whatever basis of the line's plane the ray pass is handed; no labels
    # give the slabs' spines the span of their summands, so construction
    # refuses the data, and it is built without the check: only the ray
    # pass is read
    prism, rays = octagon_line_fan()
    with pytest.raises(DegenerationError, match="spine span 0 != 2"):
        line_fan_data(prism, (0, 0, 1), rays, [])

    def chosen(data, basis):
        # a decomposition's summands come in ray-coordinate order
        return sorted((rs.ray, rs.slabs, in_space(basis, [rs.summand]))
                      for rs in data.ray_summands)

    real = degeneration.ray_lattice
    want = chosen(unchecked(line_fan_data, prism, (0, 0, 1), rays, []),
                  real((0, 0, 1)))
    rng = random.Random(29)
    for _ in range(8):
        a = random_unimodular2(rng)

        def turned(u, a=a):
            b0, b1 = real(u)
            return [tuple(r * x + s * y for x, y in zip(b0, b1))
                    for r, s in a]

        monkeypatch.setattr(degeneration, "ray_lattice", turned)
        data = unchecked(line_fan_data, prism, (0, 0, 1), rays, [])
        assert chosen(data, turned((0, 0, 1))) == want


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
def smith_calls(monkeypatch):
    """The names of the `linalg.saturate`, `hnf` and `snf` calls made,
    under whatever name a package module binds them to."""
    made = []
    for name in ("saturate", "hnf", "snf"):
        real = getattr(linalg, name)

        def spy(*args, real=real, name=name):
            made.append(name)
            return real(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("fanoscope")
                    and getattr(module, name, None) is real):
                monkeypatch.setattr(module, name, spy)
    return made


@pytest.mark.parametrize("name", NAMES)
def test_ray_pass_reaches_no_smith_form(smith_calls, name):
    for p in images(name):
        try:
            decomposition_regimes(p)
        except DegenerationError:
            assert name == "b1"
        for vid in range(len(p.facets)):
            try:
                facet_regime(p, vid)
            except DegenerationError:
                assert name == "b1"
        if p.is_reflexive():
            identity24(p)
    assert smith_calls == []


@pytest.fixture
def calls(monkeypatch):
    """Counts of `Summand.polygon_vertices` calls, and of `polygon_vertices`
    calls per `match_summand_slabs`, which reads the summand's vectors."""
    counts = {"vertices": 0, "per_match": []}
    vertices = Summand.polygon_vertices
    match = degeneration.match_summand_slabs

    def counted_vertices(self):
        counts["vertices"] += 1
        return vertices(self)

    def counted_match(summand, functionals):
        before = counts["vertices"]
        out = match(summand, functionals)
        counts["per_match"].append(counts["vertices"] - before)
        return out

    monkeypatch.setattr(Summand, "polygon_vertices", counted_vertices)
    monkeypatch.setattr(degeneration, "match_summand_slabs", counted_match)
    return counts


@pytest.mark.parametrize("name", NAMES)
def test_one_vertex_list_per_summand(calls, name):
    # at most one vertex list per summand over the whole of method1_data,
    # and none of them in `match_summand_slabs`
    for p in images(name):
        try:
            regimes = decomposition_regimes(p)
        except DegenerationError:
            assert name == "b1"
            continue
        if p.is_reflexive() and all(regimes):
            calls["per_match"].clear()
            calls["vertices"] = 0
            method1_data(p)
            assert calls["per_match"]
            assert set(calls["per_match"]) == {0}
            assert calls["vertices"] <= len(calls["per_match"])


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
