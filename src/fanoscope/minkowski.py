"""Smooth Minkowski decompositions of lattice polygons.

A decomposition is smooth when every summand is a standard simplex: a point,
a primitive segment, or a triangle of normalized area one.  Summands are
encoded by their ccw edge-vector multisets and enumerated by exhaustive
backtracking over the polygon's boundary word: `Polygon.edge_vector_multiset`
reads it off a polygon, and `degeneration._ray_word` off a facet of a
3-polytope with no polygon built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .linalg import lex_positive
from .polytope import PolytopeError, is_integral


@dataclass(frozen=True, order=True)
class Summand:
    kind: str                 # "point" | "segment" | "triangle"
    vectors: tuple            # () | (v,) | (v1, v2, v3) with v1+v2+v3 = 0

    def __post_init__(self):
        vs = self.vectors
        if self.kind == "point":
            ok = vs == ()
        elif self.kind == "segment":
            ok = len(vs) == 1
        elif self.kind == "triangle":
            ok = (len(vs) == 3
                  and tuple(map(sum, zip(*vs))) == (0, 0)
                  and abs(vs[0][0] * vs[1][1] - vs[0][1] * vs[1][0]) == 1)
        else:
            raise ValueError(f"unknown summand kind {self.kind!r}")
        if not ok:
            raise ValueError(f"vectors {vs!r} do not make a {self.kind} "
                             "summand")

    @property
    def dim(self):
        return {"point": 0, "segment": 1, "triangle": 2}[self.kind]

    def polygon_vertices(self):
        """Vertices of the summand, translated so lex-min sits at 0."""
        if self.kind == "point":
            return [(0, 0)]
        if self.kind == "segment":
            return sorted([(0, 0), self.vectors[0]])
        (a, b), (c, d), _ = self.vectors
        pts = [(0, 0), (a, b), (a + c, b + d)]
        mx, my = min(pts)
        return sorted((x - mx, y - my) for x, y in pts)


def segment(v) -> Summand:
    return Summand("segment", (lex_positive(v),))


def triangle(v1, v2, v3) -> Summand:
    """Canonical triangle summand: ccw edge cycle rotated to lex-min start."""
    vs = [tuple(v1), tuple(v2), tuple(v3)]
    d = vs[0][0] * vs[1][1] - vs[0][1] * vs[1][0]
    if d < 0:
        vs = [vs[0], vs[2], vs[1]]  # reorder the same vectors into a ccw cycle
    k = min(range(3), key=lambda i: vs[i])
    return Summand("triangle", tuple(vs[k:] + vs[:k]))


POINT = Summand("point", ())


def enumerate_smooth_decompositions(word):
    """All partitions of a convex polygon's boundary word (the sequence of
    its primitive edge vectors, in any order) into segments {v,-v} and
    unimodular zero-sum triples, deduplicated as multisets of summands.

    Returns a sorted list of tuples of Summands; empty when no smooth
    decomposition exists.

    Each decomposition sums to the polygon up to translation, so none is
    re-summed.  The boundary word of a convex polygon is the multiset of its
    primitive edge vectors, each edge giving its lattice length of copies;
    read in angular order it walks the boundary, so two convex polygons with
    the same word are translates.  A segment's word is {v, -v} and a
    triangle's its ccw edge cycle.  The word of a Minkowski sum is the union
    of its summands' words: the face of the sum on which a functional u is
    least is the sum of the summands' faces on which u is least, so the
    sum's edge with inner normal u is as long as the summands' edges with
    inner normal u together.  The summands found here partition the
    polygon's word, so their sum has the polygon's word and is a translate
    of it.  So the word is all the enumerator reads, and no polygon is
    built.  `tests/test_retired_raises.py` re-sums every decomposition of
    random lattice polygons and of every bundled facet/r.
    """
    count = Counter(word)
    letters = sorted(count)
    if not all(map(is_integral, letters)):
        raise PolytopeError("decompositions of a non-integral word")
    found = set()
    acc = []

    def take(summand, used, left):
        # remove the summand's other edge vectors, recurse, put them back
        for k in used:
            count[k] -= 1
        acc.append(summand)
        rec(left)
        acc.pop()
        for k in used:
            count[k] += 1

    def rec(left):
        if not left:
            found.add(tuple(sorted(acc)))
            return
        v = next(k for k in letters if count[k])
        count[v] -= 1
        neg = (-v[0], -v[1])
        # segment {v, -v}
        if count.get(neg):
            take(segment(v), (neg,), left - 2)
        # triangles {v, w, -v-w}
        tried = set()
        for w in letters:
            if not count[w]:
                continue
            third = (-v[0] - w[0], -v[1] - w[1])
            key = frozenset((w, third))
            if key in tried:
                continue
            tried.add(key)
            if abs(v[0] * w[1] - v[1] * w[0]) != 1:
                continue
            if count.get(third, 0) < (2 if w == third else 1):
                continue
            take(triangle(v, w, third), (w, third), left - 3)
        count[v] += 1

    rec(sum(count.values()))
    return sorted(found, key=lambda d: (sum(1 for s in d if s.dim == 2), d))
