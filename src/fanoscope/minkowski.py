"""Smooth Minkowski decompositions of lattice polygons.

A decomposition is smooth when every summand is a standard simplex: a
primitive segment or a triangle of normalized area one.  Summands are
encoded by their ccw edge-vector multisets and enumerated by exhaustive
backtracking over the polygon's boundary word, each edge giving its lattice
length of copies of its primitive direction: `degeneration._ray_word` reads
it off a facet of a 3-polytope with no polygon built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polytope import PolytopeError, is_integral


@dataclass(frozen=True, order=True)
class Summand:
    kind: str                 # "segment" | "triangle"
    vectors: tuple            # (v,) | (v1, v2, v3) with v1+v2+v3 = 0

    def __post_init__(self):
        vs = self.vectors
        if self.kind == "segment":
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

    def polygon_vertices(self):
        """Vertices of the summand, translated so lex-min sits at 0."""
        if self.kind == "segment":
            return sorted([(0, 0), self.vectors[0]])
        (a, b), (c, d), _ = self.vectors
        pts = [(0, 0), (a, b), (a + c, b + d)]
        mx, my = min(pts)
        return sorted((x - mx, y - my) for x, y in pts)


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
    random lattice polygons and of every bundled facet/r.  Each summand
    takes two or three letters, so none is a point, and every ray summand
    attached from here lies on slabs.
    """
    count = {}
    for v in word:
        count[v] = count.get(v, 0) + 1
    letters = sorted(count)
    if not is_integral(sum(letters, ())):
        raise PolytopeError("decompositions of a non-integral word")
    found = set()  # sorted tuples of (kind, vectors) summand keys
    acc = []

    def take(summand, used, left, i):
        # remove the summand's other edge vectors, recurse, put them back
        for k in used:
            count[k] -= 1
        acc.append(summand)
        rec(left, i)
        acc.pop()
        for k in used:
            count[k] += 1

    def rec(left, i):
        # the letters before letters[i] are used up
        if not left:
            found.add(tuple(sorted(acc)))
            return
        while not count[letters[i]]:
            i += 1
        v = letters[i]
        count[v] -= 1
        a, b = v
        neg = (-a, -b)
        # segment {v, -v}, keyed by its lex-positive vector
        if count.get(neg):
            take(("segment", (max(v, neg),)), (neg,), left - 2, i)
        # triangles {v, w, -v-w}, each met once as the w < third of its
        # pair; a unimodular one has three distinct vectors
        for w in letters:
            if not count[w]:
                continue
            third = (-a - w[0], -b - w[1])
            if third < w or not count.get(third):
                continue
            turn = a * w[1] - b * w[0]
            if turn != 1 and turn != -1:
                continue
            # the ccw edge cycle, rotated to its lex-least start
            cyc = (v, w, third) if turn > 0 else (v, third, w)
            k = cyc.index(min(cyc))
            take(("triangle", cyc[k:] + cyc[:k]), (w, third), left - 3, i)
        count[v] += 1

    rec(sum(count.values()), 0)
    # one validated Summand per distinct key; keys sort as Summands do.  A
    # word of n letters cut into s segments and t triangles has 2s + 3t = n,
    # so fewer summands is more triangles
    summands = {s: Summand(*s) for s in {s for deco in found for s in deco}}
    return [tuple(summands[s] for s in deco)
            for deco in sorted(found, key=lambda d: (-len(d), d))]
