"""Seeded corpus for the `sweep` workload.

Each item is a GL(3, Z) image of one of 20 reflexive bases, with its
vertices shuffled.  The generator imports nothing from fanoscope: the
package only ever sees the vertex lists it returns.
"""

from __future__ import annotations

import json
import random

from checkout import EXPECTED

IMAGES_PER_BASE = 5


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def random_unimodular3(rng: random.Random):
    """Element of GL(3, Z) as a word of eight elementary matrices: a shear
    by -2..2, a transposition, or a sign flip, chosen uniformly."""
    m = _identity(3)
    for _ in range(8):
        e = _identity(3)
        i, j = rng.sample(range(3), 2)
        op = rng.randrange(3)
        if op == 0:
            e[i][j] = rng.randrange(-2, 3)
        elif op == 1:
            e[i][i] = 0
            e[j][j] = 0
            e[i][j] = 1
            e[j][i] = 1
        else:
            e[i][i] = -1
        m = _mat_mul(m, e)
    return m


def load_bases():
    """{name: {"vertices": [...], "regime_counts": [...]}} for the 20 bases:
    the 8 bundled reflexive polytopes, their polar duals, and the prisms
    Q x [-1, 1] over the 4 bundled polygons."""
    return json.loads(EXPECTED.read_text())["sweep_bases"]


def generate(seed: int, bases=None):
    """[(base name, vertex list)] with IMAGES_PER_BASE images of every base,
    in a seeded order.  The same seed gives the same list."""
    rng = random.Random(seed)
    bases = load_bases() if bases is None else bases
    items = []
    for name in sorted(bases):
        for _ in range(IMAGES_PER_BASE):
            m = random_unimodular3(rng)
            verts = [[sum(m[i][k] * v[k] for k in range(3)) for i in range(3)]
                     for v in bases[name]["vertices"]]
            rng.shuffle(verts)
            items.append((name, verts))
    rng.shuffle(items)
    return items
