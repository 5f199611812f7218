import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NORMAL_FAN_POLYTOPES, bundled, densify, facet_polygon,
                      lattice_polygons, mat_vec, normal_fan_routes, random_unimodular2,
                      random_unimodular3, ref_annihilators)
from fanoscope.degeneration import line_fan_data, method1_data, normal_fan_data
from fanoscope.gamma import (_ALLOWED, GammaError,
                             _fan_pattern, b2, barT_hypothesis, barT_sections, baseline_ok,
                             build_system, gamma_dimension)
from fanoscope.linalg import rank
from fanoscope.polytope import LatticePolytope, Polygon, dot


def test_p3_and_cube_dimension_three():
    assert gamma_dimension(method1_data(bundled("p3"))) == 3
    assert gamma_dimension(method1_data(bundled("cube"))) == 3
    assert b2(method1_data(bundled("p3"))) == 1
    assert b2(method1_data(bundled("cube"))) == 1


def test_octahedron_rank_three():
    assert b2(method1_data(bundled("octahedron"))) == 3


def test_v2_rank_one():
    assert b2(normal_fan_data(bundled("v2"))) == 1


def test_baseline_always_satisfied():
    for name in ("p3", "cube", "octahedron", "q3_quadric"):
        system = build_system(method1_data(bundled(name)))
        assert baseline_ok(system)


def test_baseline_fails_on_a_flipped_annihilator():
    system = build_system(method1_data(bundled("p3")))
    system.nu[0] = tuple(-x for x in system.nu[0])
    assert baseline_ok(system) is False


def test_triangle_gives_single_relation():
    # eliminating the auxiliary covector of a triangle summand leaves
    # exactly one scalar relation among the three incident values: the
    # attainable alpha-triples form the rank-2 image of the pairing
    data = method1_data(bundled("p3"))
    system = build_system(data)
    block = densify(system.rows[:3], system.n_alpha + system.n_aux)
    assert rank(block) == 3
    nu_block = [row[system.n_alpha:system.n_alpha + 3] for row in block]
    assert rank(nu_block) == 2  # image is 2-dim, so one relation in alpha


def test_refuses_line_fans():
    data = line_fan_data(bundled("b3_cubic"), (0, 0, 1),
                         [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                         [{"meets": (0, 0, 1), "value": 3}])
    with pytest.raises(GammaError, match="normal fan"):
        gamma_dimension(data)


def test_barT_agreement():
    for name in ("p3", "cube", "octahedron", "q3_quadric"):
        data = method1_data(bundled(name))
        if not barT_hypothesis(data):
            continue
        assert barT_sections(data) == gamma_dimension(data)


def test_barT_p3_value():
    assert barT_sections(method1_data(bundled("p3"))) == 3
    assert barT_sections(method1_data(bundled("cube"))) == 3


def test_dimension_invariant_under_gl3():
    rng = random.Random(23)
    base = bundled("cube")
    want = gamma_dimension(method1_data(base))
    for _ in range(4):
        m = random_unimodular3(rng)
        image = LatticePolytope([tuple(mat_vec(m, list(v)))
                                 for v in base.vertices])
        assert gamma_dimension(method1_data(image)) == want


def ref_build_system(data):
    """The short-rows-then-pad routine that `build_system` replaced; returns
    (rows, n_aux, triangles)."""
    dual, nus = ref_annihilators(data)
    edge_index = {f"E{i}": i for i in range(len(dual.edges))}
    n_alpha = len(dual.edges)
    rows = []
    aux_base = n_alpha
    triangles = 0
    for rs in data.ray_summands:
        if rs.kind == "point":
            continue
        cones = [edge_index[s] for s in rs.slabs]
        if rs.kind == "segment":
            c1, c2 = cones
            if nus[c1] == nus[c2]:
                eps = 1
            elif nus[c1] == tuple(-x for x in nus[c2]):
                eps = -1
            else:
                raise GammaError("segment cones are not coplanar: corrupted "
                                 "data")
            row = [0] * n_alpha
            row[c1] = eps
            row[c2] = -1
            rows.append(row)
        else:
            triangles += 1
            for c in cones:
                row = [0] * n_alpha
                row[c] = -1
                rows.append(row + list(nus[c]))
            aux_base += 3
    # pad each triangle's three rows into its own auxiliary 3-block
    padded = []
    tri_seen = 0
    row_iter = iter(rows)
    for row in row_iter:
        if len(row) == n_alpha:
            padded.append(row + [0] * (3 * triangles))
        else:
            for r in (row, next(row_iter), next(row_iter)):
                left = r[:n_alpha]
                block = r[n_alpha:]
                pre = [0] * (3 * tri_seen)
                post = [0] * (3 * (triangles - tri_seen - 1))
                padded.append(left + pre + block + post)
            tri_seen += 1
    return padded, 3 * triangles, triangles


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.none(), st.integers(0, 2 ** 32)))
def test_build_system_matches_padding_routine(seed):
    # seed None: the bundled polytopes and the v2 fixture; else GL(3,Z) images
    datas = normal_fan_routes(seed)
    assert len(datas) == 8
    for data in datas:
        system = build_system(data)
        rows = densify(system.rows, system.n_alpha + system.n_aux)
        assert (rows, system.n_aux, system.triangles) == ref_build_system(data)


def dense_baseline_ok(system) -> bool:
    """`baseline_ok` as it was before it read each row's nonzero entries
    only: every row against the full vector of each unit baseline."""
    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        alphas = [dot(m, nu) for nu in system.nu]
        vec = alphas + list(m) * system.triangles
        for row in system.rows:
            if sum(r * v for r, v in zip(row, vec)) != 0:
                return False
    return True


def dense(system):
    """The system with its rows written out at full width."""
    return replace(system,
                   rows=densify(system.rows, system.n_alpha + system.n_aux))


def test_baseline_ok_matches_dense_check():
    # every bundled normal-fan system, then ones with a drawn entry moved or
    # annihilator negated: the sparse check must agree with the dense one
    datas = normal_fan_routes()
    for data in datas:
        system = build_system(data)
        assert baseline_ok(system) and dense_baseline_ok(dense(system))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def corrupted(draw):
        system = build_system(draw.draw(st.sampled_from(datas)))
        if draw.draw(st.booleans()):
            row = draw.draw(st.sampled_from(system.rows))
            j = draw.draw(st.integers(0, system.n_alpha + system.n_aux - 1))
            row[j] = row.get(j, 0) + draw.draw(st.sampled_from([-1, 1]))
        else:
            i = draw.draw(st.integers(0, len(system.nu) - 1))
            system.nu[i] = tuple(-x for x in system.nu[i])
        assert baseline_ok(system) == dense_baseline_ok(dense(system))

    corrupted()


def fraction_fan_pattern(polygon):
    """`_fan_pattern` as it was when it took -(D^2) as a Fraction."""
    rays = [n for n, _ in polygon.edge_normals()]
    k = len(rays)
    pattern = []
    for i in range(k):
        a, b, c = rays[(i - 1) % k], rays[i], rays[(i + 1) % k]
        if abs(b[0] * c[1] - b[1] * c[0]) != 1:
            return None
        lam = None
        for idx in range(2):
            if b[idx]:
                lam = Fraction(a[idx] + c[idx], b[idx])
        if lam is None or lam.denominator != 1:
            return None
        if a[0] + c[0] != lam * b[0] or a[1] + c[1] != lam * b[1]:
            return None
        pattern.append(-int(lam))
    return tuple(pattern)


@st.composite
def fan_polygons(draw):
    """Hirzebruch trapezoids (smooth normal fans with pattern (a, 0, -a, 0)),
    facets of the bundled polytopes, and drawn lattice polygons (mostly
    singular fans), each moved by a drawn GL(2,Z) map."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        a = draw(st.integers(0, 3))
        verts = [(0, 0), (w + a * h, 0), (w, h), (0, h)]
    elif kind == 1:
        p = bundled(draw(st.sampled_from(NORMAL_FAN_POLYTOPES + ("v2",))))
        verts = facet_polygon(p, draw(st.sampled_from(p.facets)))[0].vertices
    else:
        verts = draw(lattice_polygons()).vertices
    m = random_unimodular2(random.Random(draw(st.integers(0, 2 ** 32))))
    return Polygon([tuple(mat_vec(m, list(v))) for v in verts])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fan_polygons())
def test_fan_pattern_matches_fraction_route(polygon):
    padded = [(x, y, 0) for x, y in polygon.vertices]
    assert _fan_pattern(padded, (0, 0, 1)) == fraction_fan_pattern(polygon)


# `barT_hypothesis`'s verdict on one facet pattern as it was before the
# allowed set was closed under rotation and reversal at import, with the
# variant generator it called, kept verbatim as a reference


REF_ALLOWED_PATTERNS = {
    (1, 1, 1),            # P^2
    (0, 0, 0, 0),         # P^1 x P^1
    (1, 0, -1, 0),        # F_1 (Hirzebruch)
    (-1, -1, -1, 0, 0),   # dP_7
}


def ref_cyclic_variants(seq):
    seq = list(seq)
    out = set()
    for s in (seq, seq[::-1]):
        for i in range(len(s)):
            out.add(tuple(s[i:] + s[:i]))
    return out


def ref_pattern_allowed(pat):
    if pat is None:
        return False
    if not any(v in REF_ALLOWED_PATTERNS for v in ref_cyclic_variants(pat)):
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.none(),
    st.lists(st.integers(-2, 2), max_size=6).map(tuple),
    st.sampled_from(sorted(REF_ALLOWED_PATTERNS)).flatmap(
        lambda pat: st.sampled_from(sorted(ref_cyclic_variants(pat))))))
def test_allowed_set_matches_the_any_variant_route(pat):
    assert (pat in _ALLOWED) == ref_pattern_allowed(pat)
