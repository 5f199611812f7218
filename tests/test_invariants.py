from dataclasses import replace

import pytest

from conftest import bundled, bundled_polygon
from fanoscope import cli, invariants
from fanoscope.degeneration import (line_fan_data, method1_data,
                                    normal_fan_data, product_data)
from fanoscope.fileio import (bundled_polytopes, data_from_fixture,
                              list_fixtures, load_fixture)
from fanoscope.gamma import b2
from fanoscope.invariants import (InvariantError, _cell_class_data, analyze,
                                  b3_from, degree, euler_number,
                                  euler_product, euler_smooth_mink,
                                  fano_index, p1c1_expected)
from fanoscope.linalg import nullity


def all_bundled_data():
    out = [method1_data(bundled("p3"), name="p3"),
           method1_data(bundled("cube"), name="cube"),
           method1_data(bundled("octahedron"), name="octa"),
           method1_data(bundled("q3_quadric"), name="q3"),
           normal_fan_data(bundled("v2"), name="v2")]
    for poly in ("diamond", "triangle", "hexagon", "pentagon"):
        out.append(product_data(bundled_polygon(poly), poly))
    for fix in ("b3_cubic", "b1", "mm2_1", "mm2_2", "mm2_3", "mm2_5",
                "mm3_2", "mm3_4", "mm3_5", "mm4_2", "mm5_1"):
        out.append(data_from_fixture(load_fixture(fix)))
    return out


def test_dual_euler_formulas_agree_everywhere():
    for data in all_bundled_data():
        e = euler_number(data)  # raises on any formula mismatch
        assert e % 2 == 0
        if data.kind == "normal_fan" and data.polytope.is_reflexive():
            assert euler_smooth_mink(data) == e
        if data.kind == "product":
            assert euler_product(data) == e


def test_euler_examples():
    b3 = line_fan_data(bundled("b3_cubic"), (0, 0, 1),
                       [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                       [{"meets": (0, 0, 1), "value": 3}])
    assert euler_number(b3) == -6
    v2 = normal_fan_data(bundled("v2"))
    assert euler_number(v2) == -100
    assert 2 * sum(1 - s.i_count for s in v2.slabs) - 2 * v2.j_count == -100
    assert euler_number(method1_data(bundled("cube"))) == -24


def test_euler_closed_forms():
    assert euler_smooth_mink(method1_data(bundled("p3"))) == 24 + 4 - 24
    assert euler_smooth_mink(method1_data(bundled("cube"))) == 24 + 0 - 48


def test_degree():
    assert degree(bundled("p3")) == 64
    assert degree(bundled("b3_cubic")) == 24
    assert degree(bundled("v2")) == 2
    assert degree(bundled("cube")) == 8
    assert degree(bundled("octahedron")) == 48


def test_b3_from():
    assert b3_from(-16, 2) == 22
    assert b3_from(4, 1) == 0
    assert b3_from(-100, 1) == 104
    with pytest.raises(InvariantError):
        b3_from(5, 1)
    with pytest.raises(InvariantError):
        b3_from(30, 1)


def test_p1c1():
    assert p1c1_expected(64) == 16
    assert p1c1_expected(24) == -24
    assert p1c1_expected(2) == -46


def index_of(data):
    """fano_index given the b2 and degree that `analyze` hands it."""
    return fano_index(data, b2(data), degree(data.polytope))


def test_fano_index_oracles():
    assert index_of(method1_data(bundled("p3"))) == 4
    assert index_of(method1_data(bundled("q3_quadric"))) == 3
    assert index_of(method1_data(bundled("cube"))) == 1
    assert index_of(normal_fan_data(bundled("v2"))) == 1


def test_fano_index_refuses_higher_rank():
    with pytest.raises(InvariantError, match="not rank one"):
        index_of(method1_data(bundled("octahedron")))


def test_gluing_kernel_is_the_line_through_d():
    # what `fano_index` relies on without building the rows: each wall
    # equates x_f / d_f on its two cells, every d_f >= 1 and the facet
    # graph is connected, so the kernel is the line through d
    from test_ray_facets import NAMES, SEEDS, image
    systems = 0
    for name in NAMES:
        base = bundled(name)
        for q in [base] + [image(base, seed, flip) for seed in SEEDS
                           for flip in (False, True)]:
            dual = q.polar_dual()
            d = [_cell_class_data(dual, f) for f in dual.facets]
            rows = [{f: d[g], g: -d[f]}
                    for f, g in (sorted(e.facet_ids) for e in dual.edges)]
            assert min(d) >= 1
            assert nullity(rows, len(d)) == 1
            systems += 1
    assert systems == len(NAMES) * (1 + 2 * len(SEEDS))


def test_fano_index_from_boundary_components():
    b1 = data_from_fixture(load_fixture("b1"))
    assert fano_index(b1, 1, 8) == 2
    with pytest.raises(InvariantError, match="boundary components"):
        fano_index(b1, 1, 27)


def test_analyze_computes_the_degree_once(monkeypatch):
    # fano_index reads the report's degree instead of computing it again;
    # every bundled polytope, product polygon and fixture, each decomposition
    table = bundled_polytopes()
    names = (set(table) - {"polygons"} | set(table["polygons"])
             | {f for f in list_fixtures() if "kind" in load_fixture(f)})
    datas = [d for name in sorted(names)
             for d in cli._resolve_data(name, "auto")]
    assert any("boundary_components" in d.stated for d in datas)
    calls = []
    real = invariants.degree

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(invariants, "degree", counted)
    for data in datas:
        if data.polytope is None:
            continue
        calls.clear()
        analyze(data)
        assert len(calls) == 1, data.name


def test_analyze_p3_golden():
    rep = analyze(method1_data(bundled("p3"), name="p3")).to_dict()
    for key, val in {"degree": 64, "p": 4, "n": 24, "euler": 4, "b2": 1,
                     "b3": 0, "index": 4}.items():
        assert rep[key] == val


def test_analyze_octahedron_matches_triple_product_row():
    rep = analyze(method1_data(bundled("octahedron"), name="octa"))
    assert (rep.degree, rep.p, rep.n, rep.euler, rep.b2) == (48, 8, 24, 8, 3)
    assert rep.fano_index is None


def test_product_reports():
    rows = {"diamond": (24, 16, 7), "triangle": (18, 18, 8),
            "hexagon": (36, 12, 5), "pentagon": (30, 14, 6)}
    for name, (deg, chi, b2v) in rows.items():
        rep = analyze(product_data(bundled_polygon(name), name))
        assert (rep.degree, rep.euler, rep.b2) == (deg, chi, b2v)
        assert rep.p == rep.n == 0


def test_method2_b2_is_fixture_tagged():
    rep = analyze(data_from_fixture(load_fixture("mm2_2")))
    assert rep.b2 == 2
    assert rep.provenance["b2"] == "source: paper"


def test_b4_intersection_oracle():
    # degeneration of the (2, 2) intersection: rank one, index two
    from fanoscope.degeneration import decomposition_regimes
    p = bundled("b4_intersection")
    assert all(len(r) == 1 for r in decomposition_regimes(p))
    rep = analyze(method1_data(p, name="b4"))
    assert (rep.degree, rep.p, rep.n, rep.euler) == (32, 0, 24, 0)
    assert (rep.b2, rep.b3, rep.fano_index) == (1, 4, 2)


def test_hexagon_cone_regimes():
    # the cone over a hexagon realizes two families at once: three segments
    # give the rank-two row, two triangles the rank-three row
    from fanoscope.degeneration import decomposition_regimes
    p = bundled("hexagon_cone")
    counts = [len(r) for r in decomposition_regimes(p)]
    assert sorted(counts) == [1, 1, 1, 1, 1, 1, 2]
    rows = set()
    choices = [[]]
    for c in counts:
        choices = [ch + [i] for ch in choices for i in range(c)]
    for ch in choices:
        data = method1_data(p, tuple(ch))
        assert all(s.two_area == 2 for s in data.slabs)  # twelve O(2) slabs
        assert len(data.slabs) == 12
        rep = analyze(data)
        rows.add((rep.degree, rep.p, rep.n, rep.euler, rep.b2))
    assert rows == {(48, 6, 24, 6, 2), (48, 8, 24, 8, 3)}


def test_euler_formula_mismatch_detected(monkeypatch):
    # a segment added to p3's data is refused as the data is built; one
    # segment counted in |J| that the node census does not see breaks the
    # slab formula alone
    from fanoscope.degeneration import (DegenerationData, DegenerationError,
                                        RaySummand)
    data = method1_data(bundled("p3"))
    with pytest.raises(DegenerationError,
                       match="^slab E0: edge span 1 != 2 attachments"):
        replace(data, ray_summands=data.ray_summands + (
            RaySummand("v0", "segment", ("E0", "E1")),))
    monkeypatch.setattr(DegenerationData, "d_count", property(lambda s: 1))
    with pytest.raises(InvariantError, match="formula mismatch: 2 != 4"):
        euler_number(data)


def test_reports_invariant_under_lattice_automorphisms():
    import random
    from conftest import mat_vec, random_unimodular3
    from fanoscope.polytope import LatticePolytope
    rng = random.Random(41)
    for name in ("p3", "cube", "octahedron", "q3_quadric", "b4_intersection"):
        base = bundled(name)
        ref = analyze(method1_data(base, name=name))
        key = (ref.degree, ref.p, ref.n, ref.euler, ref.b2, ref.b3,
               ref.fano_index, ref.boundary_count)
        for _ in range(2):
            m = random_unimodular3(rng)
            image = LatticePolytope([tuple(mat_vec(m, list(v)))
                                     for v in base.vertices])
            rep = analyze(method1_data(image, name=name))
            assert (rep.degree, rep.p, rep.n, rep.euler, rep.b2, rep.b3,
                    rep.fano_index, rep.boundary_count) == key
