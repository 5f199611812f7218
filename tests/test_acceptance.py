"""Acceptance criteria, one test per criterion, each printing a verdict line.

Database-gated criteria skip cleanly when FANOSCOPE_DB is not set.
"""

import random
import time

import pytest

from conftest import (bundled, bundled_polygon, database, db_path,
                      dilate_polytope, edge_vector_multiset, needs_db,
                      point_counts)
from fanoscope.degeneration import (DegenerationError, decomposition_regimes,
                                    method1_data, product_data)
from fanoscope.fileio import data_from_fixture, expected_rows, load_fixture
from fanoscope.gamma import (barT_hypothesis, barT_sections, b2 as gamma_b2,
                             baseline_ok, build_system, gamma_dimension)
from fanoscope.invariants import (analyze, euler_number, euler_smooth_mink,
                                  degree)
from fanoscope.minkowski import enumerate_smooth_decompositions
from fanoscope.polytope import Polygon, identity24


def verdict(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS  {text}")


def test_criterion_01_p3_golden_row():
    rep = analyze(method1_data(bundled("p3"), name="p3")).to_dict()
    want = {"degree": 64, "p": 4, "n": 24, "euler": 4, "b2": 1, "b3": 0,
            "index": 4}
    assert {k: rep[k] for k in want} == want
    verdict(1, "P^3 golden row matches the rank-one table exactly")


def test_criterion_02_cube_golden_row():
    data = method1_data(bundled("cube"), name="V8")
    regimes = decomposition_regimes(bundled("cube"))
    assert all(len(r) == 1 for r in regimes)  # unique smooth decompositions
    rep = analyze(data).to_dict()
    want = {"degree": 8, "p": 0, "n": 48, "euler": -24, "b2": 1}
    assert {k: rep[k] for k in want} == want
    verdict(2, "cube / V8 golden row matches (0, 48, -24), b2 = 1")


def test_criterion_03_cubic_example():
    data = data_from_fixture(load_fixture("b3_cubic"))
    assert data.p_count == 3
    assert data.n_count == 27
    assert data.boundary_count == 18
    e_slab = (2 * sum(1 - s.i_count for s in data.slabs) - 2 * data.j_count
              + data.vertex_count)
    e_node = (data.p_count - data.n_count + data.boundary_count
              + data.vertex_count)
    assert e_slab == e_node == -6 == euler_number(data)
    assert point_counts(bundled("b3_cubic").polar_dual())[0] == 15
    assert degree(bundled("b3_cubic")) == 24
    verdict(3, "cubic example: p=3, n=27, 18 boundary points, both Euler "
               "formulas -6, degree 24")


def test_criterion_04_v2_fixture():
    rep = analyze(data_from_fixture(load_fixture("v2")))
    assert (rep.p, rep.n, rep.euler) == (20, 144, -100)
    assert rep.degree == 2
    dual3 = dilate_polytope(bundled("v2").polar_dual(), 3)
    assert dual3.is_integral
    assert point_counts(dual3)[2] == 11
    verdict(4, "V2: p=20, n=144, chi=-100, degree 2 with 11 boundary points "
               "on the tripled polar")


def test_criterion_05_b1_fixture():
    rep = analyze(data_from_fixture(load_fixture("b1")))
    assert (rep.p, rep.n, rep.euler) == (6, 66, -38)
    assert rep.fano_index == 2
    verdict(5, "B1: p=6, n=66, chi=-38, Fano index 2")


def test_criterion_06_decomposition_counts():
    hexagon = Polygon([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    assert len(enumerate_smooth_decompositions(
        edge_vector_multiset(hexagon))) == 2
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(enumerate_smooth_decompositions(
        edge_vector_multiset(square))) == 1
    verdict(6, "hexagon has exactly 2 smooth decompositions, unit square 1")


BUNDLED_REFLEXIVE = ("p3", "cube", "octahedron", "b3_cubic",
                     "q3_quadric", "hexagon_cone", "b4_intersection")


def test_criterion_07_identity24_bundled():
    for name in BUNDLED_REFLEXIVE:
        assert identity24(bundled(name)) == 24
    for name in ("diamond", "triangle", "hexagon", "pentagon"):
        data = product_data(bundled_polygon(name))
        assert identity24(data.polytope) == 24
    verdict(7, "24-identity holds on every bundled reflexive polytope "
               "(database sweep gated separately)")


@needs_db
def test_criterion_07_identity24_database(database):
    start = time.time()
    assert len(database) == 4319
    for i, p in database.items():
        assert identity24(p) == 24, f"identity failed at id {i}"
    took = time.time() - start
    assert took < 120
    verdict(7, f"24-identity verified on all 4319 database entries "
               f"in {took:.1f}s")


def _bundled_method1(name):
    """Method-1 data of a bundled reflexive polytope; None for b3_cubic,
    whose facets have no smooth Minkowski decomposition."""
    if name != "b3_cubic":
        return method1_data(bundled(name))
    with pytest.raises(DegenerationError) as err:
        method1_data(bundled(name))
    assert err.type is DegenerationError
    assert str(err.value) == ("no smooth Minkowski decomposition for the "
                              "facet dual to vertex 0")
    return None


def _method1_like(data):
    e = euler_number(data)
    if data.kind == "normal_fan" and data.polytope.is_reflexive():
        assert euler_smooth_mink(data) == e
    return e


def test_criterion_08_dual_euler_bundled():
    for name in BUNDLED_REFLEXIVE:
        data = _bundled_method1(name)
        if data is not None:
            _method1_like(data)
    for fix in ("b3_cubic", "v2", "b1", "mm2_1", "mm2_2", "mm2_3", "mm2_5",
                "mm3_2", "mm3_4", "mm3_5", "mm4_2", "mm5_1"):
        euler_number(data_from_fixture(load_fixture(fix)))
    for name in ("diamond", "triangle", "hexagon", "pentagon"):
        euler_number(product_data(bundled_polygon(name)))
    verdict(8, "slab formula, node census and closed form agree on every "
               "bundled fixture")


@needs_db
def test_criterion_08_dual_euler_database(database):
    rng = random.Random(2024)
    ids = sorted(database)
    chosen = 0
    tried = set()
    while chosen < 200 and len(tried) < len(ids):
        i = rng.choice(ids)
        if i in tried:
            continue
        tried.add(i)
        p = database[i]
        regimes = decomposition_regimes(p)
        if any(len(r) == 0 for r in regimes):
            continue
        data = method1_data(p, None, f"db{i}")
        e = euler_number(data)
        assert euler_smooth_mink(data) == e
        chosen += 1
    assert chosen == 200
    verdict(8, "dual Euler formulas agree on 200 random database polytopes")


def test_criterion_09_gamma_bundled():
    for name in BUNDLED_REFLEXIVE:
        data = _bundled_method1(name)
        if data is not None:
            assert baseline_ok(build_system(data))
    assert gamma_dimension(method1_data(bundled("p3"))) == 3
    assert gamma_dimension(method1_data(bundled("cube"))) == 3
    verdict(9, "torus baseline satisfies every bundled system; "
               "P^3 and the cube give dim Gamma = 3")


@needs_db
def test_criterion_09_gamma_database(database):
    # V12 polytope: the three decomposition regimes give b2 = 1, 2, 3
    p = database[3874]
    regimes = decomposition_regimes(p)
    counts = [len(r) for r in regimes]
    assert sorted(c for c in counts if c > 1) == [2, 2]
    choices = [[]]
    for c in counts:
        choices = [ch + [i] for ch in choices for i in range(c)]
    b2s = sorted(gamma_b2(method1_data(p, tuple(ch))) for ch in choices)
    assert b2s == [1, 1, 2, 3]
    # V16 polytope: two regimes with b2 = 1 and 2
    p = database[3031]
    counts = [len(r) for r in decomposition_regimes(p)]
    choices = [[]]
    for c in counts:
        choices = [ch + [i] for ch in choices for i in range(c)]
    assert sorted(gamma_b2(method1_data(p, tuple(ch)))
                  for ch in choices) == [1, 2]
    # V22 polytope: unique choice, b2 = 1, fast path agrees
    p = database[1886]
    data = method1_data(p)
    assert gamma_b2(data) == 1
    assert barT_hypothesis(data)
    assert barT_sections(data) == gamma_dimension(data)
    # hexagon-cone polytope: p in {6, 8}, n = 24
    p = database[155]
    counts = [len(r) for r in decomposition_regimes(p)]
    choices = [[]]
    for c in counts:
        choices = [ch + [i] for ch in choices for i in range(c)]
    stats = sorted((method1_data(p, tuple(ch)).p_count,
                    method1_data(p, tuple(ch)).n_count) for ch in choices)
    assert {s[1] for s in stats} == {24}
    assert {s[0] for s in stats} == {6, 8}
    verdict(9, "database Gamma checks: 3874 -> b2 in {1,2,3}, 3031 -> {1,2}, "
               "1886 -> 1 (fast path agrees), 155 -> p in {6,8}, n = 24")


def test_criterion_10_products():
    table = {"diamond": ("MM7-1", 24, 16), "triangle": ("MM8-1", 18, 18),
             "hexagon": ("MM5-3", 36, 12)}
    rows = {r["name"]: r for r in expected_rows()}
    for poly, (row_name, deg, chi) in table.items():
        rep = analyze(product_data(bundled_polygon(poly), poly))
        assert rep.p == rep.n == 0
        assert (rep.degree, rep.euler) == (deg, chi)
        row = rows[row_name]
        assert (row["degree"], row["p"], row["n"], row["chi"]) == \
            (rep.degree, rep.p, rep.n, rep.euler)
    verdict(10, "product rows: chi = 16, 18, 12 with p = n = 0, matching "
                "the table")


METHOD2 = {
    "mm2_1": (6, 66, 22, -38), "mm2_2": (12, 68, 22, -34),
    "mm2_3": (4, 40, 20, -16), "mm2_5": (3, 27, 18, -6),
    "mm3_2": (2, 20, 16, 2), "mm3_4": (2, 16, 14, 4),
    "mm3_5": (1, 11, 14, 8), "mm4_2": (0, 6, 6, 10), "mm5_1": (1, 5, 8, 12),
}


def test_criterion_11_method2_fixtures():
    for name, (p, n, bd, chi) in METHOD2.items():
        rep = analyze(data_from_fixture(load_fixture(name)))
        assert (rep.p, rep.n, rep.boundary_count, rep.euler) == \
            (p, n, bd, chi), name
        # b2 for these rows is stated by the source, not recomputed here
        assert rep.provenance["b2"] == "source: paper"
    verdict(11, "method-2 fixtures reproduce all stated node and Euler "
                "counts; b2 values carry their source tag")


@needs_db
def test_criterion_12_full_table_replay(database, capsys):
    from fanoscope import cli
    code = cli.main(["table", "expected", "--db", db_path()])
    out = capsys.readouterr().out
    assert code == 0, "table replay reported failing rows"
    bad = [ln for ln in out.splitlines() if "FAIL" in ln]
    assert not bad, bad
    verdict(12, "full table replay reproduces every method-1 row")
