import random

import pytest

from conftest import bundled, random_unimodular3
from fanoscope.degeneration import (line_fan_data, method1_data,
                                    normal_fan_data)
from fanoscope.gamma import (GammaError, b2, barT_hypothesis, barT_sections,
                             baseline_ok, build_system, gamma_dimension)
from fanoscope.linalg import mat_vec, rank
from fanoscope.polytope import LatticePolytope


def test_p3_and_cube_dimension_three():
    assert gamma_dimension(method1_data(bundled("p3"))) == 3
    assert gamma_dimension(method1_data(bundled("cube"))) == 3
    assert b2(method1_data(bundled("p3"))) == 1
    assert b2(method1_data(bundled("cube"))) == 1


def test_octahedron_rank_three():
    assert b2(method1_data(bundled("octahedron"))) == 3


def test_v2_rank_one():
    assert b2(normal_fan_data(bundled("v2"), 6)) == 1


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
    block = system.rows[:3]
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
