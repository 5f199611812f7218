"""Ids follow polar duality: facet i of P is dual to vertex i of P*, and
facet j of P* to vertex j of P.

`LatticePolytope` sorts facets by their dual vertex (level-0 facets, which
have none, last by normal), and `_dual_from_faces` builds P* in P's ids, so
no caller re-sorts or remaps them.  On a reflexive P the dual vertex of a
facet is its normal, so the old sort by normal agreed; the seeded GL(3,Z)
images of `b1` and `v2` below are ones where it did not.
"""

import json
import random

import pytest

from conftest import bundled, mat_vec, random_unimodular3
from test_face_data import face_fields
from fanoscope import cli
from fanoscope.degeneration import decomposition_regimes
from fanoscope.fileio import bundled_polytopes
from fanoscope.polytope import LatticePolytope

NAMES = sorted(k for k in bundled_polytopes() if k != "polygons")
SEEDS = range(40)
# seeds whose image was not sorted by dual vertex under a sort by normal
UNSORTED_BY_NORMAL = {"b1": (8, 14, 17, 24), "v2": (23, 28, 30)}
# the origin interior, (2, 0, 0) not primitive
NON_PRIMITIVE = [(2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
# the origin on the facet z = 0
ORIGIN_ON_FACET = [(1, 0, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]


def image(p, seed):
    m = random_unimodular3(random.Random(seed))
    return LatticePolytope([tuple(mat_vec(m, list(v))) for v in p.vertices])


def check_convention(p):
    dual = p.polar_dual()
    assert [f.dual for f in p.facets] == list(dual.vertices)
    assert [f.dual for f in dual.facets] == list(p.vertices)
    assert face_fields(LatticePolytope(dual.vertices)) == face_fields(dual)


@pytest.mark.parametrize("name", NAMES)
def test_facet_i_is_dual_to_vertex_i(name):
    p = bundled(name)
    hull_dual = LatticePolytope(p.polar_dual().vertices)
    for q in (p, hull_dual):
        check_convention(q)
        for seed in SEEDS:
            check_convention(image(q, seed))


@pytest.mark.parametrize("name", sorted(UNSORTED_BY_NORMAL))
def test_some_images_differ_from_the_normal_order(name):
    # so a sort by normal fails `test_facet_i_is_dual_to_vertex_i`
    for seed in UNSORTED_BY_NORMAL[name]:
        q = image(bundled(name), seed)
        assert [f.dual for f in q.facets] != [
            f.dual for f in sorted(q.facets, key=lambda f: f.normal)]


def test_a_non_primitive_vertex_keeps_the_convention():
    check_convention(LatticePolytope(NON_PRIMITIVE))


def test_level_zero_facets_come_last_by_normal():
    p = LatticePolytope(ORIGIN_ON_FACET)
    with_dual = [f for f in p.facets if f.dual is not None]
    assert [f.dual for f in with_dual] == sorted(f.dual for f in with_dual)
    rest = p.facets[len(with_dual):]
    assert rest and all(f.dual is None for f in rest)
    assert [f.normal for f in rest] == sorted(f.normal for f in rest)


@pytest.mark.parametrize("seed", UNSORTED_BY_NORMAL["v2"])
def test_decompositions_command_on_a_v2_image(seed, tmp_path, capsys):
    q = image(bundled("v2"), seed)
    path = tmp_path / "v2_image.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in q.vertices]}))
    assert cli.main(["decompositions", str(path)]) == 0
    entries = json.loads(capsys.readouterr().out)
    dual = q.polar_dual()
    regimes = decomposition_regimes(q)
    assert len(entries) == len(dual.vertices) == len(regimes)
    for e in entries:
        vid = e["facet_of_P_dual_to_dual_vertex"]
        assert e["dual_vertex"] == [str(x) for x in dual.vertices[vid]]
        assert e["count"] == len(regimes[vid])
