"""The package's public names: every export resolves, once, and what was
deleted as dead API or as an unused knob stays gone; no private routine
and no imported name of the package is left unused."""

import ast
import importlib
import inspect
import pathlib

import fanoscope
from fanoscope.degeneration import line_fan_data, normal_fan_data
from fanoscope.discriminant import dual_graph
from fanoscope.invariants import fano_index
from fanoscope.linalg import nullity
from fanoscope.polytope import LatticePolytope, Polygon

DELETED = [("polytope", "convex_hull"),
           ("minkowski", "Summand.edge_normals"),
           ("discriminant", "UnimodularTriangulation.count"),
           ("fileio", "serialize_polytope"),
           ("fileio", "serialize_polytope_text"),
           ("degeneration", "_dual_facet"),
           ("degeneration", "_d1_verdict"),
           ("degeneration", "_sv_remainder_ok"),
           ("polytope", "Polygon.dilate"),
           ("polytope", "LatticePolytope.dilate"),
           ("degeneration", "Sections.counts"),
           ("degeneration", "Sections.support"),
           ("minkowski", "Summand.face_length"),
           ("polytope", "LatticePolytope.point_counts"),
           ("degeneration", "_on_segment"),
           ("minkowski", "minkowski_sum"),
           ("polytope", "Polygon.normalized"),
           ("polytope", "Polygon.translate"),
           ("degeneration", "_coords_in"),
           ("polytope", "LatticePolytope.dual_face_vertices"),
           ("degeneration", "facet_in_ray_coords"),
           ("degeneration", "_ray_target"),
           ("degeneration", "_ray_facets"),
           ("minkowski", "POINT"),
           ("minkowski", "segment"),
           ("minkowski", "triangle"),
           ("minkowski", "Summand.dim"),
           ("polytope", "Polygon.edge_vector_multiset"),
           ("polytope", "face_length"),
           ("degeneration", "_polygon_polar"),
           ("degeneration", "_dual_edge_length"),
           ("degeneration", "_clip_halfplane"),
           ("degeneration", "_unproject"),
           ("gamma", "_annihilators"),
           ("fileio", "_fixture_dir"),
           ("polytope", "Polygon.is_integral"),
           ("degeneration", "check_convexity"),
           ("degeneration", "check_smooth_edge_data"),
           ("degeneration", "check_compatibility"),
           ("degeneration", "_check_keys"),
           ("fileio", "_values"),
           ("degeneration", "EmptyLinearSystem")]


def resolves(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_export_resolves_once():
    names = fanoscope.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(fanoscope, n)]
    assert missing == []


def test_deleted_names_stay_gone():
    for module, dotted in DELETED:
        mod = importlib.import_module(f"fanoscope.{module}")
        assert not resolves(mod, dotted), f"{module}.{dotted}"
        assert dotted not in fanoscope.__all__
    # the resolver does find names that exist
    assert resolves(importlib.import_module("fanoscope.minkowski"),
                    "Summand.polygon_vertices")
    # LatticePolytope compares by identity again; Polygon keeps its __eq__
    polytope = importlib.import_module("fanoscope.polytope")
    assert polytope.LatticePolytope.__eq__ is object.__eq__
    assert polytope.Polygon.__eq__ is not object.__eq__


def test_explicit_decomposition_knobs_stay_gone():
    # normal_fan_data derives each edge label from P and takes no label
    assert not {"ray_decompositions", "edge_values"} & set(
        inspect.signature(normal_fan_data).parameters)
    assert "ray_summand_spec" not in inspect.signature(
        line_fan_data).parameters


def test_unused_parameters_stay_gone():
    # dual_graph reads the slab alone; fano_index is handed b2 and the
    # degree; nullity is told its number of unknowns
    assert list(inspect.signature(dual_graph).parameters) == ["slab"]
    index_params = inspect.signature(fano_index).parameters
    assert not {"known_b2", "known_degree"} & set(index_params)
    assert all(p.default is inspect.Parameter.empty
               for p in index_params.values())
    ncols = inspect.signature(nullity).parameters["ncols"]
    assert ncols.default is inspect.Parameter.empty
    # a polygon is always the hull of its points
    assert list(inspect.signature(Polygon).parameters) == ["points"]


def test_vertex_facet_incidence_stays_gone():
    # the incidence that `dual_face_vertices` read, built for every P and P*
    p = LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    assert not hasattr(p, "_facets_at")
    assert not hasattr(p.polar_dual(), "_facets_at")


SOURCES = {path.stem: ast.parse(path.read_text())
           for path in pathlib.Path(fanoscope.__file__).parent.glob("*.py")}


def used_names(tree):
    """Every name that a tree reads: each `Name` and attribute, and the
    strings of a module's `__all__`, which exports them."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            out.update(ast.literal_eval(node.value))
    return out


def test_every_private_routine_is_referenced():
    used = set().union(*map(used_names, SOURCES.values()))
    unused = [f"{module}.{node.name}"
              for module, tree in sorted(SOURCES.items())
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in used]
    assert unused == []


def test_every_imported_name_is_used():
    unused = []
    for module, tree in sorted(SOURCES.items()):
        used = used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in used]
    assert unused == []
