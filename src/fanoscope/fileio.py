"""Polytope files, the reflexive-polytope database, and bundled fixtures."""

from __future__ import annotations

import json
import warnings
from importlib import resources

from .degeneration import (DegenerationData, RaySummand, Slab,
                           line_fan_data, normal_fan_data, product_data)
from .polytope import LatticePolytope, Polygon, PolytopeError


class ParseError(ValueError):
    pass


EXPECTED_DB_SIZE = 4319


def _fixture_dir():
    return resources.files("fanoscope") / "fixtures"


def parse_polytope(path_or_text, name=None):
    """Read a polytope from JSON {"name", "palp_id", "vertices"} or from a
    whitespace matrix with an "r c" header.  Returns (name, palp_id, P)."""
    text = path_or_text
    if "\n" not in str(path_or_text) and not str(path_or_text).lstrip().startswith("{"):
        with open(path_or_text) as fh:
            text = fh.read()
    text = text.strip()
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON polytope: {exc}") from exc
        verts = doc.get("vertices")
        if not verts:
            raise ParseError("polytope JSON without vertices")
        return (doc.get("name", name or "polytope"), doc.get("palp_id"),
                _build(verts))
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        header = [int(x) for x in lines[0].split()[:2]]
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad matrix polytope: {exc}") from exc
    if len(header) != 2:
        raise ParseError("matrix header must be 'rows cols'")
    r, c = header
    if len(rows) != r or any(len(row) != c for row in rows):
        raise ParseError(f"matrix body does not match header {r}x{c}")
    verts = _orient(rows, r, c)
    return (name or "polytope", None, _build(verts))


def _orient(rows, r, c):
    if r == 3 and c != 3:
        return [list(col) for col in zip(*rows)]
    if c == 3:
        return rows  # rows are vertices; covers the ambiguous 3x3 case
    raise ParseError("neither dimension is 3")


def _build(verts):
    try:
        p = LatticePolytope(verts)
    except PolytopeError as exc:
        raise ParseError(str(exc)) from exc
    if not p.is_fano():
        raise PolytopeError("not a Fano polytope: vertices must be primitive "
                            "with the origin strictly interior")
    return p


def ingest_database(path):
    """Stream (id, LatticePolytope) from the published 3D reflexive list.

    Blocks are an 'r c ...' header line followed by an r x c integer matrix;
    vertices sit in columns when r == 3.  Ids are 0-based positions.
    """
    count = 0
    with open(path) as fh:
        lines = iter(fh)
        for line in lines:
            parts = line.split()
            if len(parts) < 2:
                continue
            try:
                r, c = int(parts[0]), int(parts[1])
            except ValueError:
                continue
            block = []
            for _ in range(r):
                row = next(lines, None)
                if row is None:
                    raise ParseError(f"database block {count} is truncated")
                try:
                    block.append([int(x) for x in row.split()])
                except ValueError as exc:
                    raise ParseError(f"database block {count}: {exc}") from exc
            if any(len(row) != c for row in block):
                raise ParseError(f"database block {count} is ragged")
            verts = _orient(block, r, c)
            yield count, LatticePolytope(verts)
            count += 1
    if count != EXPECTED_DB_SIZE:
        warnings.warn(f"database has {count} entries, expected "
                      f"{EXPECTED_DB_SIZE}", stacklevel=2)


# ---------------------------------------------------------------------------
# fixtures


def load_fixture(name_or_path) -> dict:
    text = None
    name = str(name_or_path)
    if name.endswith(".json") and "/" in name:
        with open(name) as fh:
            text = fh.read()
    else:
        base = name[:-5] if name.endswith(".json") else name
        res = _fixture_dir() / f"{base}.json"
        try:
            text = res.read_text()
        except FileNotFoundError:
            with open(name_or_path) as fh:
                text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad fixture JSON: {exc}") from exc


def list_fixtures():
    out = []
    for entry in _fixture_dir().iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[:-5])
    return sorted(out)


# keys each fixture kind cannot do without
REQUIRED_KEYS = {"normal_fan": ("polytope",),
                 "line_fan": ("polytope", "direction", "rays2d"),
                 "product": ("base_polygon",),
                 "slabs": ("slabs",)}
# the keys some fixture kind reads, and the invariants a fixture pins
FIXTURE_KEYS = {"kind", "name", "polytope", "edge_values", "choice",
                "direction", "rays2d", "edge_data", "base_polygon", "slabs",
                "rays", "vertex_count", "b2", "degree", "boundary_components",
                "expected"}


def _require(doc, keys, where):
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"{where} without required key {key!r}")


def _int_keyed(doc, key):
    """doc[key], with the string keys of a JSON object read as indices."""
    value = doc.get(key)
    if not isinstance(value, dict):
        return value
    out = {}
    for k, v in value.items():
        try:
            out[int(k)] = v
        except ValueError:
            raise ParseError(f"{key} key {k!r} is not an integer") from None
    return out


def data_from_fixture(doc: dict) -> DegenerationData:
    _require(doc, (), "fixture")
    kind = doc.get("kind")
    if kind not in REQUIRED_KEYS:
        raise ParseError(f"unknown fixture kind {kind!r}")
    unread = set(doc) - FIXTURE_KEYS
    if unread:
        raise ParseError(f"fixture key {min(unread)!r} is read by no kind")
    name = doc.get("name", "fixture")
    _require(doc, REQUIRED_KEYS[kind], f"{kind} fixture")
    p = LatticePolytope(doc["polytope"]) if doc.get("polytope") else None
    if kind == "normal_fan":
        data = normal_fan_data(p, _int_keyed(doc, "edge_values"),
                               _int_keyed(doc, "choice"), name)
    elif kind == "line_fan":
        data = line_fan_data(p, doc["direction"], doc["rays2d"],
                             doc.get("edge_data", []), name)
    elif kind == "product":
        data = product_data(Polygon(doc["base_polygon"]), name)
    else:
        data = _slab_fixture(doc, name, p)
    if doc.get("vertex_count") is not None:
        data.vertex_count = _typed(doc["vertex_count"], int,
                                   "fixture vertex_count")
    if doc.get("b2") is not None:
        _require(doc["b2"], ("value",), "fixture b2 block")
        data.b2_fixture = _typed(doc["b2"]["value"], int, "fixture b2 value")
        data.b2_source = doc["b2"].get("source", "fixture")
    if doc.get("degree") is not None:
        data.degree_fixture = _typed(doc["degree"], int, "fixture degree")
    if doc.get("boundary_components") is not None:
        data.boundary_components = _typed(doc["boundary_components"], int,
                                          "fixture boundary_components")
    return data


JSON_TYPES = {dict: "object", list: "list", int: "integer", str: "string"}


def _typed(value, cls, where):
    """value, refused unless it is the JSON type that cls names (an
    integer is an int, not a bool)."""
    if type(value) is not cls:
        raise ParseError(f"{where} must be a JSON {JSON_TYPES[cls]}, not "
                         f"{value!r}")
    return value


def _per_edge(spec, key, where, k, default):
    """A slab's k per-edge values: default, but where spec[key], an object
    keyed by edge index, gives one."""
    out = [default] * k
    for idx, val in _typed(spec.get(key, {}), dict, f"{where}: {key}").items():
        if idx not in map(str, range(k)):
            raise ParseError(f"{where}: {key} key {idx!r} names no edge "
                             f"0..{k - 1}")
        out[int(idx)] = val
    return out


def _slab_fixture(doc, name, p):
    slabs = []
    built = {}  # (polygon, coeffs) -> its first slab, within this fixture
    for i, spec in enumerate(doc["slabs"]):
        _require(spec, ("name", "polygon"), f"slab {i}")
        poly = Polygon(spec["polygon"])
        if [list(v) for v in poly.vertices] != [list(v) for v in spec["polygon"]]:
            raise ParseError(
                f"slab {spec['name']}: polygon must be listed in canonical "
                f"ccw order starting at the lex-least vertex; canonical is "
                f"{[list(v) for v in poly.vertices]}")
        k, where = len(poly.vertices), f"slab {spec['name']}"
        coeffs = [_typed(c, int, f"{where}: coeff")
                  for c in _per_edge(spec, "coeffs", where, k, 0)]
        roles = [_typed(r, str, f"{where}: role")
                 for r in _per_edge(spec, "roles", where, k, "boundary")]
        slabs.append(Slab.shared(built, spec["name"], poly, tuple(coeffs),
                                 tuple(roles)))
    summands = []
    names = [slab.name for slab in slabs]
    rays = _typed(doc.get("rays", {}), dict, "slab fixture rays")
    for ray, entries in rays.items():
        for ent in _typed(entries, list, f"ray {ray}"):
            _require(ent, ("kind",), f"ray {ray} entry")
            cnt = _typed(ent.get("count", 1), int, f"ray {ray} entry count")
            on = tuple(_typed(ent.get("slabs", []), list,
                              f"ray {ray} entry slabs"))
            kind = ent["kind"]
            if kind not in ("point", "segment", "triangle"):
                raise ParseError(f"ray {ray} entry kind must be point, "
                                 f"segment or triangle, not {kind!r}")
            need = {"point": 0, "segment": 2, "triangle": 3}[kind]
            if len(on) != need or any(s not in names or on.count(s) > 1
                                      for s in on):
                raise ParseError(f"ray {ray} entry slabs must be {need} "
                                 f"distinct slabs of the fixture for a "
                                 f"{kind}, not {list(on)}")
            for _ in range(cnt):
                summands.append(RaySummand(ray, kind, on))
    data = DegenerationData(name=name, kind="slabs", slabs=slabs,
                            ray_summands=summands, polytope=p,
                            dual=p.polar_dual() if p else None)
    return data


def expected_rows():
    """The bundled table of expected invariants for the 105 families."""
    doc = json.loads((_fixture_dir() / "expected_invariants.json").read_text())
    return doc["rows"]


def bundled_polytopes() -> dict:
    return json.loads((_fixture_dir() / "polytopes.json").read_text())
