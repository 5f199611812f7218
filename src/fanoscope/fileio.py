"""The input layer: command-line targets, polytope files, table manifests,
the reflexive-polytope database, and bundled fixtures."""

from __future__ import annotations

import copy
import json
import os
import warnings
from importlib import resources
from math import isfinite

from .degeneration import (SUMMAND_SLABS, DegenerationData, RaySummand, Slab,
                           line_fan_data, normal_fan_data, product_data)
from .polytope import LatticePolytope, Polygon, PolytopeError


class ParseError(ValueError):
    pass


EXPECTED_DB_SIZE = 4319

FIXTURE_DIR = resources.files("fanoscope") / "fixtures"


def read_target(target):
    """What a command-line target names, tried in a fixed order: a bundled
    product polygon, a bundled fixture, a bundled polytope.  Anything else
    is a file, read and parsed once, and its content says what it is: a
    JSON object with a "kind" key is a fixture, any other content a
    polytope.  Returns the degeneration data of a polygon or a fixture,
    whose decomposition is fixed, and (name, P) for a polytope."""
    table = bundled_polytopes()
    polygons = table.pop("polygons")
    if target in polygons:
        return product_data(Polygon(polygons[target]), target)
    if target in list_fixtures():
        return data_from_fixture(load_fixture(target))
    if target in table:
        return target, LatticePolytope(table[target]["vertices"])
    with open(target) as fh:
        text = fh.read()
    doc = _json(text)
    if isinstance(doc, dict) and "kind" in doc:
        return data_from_fixture(doc)
    return os.path.basename(target), _polytope(doc, text)[2]


def read_polytope(target) -> LatticePolytope:
    """The last two steps of `read_target`: a bundled polytope by name, or
    the polytope a file holds (so a polygon or fixture name is a path)."""
    table = bundled_polytopes()
    del table["polygons"]
    if target in table:
        return LatticePolytope(table[target]["vertices"])
    with open(target) as fh:
        return parse_polytope(fh.read())[2]


def parse_polytope(text):
    """Read a polytope from JSON text {"name", "palp_id", "vertices"} or
    from a whitespace matrix with an "r c" header.  Returns (name, palp_id,
    P)."""
    return _polytope(_json(text), text)


def _json(text):
    """The JSON document of text that opens with { or [; None for any
    other text, which is a matrix."""
    if not text.lstrip().startswith(("{", "[")):
        return None
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON polytope: {exc}") from exc


def _json_int(digits):
    """`parse_int` of the input files' JSON: an integer of more digits
    than int() reads is a ParseError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(f"bad JSON integer: {exc}") from None


def _polytope(doc, text):
    """`parse_polytope` of a JSON document, or of matrix text when doc is
    None."""
    if doc is not None:
        _require(doc, (), "polytope JSON")
        if not doc.get("vertices"):
            raise ParseError("polytope JSON without vertices")
        return (doc.get("name", "polytope"), doc.get("palp_id"),
                _build(doc["vertices"], "polytope vertices"))
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
    return "polytope", None, _build(_orient(rows, r, c), "matrix polytope")


def _orient(rows, r, c):
    if r == 3 and c != 3:
        return [list(col) for col in zip(*rows)]
    if c == 3:
        return rows  # rows are vertices; covers the ambiguous 3x3 case
    raise ParseError("neither dimension is 3")


def _build(verts, where):
    """The Fano polytope of verts, a list of 3-integer lists; a hull that
    fails is a ParseError that names where."""
    try:
        p = LatticePolytope(_points(verts, 3, where))
    except PolytopeError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if not p.is_fano():
        raise PolytopeError("not a Fano polytope: vertices must be primitive "
                            "with the origin strictly interior")
    return p


def ingest_database(path):
    """Stream (id, LatticePolytope) from the published 3D reflexive list.

    Blocks are an 'r c ...' header line followed by an r x c integer matrix;
    vertices sit in columns when r == 3.  Ids are 0-based positions.  A
    block that is no polytope of 3-space is a ParseError naming the block.
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
            try:
                p = LatticePolytope(_orient(block, r, c))
            except (ParseError, PolytopeError) as exc:
                raise ParseError(f"database block {count}: {exc}") from exc
            yield count, p
            count += 1
    if count != EXPECTED_DB_SIZE:
        warnings.warn(f"database has {count} entries, expected "
                      f"{EXPECTED_DB_SIZE}", stacklevel=2)


# ---------------------------------------------------------------------------
# fixtures


def load_fixture(name) -> dict:
    """The JSON document of a bundled fixture, by name."""
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text())


def list_fixtures():
    out = []
    for entry in FIXTURE_DIR.iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[:-5])
    return sorted(out)


# the keys each fixture kind reads: those it cannot do without, then the rest
KIND_KEYS = {"normal_fan": (("polytope",), ("choice",)),
             "line_fan": (("polytope", "direction", "rays2d"), ("edge_data",)),
             "product": (("base_polygon",), ()),
             "slabs": (("slabs",), ("polytope", "rays"))}
# the keys every kind reads: its kind and name, and the invariants it pins
COMMON_KEYS = {"kind", "name", "expected", "b2", "degree", "vertex_count",
               "boundary_components"}


def _require(doc, keys, where):
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"{where} without required key {key!r}")


def data_from_fixture(doc: dict) -> DegenerationData:
    _require(doc, (), "fixture")
    kind = doc.get("kind")
    if type(kind) is not str or kind not in KIND_KEYS:
        raise ParseError(f"unknown fixture kind {kind!r}")
    required, optional = KIND_KEYS[kind]
    unread = set(doc).difference(COMMON_KEYS, required, optional)
    if unread:
        raise ParseError(f"fixture key {min(unread)!r} is not read by a "
                         f"{kind} fixture")
    name = _typed(doc.get("name", "fixture"), str, "fixture name")
    _require(doc, required, f"{kind} fixture")
    # the invariants a fixture pins, read before the data is built; those
    # it states go to `DegenerationData.stated` with their source: the
    # paper's, or what a b2 block names ("fixture" when it names none)
    extra = {key: _typed(doc[key], int, f"fixture {key}")
             for key in ("vertex_count", "degree", "boundary_components")
             if doc.get(key) is not None}
    stated = {key: (extra.pop(key), "paper")
              for key in ("degree", "boundary_components") if key in extra}
    if doc.get("b2") is not None:
        _require(doc["b2"], ("value",), "fixture b2 block")
        stated["b2"] = (_typed(doc["b2"]["value"], int, "fixture b2 value"),
                        doc["b2"].get("source") or "fixture")
    if stated:
        extra["stated"] = stated
    p = None
    if "polytope" in doc:
        p = _build(doc["polytope"], "fixture polytope")
    if kind == "slabs":
        return _slab_fixture(doc, name, p, extra)
    if kind == "normal_fan":
        choice = doc.get("choice")
        if choice is not None:
            _vector(choice, None, "choice")
        data = normal_fan_data(p, choice, name)
    elif kind == "line_fan":
        data = line_fan_data(p, _vector(doc["direction"], 3, "direction"),
                             _points(doc["rays2d"], 3, "rays2d"),
                             _rules(doc.get("edge_data", [])), name)
    else:
        data = product_data(Polygon(_points(doc["base_polygon"], 2,
                                            "base_polygon")), name)
    if extra:
        # `validate` reads neither `vertex_count` nor `stated`, so they
        # go on a copy of the checked data, with no second check
        data = copy.copy(data)
        vars(data).update(extra)
    return data


JSON_TYPES = {dict: "object", list: "list", int: "integer", str: "string"}


def _typed(value, cls, where):
    """value, refused unless it is the JSON type that cls names (an
    integer is an int, not a bool)."""
    if type(value) is not cls:
        raise ParseError(f"{where} must be a JSON {JSON_TYPES[cls]}, not "
                         f"{value!r}")
    return value


def _vector(value, n, where, kinds=(int,)):
    """value, refused unless it is a list of n JSON integers, or of n
    numbers of the given kinds; of any length when n is None."""
    if type(value) is not list or n not in (None, len(value)) or any(
            type(x) not in kinds for x in value):
        what = "integers" if kinds == (int,) else "numbers"
        count = "" if n is None else f"{n} "
        raise ParseError(f"{where} must be a list of {count}{what}, not "
                         f"{value!r}")
    return value


def _points(value, n, where):
    """value, refused unless it is a list of n-integer lists."""
    for point in _typed(value, list, where):
        _vector(point, n, f"{where} entry")
    return value


def _rules(value):
    """A line fan's edge_data: a list of {"meets": 3 finite numbers,
    "value": an integer}."""
    for i, rule in enumerate(_typed(value, list, "edge_data")):
        _require(rule, ("meets", "value"), f"edge_data entry {i}")
        meets = _vector(rule["meets"], 3, f"edge_data entry {i} meets",
                        (int, float))
        if any(type(x) is float and not isfinite(x) for x in meets):
            raise ParseError(f"edge_data entry {i} meets must be finite, not "
                             f"{meets!r}")
        _typed(rule["value"], int, f"edge_data entry {i} value")
    return value


def _per_edge(value, where, cls, k):
    """A JSON object keyed by index, read as {index: value} with each value
    of JSON type cls, each key naming one of k edges."""
    out = {}
    for key, val in _typed(value, dict, where).items():
        try:
            idx = int(key)
        except ValueError:
            raise ParseError(f"{where} key {key!r} is not an "
                             "integer") from None
        if not 0 <= idx < k:
            raise ParseError(f"{where} key {key!r} names no edge 0..{k - 1}")
        out[idx] = _typed(val, cls, f"{where}[{key!r}]")
    return out


def _slab_fixture(doc, name, p, extra):
    slabs = []
    built = {}  # (polygon, coeffs) -> its first slab, within this fixture
    specs = _typed(doc["slabs"], list, "slab fixture slabs")
    for i, spec in enumerate(specs):
        _require(spec, ("name", "polygon"), f"slab {i}")
        where = f"slab {_typed(spec['name'], str, f'slab {i} name')}"
        if any(slab.name == spec["name"] for slab in slabs):
            raise ParseError(f"{where}: the name of an earlier slab")
        poly = Polygon(_points(spec["polygon"], 2, f"{where}: polygon"))
        if [list(v) for v in poly.vertices] != spec["polygon"]:
            raise ParseError(
                f"{where}: polygon must be listed in canonical ccw order "
                f"starting at the lex-least vertex; canonical is "
                f"{[list(v) for v in poly.vertices]}")
        k = len(poly.vertices)
        coeffs = _per_edge(spec.get("coeffs", {}), f"{where}: coeffs", int, k)
        roles = _per_edge(spec.get("roles", {}), f"{where}: roles", str, k)
        slabs.append(Slab.shared(
            built, spec["name"], poly,
            tuple(coeffs.get(j, 0) for j in range(k)),
            tuple(roles.get(j, "boundary") for j in range(k))))
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
            if type(kind) is not str or kind not in SUMMAND_SLABS:
                raise ParseError(f"ray {ray} entry kind must be point, "
                                 f"segment or triangle, not {kind!r}")
            need = SUMMAND_SLABS[kind]
            if len(on) != need or any(s not in names or on.count(s) > 1
                                      for s in on):
                raise ParseError(f"ray {ray} entry slabs must be {need} "
                                 f"distinct slabs of the fixture for a "
                                 f"{kind}, not {list(on)}")
            for _ in range(cnt):
                summands.append(RaySummand(ray, kind, on))
    return DegenerationData(name=name, kind="slabs", slabs=slabs,
                            ray_summands=summands, polytope=p, **extra)


def expected_rows():
    """The bundled table of expected invariants for the 105 families."""
    doc = json.loads((FIXTURE_DIR / "expected_invariants.json").read_text())
    return doc["rows"]


def bundled_polytopes() -> dict:
    return json.loads((FIXTURE_DIR / "polytopes.json").read_text())


# the keys every table manifest row holds, with their JSON types
ROW_KEYS = {"name": str, "degree": int, "p": int, "n": int, "chi": int}


def read_manifest(target):
    """The rows of a table manifest: the bundled table for "expected", else
    a JSON file {"rows": [...]}.  A row holds ROW_KEYS and a "palp" id (an
    integer or null), and may hold a string "method"; a "fixture:<name>" or
    "product:<name>" method names a bundled fixture or polygon."""
    if target == "expected":
        return expected_rows()
    with open(target) as fh:
        doc = json.load(fh, parse_int=_json_int)
    _require(doc, ("rows",), "manifest")
    names = {"fixture": list_fixtures(),
             "product": bundled_polytopes()["polygons"]}
    for i, row in enumerate(_typed(doc["rows"], list, "manifest rows")):
        where = f"manifest row {i}"
        _require(row, (*ROW_KEYS, "palp"), where)
        for key, cls in ROW_KEYS.items():
            _typed(row[key], cls, f"{where} {key}")
        if row["palp"] is not None:
            _typed(row["palp"], int, f"{where} palp")
        kind, colon, name = _typed(row.get("method", "db"), str,
                                   f"{where} method").partition(":")
        if colon and kind in names and name not in names[kind]:
            raise ParseError(f"{where} method names no bundled {kind} "
                             f"{name!r}")
    return doc["rows"]
