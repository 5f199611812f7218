import builtins
import copy
import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import (MISTYPED_POLYTOPES, W_SIMPLEX, bundled,
                      malformed_slab_fixtures, mistyped_fixtures,
                      mistyped_manifests, same_polytope,
                      unparsable_slab_fixtures)
from fanoscope import cli, degeneration
from fanoscope.degeneration import DegenerationData, DegenerationError
from fanoscope.fileio import (ParseError, bundled_polytopes,
                              data_from_fixture, ingest_database,
                              list_fixtures, load_fixture, parse_polytope)

P3_TEXT = "3 4\n1 0 0 -1\n0 1 0 -1\n0 0 1 -1\n"
P3_VERTICES = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]


def minidb(tmp_path):
    blocks = []
    for name in ("p3", "cube", "octahedron"):
        p = bundled(name)
        cols = list(zip(*p.vertices))
        blocks.append(f"3 {len(p.vertices)} test {name}")
        blocks.extend(" ".join(str(x) for x in row) for row in cols)
    path = tmp_path / "minidb.txt"
    path.write_text("\n".join(blocks) + "\n")
    return str(path)


def test_parse_json_roundtrip(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text('{"name": "p3", "palp_id": 0, "vertices": '
                    '[[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}')
    name, palp, q = parse_polytope(path.read_text())
    assert (name, palp) == ("p3", 0)
    assert q.vertices == bundled("p3").vertices


def test_parse_text_columns(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    _, _, q = parse_polytope(path.read_text())
    assert same_polytope(q, bundled("p3"))


def test_parse_text_rows(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("4 3\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n")
    _, _, q = parse_polytope(path.read_text())
    assert same_polytope(q, bundled("p3"))


def test_text_roundtrip(tmp_path):
    # the matrix text of each bundled polytope reads back as that polytope
    texts = {"p3": P3_TEXT,
             "octahedron": "3 6\n1 -1 0 0 0 0\n0 0 1 -1 0 0\n0 0 0 0 1 -1\n",
             "b3_cubic": "3 4\n0 -1 -1 2\n0 -1 2 -1\n1 -1 -1 -1\n"}
    for name, text in texts.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        _, _, q = parse_polytope(path.read_text())
        assert same_polytope(q, bundled(name))


def test_table_manifest_with_minidb(tmp_path):
    path = minidb(tmp_path)
    manifest = tmp_path / "rows.json"
    manifest.write_text(json.dumps({"rows": [
        {"name": "P3", "palp": 0, "degree": 64, "p": 4, "n": 24, "chi": 4,
         "method": "db"},
        {"name": "V8", "palp": 1, "degree": 8, "p": 0, "n": 48, "chi": -24,
         "method": "db"},
        {"name": "MM3-27", "palp": 2, "degree": 48, "p": 8, "n": 24, "chi": 8,
         "method": "db"},
    ]}))
    code, out, _ = run_cli("table", str(manifest), "--db", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(",ok" in ln for ln in lines[1:])
    # a wrong expectation must fail the run and name the row
    manifest.write_text(json.dumps({"rows": [
        {"name": "P3", "palp": 0, "degree": 64, "p": 5, "n": 24, "chi": 4,
         "method": "db"}]}))
    code, out, err = run_cli("table", str(manifest), "--db", path)
    assert code == 1
    assert "P3" in err


def test_table_manifest_row_without_method_is_a_db_row(tmp_path):
    path = minidb(tmp_path)
    manifest = tmp_path / "rows.json"
    row = {"name": "P3", "palp": 0, "degree": 64, "p": 4, "n": 24, "chi": 4}
    manifest.write_text(json.dumps({"rows": [row]}))
    with pytest.warns(UserWarning, match="expected 4319"):
        code, out, err = run_cli("table", str(manifest), "--db", path)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "P3,0,64,4,24,4,ok"


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 4\n1 0 0\n")
    with pytest.raises(ParseError):
        parse_polytope(bad.read_text())
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0],
                                             [0, 1, 0], [1, 1, 0]]}))
    with pytest.raises(ParseError, match="full-dimensional"):
        parse_polytope(flat.read_text())


def test_ingest_database(tmp_path):
    path = minidb(tmp_path)
    with pytest.warns(UserWarning, match="expected 4319"):
        entries = list(ingest_database(path))
    assert [i for i, _ in entries] == [0, 1, 2]
    assert same_polytope(entries[0][1], bundled("p3"))
    assert same_polytope(entries[1][1], bundled("cube"))


def test_fixture_inventory():
    names = list_fixtures()
    for wanted in ("b1", "b3_cubic", "v2", "mm2_1", "mm2_2", "mm2_3",
                   "mm2_5", "mm3_2", "mm3_4", "mm3_5", "mm4_2", "mm5_1"):
        assert wanted in names
    for name in names:
        if name in ("expected_invariants", "polytopes"):
            continue
        data = data_from_fixture(load_fixture(name))
        assert data.validate()


def run_cli(*argv):
    from io import StringIO
    out, err = StringIO(), StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_cli_analyze_deterministic():
    code1, out1, _ = run_cli("analyze", "p3")
    code2, out2, _ = run_cli("analyze", "p3")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["degree"] == 64 and doc["index"] == 4


def test_cli_analyze_fixture():
    code, out, _ = run_cli("analyze", "mm2_2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["p"], doc["n"], doc["euler"]) == (12, 68, -34)


def test_cli_analyze_auto_lists_choices():
    code, out, _ = run_cli("analyze", "p3", "--decomposition", "auto")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"].startswith("p3")


def test_cli_validation_failure_exits_1(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"name": "v2", "vertices": [
        list(v) for v in bundled("v2").vertices]}))
    code, _, err = run_cli("analyze", str(path))
    assert code == 1
    assert json.loads(err.strip())["error"]


def test_cli_parse_failure_exits_2(tmp_path):
    code, _, err = run_cli("analyze", str(tmp_path / "missing.json"))
    assert code == 2
    assert json.loads(err.strip())["error"]


def test_cli_truncated_database_exits_2(tmp_path):
    path = tmp_path / "truncated.txt"
    path.write_text("3 4\n1 0 0 -1\n0 1 0 -1\n")
    with pytest.raises(ParseError, match="block 0 is truncated"):
        list(ingest_database(str(path)))
    code, out, err = run_cli("verify24", "--db", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ParseError",
                                    "message": "database block 0 is truncated"}


def test_cli_database_non_integer_token_exits_2(tmp_path):
    path = tmp_path / "bad_token.txt"
    path.write_text("3 4\n1 0 x -1\n0 1 0 -1\n0 0 1 -1\n")
    code, out, err = run_cli("verify24", "--db", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ParseError"
    assert doc["message"].startswith("database block 0:") and "'x'" in doc["message"]


@pytest.mark.parametrize("command", ["verify24", "table"])
@pytest.mark.parametrize("text, message", [
    ("3 3\n1 0 0\n0 1 0\n0 0 1\n", "not full-dimensional"),
    ("0 3\n", "expected 3-space points"),
    ("2 2\n1 0\n0 1\n", "neither dimension is 3")])
def test_cli_database_block_that_is_no_polytope_exits_2(tmp_path, command,
                                                        text, message):
    # the block after P3's: the hull fails, or the block holds no points of
    # 3-space, and the error names the block, as a polytope file's does
    path = tmp_path / "db.txt"
    path.write_text(P3_TEXT + text)
    argv = {"verify24": ("verify24", "--db", str(path)),
            "table": ("table", "expected", "--db", str(path))}[command]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert one_json_line(err) == {"error": "ParseError",
                                  "message": f"database block 1: {message}"}


# PALP id 0 read as conv(+-2 e1, +-e2, +-e3), whose facets have index 2 and
# no smooth decomposition, or as a simplex with the origin on a facet
REFUSED_DB_ROWS = {
    "index 2": ("3 6\n2 -2 0 0 0 0\n0 0 1 -1 0 0\n0 0 0 0 1 -1\n",
                "no smooth Minkowski decomposition: facet of ray 0 is not "
                "divisible by its index 2"),
    "origin on a facet": ("3 4\n1 0 0 -1\n0 1 0 0\n0 0 1 0\n",
                          "origin is not interior")}


@pytest.mark.parametrize("key", sorted(REFUSED_DB_ROWS))
def test_table_fails_the_row_of_a_refused_polytope(tmp_path, key):
    text, message = REFUSED_DB_ROWS[key]
    path = tmp_path / "db.txt"
    path.write_text(text)
    csv_path = tmp_path / "table.csv"
    with pytest.warns(UserWarning, match="database has 1 entries"):
        code, out, err = run_cli("table", "expected", "--db", str(path),
                                 "--out", str(csv_path))
    assert code == 1 and out == ""
    doc = one_json_line(err)
    assert doc["error"] == "table" and "'P3'" in doc["message"]
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 106
    assert f"P3,0,64,4,24,4,FAIL: {message}" in rows


LINE_FAN_WITHOUT_DIRECTION = {
    "kind": "line_fan",
    "polytope": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "rays2d": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]],
}


@pytest.mark.parametrize("doc, key", [({"kind": "slabs"}, "slabs"),
                                      (LINE_FAN_WITHOUT_DIRECTION, "direction")])
def test_cli_fixture_missing_key_exits_2(tmp_path, doc, key):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ParseError",
        "message": f"{doc['kind']} fixture without required key {key!r}"}


@pytest.mark.parametrize("ray_data", ["auto", {"rho_plus": []}])
def test_cli_fixture_ray_data_exits_2(tmp_path, ray_data):
    # line fans take each ray's summands from its facet's decompositions;
    # the explicit `ray_data` key is refused, not read as "auto"
    doc = dict(load_fixture("b3_cubic"), ray_data=ray_data)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path))
    assert code == 2 and out == ""
    assert one_json_line(err) == {
        "error": "ParseError",
        "message": "fixture key 'ray_data' is not read by a line_fan "
                   "fixture"}


@pytest.mark.parametrize("name, change, message", [
    ("b3_cubic", {"choice": [5, 5, 5]},
     "fixture key 'choice' is not read by a line_fan fixture"),
    ("v2", {"base_polygon": "nonsense", "slabs": 7},
     "fixture key 'base_polygon' is not read by a normal_fan fixture"),
    ("mm2_2", {"direction": [0, 0, 1]},
     "fixture key 'direction' is not read by a slabs fixture")])
def test_cli_fixture_key_of_another_kind_exits_2(tmp_path, name, change,
                                                 message):
    # each key is read by some other kind, and was ignored by this one
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({**load_fixture(name), **change}))
    code, out, err = run_cli("analyze", str(path))
    assert code == 2 and out == ""
    assert one_json_line(err) == {"error": "ParseError", "message": message}


def test_cli_verify24(tmp_path):
    path = minidb(tmp_path)
    code, out, _ = run_cli("verify24", "--db", path)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "id,sum,pass"
    assert lines[1:] == ["0,24,pass", "1,24,pass", "2,24,pass"]


def one_json_line(err):
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("target, choice", [
    ("p3", "0"),                              # 4 rays, 1 index
    ("p3", "0,0,0,0,0"),                      # 4 rays, 5 indices
    ("hexagon_cone", "0,0,0,-1,0,0,0"),       # negative index
    ("hexagon_cone", "0,0,0,-3,0,0,0")])
def test_cli_bad_decomposition_exits_1(target, choice):
    code, out, err = run_cli("analyze", target, f"--decomposition={choice}")
    assert code == 1 and out == ""
    doc = one_json_line(err)
    assert doc["error"] == "DegenerationError"
    assert "vertex" in doc["message"]


@pytest.mark.parametrize("choice, token", [("a", "a"), ("0,x,0,0", "x"),
                                           ("0,,0,0", ""), ("0,1.5,0,0", "1.5")])
def test_cli_non_integer_decomposition_exits_2(choice, token):
    code, out, err = run_cli("analyze", "p3", f"--decomposition={choice}")
    assert code == 2 and out == ""
    assert one_json_line(err) == {
        "error": "ParseError",
        "message": f"--decomposition index {token!r} is not an integer"}


@pytest.mark.parametrize("target, choice, token", [
    ("v2", "a", "a"), ("diamond", "0,x", "x"), ("b1", "1.5", "1.5")])
def test_cli_non_integer_decomposition_of_a_fixed_target_exits_2(
        target, choice, token):
    # fixtures (v2, b1) and product polygons (diamond) parse it too
    code, out, err = run_cli("analyze", target, f"--decomposition={choice}")
    assert code == 2 and out == ""
    assert one_json_line(err) == {
        "error": "ParseError",
        "message": f"--decomposition index {token!r} is not an integer"}


@pytest.mark.parametrize("command, target, choice", [
    ("analyze", "v2", "0"), ("analyze", "diamond", "7,7"),
    ("gamma", "b1", "0,0,0,0"), ("analyze", "hexagon", "1")])
def test_cli_decomposition_indices_of_a_fixed_target_exit_1(
        command, target, choice):
    code, out, err = run_cli(command, target, f"--decomposition={choice}")
    assert code == 1 and out == ""
    assert one_json_line(err) == {
        "error": "DegenerationError",
        "message": f"{target} has no decomposition choice: --decomposition "
                   "indices apply to a polytope only"}


@pytest.mark.parametrize("target", ["v2", "b1", "diamond"])
def test_cli_auto_decomposition_of_a_fixed_target_is_the_default(target):
    assert run_cli("analyze", target, "--decomposition", "auto") == \
        run_cli("analyze", target)


@pytest.mark.parametrize("command", ["analyze", "gamma"])
@pytest.mark.parametrize("name, message", [
    ("mm2_5", "no smooth Minkowski decomposition for the facet dual to "
              "vertex 1"),
    ("b1", "method 1 needs a reflexive polytope")], ids=["mm2_5", "b1"])
def test_cli_auto_without_a_choice_fails_as_the_plain_command(
        tmp_path, command, name, message):
    # read from files, since the bundled names resolve to fixtures
    verts = bundled_polytopes()[name]["vertices"]
    if name == "mm2_5":  # PALP text: a 3 x n header, one row per coordinate
        path = tmp_path / f"{name}.txt"
        path.write_text(f"3 {len(verts)}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in zip(*verts)))
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": verts}))
    plain = run_cli(command, str(path))
    assert plain[:2] == (1, "")
    assert one_json_line(plain[2]) == {"error": "DegenerationError",
                                       "message": message}
    assert run_cli(command, str(path), "--decomposition", "auto") == plain


def v2_fixture_with(tmp_path, **changes):
    doc = load_fixture("v2")
    doc.update(changes)
    path = tmp_path / "v2_variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_malformed_slab_fixture(tmp_path, key):
    doc, message = malformed_slab_fixtures()[key]
    path = tmp_path / f"mm2_2_{key}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path))
    assert code == 1 and out == ""
    assert one_json_line(err) == {"error": "DegenerationError",
                                  "message": message}


def test_cli_slab_fixture_with_mismatched_ray_spans_exits_1(tmp_path,
                                                         monkeypatch):
    # construction checks the fixture, once, and `analyze` not again
    calls = []
    real = DegenerationData.validate
    monkeypatch.setattr(DegenerationData, "validate",
                        lambda self: calls.append(self) or real(self))
    run_malformed_slab_fixture(tmp_path, "edge_span")
    assert len(calls) == 1


@pytest.mark.parametrize("key", ["endpoints", "spine", "unattached"])
def test_cli_malformed_slab_fixture_exits_1(tmp_path, key):
    run_malformed_slab_fixture(tmp_path, key)


def test_cli_malformed_slab_fixture_discriminant_exits_1(tmp_path):
    # the reader's data is checked as it is built, so `discriminant` gives
    # the construction check's message (it gave "unconsumed stubs ['P2/s8',
    # 'P112a/s7', 'SQa/s8']" from `assemble_global`) and draws nothing
    doc, message = malformed_slab_fixtures()["endpoints"]
    path = tmp_path / "mm2_2_endpoints.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("discriminant", str(path),
                             "--svg", str(tmp_path / "svg"))
    assert code == 1 and out == ""
    assert one_json_line(err) == {"error": "DegenerationError",
                                  "message": message}
    assert not (tmp_path / "svg").exists()


P3_LABELS_0 = {"kind": "normal_fan", "polytope": [[1, 0, 0], [0, 1, 0],
                                                  [0, 0, 1], [-1, -1, -1]],
               "edge_values": 0}


def refused_fixtures():
    """id -> (fixture document, the error that refuses it): p3's normal
    fan with every label 0, now refused for the key that writes a label,
    and the malformed mm2_2 fixtures, by the construction check."""
    out = {"p3_labels_0": (P3_LABELS_0, {
        "error": "ParseError", "message": "fixture key 'edge_values' is not "
        "read by a normal_fan fixture"})}
    out.update((key, (doc, {"error": "DegenerationError", "message": message}))
               for key, (doc, message) in malformed_slab_fixtures().items())
    return out


@pytest.mark.parametrize("key", sorted(refused_fixtures()))
def test_cli_commands_give_one_verdict_on_refused_data(tmp_path, key):
    # `gamma` printed b2: 1 for p3 with labels 0 and raised a GammaError
    # on the mm2_2 faults, and `discriminant` named leftover stubs: now
    # every command refuses the data as it is read, with one message
    doc, error = refused_fixtures()[key]
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(doc))
    outdir = tmp_path / "svg"
    for argv in (("analyze", str(path)), ("gamma", str(path)),
                 ("discriminant", str(path), "--svg", str(outdir))):
        code, out, err = run_cli(*argv)
        assert code == (2 if error["error"] == "ParseError" else 1), argv
        assert out == "" and one_json_line(err) == error
    assert not outdir.exists()




def test_cli_derives_the_labels_of_a_non_reflexive_simplex(tmp_path):
    # with no labels written, `gamma` and `discriminant` print what they
    # printed for W with the labels 2, 2, 2, 2, 2, 1 written out; a label
    # l(E*) = 2 on E5 was refused, and `analyze` still refuses W's degree
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"kind": "normal_fan", "name": "W",
                                "polytope": W_SIMPLEX}))
    code, out, err = run_cli("gamma", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "alpha_cones": ["E0", "E1", "E2", "E3", "E4", "E5"], "b2": 1,
        "dim_gamma": 3, "name": "W",
        "solution_basis": [["0", "0", "0", "1", "1", "-1"],
                           ["0", "1", "1", "1", "1", "0"],
                           ["1", "1", "0", "1", "0", "0"]]}
    outdir = tmp_path / "svg"
    code, out, err = run_cli("discriminant", str(path), "--svg", str(outdir))
    assert (code, err) == (0, "")
    assert json.loads(out) == [{
        "boundary": 21, "graph": str(outdir / "W.json"), "name": "W",
        "negative": 39, "positive": 6, "svg": str(outdir / "W.svg")}]
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in outdir.iterdir()} == {
        "W.json": "e2a7c4c87273f3025f7231542fb40a3c"
                  "598db2f4cf36211f068b42d49cc3948c",
        "W.svg": "cefeecaff216fb810f6ecbbb8c25537"
                 "863ae8d8eddd9fcf94d3a86c92c660bf6"}
    code, out, err = run_cli("analyze", str(path))
    assert code == 1 and out == ""
    assert one_json_line(err) == {
        "error": "InvariantError",
        "message": "boundary area 27/2 of the polar dual is not an integer"}


def role_edits():
    """(slab name, edge, document) for each edge of each slab of every slab
    fixture, with that edge's role made "foo"."""
    for name in list_fixtures():
        doc = load_fixture(name)
        if doc.get("kind") != "slabs":
            continue
        for i, spec in enumerate(doc["slabs"]):
            for j in range(len(spec["polygon"])):
                edit = copy.deepcopy(doc)
                edit["slabs"][i].setdefault("roles", {})[str(j)] = "foo"
                yield spec["name"], j, edit


def test_every_unknown_role_is_refused_naming_its_slab_and_edge():
    # the reader took any string as a role: 75 of these passed the old
    # check, and only a cross-check or the leftover stubs refused them
    edits = list(role_edits())
    assert len(edits) == 111
    for slab, j, doc in edits:
        with pytest.raises(DegenerationError) as err:
            data_from_fixture(doc)
        assert str(err.value) == (f"slab {slab}: edge {j} has role 'foo', "
                                  "not boundary, spine or ray:<r>")


def test_cli_refuses_an_unknown_role(tmp_path):
    # mm5_1 with its first slab's edge 1 given the role "foo": `analyze`
    # refused it only through the Euler cross-check ("formula mismatch:
    # 12 != 11") and `discriminant` through its leftover stubs
    doc = load_fixture("mm5_1")
    doc["slabs"][0].setdefault("roles", {})["1"] = "foo"
    path = tmp_path / "mm5_1_foo.json"
    path.write_text(json.dumps(doc))
    for argv in (("analyze", str(path)),
                 ("discriminant", str(path), "--svg", str(tmp_path / "s"))):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert one_json_line(err) == {
            "error": "DegenerationError",
            "message": f"slab {doc['slabs'][0]['name']}: edge 1 has role "
                       "'foo', not boundary, spine or ray:<r>"}
    assert not (tmp_path / "s").exists()


def test_cli_discriminant_refuses_a_ray_on_an_unknown_slab(tmp_path):
    # mm2_2 with rays.R1[0].slabs = ["NOPE", "P2", "SQa"]: the reader
    # refuses it before any slab is glued or any drawing is written (it
    # was a KeyError traceback from `assemble_global`)
    doc, message = unparsable_slab_fixtures()["entry_unknown_slab"]
    path = tmp_path / "mm2_2_unknown_slab.json"
    path.write_text(json.dumps(doc))
    outdir = tmp_path / "svg"
    code, out, err = run_cli("discriminant", str(path), "--svg", str(outdir))
    assert code == 2 and out == ""
    assert one_json_line(err) == {"error": "ParseError", "message": message}
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["analyze", "discriminant"])
def test_cli_refuses_two_slabs_with_one_name(tmp_path, command):
    # mm2_2 with a copy of its F1 slab appended: `discriminant --svg` drew
    # a graph whose node ids repeat (72 negative and 24 boundary nodes
    # against MM2-2's 68 and 22), and `analyze` refused it only through
    # the global ray-endpoint sum; the reader now refuses the second F1
    doc, message = unparsable_slab_fixtures()["slab_name_repeated"]
    path = tmp_path / "mm2_2_two_f1.json"
    path.write_text(json.dumps(doc))
    outdir = tmp_path / "svg"
    argv = {"analyze": ("analyze", str(path)),
            "discriminant": ("discriminant", str(path), "--svg",
                             str(outdir))}[command]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert one_json_line(err) == {"error": "ParseError", "message": message}
    assert not outdir.exists()


def test_cli_fixture_is_told_by_its_kind_key(tmp_path):
    # "kind" 600 characters into the file: still a fixture
    doc = load_fixture("b1")
    doc["b2"]["source"] = "x" * 600
    path = tmp_path / "b1_long_source.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["provenance"]["b2"] == "source: " + "x" * 600
    # a polytope named "kind" has no "kind" key: still a polytope
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"name": "kind",
                                "vertices": bundled("p3").vertices}))
    code, out, err = run_cli("analyze", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {**json.loads(run_cli("analyze", "p3")[1]),
                               "name": "kind.json"}


@pytest.mark.parametrize("key", ["edge_values", "choice"])
def test_cli_fixture_non_integer_key_exits_2(tmp_path, key):
    # an object keyed by index, once read for either key, is refused: the
    # labels are derived and a choice is a list
    path = v2_fixture_with(tmp_path, **{key: {"0": 6, "x": 6}})
    code, out, err = run_cli("analyze", path)
    assert code == 2 and out == ""
    assert one_json_line(err) == {"error": "ParseError", "message": {
        "edge_values": "fixture key 'edge_values' is not read by a "
                       "normal_fan fixture",
        "choice": "choice must be a list of integers, not {'0': 6, "
                  "'x': 6}"}[key]}


def test_cli_fixture_choice_key_off_the_dual_exits_1(tmp_path):
    # ten indices for the four vertices of p3's polar dual
    path = tmp_path / "p3_choice.json"
    path.write_text(json.dumps({"kind": "normal_fan", "name": "P3",
                                "polytope": bundled("p3").vertices,
                                "choice": [0] * 10}))
    code, out, err = run_cli("analyze", str(path))
    assert code == 1 and out == ""
    assert one_json_line(err) == {
        "error": "DegenerationError",
        "message": "got 10 decomposition indices, need one per vertex 0..3 "
                   "of the polar dual"}


@pytest.mark.parametrize("argv", [("analyze",),
                                  ("analyze", "p3", "--decomposition"),
                                  ("verify24", "--parallel", "2"),
                                  ()])
def test_cli_usage_error_exits_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert one_json_line(err)["error"] == "ParseError"


def test_cli_gamma():
    code, out, _ = run_cli("gamma", "cube")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_gamma"] == 3 and doc["b2"] == 1
    assert len(doc["solution_basis"]) == 3


def test_cli_discriminant(tmp_path):
    outdir = tmp_path / "svg"
    code, out, _ = run_cli("discriminant", "b1", "--svg", str(outdir))
    assert code == 0
    doc = json.loads(out)[0]
    assert os.path.exists(doc["svg"]) and os.path.exists(doc["graph"])
    assert (doc["positive"], doc["negative"]) == (6, 66)


def test_cli_table_without_db():
    code, out, _ = run_cli("table", "expected")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Name,PALP ID,Degree,p,n,chi,Notes"
    assert len(lines) == 106
    assert not any(",FAIL" in ln for ln in lines)
    assert sum("method 2" in ln for ln in lines) == 11
    assert sum("ok (product)" in ln for ln in lines) == 4


def test_cli_entrypoint_subprocess():
    # the child imports fanoscope from where this process does, which
    # pytest's `pythonpath` setting puts on sys.path but not in the
    # environment
    src = os.path.dirname(os.path.dirname(degeneration.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "fanoscope.cli",
                           "analyze", "octahedron"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["euler"] == 8


def test_cli_analyze_fixture_file(tmp_path):
    from fanoscope.fileio import FIXTURE_DIR
    src = FIXTURE_DIR / "mm3_2.json"
    dst = tmp_path / "local_fixture.json"
    dst.write_text(src.read_text())
    # its "kind" key makes the file a fixture
    code, out, _ = run_cli("analyze", str(dst))
    assert code == 0
    doc = json.loads(out)
    assert (doc["p"], doc["n"], doc["euler"]) == (2, 20, 2)


def test_parse_rejects_non_fano(tmp_path):
    from fanoscope.polytope import PolytopeError
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(
        {"vertices": [[1, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2]]}))
    with pytest.raises(PolytopeError, match="Fano"):
        parse_polytope(shifted.read_text())


SLAB_OUT_OF_ORDER = {"kind": "slabs",
                     "slabs": [{"name": "S0",
                                "polygon": [[0, 1], [0, 0], [1, 0]]}]}


@pytest.mark.parametrize("command, file, text, message", [
    ("analyze", "bad.json", '{"vertices": [[1, 0, 0],',
     "bad JSON polytope: "),
    ("analyze", "nameless.json", '{"name": "p3"}',
     "polytope JSON without vertices"),
    ("analyze", "one_number.txt", "3\n1 0 0 -1\n0 1 0 -1\n0 0 1 -1\n",
     "matrix header must be 'rows cols'"),
    ("analyze", "square.txt", "2 2\n1 0\n0 1\n", "neither dimension is 3"),
    ("analyze", "letters.txt", "a b\n1 2 3",
     "bad matrix polytope: invalid literal for int() with base 10: 'a'"),
    ("analyze", "flat.json", '{"vertices": [[1, 0], [0, 1], [-1, -1]]}',
     "polytope vertices entry must be a list of 3 integers, not [1, 0]"),
    # a file that is not JSON through to its end says nothing of its kind,
    # and JSON that is not an object holding "kind" is a polytope
    ("fixture", "bad_fixture.json", '{"kind": "slabs", "slabs": [',
     "bad JSON polytope: "),
    ("fixture", "list_fixture.json", "[1, 2]",
     "polytope JSON must be a JSON object"),
    ("fixture", "slab_order.json", json.dumps(SLAB_OUT_OF_ORDER),
     "slab S0: polygon must be listed in canonical ccw order starting at "
     "the lex-least vertex; canonical is [[0, 0], [1, 0], [0, 1]]"),
    ("verify24", "ragged.txt", "3 4\n1 0 0 -1\n0 1 0\n0 0 1 -1\n",
     "database block 0 is ragged"),
    *[(command, f"mm2_2_{key}.json", json.dumps(doc), message)
      for command in ("analyze", "discriminant")
      for key, (doc, message) in unparsable_slab_fixtures().items()],
    *[("fixture", f"{key}.json", json.dumps(doc), message)
      for key, (doc, message) in mistyped_fixtures().items()],
    *[("analyze", f"{key}.json", text, message)
      for key, (text, message) in MISTYPED_POLYTOPES.items()],
    *[("table", f"{key}.json", json.dumps(doc), message)
      for key, (doc, message) in mistyped_manifests().items()]])
def test_cli_malformed_input_exits_2(tmp_path, command, file, text, message):
    path = tmp_path / file
    path.write_text(text)
    # "fixture" is a file that holds, or was meant to hold, a fixture
    argv = {"analyze": ("analyze", str(path)),
            "fixture": ("analyze", str(path)),
            "discriminant": ("discriminant", str(path), "--svg",
                             str(tmp_path / "svg")),
            "verify24": ("verify24", "--db", str(path)),
            "table": ("table", str(path))}[command]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    doc = one_json_line(err)
    assert doc["error"] == "ParseError"
    # a JSON error message goes on with the decoder's own words
    assert doc["message"] == message or (
        message.endswith(": ") and doc["message"].startswith(message))


@pytest.mark.parametrize("command, file", [
    ("analyze", "latin1.json"),
    ("fixture", "latin1.json"),
    ("decompositions", "latin1.txt"),
    ("verify24", "latin1.txt"),
    ("table", "latin1.json")])
def test_cli_non_utf8_input_exits_2(tmp_path, command, file):
    # a byte that starts no UTF-8 sequence, inside otherwise valid input
    path = tmp_path / file
    key = b'"kind": "slabs"' if command == "fixture" else b'"vertices": []'
    path.write_bytes(b'{"name": "caf\xe9", ' + key + b'}\n')
    argv = {"analyze": ("analyze", str(path)),
            "fixture": ("analyze", str(path)),
            "decompositions": ("decompositions", str(path)),
            "verify24": ("verify24", "--db", str(path)),
            "table": ("table", str(path))}[command]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert one_json_line(err)["error"] == "UnicodeDecodeError"


@pytest.mark.parametrize("target", ["p3", "cube"])
def test_cli_decompositions_facet_is_its_entry(target):
    code, out, _ = run_cli("decompositions", target)
    assert code == 0
    listing = json.loads(out)
    for k, entry in enumerate(listing):
        code, out, _ = run_cli("decompositions", target, f"--facet={k}")
        assert code == 0 and json.loads(out) == [entry]


@pytest.mark.parametrize("target, facet, last", [
    ("p3", -1, 3), ("p3", 4, 3), ("cube", -1, 5), ("cube", 6, 5),
    ("cube", 99, 5)])
def test_cli_decompositions_facet_out_of_range_exits_1(target, facet, last):
    code, out, err = run_cli("decompositions", target, f"--facet={facet}")
    assert code == 1 and out == ""
    assert one_json_line(err) == {
        "error": "DegenerationError",
        "message": f"--facet {facet} names no facet 0..{last}"}


def test_cli_edge_rule_on_no_edge_exits_1(tmp_path):
    doc = load_fixture("b3_cubic")
    doc["edge_data"].append({"meets": [50, 50, 50], "value": 7})
    path = tmp_path / "b3_far_rule.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(path))
    assert code == 1 and out == ""
    assert one_json_line(err) == {
        "error": "DegenerationError",
        "message": "edge rule point (50, 50, 50) lies on no edge of the "
                   "polar polytope"}


def test_cli_product_fixture(tmp_path):
    path = tmp_path / "hexagon_product.json"
    path.write_text(json.dumps({
        "kind": "product",
        "base_polygon": bundled_polytopes()["polygons"]["hexagon"]}))
    code, out, err = run_cli("analyze", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["degree"], report["euler"], report["b2"]) == (36, 12, 5)


def test_cli_decompositions_facet_ignores_other_facets():
    # facet 0 of b1 is refused, and with it the whole listing, but facet 1
    # has an 18-letter word with one decomposition
    assert run_cli("decompositions", "b1")[0] == 1
    code, out, err = run_cli("decompositions", "b1", "--facet=1")
    assert (code, err) == (0, "")
    [entry] = json.loads(out)
    assert entry["facet_of_P_dual_to_dual_vertex"] == 1
    assert entry["count"] == 1


def test_cli_decompositions_facet_enumerates_it_alone(monkeypatch):
    words = []
    real = degeneration.enumerate_smooth_decompositions
    monkeypatch.setattr(degeneration, "enumerate_smooth_decompositions",
                        lambda word: words.append(word) or real(word))
    code, out, _ = run_cli("decompositions", "hexagon_cone", "--facet=0")
    assert code == 0 and len(json.loads(out)) == 1
    assert len(words) == 1


@pytest.mark.parametrize("command", ["analyze", "decompositions"])
def test_cli_polygons_is_no_polytope_name(command):
    # "polygons" is the key of polytopes.json that holds the product
    # polygons, not a polytope: it is a path like any other unknown name
    code, out, err = run_cli(command, "polygons")
    assert code == 2 and out == ""
    assert one_json_line(err) == {
        "error": "FileNotFoundError",
        "message": "[Errno 2] No such file or directory: 'polygons'"}


def test_a_file_is_read_before_a_bundled_name_of_its_stem(tmp_path,
                                                          monkeypatch):
    # "mm2_2.json" names no bundled target, so it is the file in the working
    # directory, even though its stem is a bundled fixture
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mm2_2.json").write_text(json.dumps(
        dict(load_fixture("mm2_2"), name="my MM2-2")))
    code, out, err = run_cli("analyze", "mm2_2.json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {**json.loads(run_cli("analyze", "mm2_2")[1]),
                               "name": "my MM2-2"}


@pytest.mark.parametrize("command, file", [
    (command, file) for command in ("analyze", "gamma", "discriminant",
                                    "decompositions")
    for file in ("fixture.json", "polytope.json", "polytope.txt")
    if command != "decompositions" or file != "fixture.json"])
def test_cli_opens_its_target_once(tmp_path, monkeypatch, command, file):
    path = tmp_path / file
    path.write_text({"fixture.json": json.dumps(load_fixture("v2")),
                     "polytope.json": json.dumps({"vertices": P3_VERTICES}),
                     "polytope.txt": P3_TEXT}[file])
    opened = []
    real = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kw:
                        opened.append(file) or real(file, *args, **kw))
    extra = ("--svg", str(tmp_path / "svg")) if command == "discriminant" \
        else ()
    code, out, err = run_cli(command, str(path), *extra)
    assert (code, err) == (0, "")
    assert opened.count(str(path)) == 1
