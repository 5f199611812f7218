"""A derandomized fuzz of the command line's input layer.

The inputs are every bundled fixture, every bundled polytope written as a
JSON file, and a table manifest of four bundled rows (one per method).  Each
key is dropped, and each value down to depth 2 is replaced by each of
`JUNK`; a manifest's rows get the same, and so does each coordinate of
each edge rule point (`meets`) of a line-fan fixture.  Each run is
`analyze`, or `table` for a manifest.  Every fixture's mutants are also
drawn with
`discriminant --svg`, and a slab fixture's entries at depth 3 (each key of
`slabs[i]` and of `rays.<R>[i]`) get the same drop and replacements under
`analyze`.  A small database in the PALP layout (a p3 block and an
octahedron block) has each line dropped and each token replaced by each of
`DB_JUNK`, under `verify24 --db` and `table expected --db`; and each of
`DECOMPOSITION_JUNK` is passed as `--decomposition` to `analyze`, `gamma`
and `discriminant --svg` on a polytope of one choice, one of several, a
product and a fixture.  Every in-process `cli.main` run must either exit 0
with a report, or exit 1 or 2 with an empty stdout and exactly one JSON
error line on stderr: never a traceback.  A database run may also put the
database size warning on stderr, as one JSON line before any error.
"""

import contextlib
import io
import json
import re

import pytest

from fanoscope import cli
from fanoscope.fileio import (bundled_polytopes, expected_rows, list_fixtures,
                              load_fixture)

JUNK = ("x", [], {}, True, None, 1.5, [["x"]], float("inf"), float("nan"))
# a db row, a fixture row, a product row and one stated only
MANIFEST_ROWS = ("P3", "MM2-2", "MM8-1", "MM9-1")


def children(value):
    if isinstance(value, dict):
        return list(value)
    return range(len(value)) if isinstance(value, list) else []


def mutants(doc):
    """(label, doc changed once): each key of doc, or of a value of doc that
    is an object, dropped, and each value of doc, or of a value of doc that
    is an object or a list, replaced by each of JUNK."""
    out = []
    for key, value in doc.items():
        out.append((f"drop {key}", {k: v for k, v in doc.items() if k != key}))
        out += [(f"{key} = {junk!r}", {**doc, key: junk}) for junk in JUNK]
        for sub in children(value):
            if isinstance(value, dict):
                dropped = {k: v for k, v in value.items() if k != sub}
                out.append((f"drop {key}.{sub}", {**doc, key: dropped}))
            for junk in JUNK:
                changed = value.copy()
                changed[sub] = junk
                out.append((f"{key}.{sub} = {junk!r}", {**doc, key: changed}))
    return out


def entry_mutants(doc):
    """(label, doc changed once) for a slab fixture: each key of each entry
    of its `slabs` list and of its ray lists dropped, or its value replaced
    by each of JUNK."""
    out = []
    lists = [("slabs", lambda d: d["slabs"])]
    lists += [(f"rays.{ray}", lambda d, ray=ray: d["rays"][ray])
              for ray in doc["rays"]]
    for where, entries in lists:
        for i, entry in enumerate(entries(doc)):
            changes = [(f"drop {key}", {k: v for k, v in entry.items()
                                        if k != key}) for key in entry]
            changes += [(f"{key} = {junk!r}", {**entry, key: junk})
                        for key in entry for junk in JUNK]
            for label, changed in changes:
                new = json.loads(json.dumps(doc))
                entries(new)[i] = changed
                out.append((f"{where}[{i}]: {label}", new))
    return out


def fixture_mutants(doc):
    """`mutants` of a fixture, and for a line fan each coordinate of each
    edge rule point replaced by each of JUNK."""
    out = mutants(doc)
    for i, rule in enumerate(doc.get("edge_data", [])):
        for j in range(len(rule["meets"])):
            for junk in JUNK:
                new = json.loads(json.dumps(doc))
                new["edge_data"][i]["meets"][j] = junk
                out.append((f"edge_data.{i}.meets.{j} = {junk!r}", new))
    return out


def manifest_mutants():
    by_name = {row["name"]: row for row in expected_rows()}
    rows = [by_name[name] for name in MANIFEST_ROWS]
    out = mutants({"rows": rows})
    for i, row in enumerate(rows):
        out += [(f"rows.{i}: {label}",
                 {"rows": rows[:i] + [changed] + rows[i + 1:]})
                for label, changed in mutants(row)]
    return out


def inputs():
    """(command, label, doc) for every fuzzed run."""
    out = []
    for name in list_fixtures():
        doc = load_fixture(name)
        if "kind" in doc:
            out += [("analyze", f"{name}: {label}", changed)
                    for label, changed in fixture_mutants(doc)]
    table = bundled_polytopes()
    for name in sorted(set(table) - {"polygons"}):
        doc = {"name": name, **table[name]}
        out += [("analyze", f"{name}: {label}", changed)
                for label, changed in mutants(doc)]
    out += [("table", f"manifest: {label}", changed)
            for label, changed in manifest_mutants()]
    return out


# the database size warning, as the CLI reports it
SIZE_WARNING = re.compile(r'\{"message": "database has \d+ entries, expected '
                          r'4319", "warning": "UserWarning"\}')


def verdict(argv):
    """None when cli.main(argv) reports or refuses cleanly, else what it
    did wrong."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the fault this test looks for, reported
            return f"{type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    if lines and SIZE_WARNING.fullmatch(lines[0]):
        lines.pop(0)
    if code == 0:
        return None if out.getvalue() and not lines else \
            "exit 0 without a report"
    if code not in (1, 2) or len(lines) != 1:
        return f"exit {code} with {len(lines)} stderr lines"
    doc = json.loads(lines[0])
    if set(doc) != {"error", "message"}:
        return f"stderr line {lines[0]}"
    # only a table or verify24 whose rows fail is written before it is
    # refused
    if out.getvalue() and doc["error"] not in ("table", "verify24"):
        return f"exit {code} with a report"
    return None


def test_every_malformed_input_exits_cleanly(tmp_path, monkeypatch):
    monkeypatch.delenv("FANOSCOPE_DB", raising=False)
    path = tmp_path / "target.json"
    cases = inputs()
    assert len(cases) > 3000  # 3,596 runs
    faults = []
    for command, label, doc in cases:
        path.write_text(json.dumps(doc))
        fault = verdict([command, str(path)])
        if fault:
            faults.append(f"{label}: {fault}")
    assert faults == []


def run_all(cases, argv, tmp_path):
    """The faults of `verdict` over (label, doc) cases, each written to
    one file whose path `argv` turns into the command line."""
    path = tmp_path / "target.json"
    faults = []
    for label, doc in cases:
        path.write_text(json.dumps(doc))
        fault = verdict(argv(str(path)))
        if fault:
            faults.append(f"{label}: {fault}")
    return faults


def test_every_fixture_mutant_is_drawn_or_refused(tmp_path, monkeypatch):
    monkeypatch.delenv("FANOSCOPE_DB", raising=False)
    svg = str(tmp_path / "svg")
    cases = [(f"{name}: {label}", changed) for name in list_fixtures()
             if "kind" in (doc := load_fixture(name))
             for label, changed in fixture_mutants(doc)]
    assert len(cases) == 2357  # v2 has no edge_values key to mutate
    assert run_all(cases, lambda path: ["discriminant", path, "--svg", svg],
                   tmp_path) == []


def test_every_slab_entry_mutant_exits_cleanly(tmp_path, monkeypatch):
    monkeypatch.delenv("FANOSCOPE_DB", raising=False)
    cases = [(f"{name}: {label}", changed) for name in list_fixtures()
             if (doc := load_fixture(name)).get("kind") == "slabs"
             for label, changed in entry_mutants(doc)]
    assert len(cases) == 1710
    assert run_all(cases, lambda path: ["analyze", path], tmp_path) == []


def test_the_fuzz_sees_a_traceback(monkeypatch):
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: {}["x"])
    assert verdict(["analyze", "p3"]) == "KeyError: 'x'"


# a header that reads, one that reads no block, one of the wrong size
DB_JUNK = ("x", "", "-1", "0", "1.5", "3 4", "0 3", "2 2")
DB_BLOCKS = ("p3", "octahedron")


def database_mutants():
    """(label, database text changed once): each line of a PALP-layout
    database of `DB_BLOCKS` dropped, and each of its tokens replaced by
    each of `DB_JUNK`."""
    table = bundled_polytopes()
    lines = []
    for name in DB_BLOCKS:
        vertices = table[name]["vertices"]
        lines.append(f"3 {len(vertices)} {name}")
        lines += [" ".join(map(str, col)) for col in zip(*vertices)]
    out = [(f"drop line {i}", lines[:i] + lines[i + 1:])
           for i in range(len(lines))]
    for i, line in enumerate(lines):
        tokens = line.split()
        for j in range(len(tokens)):
            for junk in DB_JUNK:
                changed = " ".join(tokens[:j] + [junk] + tokens[j + 1:])
                out.append((f"line {i} token {j} = {junk!r}",
                            lines[:i] + [changed] + lines[i + 1:]))
    return [(label, "\n".join(text) + "\n") for label, text in out]


def test_every_database_mutant_exits_cleanly(tmp_path, monkeypatch):
    monkeypatch.delenv("FANOSCOPE_DB", raising=False)
    path = tmp_path / "db.txt"
    cases = database_mutants()
    assert len(cases) == 296
    faults = []
    for label, text in cases:
        path.write_text(text)
        for argv in (["verify24", "--db", str(path)],
                     ["table", "expected", "--db", str(path)]):
            fault = verdict(argv)
            if fault:
                faults.append(f"{label}, {argv[0]}: {fault}")
    assert faults == []


DECOMPOSITION_JUNK = ("", "x", ",", "0,", ",0", "-1", "0,0,0", "0,0,0,0,0",
                      "9,9,9,9", "1.5", "0,x", "auto,0", "AUTO", " 0", "0 0",
                      "1" * 30)
# one choice, several choices, a product and a fixture
DECOMPOSITION_TARGETS = ("p3", "hexagon_cone", "diamond", "b3_cubic")


def test_every_junk_decomposition_exits_cleanly(tmp_path, monkeypatch):
    monkeypatch.delenv("FANOSCOPE_DB", raising=False)
    svg = str(tmp_path / "svg")
    faults = []
    for target in DECOMPOSITION_TARGETS:
        for junk in DECOMPOSITION_JUNK:
            for argv in (["analyze", target], ["gamma", target],
                         ["discriminant", target, "--svg", svg]):
                fault = verdict(argv + ["--decomposition", junk])
                if fault:
                    faults.append(f"{target} {junk!r}, {argv[0]}: {fault}")
    assert faults == []
