"""The three workloads and their exact oracles.

An item is one closed-loop unit of work: `run()` calls fanoscope's public
functions and returns a canonical, JSON-serialisable output, and `check()`
compares that output with an oracle that does not come from the code under
test (the paper's table, the fixtures' `expected` blocks, pinned hashes,
pinned decomposition counts).  Every call goes through a module attribute
(`invariants.analyze`, not a name imported from it), so the tracer's
rebinding sees it.

Import this module only after `checkout.require_source()`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass
from typing import Callable

from checkout import EXPECTED, SRC, WORK
import corpus
from fanoscope import (cli, degeneration, discriminant, fileio, invariants,
                       polytope)

FIXTURES = SRC / "fanoscope" / "fixtures"

# The 7 method-1 analyses and the row of the paper's table each realises.
# hexagon_cone has two decompositions of the facet dual to vertex 3: three
# segments give the rank-two row, two triangles the rank-three row.
METHOD1 = (
    ("p3", "p3", None, "P3"),
    ("cube", "cube", None, "V8"),
    ("octahedron", "octahedron", None, "MM3-27"),
    ("q3_quadric", "q3_quadric", None, "Q3"),
    ("b4_intersection", "b4_intersection", None, "B4"),
    ("hexagon_cone/segments", "hexagon_cone", (0, 0, 0, 0, 0, 0, 0), "MM2-32"),
    ("hexagon_cone/triangles", "hexagon_cone", (0, 0, 0, 1, 0, 0, 0), "MM3-28"),
)

# fixture `expected` key -> report key
EXPECTED_KEYS = {"boundary": "boundary_points", "chi": "euler",
                 "degree": "degree", "index": "index", "n": "n", "p": "p"}
TABLE_OK_ROWS = 15
TABLE_SKIPPED_ROWS = 88


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def pinned() -> dict:
    return json.loads(EXPECTED.read_text())


def build(workload: str, seed: int) -> list[Item]:
    """The items of one pass; only `sweep` depends on the seed."""
    if workload == "sweep":
        return sweep_items(seed)
    return {"bundled": bundled_items, "table": table_items}[workload]()


def run_pass(items: list[Item]):
    """Run every item once, in order; returns (outputs, seconds per item).
    An item that raises yields {"error": ...}, which its oracle rejects."""
    outputs, times = [], []
    for item in items:
        start = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # the run goes on; audit() counts it
            out = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, times


def audit(items: list[Item], outputs: list) -> list[str]:
    """One message per item whose output is missing, raised, or disagrees
    with its oracle; an empty list means the pass is correct."""
    bad = []
    for i, item in enumerate(items):
        if i >= len(outputs):
            bad.append(f"{item.label}: no output")
            continue
        out = outputs[i]
        if isinstance(out, dict) and "error" in out:
            bad.append(f"{item.label}: raised {out['error']}")
            continue
        msg = item.check(out)
        if msg:
            bad.append(f"{item.label}: {msg}")
    if len(outputs) > len(items):
        bad.append(f"{len(outputs) - len(items)} outputs without an item")
    return bad


# ---------------------------------------------------------------------------
# bundled: analyze + assemble_global on every bundled target


def _analyze_and_assemble(data) -> dict:
    report = invariants.analyze(data).to_dict()
    graph = discriminant.assemble_global(data)
    return {"report": report, "census": list(graph.census()),
            "graph": discriminant.export_json(graph)}


def _bundled_check(sha, row=None, expected=None):
    def check(out):
        rep = out["report"]
        if row is not None:
            want = (row["degree"], row["p"], row["n"], row["chi"], row["b2_table"])
            got = (rep["degree"], rep["p"], rep["n"], rep["euler"], rep.get("b2"))
            if got != want:
                return f"(degree, p, n, chi, b2) = {got}, table row {row['name']} has {want}"
        for key, val in (expected or {}).items():
            if rep.get(EXPECTED_KEYS[key]) != val:
                return f"{key} = {rep.get(EXPECTED_KEYS[key])}, fixture expects {val}"
        census = [rep["p"], rep["n"], rep["boundary_points"]]
        if out["census"] != census:
            return f"graph census {out['census']} != slab counts {census}"
        if digest(out) != sha:
            return f"report sha256 {digest(out)[:12]} != pinned {sha[:12]}"
        return None
    return check


def bundled_items() -> list[Item]:
    shas = pinned()["bundled_sha256"]
    rows = json.loads((FIXTURES / "expected_invariants.json").read_text())["rows"]
    by_name = {r["name"]: r for r in rows}
    by_method = {r["method"]: r for r in rows}
    table = fileio.bundled_polytopes()
    items = []

    for label, name, choice, row in METHOD1:
        verts = table[name]["vertices"]
        run = (lambda verts=verts, choice=choice, label=label:
               _analyze_and_assemble(degeneration.method1_data(
                   polytope.LatticePolytope(verts), choice, label)))
        items.append(Item(label, run,
                          _bundled_check(shas[label], by_name[row])))

    for name in sorted(table["polygons"]):
        label = f"product:{name}"
        verts = table["polygons"][name]
        run = (lambda verts=verts, label=label: _analyze_and_assemble(
            degeneration.product_data(polytope.Polygon(verts), label)))
        items.append(Item(label, run,
                          _bundled_check(shas[label], by_method[label])))

    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "kind" not in doc:
            continue  # the polytope and expected-invariant tables
        label = f"fixture:{path.stem}"
        run = (lambda stem=path.stem: _analyze_and_assemble(
            fileio.data_from_fixture(fileio.load_fixture(stem))))
        items.append(Item(label, run, _bundled_check(
            shas[label], by_method.get(label), doc["expected"])))
    return items


# ---------------------------------------------------------------------------
# table: `fanoscope table expected --out <file>` in-process


def _table_check(sha):
    def check(out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        notes = [row[-1] for row in csv.reader(io.StringIO(out["csv"]))][1:]
        ok = sum(1 for n in notes if n.startswith("ok"))
        failed = sum(1 for n in notes if n.startswith("FAIL"))
        skipped = sum(1 for n in notes if n.startswith("skipped"))
        if (ok, failed, skipped) != (TABLE_OK_ROWS, 0, TABLE_SKIPPED_ROWS):
            return (f"rows ok/FAIL/skipped = {ok}/{failed}/{skipped}, want "
                    f"{TABLE_OK_ROWS}/0/{TABLE_SKIPPED_ROWS}")
        got = hashlib.sha256(out["csv"].encode()).hexdigest()
        if got != sha:
            return f"CSV sha256 {got[:12]} != pinned {sha[:12]}"
        return None
    return check


def table_items() -> list[Item]:
    WORK.mkdir(parents=True, exist_ok=True)
    out_path = WORK / "table.csv"

    def run():
        out_path.unlink(missing_ok=True)
        code = cli.main(["table", "expected", "--out", str(out_path)])
        text = out_path.read_text() if out_path.exists() else ""
        return {"exit": code, "csv": text}

    return [Item("table expected", run, _table_check(pinned()["table_csv_sha256"]))]


# ---------------------------------------------------------------------------
# sweep: identity24 and decomposition regimes over a seeded GL(3, Z) corpus


def _sweep_one(verts) -> dict:
    p = polytope.LatticePolytope(verts)
    return {"identity24": polytope.identity24(p),
            "regime_counts": sorted(len(r) for r in
                                    degeneration.decomposition_regimes(p))}


def _sweep_check(base, counts):
    def check(out):
        if out["identity24"] != 24:
            return f"identity24 = {out['identity24']}"
        if out["regime_counts"] != counts:
            return (f"regime counts {out['regime_counts']} != {counts} of "
                    f"base {base}")
        return None
    return check


def sweep_items(seed: int) -> list[Item]:
    bases = corpus.load_bases()
    return [Item(f"{base}#{i}", lambda verts=verts: _sweep_one(verts),
                 _sweep_check(base, bases[base]["regime_counts"]))
            for i, (base, verts) in enumerate(corpus.generate(seed, bases))]
