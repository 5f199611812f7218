"""Command-line surface: analyze, decompositions, verify24, gamma,
discriminant, table.

Exit codes: 0 success, 1 validation failure, 2 parse / IO / usage error.
Errors are emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from . import fileio
from .degeneration import (DegenerationData, DegenerationError,
                           decomposition_regimes, facet_regime, method1_data,
                           product_data)
from .discriminant import assemble_global, export_json, render_svg
from .fileio import ParseError
from .gamma import GammaError, build_system, gamma_dimension
from .invariants import InvariantError, analyze
from .linalg import kernel_basis
from .polytope import LatticePolytope, Polygon, PolytopeError, identity24


def _fail(kind: str, message: str, code: int):
    sys.stderr.write(json.dumps({"error": kind, "message": message},
                                sort_keys=True) + "\n")
    return code


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _resolve_data(target: str, decomposition=None):
    """Degeneration data of what `fileio.read_target` finds for target.

    `decomposition` is None, 'auto', or comma-separated per-facet indices.
    A product polygon or a fixture has no decomposition choice: 'auto'
    leaves it as it is, and indices are refused.
    """
    indices = _decomposition_indices(decomposition)
    found = fileio.read_target(target)
    if isinstance(found, DegenerationData):
        if indices is not None:
            raise DegenerationError(
                f"{target} has no decomposition choice: --decomposition "
                "indices apply to a polytope only")
        return [found]
    name, p = found
    if decomposition == "auto" and p.is_reflexive():
        counts = [len(r) for r in decomposition_regimes(p)]
        total = math.prod(counts)
        if total > 512:
            raise DegenerationError(f"{total} decomposition choices; pick one")
        if total > 1:
            return [method1_data(p, ch, f"{name}[{','.join(map(str, ch))}]")
                    for ch in itertools.product(*map(range, counts))]
    # one choice or none: the plain route, which raises what P lacks
    return [method1_data(p, indices, name)]


def _decomposition_indices(decomposition):
    """The per-facet indices of a --decomposition value; None for no value
    or 'auto'."""
    if decomposition is None or decomposition == "auto":
        return None
    idx = []
    for token in str(decomposition).split(","):
        try:
            idx.append(int(token))
        except ValueError:
            raise ParseError(f"--decomposition index {token!r} is not an "
                             "integer") from None
    return tuple(idx)


def cmd_analyze(args):
    datas = _resolve_data(args.target, args.decomposition)
    reports = [analyze(d).to_dict() for d in datas]
    _emit(reports[0] if len(reports) == 1 else reports)
    return 0


def cmd_decompositions(args):
    p = fileio.read_polytope(args.target)
    if args.facet is None:
        regimes = list(enumerate(decomposition_regimes(p)))
    elif 0 <= args.facet < len(p.facets):
        regimes = [(args.facet, facet_regime(p, args.facet))]
    else:
        raise DegenerationError(
            f"--facet {args.facet} names no facet 0..{len(p.facets) - 1}")
    _emit([{
        "facet_of_P_dual_to_dual_vertex": vid,
        "dual_vertex": [str(x) for x in p.facets[vid].dual],
        "count": len(decos),
        "decompositions": [
            [{"kind": s.kind, "vectors": [list(v) for v in s.vectors]}
             for s in deco] for deco in decos],
    } for vid, decos in regimes])
    return 0


def cmd_verify24(args):
    path = args.db or os.environ.get("FANOSCOPE_DB")
    if not path:
        return _fail("usage", "no database: pass --db or set FANOSCOPE_DB", 2)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "sum", "pass"])
    ok = True
    for ident, p in fileio.ingest_database(path):
        total = identity24(p)
        writer.writerow([ident, total, "pass" if total == 24 else "FAIL"])
        ok = ok and total == 24
    _write_out(args.out, buf.getvalue())
    return 0 if ok else 1


def cmd_gamma(args):
    datas = _resolve_data(args.target, args.decomposition)
    out = []
    for d in datas:
        system = build_system(d)
        dim = gamma_dimension(d)
        width = system.n_alpha + system.n_aux
        basis = kernel_basis([[row.get(j, 0) for j in range(width)]
                              for row in system.rows])
        alphas = _reduced_basis([vec[:system.n_alpha] for vec in basis])
        out.append({
            "name": d.name,
            "dim_gamma": dim,
            "b2": dim - 2,
            "alpha_cones": system.cone_names,
            "solution_basis": [[str(x) for x in vec] for vec in alphas],
        })
    _emit(out[0] if len(out) == 1 else out)
    return 0


def _reduced_basis(vectors):
    """Echelon basis of the span of the given rational vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
    basis = []
    for row in rows:
        for b in basis:
            piv = next(i for i, x in enumerate(b) if x)
            if row[piv]:
                f = row[piv] / b[piv]
                row = [x - f * y for x, y in zip(row, b)]
        if any(row):
            piv = next(i for i, x in enumerate(row) if x)
            basis.append([x / row[piv] for x in row])
    basis.sort(key=lambda b: [str(x) for x in b])
    return basis


def cmd_discriminant(args):
    datas = _resolve_data(args.target, args.decomposition)
    os.makedirs(args.svg, exist_ok=True)
    written = []
    for d in datas:
        graph = assemble_global(d)
        stem = d.name.replace(" ", "_").replace("/", "_")
        svg_path = os.path.join(args.svg, f"{stem}.svg")
        with open(svg_path, "w") as fh:
            fh.write(render_svg(d, graph))
        json_path = os.path.join(args.svg, f"{stem}.json")
        with open(json_path, "w") as fh:
            json.dump(export_json(graph), fh, sort_keys=True, indent=1)
        p, n, b = graph.census()
        written.append({"name": d.name, "svg": svg_path, "graph": json_path,
                        "positive": p, "negative": n, "boundary": b})
    _emit(written)
    return 0


def _match_db_row(row, p: LatticePolytope):
    """Try every decomposition choice: (the matching report, None), or
    (None, why none matches), also when building or analysing P's data
    refuses it."""
    try:
        counts = [len(r) for r in decomposition_regimes(p)]
        if 0 in counts:
            return None, "no smooth decomposition"
        if math.prod(counts) > 4096:
            return None, "too many choices"
        for ch in itertools.product(*map(range, counts)):
            rep = analyze(method1_data(p, ch, row["name"]))
            if (rep.degree, rep.p, rep.n, rep.euler) == \
                    (row["degree"], row["p"], row["n"], row["chi"]):
                return rep, None
    except (DegenerationError, PolytopeError) as exc:
        return None, str(exc)
    return None, (f"no choice matches; last gave degree={rep.degree} "
                  f"p={rep.p} n={rep.n} chi={rep.euler}")


def cmd_table(args):
    rows = fileio.read_manifest(args.manifest)
    db_path = args.db or os.environ.get("FANOSCOPE_DB")
    db = {}
    if db_path:
        wanted = {r["palp"] for r in rows
                  if r.get("method", "db") == "db" and r["palp"] is not None}
        for i, p in fileio.ingest_database(db_path):
            if i in wanted:
                db[i] = p
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Name", "PALP ID", "Degree", "p", "n", "chi", "Notes"])
    failures = []
    polygons = fileio.bundled_polytopes()["polygons"]
    for row in rows:
        method = row.get("method", "db")
        expected = (row["degree"], row["p"], row["n"], row["chi"])
        note = ""
        if method == "db":
            if row["palp"] not in db:
                note = "skipped: database not supplied" if not db_path \
                    else "FAIL: id missing from database"
                if db_path:
                    failures.append(row["name"])
            else:
                rep, err = _match_db_row(row, db[row["palp"]])
                if rep is None:
                    note = f"FAIL: {err}"
                    failures.append(row["name"])
                else:
                    note = "ok"
        elif method.startswith(("fixture:", "product:")):
            kind, target = method.split(":", 1)
            rep = analyze(
                fileio.data_from_fixture(fileio.load_fixture(target))
                if kind == "fixture"
                else product_data(Polygon(polygons[target]), target))
            if (rep.degree, rep.p, rep.n, rep.euler) == expected:
                note = "ok (method 2)" if kind == "fixture" else "ok (product)"
            else:
                note = "FAIL: mismatch"
                failures.append(row["name"])
        else:
            note = "stated only (construction out of scope)"
        if row.get("chi_printed") is not None:
            note += f"; table prints chi = {row['chi_printed']}"
        writer.writerow([row["name"], row["palp"] if row["palp"] is not None
                         else "n/a", row["degree"], row["p"], row["n"],
                         row["chi"], note])
    _write_out(args.out, buf.getvalue())
    if failures:
        sys.stderr.write(json.dumps(
            {"error": "table", "message": f"rows failed: {failures}"}) + "\n")
        return 1
    return 0


def _write_out(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors become a ParseError: one JSON line and exit 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    ap = _Parser(
        prog="fanoscope",
        description="Degeneration data and torus-fibration invariants of "
                    "Fano 3-polytopes")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="invariant report for a polytope or "
                                       "fixture")
    a.add_argument("target")
    a.add_argument("--decomposition", default=None,
                   help="'auto', or comma-separated per-facet indices")
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("decompositions", help="smooth Minkowski "
                                              "decompositions per facet")
    d.add_argument("target")
    d.add_argument("--facet", type=int, default=None)
    d.set_defaults(func=cmd_decompositions)

    v = sub.add_parser("verify24", help="check the 24-identity over the "
                                        "reflexive database")
    v.add_argument("--db", default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify24)

    g = sub.add_parser("gamma", help="dimension of the section space and b2")
    g.add_argument("target")
    g.add_argument("--decomposition", default=None)
    g.set_defaults(func=cmd_gamma)

    s = sub.add_parser("discriminant", help="export discriminant graphs")
    s.add_argument("target")
    s.add_argument("--svg", required=True, help="output directory")
    s.add_argument("--decomposition", default=None)
    s.set_defaults(func=cmd_discriminant)

    t = sub.add_parser("table", help="reproduce the expected-invariants table")
    t.add_argument("manifest", help="manifest JSON path or 'expected'")
    t.add_argument("--db", default=None)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_table)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:  # a file that is not UTF-8 text
        return _fail(type(exc).__name__, str(exc), 2)
    except (DegenerationError, InvariantError, GammaError, PolytopeError,
            ValueError) as exc:
        return _fail(type(exc).__name__, str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
