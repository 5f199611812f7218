"""One pass of each of the benchmark's workloads, checked by its own
oracles (pinned decomposition counts, paper-table rows, fixture `expected`
blocks, graph census, report hashes, the `table` CSV's row notes and hash),
so a wrong ray basis, decomposition list or table row fails here and not
only in the benchmark.  `table` writes its CSV under pytest's tmp_path, not
where the benchmark puts it.

bench/ is read only: no bytecode is written next to it, and the modules it
puts on sys.path are removed again afterwards."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("checkout", "corpus"):  # the bench's own top-level modules
        monkeypatch.delitem(sys.modules, name, raising=False)
    listing = sorted(p.name for p in BENCH.iterdir())
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclass
    import checkout
    checkout.require_source()
    spec.loader.exec_module(module)
    yield module
    for name in ("checkout", "corpus"):
        sys.modules.pop(name, None)
    assert sorted(p.name for p in BENCH.iterdir()) == listing


@pytest.mark.parametrize("workload, seed", [("sweep", 5), ("bundled", 0)])
def test_one_pass_meets_the_bench_oracles(workloads, workload, seed):
    items = workloads.build(workload, seed)
    outputs, _ = workloads.run_pass(items)
    assert workloads.audit(items, outputs) == []


def test_table_meets_the_bench_oracle(workloads, tmp_path):
    from fanoscope import cli
    out_path = tmp_path / "table.csv"
    code = cli.main(["table", "expected", "--out", str(out_path)])
    out = {"exit": code,
           "csv": out_path.read_text() if out_path.exists() else ""}
    check = workloads._table_check(workloads.pinned()["table_csv_sha256"])
    assert check(out) is None


def test_bundled_passes_build_alike(workloads, monkeypatch):
    """A second `bundled` pass builds as many slabs and triangulations as
    the first, and computes P*'s vertex rows and edge annihilators as many
    times, so nothing shared within one degeneration or kept on one P*
    outlives it."""
    from fanoscope import discriminant, polytope
    from fanoscope.degeneration import Slab
    from fanoscope.polytope import LatticePolytope
    counts = {"Slab": 0, "max_triangulation": 0, "_facet_rows": 0,
              "edge_annihilators": 0}
    init, triangulate = Slab.__init__, discriminant.max_triangulation
    annihilators = LatticePolytope.edge_annihilators

    def counted_init(self, *args, **kwargs):
        counts["Slab"] += 1
        init(self, *args, **kwargs)

    def counted_triangulation(polygon):
        counts["max_triangulation"] += 1
        return triangulate(polygon)

    def counted_annihilators(self):
        # a build: the call that fills the memo
        counts["edge_annihilators"] += self._annihilators is None
        return annihilators(self)

    def counted(module, name):
        real = getattr(module, name)

        def spy(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, spy)

    monkeypatch.setattr(Slab, "__init__", counted_init)
    monkeypatch.setattr(discriminant, "max_triangulation",
                        counted_triangulation)
    monkeypatch.setattr(LatticePolytope, "edge_annihilators",
                        counted_annihilators)
    # P*'s rows, and its annihilators once per P* (`edge_annihilators`)
    counted(polytope, "_facet_rows")
    items = workloads.build("bundled", 0)
    passes = []
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        outputs, _ = workloads.run_pass(items)
        assert workloads.audit(items, outputs) == []
        passes.append(dict(counts))
    assert passes[0] == passes[1]
    assert all(passes[0].values())
