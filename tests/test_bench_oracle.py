"""One pass of the benchmark's `sweep` and `bundled` workloads, checked by
their own oracles (pinned decomposition counts, paper-table rows, fixture
`expected` blocks, graph census, report hashes), so a wrong ray basis or
decomposition list fails here and not only in the benchmark.  `table` is
left out because it writes a CSV.

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
