"""Self-tests of the benchmark: generator, oracles and tracer.

    python3 -m pytest bench -q
"""

import copy
import sys

import pytest

from checkout import require_source

require_source()

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fanoscope import polytope  # noqa: E402


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_generator_is_deterministic_per_seed():
    assert corpus.generate(7) == corpus.generate(7)
    assert corpus.generate(7) != corpus.generate(8)
    items = corpus.generate(7)
    assert len(items) == 20 * corpus.IMAGES_PER_BASE
    assert sorted({name for name, _ in items}) == sorted(corpus.load_bases())


def test_generator_words_are_unimodular():
    import random
    rng = random.Random(3)
    assert all(abs(_det3(corpus.random_unimodular3(rng))) == 1
               for _ in range(200))


def test_bundled_oracle_flags_a_corrupted_report():
    items = workloads.bundled_items()
    assert len(items) == 23
    item = next(it for it in items if it.label == "fixture:v2")
    out = item.run()
    assert item.check(out) is None
    bad = copy.deepcopy(out)
    bad["report"]["euler"] += 2
    assert "chi" in item.check(bad)
    bad = copy.deepcopy(out)
    bad["report"]["provenance"]["euler"] = "slab formula"
    assert "sha256" in item.check(bad)
    bad = copy.deepcopy(out)
    bad["census"][0] += 1
    assert "census" in item.check(bad)


def test_table_oracle_flags_a_failed_row():
    [item] = workloads.table_items()
    out = item.run()
    assert item.check(out) is None
    lines = out["csv"].splitlines()
    i = next(i for i, ln in enumerate(lines) if ",ok" in ln)
    lines[i] = lines[i].replace(",ok", ",FAIL: mismatch")
    assert "FAIL" in item.check({"exit": 0, "csv": "\n".join(lines) + "\n"})
    assert "exit code" in item.check({**out, "exit": 1})


def test_sweep_oracle_flags_a_dropped_or_wrong_item():
    items = workloads.sweep_items(5)[:6]
    outputs, _ = workloads.run_pass(items)
    assert workloads.audit(items, outputs) == []
    assert workloads.audit(items, outputs[:-1]) == [f"{items[-1].label}: no output"]
    wrong = copy.deepcopy(outputs)
    wrong[0]["regime_counts"] = wrong[0]["regime_counts"][1:]
    assert len(workloads.audit(items, wrong)) == 1
    wrong[1]["identity24"] = 23
    assert len(workloads.audit(items, wrong)) == 2


def test_raising_item_is_counted_not_fatal():
    def boom():
        raise ValueError("corrupt")
    items = [workloads.Item("boom", boom, lambda out: None)]
    outputs, times = workloads.run_pass(items)
    assert len(times) == 1
    assert workloads.audit(items, outputs) == ["boom: raised ValueError: corrupt"]


def _namespaces():
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "fanoscope" or name.startswith("fanoscope."):
            snap[name] = dict(vars(mod))
            for attr, val in vars(mod).items():
                if isinstance(val, type) and val.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(val))
    return snap


def test_tracer_unpatches_cleanly():
    before = _namespaces()
    with tracer.Tracer() as t:
        assert _namespaces() != before
        polytope.LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                  (-1, -1, -1)]).polar_dual()
    assert _namespaces() == before
    assert t.stats["polytope.LatticePolytope"][0] == 2
    assert t.stats["polytope.polar_dual"][0] == 1


def test_tracer_rebinds_every_namespace():
    from fanoscope import gamma, linalg
    original = linalg.nullity
    with tracer.Tracer():
        assert gamma.nullity is linalg.nullity is not original
        assert gamma.nullity.__wrapped__ is original
    assert gamma.nullity is linalg.nullity is original


def test_traced_and_untraced_outputs_hash_equal():
    bundled = [it for it in workloads.bundled_items()
               if it.label in ("p3", "product:triangle", "fixture:b3_cubic")]
    for items in (bundled, workloads.sweep_items(11)[:10]):
        plain, _ = workloads.run_pass(items)
        with tracer.Tracer() as t:
            traced, _ = workloads.run_pass(items)
        assert workloads.audit(items, traced) == []
        assert workloads.digest(plain) == workloads.digest(traced)
        spans = t.stats.values()
        assert all(s > -1e-6 for _, s in spans) and sum(c for c, _ in spans) > 0


def test_reference_does_fixed_work():
    assert reference.compute() == reference.CHECKSUM
    assert reference.seconds() > 0


def test_speed_factor_scales_to_nominal_host():
    nominal = reference.NOMINAL_S
    assert run._speed(nominal, nominal) == pytest.approx(1.0)
    assert run._speed(2 * nominal, 2 * nominal) == pytest.approx(0.5)


def test_item_percentiles_are_over_items_typical_latencies():
    passes = [[0.01, 0.02, 0.03, 0.04]] * 2 + [[0.05, 0.06, 0.07, 0.08]]
    m = run._latency_metrics(passes)
    assert m["item_p50_ms"]["value"] == pytest.approx(25.0)  # pooled: 35
    assert m["item_p90_ms"]["value"] == pytest.approx(45.0)  # pooled: 77
    assert m["items_per_s"]["value"] == pytest.approx(4 / 0.10)
    one = run._latency_metrics([[0.5], [0.7], [0.6]])
    assert one["item_p50_ms"]["value"] == one["item_p90_ms"]["value"] == pytest.approx(600.0)
