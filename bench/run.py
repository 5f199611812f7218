"""fanoscope benchmark: one workload per invocation, closed loop, one thread.

    python3 bench/run.py --workload {bundled,table,sweep} --seed N \
        --seconds S --trace {0,1}

With `--trace 0` it measures the end-to-end metrics with tracing off; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  Every output is checked by the
workload's oracle.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a JSON
summary (sample counts, failed_frac, output hashes, environment, and the
end-to-end metrics in plain wall time).  The end-to-end timings are given at
a constant host speed: see reference.py.

Workloads and the layer -> end-to-end predictions are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
from checkout import ROOT, SRC, require_source

SETUP_CODE = ("import fanoscope.cli\n"
              "from fanoscope import fileio\n"
              "fileio.bundled_polytopes()\n"
              "fileio.expected_rows()\n"
              "fileio.list_fixtures()\n")
SETUP_SPAWNS = 7      # fresh interpreters timed for setup_s (after one warm-up)
IMPORT_SPAWNS = 5     # fresh interpreters under -X importtime
ROUND_S = 1.0         # least workload seconds between two reference timings
MODULES = ("linalg", "polytope", "minkowski", "degeneration", "gamma",
           "invariants", "discriminant", "fileio", "cli")


def _python(*args, timeout=120):
    """Run the interpreter on the checkout's source."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout,
                          check=True)


def _speed(before: float, after: float) -> float:
    """Factor that takes wall seconds measured between two reference timings
    to seconds at the reference's nominal host speed."""
    return 2 * reference.NOMINAL_S / (before + after)


def measure_setup() -> tuple[float, float]:
    """Seconds for a fresh interpreter to import fanoscope.cli and load the
    bundled tables: the median at nominal host speed, and the median wall."""
    _python("-c", SETUP_CODE)  # the first spawn writes bytecode caches
    walls, normalised = [], []
    before = reference.seconds()
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        _python("-c", SETUP_CODE)
        walls.append(time.perf_counter() - start)
        after = reference.seconds()
        normalised.append(walls[-1] * _speed(before, after))
        before = after
    return statistics.median(normalised), statistics.median(walls)


def measure_imports() -> dict:
    """Median self import ms per fanoscope module, and the cumulative ms of
    the whole import (stdlib modules it pulls in included)."""
    samples = []
    for _ in range(IMPORT_SPAWNS):
        err = _python("-X", "importtime", "-c", SETUP_CODE).stderr
        self_us, total_us = {}, 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            level_name = name[1:]
            mod = level_name.strip()
            if mod.startswith("fanoscope.") and mod[10:] in MODULES:
                self_us[mod[10:]] = int(own)
            if (mod == "fanoscope" or mod.startswith("fanoscope.")) \
                    and not level_name.startswith(" "):
                total_us += int(cumulative)
        samples.append((self_us, total_us))
    out = {f"{m}.import_ms": statistics.median(s[0].get(m, 0) for s in samples) / 1000
           for m in MODULES}
    out["import.total_ms"] = statistics.median(s[1] for s in samples) / 1000
    return out


def measure_rss(workload: str, seed: int) -> float:
    """Peak RSS (MB) of a fresh process running one pass of the workload."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    doc = json.loads(_python(probe, workload, str(seed)).stdout.splitlines()[-1])
    return doc["peak_rss_mb"]


class Ledger:
    """Counts attempted and failed items and the distinct output hashes of
    whole passes; a deterministic, correct run has one hash and no failure."""

    def __init__(self, workloads, items):
        self.workloads, self.items = workloads, items
        self.attempted = self.failed = 0
        self.hashes = set()
        self.messages = []

    def record(self, outputs):
        bad = self.workloads.audit(self.items, outputs)
        self.attempted += len(self.items)
        self.failed += len(bad)
        self.messages.extend(bad[:5 - len(self.messages)])
        self.hashes.add(self.workloads.digest(outputs))

    @property
    def correct(self):
        return self.failed == 0 and len(self.hashes) == 1


def _ms(seconds):
    return {"value": seconds * 1000.0, "unit": "ms"}


def _latency_metrics(passes) -> dict:
    """items_per_s, item_p50_ms and item_p90_ms from a list of passes, each a
    list of per-item seconds in item order."""
    # Percentiles over the items of each item's typical latency (its median
    # over the passes).  Pooling every sample instead puts a percentile on
    # the edge between two items' clusters, where it jumps with the host's
    # speed, and lets a few slow passes set the tail.
    typical = [statistics.median(samples) for samples in zip(*passes)]
    p90 = statistics.quantiles(typical, n=10)[8] if len(typical) > 1 else typical[0]
    return {
        "items_per_s": {"value": statistics.median(
            len(times) / sum(times) for times in passes), "unit": "1/s"},
        "item_p50_ms": _ms(statistics.median(typical)),
        "item_p90_ms": _ms(p90),
    }


def timed_run(workloads, items, args, ledger):
    setup_s, setup_wall_s = measure_setup()
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": measure_rss(args.workload, args.seed),
                               "unit": "MB"}}
    ledger.record(workloads.run_pass(items)[0])
    # Rounds of at least ROUND_S of passes, each between two reference
    # timings; a round's times are scaled by the host speed around it.
    wall, normalised, speeds = [], [], []
    before = reference.seconds()
    deadline = time.perf_counter() + args.seconds
    while True:
        round_passes = []
        start = time.perf_counter()
        while not round_passes or time.perf_counter() - start < ROUND_S:
            outputs, times = workloads.run_pass(items)
            ledger.record(outputs)
            round_passes.append(times)
        after = reference.seconds()
        speed = _speed(before, after)
        before = after
        speeds.append(speed)
        wall.extend(round_passes)
        normalised.extend([t * speed for t in times] for times in round_passes)
        if time.perf_counter() >= deadline:
            break
    metrics.update(_latency_metrics(normalised))
    wall_metrics = {k: v["value"] for k, v in _latency_metrics(wall).items()}
    return metrics, {"passes": len(wall), "item_samples": len(wall) * len(items),
                     "rounds": len(speeds),
                     "speed_factor_median": statistics.median(speeds),
                     "wall": {**wall_metrics, "setup_s": setup_wall_s}}


def traced_run(workloads, items, args, ledger):
    from tracer import LAYERS, Tracer
    metrics = {k: {"value": v, "unit": "ms"}
               for k, v in measure_imports().items()}
    ledger.record(workloads.run_pass(items)[0])
    tracer = Tracer()
    plain, traced, calls = [], [], []
    totals = {name: 0.0 for name in tracer.stats}
    deadline = time.perf_counter() + args.seconds
    while True:
        outputs, times = workloads.run_pass(items)
        ledger.record(outputs)
        plain.append(sum(times))
        tracer.reset()
        with tracer:
            outputs, times = workloads.run_pass(items)
        ledger.record(outputs)
        traced.append(sum(times))
        calls.append({k: c for k, (c, _) in tracer.stats.items()})
        for k, (_, s) in tracer.stats.items():
            totals[k] += s
        if time.perf_counter() >= deadline:
            break
    passes = len(traced)
    pass_s = sum(traced) / passes
    layer_ms = dict.fromkeys(LAYERS, 0.0)
    for name, total in totals.items():
        layer = name.partition(".")[0]
        metrics[f"{name}.calls"] = {
            "value": statistics.median(c[name] for c in calls), "unit": "count"}
        metrics[f"{name}.self_ms"] = _ms(total / passes)
        layer_ms[layer] += total / passes
    for layer, s in layer_ms.items():
        metrics[f"{layer}.self_ms"] = _ms(s)
        metrics[f"{layer}.share"] = {"value": s / pass_s, "unit": "fraction"}
    metrics["polytope.builds_per_item"] = {
        "value": metrics["polytope.LatticePolytope.calls"]["value"] / len(items),
        "unit": "ratio"}
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_ms"] = _ms((traced_s - plain_s) / len(items))
    metrics["trace.overhead_share"] = {"value": traced_s / plain_s - 1,
                                       "unit": "fraction"}
    return metrics, {"passes": passes, "items_per_pass": len(items),
                     "calls_repeat_exactly": all(c == calls[0] for c in calls)}


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("bundled", "table", "sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("FANOSCOPE_DB", None)  # every workload runs without it
    require_source()
    import workloads
    items = workloads.build(args.workload, args.seed)
    ledger = Ledger(workloads, items)
    run = traced_run if args.trace else timed_run
    metrics, counts = run(workloads, items, args, ledger)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items_per_pass": len(items), **counts,
        "failed_frac": ledger.failed / ledger.attempted,
        "output_sha256": sorted(ledger.hashes),
        "failures": ledger.messages,
        "environment": {"python": platform.python_version(),
                        "nproc": os.cpu_count(), "git_sha": _git_sha()},
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
