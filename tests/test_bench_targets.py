"""Every name that the benchmark's tracer wraps must resolve in fanoscope;
a missing one makes `bench/run.py --trace 1` fail."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets(monkeypatch):
    # read-only: no bytecode cache is written next to the tracer
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_targets_resolve(monkeypatch):
    for layer, specs in tracer_targets(monkeypatch).items():
        module = importlib.import_module(f"fanoscope.{layer}")
        for spec in specs:
            owner, _, method = spec.partition(".")
            obj = getattr(module, owner)
            if isinstance(obj, type):  # traced through a method on the class
                obj = vars(obj)[method or "__init__"]
            assert callable(obj), f"{layer}.{spec}"
