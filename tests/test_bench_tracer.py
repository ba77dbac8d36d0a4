"""The benchmark's tracer wraps layer functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, functions in tracer.LAYERS.items():
        module = importlib.import_module(f"tracestab.{module_name}")
        for function in functions:
            holder = module
            for part in function.split("."):
                holder = getattr(holder, part, None)
            if not callable(holder):
                missing.append(f"{module_name}.{function}")
    assert not missing
    assert callable(importlib.import_module("tracestab.sigma").SigmaTable.get)
