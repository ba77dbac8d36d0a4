"""The benchmark's tracer wraps layer functions by name; each must still exist and be counted."""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_tracer_counts_sigma_calls_and_memo_hits(tmp_path):
    # pgl2 reuses the "A1" entry that sl2 stored, so SigmaTable.get must see a hit.
    commands = tmp_path / "commands.json"
    commands.write_text(json.dumps([["sigma", "--group", "sl2"], ["sigma", "--group", "pgl2"]]))
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, str(TRACER), "--commands", str(commands),
                           "--result", str(result), "--spans", str(tmp_path / "spans.json.gz")],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert [c["exit"] for c in record["commands"]] == [0, 0]
    assert record["layers"]["calls"]["sigma.sigma"] > 0
    assert record["layers"]["counters"]["memo_hits"] >= 1
