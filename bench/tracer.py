"""Run tracestab CLI commands in one interpreter, with or without tracing.

    python3 bench/tracer.py --commands FILE --result FILE [--spans FILE]

FILE lists the argument vectors to hand to ``tracestab.cli.main``.  Without
``--spans`` the commands run untraced; this is the baseline for the tracing
overhead.  With ``--spans`` the public layer functions named in ``LAYERS``
are wrapped from outside the package: each name is replaced in every
``tracestab.*`` module that holds it, so intra-package and recursive calls
are recorded too.  Spans stay in memory and are written, gzipped, at the
end.  The result file holds each command's exit code, stdout and wall time,
plus the per-layer calls and self times and the named counters.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import importlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Layer functions, by module; "Class.method" names patch the class.
LAYERS = {
    "linalg": ("coords_in_rows", "det", "invert", "hnf_rows", "dual_lattice_quotient"),
    "rootdata": ("build_root_datum", "weyl_group", "RootDatum.positive_roots",
                 "canonical_key", "contragredient"),
    "weylcoset": ("weyl_set", "coset_sign", "i_number"),
    "elliptic": ("elliptic_classes", "full_rank_subsystems", "sub_datum"),
    "sigma": ("sigma",),
    "packets": ("transfer_factor", "adjoint_factor", "theta_transfer", "invert_transfer",
                "verify_adjoint"),
    "stabilize": ("discrete_part", "stable_form", "endoscopic_form", "verify_coefficients",
                  "s_disc_set"),
    "cli": ("run",),
}

# Spans whose first argument is checked for repeats within one command.
REPEAT_TRACKED = ("elliptic.elliptic_classes", "weylcoset.weyl_set", "weylcoset.i_number",
                  "stabilize.s_disc_set")


def _arg_key(value):
    """A hashable stand-in for an argument; unhashable models fall back to repr."""
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Tracer:
    """Spans, self times and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.stack: list[list[int]] = []  # [span id, time covered by child spans]
        self.command = 0
        self.seen: dict[str, set] = {name: set() for name in REPEAT_TRACKED}
        self.repeats: dict[str, int] = dict.fromkeys(REPEAT_TRACKED, 0)
        self.counters = {"memo_hits": 0, "memo_misses": 0, "elements_visited": 0,
                         "torsion_points": 0, "classes_returned": 0}

    def start_command(self, index: int) -> None:
        self.command = index
        for seen in self.seen.values():
            seen.clear()

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        tracked = self.seen.get(name)
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracked is not None and args:
                key = _arg_key(args[0])
                if key in tracked:
                    self.repeats[name] += 1
                else:
                    tracked.add(key)
            span_id = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            self.spans.append(None)
            frame = [span_id, 0]
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                elapsed = end - start
                if self.stack:
                    self.stack[-1][1] += elapsed
                self.calls[index] += 1
                self.self_ns[index] += elapsed - frame[1]
                self.spans[span_id] = (self.command, span_id, parent, index, start, end)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def memo_get(self, fn):
        @functools.wraps(fn)
        def counted(table, key):
            value = fn(table, key)
            self.counters["memo_hits" if value is not None else "memo_misses"] += 1
            return value

        return counted

    def install(self) -> None:
        """Replace every layer function in every loaded tracestab module."""
        importlib.import_module("tracestab.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tracestab" or n.startswith("tracestab.")]
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"tracestab.{module_name}"]
            for function in functions:
                name = f"{module_name}.{function}"
                if "." in function:
                    cls_name, method = function.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self.wrap(name, getattr(cls, method)))
                    continue
                original = getattr(module, function)
                wrapper = self.wrap(name, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
        table = sys.modules["tracestab.sigma"].SigmaTable
        table.get = self.memo_get(table.get)

    def summary(self) -> dict:
        calls = dict(zip(self.names, self.calls))
        self_s = {name: ns / 1e9 for name, ns in zip(self.names, self.self_ns)}
        return {"calls": calls, "self_s": self_s, "repeats": self.repeats,
                "counters": self.counters}

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["command", "span", "parent", "name", "start_ns", "end_ns"],
                       "names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def _count(key):
    def observe(counters, result):
        counters[key] += len(result)
    return observe


_OBSERVERS = {
    "weylcoset.weyl_set": _count("elements_visited"),
    "linalg.dual_lattice_quotient": _count("torsion_points"),
    "elliptic.elliptic_classes": _count("classes_returned"),
}


def run_commands(argvs, tracer: Tracer | None) -> tuple[list[dict], float]:
    from tracestab.cli import main

    results = []
    start = time.perf_counter()
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.start_command(index)
        out = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        results.append({"argv": list(argv), "exit": code, "stdout": out.getvalue(),
                        "wall_s": time.perf_counter() - began})
    return results, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    argvs = json.loads(args.commands.read_text(encoding="utf-8"))
    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        tracer.install()
    results, wall = run_commands(argvs, tracer)
    record = {"commands": results, "wall_s": wall}
    if tracer is not None:
        record["layers"] = tracer.summary()
        tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
