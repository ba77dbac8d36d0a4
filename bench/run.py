"""The tracestab benchmark: run the CLI as a user does and check every verdict.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every input is generated from ``--seed`` into ``bench/out/``; the CLI sees
only those files.  With ``--trace 0`` the workload's commands run as child
processes, one at a time, for ``--seconds`` seconds, and the end-to-end
metrics are reported.  With ``--trace 1`` the same commands run in-process
through ``tracestab.cli.main`` (``bench/tracer.py``), once untraced and twice
traced, and the per-layer metrics are reported.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("sigma-ladder", "stabilize-seeded", "packet-algebra")
HELD_OUT_SEED = 20170828  # never used while the benchmark was tuned
SETUP_STARTS = 15  # also the number of reference starts
STABILIZE_TRIALS = 2
PACKET_TRIALS = 4
CLI = "import sys; from tracestab.cli import main; sys.exit(main())"
# The reference start: a cold interpreter importing the standard modules that
# tracestab imports, and no tracestab code.  On a shared host the speed can
# drift by tens of percent over minutes, and cold starts drift with the
# verdicts, so wall_ref divides the pass time by the median reference start of
# the same run.
REFERENCE = ("import argparse, concurrent.futures, dataclasses, fractions, hashlib, json, "
             "random, threading, typing")
# The median reference start on the host the benchmark was defined on.  setup_s
# is the CLI's cold start scaled to that host speed by the same run's reference.
REFERENCE_BASE_S = 0.07

# Rungs of the σ ladder with |Z| of the simply connected form, and the σ values
# (simply connected, adjoint) recorded when the benchmark was defined.
LADDER = (("A", 3, 4), ("B", 3, 2), ("C", 3, 2), ("A", 4, 5), ("D", 4, 4), ("B", 4, 2))
RECORDED_SIGMA = {
    "A3-sc": "-1/64", "A3-ad": "-1/16",
    "B3-sc": "-25/512", "B3-ad": "-25/256",
    "C3-sc": "-51/1024", "C3-ad": "-51/512",
    "A4-sc": "+1/125", "A4-ad": "+1/25",
    "D4-sc": "+117/8192", "D4-ad": "+117/2048",
    "B4-sc": "+613/16384", "B4-ad": "+613/8192",
}

# Bank models of the stabilize-seeded set: (kind, untwisted base, dim S_M, dim R).
# The shapes are fixed, so every seed does the same work (the cost of the
# coset-constancy check grows with |S|·|S_M|); the seed picks the model order,
# and with it the model ids, and the test vectors.
MODEL_SLOTS = (
    ("untwisted", "sp4", 1, 1), ("untwisted", "sl3", 0, 2), ("untwisted", "sl2xsl2", 2, 0),
    ("untwisted", "sl2", 1, 2), ("untwisted", "pgl2", 1, 1), ("untwisted", "sl2", 1, 0),
    ("untwisted", "gl1", 2, 1), ("untwisted", "trivial", 1, 1),
    ("torus1", None, 0, 1), ("torus2", None, 1, 1), ("swap", None, 0, 1), ("swap", None, 0, 1),
)

# Packet models (dim S_M, dim R): R-heavy and S_M-heavy, |S| from 4 to 32.
PACKET_SHAPES = ((0, 2), (2, 0), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


@dataclass
class Verdict:
    """One CLI command of a pass and what it produced."""

    name: str
    argv: list[str]
    exit: int | None = None
    stdout: str = ""
    wall_s: float = 0.0
    rss_kb: int = 0


@dataclass
class Workload:
    name: str
    verdicts: list[Verdict]
    inputs_sha256: str
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _cartan(kind: str, n: int) -> list[list[int]]:
    """C[i][j] = <α_i, α_j∨> in Bourbaki numbering."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = n - 1 if kind != "D" else n - 2
    for i in range(chain):
        c[i][i + 1] = c[i + 1][i] = -1
    if kind == "B":
        c[n - 2][n - 1] = -2
    elif kind == "C":
        c[n - 1][n - 2] = -2
    elif kind == "D":
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


def _relabel(rng: Random, roots, coroots):
    """Apply a seeded signed permutation of the lattice basis and of the simple roots.

    Both are integral basis changes that keep the amount of work exactly the
    same, so every seed costs the same while the files differ.
    """
    n = len(roots)
    cols = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    rows = rng.sample(range(n), n)

    def apply(m):
        return [[signs[j] * m[r][cols[j]] for j in range(n)] for r in rows]

    return apply(roots), apply(coroots)


def _sigma_ladder(rng: Random, files: dict) -> list[Verdict]:
    verdicts = []
    for kind, n, _ in LADDER:
        cartan = _cartan(kind, n)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        transposed = [list(col) for col in zip(*cartan)]
        for form, roots, coroots in (("sc", cartan, ident), ("ad", ident, transposed)):
            roots, coroots = _relabel(rng, roots, coroots)
            name = f"{kind}{n}-{form}"
            path = f"sigma-{name}.json"
            files[path] = _dump({"rank": n, "simple_roots": roots, "simple_coroots": coroots})
            verdicts.append(Verdict(name, ["sigma", "--group", path]))
    return verdicts


def _bits(xm: int, xr: int, sm: int, r: int) -> str:
    return "".join(str((xm >> i) & 1) for i in range(sm)) + "".join(
        str((xr >> i) & 1) for i in range(r))


def _instantiate(template: dict, model_id: str) -> dict:
    """Copy a bank template, filling the model id placeholder."""
    text = json.dumps(template).replace("@", model_id)
    return json.loads(text)


def _untwisted_model(bank: dict, base: str, model_id: str, sm: int, r: int):
    """An untwisted model and its principal descriptors.

    Every twist is the identity, so each class is met by all |S| components:
    splus = |S| and |S_φ'| = |S|·π₀, the values ``catalog.principal_descriptors``
    derives for such models.
    """
    rank = {"trivial": 0, "gl1": 1, "sl2": 1, "pgl2": 1}.get(base, 2)
    ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
    size = 1 << (sm + r)
    thetas = {_bits(xm, xr, sm, r): ident for xm in range(1 << sm) for xr in range(1 << r)}
    model = {"id": model_id, "sM_dim": sm, "r_dim": r,
             "dual_group": {"base": base, "thetas": thetas}}
    descriptors = []
    for xm in range(1 << sm):
        for xr in range(1 << r):
            for index, cls in enumerate(bank["untwisted_classes"][base]):
                label = (f"principal:{model_id}" if (xm, xr) == (0, 0) and cls["zero"]
                         else f"point:{model_id}:{xm}{xr}:{index}")
                descriptors.append({
                    "group_label": label, "model_id": model_id, "x": _bits(xm, xr, sm, r),
                    "class_index": index, "out_card": 1, "out_phi_card": 1,
                    "zbar_generators": [], "sprime": cls["centralizer"],
                    "splus_over_s_card": size, "s_phi_prime_card": size * cls["pi0"]})
    return model, descriptors


def _torus_rank2_model(model_id: str, sm: int):
    """Rank-2 torus with the first coordinate inverted on the R component.

    The twist fixes a subtorus, so no component has an elliptic class and the
    model needs no descriptors.
    """
    thetas = {}
    for xm in range(1 << sm):
        thetas[_bits(xm, 0, sm, 1)] = [[1, 0], [0, 1]]
        thetas[_bits(xm, 1, sm, 1)] = [[-1, 0], [0, 1]]
    base = {"rank": 2, "simple_roots": [], "simple_coroots": []}
    return ({"id": model_id, "sM_dim": sm, "r_dim": 1,
             "dual_group": {"base": base, "thetas": thetas}}, [])


def _stabilize_seeded(rng: Random, files: dict) -> list[Verdict]:
    bank = json.loads((BENCH / "bank.json").read_text(encoding="utf-8"))
    models = list(bank["fixtures"]["models"])
    descriptors = list(bank["fixtures"]["descriptors"])
    slots = rng.sample(MODEL_SLOTS, len(MODEL_SLOTS))
    for index, (kind, base, sm, r) in enumerate(slots):
        model_id = f"rnd{index}"
        if kind == "untwisted":
            model, extra = _untwisted_model(bank, base, model_id, sm, r)
        elif kind == "torus2":
            model, extra = _torus_rank2_model(model_id, sm)
        else:
            shape = _instantiate(bank["twisted"][kind], model_id)
            model, extra = shape["model"], shape["descriptors"]
        models.append(model)
        descriptors.extend(extra)
    files["models.json"] = _dump({"models": models, "descriptors": descriptors})
    argv = ["stabilize", "verify", "--models", "models.json",
            "--trials", str(STABILIZE_TRIALS), "--seed", str(rng.randrange(1 << 31))]
    return [Verdict("stabilize", argv)]


def _packet_algebra(rng: Random, files: dict) -> list[Verdict]:
    verdicts = []
    for sm, r in PACKET_SHAPES:
        name = f"packets-{sm}{r}"
        path = f"{name}.json"
        files[path] = _dump({"id": f"p{sm}{r}-{rng.getrandbits(32):08x}",
                             "sM_dim": sm, "r_dim": r})
        verdicts.append(Verdict(name, ["packets", "verify", "--model", path,
                                       "--trials", str(PACKET_TRIALS),
                                       "--seed", str(rng.randrange(1 << 31))]))
    return verdicts


GENERATORS = {"sigma-ladder": _sigma_ladder, "stabilize-seeded": _stabilize_seeded,
              "packet-algebra": _packet_algebra}


def generate(name: str, seed: int) -> tuple[list[Verdict], dict[str, str]]:
    files: dict[str, str] = {}
    verdicts = GENERATORS[name](Random(f"{name}:{seed}"), files)
    return verdicts, files


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs, after checking that the seed reproduces them byte for byte."""
    verdicts, files = generate(name, seed)
    again = generate(name, seed)[1]
    if again != files:
        raise SystemExit(f"{name}: input generation is not deterministic for seed {seed}")
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for path, text in sorted(files.items()):
        (inputs / path).write_text(text, encoding="utf-8")
        digest.update(path.encode() + b"\0" + text.encode() + b"\0")
    rel = inputs.relative_to(ROOT)
    for v in verdicts:
        v.argv = [str(rel / a) if a in files else a for a in v.argv]
    expected = RECORDED_SIGMA if name == "sigma-ladder" else {}
    return Workload(name, verdicts, digest.hexdigest(), dict(expected))


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------

def _all_pass_fields(obj) -> bool:
    """Every ``"pass"`` field, at any depth, is true."""
    if isinstance(obj, dict):
        return all(v is True if k == "pass" else _all_pass_fields(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(_all_pass_fields(v) for v in obj)
    return True


def check(workload: Workload, verdicts: list[Verdict], first_stdout: dict[str, str]) -> dict:
    """Failure reason per failed verdict of one pass.

    ``first_stdout`` maps a command line to the first stdout seen for it in this
    run; a later run of the same command must match it byte for byte.
    """
    failures: dict[str, str] = {}
    parsed = {}
    for v in verdicts:
        if v.exit != 0:
            failures[v.name] = f"exit code {v.exit}"
            continue
        try:
            parsed[v.name] = json.loads(v.stdout)
        except json.JSONDecodeError:
            parsed[v.name] = None
        if not isinstance(parsed[v.name], dict):
            del parsed[v.name]
            failures[v.name] = "stdout is not a JSON object"
            continue
        if not _all_pass_fields(parsed[v.name]):
            failures[v.name] = "a pass field is false"
        elif not all(parsed[v.name].get("checks", {}).values()):
            failures[v.name] = "a packet check is false"
        key = "\0".join(v.argv)
        if first_stdout.setdefault(key, v.stdout) != v.stdout:
            failures.setdefault(v.name, "stdout differs from an earlier run of the same command")
    if workload.name == "sigma-ladder":
        for name, value in workload.expected.items():
            got = parsed.get(name, {}).get("sigma")
            if name in parsed and got != value:
                failures.setdefault(name, f"sigma {got} != recorded {value}")
        for kind, n, z_order in LADDER:
            sc, ad = f"{kind}{n}-sc", f"{kind}{n}-ad"
            if sc in parsed and ad in parsed:
                try:
                    holds = (Fraction(parsed[sc]["sigma"]) * z_order
                             == Fraction(parsed[ad]["sigma"]))
                except (KeyError, ValueError, TypeError):
                    holds = False
                if not holds:
                    for name in (sc, ad):
                        failures.setdefault(name, "sigma(sc)·|Z| != sigma(ad)")
    return failures


def _corruptions(workload: Workload, verdicts: list[Verdict]):
    """Deliberately wrong expectations and outputs built from a real pass.

    Each yields the gate that must catch it, the workload (whose recorded
    values may be wrong), the verdicts, and whether the stdout already seen in
    the run applies.
    """

    def edit(index, **changes):
        out = [Verdict(v.name, v.argv, v.exit, v.stdout, v.wall_s, v.rss_kb) for v in verdicts]
        for key, change in changes.items():
            setattr(out[index], key, change(getattr(out[index], key)))
        return out

    def recorded(**values):
        return Workload(workload.name, verdicts, workload.inputs_sha256,
                        dict(workload.expected, **values))

    yield "exit code", workload, edit(0, exit=lambda _: 1), False
    yield "JSON object", workload, edit(-1, stdout=lambda s: s[: len(s) // 2]), False
    if workload.name == "sigma-ladder":
        wrong_a3 = edit(1, stdout=lambda s: s.replace('"-1/16"', '"-1/17"'))
        yield "recorded", recorded(**{"B4-sc": "+614/16384"}), verdicts, False
        yield "recorded", workload, wrong_a3, False
        # Output and record moved together: only σ(sc)·|Z| = σ(ad) catches it.
        yield "|Z|", recorded(**{"A3-ad": "-1/17"}), wrong_a3, False
    elif workload.name == "stabilize-seeded":
        yield "pass field", workload, edit(
            0, stdout=lambda s: s.replace('"pass": true', '"pass": false', 1)), False
        yield "differs", workload, edit(
            0, stdout=lambda s: s.replace('"seed"', '"seeD"', 1)), True
    else:
        yield "packet check", workload, edit(
            0, stdout=lambda s: s.replace('"transfer_roundtrip": true',
                                          '"transfer_roundtrip": false')), False


def negative_control(workload: Workload, verdicts: list[Verdict],
                     first_stdout: dict[str, str]) -> dict[str, float]:
    """fail_frac of each corruption, or 0 if the gate meant to catch it did not."""
    fracs = {}
    for gate, wl, corrupted, seen in _corruptions(workload, verdicts):
        failures = check(wl, corrupted, dict(first_stdout) if seen else {})
        caught = any(gate in reason for reason in failures.values())
        fracs[f"{gate} ({len(fracs)})"] = len(failures) / len(corrupted) if caught else 0.0
    return fracs


# ---------------------------------------------------------------------------
# Running children
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The caller's environment, minus LTS_THREADS, importing the checkout's src/."""
    env = {k: v for k, v in os.environ.items() if k != "LTS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], env: dict, workdir: Path) -> tuple[int, str, float, int]:
    """Run one child to completion: exit code, stdout, wall seconds, max RSS in KiB."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(encoding="utf-8"), wall, usage.ru_maxrss


class Sampler:
    """Timed samples spread over the run between verdicts instead of in one burst.

    ``take`` returns one sample's duration; the first call is untimed warm-up.
    """

    def __init__(self, take, count: int, seconds: float):
        self.take, self.count, self.seconds = take, count, seconds
        self.start = time.perf_counter()
        self.times: list[float] = []
        take()

    def catch_up(self, done: float | None = None) -> None:
        """Take the samples owed by the share of the run gone by (all of them at the end)."""
        if done is None:
            done = (time.perf_counter() - self.start) / self.seconds
        while len(self.times) < self.count * min(done, 1.0):
            self.times.append(self.take())


def cold_start(env: dict, workdir: Path) -> float:
    """One ``tracestab --help`` in a fresh interpreter; raises if it does not print usage."""
    code, out, wall, _ = spawn([sys.executable, "-c", CLI, "--help"], env, workdir)
    if code != 0 or not out.startswith("usage: tracestab"):
        raise RuntimeError(f"tracestab --help exited {code} without printing usage")
    return wall


def reference_start(env: dict, workdir: Path) -> float:
    code, _, wall, _ = spawn([sys.executable, "-c", REFERENCE], env, workdir)
    if code != 0:
        raise RuntimeError(f"the reference start exited {code}")
    return wall


def run_pass(workload: Workload, env: dict, workdir: Path, samplers) -> list[Verdict]:
    done = []
    for v in workload.verdicts:
        for sampler in samplers:
            sampler.catch_up()
        code, out, wall, rss = spawn([sys.executable, "-c", CLI, *v.argv], env, workdir)
        done.append(Verdict(v.name, v.argv, code, out, wall, rss))
    return done


def run_in_process(workload: Workload, env: dict, workdir: Path,
                   tag: str, traced: bool) -> tuple[list[Verdict], dict]:
    """One pass through ``bench/tracer.py`` in a fresh interpreter."""
    commands = workdir / "commands.json"
    commands.write_text(json.dumps([v.argv for v in workload.verdicts]), encoding="utf-8")
    result = workdir / f"{tag}.json"
    argv = [sys.executable, str(BENCH / "tracer.py"), "--commands", str(commands),
            "--result", str(result)]
    if traced:
        argv += ["--spans", str(workdir / f"{tag}-spans.json.gz")]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    record = json.loads(result.read_text(encoding="utf-8"))
    verdicts = [Verdict(v.name, v.argv, c["exit"], c["stdout"], c["wall_s"])
                for v, c in zip(workload.verdicts, record["commands"])]
    return verdicts, record


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(layers: dict, overhead: float) -> dict:
    metrics = {}
    for name, calls in layers["calls"].items():
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(layers["self_s"][name], "s")
    counters, repeats, calls = layers["counters"], layers["repeats"], layers["calls"]
    lookups = counters["memo_hits"] + counters["memo_misses"]
    metrics["sigma.memo_hits"] = _metric(counters["memo_hits"], "count")
    metrics["sigma.memo_misses"] = _metric(counters["memo_misses"], "count")
    metrics["sigma.memo_hit_ratio"] = _metric(
        counters["memo_hits"] / lookups if lookups else 0.0, "ratio")
    for name, count in repeats.items():
        metrics[f"{name}.repeat_share"] = _metric(
            count / calls[name] if calls[name] else 0.0, "ratio")
    metrics["weylcoset.elements_visited"] = _metric(counters["elements_visited"], "count")
    classes = counters["classes_returned"]
    metrics["elliptic.points_per_class"] = _metric(
        counters["torsion_points"] / classes if classes else 0.0, "ratio")
    metrics["trace_overhead"] = _metric(overhead, "ratio")
    return metrics


def _counts(layers: dict) -> dict:
    return {"calls": layers["calls"], "repeats": layers["repeats"],
            "counters": layers["counters"]}


def environment(name: str, args) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "lts_threads_cleared": True,
        "children": "one at a time",
        "held_out_seed": HELD_OUT_SEED,
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def bench_workload(name: str, args) -> dict:
    workdir = OUT / f"{name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env_record = environment(name, args)
    workload = prepare(name, args.seed, workdir)
    env = child_env()
    first_stdout: dict[str, str] = {}
    failures: dict[str, str] = {}
    attempted = 0
    problems = []
    last: list[Verdict] = []

    def tally(verdicts, tag):
        nonlocal attempted, last
        attempted += len(verdicts)
        for verdict_name, reason in check(workload, verdicts, first_stdout).items():
            failures[f"{tag}/{verdict_name}"] = reason
        last = verdicts

    if args.trace:
        plain, plain_record = run_in_process(workload, env, workdir, "plain", traced=False)
        tally(plain, "plain")
        traced = []
        for tag in ("traced1", "traced2"):
            verdicts, record = run_in_process(workload, env, workdir, tag, traced=True)
            tally(verdicts, tag)
            traced.append(record)
        first, second = (_counts(r["layers"]) for r in traced)
        if first != second:
            problems.append("per-layer counts differ between two traced runs of one seed")
        overhead = traced[0]["wall_s"] / plain_record["wall_s"] - 1
        metrics = layer_metrics(traced[0]["layers"], overhead)
        timings = {"plain_wall_s": plain_record["wall_s"],
                   "traced_wall_s": [r["wall_s"] for r in traced]}
    else:
        setup = Sampler(lambda: cold_start(env, workdir), SETUP_STARTS, args.seconds)
        reference = Sampler(lambda: reference_start(env, workdir), SETUP_STARTS, args.seconds)
        walls, slowest, b4, rss = [], [], [], 0
        deadline = time.perf_counter() + args.seconds
        min_passes = 2 if name == "stabilize-seeded" else 1  # byte-identity needs two
        while (len(walls) < min_passes
               or time.perf_counter() + walls[-1] <= deadline):
            verdicts = run_pass(workload, env, workdir, (setup, reference))
            tally(verdicts, f"pass{len(walls)}")
            walls.append(sum(v.wall_s for v in verdicts))
            slowest.append(max(v.wall_s for v in verdicts))
            b4 += [v.wall_s for v in verdicts if v.name == "B4-sc"]
            rss = max([rss] + [v.rss_kb for v in verdicts])
        setup.catch_up(1.0)
        reference.catch_up(1.0)
        wall_s, reference_s = statistics.median(walls), statistics.median(reference.times)
        setup_raw_s = statistics.median(setup.times)
        metrics = {
            "wall_ref": _metric(wall_s / reference_s, "ref"),
            "setup_s": _metric(setup_raw_s * REFERENCE_BASE_S / reference_s, "s"),
            "peak_rss_mb": _metric(rss / 1024, "MB"),
        }
        timings = {"wall_s": wall_s, "reference_s": reference_s, "setup_raw_s": setup_raw_s,
                   "pass_wall_s": walls,
                   "pass_slowest_s": slowest, "sigma_b4_s": b4, "setup_starts_s": setup.times,
                   "reference_starts_s": reference.times}

    controls = negative_control(workload, last, first_stdout)
    if not all(frac > 0 for frac in controls.values()):
        problems.append("a negative control passed the gates")
    failed = len(failures)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env_record["loadavg_end"] = os.getloadavg()
    record = {"workload": name, "environment": env_record,
              "inputs_sha256": workload.inputs_sha256, "timings": timings,
              "fail_frac": failed / attempted, "failures": failures,
              "negative_control_fail_frac": controls, "problems": problems, **result}
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")

    print(f"== {name} seed={args.seed} trace={args.trace} inputs={workload.inputs_sha256[:16]}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for metric, entry in metrics.items():
        print(f"{metric:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'fail_frac':48s} {failed / attempted:.6g} ratio ({failed}/{attempted} verdicts)")
    if not args.trace:
        print(f"{'wall_s':48s} {timings['wall_s']:.6g} s")
        print(f"{'reference_s':48s} {timings['reference_s']:.6g} s")
        print(f"{'setup_raw_s':48s} {timings['setup_raw_s']:.6g} s")
        print(f"{'slowest_verdict_s':48s} {statistics.median(timings['pass_slowest_s']):.6g} s")
    if name == "sigma-ladder" and not args.trace:
        print(f"{'sigma_b4_s':48s} {statistics.median(timings['sigma_b4_s']):.6g} s")
    for label, frac in controls.items():
        print(f"negative control: {label:30s} fail_frac {frac:.3g} (must be > 0)")
    for label, reason in failures.items():
        print(f"FAILED {label}: {reason}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tracestab" / "cli.py").is_file():
        sys.stderr.write(f"no tracestab source tree under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: bench_workload(name, args) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                              for metric, entry in r["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
