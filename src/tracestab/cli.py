"""Command-line surface: parse input specs, run computations, emit reports.

All reports are deterministic: rationals are serialized as "p/q" strings in
lowest terms with an explicit sign, JSON objects are dumped with sorted keys,
and nothing depends on hash order.  Exit codes: 0 all requested identities
hold, 1 an identity fails, 2 usage error, 3 missing file, 4 malformed input,
5 a computation error propagated from a module.

The layers are bound as lazy modules (see ``tracestab/__init__``): importing
this module runs only ``errors``, and a command compiles only the layers it
calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from . import catalog, elliptic, packets, rootdata, stabilize, weylcoset
from .errors import MalformedInput, TraceStabError

sigma = sys.modules[f"{__package__}.sigma"]  # the package attribute ``sigma`` is the function

EXIT_OK = 0
EXIT_IDENTITY_FAILED = 1
EXIT_MISSING_FILE = 3
EXIT_MALFORMED = 4
EXIT_MODULE_ERROR = 5

# Largest dim S_M + dim R a model file may ask for.  The transfer table has
# |S|² entries with |S| = 2^(dim S_M + dim R); at the limit, |S| = 256,
# ``packets verify`` with 100 trials takes about 1.8 s on a 2-CPU x86-64 host.
MAX_PACKET_DIM = 8


def fmt_q(x: Fraction) -> str:
    x = Fraction(x)
    if x == 0:
        return "0/1"
    sign = "-" if x < 0 else "+"
    return f"{sign}{abs(x.numerator)}/{x.denominator}"


def fmt_gauss(z: packets.GaussianRational) -> dict:
    return {"re": fmt_q(z.re), "im": fmt_q(z.im)}


def parse_q(text) -> Fraction:
    if type(text) is int:  # JSON true/false are bools, not integers
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedInput(f"expected an exact rational, got {text!r}")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def _load_json(path: str):
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read(), parse_float=_reject_float)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8; nested past the decoder's limit
        raise MalformedInput(str(exc)) from exc


@contextmanager
def _parsing():
    """Report a wrongly shaped value met while turning JSON into data as malformed input.

    Only the parsing steps run under this; the same errors raised by a
    computation are bugs and propagate.
    """
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise MalformedInput(str(exc)) from exc


def _reject_float(s):
    raise MalformedInput(f"floats are not accepted in input files: {s}")


def _require_keys(obj: dict, required, optional=()):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise MalformedInput(f"unknown fields in input: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise MalformedInput(f"missing fields in input: {sorted(missing)}")


def _int_matrix(obj) -> tuple:
    if not isinstance(obj, list):
        raise MalformedInput("matrix must be a list of integer rows")
    out = []
    for row in obj:
        if not isinstance(row, list) or not all(type(x) is int for x in row):
            raise MalformedInput("matrix rows must be lists of integers")
        out.append(tuple(row))
    return tuple(out)


def _datum_from_obj(obj) -> rootdata.RootDatum:
    if isinstance(obj, str):
        return catalog.datum(obj)
    if not isinstance(obj, dict):
        raise MalformedInput("group spec must be a name or an object")
    _require_keys(obj, ("rank", "simple_roots", "simple_coroots"))
    if type(obj["rank"]) is not int:
        raise MalformedInput("rank must be an integer")
    return rootdata.build_root_datum(obj["rank"], _int_matrix(obj["simple_roots"]),
                                     _int_matrix(obj["simple_coroots"]))


@_parsing()
def _load_component(config: argparse.Namespace) -> weylcoset.TwistedComponent:
    """Resolve --group (catalog name, datum file, or combined file) + --theta."""
    spec = config.group
    if spec is None:
        raise MalformedInput("--group is required")
    theta = None
    if spec in catalog.component_names():
        comp = catalog.named_component(spec)
        base, theta = comp.base, comp.theta
    else:
        obj = _load_json(spec)
        if isinstance(obj, dict) and "group" in obj:
            _require_keys(obj, ("group",), ("theta",))
            base = _datum_from_obj(obj["group"])
            if "theta" in obj:
                theta = _int_matrix(obj["theta"])
        else:
            base = _datum_from_obj(obj)
    if config.theta is not None:
        tobj = _load_json(config.theta)
        if isinstance(tobj, dict):
            _require_keys(tobj, ("theta",))
            tobj = tobj["theta"]
        theta = _int_matrix(tobj)
    if theta is None:
        return weylcoset.untwisted_component(base)
    return weylcoset.component(base, theta)


@_parsing()
def _load_datum(config: argparse.Namespace) -> rootdata.RootDatum:
    spec = config.group
    if spec is None:
        raise MalformedInput("--group is required")
    if spec in catalog.datum_names():
        return catalog.datum(spec)
    obj = _load_json(spec)
    if isinstance(obj, dict) and "group" in obj:
        _require_keys(obj, ("group",), ("theta",))
        obj = obj["group"]
    return _datum_from_obj(obj)


def _bits_to_pair(key: str, sm_dim: int, r_dim: int) -> tuple[int, int]:
    if type(key) is not str or len(key) != sm_dim + r_dim or any(c not in "01" for c in key):
        raise MalformedInput(f"component key {key!r} must be {sm_dim + r_dim} bits")
    xm = sum((1 << i) for i, c in enumerate(key[:sm_dim]) if c == "1")
    xr = sum((1 << i) for i, c in enumerate(key[sm_dim:]) if c == "1")
    return xm, xr


def _pair_to_bits(x, sm_dim: int, r_dim: int) -> str:
    bits_m = "".join("1" if (x[0] >> i) & 1 else "0" for i in range(sm_dim))
    bits_r = "".join("1" if (x[1] >> i) & 1 else "0" for i in range(r_dim))
    return bits_m + bits_r


@_parsing()
def _model_from_obj(obj, fallback_id: str) -> packets.ParameterModel:
    _require_keys(obj, ("sM_dim", "r_dim"), ("dual_group", "id"))
    sm_dim, r_dim = obj["sM_dim"], obj["r_dim"]
    for dim in (sm_dim, r_dim):
        if type(dim) is not int or dim < 0:
            raise MalformedInput("group dimensions must be non-negative integers")
    if sm_dim + r_dim > MAX_PACKET_DIM:
        raise MalformedInput(f"sM_dim + r_dim = {sm_dim + r_dim} is above the limit {MAX_PACKET_DIM}")
    dual = None
    if "dual_group" in obj and obj["dual_group"] is not None:
        dobj = obj["dual_group"]
        _require_keys(dobj, ("base", "thetas"))
        base = _datum_from_obj(dobj["base"])
        if not isinstance(dobj["thetas"], dict):
            raise MalformedInput("thetas must map component bitstrings to matrices")
        thetas = {}
        for key, mat in sorted(dobj["thetas"].items()):
            thetas[_bits_to_pair(key, sm_dim, r_dim)] = _int_matrix(mat)
        dual = packets.DualGroupModel(base, thetas)
    model_id = obj.get("id", fallback_id)
    if not isinstance(model_id, str):
        raise MalformedInput("model id must be a string")
    return packets.ParameterModel(model_id, packets.TwoGroup(sm_dim), packets.TwoGroup(r_dim),
                                  dual)


def _descriptor_from_obj(obj, models_by_id) -> stabilize.EndoscopicDescriptor:
    _require_keys(obj, ("group_label", "model_id", "x", "class_index", "out_card",
                        "out_phi_card", "zbar_generators", "sprime",
                        "splus_over_s_card", "s_phi_prime_card"))
    cards = ("out_card", "out_phi_card", "splus_over_s_card", "s_phi_prime_card")
    if any(type(obj[k]) is not int for k in cards + ("class_index",)) or min(
            obj[k] for k in cards) < 1 or not isinstance(obj["group_label"], str):
        raise MalformedInput("descriptor cardinalities must be positive integers, "
                             "class_index an integer and group_label a string")
    m = models_by_id.get(obj["model_id"])
    if m is None:
        raise MalformedInput(f"descriptor references unknown model {obj['model_id']!r}")
    if m.dual_group is None:
        raise MalformedInput(f"descriptor model {obj['model_id']!r} has no dual group")
    x = _bits_to_pair(obj["x"], m.s_m.dim, m.r.dim)
    gens = tuple(tuple(parse_q(v) for v in g) for g in obj["zbar_generators"])
    zbar = rootdata.central_subgroup(m.dual_group.base, gens)
    return stabilize.EndoscopicDescriptor(
        x=x, zbar=zbar, sprime_datum=_datum_from_obj(obj["sprime"]),
        **{k: obj[k] for k in ("group_label", "model_id", "class_index") + cards})


def _trial_count(text: str) -> int:
    """--trials: a non-negative integer; 0 runs no random trials."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _emit(config: argparse.Namespace, obj, tsv_rows) -> None:
    if config.fmt == "tsv":
        for row in tsv_rows:
            sys.stdout.write("\t".join(str(c) for c in row) + "\n")
    else:
        sys.stdout.write(_dump(obj))


def _run_i_number(config: argparse.Namespace) -> int:
    comp = _load_component(config)
    value = weylcoset.i_number(comp)
    _emit(config, {"i": fmt_q(value)}, [("i", fmt_q(value))])
    return EXIT_OK


def _run_elliptic(config: argparse.Namespace) -> int:
    comp = _load_component(config)
    classes = elliptic.elliptic_classes(comp)
    rows = []
    items = []
    for cls in classes:
        rep = "(" + ",".join(fmt_q(c) for c in cls.rep.coords) + ")"
        ctype = ",".join(rootdata.cartan_type(cls.centralizer_datum)) or "torus"
        items.append({"rep": [fmt_q(c) for c in cls.rep.coords],
                      "order": cls.rep.order,
                      "pi0": cls.pi0,
                      "centralizer_type": ctype,
                      "elliptic": cls.elliptic})
        rows.append((rep, cls.pi0, ctype))
    _emit(config, {"classes": items, "count": len(items)}, rows)
    return EXIT_OK


def _run_sigma(config: argparse.Namespace) -> int:
    if config.catalog_flag or config.group is None:
        rows = []
        items = []
        for name in catalog.datum_names():
            d = catalog.datum(name)
            value = sigma.sigma(d)
            ctype = ",".join(rootdata.cartan_type(d)) or "torus"
            key = rootdata.canonical_key(d).decode()
            rows.append((key, ctype, fmt_q(value)))
            items.append({"name": name, "key": key, "type": ctype, "sigma": fmt_q(value)})
        _emit(config, {"catalog": items}, rows)
        return EXIT_OK
    d = _load_datum(config)
    value = sigma.sigma(d)
    _emit(config, {"sigma": fmt_q(value)}, [("sigma", fmt_q(value))])
    return EXIT_OK


def _run_verify_ei(config: argparse.Namespace) -> int:
    comp = _load_component(config)
    report = sigma.verify_ei(comp)
    obj = {
        "e": fmt_q(report.e),
        "i": fmt_q(report.i),
        "equal": report.equal,
        "per_class": [{"rep": [fmt_q(c) for c in t.rep], "pi0": t.pi0,
                       "sigma": fmt_q(t.sigma_value), "term": fmt_q(t.term)}
                      for t in report.per_class],
    }
    _emit(config, obj, [("e", fmt_q(report.e)), ("i", fmt_q(report.i)),
                        ("equal", report.equal)])
    return EXIT_OK if report.equal else EXIT_IDENTITY_FAILED


def _run_verify_central_quotient(config: argparse.Namespace) -> int:
    d = _load_datum(config)
    if config.z is None:
        raise MalformedInput("--z FILE is required for central-quotient verification")
    with _parsing():
        zobj = _load_json(config.z)
        _require_keys(zobj, ("generators",))
        gens = tuple(tuple(parse_q(v) for v in g) for g in zobj["generators"])
    z = rootdata.central_subgroup(d, gens)
    ok = sigma.verify_central_quotient(d, z)
    sys.stdout.write(_dump({"order": z.order, "pass": ok}))
    return EXIT_OK if ok else EXIT_IDENTITY_FAILED


def _packet_checks(m: packets.ParameterModel, seed: int, trials: int) -> dict:
    """The four packet identities, each checked in integers on the numerator table N.

    Every factor is N[τ][x] over |S| or |R|, so each identity is its Fraction
    form multiplied through by a nonzero integer and gives the same verdict.
    """
    rng = Random(seed)
    table = m.transfer_numerators
    scale = m.r.size * m.s_size
    # Δ(τ, φ^x) and Δ(φ^x, τ) agree with their closed forms iff N = |R|·δ(r, x_R)·η(x_M).
    route_ok = all(n == (m.r.size * packets.TwoGroup.char(eta, xm) if r == xr else 0)
                   for (eta, r), row in zip(m.taus(), table)
                   for (xm, xr), n in zip(m.s_elements(), row))
    adjoint_ok = packets.verify_adjoint(m)
    columns = tuple(zip(*table))

    def roundtrip(f) -> bool:
        """Θ = N·f inverts as Nᵀ·Θ = |R|·|S|·f, on f's column with its denominator cleared."""
        theta = [packets.theta_numerator(row, f) for row in table]
        return all(packets.theta_numerator(col, theta) == (scale * re, scale * im)
                   for col, (re, im) in zip(columns, f))

    roundtrip_ok = all(roundtrip(packets.TestVector.random(rng, [m]).column(m))
                       for _ in range(trials))
    return {
        "route_agreement": route_ok,
        # |S|·Δ(τ, φ^x) and |R|·Δ(φ^x, τ) are both the one entry N[τ][x]: true by construction.
        "scaling_law": True,
        "adjoint_relations": adjoint_ok,
        "transfer_roundtrip": roundtrip_ok,
    }


def _run_packets_verify(config: argparse.Namespace) -> int:
    obj = _load_json(config.model)
    m = _model_from_obj(obj, fallback_id="model")
    checks = _packet_checks(m, config.seed, config.trials)
    ok = all(checks.values())
    sys.stdout.write(_dump({"model": m.model_id, "checks": checks, "pass": ok}))
    return EXIT_OK if ok else EXIT_IDENTITY_FAILED


@_parsing()
def _load_model_set(spec: str):
    if spec == "fixtures":
        models = catalog.fixture_models()
        descriptors = [d for ds in sorted(catalog.fixture_descriptors().items())
                       for d in ds[1]]
        return stabilize.DiscreteModelSet(models), tuple(descriptors)
    obj = _load_json(spec)
    _require_keys(obj, ("models",), ("descriptors",))
    models = tuple(_model_from_obj(o, f"model{i}") for i, o in enumerate(obj["models"]))
    by_id = {m.model_id: m for m in models}
    if len(by_id) != len(models):
        raise MalformedInput("model ids must be unique")
    descriptors = tuple(_descriptor_from_obj(o, by_id) for o in obj.get("descriptors", ()))
    return stabilize.DiscreteModelSet(models), descriptors


def _run_stabilize_verify(config: argparse.Namespace) -> int:
    ms, descriptors = _load_model_set(config.models)
    rng = Random(config.seed)
    identities = []

    def record(name: str, lhs: packets.GaussianRational, rhs: packets.GaussianRational):
        identities.append({
            "identity": name,
            "lhs": fmt_gauss(lhs),
            "rhs": fmt_gauss(rhs),
            "pass": lhs == rhs,
        })

    ones = packets.TestVector.constant(ms.models, 1)
    vectors = [(0, ones, ones)]
    for k in range(1, config.trials + 1):
        vectors.append((k, packets.TestVector.random(rng, ms.models),
                        packets.TestVector.random(rng, ms.models)))
    for k, f1, f2 in vectors:
        record(f"discrete=stable[{k}]", stabilize.discrete_part(ms, f1, f2),
               stabilize.stable_form(ms, f1, f2))
    if descriptors:
        for k, f1, f2 in vectors[: max(1, min(10, len(vectors)))]:
            record(f"endoscopic=discrete[{k}]",
                   stabilize.endoscopic_form(ms, descriptors, f1, f2),
                   stabilize.discrete_part(ms, f1, f2))
    by_id = {m.model_id: m for m in ms.models}
    coefficient_checks = []
    for d in descriptors:
        report = stabilize.coefficient_report(by_id[d.model_id], d)
        for name, lhs, rhs, ok in report.checks:
            coefficient_checks.append({
                "descriptor": f"{d.group_label}/{d.model_id}",
                "check": name, "lhs": lhs, "rhs": rhs, "pass": ok,
            })

    ei_items = []
    for m in ms.models:
        for x in m.s_elements():
            e_val = stabilize.e_phi(m, x)
            i_val = stabilize.i_phi(m, x)
            ei_items.append({"model": m.model_id, "x": _pair_to_bits(x, m.s_m.dim, m.r.dim),
                             "e": fmt_q(e_val), "i": fmt_q(i_val), "pass": e_val == i_val})
    coset_items = [{"model": m.model_id, "x": _pair_to_bits(x, m.s_m.dim, m.r.dim),
                    "y": _pair_to_bits(y, m.s_m.dim, m.r.dim)}
                   for m in ms.models for x in m.s_elements() for y in m.s_elements()
                   if x[1] == y[1] and stabilize.i_phi(m, x) != stabilize.i_phi(m, y)]
    all_pass = (all(item["pass"] for item in identities)
                and all(item["pass"] for item in ei_items)
                and all(item["pass"] for item in coefficient_checks)
                and not coset_items)
    flags = [{"model": m.model_id,
              "discrete": stabilize.phi_disc(m),
              "stably_discrete": stabilize.phi_s_disc(m),
              "s_disc_components": sorted(
                  _pair_to_bits(x, m.s_m.dim, m.r.dim) for x in stabilize.s_disc_set(m))}
             for m in ms.models]
    obj = {
        "seed": config.seed,
        "trials": config.trials,
        "models": flags,
        "identities": identities,
        "e_equals_i": ei_items,
        "coefficient_checks": coefficient_checks,
        "coset_constancy_failures": coset_items,
        "stable_distribution": fmt_gauss(stabilize.s_disc(ms, ones, ones)),
        "pass": all_pass,
    }
    sys.stdout.write(_dump(obj))
    return EXIT_OK if all_pass else EXIT_IDENTITY_FAILED


def _run_report(config: argparse.Namespace) -> int:
    sections = {}
    ei = []
    for name in catalog.component_names():
        comp = catalog.named_component(name)
        rep = sigma.verify_ei(comp)
        ei.append({"component": name, "e": fmt_q(rep.e), "i": fmt_q(rep.i),
                   "pass": rep.equal})
    sections["e_equals_i"] = ei
    sections["sigma"] = [{"name": n, "sigma": fmt_q(sigma.sigma(catalog.datum(n)))}
                         for n in catalog.datum_names()]
    packet_checks = {}
    for sm in range(3):
        for r in range(3):
            m = packets.ParameterModel(f"m{sm}{r}", packets.TwoGroup(sm), packets.TwoGroup(r))
            packet_checks[f"sM={sm},r={r}"] = all(
                _packet_checks(m, config.seed, 5).values())
    sections["packets"] = packet_checks
    ms, descriptors = _load_model_set("fixtures")
    ones = packets.TestVector.constant(ms.models, 1)
    sections["stabilization"] = {
        "discrete=stable": (stabilize.discrete_part(ms, ones, ones)
                            == stabilize.stable_form(ms, ones, ones)),
        "endoscopic=discrete": (stabilize.endoscopic_form(ms, descriptors, ones, ones)
                                == stabilize.discrete_part(ms, ones, ones)),
    }
    ok = (all(item["pass"] for item in sections["e_equals_i"])
          and all(packet_checks.values())
          and all(sections["stabilization"].values()))
    sys.stdout.write(_dump({"sections": sections, "pass": ok}))
    return EXIT_OK if ok else EXIT_IDENTITY_FAILED


# Every option a command may read, as argparse takes it.
_OPTIONS = {
    "--group": {}, "--theta": {}, "--z": {}, "--model": {"required": True},
    "--models": {"default": "fixtures"}, "--seed": {"type": int, "default": 0},
    "--trials": {"type": _trial_count, "default": 100},
    "--format": {"dest": "fmt", "choices": ("json", "tsv"), "default": "json"},
    "--catalog": {"dest": "catalog_flag", "action": "store_true"},
}

# One row per command: its path, its runner and the options that runner reads.  The second
# word of a ``verify`` path is a target; any other is a positional that options may precede.
COMMANDS = (
    ("i-number", _run_i_number, "--group --theta --format"),
    ("elliptic", _run_elliptic, "--group --theta --format"),
    ("sigma", _run_sigma, "--group --format --catalog"),
    ("verify ei", _run_verify_ei, "--group --theta --format"),
    ("verify central-quotient", _run_verify_central_quotient, "--group --z"),
    ("verify stabilization", _run_stabilize_verify, "--models --seed --trials"),
    ("packets verify", _run_packets_verify, "--model --seed --trials"),
    ("stabilize verify", _run_stabilize_verify, "--models --seed --trials"),
    ("report", _run_report, "--seed"),
)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="tracestab",
                                     description="Exact spectral coefficients and "
                                                 "stabilization identity checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    targets = None
    for path, runner, options in COMMANDS:
        head, _, tail = path.partition(" ")
        if head == "verify":
            if targets is None:
                targets = sub.add_parser("verify").add_subparsers(dest="target", required=True)
            p = targets.add_parser(tail)
        else:
            p = sub.add_parser(head)
            if tail:
                p.add_argument("target", choices=(tail,))
        for flag in options.split():
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(runner=runner)
    return parser.parse_args(argv)


def run(config: argparse.Namespace) -> int:
    """Run a parsed configuration's command; returns the process exit code."""
    try:
        return config.runner(config)
    except FileNotFoundError as exc:
        sys.stderr.write(f"missing file: {exc}\n")
        return EXIT_MISSING_FILE
    except (MalformedInput, json.JSONDecodeError) as exc:
        sys.stderr.write(_dump({"error": {"kind": "malformed-input", "detail": str(exc)}}))
        return EXIT_MALFORMED
    except TraceStabError as exc:
        sys.stderr.write(_dump({"error": {"kind": type(exc).__name__, "detail": str(exc)}}))
        return EXIT_MODULE_ERROR


def main(argv=None) -> int:
    return run(parse_args(argv))  # argparse reads sys.argv[1:] when argv is None


if __name__ == "__main__":
    sys.exit(main())
