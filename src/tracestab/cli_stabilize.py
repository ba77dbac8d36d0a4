"""The stabilization commands: ``stabilize verify`` (also ``verify stabilization``) and
``report``.

``stabilize verify`` checks discrete = stable = endoscopic on a model set
(``--models``: a file, or ``fixtures`` for ``catalog``'s fixture models and
descriptors), e = i per component, each descriptor's coefficient chain and
the constancy of i_φ along S_M-cosets.  ``report`` runs one small check of
every family.  Only the fixtures compile ``catalog``.
"""

from __future__ import annotations

import sys
from random import Random
from types import SimpleNamespace

from . import catalog, packets, rootdata, stabilize
from .cli import (
    EXIT_IDENTITY_FAILED,
    EXIT_OK,
    _datum_from_obj,
    _dump,
    _load_json,
    _parsing,
    _rational_rows,
    _require_keys,
    fmt_q,
)
from .cli_packets import _bits_to_pair, _model_from_obj, _packet_checks, _pair_to_bits
from .errors import MalformedInput

sigma = sys.modules[f"{__package__}.sigma"]  # the package attribute ``sigma`` is the function


def fmt_gauss(z: packets.GaussianRational) -> dict:
    return {"re": fmt_q(z.re), "im": fmt_q(z.im)}


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
    zbar = rootdata.central_subgroup(m.dual_group.base, _rational_rows(obj["zbar_generators"]))
    return stabilize.EndoscopicDescriptor(
        x=x, zbar=zbar, sprime_datum=_datum_from_obj(obj["sprime"]),
        **{k: obj[k] for k in ("group_label", "model_id", "class_index") + cards})


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


def run_stabilize_verify(config: SimpleNamespace) -> int:
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
    discrete = []
    for k, f1, f2 in vectors:
        discrete.append(stabilize.discrete_part(ms, f1, f2))
        record(f"discrete=stable[{k}]", discrete[-1], stabilize.stable_form(ms, f1, f2))
    if descriptors:
        for (k, f1, f2), value in zip(vectors[:10], discrete):
            record(f"endoscopic=discrete[{k}]",
                   stabilize.endoscopic_form(ms, descriptors, f1, f2), value)
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
    coset_items = []
    for m in ms.models:
        bits = {x: _pair_to_bits(x, m.s_m.dim, m.r.dim) for x in m.s_elements()}
        i_values = {x: stabilize.i_phi(m, x) for x in bits}
        for x, i_val in i_values.items():
            e_val = stabilize.e_phi(m, x)
            ei_items.append({"model": m.model_id, "x": bits[x],
                             "e": fmt_q(e_val), "i": fmt_q(i_val), "pass": e_val == i_val})
        coset_items += [{"model": m.model_id, "x": bits[x], "y": bits[y]}
                        for x in bits for y in bits
                        if x[1] == y[1] and i_values[x] != i_values[y]]
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


def run_report(config: SimpleNamespace) -> int:
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
    discrete = stabilize.discrete_part(ms, ones, ones)
    sections["stabilization"] = {
        "discrete=stable": discrete == stabilize.stable_form(ms, ones, ones),
        "endoscopic=discrete": stabilize.endoscopic_form(ms, descriptors, ones, ones) == discrete,
    }
    ok = (all(item["pass"] for item in sections["e_equals_i"])
          and all(packet_checks.values())
          and all(sections["stabilization"].values()))
    sys.stdout.write(_dump({"sections": sections, "pass": ok}))
    return EXIT_OK if ok else EXIT_IDENTITY_FAILED
