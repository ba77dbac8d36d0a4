"""The root-data commands: ``i-number``, ``elliptic``, ``sigma``, ``verify ei`` and
``verify central-quotient``.

Each takes ``--group`` as a name (``rootdata.NAMED_DATA`` or
``weylcoset.named_component``), a datum file or a combined ``{"group",
"theta"}`` file; a name is read before a file of the same name.  Names are
resolved where the data are built, so these commands never compile
``catalog``.
"""

from __future__ import annotations

import argparse
import sys

from . import elliptic, rootdata, weylcoset
from .cli import (
    EXIT_IDENTITY_FAILED,
    EXIT_OK,
    _datum_from_obj,
    _dump,
    _emit,
    _int_matrix,
    _load_json,
    _parsing,
    _require_keys,
    fmt_q,
    parse_q,
)
from .errors import MalformedInput

sigma = sys.modules[f"{__package__}.sigma"]  # the package attribute ``sigma`` is the function


@_parsing()
def _load_component(config: argparse.Namespace) -> weylcoset.TwistedComponent:
    """Resolve --group (catalog name, datum file, or combined file) + --theta."""
    spec = config.group
    if spec is None:
        raise MalformedInput("--group is required")
    theta = None
    if spec in weylcoset.component_names():
        comp = weylcoset.named_component(spec)
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
    if spec in rootdata.datum_names():
        return rootdata.named_datum(spec)
    obj = _load_json(spec)
    if not (isinstance(obj, dict) and "group" in obj):
        return _datum_from_obj(obj)
    _require_keys(obj, ("group",), ("theta",))
    d = _datum_from_obj(obj["group"])
    if "theta" in obj:
        _int_matrix(obj["theta"])  # read as ``_load_component`` reads it; σ does not use θ
    return d


def run_i_number(config: argparse.Namespace) -> int:
    comp = _load_component(config)
    value = weylcoset.i_number(comp)
    _emit(config, {"i": fmt_q(value)}, [("i", fmt_q(value))])
    return EXIT_OK


def run_elliptic(config: argparse.Namespace) -> int:
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


def run_sigma(config: argparse.Namespace) -> int:
    if config.catalog_flag or config.group is None:
        rows = []
        items = []
        for name in rootdata.datum_names():
            d = rootdata.named_datum(name)
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


def run_verify_ei(config: argparse.Namespace) -> int:
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


def run_verify_central_quotient(config: argparse.Namespace) -> int:
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
