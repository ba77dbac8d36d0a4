"""The root-data commands: ``i-number``, ``elliptic``, ``sigma``, ``verify ei`` and
``verify central-quotient``.

Each takes ``--group``, read by ``_read_group`` alone, as a name
(``weylcoset.named_component``), a datum file or a combined ``{"group",
"theta"}`` file; a name is read before a file of the same name.  ``sigma``
and ``verify central-quotient`` take no twist: a datum name is built by
``rootdata`` alone, and a twisted name gives its base, read only when no file
of that name exists, so a datum input never runs ``weylcoset``.  Names are
resolved where the data are built, so these commands never compile ``catalog``.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
    _rational_rows,
    _require_keys,
    fmt_q,
)
from .errors import MalformedInput

sigma = sys.modules[f"{__package__}.sigma"]  # the package attribute ``sigma`` is the function


@_parsing()
def _read_group(spec: str | None, names) -> tuple[rootdata.RootDatum, tuple | None]:
    """(base, θ or None) from --group: a name, a datum file or a combined file.

    The names in ``names`` are read before a file of the same name, and the
    other catalog names only when no such file exists.
    """
    if spec is None:
        raise MalformedInput("--group is required")
    if spec in rootdata.datum_names():
        return rootdata.named_datum(spec), None
    if spec in names or not os.path.isfile(spec) and spec in weylcoset.component_names():
        comp = weylcoset.named_component(spec)
        return comp.base, comp.theta
    obj = _load_json(spec)
    if not (isinstance(obj, dict) and "group" in obj):
        return _datum_from_obj(obj), None
    _require_keys(obj, ("group",), ("theta",))
    return _datum_from_obj(obj["group"]), _int_matrix(obj["theta"]) if "theta" in obj else None


@_parsing()
def _load_component(config: SimpleNamespace) -> weylcoset.TwistedComponent:
    """--group (``_read_group``) with --theta, which replaces the group's θ."""
    base, theta = _read_group(config.group, weylcoset.component_names())
    if config.theta is not None:
        tobj = _load_json(config.theta)
        if isinstance(tobj, dict):
            _require_keys(tobj, ("theta",))
            tobj = tobj["theta"]
        theta = _int_matrix(tobj)
    if theta is None:
        return weylcoset.untwisted_component(base)
    return weylcoset.component(base, theta)


def run_i_number(config: SimpleNamespace) -> int:
    comp = _load_component(config)
    value = weylcoset.i_number(comp)
    _emit(config, {"i": fmt_q(value)}, [("i", fmt_q(value))])
    return EXIT_OK


def run_elliptic(config: SimpleNamespace) -> int:
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


def run_sigma(config: SimpleNamespace) -> int:
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
    d, _ = _read_group(config.group, rootdata.datum_names())  # σ takes no twist
    value = sigma.sigma(d)
    _emit(config, {"sigma": fmt_q(value)}, [("sigma", fmt_q(value))])
    return EXIT_OK


def run_verify_ei(config: SimpleNamespace) -> int:
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


def run_verify_central_quotient(config: SimpleNamespace) -> int:
    d, _ = _read_group(config.group, rootdata.datum_names())
    if config.z is None:
        raise MalformedInput("--z FILE is required for central-quotient verification")
    with _parsing():
        zobj = _load_json(config.z)
        _require_keys(zobj, ("generators",))
        gens = _rational_rows(zobj["generators"])
    z = rootdata.central_subgroup(d, gens)
    ok = sigma.verify_central_quotient(d, z)
    sys.stdout.write(_dump({"order": z.order, "pass": ok}))
    return EXIT_OK if ok else EXIT_IDENTITY_FAILED
