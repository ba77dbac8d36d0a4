"""Regenerate bench/bank.json, the static data behind the stabilize-seeded inputs.

    PYTHONPATH=src python3 bench/make_bank.py

The bank pins, as plain JSON, the facts the input generator needs and must
not recompute with the code under test: the four fixture models with their
fixture descriptors, the elliptic classes of each untwisted bank base (in the
order the descriptors index them), and the |S| = 2 twisted bank shapes with
their principal descriptors.  It was written from the package as it stood
when the benchmark was defined; regenerating it on later code is a change of
benchmark inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracestab import catalog
from tracestab.elliptic import elliptic_classes
from tracestab.packets import DualGroupModel, ParameterModel, TwoGroup
from tracestab.weylcoset import untwisted_component

UNTWISTED_BASES = ("trivial", "gl1", "sl2", "pgl2", "sl3", "sp4", "sl2xsl2")
PLACEHOLDER = "@"


def _datum(d) -> dict:
    return {"rank": d.rank, "simple_roots": [list(r) for r in d.simple_roots],
            "simple_coroots": [list(r) for r in d.simple_coroots]}


def _bits(x, m) -> str:
    return ("".join(str((x[0] >> i) & 1) for i in range(m.s_m.dim))
            + "".join(str((x[1] >> i) & 1) for i in range(m.r.dim)))


def _model(m) -> dict:
    thetas = {_bits(x, m): [list(row) for row in theta]
              for x, theta in sorted(m.dual_group.thetas.items())}
    return {"id": m.model_id, "sM_dim": m.s_m.dim, "r_dim": m.r.dim,
            "dual_group": {"base": _datum(m.dual_group.base), "thetas": thetas}}


def _descriptor(d, m) -> dict:
    return {"group_label": d.group_label, "model_id": d.model_id, "x": _bits(d.x, m),
            "class_index": d.class_index, "out_card": d.out_card,
            "out_phi_card": d.out_phi_card,
            "zbar_generators": [[str(c) for c in g] for g in d.zbar.generators],
            "sprime": _datum(d.sprime_datum), "splus_over_s_card": d.splus_over_s_card,
            "s_phi_prime_card": d.s_phi_prime_card}


def _twisted(base, theta) -> dict:
    rank = base.rank
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    m = ParameterModel(PLACEHOLDER, TwoGroup(0), TwoGroup(1),
                       DualGroupModel(base, {(0, 0): ident, (0, 1): theta}))
    return {"model": _model(m),
            "descriptors": [_descriptor(d, m) for d in catalog.principal_descriptors(m)]}


def build() -> dict:
    fixtures = catalog.fixture_models()
    by_id = {m.model_id: m for m in fixtures}
    descriptors = [d for _, ds in sorted(catalog.fixture_descriptors().items()) for d in ds]
    classes = {}
    for name in UNTWISTED_BASES:
        classes[name] = [{"zero": all(c == 0 for c in k.rep.coords), "pi0": k.pi0,
                          "centralizer": _datum(k.centralizer_datum)}
                         for k in elliptic_classes(untwisted_component(catalog.datum(name)))]
    return {
        "fixtures": {"models": [_model(m) for m in fixtures],
                     "descriptors": [_descriptor(d, by_id[d.model_id]) for d in descriptors]},
        "untwisted_classes": classes,
        "twisted": {
            "torus1": _twisted(catalog.datum("gl1"), catalog.NEG1),
            "swap": _twisted(catalog.datum("sl2xsl2"), catalog.SWAP2),
        },
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent / "bank.json"
    path.write_text(json.dumps(build(), sort_keys=True, indent=1) + "\n", encoding="utf-8")
