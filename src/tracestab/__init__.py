"""Exact combinatorics of spectral coefficients for disconnected reductive groups.

The package computes, in exact rational arithmetic: signed Weyl-coset sums
i(S) of twisted components, elliptic semisimple classes with their component
groups, the recursive σ-constants of connected reductive groups, spectral
transfer-factor algebra on finite packet models, and the discrete-part
identity chain tying those together.

Every layer module, and each of the CLI's three command modules, is
registered in ``sys.modules`` at import but compiled and run only when one of
its attributes is first read, so a command loads just its own command module
and the layers it calls.  The names below are served from their defining
module on first use.
"""

import importlib.util
import sys

_LAYERS = ("errors", "linalg", "rootdata", "weylcoset", "elliptic", "sigma", "packets",
           "stabilize", "catalog", "cli_rootdata", "cli_packets", "cli_stabilize")

# Re-exported name -> the layer that defines it.
_EXPORTS = {name: layer for layer, names in (
    ("elliptic", "SemisimpleClass TorusPoint elliptic_classes is_elliptic torus_point"),
    ("errors", "DuplicateModelId InconsistentDescriptor InfiniteOrder InfiniteType "
               "MalformedInput MismatchedModel MissingDualGroup NonCartan NotAutomorphism "
               "NotCentral TraceStabError TwistedUnsupported WeylGroupTooLarge"),
    ("packets", "DualGroupModel GaussianRational ParameterModel TestVector TwoGroup "
                "adjoint_factor invert_transfer theta_transfer transfer_factor verify_adjoint"),
    ("rootdata", "CentralSubgroup RootDatum WeylElement build_root_datum canonical_key "
                 "cartan_type central_subgroup quotient_by_central weyl_group"),
    ("sigma", "SigmaTable sigma verify_central_quotient verify_ei"),
    ("stabilize", "DiscreteModelSet EndoscopicDescriptor discrete_part e_phi endoscopic_form "
                  "i_phi iota_coefficient s_disc stable_form verify_coefficients"),
    ("weylcoset", "TwistedComponent component i_number untwisted_component weyl_set"),
) for name in names.split()}

for _layer in _LAYERS:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    if _layer not in _EXPORTS:  # ``tracestab.sigma`` stays the function
        globals()[_layer] = _module
del _layer, _spec, _module

__all__ = sorted(set(_EXPORTS) | {"elliptic", "errors", "linalg", "packets", "rootdata",
                                  "stabilize", "weylcoset"})


def __getattr__(name):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{layer}"], name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
