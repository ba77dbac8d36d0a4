"""Exact combinatorics of spectral coefficients for disconnected reductive groups.

The package computes, in exact rational arithmetic: signed Weyl-coset sums
i(S) of twisted components, elliptic semisimple classes with their component
groups, the recursive σ-constants of connected reductive groups, spectral
transfer-factor algebra on finite packet models, and the discrete-part
identity chain tying those together.
"""

from .elliptic import SemisimpleClass, TorusPoint, elliptic_classes, is_elliptic, torus_point
from .errors import (
    DuplicateModelId,
    InconsistentDescriptor,
    InfiniteOrder,
    InfiniteType,
    MalformedInput,
    MismatchedModel,
    MissingDualGroup,
    NonCartan,
    NotAutomorphism,
    NotCentral,
    TraceStabError,
    TwistedUnsupported,
    WeylGroupTooLarge,
)
from .packets import (
    DualGroupModel,
    GaussianRational,
    ParameterModel,
    TestVector,
    TwoGroup,
    adjoint_factor,
    invert_transfer,
    theta_transfer,
    transfer_factor,
    verify_adjoint,
)
from .rootdata import (
    CentralSubgroup,
    RootDatum,
    WeylElement,
    build_root_datum,
    canonical_key,
    cartan_type,
    central_subgroup,
    quotient_by_central,
    weyl_group,
)
from .sigma import SigmaTable, sigma, verify_central_quotient, verify_ei
from .stabilize import (
    DiscreteModelSet,
    EndoscopicDescriptor,
    discrete_part,
    e_phi,
    endoscopic_form,
    i_phi,
    iota_coefficient,
    s_disc,
    stable_form,
    verify_coefficients,
)
from .weylcoset import TwistedComponent, component, i_number, untwisted_component, weyl_set

__all__ = [name for name in dir() if not name.startswith("_")]
